"""Exception taxonomy, the value checks that raise it, and the one file reader and writer.

Every input file enters through ``read_file``; every output file leaves through
``write_file``, whole or not at all, and a JSON output is ``json_text``.
"""

import json
import math
import os
from pathlib import Path


class MetafnError(Exception):
    """Base class for all package errors."""


class DimensionError(MetafnError):
    """Array shapes are inconsistent with an operation's contract."""


class ConfigError(MetafnError):
    """Invalid model or run configuration."""


class DataError(MetafnError):
    """Malformed or inconsistent input data."""


class UsageError(MetafnError):
    """An API or CLI call violates a precondition."""


class CheckpointError(MetafnError):
    """A checkpoint file is incompatible, truncated, or corrupt."""


def check_int(key: str, value, minimum: int) -> None:
    """Raise ``ConfigError`` naming ``key`` unless ``value`` is an int >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, not {value!r}")


def check_real(key: str, value) -> None:
    """Raise ``ConfigError`` naming ``key`` unless ``value`` is a finite number >= 0."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value < 0):
        raise ConfigError(f"{key} must be a finite number >= 0, not {value!r}")


def check_choice(key: str, value, choices: tuple) -> None:
    """Raise ``ConfigError`` naming ``key`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ConfigError(f"{key} must be one of {', '.join(map(repr, choices))}, "
                          f"not {value!r}")


def read_file(path, error: type[MetafnError], what: str) -> bytes:
    """The bytes of ``path``; any failure to read them raises ``error`` naming the file."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise error(f"{path}: {what} not found") from None
    except OSError as exc:      # a directory, no permission, ...
        raise error(f"{path}: {what} cannot be read: {exc.strerror}") from None


def read_json(path, error: type[MetafnError], what: str, parse=lambda doc: doc):
    """``parse`` of the UTF-8 JSON document at ``path``; every fault raises ``error``."""
    blob = read_file(path, error, what)
    try:
        doc = json.loads(blob.decode("utf-8"))
    except ValueError as exc:   # not UTF-8 or not JSON
        raise error(f"{path}: {what} is not valid JSON "
                    f"({type(exc).__name__}: {exc})") from None
    try:
        return parse(doc)
    except (KeyError, TypeError, ValueError, AttributeError, MetafnError) as exc:
        raise error(f"{path}: malformed {what} ({type(exc).__name__}: {exc})") from None


def write_file(path, data: bytes | str) -> None:
    """Write ``data`` (text as UTF-8) to ``path`` whole or not at all, making its parents.

    A temporary file beside the target is synced, then renamed over it; on any
    failure it is removed and the error re-raised.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def json_text(doc) -> str:
    """The one JSON output format; a NaN or an infinity raises ``ValueError``."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
