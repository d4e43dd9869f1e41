"""Binary checkpoint container.

Little-endian layout:

    magic   8 bytes  "MFNCKPT1"
    version u32
    hlen    u32      length of the UTF-8 JSON header
    header  bytes    {"model_config", "datasets", "phase"} and no other key
    count   u32      number of parameter records
    record  repeated:
        name_len u16, name utf-8,
        dtype    u8   (0 = float64, the only tag written or read),
        ndim     u8,  dims u32 * ndim,
        crc32    u32  of the raw payload,
        payload  raw little-endian values

Records are written in registry order, so save -> load -> save is
byte-identical.  Every record's CRC is verified on load and failures
name the offending entry, as do a name that repeats and a payload that
holds a NaN or an infinity; a malformed header is rejected naming the
file.  A save goes through ``errors.write_file``, so it leaves either the
previous file or the new one, whole.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ConfigError, check_choice, read_file, write_file
from .model import DatasetSignature, ModelAssembly, ModelConfig
from .training import PHASES

MAGIC = b"MFNCKPT1"
VERSION = 1
_F64 = 0     # dtype tag of every record
_HEADER_KEYS = ("model_config", "datasets", "phase")


@dataclass
class Checkpoint:
    config: ModelConfig
    datasets: dict[str, DatasetSignature]
    phase: str
    records: list[tuple[str, tuple[int, ...], bytes]]   # (name, shape, payload)

    def arrays(self) -> dict[str, np.ndarray]:
        """A fresh, writeable float64 array per record."""
        return {name: np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
                for name, shape, payload in self.records}

    # -- serialization --------------------------------------------------------

    def save(self, path) -> None:
        header = {
            "model_config": dataclasses.asdict(self.config),
            "datasets": {k: dataclasses.asdict(v) for k, v in self.datasets.items()},
            "phase": self.phase,
        }
        hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
        chunks = [MAGIC, struct.pack("<II", VERSION, len(hbytes)), hbytes,
                  struct.pack("<I", len(self.records))]
        for name, shape, payload in self.records:
            nbytes = name.encode("utf-8")
            chunks.append(struct.pack("<H", len(nbytes)))
            chunks.append(nbytes)
            chunks.append(struct.pack("<BB", _F64, len(shape)))
            chunks.append(struct.pack(f"<{len(shape)}I", *shape))
            chunks.append(struct.pack("<I", zlib.crc32(payload)))
            chunks.append(payload)
        write_file(path, b"".join(chunks))

    @classmethod
    def load(cls, path) -> "Checkpoint":
        blob = read_file(path, CheckpointError, "checkpoint")
        view = memoryview(blob)
        pos = 0

        def take(n: int, what: str) -> memoryview:
            nonlocal pos
            if pos + n > len(blob):
                raise CheckpointError(f"{path}: truncated while reading {what}")
            piece = view[pos:pos + n]
            pos += n
            return piece

        if bytes(take(8, "magic")) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        version, hlen = struct.unpack("<II", take(8, "version/header length"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        try:
            header = json.loads(bytes(take(hlen, "header")).decode("utf-8"))
        except ValueError:
            raise CheckpointError(f"{path}: header is not UTF-8 JSON") from None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        missing = [k for k in _HEADER_KEYS if k not in header]
        if missing:
            raise CheckpointError(f"{path}: header lacks {missing}")
        unknown = sorted(set(header) - set(_HEADER_KEYS))
        if unknown:
            raise CheckpointError(f"{path}: unknown header key {unknown[0]!r}")
        try:
            config = ModelConfig(**header["model_config"])
            datasets = {k: DatasetSignature.from_dict(v)
                        for k, v in header["datasets"].items()}
            for key, sig in datasets.items():
                if key != sig.name:
                    raise ConfigError(f"datasets key {key!r} differs from its "
                                      f"signature's name {sig.name!r}")
            check_choice("phase", header["phase"], PHASES)
        except (TypeError, KeyError, AttributeError, ConfigError) as exc:
            raise CheckpointError(f"{path}: malformed header: {exc}") from None
        (count,) = struct.unpack("<I", take(4, "record count"))
        records, names = [], set()
        for i in range(count):
            (name_len,) = struct.unpack("<H", take(2, f"record {i} name length"))
            try:
                name = bytes(take(name_len, f"record {i} name")).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: record {i} name is not UTF-8") from None
            if name in names:
                raise CheckpointError(f"{path}: repeated entry {name!r}")
            names.add(name)
            tag, ndim = struct.unpack("<BB", take(2, f"{name}: dtype/ndim"))
            if tag != _F64:
                raise CheckpointError(f"{path}: {name}: unknown dtype tag {tag}")
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"{name}: shape"))
            (crc,) = struct.unpack("<I", take(4, f"{name}: checksum"))
            size = math.prod(shape) * 8      # Python ints: no overflow
            payload = bytes(take(size, f"{name}: payload"))
            if zlib.crc32(payload) != crc:
                raise CheckpointError(f"{path}: corrupt payload for entry {name!r}")
            if not np.isfinite(np.frombuffer(payload, dtype="<f8")).all():
                raise CheckpointError(f"{path}: non-finite value in entry {name!r}")
            records.append((name, tuple(shape), payload))
        if pos != len(blob):
            raise CheckpointError(f"{path}: {len(blob) - pos} trailing bytes")
        return cls(
            config=config,
            datasets=datasets,
            phase=header["phase"],
            records=records,
        )


def checkpoint_from_assembly(assembly: ModelAssembly, phase: str) -> Checkpoint:
    records = [(name, p.shape, np.ascontiguousarray(p.data, dtype="<f8").tobytes())
               for name, p in assembly.parameters().items()]
    return Checkpoint(
        config=assembly.config,
        datasets={k: v.signature for k, v in assembly.datasets.items()},
        phase=phase,
        records=records,
    )


def save_checkpoint(assembly: ModelAssembly, path, phase: str) -> Checkpoint:
    ckpt = checkpoint_from_assembly(assembly, phase)
    ckpt.save(path)
    return ckpt


def _install(assembly: ModelAssembly, params: dict, ckpt: Checkpoint) -> None:
    """Set ``params`` from the records of the same names and shapes, all or none."""
    arrays = ckpt.arrays()
    for name, p in params.items():
        if name not in arrays:
            raise CheckpointError(f"checkpoint is missing entry {name!r}")
        if arrays[name].shape != p.shape:
            raise CheckpointError(f"shape mismatch for entry {name!r}")
    for name, p in params.items():
        p.data = arrays[name]
    assembly.provenance = ckpt.phase


def load_shared(assembly: ModelAssembly, ckpt: Checkpoint) -> None:
    """Install the checkpoint's shared body into ``assembly``."""
    if assembly.config != ckpt.config:
        raise CheckpointError(
            f"config mismatch: assembly {assembly.config} vs checkpoint {ckpt.config}")
    _install(assembly, assembly.shared_parameters(), ckpt)


def assembly_from_checkpoint(ckpt: Checkpoint, seed: int = 0) -> ModelAssembly:
    """Rebuild a full assembly bitwise, each dataset marked with the checkpoint's phase."""
    assembly = ModelAssembly(ckpt.config, seed=seed)
    for sig in ckpt.datasets.values():
        assembly.attach_dataset(sig)
    params = assembly.parameters()
    extra = [name for name, *_ in ckpt.records if name not in params]
    if extra:
        raise CheckpointError(f"checkpoint has unexpected entries {extra[:3]}")
    _install(assembly, params, ckpt)
    assembly.dataset_phase = dict.fromkeys(ckpt.datasets, ckpt.phase)
    return assembly
