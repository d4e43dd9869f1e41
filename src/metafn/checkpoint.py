"""Binary checkpoint container.

Little-endian layout:

    magic   8 bytes  "MFNCKPT1"
    version u32
    hlen    u32      length of the UTF-8 JSON header
    header  bytes    {"format_version", "model_config", "datasets",
                      "phase", "rng_state"}
    count   u32      number of parameter records
    record  repeated:
        name_len u16, name utf-8,
        dtype    u8   (0 = float64, 1 = float32),
        ndim     u8,  dims u32 * ndim,
        crc32    u32  of the raw payload,
        payload  raw little-endian values

Records are written in registry order, so save -> load -> save is
byte-identical.  Every record's CRC is verified on load and failures
name the offending entry.  A save writes a temporary file beside the
target and renames it over the target, so a failed or interrupted save
leaves the previous file as it was.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .model import DatasetSignature, ModelAssembly, ModelConfig

MAGIC = b"MFNCKPT1"
VERSION = 1
_DTYPES = {0: "<f8", 1: "<f4"}
_DTYPE_TAGS = {"<f8": 0, "<f4": 1}


@dataclass
class Checkpoint:
    config: ModelConfig
    datasets: dict[str, DatasetSignature]
    phase: str
    rng_state: dict | None
    records: list[tuple[str, int, tuple[int, ...], bytes]]

    def arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name, tag, shape, payload in self.records:
            arr = np.frombuffer(payload, dtype=_DTYPES[tag]).reshape(shape)
            out[name] = arr.astype(np.float64)
        return out

    # -- serialization --------------------------------------------------------

    def save(self, path) -> None:
        header = {
            "format_version": VERSION,
            "model_config": dataclasses.asdict(self.config),
            "datasets": {k: v.to_dict() for k, v in self.datasets.items()},
            "phase": self.phase,
            "rng_state": self.rng_state,
        }
        hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
        chunks = [MAGIC, struct.pack("<II", VERSION, len(hbytes)), hbytes,
                  struct.pack("<I", len(self.records))]
        for name, tag, shape, payload in self.records:
            nbytes = name.encode("utf-8")
            chunks.append(struct.pack("<H", len(nbytes)))
            chunks.append(nbytes)
            chunks.append(struct.pack("<BB", tag, len(shape)))
            chunks.append(struct.pack(f"<{len(shape)}I", *shape))
            chunks.append(struct.pack("<I", zlib.crc32(payload)))
            chunks.append(payload)
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(b"".join(chunks))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path) -> "Checkpoint":
        blob = Path(path).read_bytes()
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
        header = json.loads(bytes(take(hlen, "header")).decode("utf-8"))
        (count,) = struct.unpack("<I", take(4, "record count"))
        records = []
        for i in range(count):
            (name_len,) = struct.unpack("<H", take(2, f"record {i} name length"))
            name = bytes(take(name_len, f"record {i} name")).decode("utf-8")
            tag, ndim = struct.unpack("<BB", take(2, f"{name}: dtype/ndim"))
            if tag not in _DTYPES:
                raise CheckpointError(f"{path}: {name}: unknown dtype tag {tag}")
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"{name}: shape"))
            (crc,) = struct.unpack("<I", take(4, f"{name}: checksum"))
            size = int(np.prod(shape, dtype=np.int64)) * (8 if tag == 0 else 4)
            payload = bytes(take(size, f"{name}: payload"))
            if zlib.crc32(payload) != crc:
                raise CheckpointError(f"{path}: corrupt payload for entry {name!r}")
            records.append((name, tag, tuple(shape), payload))
        if pos != len(blob):
            raise CheckpointError(f"{path}: {len(blob) - pos} trailing bytes")
        return cls(
            config=ModelConfig(**header["model_config"]),
            datasets={k: DatasetSignature.from_dict(v)
                      for k, v in header["datasets"].items()},
            phase=header["phase"],
            rng_state=header["rng_state"],
            records=records,
        )


def checkpoint_from_assembly(assembly: ModelAssembly, phase: str,
                             rng_state: dict | None = None,
                             dtype: str = "f64") -> Checkpoint:
    np_dtype = "<f8" if dtype == "f64" else "<f4"
    records = []
    for name, p in assembly.parameters().items():
        payload = np.ascontiguousarray(p.data, dtype=np_dtype).tobytes()
        records.append((name, _DTYPE_TAGS[np_dtype], p.shape, payload))
    return Checkpoint(
        config=assembly.config,
        datasets={k: v.signature for k, v in assembly.datasets.items()},
        phase=phase,
        rng_state=rng_state,
        records=records,
    )


def save_checkpoint(assembly: ModelAssembly, path, phase: str,
                    rng_state: dict | None = None, dtype: str = "f64") -> Checkpoint:
    ckpt = checkpoint_from_assembly(assembly, phase, rng_state, dtype)
    ckpt.save(path)
    return ckpt


def _check_compat(assembly: ModelAssembly, ckpt: Checkpoint) -> None:
    if assembly.config.compat_key() != ckpt.config.compat_key():
        raise CheckpointError(
            f"config mismatch: assembly {assembly.config.compat_key()} vs "
            f"checkpoint {ckpt.config.compat_key()}")


def load_shared(assembly: ModelAssembly, ckpt: Checkpoint) -> None:
    """Install the checkpoint's shared body into ``assembly``."""
    _check_compat(assembly, ckpt)
    arrays = ckpt.arrays()
    for name, p in assembly.shared_parameters().items():
        if name not in arrays:
            raise CheckpointError(f"checkpoint is missing shared entry {name!r}")
        if arrays[name].shape != p.shape:
            raise CheckpointError(f"shape mismatch for entry {name!r}")
        p.data = arrays[name].copy()
    assembly.provenance = ckpt.phase


def assembly_from_checkpoint(ckpt: Checkpoint, seed: int = 0) -> ModelAssembly:
    """Rebuild a full assembly (shared body + attached datasets) bitwise."""
    assembly = ModelAssembly(ckpt.config, seed=seed)
    for sig in ckpt.datasets.values():
        assembly.attach_dataset(sig)
    arrays = ckpt.arrays()
    params = assembly.parameters()
    missing = [n for n in params if n not in arrays]
    extra = [n for n in arrays if n not in params]
    if missing or extra:
        raise CheckpointError(f"parameter sets differ: missing {missing[:3]}, "
                              f"unexpected {extra[:3]}")
    for name, p in params.items():
        if arrays[name].shape != p.shape:
            raise CheckpointError(f"shape mismatch for entry {name!r}")
        p.data = arrays[name].copy()
    assembly.provenance = ckpt.phase
    return assembly
