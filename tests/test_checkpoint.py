from pathlib import Path

import numpy as np
import pytest

from metafn.checkpoint import (Checkpoint, assembly_from_checkpoint,
                               checkpoint_from_assembly, load_shared,
                               save_checkpoint)
from metafn.errors import CheckpointError
from metafn.model import DatasetSignature, ModelAssembly, ModelConfig
from metafn.tensor import no_grad

CFG = ModelConfig(d=16, n_blocks=2, n_heads=2, n_basis=2, d_ffn=12, cal_hidden=4)


def make_assembly(seed=0):
    asm = ModelAssembly(CFG, seed=seed)
    asm.attach_dataset(DatasetSignature("t1", "regression",
                                        ("numeric", "categorical"), (3,)))
    return asm


def test_save_load_save_is_byte_identical(tmp_path):
    asm = make_assembly()
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(asm, p1, phase="pretrain",
                    rng_state={"bit_generator": "PCG64", "state": {"state": 1, "inc": 2}})
    Checkpoint.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_roundtrip_restores_parameters_bitwise(tmp_path):
    asm = make_assembly(seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(asm, path, phase="pretrain")
    rebuilt = assembly_from_checkpoint(Checkpoint.load(path))
    for name, p in asm.parameters().items():
        np.testing.assert_array_equal(p.data, rebuilt.parameters()[name].data)
    assert rebuilt.provenance == "pretrain"


def test_shared_only_load_supports_fresh_datasets(tmp_path):
    asm = make_assembly(seed=4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(asm, path, phase="pretrain")
    fresh = ModelAssembly(CFG, seed=99)
    load_shared(fresh, Checkpoint.load(path))
    for name, p in fresh.shared_parameters().items():
        np.testing.assert_array_equal(p.data, asm.parameters()[name].data)
    fresh.attach_dataset(DatasetSignature("new", "regression", ("numeric",), ()))
    with no_grad():
        out = fresh.forward("new", np.zeros((2, 1)), np.empty((2, 0), dtype=np.int64))
    assert out.shape == (2, 1)


def test_config_mismatch_rejected(tmp_path):
    asm = make_assembly()
    path = tmp_path / "m.ckpt"
    save_checkpoint(asm, path, phase="pretrain")
    other = ModelAssembly(ModelConfig(d=16, n_blocks=1, n_heads=2, n_basis=2,
                                      d_ffn=12, cal_hidden=4), seed=0)
    with pytest.raises(CheckpointError, match="config mismatch"):
        load_shared(other, Checkpoint.load(path))


def test_corrupt_payload_names_entry(tmp_path):
    asm = make_assembly()
    path = tmp_path / "m.ckpt"
    ckpt = save_checkpoint(asm, path, phase="pretrain")
    blob = bytearray(path.read_bytes())
    # flip one byte inside the *last* record's payload
    last_name, _, _, last_payload = ckpt.records[-1]
    blob[-1 - len(last_payload) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=last_name):
        Checkpoint.load(path)


def test_truncated_file_rejected(tmp_path):
    asm = make_assembly()
    path = tmp_path / "m.ckpt"
    save_checkpoint(asm, path, phase="pretrain")
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 40])
    with pytest.raises(CheckpointError, match="truncated"):
        Checkpoint.load(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        Checkpoint.load(path)


def test_float32_export_halves_payload(tmp_path):
    asm = make_assembly()
    c64 = checkpoint_from_assembly(asm, "pretrain", dtype="f64")
    c32 = checkpoint_from_assembly(asm, "pretrain", dtype="f32")
    b64 = sum(len(r[3]) for r in c64.records)
    b32 = sum(len(r[3]) for r in c32.records)
    assert b32 * 2 == b64
    arr64 = c64.arrays()
    for name, arr in c32.arrays().items():
        np.testing.assert_allclose(arr, arr64[name], rtol=1e-6, atol=1e-6)


def test_failed_save_keeps_old_file_and_leaves_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_assembly(seed=1), path, phase="pretrain")
    old = path.read_bytes()
    real_write = Path.write_bytes

    def write_half_then_fail(self, data):
        real_write(self, data[:len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(make_assembly(seed=2), path, phase="pretrain")
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
