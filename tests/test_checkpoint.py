import dataclasses
import json
import os
import struct
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
    save_checkpoint(asm, p1, phase="pretrain")
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
    last_name, _, last_payload = ckpt.records[-1]
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


def saved_blob(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_assembly(), path, phase="pretrain")
    return path, path.read_bytes()


def test_trailing_bytes_rejected(tmp_path):
    path, blob = saved_blob(tmp_path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointError, match="1 trailing bytes"):
        Checkpoint.load(path)


def test_float32_tag_rejected(tmp_path):
    path, blob = saved_blob(tmp_path)
    (hlen,) = struct.unpack("<I", blob[12:16])
    name_at = 16 + hlen + 4
    (name_len,) = struct.unpack("<H", blob[name_at:name_at + 2])
    tag_at = name_at + 2 + name_len
    assert blob[tag_at] == 0
    path.write_bytes(blob[:tag_at] + b"\x01" + blob[tag_at + 1:])
    with pytest.raises(CheckpointError, match="unknown dtype tag 1"):
        Checkpoint.load(path)


def record_name_offsets(blob: bytes) -> list[int]:
    """Where each record's name starts, walking the records after the header."""
    (hlen,) = struct.unpack("<I", blob[12:16])
    pos = 16 + hlen
    (count,) = struct.unpack("<I", blob[pos:pos + 4])
    pos += 4
    offsets = []
    for _ in range(count):
        (name_len,) = struct.unpack("<H", blob[pos:pos + 2])
        offsets.append(pos + 2)
        pos += 2 + name_len
        ndim = blob[pos + 1]
        shape = struct.unpack(f"<{ndim}I", blob[pos + 2:pos + 2 + 4 * ndim])
        pos += 2 + 4 * ndim + 4 + 8 * int(np.prod(shape, dtype=np.int64))
    assert pos == len(blob)
    return offsets


@pytest.mark.parametrize("record", [0, 3])
def test_record_name_that_is_not_utf8_names_file_and_record(tmp_path, record):
    path, blob = saved_blob(tmp_path)
    at = record_name_offsets(blob)[record]
    path.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
    with pytest.raises(CheckpointError, match=f"record {record} name is not UTF-8") as err:
        Checkpoint.load(path)
    assert str(err.value).startswith(f"{path}: ")


def test_repeated_record_name_names_file_and_entry(tmp_path):
    ckpt = checkpoint_from_assembly(make_assembly(), "pretrain")
    (first, *_), (_, shape, payload) = ckpt.records[0], ckpt.records[-1]
    ckpt.records[-1] = (first, shape, payload)
    path = tmp_path / "repeated.ckpt"
    ckpt.save(path)
    with pytest.raises(CheckpointError, match=f"repeated entry '{first}'") as err:
        Checkpoint.load(path)
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_payload_names_file_and_entry(tmp_path, bad):
    # assigning .data skips Tensor's finiteness check, as loading a checkpoint would
    asm = make_assembly()
    context = asm.datasets["t1"].context
    context.data[0] = bad
    path = tmp_path / "nan.ckpt"
    save_checkpoint(asm, path, phase="pretrain")
    with pytest.raises(CheckpointError, match=f"non-finite value in entry '{context.name}'") \
            as err:
        Checkpoint.load(path)
    assert str(err.value).startswith(f"{path}: ")


def test_record_whose_size_overflows_int64_reads_as_truncated(tmp_path):
    # (2**32 - 1)**4 * 8 bytes is past the int64 range
    ckpt = checkpoint_from_assembly(make_assembly(), "pretrain")
    ckpt.records.append(("huge", (2**32 - 1,) * 4, b""))
    path = tmp_path / "huge.ckpt"
    ckpt.save(path)
    with pytest.raises(CheckpointError, match="truncated while reading huge: payload") as err:
        Checkpoint.load(path)
    assert str(err.value).startswith(f"{path}: ")


def with_header(blob: bytes, header: bytes) -> bytes:
    (hlen,) = struct.unpack("<I", blob[12:16])
    return blob[:12] + struct.pack("<I", len(header)) + header + blob[16 + hlen:]


def edited_header(blob: bytes, edit) -> bytes:
    (hlen,) = struct.unpack("<I", blob[12:16])
    header = json.loads(blob[16:16 + hlen])
    edit(header)
    return with_header(blob, json.dumps(header).encode("utf-8"))


@pytest.mark.parametrize("make,message", [
    (lambda b: with_header(b, b"\xff\xfe{}"), "not UTF-8 JSON"),
    (lambda b: with_header(b, b"{\"phase\": "), "not UTF-8 JSON"),
    (lambda b: with_header(b, b"[]"), "not a JSON object"),
    (lambda b: edited_header(b, lambda h: h.pop("phase")), r"lacks \['phase'\]"),
    (lambda b: edited_header(b, lambda h: h.pop("datasets")), r"lacks \['datasets'\]"),
    (lambda b: edited_header(b, lambda h: h.pop("model_config")), r"lacks \['model_config'\]"),
    (lambda b: edited_header(b, lambda h: h["model_config"].update(bogus=1)), "bogus"),
    (lambda b: edited_header(b, lambda h: h["model_config"].update(ln_eps=1e-5, dropout=0.0)),
     "ln_eps"),
    (lambda b: edited_header(b, lambda h: h["model_config"].update(n_heads=0)), "n_heads"),
    (lambda b: edited_header(b, lambda h: h["datasets"]["t1"].update(
        feature_kinds=["numeric", "bogus"])), "feature_kinds"),
    (lambda b: edited_header(b, lambda h: h["model_config"].update(mode="plain")), "mode"),
    (lambda b: edited_header(b, lambda h: h.update(datasets={"other": h["datasets"]["t1"]})),
     "'other' differs from its signature's name 't1'"),
    (lambda b: edited_header(b, lambda h: h.update(phase=5)), "phase"),
    (lambda b: edited_header(b, lambda h: h.update(bogus=1)), "unknown header key 'bogus'"),
    # the keys that files written before the header lost them still carry
    (lambda b: edited_header(b, lambda h: h.update(format_version=1, rng_state=None)),
     "unknown header key 'format_version'"),
], ids=["not-utf8", "not-json", "not-object", "no-phase", "no-datasets",
        "no-model-config", "unknown-config-key", "deleted-config-keys", "zero-heads",
        "unknown-feature-kind", "plain-mode", "dataset-key-not-its-name", "unknown-phase",
        "unknown-header-key", "deleted-header-keys"])
def test_malformed_header_names_the_file(tmp_path, make, message):
    path, blob = saved_blob(tmp_path)
    path.write_bytes(make(blob))
    with pytest.raises(CheckpointError, match=message) as err:
        Checkpoint.load(path)
    assert str(err.value).startswith(f"{path}: ")


def with_bad_shape(ckpt, name):
    return dataclasses.replace(ckpt, records=[
        (n, (1,), bytes(8)) if n == name else (n, s, b) for n, s, b in ckpt.records])


def test_load_shared_rejects_missing_entry_and_wrong_shape():
    ckpt = checkpoint_from_assembly(make_assembly(seed=5), "pretrain")
    first = next(iter(make_assembly().shared_parameters()))
    missing = dataclasses.replace(ckpt, records=[r for r in ckpt.records if r[0] != first])
    with pytest.raises(CheckpointError, match=f"missing.*'{first}'"):
        load_shared(ModelAssembly(CFG, seed=0), missing)
    with pytest.raises(CheckpointError, match=f"shape mismatch for entry '{first}'"):
        load_shared(ModelAssembly(CFG, seed=0), with_bad_shape(ckpt, first))


def test_load_shared_installs_nothing_when_an_entry_is_bad():
    ckpt = checkpoint_from_assembly(make_assembly(seed=5), "pretrain")
    fresh = ModelAssembly(CFG, seed=0)
    last = list(fresh.shared_parameters())[-1]
    before = {n: p.data.copy() for n, p in fresh.shared_parameters().items()}
    with pytest.raises(CheckpointError, match=last):
        load_shared(fresh, with_bad_shape(ckpt, last))
    for name, p in fresh.shared_parameters().items():
        np.testing.assert_array_equal(p.data, before[name])
    assert fresh.provenance is None


def test_assembly_from_checkpoint_rejects_missing_and_extra_records():
    ckpt = checkpoint_from_assembly(make_assembly(), "pretrain")
    first = ckpt.records[0][0]
    with pytest.raises(CheckpointError, match=f"missing.*'{first}'"):
        assembly_from_checkpoint(dataclasses.replace(ckpt, records=ckpt.records[1:]))
    extra = dataclasses.replace(ckpt, records=[*ckpt.records, ("extra.w", (1,), bytes(8))])
    with pytest.raises(CheckpointError, match="unexpected.*'extra.w'"):
        assembly_from_checkpoint(extra)


def test_assembly_from_checkpoint_rejects_per_feature_categorical_records():
    # before the stacked table, feature j had its own cat.<j>.table and
    # cat.<j>.bias records; such a checkpoint no longer matches the model
    ckpt = checkpoint_from_assembly(make_assembly(), "pretrain")
    prefix = "datasets.t1.tokenizer.cat"
    arrays = ckpt.arrays()
    old = {f"{prefix}.0.table": arrays[f"{prefix}.table"],
           f"{prefix}.0.bias": arrays[f"{prefix}.bias"][0]}
    records = [r for r in ckpt.records if not r[0].startswith(prefix)]
    records += [(name, a.shape, a.astype("<f8").tobytes()) for name, a in old.items()]
    with pytest.raises(CheckpointError, match=f"unexpected.*'{prefix}.0.table'"):
        assembly_from_checkpoint(dataclasses.replace(ckpt, records=records))


def test_failed_save_keeps_old_file_and_leaves_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_assembly(seed=1), path, phase="pretrain")
    old = path.read_bytes()

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(make_assembly(seed=2), path, phase="pretrain")
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_save_syncs_the_whole_file_before_the_rename(tmp_path, monkeypatch):
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_size))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", Path(dst).name))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_assembly(), path, phase="pretrain")
    assert calls == [("fsync", path.stat().st_size), ("replace", "m.ckpt")]


def test_save_makes_the_missing_directories(tmp_path):
    path = tmp_path / "a" / "b" / "m.ckpt"
    save_checkpoint(make_assembly(), path, phase="pretrain")
    assert Checkpoint.load(path).phase == "pretrain"
