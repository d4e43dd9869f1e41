import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from metafn import data as D
from metafn import workflow as W
from metafn.checkpoint import checkpoint_from_assembly
from metafn.cli import main
from metafn.config import DEFAULTS, RunConfig, parse_override
from metafn.errors import ConfigError
from metafn.model import ModelConfig
from metafn.optim import BETA1, BETA2, EPS, WARMUP_FRAC, WEIGHT_DECAY
from metafn.training import PhaseSpec

REPO = Path(__file__).resolve().parents[1]
TINY = REPO / "configs" / "tiny.json"


def run(args, tmp_path, extra=()):
    argv = [args, "--config", str(TINY),
            "--set", f'output_dir="{tmp_path / "run"}"', *extra]
    return main(argv)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One full CLI pipeline shared by the assertions below."""
    tmp = tmp_path_factory.mktemp("cli")
    for command in ("gen-synth", "pretrain", "calibrate", "refine", "eval",
                    "export-coeffs", "report"):
        assert run(command, tmp) == 0, command
    return tmp / "run"


def test_pipeline_artifacts_exist(pipeline_dir):
    assert (pipeline_dir / "suite" / "suite.json").exists()
    assert (pipeline_dir / "pretrained.ckpt").exists()
    assert (pipeline_dir / "pretrain.log.jsonl").exists()
    task_dir = pipeline_dir / "tasks" / "synth_task_00" / "T-100"
    assert (task_dir / "calibrated.ckpt").exists()
    assert (task_dir / "refined.ckpt").exists()
    assert (pipeline_dir / "scores.json").exists()
    assert (pipeline_dir / "coefficients.json").exists()
    assert (pipeline_dir / "report.json").exists()
    assert (pipeline_dir / "report.txt").exists()


def test_pipeline_provenance_records(pipeline_dir):
    prov = pipeline_dir / "pretrained.ckpt.provenance.json"
    record = json.loads(prov.read_text())
    assert record["command"] == "pretrain"
    assert record["seed"] == 0
    assert len(record["config_hash"]) == 64
    assert (pipeline_dir / "config.resolved.json").exists()


def test_pipeline_scores_schema(pipeline_dir):
    table = json.loads((pipeline_dir / "scores.json").read_text())
    assert table["methods"] == ["calibrated", "refined"]
    assert len(table["tasks"]) == 2  # 2 held-out tasks x 1 setting
    assert all("|T-100" in t for t in table["tasks"])


def test_cli_matches_the_library_bit_for_bit(pipeline_dir, tmp_path):
    cfg = RunConfig.load(str(TINY))
    suite = D.generate_synth_suite(cfg.synth_spec())
    bundles = W.prepare_pretrain_bundles(suite, cfg.seed)
    _, shared, _ = W.pretrain_suite(cfg.model_config(), bundles,
                                    cfg.phase_spec("pretrain"), cfg.seed)
    shared.save(tmp_path / "pretrained.ckpt")
    assert (tmp_path / "pretrained.ckpt").read_bytes() == \
        (pipeline_dir / "pretrained.ckpt").read_bytes()
    for raw in suite.heldout:
        for setting in cfg.settings:
            bundle = D.prepare(raw, split_seed=cfg.seed, setting=setting)
            asm, _, ref_log = W.adapt_to_task(
                cfg.model_config(), shared, bundle, cfg.phase_spec("calibrate", setting),
                cfg.phase_spec("refine", setting), cfg.seed)
            task_dir = pipeline_dir / "tasks" / raw.schema.name / setting
            checkpoint_from_assembly(asm, "refine").save(tmp_path / "refined.ckpt")
            assert (tmp_path / "refined.ckpt").read_bytes() == \
                (task_dir / "refined.ckpt").read_bytes(), (raw.schema.name, setting)
            lines = (task_dir / "refine.log.jsonl").read_text().splitlines()[1:]
            logged = [json.loads(line) for line in lines]
            assert [(e["train_loss"], e["valid_metric"]) for e in logged] == \
                [(e.train_loss, e.valid_metric) for e in ref_log.entries]


def test_resolved_config_reproduces_run(pipeline_dir, tmp_path):
    resolved = pipeline_dir / "config.resolved.json"
    argv = ["pretrain", "--config", str(resolved),
            "--set", f'output_dir="{tmp_path / "again"}"']
    assert main(argv) == 0
    a = (pipeline_dir / "pretrained.ckpt").read_bytes()
    b = (tmp_path / "again" / "pretrained.ckpt").read_bytes()
    assert a == b


def test_m_override_runs_degenerate_baseline(tmp_path):
    assert run("gen-synth", tmp_path, extra=["--set", "model.n_basis=1"]) == 0
    assert run("pretrain", tmp_path, extra=["--set", "model.n_basis=1"]) == 0
    resolved = json.loads((tmp_path / "run" / "config.resolved.json").read_text())
    assert resolved["model"]["n_basis"] == 1


def test_invalid_setting_name_exits_2(tmp_path):
    code = main(["calibrate", "--config", str(TINY),
                 "--set", 'settings=["T-99"]'])
    assert code == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # a made-up key, the key names before they became the spec field names,
    # and the keys of settings that became constants
    for override in ("model.bogus=1", "model.blocks=2", "model.heads=2", "model.basis=2",
                     "phases.pretrain.lr=0.01", "phases.pretrain.weight_decay=0.1",
                     "phases.calibrate.warmup_frac=0.5", "data.synth.curvature=2",
                     "data.synth.mixture_alpha=1"):
        assert main(["pretrain", "--config", str(TINY), "--set", override]) == 2
        key = override.split("=")[0]
        assert f"unknown configuration key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "phases.pretrain.batch_cap=0",
    "phases.calibrate.batch_cap=-1",
    'data.tasks=[{"csv": "t.csv"}]',
    'data.tasks=[{"csv": "t.csv", "manifest": 3}]',
    "data.synth.seed=seven",
    "seed=1.5",
    "phases.pretrain.epochs=five",
    "model.d=wide",
    "phases.pretrain.base_lr=fast",
    "data.synth.n_features=0",
    "data.synth.n_pretrain=1",
    "model.d_ffn=0",
    "model.mode=plain",
    "model=5",
    "output_dir=5",
    'settings=[["T-100"]]',
])
def test_invalid_batch_cap_or_task_entry_exits_2(tmp_path, override, capsys):
    assert run("pretrain", tmp_path, extra=["--set", override]) == 2
    assert override.split("=")[0] in capsys.readouterr().err


def test_malformed_suite_json_exits_1_with_an_error_line(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "suite.json").write_text("{not json")
    assert run("pretrain", tmp_path, extra=["--set", f"data.suite_dir={suite}"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "suite.json" in err and "Traceback" not in err


SCORES = {"methods": ["calibrated", "refined"], "tasks": ["t0", "t1"],
          "metrics": ["mse", "accuracy"], "values": [[0.5, 0.4], [0.8, 0.9]]}


@pytest.mark.parametrize("text,reason", [
    (json.dumps(SCORES)[:40], "JSONDecodeError"),
    (json.dumps({k: v for k, v in SCORES.items() if k != "metrics"}), "KeyError: 'metrics'"),
    (json.dumps({**SCORES, "tasks": ["t0", "t1", "t2"]}), "differ in length: 3, 2, 2"),
    (json.dumps({**SCORES, "values": [[0.5], [0.8, 0.9]]}), "1 scores for 2 methods"),
    (json.dumps({**SCORES, "values": [[0.5, 0.4, 0.3], [0.8, 0.9]]}), "3 scores for 2 methods"),
    (json.dumps({**SCORES, "values": [[0.5, float("nan")], [0.8, 0.9]]}),
     "task 't0', method 'refined': score nan is not finite"),
    (json.dumps({**SCORES, "metrics": ["mse", "auc"]}), "unknown metric 'auc'"),
    (json.dumps([SCORES]), "TypeError"),
    (json.dumps({**SCORES, "methods": ["a", "a"]}), "methods must list distinct strings"),
    (json.dumps({**SCORES, "methods": [1, 2]}), "methods must list distinct strings"),
    (json.dumps({**SCORES, "methods": "ab"}), "methods must list distinct strings"),
], ids=["truncated", "missing-key", "unequal-lists", "short-row", "long-row", "nan-score",
        "unknown-metric", "top-level-list", "repeated-method", "method-not-a-string",
        "methods-a-string"])
def test_malformed_scores_json_exits_1_with_an_error_line(tmp_path, capsys, text, reason):
    out = tmp_path / "run"
    out.mkdir()
    (out / "scores.json").write_text(text)
    assert run("report", tmp_path) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "scores.json" in err and "Traceback" not in err
    assert reason in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command,name", [
    ("report", "run/scores.json"),
    ("export-coeffs", "run/pretrained.ckpt"),
    ("pretrain", "suite"),
], ids=["scores-json-is-a-directory", "checkpoint-is-a-directory", "suite-dir-is-a-file"])
def test_an_unreadable_input_exits_1_with_one_error_line(tmp_path, capsys, command, name):
    path = tmp_path / name
    if command == "pretrain":
        path.write_text("{}")
        extra = ["--set", f"data.suite_dir={path}"]
    else:
        path.mkdir(parents=True)
        extra = []
    assert run(command, tmp_path, extra=extra) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(path) in errors[0] and "Traceback" not in err


@pytest.mark.parametrize("command,blocker", [
    ("pretrain", "out"), ("gen-synth", "out/run/suite"),
], ids=["output-dir-under-a-file", "suite-dir-is-a-file"])
def test_an_output_that_cannot_be_written_exits_1_with_an_error_line(
        tmp_path, capsys, command, blocker):
    (tmp_path / blocker).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / blocker).write_text("")
    assert run(command, tmp_path / "out") == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(tmp_path / blocker) in errors[0]
    assert "Traceback" not in err


def test_pretrain_reads_the_suite_its_config_names_not_an_exported_one(tmp_path):
    seed5 = ["--set", "data.synth.seed=5"]
    assert run("gen-synth", tmp_path / "exported") == 0
    assert run("pretrain", tmp_path / "exported", extra=seed5) == 0
    assert run("pretrain", tmp_path / "fresh", extra=seed5) == 0
    assert ((tmp_path / "exported" / "run" / "pretrained.ckpt").read_bytes()
            == (tmp_path / "fresh" / "run" / "pretrained.ckpt").read_bytes())


def test_missing_config_file_exits_2():
    assert main(["pretrain", "--config", "/nonexistent.json"]) == 2


@pytest.mark.parametrize("make,reason", [
    (lambda path: path.write_bytes(b'{"seed": "\xff"}'), "is not valid JSON"),
    (lambda path: path.mkdir(), "cannot be read"),
], ids=["not-utf8", "directory"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, make, reason):
    path = tmp_path / "c.json"
    make(path)
    assert main(["gen-synth", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: config file {reason}" in err and "Traceback" not in err


def test_missing_task_csv_exits_1_with_an_error_line(pipeline_dir, tmp_path, capsys):
    (tmp_path / "run").mkdir()
    shutil.copy(pipeline_dir / "pretrained.ckpt", tmp_path / "run")
    manifest = tmp_path / "t.manifest.json"
    manifest.write_text(json.dumps({"name": "t", "task": "regression", "columns": [
        {"name": "x", "kind": "numeric"}, {"name": "y", "kind": "target"}]}))
    task = json.dumps([{"csv": str(tmp_path / "absent.csv"), "manifest": str(manifest)}])
    assert run("calibrate", tmp_path, extra=["--set", f"data.tasks={task}"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "absent.csv: CSV not found" in err and "Traceback" not in err


def test_a_task_named_like_another_exits_2_before_writing(pipeline_dir, tmp_path, capsys):
    # the exported held-out table has the name of one the suite already adapts
    (tmp_path / "run").mkdir()
    shutil.copy(pipeline_dir / "pretrained.ckpt", tmp_path / "run")
    heldout = pipeline_dir / "suite" / "heldout"
    task = json.dumps([{"csv": str(heldout / "synth_task_00.csv"),
                        "manifest": str(heldout / "synth_task_00.manifest.json")}])
    for command in ("calibrate", "eval"):
        assert run(command, tmp_path, extra=["--set", f"data.tasks={task}"]) == 2
        err = capsys.readouterr().err
        assert "error: two tasks share the name 'synth_task_00'" in err
        assert "Traceback" not in err
    assert not (tmp_path / "run" / "tasks").exists()
    assert not (tmp_path / "run" / "scores.json").exists()


def test_a_task_whose_name_is_not_one_path_component_exits_1_before_writing(
        pipeline_dir, tmp_path, capsys):
    (tmp_path / "run").mkdir()
    shutil.copy(pipeline_dir / "pretrained.ckpt", tmp_path / "run")
    heldout = pipeline_dir / "suite" / "heldout"
    manifest = tmp_path / "escaped.manifest.json"
    meta = json.loads((heldout / "synth_task_00.manifest.json").read_text())
    manifest.write_text(json.dumps({**meta, "name": "../../escaped"}))
    task = json.dumps([{"csv": str(heldout / "synth_task_00.csv"), "manifest": str(manifest)}])
    assert run("calibrate", tmp_path, extra=["--set", f"data.tasks={task}"]) == 1
    err = capsys.readouterr().err
    assert f"error: {manifest}: malformed manifest" in err and "one path component" in err
    assert not (tmp_path / "escaped").exists() and not (tmp_path / "run" / "tasks").exists()


def test_a_task_entry_holds_only_its_csv_and_manifest():
    task = '[{"csv": "a.csv", "manifest": "b.json", "setting": NaN}]'
    with pytest.raises(ConfigError, match=r"data\.tasks\[0\]: unknown key 'setting'"):
        RunConfig.load(None, [f"data.tasks={task}"])


def test_a_repeated_setting_is_a_config_error():
    with pytest.raises(ConfigError, match="settings: 'T-100' is listed twice"):
        RunConfig.load(None, ['settings=["T-100", "T-20", "T-100"]'])


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_calibrate_before_pretrain_exits_2(tmp_path):
    assert run("gen-synth", tmp_path) == 0
    assert run("calibrate", tmp_path) == 2  # pretrained checkpoint missing
    assert not (tmp_path / "run" / "tasks").exists()


def test_eval_before_calibrate_exits_2(tmp_path):
    assert run("gen-synth", tmp_path) == 0
    assert run("pretrain", tmp_path) == 0
    assert run("eval", tmp_path) == 2  # calibrated checkpoints missing
    assert run("refine", tmp_path) == 2
    assert not (tmp_path / "run" / "tasks").exists()


def test_output_root_env_var(tmp_path, monkeypatch):
    from metafn.config import OUTPUT_ROOT_ENV, RunConfig
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    cfg = RunConfig.load(None, ['output_dir="exp"'])
    assert cfg.output_dir() == tmp_path / "root" / "exp"
    # absolute paths ignore the root
    cfg2 = RunConfig.load(None, [f'output_dir="{tmp_path / "abs"}"'])
    assert cfg2.output_dir() == tmp_path / "abs"


def test_parse_override_types():
    assert parse_override("model.n_basis=4") == ("model.n_basis", 4)
    assert parse_override('settings=["T-20"]') == ("settings", ["T-20"])
    assert parse_override("data.suite_dir=/x/y") == ("data.suite_dir", "/x/y")
    with pytest.raises(ConfigError):
        parse_override("no-equals-sign")


def test_spec_sections_hold_exactly_their_dataclass_fields():
    # every spec field is set by the configuration key of the same name;
    # the phase name and the seed come from the run
    def names(cls, *run_keys):
        return {f.name for f in dataclasses.fields(cls)} - set(run_keys)
    assert set(DEFAULTS["model"]) == names(ModelConfig)
    assert set(DEFAULTS["data"]["synth"]) == names(D.SynthSuiteSpec)
    assert set(DEFAULTS["phases"]) == {"pretrain", "calibrate", "refine"}
    for phase in DEFAULTS["phases"].values():
        assert set(phase) == names(PhaseSpec, "phase", "seed")


def test_defaults_match_reference_values():
    cfg = RunConfig(DEFAULTS)
    m = cfg.model_config()
    assert (m.d, m.n_blocks, m.n_heads, m.n_basis) == (192, 4, 8, 4)
    pre = cfg.phase_spec("pretrain")
    assert pre.base_lr == 1e-4 and pre.batch_cap == 1024
    assert (WEIGHT_DECAY, WARMUP_FRAC, BETA1, BETA2, EPS) == (1e-5, 0.2, 0.9, 0.999, 1e-8)
    assert (D.CURVATURE, D.MIXTURE_ALPHA) == (3.0, 0.3)
    assert cfg.phase_spec("calibrate", "T-full").epochs == 240
    assert cfg.phase_spec("calibrate", "T-20").epochs == 40
    assert cfg.phase_spec("refine").epochs == 5
