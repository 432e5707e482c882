import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qflsim import cli, data, fed

SCHEMA = json.loads(
    (Path(cli.__file__).parent / "assets" / "summary.schema.json").read_text()
)


def write_config(path, **overrides):
    config = {
        "name": "smoke",
        "dataset": "iris",
        "rounds": 2,
        "devices": 2,
        "samples_per_device": 30,
        "server_val_size": 15,
        "server_test_size": 15,
        "maxiter": 2,
        "eta": 0.3,
        "ansatz_reps": 1,
        "seed": 0,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


def test_run_produces_artifacts(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    assert (out / "rounds.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "config.echo.json").exists()
    assert not (out / "checkpoint.json").exists()  # removed on success

    lines = (out / "rounds.csv").read_text().splitlines()
    assert len(lines) == 3  # header + 2 rounds
    header = lines[0].split(",")
    assert header[0] == "round"
    assert header[-1] == "wall_clock_seconds"

    summary = json.loads((out / "summary.json").read_text())
    jsonschema.validate(summary, SCHEMA)


def test_run_determinism_modulo_wall_clock(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    rows = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        lines = (out / "rounds.csv").read_text().splitlines()
        # drop the trailing wall_clock_seconds column
        rows.append([",".join(l.split(",")[:-1]) for l in lines])
    assert rows[0] == rows[1]


def test_run_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", epochs=5)
    assert cli.main(["run", str(cfg)]) == cli.EXIT_CONFIG
    assert "epochs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section", ["dp_optimizer", "param_noise", "dp_pca", "pruning", "condensation"])
def test_run_unknown_nested_key_exits_2(tmp_path, capsys, section):
    cfg = write_config(tmp_path / "cfg.json", **{section: {"bogus": 1}})
    assert cli.main(["run", str(cfg)]) == cli.EXIT_CONFIG
    assert f"{section}.bogus" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, named", [
    ({"rounds": "2"}, "rounds"),
    ({"param_noise": {"kind": "laplace", "epsilon": "1"}}, "param_noise"),
    ({"dp_pca": {"epsilon": 1.0, "bounds": [0]}}, "dp_pca"),
    ({"dp_pca": {}}, "epsilon"),
    ({"svd_qkd": "false"}, "svd_qkd"),
    ({"qkd_only": 1}, "qkd_only"),
    ({"pruning": {"avg_initial": "no"}}, "avg_initial"),
    ({"rounds": True}, "rounds"),
    ({"pruning": {"tau": True}}, "pruning.tau"),
    ({"dp_optimizer": {"epsilon": True, "sensitivity": 0.1}}, "dp_optimizer.epsilon"),
    ({"param_noise": {"epsilon": True}}, "param_noise.epsilon"),
    ({"samples_per_device": True}, "samples_per_device"),
    ({"param_noise": {"kind": 1, "epsilon": 1.0}}, "param_noise.kind"),
    ({"condensation": {"images_per_class": 2.5}}, "condensation.images_per_class"),
    ({"dp_pca": {"epsilon": 1.0, "bounds": [True, 2]}}, "dp_pca.bounds"),
], ids=["rounds-string", "param_noise-epsilon-string", "dp_pca-one-bound", "dp_pca-empty",
        "svd_qkd-string", "qkd_only-number", "avg_initial-string", "rounds-boolean",
        "pruning-tau-boolean", "dp_optimizer-epsilon-boolean", "param_noise-epsilon-boolean",
        "samples_per_device-boolean", "param_noise-kind-number",
        "condensation-images_per_class-fraction", "dp_pca-bounds-boolean"])
def test_run_wrongly_typed_or_missing_value_exits_2(tmp_path, capsys, overrides, named):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    assert named in err


def test_run_negative_epsilon_exits_2_naming_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       param_noise={"kind": "laplace", "epsilon": -1.0})
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert "epsilon" in capsys.readouterr().err


def test_run_invalid_json_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert cli.main(["run", str(cfg)]) == cli.EXIT_CONFIG


def test_run_missing_dataset_file_exits_1(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", dataset="csv",
                       dataset_path=str(tmp_path / "missing.csv"))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_RUNTIME


def _interrupted_run(cfg, out, rows_written: int, rounds_done: int) -> None:
    """Leave `out` as a run that crashed: `rows_written` rows of rounds.csv and
    a checkpoint saved after `rounds_done` rounds."""
    ds, plan = cli._setup(cli._load_config(str(cfg), cli.RUN_DEFAULTS))
    state = fed.init_state(plan, ds)
    for t in range(rounds_done):
        state, _ = fed.run_round(state, plan, t)
    assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "rounds.csv").read_text().splitlines()
    (out / "rounds.csv").write_text("\n".join(lines[: 1 + rows_written]) + "\n")
    (out / "checkpoint.json").write_text(json.dumps({
        "next_round": rounds_done,
        "theta_bar": state.theta_bar.tolist(),
        "device_thetas": [t.tolist() for t in state.device_thetas],
    }))


def _assert_same_run(a, b):
    strip = lambda text: [",".join(l.split(",")[:-1]) for l in text.splitlines()]
    assert strip((a / "rounds.csv").read_text()) == strip((b / "rounds.csv").read_text())
    summary_a = json.loads((a / "summary.json").read_text())
    summary_b = json.loads((b / "summary.json").read_text())
    for key, value in summary_a.items():
        if key == "wall_clock_seconds":
            continue
        assert summary_b[key] == value


def test_run_resumes_from_checkpoint(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", rounds=3)
    full = tmp_path / "full"
    assert cli.main(["run", str(cfg), "--out", str(full)]) == cli.EXIT_OK

    # simulate a crash after round 2: rows and checkpoint for rounds 0-1,
    # then rerun the same command
    partial = tmp_path / "partial"
    _interrupted_run(cfg, partial, rows_written=2, rounds_done=2)
    assert cli.main(["run", str(cfg), "--out", str(partial)]) == cli.EXIT_OK
    _assert_same_run(full, partial)


def test_resume_after_crash_between_row_and_checkpoint(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", rounds=3)
    full = tmp_path / "full"
    assert cli.main(["run", str(cfg), "--out", str(full)]) == cli.EXIT_OK

    # round 1's row was appended, but the checkpoint still points at round 1
    partial = tmp_path / "partial"
    _interrupted_run(cfg, partial, rows_written=2, rounds_done=1)
    assert cli.main(["run", str(cfg), "--out", str(partial)]) == cli.EXIT_OK
    _assert_same_run(full, partial)
    assert not list(partial.glob("checkpoint*"))


@pytest.mark.parametrize("dp_pca", [None, {"epsilon": 1.0}], ids=["plain_pca", "dp_pca"])
def test_setup_reduces_genomic_to_angles(tmp_path, genomic_file, dp_pca):
    cfg = write_config(tmp_path / "cfg.json", dataset="genomic",
                       dataset_path=str(genomic_file), features=3, dp_pca=dp_pca)
    ds, plan = cli._setup(cli._load_config(str(cfg), cli.RUN_DEFAULTS))
    assert ds.features.shape == (400, 3)
    assert ds.features.min() >= 0.0
    assert ds.features.max() < 2 * np.pi
    assert plan.vqc_config.feature_count == 3


def test_gen_genomic_writes_requested_count(tmp_path):
    out = tmp_path / "corpus.txt"
    assert cli.main(["gen-genomic", "50", str(out), "--seed", "3"]) == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 50
    seq, label = lines[0].split("\t")
    assert set(seq) <= set("ACGT")
    assert label in ("0", "1")


def test_gen_genomic_zero_count(tmp_path):
    out = tmp_path / "empty.txt"
    assert cli.main(["gen-genomic", "0", str(out)]) == cli.EXIT_OK
    assert out.read_text() == ""


def test_gen_genomic_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    cli.main(["gen-genomic", "20", str(a), "--seed", "9"])
    cli.main(["gen-genomic", "20", str(b), "--seed", "9"])
    assert a.read_text() == b.read_text()


def test_condense_command(tmp_path):
    cfg = tmp_path / "cond.json"
    cfg.write_text(json.dumps({
        "name": "iris-condense",
        "dataset": "iris",
        "condensation": {"images_per_class": 5, "steps": 10},
    }))
    out = tmp_path / "out"
    assert cli.main(["condense", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    condensed = data.load_csv(out / "condensed.csv", class_count=3)
    assert len(condensed) == 15  # 3 classes x 5 rows
    assert condensed.features.min() >= 0.0
    assert condensed.features.max() <= 1.0
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["condensed_rows"] == 15
    assert prov["original_rows"] == 150
    assert prov["size_ratio"] == pytest.approx(0.1)


def test_condense_requires_spec(tmp_path, capsys):
    cfg = tmp_path / "cond.json"
    cfg.write_text(json.dumps({"name": "x", "dataset": "iris", "output_dir": "o"}))
    assert cli.main(["condense", str(cfg)]) == cli.EXIT_CONFIG
    assert "condensation" in capsys.readouterr().err


def test_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", rounds=1)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.main(["run", str(cfg), "--out", str(out_a)])
    cli.main(["run", str(cfg), "--out", str(out_b), "--seed", "99"])
    a = (out_a / "rounds.csv").read_text()
    b = (out_b / "rounds.csv").read_text()
    assert a.splitlines()[1].split(",")[1] != b.splitlines()[1].split(",")[1]
