"""Batch command-line driver: declarative JSON configs, dataset generation,
condensation, experiment execution and CSV/JSON persistence."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import data, fed, vqc
from .condense import CondenseSpec, condense
from .data import Dataset, SplitPlan
from .dp import DpPcaSpec, NoiseMechanism, dp_pca_fit_transform
from .modelshare import PruneSpec
from .optimizers import AqgdSettings, DpSettings

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"config field `{field}`: {message}")
        self.field = field


RUN_DEFAULTS = {
    "name": None,
    "seed": 0,
    "rounds": 10,
    "devices": 3,
    "dataset": None,  # iris | genomic | mnist | csv
    "dataset_path": None,
    "labels_path": None,
    "keep_digits": None,
    "features": 4,
    "server_val_size": 15,
    "server_test_size": 15,
    "samples_per_device": None,
    "optimizer": "aqgd",
    "maxiter": 100,
    "eta": 0.1,
    "momentum": 0.25,
    "tol": 1e-6,
    "param_tol": 1e-6,
    "averaging": 10,
    "spsa_maxiter": 100,
    "ansatz_reps": 3,
    "feature_map_reps": 1,
    "entanglement": "full",
    "dp_optimizer": None,
    "param_noise": None,
    "dp_pca": None,
    "pruning": None,
    "svd_qkd": False,
    "qkd_only": False,
    "condensation": None,
    "output_dir": None,
}

CONDENSE_DEFAULTS = {
    "name": None,
    "seed": 0,
    "dataset": None,
    "dataset_path": None,
    "labels_path": None,
    "keep_digits": None,
    "condensation": None,
    "output_dir": None,
}

_NESTED_KEYS = {
    "dp_optimizer": {"epsilon", "delta", "sensitivity"},
    "param_noise": {"kind", "epsilon", "sensitivity", "delta"},
    "dp_pca": {"n_components", "epsilon", "delta", "bounds", "data_norm"},
    "pruning": {"tau", "avg_initial"},
    "condensation": {"images_per_class", "steps", "learning_rate", "batch_size",
                     "embedding_dim", "seed"},
}


def _load_config(path, defaults: dict) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError("<document>", "top level must be an object")
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown key")
    config = dict(defaults)
    config.update(raw)
    for key, allowed in _NESTED_KEYS.items():
        value = config.get(key)
        if value is None:
            continue
        if not isinstance(value, dict):
            raise ConfigError(key, "must be an object or null")
        bad = set(value) - allowed
        if bad:
            raise ConfigError(f"{key}.{sorted(bad)[0]}", "unknown key")
    return config


def _require(config: dict, key: str):
    if config.get(key) is None:
        raise ConfigError(key, "is required")
    return config[key]


def _positive(config_section: dict, field: str, prefix: str = ""):
    value = config_section.get(field)
    if value is None or value <= 0:
        raise ConfigError(f"{prefix}{field}", "must be a positive number")
    return value


def _build_dataset(config: dict, rng: np.random.Generator) -> Dataset:
    kind = _require(config, "dataset")
    if kind == "iris":
        ds = data.load_iris(config["dataset_path"])
    elif kind == "genomic":
        path = _require(config, "dataset_path")
        dp_cfg = config.get("dp_pca")
        spec = _dp_pca_spec(dp_cfg, config.get("features", 4)) if dp_cfg else None
        return data.encode_genomic(path, config.get("features", 4), spec, rng)
    elif kind == "mnist":
        ds = data.load_mnist_idx(
            _require(config, "dataset_path"), _require(config, "labels_path"),
            config["keep_digits"],
        )
    elif kind == "csv":
        ds = data.load_csv(_require(config, "dataset_path"))
    else:
        raise ConfigError("dataset", f"unknown dataset kind {kind!r}")
    return ds


def _dp_pca_spec(cfg: dict, default_k: int) -> DpPcaSpec:
    _positive(cfg, "epsilon", "dp_pca.")
    try:
        return DpPcaSpec(
            n_components=cfg.get("n_components", default_k),
            epsilon=cfg["epsilon"],
            delta=cfg.get("delta", 1e-5),
            bounds=tuple(cfg.get("bounds", (0.0, 1.0))),
            data_norm=cfg.get("data_norm", 1.0),
        )
    except (ValueError, KeyError) as exc:
        raise ConfigError("dp_pca", str(exc))


def _prepare_features(config: dict, ds: Dataset, rng: np.random.Generator) -> Dataset:
    target = config.get("features", 4)
    if config["dataset"] != "genomic":
        if config.get("dp_pca"):
            spec = _dp_pca_spec(config["dp_pca"], target)
            reduced, _ = dp_pca_fit_transform(ds.features, ds.labels, spec, rng)
            ds = Dataset(reduced, ds.labels, ds.class_count, ds.name)
        elif ds.features.shape[1] > target:
            reduced, _ = data.plain_pca(ds.features, target)
            ds = Dataset(reduced, ds.labels, ds.class_count, ds.name)
        ds = data.scale_to_angles(ds)
    return ds


def _build_plan(config: dict, ds: Dataset) -> fed.ExperimentPlan:
    devices = config["devices"]
    n = len(ds)
    spd = config["samples_per_device"]
    if spd is None:
        spd = (n - config["server_val_size"] - config["server_test_size"]) // devices
    split = SplitPlan(devices, spd, config["server_val_size"],
                      config["server_test_size"], config["seed"])
    vqc_config = vqc.VqcConfig(
        feature_count=ds.features.shape[1],
        class_count=ds.class_count,
        feature_map_reps=config["feature_map_reps"],
        ansatz_reps=config["ansatz_reps"],
        entanglement=config["entanglement"],
    )
    try:
        aqgd = AqgdSettings(
            maxiter=config["maxiter"], eta=config["eta"], momentum=config["momentum"],
            tol=config["tol"], param_tol=config["param_tol"], averaging=config["averaging"],
        )
        dp_opt = None
        if config["dp_optimizer"] is not None:
            cfg = config["dp_optimizer"]
            _positive(cfg, "epsilon", "dp_optimizer.")
            dp_opt = DpSettings(cfg["epsilon"], cfg.get("delta", 1e-5),
                                cfg.get("sensitivity", 1.0))
        noise = None
        if config["param_noise"] is not None:
            cfg = config["param_noise"]
            _positive(cfg, "epsilon", "param_noise.")
            noise = NoiseMechanism(cfg.get("kind", "gaussian"), cfg["epsilon"],
                                   cfg.get("sensitivity", 1.0), cfg.get("delta", 1e-5))
        pruning = None
        if config["pruning"] is not None:
            cfg = config["pruning"]
            pruning = PruneSpec(cfg.get("tau", 0.5), cfg.get("avg_initial", False))
        cond = None
        if config["condensation"] is not None:
            cond = _condense_spec(config["condensation"], config["seed"])
        return fed.ExperimentPlan(
            rounds=config["rounds"], device_count=devices, split=split,
            vqc_config=vqc_config, optimizer=config["optimizer"], aqgd=aqgd,
            spsa_maxiter=config["spsa_maxiter"], dp_optimizer=dp_opt,
            param_noise=noise, pruning=pruning,
            svd_qkd=config["svd_qkd"], qkd_only=config["qkd_only"],
            condensation=cond, seed=config["seed"],
        )
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError("<plan>", str(exc))


def _condense_spec(cfg: dict, default_seed: int) -> CondenseSpec:
    try:
        return CondenseSpec(
            images_per_class=cfg["images_per_class"],
            steps=cfg.get("steps", 100),
            learning_rate=cfg.get("learning_rate", 0.1),
            batch_size=cfg.get("batch_size", 64),
            embedding_dim=cfg.get("embedding_dim", 64),
            seed=cfg.get("seed", default_seed),
        )
    except KeyError as exc:
        raise ConfigError(f"condensation.{exc.args[0]}", "is required")
    except ValueError as exc:
        raise ConfigError("condensation", str(exc))


def _csv_columns(device_count: int) -> list[str]:
    cols = ["round"]
    for k in range(device_count):
        cols += [f"dev{k}_train_acc", f"dev{k}_test_acc"]
    cols += [
        "avg_train_acc", "avg_test_acc",
        "pred_val_acc", "pred_val_loss", "pred_test_acc", "pred_test_loss",
        "gplus_val_acc", "gplus_val_loss", "gplus_test_acc", "gplus_test_loss",
        "server_score", "dropped_devices", "wall_clock_seconds",
    ]
    return cols


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _record_row(record: fed.RoundRecord) -> list[str]:
    row = [str(record.round_index)]
    for tr, te in zip(record.device_train_acc, record.device_test_acc):
        row += [_fmt(tr), _fmt(te)]
    row += [
        _fmt(float(np.mean(record.device_train_acc))),
        _fmt(float(np.mean(record.device_test_acc))),
        _fmt(record.pred_val_acc), _fmt(record.pred_val_loss),
        _fmt(record.pred_test_acc), _fmt(record.pred_test_loss),
        _fmt(record.gplus_val_acc), _fmt(record.gplus_val_loss),
        _fmt(record.gplus_test_acc), _fmt(record.gplus_test_loss),
        _fmt(record.server_score),
        ";".join(str(d) for d in record.dropped_devices),
        _fmt(record.wall_clock_seconds),
    ]
    return row


def _parse_records(csv_path: Path, device_count: int) -> list[fed.RoundRecord]:
    lines = csv_path.read_text().splitlines()
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        pos = 1
        train, test = [], []
        for _ in range(device_count):
            train.append(float(parts[pos]))
            test.append(float(parts[pos + 1]))
            pos += 2
        pos += 2  # skip avg columns
        vals = [float(v) for v in parts[pos : pos + 9]]
        dropped = [int(d) for d in parts[pos + 9].split(";") if d]
        records.append(fed.RoundRecord(
            round_index=int(parts[0]), device_train_acc=train, device_test_acc=test,
            pred_val_acc=vals[0], pred_val_loss=vals[1], pred_test_acc=vals[2],
            pred_test_loss=vals[3], gplus_val_acc=vals[4], gplus_val_loss=vals[5],
            gplus_test_acc=vals[6], gplus_test_loss=vals[7], server_score=vals[8],
            dropped_devices=dropped, wall_clock_seconds=float(parts[pos + 10]),
        ))
    return records


def cmd_run(config_path, out_override=None, seed_override=None) -> int:
    try:
        config = _load_config(config_path, RUN_DEFAULTS)
        if out_override:
            config["output_dir"] = str(out_override)
        if seed_override is not None:
            config["seed"] = seed_override
        _require(config, "name")
        out_dir = Path(_require(config, "output_dir"))
        rng = np.random.default_rng(config["seed"])
        ds = _build_dataset(config, rng)
        ds = _prepare_features(config, ds, rng)
        plan = _build_plan(config, ds)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "rounds.csv"
        ckpt_path = out_dir / "checkpoint.json"

        state = None
        start_round = 0
        if ckpt_path.exists() and csv_path.exists():
            ckpt = json.loads(ckpt_path.read_text())
            state = fed.init_state(plan, ds)
            state.device_thetas = [np.array(t) for t in ckpt["device_thetas"]]
            state.theta_bar = np.array(ckpt["theta_bar"]) if ckpt["theta_bar"] else None
            start_round = ckpt["next_round"]
            # drop any row written after the checkpoint; that round runs again
            lines = csv_path.read_text().splitlines(keepends=True)
            csv_path.write_text("".join(lines[: 1 + start_round]))
        else:
            with open(csv_path, "w") as fh:
                fh.write(",".join(_csv_columns(plan.device_count)) + "\n")

        def callback(cur_state: fed.FedState, record: fed.RoundRecord) -> None:
            with open(csv_path, "a") as fh:
                fh.write(",".join(_record_row(record)) + "\n")
            tmp_path = ckpt_path.with_name(ckpt_path.name + ".tmp")
            tmp_path.write_text(json.dumps({
                "next_round": record.round_index + 1,
                "theta_bar": cur_state.theta_bar.tolist(),
                "device_thetas": [t.tolist() for t in cur_state.device_thetas],
            }))
            os.replace(tmp_path, ckpt_path)  # a crash mid-write keeps the old one

        fed.run_experiment(plan, ds, round_callback=callback, state=state,
                           start_round=start_round)
        summary = fed.summarize(_parse_records(csv_path, plan.device_count))
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
        (out_dir / "config.echo.json").write_text(json.dumps(config, indent=2) + "\n")
        ckpt_path.unlink(missing_ok=True)
        return EXIT_OK
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def cmd_condense(config_path, out_override=None, seed_override=None) -> int:
    try:
        config = _load_config(config_path, CONDENSE_DEFAULTS)
        if out_override:
            config["output_dir"] = str(out_override)
        if seed_override is not None:
            config["seed"] = seed_override
        _require(config, "name")
        out_dir = Path(_require(config, "output_dir"))
        if config["condensation"] is None:
            raise ConfigError("condensation", "is required")
        spec = _condense_spec(config["condensation"], config["seed"])
        rng = np.random.default_rng(config["seed"])
        ds = _build_dataset(config, rng)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    try:
        # condensation operates on [0, 1] features
        lo = ds.features.min(axis=0)
        span = ds.features.max(axis=0) - lo
        span[span == 0] = 1.0
        scaled = (ds.features - lo) / span
        result = condense(scaled, ds.labels, spec)
        out_dir.mkdir(parents=True, exist_ok=True)
        condensed = Dataset(result.synthetic, result.labels, ds.class_count, ds.name)
        data.save_csv(out_dir / "condensed.csv", condensed)
        provenance = {
            "name": config["name"],
            "seed": config["seed"],
            "spec": {
                "images_per_class": spec.images_per_class, "steps": spec.steps,
                "learning_rate": spec.learning_rate, "batch_size": spec.batch_size,
                "embedding_dim": spec.embedding_dim, "seed": spec.seed,
            },
            "original_rows": len(ds),
            "condensed_rows": len(condensed),
            "size_ratio": len(condensed) / len(ds),
        }
        (out_dir / "provenance.json").write_text(json.dumps(provenance, indent=2) + "\n")
        return EXIT_OK
    except Exception as exc:  # noqa: BLE001
        print(f"condense failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def cmd_gen_genomic(count: int, seed: int, out_path) -> int:
    try:
        if count < 0:
            raise ValueError("count must be >= 0")
        data.write_genomic(out_path, count, seed)
        return EXIT_OK
    except (ValueError, OSError) as exc:
        print(f"gen-genomic failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qflsim")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a federated experiment from a config file")
    run_p.add_argument("config")
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--seed", type=int, default=None)

    cond_p = sub.add_parser("condense", help="condense a dataset per config")
    cond_p.add_argument("config")
    cond_p.add_argument("--out", default=None)
    cond_p.add_argument("--seed", type=int, default=None)

    gen_p = sub.add_parser("gen-genomic", help="generate a synthetic genomic corpus")
    gen_p.add_argument("count", type=int)
    gen_p.add_argument("out")
    gen_p.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out, args.seed)
    if args.command == "condense":
        return cmd_condense(args.config, args.out, args.seed)
    return cmd_gen_genomic(args.count, args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
