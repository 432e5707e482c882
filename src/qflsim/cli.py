"""Batch command-line driver: declarative JSON configs, dataset generation,
condensation, experiment execution and CSV/JSON persistence."""

from __future__ import annotations

import argparse
import dataclasses
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

# Each nested config object is the keyword arguments of its spec dataclass.
_SECTIONS = {
    "dp_optimizer": DpSettings,
    "param_noise": NoiseMechanism,
    "dp_pca": DpPcaSpec,
    "pruning": PruneSpec,
    "condensation": CondenseSpec,
}

# Top-level keys that take a number but default to null.
_OPTIONAL_NUMBERS = ("samples_per_device",)


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
    for key, default in defaults.items():
        # exact types: a JSON true is a bool, not the number 1, and vice versa
        if type(default) is bool and type(config[key]) is not bool:
            raise ConfigError(key, "must be true or false")
        if type(default) in (int, float) and type(config[key]) not in (int, float):
            raise ConfigError(key, "must be a number")
        if key in _OPTIONAL_NUMBERS and type(config[key]) not in (int, float, type(None)):
            raise ConfigError(key, "must be a number or null")
    for key, cls in _SECTIONS.items():
        value = config.get(key)
        if value is None:
            continue
        if not isinstance(value, dict):
            raise ConfigError(key, "must be an object or null")
        bad = set(value) - {f.name for f in dataclasses.fields(cls)}
        if bad:
            raise ConfigError(f"{key}.{sorted(bad)[0]}", "unknown key")
    return config


def _require(config: dict, key: str):
    if config.get(key) is None:
        raise ConfigError(key, "is required")
    return config[key]


# The JSON values each spec annotation takes, by exact type: bool is a subclass
# of int, so no spec check would refuse true or false where a number goes.
_JSON_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,),
               "None": (type(None),)}


def _accepts(annotation: str, value) -> bool:
    """Whether a JSON value fits a spec field's annotation, such as "float | None"
    or "tuple[float, float]" (a list of such items; the spec checks its length)."""
    for option in annotation.split(" | "):
        if option.startswith("tuple["):
            item = option[len("tuple["):].split(",")[0]
            if isinstance(value, list) and all(_accepts(item, v) for v in value):
                return True
        elif type(value) in _JSON_TYPES[option]:
            return True
    return False


def _section(config: dict, key: str, **defaults):
    """The spec built from nested object `key`, or None when it is null.

    `defaults` are the call-site values for fields the spec leaves unset or
    sets differently; the spec itself checks every value."""
    section = config.get(key)
    if section is None:
        return None
    for f in dataclasses.fields(_SECTIONS[key]):
        if f.name in section and not _accepts(f.type, section[f.name]):
            raise ConfigError(f"{key}.{f.name}",
                              f"expects {f.type}, not {json.dumps(section[f.name])}")
    try:
        return _SECTIONS[key](**{**defaults, **section})
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, str(exc))


def _build_dataset(config: dict) -> Dataset:
    kind = _require(config, "dataset")
    if kind == "iris":
        return data.load_iris(config["dataset_path"])
    if kind == "genomic":
        return data.encode_genomic(_require(config, "dataset_path"))
    if kind == "mnist":
        return data.load_mnist_idx(
            _require(config, "dataset_path"), _require(config, "labels_path"),
            config["keep_digits"],
        )
    if kind == "csv":
        return data.load_csv(_require(config, "dataset_path"))
    raise ConfigError("dataset", f"unknown dataset kind {kind!r}")


def _prepare_features(config: dict, ds: Dataset, rng: np.random.Generator) -> Dataset:
    """Reduce every dataset kind to `features` columns by DP-PCA (when
    `dp_pca` is set) or plain PCA (when wider), then scale to angles."""
    target = config["features"]
    spec = _section(config, "dp_pca", n_components=target, delta=1e-5)
    if spec is not None:
        reduced, _ = dp_pca_fit_transform(ds.features, ds.labels, spec, rng)
        ds = Dataset(reduced, ds.labels, ds.class_count, ds.name)
    elif ds.features.shape[1] > target:
        reduced, _ = data.plain_pca(ds.features, target)
        ds = Dataset(reduced, ds.labels, ds.class_count, ds.name)
    return data.scale_to_angles(ds)


def _build_plan(config: dict, ds: Dataset) -> fed.ExperimentPlan:
    dp_optimizer = _section(config, "dp_optimizer", delta=1e-5)
    param_noise = _section(config, "param_noise", kind="gaussian", sensitivity=1.0,
                           delta=1e-5)
    pruning = _section(config, "pruning")
    condensation = _section(config, "condensation", seed=config["seed"])
    try:
        devices = config["devices"]
        spd = config["samples_per_device"]
        if spd is None:
            spd = (len(ds) - config["server_val_size"] - config["server_test_size"]) // devices
        return fed.ExperimentPlan(
            rounds=config["rounds"], device_count=devices,
            split=SplitPlan(devices, spd, config["server_val_size"],
                            config["server_test_size"], config["seed"]),
            vqc_config=vqc.VqcConfig(
                feature_count=ds.features.shape[1],
                class_count=ds.class_count,
                feature_map_reps=config["feature_map_reps"],
                ansatz_reps=config["ansatz_reps"],
                entanglement=config["entanglement"],
            ),
            optimizer=config["optimizer"],
            aqgd=AqgdSettings(
                maxiter=config["maxiter"], eta=config["eta"], momentum=config["momentum"],
                tol=config["tol"], param_tol=config["param_tol"],
                averaging=config["averaging"],
            ),
            spsa_maxiter=config["spsa_maxiter"], dp_optimizer=dp_optimizer,
            param_noise=param_noise, pruning=pruning,
            svd_qkd=config["svd_qkd"], qkd_only=config["qkd_only"],
            condensation=condensation, seed=config["seed"],
        )
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError("<plan>", str(exc))


def _setup(config: dict) -> tuple[Dataset, fed.ExperimentPlan]:
    """The federation's dataset and plan; DP-PCA is the first consumer of
    the seed's generator."""
    rng = np.random.default_rng(config["seed"])
    ds = _prepare_features(config, _build_dataset(config), rng)
    return ds, _build_plan(config, ds)


# rounds.csv: round, per-device accuracies, their averages, these scores,
# dropped devices and wall clock
_SCORES = [
    "pred_val_acc", "pred_val_loss", "pred_test_acc", "pred_test_loss",
    "gplus_val_acc", "gplus_val_loss", "gplus_test_acc", "gplus_test_loss",
    "server_score",
]


def _csv_columns(device_count: int) -> list[str]:
    cols = ["round"]
    for k in range(device_count):
        cols += [f"dev{k}_train_acc", f"dev{k}_test_acc"]
    return cols + ["avg_train_acc", "avg_test_acc", *_SCORES,
                   "dropped_devices", "wall_clock_seconds"]


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _record_row(record: fed.RoundRecord) -> list[str]:
    row = [str(record.round_index)]
    for tr, te in zip(record.device_train_acc, record.device_test_acc):
        row += [_fmt(tr), _fmt(te)]
    row += [_fmt(float(np.mean(record.device_train_acc))),
            _fmt(float(np.mean(record.device_test_acc)))]
    row += [_fmt(getattr(record, name)) for name in _SCORES]
    row += [";".join(str(d) for d in record.dropped_devices),
            _fmt(record.wall_clock_seconds)]
    return row


def _parse_records(csv_path: Path, device_count: int) -> list[fed.RoundRecord]:
    header, *rows = (line.split(",") for line in csv_path.read_text().splitlines())
    records = []
    for parts in rows:
        row = dict(zip(header, parts))
        records.append(fed.RoundRecord(
            round_index=int(row["round"]),
            device_train_acc=[float(row[f"dev{k}_train_acc"]) for k in range(device_count)],
            device_test_acc=[float(row[f"dev{k}_test_acc"]) for k in range(device_count)],
            **{name: float(row[name]) for name in _SCORES},
            dropped_devices=[int(d) for d in row["dropped_devices"].split(";") if d],
            wall_clock_seconds=float(row["wall_clock_seconds"]),
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
        ds, plan = _setup(config)
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
        spec = _section(config, "condensation", seed=config["seed"])
        if spec is None:
            raise ConfigError("condensation", "is required")
        ds = _build_dataset(config)
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
            "spec": dataclasses.asdict(spec),
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
