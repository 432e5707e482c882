"""The three benchmark workloads: qflsim configs and inputs made from a seed.

Each workload is a list of experiments that one worker process runs in turn
through ``qflsim run``. The seed is the experiment seed (device shards,
initial parameters, noise and key streams) and, for the genomic workload,
also the seed of the corpus, which qflsim's own ``data.write_genomic`` writes
before the worker starts, so it is not timed.
``toy=True`` shrinks every size for the smoke test.
"""

from __future__ import annotations

import json
from pathlib import Path

IRIS_CLASSES = 3
GENOMIC_CLASSES = 2

# Settings of scripts/configs/iris_baseline.json, copied so that the workload
# stays fixed when that file changes.
IRIS_BASELINE = {
    "dataset": "iris", "devices": 3, "samples_per_device": 30,
    "server_val_size": 30, "server_test_size": 30,
    "maxiter": 100, "eta": 0.3, "momentum": 0.25,
}


def _iris_aqgd(seed: int, toy: bool) -> list[dict]:
    return [dict(IRIS_BASELINE, name="iris-aqgd", rounds=1, maxiter=4 if toy else 20,
                 seed=seed)]


def _privacy_fanout(seed: int, toy: bool) -> list[dict]:
    base = {
        "dataset": "iris", "devices": 4 if toy else 24, "samples_per_device": 5,
        "server_val_size": 15, "server_test_size": 15,
        "optimizer": "spsa", "spsa_maxiter": 1,
        "param_noise": {"kind": "laplace", "epsilon": 1.0, "sensitivity": 1.0},
        "pruning": {"tau": 0.5},
        "rounds": 2 if toy else 8, "seed": seed,
    }
    return [dict(base, name="fanout-svd-qkd", svd_qkd=True),
            dict(base, name="fanout-qkd-only", qkd_only=True)]


def _genomic_dp_8q(seed: int, toy: bool) -> list[dict]:
    devices, per_device, server = (2, 10, 10) if toy else (3, 40, 40)
    return [{
        "name": "genomic-dp-8q", "dataset": "genomic", "features": 8,
        "entanglement": "linear", "devices": devices, "samples_per_device": per_device,
        "server_val_size": server, "server_test_size": server,
        "maxiter": 2 if toy else 3, "eta": 0.3, "momentum": 0.25,
        "dp_pca": {"n_components": 8, "epsilon": 1.0, "delta": 1e-5},
        "dp_optimizer": {"epsilon": 10.0, "delta": 1e-5, "sensitivity": 0.1},
        "rounds": 1, "seed": seed,
        "corpus_size": devices * per_device + 2 * server,
    }]


WORKLOADS = {
    "iris-aqgd": (_iris_aqgd, IRIS_CLASSES),
    "privacy-fanout": (_privacy_fanout, IRIS_CLASSES),
    "genomic-dp-8q": (_genomic_dp_8q, GENOMIC_CLASSES),
}


def class_count(workload: str) -> int:
    return WORKLOADS[workload][1]


def write_inputs(workload: str, seed: int, out_dir: Path, toy: bool = False) -> list[dict]:
    """Write the configs (and the corpus) under `out_dir`; return the configs.

    Each returned config carries ``path`` (its file) and its ``output_dir``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = []
    for cfg in WORKLOADS[workload][0](seed, toy):
        cfg = dict(cfg)
        corpus_size = cfg.pop("corpus_size", None)
        if corpus_size is not None:
            from qflsim.data import write_genomic  # the caller puts qflsim on sys.path

            corpus = out_dir / "corpus.txt"
            write_genomic(corpus, corpus_size, seed)
            cfg["dataset_path"] = str(corpus)
        cfg["output_dir"] = str(out_dir / cfg["name"])
        path = out_dir / f"{cfg['name']}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n")
        configs.append(dict(cfg, path=str(path)))
    return configs
