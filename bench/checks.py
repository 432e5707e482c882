"""Output checks, computed apart from qflsim.

Each check takes the list of experiments of one workload run. An experiment
is a dict with ``config`` (the qflsim config), ``rows`` (``rounds.csv`` as
dicts) and ``capture`` (what the hooks recorded). A check returns failure
messages; an empty list is a pass. ``run_checks`` first fails every check
whose hooks were absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference

TWO_PI = 2.0 * math.pi


def read_rounds_csv(path) -> list[dict]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _circuit(exp, classes: int) -> reference.Circuit:
    cfg = exp["config"]
    qubits = exp["capture"]["dataset_features"].shape[1]
    return reference.Circuit(qubits, classes, cfg.get("ansatz_reps", 3),
                             cfg.get("feature_map_reps", 1), cfg.get("entanglement", "full"))


def _rounds(exp) -> list[tuple[int, dict, dict]]:
    """(round index, captured round, csv row); raises on a count mismatch."""
    captured, rows = exp["capture"]["rounds"], exp["rows"]
    if len(captured) != len(rows) or len(rows) != exp["config"]["rounds"]:
        raise ValueError(f"{exp['config']['name']}: {len(captured)} captured rounds, "
                         f"{len(rows)} csv rows, {exp['config']['rounds']} configured")
    return [(r, cap, row) for r, (cap, row) in enumerate(zip(captured, rows))]


def _sent(bucket) -> list[np.ndarray]:
    return bucket["fedavg"][0]["updates"]


def reference_metrics(exps, classes) -> list[str]:
    """Device, pred and G+ accuracy/loss in rounds.csv equal the reference."""
    fails = []
    for exp in exps:
        circuit, cap = _circuit(exp, classes), exp["capture"]
        devices = exp["config"]["devices"]
        server = {"val": cap["server_val"], "test": cap["server_test"]}

        def acc(where, value, data, theta):
            low, high, n = circuit.accuracy_range(*data, theta)
            hits = float(value) * n
            if not (low - 1e-6 <= hits <= high + 1e-6 and abs(hits - round(hits)) < 1e-6):
                fails.append(f"{where}: csv {value}, reference {low}..{high} of {n} correct")

        def loss(where, value, data, theta):
            ref = circuit.loss(*data, theta)
            if not abs(float(value) - ref) <= 1e-9 * max(1.0, abs(ref)):
                fails.append(f"{where}: csv {value}, reference {ref!r}")

        for r, bucket, row in _rounds(exp):
            where = f"{exp['config']['name']} round {r}"
            trains = bucket.get("train", [])
            if len(trains) != devices + 1:
                fails.append(f"{where}: {len(trains)} optimizer calls, expected {devices + 1}")
                continue
            for k in range(devices):
                train, test = cap["devices"][k]
                acc(f"{where} dev{k}_train_acc", row[f"dev{k}_train_acc"], train,
                    trains[k]["theta"])
                acc(f"{where} dev{k}_test_acc", row[f"dev{k}_test_acc"], test,
                    trains[k]["theta"])
            models = {"pred": bucket["fedavg"][0]["theta_bar"], "gplus": trains[devices]["theta"]}
            for model, theta in models.items():
                for split, data in server.items():
                    acc(f"{where} {model}_{split}_acc", row[f"{model}_{split}_acc"], data, theta)
                    loss(f"{where} {model}_{split}_loss", row[f"{model}_{split}_loss"], data,
                         theta)
    return fails


def training_descends(exps, classes) -> list[str]:
    """Every device training call ends at a lower reference loss than it began."""
    fails = []
    for exp in exps:
        circuit, cap = _circuit(exp, classes), exp["capture"]
        for r, bucket, _ in _rounds(exp):
            for k in range(exp["config"]["devices"]):
                call = bucket["train"][k]
                train = cap["devices"][k][0]
                before = circuit.loss(*train, call["theta0"])
                after = circuit.loss(*train, call["theta"])
                if not after < before:
                    fails.append(f"round {r} device {k}: loss {before!r} -> {after!r}")
    return fails


def global_is_mean(exps, classes) -> list[str]:
    """Each global model is the mean of the updates sent to it."""
    fails = []
    for exp in exps:
        for r, bucket, _ in _rounds(exp):
            event = bucket["fedavg"][0]
            mean = np.mean(np.stack(event["updates"]), axis=0)
            err = np.max(np.abs(event["theta_bar"] - mean))
            if not err <= 1e-12 * max(1.0, np.max(np.abs(mean))):
                fails.append(f"{exp['config']['name']} round {r}: |global - mean| = {err:.3g}")
    return fails


def svd_rank2(exps, classes) -> list[str]:
    """On svd_qkd, each update is the rank-2 truncation of the device's package."""
    fails = []
    for exp in (e for e in exps if e["config"].get("svd_qkd")):
        for r, bucket, _ in _rounds(exp):
            splits, sent = bucket.get("svd_split", []), _sent(bucket)
            if len(splits) != len(sent) or len(sent) != len(bucket.get("noise", [])):
                fails.append(f"round {r}: {len(splits)} SVDs for {len(sent)} updates")
                continue
            for k, (split, noise, update) in enumerate(zip(splits, bucket["noise"], sent)):
                if not np.array_equal(split["theta"], noise["out"]):
                    fails.append(f"round {r} update {k}: SVD input is not the noised package")
                u, s, vt = np.linalg.svd(split["theta"].reshape(split["m1"], split["m2"]))
                best = (u[:, :2] * s[:2]) @ vt[:2]
                err = np.max(np.abs(update - best.reshape(-1)))
                if not err <= 1e-10 * max(1.0, s[0]):
                    fails.append(f"round {r} update {k}: off the rank-2 truncation by {err:.3g}")
    return fails


def qkd_bit_exact(exps, classes) -> list[str]:
    """On qkd_only, each update arrives bit-exact."""
    fails = []
    for exp in (e for e in exps if e["config"].get("qkd_only")):
        for r, bucket, _ in _rounds(exp):
            packages, sent = bucket.get("noise", []), _sent(bucket)
            if len(packages) != len(sent):
                fails.append(f"round {r}: {len(packages)} packages for {len(sent)} updates")
                continue
            for k, (noise, update) in enumerate(zip(packages, sent)):
                if noise["out"].tobytes() != update.tobytes():
                    fails.append(f"round {r} update {k}: not bit-exact after OTP")
    return fails


def _events(exps, kind):
    for exp in exps:
        for bucket in [exp["capture"]["setup"], *exp["capture"]["rounds"]]:
            yield from bucket.get(kind, [])


def keys_agree(exps, classes) -> list[str]:
    """Every honest BB84 key pair agrees."""
    honest = [e for e in _events(exps, "bb84") if not e["eavesdrop"]]
    if not honest:
        return ["no honest key exchange recorded"]
    bad = sum(e["sender"] != e["receiver"] for e in honest)
    return [f"{bad} of {len(honest)} honest key pairs differ"] if bad else []


def pruning(exps, classes) -> list[str]:
    """Pruning zeroes exactly the entries below tau."""
    events = list(_events(exps, "prune"))
    if not events:
        return ["no pruning recorded"]
    fails = []
    for i, e in enumerate(events):
        small = np.abs(e["theta"]) < e["tau"]
        if np.any(e["out"][small] != 0.0) or np.any(e["out"][~small] != e["theta"][~small]):
            fails.append(f"prune call {i}: entries below tau={e['tau']} not zeroed exactly")
    return fails


def laplace_scale(exps, classes) -> list[str]:
    """Mean |noise| is sensitivity/epsilon within five standard errors.

    |Laplace(b)| is exponential with mean b and standard deviation b.
    """
    events = [e for e in _events(exps, "noise") if e["kind"] == "laplace"]
    if not events:
        return ["no Laplace noise recorded"]
    scales = {e["scale"] for e in events}
    if len(scales) != 1:
        return [f"mixed noise scales {sorted(scales)}"]
    b = scales.pop()
    draws = np.concatenate([e["out"] - e["theta"] for e in events])
    mean, tol = float(np.mean(np.abs(draws))), 5.0 * b / math.sqrt(draws.size)
    if not abs(mean - b) <= tol:
        return [f"mean |noise| {mean:.4f} over {draws.size} draws, expected {b} +- {tol:.4f}"]
    return []


def dp_pca_basis(exps, classes) -> list[str]:
    """DP-PCA components are orthonormal, eigenvalues non-increasing."""
    fails = []
    for exp in exps:
        model = exp["capture"].get("dp_pca")
        if model is None:
            fails.append(f"{exp['config']['name']}: no DP-PCA model recorded")
            continue
        c, ev = model["components"], model["eigenvalues"]
        err = np.max(np.abs(c.T @ c - np.eye(c.shape[1])))
        if not err <= 1e-10:
            fails.append(f"components not orthonormal: max |C^T C - I| = {err:.3g}")
        if np.any(np.diff(ev) > 0):
            fails.append(f"eigenvalues increase: {ev.tolist()}")
    return fails


def features_in_range(exps, classes) -> list[str]:
    """The features given to the federation lie in [0, 2 pi)."""
    fails = []
    for exp in exps:
        x = exp["capture"]["dataset_features"]
        if not (np.all(x >= 0.0) and np.all(x < TWO_PI)):
            fails.append(f"features span [{x.min()!r}, {x.max()!r}]")
    return fails


@dataclass(frozen=True)
class Check:
    run: Callable
    needs: tuple[str, ...]


_ROUND_HOOKS = ("fed.init_state", "fed.run_round", "modelshare.federated_average")

CHECKS = {
    "iris-aqgd": [
        Check(reference_metrics, _ROUND_HOOKS + ("optimizers.aqgd_minimize",)),
        Check(training_descends, _ROUND_HOOKS + ("optimizers.aqgd_minimize",)),
    ],
    "privacy-fanout": [
        Check(reference_metrics, _ROUND_HOOKS + ("optimizers.spsa_minimize",)),
        Check(global_is_mean, _ROUND_HOOKS),
        Check(svd_rank2, _ROUND_HOOKS + ("modelshare.svd_split", "dp.add_parameter_noise")),
        Check(qkd_bit_exact, _ROUND_HOOKS + ("dp.add_parameter_noise",)),
        Check(keys_agree, ("qkd.bb84_exchange",)),
        Check(pruning, ("modelshare.prune",)),
        Check(laplace_scale, ("dp.add_parameter_noise",)),
    ],
    "genomic-dp-8q": [
        Check(reference_metrics, _ROUND_HOOKS + ("optimizers.dp_aqgd_minimize",
                                                 "optimizers.aqgd_minimize")),
        Check(dp_pca_basis, ("dp.dp_pca_fit_transform",)),
        Check(features_in_range, ("fed.init_state",)),
    ],
}


def run_checks(workload: str, exps: list[dict], absent: list[str],
               classes: int) -> dict[str, list[str]]:
    """Failures by check name, for every check of the workload."""
    out = {}
    for check in CHECKS[workload]:
        missing = [h for h in check.needs if h in absent]
        if missing:
            out[check.run.__name__] = [f"hook absent: {h}" for h in missing]
            continue
        try:
            out[check.run.__name__] = check.run(exps, classes)
        except (KeyError, IndexError, ValueError) as exc:
            out[check.run.__name__] = [f"captured data incomplete: {exc!r}"]
    return out
