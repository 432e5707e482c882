"""Toy-size smoke test of the benchmark; it asserts nothing about timing.

Every workload runs through the worker and passes all of its output checks,
the traced run matches the untraced one, and every check fails when the
recorded theta or update it inspects is corrupted.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py
"""

import copy
import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import hooks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    return {wl: run.repetition(wl, SEED, ROOT, tmp_path_factory.mktemp(wl), False,
                               time.monotonic() + 120, toy=True)
            for wl in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_passes_every_check(toy, workload):
    rep = toy[workload]
    assert set(rep["failures"]) == {c.run.__name__ for c in checks.CHECKS[workload]}
    assert {k: v for k, v in rep["failures"].items() if v} == {}
    assert rep["attempted"] > 0 and rep["failed"] == 0
    assert rep["absent"] == []


def test_traced_run_reports_every_layer_and_matches_untraced(tmp_path):
    metrics, failures, totals = run.measure("privacy-fanout", SEED, 1, True, ROOT, tmp_path,
                                            toy=True)
    assert failures == []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= set(metrics)
    assert metrics["qkd.bb84_exchange.calls"] == 2 * 2 * 4  # experiments x rounds x devices
    assert metrics["fed.run_round.calls"] == 2 * 2


def _round(exps, i=0, r=0):
    return exps[i]["capture"]["rounds"][r]


def _bump_theta_bar(exps):
    _round(exps)["fedavg"][0]["theta_bar"] += 0.5


def _swap_training_ends(exps):
    call = _round(exps)["train"][0]
    call["theta0"], call["theta"] = call["theta"], call["theta0"]


def _nudge_update(exps, i=0):
    _round(exps, i)["fedavg"][0]["updates"][0] += 1e-6


def _flip_last_bit(exps):
    update = _round(exps, 1)["fedavg"][0]["updates"][0]
    update[-1] = np.nextafter(update[-1], np.inf)


def _break_key(exps):
    event = _round(exps)["bb84"][0]
    event["receiver"] = ("1" if event["receiver"][0] == "0" else "0") + event["receiver"][1:]


def _unprune(exps):
    for exp in exps:
        for bucket in exp["capture"]["rounds"]:
            for event in bucket["prune"]:
                small = np.flatnonzero(np.abs(event["theta"]) < event["tau"])
                if small.size:
                    event["out"][small[0]] = event["theta"][small[0]]
                    return
    raise AssertionError("no entry below tau in the toy run")


def _double_noise(exps):
    for exp in exps:
        for bucket in exp["capture"]["rounds"]:
            for event in bucket["noise"]:
                event["out"] = event["theta"] + 2.0 * (event["out"] - event["theta"])


def _bump_gplus(exps):
    _round(exps)["train"][-1]["theta"] += 0.5


def _skew_components(exps):
    exps[0]["capture"]["dp_pca"]["components"][:, 0] *= 1.01


def _feature_at_two_pi(exps):
    exps[0]["capture"]["dataset_features"][0, 0] = 2.0 * np.pi


CORRUPTIONS = [
    ("iris-aqgd", "reference_metrics", _bump_theta_bar),
    ("iris-aqgd", "training_descends", _swap_training_ends),
    ("privacy-fanout", "reference_metrics", _bump_theta_bar),
    ("privacy-fanout", "global_is_mean", _nudge_update),
    ("privacy-fanout", "svd_rank2", _nudge_update),
    ("privacy-fanout", "qkd_bit_exact", _flip_last_bit),
    ("privacy-fanout", "keys_agree", _break_key),
    ("privacy-fanout", "pruning", _unprune),
    ("privacy-fanout", "laplace_scale", _double_noise),
    ("genomic-dp-8q", "reference_metrics", _bump_gplus),
    ("genomic-dp-8q", "dp_pca_basis", _skew_components),
    ("genomic-dp-8q", "features_in_range", _feature_at_two_pi),
]


def test_every_check_has_a_corruption():
    named = {(wl, c.run.__name__) for wl, cs in checks.CHECKS.items() for c in cs}
    assert named == {(wl, name) for wl, name, _ in CORRUPTIONS}


@pytest.mark.parametrize("workload,check,corrupt", CORRUPTIONS,
                         ids=[f"{w}-{c}" for w, c, _ in CORRUPTIONS])
def test_check_fails_on_corruption(toy, workload, check, corrupt):
    exps = copy.deepcopy(toy[workload]["exps"])
    corrupt(exps)
    assert getattr(checks, check)(exps, workloads.class_count(workload)) != []


def test_missing_hook_fails_the_checks_that_need_it(toy):
    rep = toy["privacy-fanout"]
    out = checks.run_checks("privacy-fanout", rep["exps"], ["modelshare.prune"],
                            workloads.class_count("privacy-fanout"))
    assert out["pruning"] == ["hook absent: modelshare.prune"]
    assert out["keys_agree"] == []


def test_removed_function_reads_as_absent_and_aliases_are_patched(monkeypatch):
    pkg = types.ModuleType("fakeqfl")
    qsim = types.ModuleType("fakeqfl.qsim")
    caller = types.ModuleType("fakeqfl.caller")
    qsim.apply_gate_batch = lambda amps, gate: amps
    caller.apply_gate_batch = qsim.apply_gate_batch  # a direct import
    pkg.qsim, pkg.caller = qsim, caller
    for mod in (pkg, qsim, caller):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    recorder = hooks.Recorder(trace=True)
    recorder.install(pkg)
    caller.apply_gate_batch(np.zeros((2, 4)), None)
    metrics = recorder.layer_metrics()
    assert "fed.run_round" in recorder.absent and "qsim.apply_gate_batch" not in recorder.absent
    assert metrics["qsim.apply_gate_batch.calls"] == 1
    assert metrics["qsim.apply_gate_batch.amplitudes"] == 8
    assert metrics["fed.run_round.calls"] == 0
