"""Wrap qflsim's public functions from outside the package.

A `Recorder` patches each hooked function at every place a qflsim module
looks it up, so names that callers import directly (``fed.add_parameter_noise``,
``modelshare.otp_encrypt``) are covered too. Every installed wrapper may

* record a span (name, start, end, parent span) when tracing is on,
* add to named counters, and
* capture arguments and results that the output checks need.

Spans live in flat typed arrays, so a traced run can hold the ~10^6 gate
calls of a training workload; they are written out once, when the run ends.
A hooked function that the package no longer defines is listed as absent.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Hook:
    name: str  # "module.attr" or "module.Class.attr", module relative to qflsim
    before: Callable | None = None  # before(recorder, arguments)
    after: Callable | None = None  # after(recorder, arguments, result)
    # Needed by the output checks, so installed untraced too; its actions get
    # the arguments by name, the others get the positional tuple.
    capture: bool = False


def _copy(a) -> np.ndarray:
    return np.array(a, dtype=float, copy=True)


def _dataset(ds) -> tuple[np.ndarray, np.ndarray]:
    return _copy(ds.features), np.array(ds.labels, dtype=int, copy=True)


# -- per-hook actions -------------------------------------------------------

def _count(key, amount):
    def after(rec, args, result):
        rec.counts[key] += amount(args, result)
    return after


def _round_start(rec, args):
    exp = rec.experiment
    if exp["first_round"] is None:
        exp["first_round"] = time.monotonic()
    exp["rounds"].append({})


def _round_end(rec, args, result):
    rec.counts["fed.dropped_updates"] += len(result[1].dropped_devices)


def _init_state(rec, args, state):
    exp = rec.experiment
    exp["dataset_features"] = _copy(args["dataset"].features)
    exp["devices"] = [(_dataset(d.train), _dataset(d.test)) for d in state.devices]
    exp["server_val"] = _dataset(state.server_val)
    exp["server_test"] = _dataset(state.server_test)


def _optimizer(short):
    def after(rec, args, result):
        rec.counts[f"optimizers.{short}.iterations"] += result.iterations_run
        rec.counts["optimizers.evaluations"] += result.eval_count
        rec.experiment["iterations"] += result.iterations_run
        rec.event("train", {"optimizer": short, "theta0": _copy(args["theta0"]),
                            "theta": _copy(result.theta_final)})
    return after


def _fedavg(rec, args, result):
    rec.event("fedavg", {"updates": [_copy(t) for t in args["thetas"]],
                         "theta_bar": _copy(result)})


def _prune(rec, args, result):
    rec.event("prune", {"theta": _copy(args["theta"]), "tau": float(args["tau"]),
                        "out": _copy(result)})


def _noise(rec, args, result):
    mech = args["mech"]
    rec.event("noise", {"theta": _copy(args["theta"]), "out": _copy(result),
                        "kind": mech.kind, "scale": mech.sensitivity / mech.epsilon})


def _svd_split(rec, args, result):
    rec.event("svd_split", {"theta": _copy(args["theta"]), "m1": int(args["m1"]),
                            "m2": int(args["m2"])})


def _bb84(rec, args, keys):
    rec.counts["qkd.bb84_exchange.key_bits"] += len(keys.sender_key)
    rec.counts["qkd.bb84_exchange.checked_calls"] += args["check_fraction"] > 0
    rec.event("bb84", {"sender": keys.sender_key, "receiver": keys.receiver_key,
                       "eavesdrop": bool(args["eavesdrop"])})


def _dp_pca(rec, args, result):
    model = result[1]
    rec.experiment["dp_pca"] = {"components": _copy(model.components),
                                "eigenvalues": _copy(model.eigenvalues)}


HOOKS = [
    Hook("qsim.apply_gate_batch",
         after=_count("qsim.apply_gate_batch.amplitudes", lambda a, r: a[0].size)),
    Hook("vqc.apply_ansatz_batch",
         after=_count("vqc.apply_ansatz_batch.rows", lambda a, r: a[0].shape[0])),
    Hook("vqc.build_ansatz"),
    Hook("vqc.DatasetObjective.evaluate_many",
         after=_count("vqc.DatasetObjective.evaluate_many.points", lambda a, r: len(a[1]))),
    Hook("vqc.encode_features"),
    Hook("vqc.accuracy"),
    Hook("vqc.cross_entropy_loss"),
    Hook("optimizers.parameter_shift_gradient"),
    Hook("optimizers.aqgd_minimize", after=_optimizer("aqgd_minimize"), capture=True),
    Hook("optimizers.dp_aqgd_minimize", after=_optimizer("dp_aqgd_minimize"), capture=True),
    Hook("optimizers.spsa_minimize", after=_optimizer("spsa_minimize"), capture=True),
    Hook("fed.init_state", after=_init_state, capture=True),
    Hook("fed.run_round", before=_round_start, after=_round_end, capture=True),
    Hook("modelshare.prune", after=_prune, capture=True),
    Hook("modelshare.svd_split", after=_svd_split, capture=True),
    Hook("modelshare.reconstruct"),
    Hook("modelshare.federated_average", after=_fedavg, capture=True),
    Hook("modelshare.SvdPackage.to_bytes",
         after=_count("modelshare.wire_bytes", lambda a, r: len(r))),
    Hook("modelshare.SvdPackage.from_bytes"),
    Hook("qkd.bb84_exchange", after=_bb84, capture=True),
    Hook("qkd.otp_encrypt", after=_count("qkd.otp_encrypt.bytes", lambda a, r: len(a[0]))),
    Hook("qkd.otp_decrypt",
         after=_count("qkd.otp_decrypt.bytes", lambda a, r: a[0].bit_length // 8)),
    Hook("dp.add_parameter_noise", after=_noise, capture=True),
    Hook("dp.dp_pca_fit_transform", after=_dp_pca, capture=True),
    Hook("data.load_iris"),
    Hook("data.encode_genomic"),
    Hook("data.scale_to_angles"),
    Hook("data.shard"),
    Hook("cli.cmd_run"),
]


def _namer(fn) -> Callable:
    """args_of(args, kwargs) -> {parameter name: value}, defaults filled in.

    Positional arguments are matched to the leading parameters by position,
    which costs far less per call than ``inspect.Signature.bind``.
    """
    params = inspect.signature(fn).parameters.values()
    names = [p.name for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    defaults = {p.name: p.default for p in params if p.default is not p.empty}

    def args_of(args, kwargs):
        named = dict(defaults)
        named.update(zip(names, args))
        named.update(kwargs)
        return named
    return args_of


HOOK_NAMES = [h.name for h in HOOKS]
COUNTERS = [
    "qsim.apply_gate_batch.amplitudes", "vqc.apply_ansatz_batch.rows",
    "vqc.DatasetObjective.evaluate_many.points", "optimizers.evaluations",
    "optimizers.aqgd_minimize.iterations", "optimizers.dp_aqgd_minimize.iterations",
    "optimizers.spsa_minimize.iterations", "fed.dropped_updates", "modelshare.wire_bytes",
    "qkd.bb84_exchange.key_bits", "qkd.bb84_exchange.checked_calls",
    "qkd.otp_encrypt.bytes", "qkd.otp_decrypt.bytes",
]


class Recorder:
    """Installs the hooks and holds what they record, for one process."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.counts: Counter = Counter()
        self.experiments: list[dict] = []
        self.absent: list[str] = []
        self.span_names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    @property
    def experiment(self) -> dict:
        return self.experiments[-1]

    def begin_experiment(self, label: str) -> None:
        self.experiments.append({"label": label, "first_round": None, "iterations": 0,
                                 "rounds": [], "setup": {}})

    def event(self, kind: str, payload) -> None:
        exp = self.experiment
        bucket = exp["rounds"][-1] if exp["rounds"] else exp["setup"]
        bucket.setdefault(kind, []).append(payload)

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        for hook in HOOKS:
            if not (self.trace or hook.capture):
                continue
            mod_name, *path = hook.name.split(".")
            owner = getattr(package, mod_name, None)
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            raw = inspect.getattr_static(owner, path[-1], None) if owner is not None else None
            if raw is None:
                self.absent.append(hook.name)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, path[-1], classmethod(self._wrap(hook, raw.__func__)))
                continue
            wrapper = self._wrap(hook, raw)
            if inspect.isclass(owner):
                setattr(owner, path[-1], wrapper)
                continue
            for mod in modules:  # every module-level name bound to this function
                for attr, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, attr, wrapper)

    def _wrap(self, hook: Hook, fn):
        rec, before, after = self, hook.before, hook.after
        args_of = _namer(fn) if hook.capture else None

        if not self.trace:
            def plain(*args, **kwargs):
                named = args if args_of is None else args_of(args, kwargs)
                if before is not None:
                    before(rec, named)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(rec, named, result)
                return result
            plain.__wrapped__ = fn
            return plain

        nid = len(self.span_names)
        self.span_names.append(hook.name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            named = args if args_of is None else args_of(args, kwargs)
            if before is not None:
                before(rec, named)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(rec, named, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per hooked function, plus the counters."""
        name_id = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = np.bincount(name_id, weights=dur - covered,
                                minlength=len(self.span_names))
        calls = np.bincount(name_id, minlength=len(self.span_names))
        metrics = {f"{name}.{kind}": 0.0 for name in HOOK_NAMES for kind in ("calls", "s")}
        metrics.update({key: 0.0 for key in COUNTERS})
        for i, name in enumerate(self.span_names):
            metrics[f"{name}.calls"] = float(calls[i])
            metrics[f"{name}.s"] = float(self_time[i])
        metrics.update({k: float(v) for k, v in self.counts.items()})
        return metrics

    def write_spans(self, path) -> None:
        np.savez(path, names=np.array(self.span_names),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int64),
                 start=np.array(self.start), end=np.array(self.end))
