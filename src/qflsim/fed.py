"""Federated orchestration: rounds of local training, privacy transforms,
aggregation and metric collection."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import modelshare, optimizers, qkd, vqc
from .condense import CondenseSpec, condense
from .data import Dataset, DeviceData, SplitPlan, shard
from .dp import NoiseMechanism, add_parameter_noise
from .modelshare import PruneSpec
from .optimizers import AqgdSettings, DpSettings

# stream tags for per-(seed, device, round) RNG derivation
_STREAM_INIT = 0
_STREAM_TRAIN = 1
_STREAM_NOISE = 2
_STREAM_QKD = 3


@dataclass(frozen=True)
class ExperimentPlan:
    rounds: int
    device_count: int
    split: SplitPlan
    vqc_config: vqc.VqcConfig
    optimizer: str = "aqgd"  # "aqgd" or "spsa"
    aqgd: AqgdSettings = field(default_factory=AqgdSettings)
    spsa_maxiter: int = 100
    dp_optimizer: DpSettings | None = None
    param_noise: NoiseMechanism | None = None
    pruning: PruneSpec | None = None
    svd_qkd: bool = False
    qkd_only: bool = False
    condensation: CondenseSpec | None = None
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 1 or self.device_count < 1:
            raise ValueError("rounds and device_count must be >= 1")
        if self.svd_qkd and self.qkd_only:
            raise ValueError("svd_qkd and qkd_only are mutually exclusive")
        if self.optimizer not in ("aqgd", "spsa"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class RoundRecord:
    round_index: int
    device_train_acc: list[float]
    device_test_acc: list[float]
    pred_val_acc: float
    pred_val_loss: float
    pred_test_acc: float
    pred_test_loss: float
    gplus_val_acc: float
    gplus_val_loss: float
    gplus_test_acc: float
    gplus_test_loss: float
    server_score: float
    wall_clock_seconds: float
    dropped_devices: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


@dataclass
class FedState:
    device_thetas: list[np.ndarray]
    theta_bar: np.ndarray | None
    devices: list[DeviceData]
    server_val: Dataset
    server_test: Dataset
    # one objective per fixed dataset, so each is encoded once per experiment
    device_objectives: list[tuple[vqc.DatasetObjective, vqc.DatasetObjective]]
    server_objectives: tuple[vqc.DatasetObjective, vqc.DatasetObjective]


def _rng(seed: int, device: int, round_t: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, device, round_t, stream])


def init_state(plan: ExperimentPlan, dataset: Dataset) -> FedState:
    devices, server_val, server_test = shard(
        dataset, plan.split, np.random.default_rng(plan.seed)
    )
    if plan.condensation is not None:
        devices = [
            DeviceData(train=_condense_dataset(d.train, plan.condensation), test=d.test)
            for d in devices
        ]
    n = plan.vqc_config.parameter_count
    thetas = [
        _rng(plan.seed, k, 0, _STREAM_INIT).uniform(-np.pi, np.pi, n)
        for k in range(plan.device_count)
    ]
    def objective(ds: Dataset) -> vqc.DatasetObjective:
        return vqc.DatasetObjective(ds.features, ds.labels, plan.vqc_config)

    return FedState(thetas, None, devices, server_val, server_test,
                    [(objective(d.train), objective(d.test)) for d in devices],
                    (objective(server_val), objective(server_test)))


def _condense_dataset(ds: Dataset, spec: CondenseSpec) -> Dataset:
    # features are angles in [0, 2pi); condense in [0, 1] then map back
    scaled = ds.features / (2.0 * np.pi)
    result = condense(scaled, ds.labels, spec)
    return Dataset(result.synthetic * 2.0 * np.pi, result.labels, ds.class_count, ds.name)


def _train(plan: ExperimentPlan, theta: np.ndarray, objective: vqc.DatasetObjective,
           device: int, round_t: int) -> np.ndarray:
    rng = _rng(plan.seed, device, round_t, _STREAM_TRAIN)
    if plan.optimizer == "spsa":
        return optimizers.spsa_minimize(objective, theta, plan.spsa_maxiter, rng).theta_final
    if plan.dp_optimizer is not None:
        return optimizers.dp_aqgd_minimize(
            objective, theta, plan.aqgd, plan.dp_optimizer, rng
        ).theta_final
    return optimizers.aqgd_minimize(objective, theta, plan.aqgd).theta_final


def _finetune(plan: ExperimentPlan, theta: np.ndarray, objective: vqc.DatasetObjective,
              round_t: int) -> np.ndarray:
    # G+ adaptation: same optimizer family with a quarter of the budget
    rng = _rng(plan.seed, plan.device_count, round_t, _STREAM_TRAIN)  # server stream
    if plan.optimizer == "spsa":
        maxiter = max(1, plan.spsa_maxiter // 4)
        return optimizers.spsa_minimize(objective, theta, maxiter, rng).theta_final
    settings = replace(plan.aqgd, maxiter=max(1, plan.aqgd.maxiter // 4))
    return optimizers.aqgd_minimize(objective, theta, settings).theta_final


def _package(plan: ExperimentPlan, theta: np.ndarray, device: int, round_t: int) -> np.ndarray:
    """Outbound transforms in fixed order: prune -> noise -> encrypt/decrypt leg."""
    if plan.pruning is not None:
        theta = modelshare.prune(theta, plan.pruning.tau)
    if plan.param_noise is not None:
        theta = add_parameter_noise(
            theta, plan.param_noise, _rng(plan.seed, device, round_t, _STREAM_NOISE)
        )
    qkd_rng = _rng(plan.seed, device, round_t, _STREAM_QKD)
    if plan.svd_qkd:
        m1, m2 = modelshare.reshape_dims(theta.size)
        U, sigma, Vt = modelshare.svd_split(theta, m1, m2)
        keys = qkd.bb84_exchange(64 * len(sigma), qkd_rng)
        blob = modelshare.encrypt_sigma(sigma, keys.sender_key)
        pkg = modelshare.SvdPackage(U=U, Vt=Vt, sigma_cipher=blob, m1=m1, m2=m2)
        # server side: decrypt and rank-truncated rebuild
        pkg = modelshare.SvdPackage.from_bytes(pkg.to_bytes())
        sigma_dec = modelshare.decrypt_sigma(pkg.sigma_cipher, keys.receiver_key)
        return modelshare.reconstruct(pkg.U, sigma_dec, pkg.Vt, pkg.m1, pkg.m2)
    if plan.qkd_only:
        # the whole vector goes through the sigma leg: 64 key bits per float
        keys = qkd.bb84_exchange(64 * theta.size, qkd_rng)
        blob = modelshare.encrypt_sigma(theta, keys.sender_key)
        return modelshare.decrypt_sigma(blob, keys.receiver_key)
    return theta


def run_round(state: FedState, plan: ExperimentPlan, round_t: int) -> tuple[FedState, RoundRecord]:
    if round_t >= plan.rounds:
        raise ValueError("round index past plan.rounds")
    start = time.perf_counter()
    avg_initial = plan.pruning.avg_initial if plan.pruning is not None else False

    new_thetas: list[np.ndarray] = []
    updates: list[np.ndarray] = []
    train_accs: list[float] = []
    test_accs: list[float] = []
    dropped: list[int] = []
    errors: list[str] = []

    for k in range(plan.device_count):
        theta = state.device_thetas[k]
        if round_t > 0 and state.theta_bar is not None:
            theta = modelshare.apply_global(theta, state.theta_bar, avg_initial)
        train_objective, test_objective = state.device_objectives[k]
        theta = _train(plan, theta, train_objective, k, round_t)
        new_thetas.append(theta)
        train_accs.append(train_objective.score(theta)[0])
        test_accs.append(test_objective.score(theta)[0])
        try:
            updates.append(_package(plan, theta, k, round_t))
        except qkd.KeyCompromisedError as exc:
            dropped.append(k)
            errors.append(f"device {k}: {exc}")

    if updates:
        theta_bar = modelshare.federated_average(updates)
    else:
        errors.append("all device updates dropped; keeping previous global model")
        theta_bar = state.theta_bar if state.theta_bar is not None else new_thetas[0]

    val_objective, test_objective = state.server_objectives
    pred_val_acc, pred_val_loss = val_objective.score(theta_bar)
    pred_test_acc, pred_test_loss = test_objective.score(theta_bar)
    server_score = pred_test_acc  # un-adapted averaged model on the server test set

    theta_gplus = _finetune(plan, theta_bar.copy(), val_objective, round_t)
    gplus_val_acc, gplus_val_loss = val_objective.score(theta_gplus)
    gplus_test_acc, gplus_test_loss = test_objective.score(theta_gplus)

    record = RoundRecord(
        round_index=round_t,
        device_train_acc=train_accs,
        device_test_acc=test_accs,
        pred_val_acc=pred_val_acc,
        pred_val_loss=pred_val_loss,
        pred_test_acc=pred_test_acc,
        pred_test_loss=pred_test_loss,
        gplus_val_acc=gplus_val_acc,
        gplus_val_loss=gplus_val_loss,
        gplus_test_acc=gplus_test_acc,
        gplus_test_loss=gplus_test_loss,
        server_score=server_score,
        wall_clock_seconds=time.perf_counter() - start,
        dropped_devices=dropped,
        errors=errors,
    )
    return replace(state, device_thetas=new_thetas, theta_bar=theta_bar), record


def _metric_summary(values: list[float]) -> dict:
    return {"avg": float(np.mean(values)), "final": float(values[-1]),
            "max": float(np.max(values))}


def summarize(records: list[RoundRecord]) -> dict:
    metrics = {
        "pred_val_acc": [r.pred_val_acc for r in records],
        "pred_test_acc": [r.pred_test_acc for r in records],
        "gplus_val_acc": [r.gplus_val_acc for r in records],
        "gplus_test_acc": [r.gplus_test_acc for r in records],
        "avg_device_train_acc": [float(np.mean(r.device_train_acc)) for r in records],
        "avg_device_test_acc": [float(np.mean(r.device_test_acc)) for r in records],
        "server_score": [r.server_score for r in records],
        "wall_clock_seconds": [r.wall_clock_seconds for r in records],
    }
    summary = {name: _metric_summary(vals) for name, vals in metrics.items()}

    def top_device(kind: str) -> str:
        best = (-1.0, 0, 0)
        for r in records:
            accs = r.device_train_acc if kind == "train" else r.device_test_acc
            for d, acc in enumerate(accs):
                if acc > best[0]:
                    best = (acc, r.round_index, d)
        return f"R{best[1]}-D{best[2]} ({best[0]:.2f})"

    summary["top_device_train"] = top_device("train")
    summary["top_device_test"] = top_device("test")
    return summary


def run_experiment(
    plan: ExperimentPlan,
    dataset: Dataset,
    round_callback=None,
    state: FedState | None = None,
    start_round: int = 0,
) -> tuple[list[RoundRecord], dict, FedState]:
    """Run (or resume) all rounds; invokes round_callback(state, record) after each."""
    if state is None:
        state = init_state(plan, dataset)
    records: list[RoundRecord] = []
    for t in range(start_round, plan.rounds):
        state, record = run_round(state, plan, t)
        records.append(record)
        if round_callback is not None:
            round_callback(state, record)
    return records, summarize(records), state
