import re

import numpy as np
import pytest

from qflsim import data, fed, qkd, vqc
from qflsim.condense import CondenseSpec
from qflsim.data import SplitPlan
from qflsim.dp import NoiseMechanism
from qflsim.modelshare import PruneSpec
from qflsim.optimizers import AqgdSettings, DpSettings

FAST_AQGD = AqgdSettings(maxiter=2, eta=0.3, momentum=0.25)


@pytest.fixture(scope="module")
def iris_angles():
    return data.scale_to_angles(data.load_iris())


def make_plan(**kwargs):
    defaults = dict(
        rounds=2,
        device_count=2,
        split=SplitPlan(device_count=2, samples_per_device=30,
                        server_val_size=20, server_test_size=20, seed=0),
        vqc_config=vqc.VqcConfig(4, 3, ansatz_reps=1),
        aqgd=FAST_AQGD,
        seed=0,
    )
    defaults.update(kwargs)
    return fed.ExperimentPlan(**defaults)


def test_plan_validation():
    with pytest.raises(ValueError):
        make_plan(rounds=0)
    with pytest.raises(ValueError):
        make_plan(svd_qkd=True, qkd_only=True)
    with pytest.raises(ValueError):
        make_plan(optimizer="adam")
    with pytest.raises(ValueError, match="dp_optimizer"):
        make_plan(optimizer="spsa", dp_optimizer=DpSettings(epsilon=1.0, delta=1e-5))
    with pytest.raises(ValueError, match="spsa_maxiter"):
        make_plan(optimizer="spsa", spsa_maxiter=0)


def test_init_state_reproducible(iris_angles):
    plan = make_plan()
    a = fed.init_state(plan, iris_angles)
    b = fed.init_state(plan, iris_angles)
    for ta, tb in zip(a.device_thetas, b.device_thetas):
        np.testing.assert_array_equal(ta, tb)
    assert np.all(np.abs(a.device_thetas[0]) <= np.pi)
    # different devices draw from different streams
    assert not np.array_equal(a.device_thetas[0], a.device_thetas[1])


def test_single_device_average_is_identity(iris_angles):
    plan = make_plan(device_count=1,
                     split=SplitPlan(1, 30, 20, 20, seed=0))
    state = fed.init_state(plan, iris_angles)
    new_state, record = fed.run_round(state, plan, 0)
    np.testing.assert_array_equal(new_state.theta_bar, new_state.device_thetas[0])
    assert record.dropped_devices == []


def test_infinite_tau_prunes_everything(iris_angles):
    plan = make_plan(pruning=PruneSpec(tau=np.inf))
    state = fed.init_state(plan, iris_angles)
    new_state, _ = fed.run_round(state, plan, 0)
    np.testing.assert_array_equal(new_state.theta_bar, np.zeros(8))


def test_round_records_are_deterministic(iris_angles):
    plan = make_plan()
    rec_a, sum_a, _ = fed.run_experiment(plan, iris_angles)
    rec_b, sum_b, _ = fed.run_experiment(plan, iris_angles)
    for a, b in zip(rec_a, rec_b):
        assert a.device_train_acc == b.device_train_acc
        assert a.pred_test_acc == b.pred_test_acc
        assert a.gplus_test_loss == b.gplus_test_loss
    for key in sum_a:
        if key.startswith("top_device"):
            assert sum_a[key] == sum_b[key]
        elif key != "wall_clock_seconds":
            assert sum_a[key] == sum_b[key]


def test_resume_matches_straight_run(iris_angles):
    plan = make_plan(rounds=3)
    full_records, _, _ = fed.run_experiment(plan, iris_angles)

    # run the first two rounds, then resume the third from the carried state
    _, _, mid_state = fed.run_experiment(make_plan(rounds=2), iris_angles)
    resumed, _, _ = fed.run_experiment(plan, iris_angles, state=mid_state, start_round=2)
    assert len(resumed) == 1
    assert resumed[0].round_index == 2
    assert resumed[0].pred_test_acc == full_records[2].pred_test_acc
    np.testing.assert_array_equal(
        resumed[0].device_train_acc, full_records[2].device_train_acc)


def test_svd_qkd_path_truncates_update(iris_angles):
    # 16 parameters reshape to 4x4 (rank 4), so rank-2 truncation is lossy
    plan = make_plan(svd_qkd=True, vqc_config=vqc.VqcConfig(4, 3, ansatz_reps=3))
    state = fed.init_state(plan, iris_angles)
    new_state, record = fed.run_round(state, plan, 0)
    assert record.dropped_devices == []
    # the aggregate comes from rank-2 reconstructions, not the raw thetas
    raw_avg = np.mean(np.stack(new_state.device_thetas), axis=0)
    assert not np.allclose(new_state.theta_bar, raw_avg)


def test_qkd_only_path_is_lossless(iris_angles):
    plain = make_plan()
    encrypted = make_plan(qkd_only=True)
    _, rec_plain = fed.run_round(fed.init_state(plain, iris_angles), plain, 0)
    state_enc, rec_enc = fed.run_round(fed.init_state(encrypted, iris_angles), encrypted, 0)
    # OTP round-trip is exact, so metrics match the plain run bitwise
    assert rec_enc.pred_test_acc == rec_plain.pred_test_acc
    assert rec_enc.pred_val_loss == rec_plain.pred_val_loss


def test_param_noise_changes_aggregate(iris_angles):
    plain = make_plan()
    noisy = make_plan(param_noise=NoiseMechanism("laplace", epsilon=1.0, sensitivity=1.0))
    state_p, _ = fed.run_round(fed.init_state(plain, iris_angles), plain, 0)
    state_n, _ = fed.run_round(fed.init_state(noisy, iris_angles), noisy, 0)
    # local thetas are identical; only the shared updates differ
    np.testing.assert_array_equal(state_p.device_thetas[0], state_n.device_thetas[0])
    assert not np.allclose(state_p.theta_bar, state_n.theta_bar)


def test_qkd_abort_drops_device(iris_angles, monkeypatch):
    plan = make_plan(qkd_only=True)
    state = fed.init_state(plan, iris_angles)
    real_exchange = qkd.bb84_exchange
    calls = {"n": 0}

    def flaky(required_bits, rng, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise qkd.KeyCompromisedError("QBER 0.25 exceeds threshold")
        return real_exchange(required_bits, rng, **kwargs)

    monkeypatch.setattr(fed.qkd, "bb84_exchange", flaky)
    new_state, record = fed.run_round(state, plan, 0)
    assert record.dropped_devices == [0]
    assert any("device 0" in e for e in record.errors)
    # the average uses only the surviving device
    np.testing.assert_array_equal(new_state.theta_bar, new_state.device_thetas[1])


def test_eavesdropped_exchange_drops_device(iris_angles, monkeypatch):
    # the real BB84 exchange, with an intercept-resend eavesdropper on every key
    plan = make_plan(qkd_only=True)
    state = fed.init_state(plan, iris_angles)
    real_exchange = qkd.bb84_exchange

    def tapped(required_bits, rng, **kwargs):
        return real_exchange(required_bits, rng, eavesdrop=True, **kwargs)

    monkeypatch.setattr(fed.qkd, "bb84_exchange", tapped)
    _, record = fed.run_round(state, plan, 0)
    assert record.dropped_devices == [0, 1]
    assert all(re.search(r"device \d: QBER \S+ exceeds", e) for e in record.errors[:2])


def test_each_dataset_is_encoded_once(iris_angles, monkeypatch):
    plan = make_plan(rounds=2)
    real_encode = vqc.encode_features
    calls = {"n": 0}

    def counting(X, config):
        calls["n"] += 1
        return real_encode(X, config)

    monkeypatch.setattr(vqc, "encode_features", counting)
    fed.run_experiment(plan, iris_angles)
    assert calls["n"] == 2 * plan.device_count + 2


def test_spsa_round_pools_its_kernel_runs(iris_angles, monkeypatch):
    # 4 qubits: per device one run per SPSA step (both points); then one run for
    # every device's train and test score with the averaged model's val and
    # test score, one for the fine-tune step and one for the G+ scores
    plan = make_plan(device_count=5, optimizer="spsa", spsa_maxiter=2,
                     split=SplitPlan(device_count=5, samples_per_device=20,
                                     server_val_size=20, server_test_size=20, seed=0))
    state = fed.init_state(plan, iris_angles)
    real = vqc.apply_ansatz_batch
    calls = []

    def counting(amps, theta, config):
        calls.append(len(amps))
        return real(amps, theta, config)

    monkeypatch.setattr(vqc, "apply_ansatz_batch", counting)
    fed.run_round(state, plan, 0)
    assert len(calls) == 5 * 2 + 3
    assert calls[10] == 5 * 20 + 2 * 20  # the pooled scoring run holds every row


def test_all_devices_dropped_keeps_previous_global(iris_angles, monkeypatch):
    plan = make_plan(qkd_only=True)
    state = fed.init_state(plan, iris_angles)

    def always_abort(required_bits, rng, **kwargs):
        raise qkd.KeyCompromisedError("QBER 0.25 exceeds threshold")

    monkeypatch.setattr(fed.qkd, "bb84_exchange", always_abort)
    new_state, record = fed.run_round(state, plan, 0)
    assert record.dropped_devices == [0, 1]
    assert any("all device updates dropped" in e for e in record.errors)


def test_condensation_shrinks_device_training_sets(iris_angles):
    plan = make_plan(condensation=CondenseSpec(images_per_class=2, steps=5))
    state = fed.init_state(plan, iris_angles)
    for dev in state.devices:
        assert len(dev.train) <= 6  # at most 2 rows per class
        assert dev.train.features.max() < 2 * np.pi
        assert dev.train.features.min() >= 0.0


def test_summary_structure(iris_angles):
    plan = make_plan()
    records, summary, _ = fed.run_experiment(plan, iris_angles)
    assert len(records) == 2
    for key in ("pred_test_acc", "gplus_test_acc", "avg_device_train_acc",
                "server_score", "wall_clock_seconds"):
        assert set(summary[key]) == {"avg", "final", "max"}
    assert summary["top_device_train"].startswith("R")
    assert summary["server_score"]["final"] == records[-1].server_score
