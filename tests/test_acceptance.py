"""Acceptance battery, one test per criterion.

The criteria share a Battery instance so that the determinism criterion can
replay every solver run registered by the earlier criteria. Each criterion
runs through ``Battery.criterion``, as ``bregopt verify`` runs it, so its
``c{k}/runtime_s`` bound is checked too. Each test prints the individual
check lines before asserting, so a failing criterion shows exactly which
quantity missed its tolerance and by how much.

Each check's measured value, except the ``*/runtime_s`` timings, is also
pinned by ``float.hex`` in PINNED: a change that moves a value, even within
its tolerance, fails here, and one that moves it on purpose updates the pin.
"""

import numpy as np
import pytest

from bregopt import PoissonKL, verify
from bregopt.verify import Battery


@pytest.fixture(scope="module")
def battery():
    return Battery()


PINNED = {
    "euclidean/duality": "0x0.0p+0",
    "euclidean/midpoint": "0x0.0p+0",
    "euclidean/cocoercivity": "0x0.0p+0",
    "euclidean/descent_identity": "0x1.956b6ebd54bc7p-50",
    "euclidean/variance_decomposition": "0x1.0000000000000p-48",
    "log_barrier/duality": "0x1.efbf219bad8aep-51",
    "log_barrier/midpoint": "0x0.0p+0",
    "log_barrier/cocoercivity": "0x0.0p+0",
    "log_barrier/descent_identity": "0x1.182ab78085786p-51",
    "log_barrier/variance_decomposition": "0x1.8000000000000p-49",
    "neg_entropy/duality": "0x1.085c9cb895293p-49",
    "neg_entropy/midpoint": "0x0.0p+0",
    "neg_entropy/cocoercivity": "0x0.0p+0",
    "neg_entropy/descent_identity": "0x1.57831f08f8988p-50",
    "neg_entropy/variance_decomposition": "0x1.0000000000000p-47",
    "c2/dh_ratio": "0x1.8a15e0a536cf5p-34",
    "c2/tail_rate": "0x1.ffd743f88b298p-1",
    "c3/plateaus_detected": "0x0.0p+0",
    "c3/level_ratio": "-0x1.d4671ecadbebcp-2",
    "c4/saga_rate": "0x1.e9279f42d47a9p-1",
    "c4/saga_final_dh": "0x1.4f4c800000000p-102",
    "c4/bsgd_plateau": "0x0.0p+0",
    "c4/separation": "-0x1.aff9b4971cfe2p+98",
    "c5/saga_contraction": "0x1.ce9425bf38260p-54",
    "c5/svrg_contraction": "0x1.017a59ec0845dp-55",
    "c6/thresholds_reached": "0x0.0p+0",
    "c6/epoch_ratio": "0x1.999999999999ap-3",
    "c6/mu_parity": "0x1.96e287f7f51c3p-6",
    "c7/comms_advantage": "-0x1.8000000000000p+3",
    "c7/bsgd_early_match": "0x1.6db6db6db6db7p-1",
    "c7/bsgd_plateau_above": "-0x1.72a58a7c0d400p-9",
    "c8/hessian_ordering": "-0x1.164a97c87325fp-2",
    "c8/dense_bound": "0x0.0p+0",
    "c8/strict_improvement": "-0x1.4000000000000p+3",
    "c9/monotone": "-0x1.10b0e60000000p-29",
    "c9/fixed_point": "0x0.0p+0",
    "c10/byte_identical": "0x0.0p+0",
}


def assert_all_pass(checks):
    for check in checks:
        print(check.line())
    failing = [c.name for c in checks if not c.passed]
    assert not failing, f"failed checks: {failing}"
    values = {c.name: float(c.max_violation).hex() for c in checks
              if not c.name.endswith("/runtime_s")}
    assert values == {name: PINNED.get(name) for name in values}


class TestAcceptance:
    def test_criterion_1_lemma_certification(self, battery):
        assert_all_pass(battery.criterion(1))

    def test_criterion_2_interpolation_linear_rate(self, battery):
        assert_all_pass(battery.criterion(2))

    def test_criterion_3_plateau_scales_with_step(self, battery):
        checks = battery.criterion(3)
        assert_all_pass(checks)
        # each verdict prints the tail rates or the levels it rests on
        assert [c.note for c in checks[:2]] == [
            "tail rates full=0.9999984 half=0.999998, plateau when |rate-1|<=0.001",
            "levels full=0.07107 half=0.03631 ratio=1.957 band=[1.5, 3]",
        ]

    def test_criterion_4_saga_beats_sgd_plateau(self, battery):
        checks = battery.criterion(4)
        assert_all_pass(checks)
        assert [c.note for c in checks[1:4]] == [
            "bsaga final iter=1600 epochs=50 eta=0.06286",
            "bsgd tail rate=0.9997755, plateau when |rate-1|<=0.001",
            "bsgd plateau level=0.1381 bsaga final dh_gap=2.583e-31",
        ]

    def test_criterion_5_potential_contraction(self, battery):
        assert_all_pass(battery.criterion(5))

    def test_criterion_6_tomography_epoch_budget(self, battery):
        checks = battery.criterion(6)
        assert_all_pass(checks)
        # the worst epoch ratio is BSAGA's record spacing: it meets BGD's
        # first-epoch gap at its first record
        assert [c.note for c in checks[:3]] == [
            "bgd epochs whose f_gap bsaga never reaches: none",
            "bsaga records every 12/60 epochs; worst at bgd epoch 1, f_gap<=675.2",
            "f_saga=19.53539 f_mu=20.03289",
        ]

    def test_criterion_7_distributed_comm_budget(self, battery):
        checks = battery.criterion(7)
        assert_all_pass(checks)
        # each verdict prints the first hits and levels it compares
        assert [c.note for c in checks[:3]] == [
            "comms to f_gap<=1e-5: bsaga=107 bgd=120",
            "comms to f_gap<=1e-2: bsgd=25 bsaga=35",
            "bsaga final f_gap=0 bsgd tail level=0.002828",
        ]

    def test_criterion_8_sparse_smoothness_constant(self, battery):
        checks = battery.criterion(8)
        assert_all_pass(checks)
        # each verdict prints the worst instance or the counts it rests on
        assert [c.note for c in checks[:3]] == [
            "worst at instance 79 point 2, l_sparse=0.3511784",
            "l_sparse above l_dense in 0 of 100",
            "improved 100 of 100, at least 90 needed",
        ]

    def test_criterion_9_multiplicative_updates(self, battery):
        checks = battery.criterion(9)
        assert_all_pass(checks)
        assert [c.note for c in checks[:2]] == [
            "worst increase at iteration 1000",
            "x* preserved bit for bit",
        ]

    def test_criterion_10_trace_determinism(self, battery):
        assert_all_pass(battery.criterion(10))


def test_criterion_10_names_each_run_whose_replay_differs():
    battery = Battery()
    battery.criterion(4)  # registers c4_bsaga, then c4_bsgd
    name, config, problem, csv = battery._registry[1]
    battery._registry[1] = (name, config, problem, csv[:-1])  # drop one digit
    (check,) = battery.criterion(10)
    assert not check.passed
    assert check.line().endswith("[replay differs: c4_bsgd] FAIL")


def test_criterion_9_prints_how_far_x_star_moves(monkeypatch):
    mu_step = PoissonKL.mu_step
    monkeypatch.setattr(PoissonKL, "mu_step", lambda self, x: mu_step(self, x) + 2.0**-20)
    checks = Battery().criterion(9)
    assert checks[0].passed
    assert not checks[1].passed
    assert checks[1].note == "max |x+ - x*|=9.537e-07"


def test_criterion_6_names_the_bgd_epochs_bsaga_never_reaches(monkeypatch):
    first_hit = verify._first_hit
    monkeypatch.setattr(verify, "_first_hit", lambda trace, column, threshold:
                        np.inf if threshold < 150.0 else first_hit(trace, column, threshold))
    # BGD's gap falls below 150 at epoch 30
    check = Battery().criterion(6)[0]
    assert check.max_violation == 21.0
    assert check.note == ("bgd epochs whose f_gap bsaga never reaches: "
                          + ", ".join(map(str, range(30, 51))))
