"""Tests for solver steps, step-size policies, and the run harness."""

import numpy as np
import pytest

from bregopt import (
    DiagonalQuadratic,
    Euclidean,
    LogBarrier,
    PoissonKL,
    RunFailure,
    SagaState,
    SolverConfig,
    SvrgState,
    adaptive_check,
    bsaga_step,
    gain_bound,
    gen_gaussian_logistic_data,
    gen_interpolation,
    gen_preconditioned,
    mirror_step,
    mu_step,
    run,
    saga_gradient,
    sigma2_estimate,
    solve_reference,
    step_policy,
    svrg_gradient,
)
from bregopt.metrics import TRACE_COLUMNS
from bregopt.rng import make_rng


def small_quadratic(seed=0, n=8, d=3):
    rng = make_rng(seed)
    Q = rng.uniform(0.5, 2.0, size=(n, d))
    C = rng.normal(size=(n, d))
    return DiagonalQuadratic(Q, C)


class TestEstimators:
    def test_saga_estimate_unbiased_by_enumeration(self):
        obj = small_quadratic()
        rng = make_rng(1)
        state = SagaState.init(rng.normal(size=3), obj)
        state.x = rng.normal(size=3)
        n = obj.n_components
        mean_est = np.mean(
            [saga_gradient(state, obj, i)[1] for i in range(n)], axis=0
        )
        np.testing.assert_allclose(mean_est, obj.full_grad(state.x), atol=1e-10)

    def test_svrg_estimate_unbiased_by_enumeration(self):
        obj = small_quadratic()
        rng = make_rng(2)
        state = SvrgState.init(rng.normal(size=3), obj)
        state.x = rng.normal(size=3)
        n = obj.n_components
        mean_est = np.mean([svrg_gradient(state, obj, i) for i in range(n)], axis=0)
        np.testing.assert_allclose(mean_est, obj.full_grad(state.x), atol=1e-10)

    def test_saga_step_updates_single_slot(self):
        obj = small_quadratic()
        rng = make_rng(3)
        state = SagaState.init(rng.normal(size=3), obj)
        state.x = state.x + rng.normal(size=3)
        before = state.table.copy()
        bsaga_step(state, obj, Euclidean(), 0.01, rng, index=4)
        changed = [
            j for j in range(obj.n_components)
            if not np.array_equal(state.table[j], before[j])
        ]
        assert changed == [4]

    def test_saga_table_mean_invariant(self):
        obj = small_quadratic()
        rng = make_rng(4)
        state = SagaState.init(rng.normal(size=3), obj)
        for _ in range(40):
            bsaga_step(state, obj, Euclidean(), 0.02, rng)
        np.testing.assert_allclose(
            state.table_mean, np.mean(state.table, axis=0), atol=1e-9
        )


class TestStepPolicy:
    def test_constant_returns_eta(self):
        config = SolverConfig(method="bsgd", eta=0.25, policy="constant")
        assert step_policy(config) == 0.25

    def test_default_rule_uses_l_rel(self):
        config = SolverConfig(method="bsgd", policy="constant", step_multiplier=1.0)
        assert step_policy(config, l_rel=4.0) == pytest.approx(1.0 / 8.0)

    def test_gain_adaptive_rule(self):
        config = SolverConfig(method="bsaga", policy="gain_adaptive",
                              step_multiplier=1.0)
        assert step_policy(config, l_rel=2.0, gain=1.0) == pytest.approx(1.0 / 16.0)

    def test_gain_bound_with_zero_coupling(self):
        # M = 0 makes the affine term collapse to 1
        obj = small_quadratic()
        rng = make_rng(5)
        state = SagaState.init(rng.normal(size=3), obj, store_anchors=True)
        constants = {"mu_h": 1.0, "L_h": 1.0, "M": 0.0, "L_rel": 2.0, "mu_rel": 0.5}
        assert gain_bound(state, constants, obj.n_components) == pytest.approx(1.0)

    def test_gain_bound_is_nonincreasing(self):
        obj = small_quadratic()
        rng = make_rng(6)
        state = SagaState.init(rng.normal(size=3), obj, store_anchors=True)
        constants = {"mu_h": 1.0, "L_h": 1.0, "M": 0.5, "L_rel": 2.0, "mu_rel": 0.5}
        values = []
        for _ in range(20):
            bsaga_step(state, obj, Euclidean(), 0.02, rng)
            values.append(gain_bound(state, constants, obj.n_components))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestMultiplicativeUpdates:
    def test_scalar_step(self):
        out = mu_step(np.array([2.0]), np.array([[1.0]]), np.array([1.0]))
        np.testing.assert_allclose(out, [1.0])

    def test_identity_reaches_b_in_one_step(self):
        b = np.array([0.5, 2.0, 3.0])
        out = mu_step(np.array([1.0, 1.0, 1.0]), np.eye(3), b)
        np.testing.assert_allclose(out, b)

    def test_zero_coordinate_stays_zero(self):
        A = np.array([[1.0, 1.0], [2.0, 1.0]])
        out = mu_step(np.array([0.0, 1.0]), A, np.array([1.0, 1.0]))
        assert out[0] == 0.0


class TestAdaptiveCheck:
    def test_small_step_passes(self):
        obj = small_quadratic()
        rng = make_rng(7)
        state = SvrgState.init(rng.normal(size=3), obj)
        xs = obj.minimizer()
        f_star = obj.value(xs)
        assert adaptive_check(state, obj, Euclidean(), 1e-6, f_star) is True

    def test_huge_step_fails(self):
        obj = small_quadratic()
        rng = make_rng(8)
        state = SvrgState.init(rng.normal(size=3), obj)
        xs = obj.minimizer()
        f_star = obj.value(xs)
        assert adaptive_check(state, obj, Euclidean(), 1e6, f_star) is False


class TestSigma2:
    def test_interpolation_has_zero_variance(self):
        problem = gen_interpolation(30, 5, seed=0)
        est, err = sigma2_estimate(
            problem.objective, problem.reference, problem.x_star, problem.x_star, 0.01
        )
        assert est == pytest.approx(0.0, abs=1e-16)
        assert err == 0.0

    def test_euclidean_estimate_is_eta_independent(self):
        obj = small_quadratic()
        rng = make_rng(9)
        x = rng.normal(size=3)
        xs = obj.minimizer()
        a, _ = sigma2_estimate(obj, Euclidean(), x, xs, 0.01)
        b, _ = sigma2_estimate(obj, Euclidean(), x, xs, 0.37)
        assert a == pytest.approx(b, rel=1e-12)


class TestRunHarness:
    def problem(self):
        return gen_interpolation(20, 5, seed=0)

    def test_zero_budget_records_initial_state(self):
        problem = self.problem()
        trace = run(SolverConfig(method="bsgd", eta=0.01, epochs=0.0), problem)
        assert len(trace) == 1
        assert trace.final.iter == 0

    def test_deterministic_given_seed(self):
        problem = self.problem()
        config = SolverConfig(method="bsgd", eta=0.01, epochs=2.0, seed=5)
        a = run(config, problem).to_csv_string()
        b = run(SolverConfig(method="bsgd", eta=0.01, epochs=2.0, seed=5),
                problem).to_csv_string()
        strip = lambda s: [line.rsplit(",", 1)[0] for line in s.splitlines()]
        assert strip(a) == strip(b)

    def test_seed_changes_trajectory(self):
        problem = self.problem()
        a = run(SolverConfig(method="bsgd", eta=0.01, epochs=2.0, seed=1), problem)
        b = run(SolverConfig(method="bsgd", eta=0.01, epochs=2.0, seed=2), problem)
        assert a.final.dh_gap != b.final.dh_gap

    def test_trace_columns(self):
        assert TRACE_COLUMNS == (
            "iter", "epoch", "grad_evals", "comms", "f_gap", "dh_gap",
            "min_df_gap", "eta", "gain", "halvings", "wall_s",
        )

    def test_bgd_and_mu_count_full_epochs(self):
        problem = self.problem()
        trace = run(SolverConfig(method="bgd", eta=0.01, epochs=3.0), problem)
        assert trace.final.iter == 3
        assert trace.final.epoch == pytest.approx(3.0)
        assert trace.final.grad_evals == 3 * problem.objective.n_components

    def test_all_methods_descend(self):
        problem = self.problem()
        eta = 1.0 / (2.0 * problem.meta["L_rel"])
        for method in ("bsgd", "bsaga", "bsvrg", "bgd", "mu"):
            trace = run(SolverConfig(method=method, eta=eta, epochs=5.0, seed=0),
                        problem)
            assert trace.final.f_gap < trace[0].f_gap

    def test_run_failure_carries_partial_trace(self):
        problem = self.problem()
        config = SolverConfig(method="bsgd", eta=1e8, epochs=2.0, max_halvings=0)
        with pytest.raises(RunFailure) as info:
            run(config, problem)
        assert len(info.value.trace) >= 1

    def test_halving_safeguard_recovers(self):
        problem = self.problem()
        config = SolverConfig(method="bsgd", eta=10.0, epochs=2.0, seed=0,
                              max_halvings=60)
        trace = run(config, problem)
        assert trace.final.halvings > 0
        assert np.isfinite(trace.final.f_gap)

    def test_mu_matches_manual_iteration(self):
        problem = self.problem()
        obj = problem.objective
        trace = run(SolverConfig(method="mu", epochs=4.0), problem)
        x = np.asarray(problem.x0, dtype=float)
        for _ in range(4):
            x = mu_step(x, obj.A, obj.b)
        assert trace.final.f_gap == pytest.approx(obj.value(x) - problem.f_star,
                                                  abs=1e-12)


class TestRecordColumns:
    """Trace columns equal the quantities recomputed from replayed iterates."""

    def replay_and_compare(self, problem, eta, steps):
        obj, ref = problem.objective, problem.reference
        x_star, f_star = problem.x_star, problem.f_star
        trace = run(SolverConfig(method="bgd", eta=eta, epochs=float(steps),
                                 record_every=1), problem)
        assert len(trace) == steps + 1
        assert np.all(trace.column("halvings") == 0)
        x = np.asarray(problem.x0, dtype=float).copy()
        min_df = np.inf
        for k, rec in enumerate(trace.records):
            if k:
                x = mirror_step(ref, x, obj.full_grad(x), eta)
            min_df = min(min_df, obj.f_divergence(x_star, x))
            assert rec.iter == k
            if f_star is None:
                assert np.isnan(rec.f_gap)
            else:
                assert rec.f_gap == float(obj.value(x) - f_star)
            assert rec.dh_gap == float(ref.divergence(x_star, x))
            assert rec.min_df_gap == float(min_df)

    def test_preconditioned_logistic(self):
        data = gen_gaussian_logistic_data(120, 5, seed=3)
        problem = gen_preconditioned(data, n_nodes=4, N=30, n_prec=20,
                                     lam=1e-3, c_prec=1e-3, seed=3)
        solve_reference(problem)
        self.replay_and_compare(problem, eta=0.5, steps=6)

    @pytest.mark.parametrize("keep_f_star", [True, False])
    def test_poisson_interpolation(self, keep_f_star):
        # without f_star the f_gap column is NaN, but D_f(x*, x) is still
        # recorded from the evaluated f(x*)
        problem = gen_interpolation(30, 4, seed=5)
        if not keep_f_star:
            problem.f_star = None
        eta = 1.0 / (2.0 * problem.meta["L_rel"])
        self.replay_and_compare(problem, eta=eta, steps=8)
