"""Tests for solver steps, step-size policies, and the run harness."""

import dataclasses
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bregopt import (
    BregoptError,
    DiagonalQuadratic,
    DomainViolation,
    Euclidean,
    InvalidConstants,
    InvalidData,
    LogBarrier,
    LogisticL2,
    NegEntropy,
    PoissonKL,
    Preconditioner,
    ProblemInstance,
    RunFailure,
    SagaState,
    SolverConfig,
    StepFailure,
    StepOutOfDomain,
    SvrgState,
    bsaga_step,
    bsvrg_step,
    gain_bound,
    gen_gaussian_logistic_data,
    gen_interpolation,
    gen_preconditioned,
    load_instance,
    mirror,
    run,
    saga_gradient,
    save_instance,
    sigma2_estimate,
    solve_reference,
    solver,
    step_policy,
    svrg_gradient,
)
from bregopt.metrics import TRACE_COLUMNS
from bregopt.mirror import PreconditionedRun
from bregopt.rng import make_rng
from bregopt.solver import saga_successor_potentials, svrg_successor_potentials
from oracles import mirror_step


GAIN_CONSTANTS = {"mu_h": 1.0, "L_h": 2.0, "M": 1e-3, "L_rel": 3.0, "mu_rel": 0.1}


def euclidean_step(eta):
    return lambda x, g: mirror_step(Euclidean(), x, g, eta)


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
        bsaga_step(state, obj, 4, euclidean_step(0.01))
        changed = [
            j for j in range(obj.n_components)
            if not np.array_equal(state.table[j], before[j])
        ]
        assert changed == [4]

    @pytest.mark.parametrize("refresh", [True, False])
    def test_svrg_step_moves_anchor_on_refresh(self, refresh):
        obj = small_quadratic()
        rng = make_rng(10)
        state = SvrgState.init(rng.normal(size=3), obj)
        state.x = state.x + rng.normal(size=3)
        x_prev, anchor, anchor_grad = state.x, state.anchor, state.anchor_grad
        g = svrg_gradient(state, obj, 5)
        bsvrg_step(state, obj, 5, euclidean_step(0.01), refresh)
        np.testing.assert_array_equal(state.x, mirror_step(Euclidean(), x_prev, g, 0.01))
        if refresh:
            np.testing.assert_array_equal(state.anchor, x_prev)
            assert state.anchor is not x_prev
            np.testing.assert_array_equal(state.anchor_grad, obj.full_grad(x_prev))
        else:
            assert state.anchor is anchor and state.anchor_grad is anchor_grad

    def test_saga_table_mean_invariant(self):
        obj = small_quadratic()
        rng = make_rng(4)
        state = SagaState.init(rng.normal(size=3), obj)
        for _ in range(40):
            bsaga_step(state, obj, int(rng.integers(8)), euclidean_step(0.02))
        np.testing.assert_allclose(
            state.table_mean, np.mean(state.table, axis=0), atol=1e-9
        )


@pytest.mark.parametrize("family", ["quadratic", "poisson"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_index_array_rows_match_1d_calls_bytewise(family, data):
    # DiagonalQuadratic evaluates index arrays in whole-array passes,
    # PoissonKL through the generic one-index-at-a-time route
    n, d = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))
    rows = data.draw(st.integers(1, 8))
    positive = st.floats(0.1, 3.0)
    weights = data.draw(arrays(np.float64, (n, d), elements=positive))
    if family == "quadratic":
        obj = DiagonalQuadratic(weights, data.draw(arrays(np.float64, (n, d),
                                                          elements=st.floats(-3.0, 3.0))))
        point = st.floats(-5.0, 5.0)
    else:
        obj = PoissonKL(weights, data.draw(arrays(np.float64, n, elements=st.floats(0.0, 5.0))),
                        barrier_weight=data.draw(st.sampled_from([0.0, 0.3])))
        point = positive
    X, Y = data.draw(arrays(np.float64, (2, rows, d), elements=point))
    x, y = X[0], Y[0]
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows)))
    saga = SagaState.init(y, obj)
    saga.x = x
    svrg = SvrgState.init(y, obj)
    svrg.x = x
    calls = [
        (obj.partial_grad, (X,)), (obj.partial_grad, (x,)),
        (obj.value_component, (X,)), (obj.value_component, (x,)),
        (obj.component_divergence, (X, y)), (obj.component_divergence, (x, Y)),
        (obj.component_divergence, (X, Y)),
        (lambda i: saga_gradient(saga, obj, i)[0], ()),
        (lambda i: saga_gradient(saga, obj, i)[1], ()),
        (lambda i: svrg_gradient(svrg, obj, i), ()),
    ]
    with np.errstate(all="ignore"):  # a subnormal count can give log(0)
        for method, points in calls:
            stacked = method(idx, *points)
            assert len(stacked) == rows
            for k, i in enumerate(idx.tolist()):
                row = method(i, *(p if p.ndim == 1 else p[k] for p in points))
                assert stacked[k].tobytes() == np.asarray(row).tobytes()


class TestStepPolicy:
    def test_constant_returns_eta(self):
        config = SolverConfig(method="bsgd", eta=0.25, gain_constants=None)
        assert step_policy(config, None, 1.0) == 0.25

    def test_default_rule_uses_l_rel(self):
        config = SolverConfig(method="bsgd", gain_constants=None, step_multiplier=1.0)
        assert step_policy(config, 4.0, 1.0) == pytest.approx(1.0 / 8.0)

    def test_gain_adaptive_rule(self):
        config = SolverConfig(method="bsaga", gain_constants=GAIN_CONSTANTS,
                              step_multiplier=1.0)
        assert step_policy(config, 2.0, 1.0) == pytest.approx(1.0 / 16.0)

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
            bsaga_step(state, obj, int(rng.integers(8)), euclidean_step(0.02))
            values.append(gain_bound(state, constants, obj.n_components))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestMultiplicativeUpdates:
    def test_scalar_step(self):
        out = PoissonKL(np.array([[1.0]]), np.array([1.0])).mu_step(np.array([2.0]))
        np.testing.assert_allclose(out, [1.0])

    def test_identity_reaches_b_in_one_step(self):
        b = np.array([0.5, 2.0, 3.0])
        out = PoissonKL(np.eye(3), b).mu_step(np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out, b)

    def test_zero_coordinate_stays_zero(self):
        A = np.array([[1.0, 1.0], [2.0, 1.0]])
        out = PoissonKL(A, np.array([1.0, 1.0])).mu_step(np.array([0.0, 1.0]))
        assert out[0] == 0.0

    def test_zero_rate_at_observed_row_rejected(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainViolation, match="observed row") as info:
            PoissonKL(A, np.array([0.0, 1.0])).mu_step(np.array([1.0, 0.0]))
        assert info.value.index == 1

    def test_barrier_weight_rejected(self):
        # the barrier check comes before the sign check
        obj = PoissonKL(np.eye(2), np.ones(2), barrier_weight=0.1)
        for x in (np.ones(2), -np.ones(2)):
            with pytest.raises(InvalidData, match="barrier_weight"):
                obj.mu_step(x)

    def test_run_refuses_a_barrier_objective_before_any_product(self, monkeypatch):
        A = make_rng(11).uniform(0.1, 1.0, size=(8, 3))
        obj = PoissonKL(A, A @ np.ones(3), barrier_weight=0.5)
        x_star = np.ones(3)
        problem = ProblemInstance(objective=obj, reference=LogBarrier(), x0=np.full(3, 2.0),
                                  x_star=x_star, f_star=obj.value(x_star))
        rates = []
        monkeypatch.setattr(obj, "_rates", lambda *args: rates.append(args))
        with pytest.raises(InvalidData, match="barrier_weight is positive"):
            run(SolverConfig(method="mu", epochs=1.0), problem)
        assert rates == []


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

    @pytest.mark.parametrize("max_exact", [10**4, 10])
    def test_stacked_call_matches_per_component_loop(self, max_exact):
        # the reference: one 1-D dual divergence per sampled component
        problem = gen_interpolation(40, 6, seed=2)
        obj, ref, xs = problem.objective, problem.reference, problem.x_star
        x, eta, seed = xs * 1.3, 0.05, 4
        est, err = sigma2_estimate(obj, ref, x, xs, eta, max_exact=max_exact,
                                   samples=300, seed=seed)
        hx = ref.grad(x)
        idx = range(40) if max_exact > 40 else make_rng(seed).integers(0, 40, size=300)
        vals = np.array([
            ref.dual_divergence(hx - 2.0 * eta * obj.partial_grad(int(i), xs), hx)
            for i in idx
        ]) / (2.0 * eta**2)
        assert float.hex(est) == float.hex(float(np.mean(vals)))
        expected_err = 0.0 if max_exact > 40 else float(np.std(vals) / np.sqrt(len(vals)))
        assert float.hex(err) == float.hex(expected_err)

    def test_out_of_domain_shift_is_unverifiable(self):
        # below the optimum the component gradients are negative, so a large
        # step 2 eta grad f_i leaves the log-barrier's conjugate domain
        problem = gen_interpolation(30, 5, seed=0)
        x = problem.x_star
        with pytest.raises(DomainViolation, match="variance assumption unverifiable"):
            sigma2_estimate(problem.objective, problem.reference, x, 0.5 * x, 1e6)

    def test_preconditioner_reference_is_rejected(self):
        # the dual divergences of sigma2_estimate, and the stacked mirror
        # steps of the successor potentials, need a closed-form map
        data = gen_gaussian_logistic_data(40, 3, seed=3)
        problem = gen_preconditioned(data, n_nodes=2, N=10, n_prec=10,
                                     lam=1e-3, c_prec=1e-3, seed=3)
        obj, ref = problem.objective, problem.reference
        x = np.zeros(3)
        with pytest.raises(ValueError, match="closed-form conjugate"):
            sigma2_estimate(obj, ref, x, x, 0.1)
        with pytest.raises(ValueError, match="not a stack"):
            saga_successor_potentials(SagaState.init(x, obj, store_anchors=True),
                                      obj, ref, x, 0.1)
        with pytest.raises(ValueError, match="not a stack"):
            svrg_successor_potentials(SvrgState.init(x, obj), obj, ref, x, 0.1, 0.5)


@st.composite
def run_cases(draw):
    """(problem, config): a small Poisson (with or without barrier),
    logistic or quadratic objective under a closed-form map, from a start
    that may leave either domain, with a method (MU on the Poisson
    objective without barrier only) and eta from 1e-3 to 1e8."""
    family = draw(st.sampled_from(["poisson", "barrier", "logistic", "quadratic"]))
    rng = make_rng(draw(st.integers(0, 2**16)))
    if family == "logistic":
        obj = LogisticL2(rng.normal(size=(6, 3)), np.where(rng.random(6) < 0.5, -1.0, 1.0),
                         lam=0.1)
    elif family == "quadratic":
        obj = DiagonalQuadratic(rng.uniform(0.5, 2.0, size=(4, 3)),
                                rng.uniform(0.2, 2.0, size=(4, 3)))
    else:
        obj = PoissonKL(rng.uniform(0.0, 1.0, size=(6, 3)), rng.uniform(0.0, 3.0, size=6),
                        barrier_weight=0.1 if family == "barrier" else 0.0)
    x_star = rng.uniform(0.2, 2.0, size=3)
    x0 = np.array(draw(st.lists(st.floats(-0.5, 2.0), min_size=3, max_size=3)))
    ref = draw(st.sampled_from([Euclidean, LogBarrier, NegEntropy]))()
    problem = ProblemInstance(objective=obj, reference=ref, x0=x0, x_star=x_star,
                              f_star=obj.value(x_star))
    methods = ["bgd", "bsgd", "bsaga", "bsvrg"] + (["mu"] if family == "poisson" else [])
    config = SolverConfig(method=draw(st.sampled_from(methods)),
                          eta=10.0 ** draw(st.floats(-3.0, 8.0)), epochs=3.0, record_every=1)
    return problem, config


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

    def test_instance_file_without_l_rel_needs_eta(self, tmp_path):
        # no eta and no L_rel in the file leaves the step size undefined
        problem = self.problem()
        problem.meta = {}
        path = str(tmp_path / "inst.bin")
        save_instance(path, problem)
        with pytest.raises(InvalidConstants, match="no eta configured"):
            run(SolverConfig(method="bsgd"), load_instance(path))

    @pytest.mark.parametrize("l_rel", [0.0, -1.0])
    @pytest.mark.parametrize("gains", [None, GAIN_CONSTANTS])
    def test_bad_l_rel_is_invalid_constants(self, l_rel, gains):
        problem = self.problem()
        if gains is None:
            problem.meta["L_rel"] = l_rel
            config = SolverConfig(method="bsgd")
        else:
            config = SolverConfig(method="bsaga",
                                  gain_constants={**gains, "L_rel": l_rel})
        with pytest.raises(InvalidConstants, match="L_rel must be finite and positive"):
            run(config, problem)

    @pytest.mark.parametrize("method, partial, full", [
        ("bgd", 0, 2), ("bsgd", 40, 0), ("bsaga", 60, 0), ("bsvrg", 80, None),
    ])
    def test_estimate_computed_once_per_step(self, monkeypatch, method, partial, full):
        # a halving retries the mirror step alone: 40 steps (2 epochs of 20
        # components) make 1 estimate each, plus the SAGA table's n and the
        # SVRG anchor's full gradients (the objective's gradient formula
        # _grad, which every full gradient reaches through its point)
        problem = self.problem()
        problem.x_star = problem.f_star = None
        counts = {"partial_grad": 0, "_grad": 0}
        obj = problem.objective
        for name in counts:
            def counted(*args, _name=name, _original=getattr(obj, name)):
                counts[_name] += 1
                return _original(*args)
            monkeypatch.setattr(obj, name, counted)
        config = SolverConfig(method=method, eta=10.0, epochs=2.0)
        trace = run(config, problem)
        assert trace.final.halvings > 0
        assert counts["partial_grad"] == partial
        if full is None:  # one per anchor: the initial one and each refresh
            full = 1 + (trace.final.grad_evals - 20 - 40) // 20
        assert counts["_grad"] == full

    @pytest.mark.parametrize("method", ["bgd", "bsgd", "bsaga", "bsvrg", "mu"])
    def test_points_per_run(self, monkeypatch, method):
        # BSGD, BSAGA and BSVRG steps build no point, so a run builds one
        # per record (the first serves x0), and BSVRG one per anchor full
        # gradient; BGD and MU build one per iterate
        problem = self.problem()
        problem.x_star = problem.f_star = None
        obj, points = problem.objective, []
        at = obj.at
        monkeypatch.setattr(obj, "at", lambda x: points.append(x) or at(x))
        trace = run(SolverConfig(method=method, eta=0.01, epochs=2.0, record_every=3), problem)
        steps, n = trace.final.iter, obj.n_components
        want = {"bgd": steps + 1, "mu": steps + 1,
                "bsvrg": len(trace) + (trace.final.grad_evals - steps) // n}
        assert len(points) == want.get(method, len(trace))
        assert len(points) == len({id(x) for x in points})

    def test_run_failure_carries_partial_trace(self, monkeypatch):
        problem = self.problem()
        monkeypatch.setattr(solver, "MAX_HALVINGS", 0)
        config = SolverConfig(method="bsgd", eta=1e8, epochs=2.0)
        prefix = r"^iteration \d+: step failed after 0 halvings: "
        with pytest.raises(RunFailure, match=prefix) as info:
            run(config, problem)
        assert len(info.value.trace) >= 1

    def test_halving_safeguard_recovers(self):
        problem = self.problem()
        config = SolverConfig(method="bsgd", eta=10.0, epochs=2.0, seed=0)
        trace = run(config, problem)
        assert trace.final.halvings > 0
        assert np.isfinite(trace.final.f_gap)

    @pytest.mark.parametrize("center", [0.5, 2.0])
    def test_neg_entropy_float_range_halves(self, monkeypatch, center):
        # from x = 1 the full step takes exp(y - 1) below the float range
        # (center 0.5) or above it (center 2); halved steps stay inside
        obj = DiagonalQuadratic(np.ones((2, 3)), np.full((2, 3), center))
        problem = ProblemInstance(objective=obj, reference=NegEntropy(),
                                  x0=np.ones(3))
        config = SolverConfig(method="bgd", eta=1e4, epochs=1.0)
        trace = run(config, problem)
        assert trace.final.halvings == (4 if center > 1 else 3)
        assert np.all(np.isfinite(trace.x)) and np.all(trace.x > 0)
        monkeypatch.setattr(solver, "MAX_HALVINGS", 0)
        with pytest.raises(RunFailure) as info:
            run(config, problem)
        assert len(info.value.trace) == 1
        np.testing.assert_array_equal(info.value.trace.x, problem.x0)

    @pytest.mark.parametrize("keep_f_star, column", [(True, "f_gap"), (False, "min_df_gap")])
    def test_overflowing_objective_fails_the_run(self, keep_f_star, column):
        # from center 0.5 the step to iteration 2 (2 halvings) lands near
        # 1e271, inside the neg-entropy domain, where f overflows; without
        # f_star, the overflow reaches D_f(x_star, x)
        obj = DiagonalQuadratic(np.ones((2, 3)), np.full((2, 3), 0.5))
        problem = ProblemInstance(objective=obj, reference=NegEntropy(), x0=np.ones(3),
                                  x_star=obj.minimizer(), f_star=0.0 if keep_f_star else None)
        config = SolverConfig(method="bgd", eta=1e4, epochs=5.0, record_every=1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RunFailure) as info:
            run(config, problem)
        assert str(info.value).startswith(f"iteration 2: {column} is ")
        trace = info.value.trace
        assert trace.column("iter").tolist() == [0, 1]
        assert np.all(np.isfinite(trace.x)) and trace.x.max() > 1e270

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([Euclidean, LogBarrier, NegEntropy]), st.floats(-2.0, 160.0),
           st.floats(0.1, 10.0), st.sampled_from(["bgd", "bsgd"]))
    def test_records_are_finite_or_the_run_fails(self, family, log_eta, center, method):
        obj = DiagonalQuadratic(np.ones((2, 3)), np.full((2, 3), center))
        xs = obj.minimizer()
        problem = ProblemInstance(objective=obj, reference=family(), x0=np.ones(3),
                                  x_star=xs, f_star=obj.value(xs))
        config = SolverConfig(method=method, eta=10.0**log_eta, epochs=3.0, record_every=1)
        try:
            with np.errstate(all="ignore"):
                trace = run(config, problem)
        except BregoptError:
            return
        for column in ("f_gap", "dh_gap", "min_df_gap"):
            assert np.all(np.isfinite(trace.column(column))), column

    @settings(max_examples=150, deadline=None)
    @given(run_cases())
    def test_every_run_returns_finite_records_or_fails_with_its_trace(self, case):
        # a failure at x0, a non-finite first record included, is a
        # DomainViolation raised as it is: a run without steps raises it too.
        # Every RunFailure carries at least one record.
        problem, config = case
        try:
            with np.errstate(all="ignore"):
                trace = run(config, problem)
        except RunFailure as exc:
            trace = exc.trace
            assert len(trace) and str(exc).startswith("iteration ")
        except DomainViolation as exc:
            with pytest.raises(DomainViolation) as info, np.errstate(all="ignore"):
                run(dataclasses.replace(config, epochs=0.0), problem)
            assert str(info.value) == str(exc)
            return
        for column in ("f_gap", "dh_gap", "min_df_gap"):
            assert np.all(np.isfinite(trace.column(column))), column

    @pytest.mark.parametrize("method", ["bgd", "bsgd", "bsaga", "bsvrg"])
    @pytest.mark.parametrize("keep_x_star, first", [
        pytest.param(keep, first, id=f"{keep}{tag}")
        for first, tag in [(np.nan, ""), (0.0, "-zero"), (-np.inf, "-neginf")]
        for keep in (True, False)
    ])
    def test_nan_start_is_rejected(self, method, keep_x_star, first):
        # run() evaluates grad h(x0), checked, before the first record and
        # before any objective call; no later step checks its iterate again
        problem = self.problem()
        problem.x0 = np.array([first, 1.0, 1.0, 1.0, 1.0])
        if not keep_x_star:
            problem.x_star = None
        with pytest.raises(DomainViolation) as info:
            run(SolverConfig(method=method, eta=0.01, epochs=1.0), problem)
        assert info.value.index == 0
        assert str(info.value).startswith("log_barrier: component 0")

    def test_mu_accepts_a_zero_start_coordinate(self):
        problem = self.problem()
        problem.x0 = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        problem.x_star = None
        trace = run(SolverConfig(method="mu", epochs=3.0), problem)
        assert trace.final.iter == 3 and np.all(np.isfinite(trace.x))

    def test_nan_start_is_rejected_by_mu(self):
        problem = self.problem()
        problem.x0 = np.array([np.nan, 1.0, 1.0, 1.0, 1.0])
        problem.x_star = None
        with pytest.raises(DomainViolation) as info:
            run(SolverConfig(method="mu", epochs=3.0), problem)
        assert info.value.index == 0

    @pytest.mark.parametrize("method, constants", [
        ("bsgd", GAIN_CONSTANTS),
        ("bsaga", {k: v for k, v in GAIN_CONSTANTS.items() if k != "mu_rel"}),
    ])
    def test_gain_constants_validated(self, method, constants):
        with pytest.raises(ValueError):
            SolverConfig(method=method, gain_constants=constants).validate()

    def test_mu_matches_manual_iteration(self):
        problem = self.problem()
        obj = problem.objective
        trace = run(SolverConfig(method="mu", epochs=4.0), problem)
        x = np.asarray(problem.x0, dtype=float)
        for _ in range(4):
            x = obj.mu_step(x)
        assert trace.final.f_gap == pytest.approx(obj.value(x) - problem.f_star,
                                                  abs=1e-12)


def _replay(problem, config):
    """Every step of ``config`` on ``problem``, replayed without run().

    Yields (iter, epoch, grad_evals, comms, x, eta, gain, halvings) for the
    initial point and after each step. Estimator state is kept here, except
    for the gain rule's anchor distances, which come from SagaState. Draws
    come from ``make_rng(seed)`` in run()'s order: the index before the
    step, the SVRG refresh coin after it. A step leaving the domain is
    retried with half the step size. Steps take the checked route
    ``mirror_step``; a preconditioned step, whose solve starts along the
    Newton matrix of the one before, goes through one fresh ``for_run()``
    state from a checked grad h(x).
    """
    obj, ref, comm = problem.objective, problem.reference, problem.comm_model
    if isinstance(ref, Preconditioner):
        solves = ref.for_run()

        def mirror(x, g, eta):
            return solves.advance(x, ref.grad(x), g, eta)[0]
    else:
        def mirror(x, g, eta):
            return mirror_step(ref, x, g, eta)
    n = obj.n_components
    method, gains = config.method, config.gain_constants
    full_round = comm.full_round if comm is not None else 0.0
    component = comm.component if comm is not None else 0.0
    stochastic = method in ("bsgd", "bsaga", "bsvrg")
    rng = make_rng(config.seed)
    x = np.asarray(problem.x0, dtype=float).copy()
    grad_evals, comms, halvings, gain = 0, 0.0, 0, 1.0
    if method == "bsaga":
        grad_evals, comms = n, n * component
        if gains is not None:
            saga = SagaState.init(x, obj, store_anchors=True)
        else:
            table = np.stack([obj.partial_grad(i, x) for i in range(n)])
            mean = table.mean(axis=0)
    if method == "bsvrg":
        anchor, anchor_grad = x.copy(), obj.full_grad(x)
        grad_evals, comms = n, full_round
    if method == "mu":
        eta = float("nan")
    elif gains is not None:
        eta = config.step_multiplier / (8.0 * gains["L_rel"] * gain)
    elif config.eta is not None:
        eta = config.eta
    else:
        eta = config.step_multiplier / (2.0 * problem.meta["L_rel"])

    def safeguarded(step):
        nonlocal halvings
        trial = eta
        for k in range(solver.MAX_HALVINGS + 1):
            try:
                out = step(trial)
                halvings += k
                return out
            except StepOutOfDomain:
                trial *= 0.5
        pytest.fail("replayed step exhausted its halvings")

    steps = int(round(config.epochs * (n if stochastic else 1)))
    yield 0, 0.0, grad_evals, comms, x, eta, gain, halvings
    for t in range(1, steps + 1):
        if stochastic:
            i = int(rng.integers(n))
        if method == "mu":
            x = obj.mu_step(x)
        elif method == "bgd":
            g = obj.full_grad(x)
            x = safeguarded(lambda e: mirror(x, g, e))
        elif method == "bsgd":
            g = obj.partial_grad(i, x)
            x = safeguarded(lambda e: mirror(x, g, e))
        elif method == "bsaga" and gains is not None:
            gain = gain_bound(saga, gains, n)
            eta = config.step_multiplier / (8.0 * gains["L_rel"] * gain)
            bsaga_step(saga, obj, i,
                       lambda x, g: safeguarded(lambda e: mirror(x, g, e)))
            x = saga.x
        elif method == "bsaga":
            g_new = obj.partial_grad(i, x)
            g = g_new - table[i] + mean
            x = safeguarded(lambda e: mirror(x, g, e))
            mean = mean + (g_new - table[i]) / n
            table[i] = g_new
        elif method == "bsvrg":
            g = obj.partial_grad(i, x) - obj.partial_grad(i, anchor) + anchor_grad
            x_prev, x = x, safeguarded(lambda e: mirror(x, g, e))
        grad_evals += 1 if stochastic else n
        comms += component if stochastic else full_round
        if method == "bsvrg" and rng.random() < config.p:
            anchor, anchor_grad = x_prev.copy(), obj.full_grad(x_prev)
            grad_evals += n
            comms += full_round
        epoch = t * (1.0 / n if stochastic else 1.0)
        yield t, epoch, grad_evals, comms, x, eta, gain, halvings


def _same(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


REPLAY_CASES = {
    "bgd": dict(method="bgd"),
    "bsgd": dict(method="bsgd"),
    "bsaga": dict(method="bsaga"),
    "bsvrg": dict(method="bsvrg", p=0.5),
    "mu": dict(method="mu"),
    "gain": dict(method="bsaga", gain_constants=GAIN_CONSTANTS),
}


class TestRecordColumns:
    """Trace columns equal the quantities recomputed from replayed iterates."""

    def compare_with_replay(self, problem, config):
        """Run ``config`` and compare every column but wall_s, by ``==``,
        with the replay; returns the trace. Without x_star the divergence
        columns must be NaN."""
        obj, ref = problem.objective, problem.reference
        x_star, f_star = problem.x_star, problem.f_star
        trace = run(config, problem)
        expected = list(_replay(problem, config))
        assert len(trace) == len(expected)
        min_df = np.inf
        dh_gap = min_df_gap = float("nan")
        for rec, (t, epoch, grad_evals, comms, x, eta, gain, halvings) in zip(
                trace.records, expected):
            if x_star is not None:
                min_df = min(min_df, obj.f_divergence(x_star, x))
                dh_gap, min_df_gap = float(ref.divergence(x_star, x)), float(min_df)
            f_gap = float("nan") if f_star is None else float(obj.value(x) - f_star)
            want = (t, epoch, grad_evals, comms, f_gap, dh_gap, min_df_gap, eta, gain,
                    halvings)
            got = (rec.iter, rec.epoch, rec.grad_evals, rec.comms, rec.f_gap,
                   rec.dh_gap, rec.min_df_gap, rec.eta, rec.gain, rec.halvings)
            assert all(map(_same, got, want)), (got, want)
        assert np.array_equal(trace.x, expected[-1][4])
        return trace

    def replay_and_compare(self, problem, eta, steps):
        config = SolverConfig(method="bgd", eta=eta, epochs=float(steps),
                              record_every=1)
        trace = self.compare_with_replay(problem, config)
        assert len(trace) == steps + 1
        assert np.all(trace.column("halvings") == 0)

    @pytest.mark.parametrize("case", REPLAY_CASES)
    def test_every_method_with_halvings(self, case):
        # eta = 10 leaves the log-barrier domain on this instance; the gain
        # rule gets the same effect from its step multiplier
        problem = gen_interpolation(20, 5, seed=0)
        config = SolverConfig(eta=10.0, step_multiplier=1e4, epochs=2.0, seed=2,
                              record_every=1, **REPLAY_CASES[case])
        trace = self.compare_with_replay(problem, config)
        assert (trace.final.halvings > 0) == (case != "mu")

    @pytest.mark.parametrize("method", ["bsgd", "bsaga"])
    def test_partial_last_epoch_of_draws(self, method):
        # 2.5 epochs of n = 20: run() draws indices in chunks of 20, 20 and
        # 10; the replay draws one scalar index per step
        problem = gen_interpolation(20, 5, seed=0)
        config = SolverConfig(method=method, eta=10.0, epochs=2.5, seed=3, record_every=1)
        trace = self.compare_with_replay(problem, config)
        assert trace.final.iter == 50 and trace.final.halvings > 0

    @pytest.mark.parametrize("case", [c for c in REPLAY_CASES if c != "mu"])
    def test_every_method_with_comm_model(self, case):
        data = gen_gaussian_logistic_data(120, 5, seed=3)
        problem = gen_preconditioned(data, n_nodes=4, N=30, n_prec=20,
                                     lam=1e-3, c_prec=1e-3, seed=3)
        solve_reference(problem)
        config = SolverConfig(eta=0.5, epochs=2.0, seed=4, record_every=1,
                              **REPLAY_CASES[case])
        trace = self.compare_with_replay(problem, config)
        assert trace.final.comms > 0

    def test_preconditioned_logistic(self):
        data = gen_gaussian_logistic_data(120, 5, seed=3)
        problem = gen_preconditioned(data, n_nodes=4, N=30, n_prec=20,
                                     lam=1e-3, c_prec=1e-3, seed=3)
        solve_reference(problem)
        self.replay_and_compare(problem, eta=0.5, steps=6)

    @pytest.mark.parametrize("center, halvings", [(0.5, [3, 2]), (2.0, [4])])
    def test_neg_entropy_with_halvings(self, center, halvings):
        # the float-range quadratic of test_neg_entropy_float_range_halves;
        # from center 0.5 the second step, taken from the carried grad h,
        # halves too (a third would not come back into the float range).
        # f overflows at the last iterate, which a record with x_star or
        # f_star rejects (test_overflowing_objective_fails_the_run), so the
        # records here compute nothing
        obj = DiagonalQuadratic(np.ones((2, 3)), np.full((2, 3), center))
        problem = ProblemInstance(objective=obj, reference=NegEntropy(), x0=np.ones(3))
        config = SolverConfig(method="bgd", eta=1e4, epochs=float(len(halvings)),
                              record_every=1)
        trace = self.compare_with_replay(problem, config)
        assert list(np.diff(trace.column("halvings"))) == halvings

    @pytest.mark.parametrize("case", [c for c in REPLAY_CASES if c != "mu"])
    def test_euclidean(self, case):
        obj = small_quadratic(seed=4)
        xs = obj.minimizer()
        problem = ProblemInstance(objective=obj, reference=Euclidean(), x0=np.zeros(3),
                                  x_star=xs, f_star=obj.value(xs))
        config = SolverConfig(eta=0.2, epochs=3.0, seed=5, record_every=1,
                              **REPLAY_CASES[case])
        self.compare_with_replay(problem, config)

    @pytest.mark.parametrize("keep_f_star", [True, False])
    def test_poisson_interpolation(self, keep_f_star):
        # without f_star the f_gap column is NaN, but D_f(x*, x) is still
        # recorded from the evaluated f(x*)
        problem = gen_interpolation(30, 4, seed=5)
        if not keep_f_star:
            problem.f_star = None
        eta = 1.0 / (2.0 * problem.meta["L_rel"])
        self.replay_and_compare(problem, eta=eta, steps=8)


def test_preconditioned_run_carries_the_inner_gradient(monkeypatch):
    # run() takes one inner gradient at x0 and then one per Newton trial
    # point; the replay takes one more per step, its checked grad h(x). The
    # inner objective's gradient formula _grad counts every inner gradient.
    data = gen_gaussian_logistic_data(120, 5, seed=3)
    problem = gen_preconditioned(data, n_nodes=4, N=30, n_prec=20,
                                 lam=1e-3, c_prec=1e-3, seed=3)
    problem.x_star = None  # records then make no inner pass
    ref = problem.reference
    calls = []
    grad = ref.inner._grad
    monkeypatch.setattr(ref.inner, "_grad", lambda p: calls.append(1) or grad(p))
    passes = []
    margins = ref.inner._margins
    monkeypatch.setattr(ref.inner, "_margins", lambda *a: passes.append(1) or margins(*a))
    config = SolverConfig(method="bsgd", eta=0.5, epochs=2.0, seed=4, record_every=1)
    trace = run(config, problem)
    run_calls = len(calls)
    calls.clear()
    replayed = list(_replay(problem, config))
    steps = trace.final.iter
    assert steps == 8 and np.array_equal(trace.x, replayed[-1][4])
    assert run_calls == 1 + len(calls) - steps

    x = problem.x0 + 0.1
    hx = ref.grad(x)
    calls.clear()
    passes.clear()
    x_new, hx_new = ref.advance(x, hx, np.zeros_like(x), 1.0)
    assert np.array_equal(x_new, x) and np.array_equal(hx_new, hx)
    assert len(calls) == 1
    assert len(passes) == 2  # the first Hessian, then the trial point

    # a run's state takes grad h(x) from the point its first solve then
    # builds its matrix from, and that solve is advance's; the next solve,
    # from the same point, steps along that matrix: exactly the cold solve,
    # less the pass for its first Hessian
    solves = ref.for_run()
    calls.clear()
    passes.clear()
    assert np.array_equal(solves.grad(x), hx)
    x_new, hx_new = solves.advance(x, hx, np.zeros_like(x), 1.0)
    assert np.array_equal(x_new, x) and len(passes) == len(calls) == 2
    g = make_rng(6).normal(size=x.size)
    cold = ref.advance(x_new, hx_new, g, 0.1)
    passes.clear()
    calls.clear()
    carried = solves.advance(x_new, hx_new, g, 0.1)
    assert all(map(np.array_equal, carried, cold))
    assert len(passes) == len(calls) >= 1  # one pass per trial point, nothing at x


@pytest.mark.parametrize("method, keep_x_star", [
    ("bgd", False), ("mu", False), ("bgd", True), ("mu", True),
], ids=["bgd", "mu", "bgd-x_star", "mu-x_star"])
def test_records_hand_their_operator_product_to_the_step(monkeypatch, method, keep_x_star):
    # each record reads f(x) (and with x_star grad f(x)) from the point the
    # step then takes its gradient or MU iterate from: one product A x per
    # iterate, T + 1 for T steps (2T + 1 with separate calls), and with
    # x_star one more for f(x_star) (MU made 2T + 2 before points)
    problem = gen_interpolation(30, 4, seed=5)
    if not keep_x_star:
        problem.x_star = None
    obj = problem.objective
    rates, calls = obj._rates, []
    monkeypatch.setattr(obj, "_rates", lambda *a: calls.append(1) or rates(*a))
    trace = run(SolverConfig(method=method, epochs=5.0, record_every=1), problem)
    assert len(trace) == 6 and len(calls) == 6 + keep_x_star


@pytest.mark.parametrize("method", ["bsaga", "bgd"])
def test_logistic_records_take_the_slope_from_their_margins(monkeypatch, method):
    # D_f(x_star, x) reads <grad f(x), x_star - x> from the margins at x and
    # x_star: a record makes one full margin pass, its x; x_star's is the
    # one f(x_star) makes. Only BGD's steps read grad f(x), one per step,
    # from the record's point (counted at the objective's _grad, which
    # every full gradient reaches through its point)
    data = gen_gaussian_logistic_data(120, 5, seed=3)
    problem = gen_preconditioned(data, n_nodes=4, N=30, n_prec=20,
                                 lam=1e-3, c_prec=1e-3, seed=3)
    solve_reference(problem)
    obj = problem.objective
    grads, full = [], []
    grad, margins = obj._grad, obj._margins
    monkeypatch.setattr(obj, "_grad", lambda p: grads.append(1) or grad(p))
    monkeypatch.setattr(obj, "_margins",
                        lambda A, y, x: A is obj.A and full.append(x) or margins(A, y, x))
    trace = run(SolverConfig(method=method, eta=0.5, epochs=2.0, seed=4, record_every=1),
                problem)
    assert len(full) == len(trace) + 1
    assert sum(x is problem.x_star for x in full) == 1
    assert len(grads) == (trace.final.iter if method == "bgd" else 0)


def test_preconditioned_records_make_no_inner_gradient_pass(monkeypatch):
    # h(x_star) is evaluated once per run and grad h(x) comes with the
    # iterate: a record makes one inner value, and the run takes exactly the
    # inner gradients it takes without x_star (counted at the inner
    # objective's formulas _value and _grad, which every value and gradient
    # reaches through its point)
    data = gen_gaussian_logistic_data(120, 5, seed=3)
    problem = gen_preconditioned(data, n_nodes=4, N=30, n_prec=20,
                                 lam=1e-3, c_prec=1e-3, seed=3)
    solve_reference(problem)
    ref, x_star = problem.reference, problem.x_star
    calls = {"_value": [], "_grad": []}
    for name, seen in calls.items():
        def counted(p, _seen=seen, _original=getattr(ref.inner, name)):
            _seen.append(p.x)
            return _original(p)
        monkeypatch.setattr(ref.inner, name, counted)
    config = SolverConfig(method="bsaga", eta=0.5, epochs=2.0, seed=4, record_every=1)
    trace = run(config, problem)
    assert sum(x is x_star for x in calls["_value"]) == 1
    assert len(calls["_value"]) == 1 + len(trace)
    with_x_star = len(calls["_grad"])
    for seen in calls.values():
        seen.clear()
    problem.x_star = None
    assert run(config, problem).to_csv_string().count("\n") == len(trace) + 1
    assert len(calls["_grad"]) == with_x_star


def test_preconditioned_run_makes_one_inner_pass_per_point(monkeypatch):
    # a solve starts from the run's carried point at x, along the carried
    # Newton matrix, so each pass within a solve is a trial point, whose
    # gradient it takes (an accepted trial's pass also gives the next Newton
    # matrix); a record reads the carried point. Outside the solves:
    # h(x_star) and grad h(x0), whose point the first record reads. No
    # point is passed twice.
    data = gen_gaussian_logistic_data(120, 5, seed=3)
    problem = gen_preconditioned(data, n_nodes=4, N=30, n_prec=20,
                                 lam=1e-3, c_prec=1e-3, seed=3)
    solve_reference(problem)
    inner = problem.reference.inner
    solve = {"index": None, "count": 0}  # the advance call in progress, if any
    passes, grads = [], []  # (solve index or None, x), and the solve index of each gradient
    margins, grad, advance = inner._margins, inner._grad, PreconditionedRun.advance
    monkeypatch.setattr(inner, "_margins",
                        lambda A, y, x: passes.append((solve["index"], x)) or margins(A, y, x))
    monkeypatch.setattr(inner, "_grad", lambda p: grads.append(solve["index"]) or grad(p))

    def counted_advance(self, *args):
        solve["index"], solve["count"] = solve["count"], solve["count"] + 1
        try:
            return advance(self, *args)
        finally:
            solve["index"] = None

    monkeypatch.setattr(PreconditionedRun, "advance", counted_advance)
    config = SolverConfig(method="bsaga", eta=0.5, epochs=2.0, seed=4, record_every=1)
    trace = run(config, problem)
    assert solve["count"] == trace.final.iter + trace.final.halvings > 1
    for k in range(solve["count"]):
        points = [x for s, x in passes if s == k]
        assert len({id(x) for x in points}) == len(points) == grads.count(k) >= 1
    assert sum(s is None for s, _ in passes) == 2
    assert len({x.tobytes() for _, x in passes}) == len(passes)


@pytest.mark.parametrize("budget", [0, 4])
def test_max_halvings_is_the_budget_of_run(monkeypatch, budget):
    # patching the safeguard's constant changes run()'s budget: it makes
    # 1 + budget tries, halving eta from the first
    A = make_rng(11).uniform(0.1, 1.0, size=(8, 3))
    obj = PoissonKL(A, A @ np.ones(3), barrier_weight=0.5)
    problem = ProblemInstance(objective=obj, reference=LogBarrier(), x0=np.ones(3))
    monkeypatch.setattr(solver, "MAX_HALVINGS", budget)
    etas = []

    def leave(ref, x, hx, g, eta):
        etas.append(eta)
        raise StepOutOfDomain("log_barrier: left at component 2", index=2)
    monkeypatch.setattr(LogBarrier, "advance", leave)
    with pytest.raises(RunFailure) as info:
        run(SolverConfig(method="bgd", eta=0.1, epochs=1.0), problem)
    assert str(info.value) == (f"iteration 0: step failed after {budget} halvings: "
                               "log_barrier: left at component 2")
    assert etas == [0.1 * 0.5**k for k in range(budget + 1)]


@pytest.mark.parametrize("tol, passes", [(1e-300, 1), (1e-300, 3), (1e-1, 10)])
def test_inner_constants_are_the_budget_of_every_solve(monkeypatch, tol, passes):
    # one patch of mirror.INNER_TOL and mirror.INNER_PASSES sets the budget
    # of the conjugate map, the map's advance and a run's solves alike: a
    # Newton matrix per step, at most INNER_PASSES steps, and a failure
    # naming both when the residual stays above INNER_TOL; a loose INNER_TOL
    # ends each solve early
    data = gen_gaussian_logistic_data(120, 5, seed=3)
    problem = gen_preconditioned(data, n_nodes=4, N=30, n_prec=20,
                                 lam=1e-3, c_prec=1e-3, seed=3)
    ref = problem.reference
    builds, hessian = [], ref.inner._hessian
    monkeypatch.setattr(ref.inner, "_hessian", lambda p: builds.append(1) or hessian(p))
    monkeypatch.setattr(mirror, "INNER_TOL", tol)
    monkeypatch.setattr(mirror, "INNER_PASSES", passes)
    monkeypatch.setattr(solver, "MAX_HALVINGS", 0)
    x = problem.x0 + 0.1
    hx, g = ref.grad(x), np.linspace(-1.0, 1.0, x.size)
    y = hx - 1.0 * g
    solves = {"grad_conjugate": lambda: ref.grad_conjugate(y),
              "advance": lambda: ref.advance(x, hx, g, 1.0)[0],
              "run": lambda: run(SolverConfig(method="bgd", eta=1.0, epochs=1.0), problem)}
    for name, solve in solves.items():
        builds.clear()
        if tol < 1e-6:
            with pytest.raises(StepFailure, match=f"above inner_tol {tol:.3g} within {passes} "
                                                  "Newton steps$"):
                solve()
            assert len(builds) == passes, name
        else:
            out = solve()
            assert 1 <= len(builds) < passes, name
            if name != "run":
                assert 1e-6 < np.linalg.norm(ref.grad(out) - y) <= tol


def test_safeguard_halves_on_a_stopped_inner_solve(monkeypatch):
    # the default step from iteration 5 on leaves the Newton solve above
    # INNER_TOL after its 10 steps; halving eta retries the step as it does
    # for one leaving the domain
    data = gen_gaussian_logistic_data(400, 10, seed=41, separation=1.0)
    problem = gen_preconditioned(data, n_nodes=5, N=80, n_prec=80, lam=1e-5,
                                 c_prec=1e-5, seed=42)
    config = SolverConfig(method="bsaga", epochs=5.0, seed=3)
    trace = run(config, problem)
    assert trace.final.iter == 25 and trace.final.halvings == 8
    monkeypatch.setattr(solver, "MAX_HALVINGS", 0)
    with pytest.raises(RunFailure, match="after 0 halvings: .*above inner_tol"):
        run(config, problem)


def _wall_free(trace):
    return [line.rsplit(",", 1)[0] for line in trace.to_csv_string().splitlines()]


class _Turns:
    """Runs two threads one at a time; ``hand_over`` passes the turn to the
    other thread, unless it has finished, and waits for it to come back."""

    def __init__(self):
        self.cond = threading.Condition()
        self.turn, self.done, self.order = 0, [False, False], []
        self.local = threading.local()

    def run(self, k, fn):
        self.local.k = k
        with self.cond:
            self.cond.wait_for(lambda: self.turn == k)
        try:
            return fn()
        finally:
            with self.cond:
                self.done[k], self.turn = True, 1 - k
                self.cond.notify_all()

    def hand_over(self):
        k = self.local.k
        self.order.append(k)
        with self.cond:
            if not self.done[1 - k]:
                self.turn = 1 - k
                self.cond.notify_all()
                self.cond.wait_for(lambda: self.turn == k)


def test_interleaved_runs_on_one_preconditioner_match_each_run_alone(monkeypatch):
    # two runs share one Preconditioner and take turns at every inner point
    # either builds; each run's solves carry their own Newton matrix and
    # point, so each trace is the one the run gives alone
    data = gen_gaussian_logistic_data(120, 5, seed=3)
    problem = gen_preconditioned(data, n_nodes=4, N=30, n_prec=20,
                                 lam=1e-3, c_prec=1e-3, seed=3)
    solve_reference(problem)
    configs = [SolverConfig(method="bsaga", eta=0.5, epochs=2.0, seed=4, record_every=1),
               SolverConfig(method="bsgd", eta=0.3, epochs=2.0, seed=5, record_every=1)]
    alone = [_wall_free(run(config, problem)) for config in configs]
    inner, turns = problem.reference.inner, _Turns()
    at = inner.at
    monkeypatch.setattr(inner, "at", lambda x: turns.hand_over() or at(x))
    results = [None, None]

    def worker(k):
        try:
            results[k] = _wall_free(turns.run(k, lambda: run(configs[k], problem)))
        except Exception as exc:  # reported below
            results[k] = exc

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert results == alone
    assert turns.order[:6] == [0, 1, 0, 1, 0, 1] and min(map(turns.order.count, (0, 1))) > 20


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sparse=st.booleans(), warm=st.booleans(),
       passes=st.integers(1, 4), etas=st.lists(st.floats(0.01, 30.0), min_size=1, max_size=5))
@example(seed=0, sparse=False, warm=True, passes=1, etas=[30.0, 30.0])  # halves
def test_carried_solves_meet_inner_tol(seed, sparse, warm, passes, etas):
    # every solve of a run state, cold (its first) or along a carried
    # matrix (warm starts from one carried from elsewhere), and each halved
    # retry after a solve stops short, meets INNER_TOL at the step it returns
    rng = make_rng(seed)
    A = rng.normal(size=(40, 5)) * (rng.random(size=(40, 5)) < 0.7)
    labels = np.where(rng.random(40) < 0.5, -1.0, 1.0)
    inner = LogisticL2(sp.csr_matrix(A) if sparse else A, labels, lam=1e-3)
    ref = Preconditioner(inner, c_prec=1e-3)
    solves = ref.for_run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mirror, "INNER_TOL", 1e-8)
        patch.setattr(mirror, "INNER_PASSES", passes)
        if warm:
            far = 2.0 * rng.normal(size=5)
            solver.halved_advance(solves.advance, far, ref.grad(far), rng.normal(size=5), 1.0)
        x = rng.normal(size=5)
        hx = ref.grad(x)
        for eta in etas:
            g = rng.normal(size=5)
            x_new, hx_new, k = solver.halved_advance(solves.advance, x, hx, g, eta)
            y = hx - (eta * 0.5**k) * g
            assert np.linalg.norm(ref.grad(x_new) - y) <= 1e-8
            assert np.array_equal(hx_new, ref.grad(x_new))
            x, hx = x_new, hx_new


def test_carried_solves_build_a_third_of_a_matrix_per_step(monkeypatch):
    # late in a run a step's chord step along the carried matrix meets
    # INNER_TOL by itself; each later Newton step builds its matrix from
    # its trial's pass, and every point, x0 included, costs one inner pass.
    # A cold solve per step built 403.
    data = gen_gaussian_logistic_data(1000, 10, seed=0)
    problem = gen_preconditioned(data, n_nodes=10, N=100, n_prec=100, lam=1e-5,
                                 c_prec=1e-5, seed=0)
    solve_reference(problem)
    inner = problem.reference.inner
    builds, passes = [], []
    hessian, margins = inner._hessian, inner._margins
    monkeypatch.setattr(inner, "_hessian", lambda p: builds.append(1) or hessian(p))
    monkeypatch.setattr(inner, "_margins",
                        lambda A, y, x: passes.append(x.tobytes()) or margins(A, y, x))
    trace = run(SolverConfig(method="bsaga", eta=0.05, epochs=30.0, seed=4, record_every=1),
                problem)
    assert (trace.final.iter, trace.final.halvings, len(builds)) == (300, 0, 111)
    assert len(set(passes)) == len(passes)
