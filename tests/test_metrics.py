"""Tests for the trace container, rate fitting, and lemma certification."""

import copy
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bregopt import (
    CheckResult,
    DiagonalQuadratic,
    DomainViolation,
    Euclidean,
    InsufficientData,
    LogBarrier,
    NegEntropy,
    PoissonKL,
    SagaState,
    Trace,
    TraceRecord,
    bsaga_step,
    bsvrg_step,
    certify_lemmas,
    plateau_level,
    rate_fit,
    svrg_gradient,
    SvrgState,
    TraceInvariantError,
)
from bregopt import metrics
from bregopt.metrics import (
    CERT_DIM,
    _interior_pairs,
    _midpoint_draws,
    _variance_draws,
)
from bregopt.rng import make_rng
from bregopt.solver import (
    saga_slot_errors,
    saga_successor_potentials,
    svrg_successor_potentials,
)
from bregopt.verify import Battery
from oracles import mirror_step


def mirror(ref, eta):
    return lambda x, g: mirror_step(ref, x, g, eta)


def saga_potential(state, obj, ref, x_star, eta):
    """psi_t = D_h(x_star, x_t) / eta + (n/2) H_t, recomputed from scratch."""
    errors = saga_slot_errors(state, obj, x_star)
    n = len(errors)
    return ref.divergence(x_star, state.x) / eta + 0.5 * n * (sum(errors) / n)


def svrg_potential(state, obj, ref, x_star, eta, p):
    """psi_t = D_h(x_star, x_t) + (eta / 2p) D_f(phi_t, x_star)."""
    memory = (eta / (2.0 * p)) * obj.f_divergence(state.anchor, x_star)
    return ref.divergence(x_star, state.x) + memory


def make_record(i, dh, grad_evals=None, comms=None):
    return TraceRecord(
        iter=i, epoch=float(i), grad_evals=grad_evals if grad_evals is not None else i,
        comms=comms if comms is not None else float(i), f_gap=dh, dh_gap=dh,
        min_df_gap=dh, eta=0.1, gain=1.0, halvings=0, wall_s=0.0,
    )


def trace_of(values, iters=None):
    """A Trace whose dh_gap column is ``values``, at ``iters`` (0, 1, ...
    by default)."""
    trace = Trace()
    for i, v in zip(range(len(values)) if iters is None else iters, values):
        trace.append(make_record(int(i), v))
    return trace


class TestTrace:
    def test_append_requires_monotone_counters(self):
        trace = Trace()
        trace.append(make_record(0, 1.0, grad_evals=5, comms=2.0))
        with pytest.raises(TraceInvariantError, match="grad_evals decreased from 5 to 3"):
            trace.append(make_record(1, 0.5, grad_evals=3))
        with pytest.raises(TraceInvariantError, match="comms decreased from 2.0 to 0.5"):
            trace.append(make_record(1, 0.5, grad_evals=5, comms=0.5))
        assert len(trace) == 1

    def test_append_check_survives_optimize_flag(self):
        script = (
            "from bregopt import Trace, TraceRecord, TraceInvariantError\n"
            "row = dict(iter=0, epoch=0.0, comms=0.0, f_gap=0.0, dh_gap=0.0,\n"
            "           min_df_gap=0.0, eta=0.1, gain=1.0, halvings=0, wall_s=0.0)\n"
            "trace = Trace()\n"
            "trace.append(TraceRecord(grad_evals=5, **row))\n"
            "try:\n"
            "    trace.append(TraceRecord(grad_evals=3, **row))\n"
            "except TraceInvariantError as exc:\n"
            "    print(exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "trace column grad_evals decreased from 5 to 3"

    def test_csv_floats_use_shortest_roundtrip(self):
        trace = Trace()
        trace.append(make_record(0, 0.1))
        assert ",0.1," in trace.to_csv_string()


class TestRateFit:
    def test_exact_geometric(self):
        r = 0.9
        values = r ** np.arange(40)
        assert rate_fit(trace_of(values), 20) == pytest.approx(r, rel=1e-9)

    def test_constant_sequence(self):
        assert rate_fit(trace_of(np.ones(30)), 10) == pytest.approx(1.0, rel=1e-12)

    def test_respects_iteration_column(self):
        r = 0.8
        iters = np.arange(0, 40, 2)
        values = r ** iters
        assert rate_fit(trace_of(values, iters), 10) == pytest.approx(r, rel=1e-9)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            rate_fit(trace_of([1.0]), 5)

    def test_ignores_exact_zeros(self):
        values = np.concatenate([0.5 ** np.arange(20), np.zeros(5)])
        assert rate_fit(trace_of(values), 10) == pytest.approx(0.5, rel=1e-9)


class TestPlateau:
    def test_flat_tail_detected(self):
        values = np.concatenate([0.5 ** np.arange(20), np.full(20, 1e-6)])
        level, is_plateau, _ = plateau_level(trace_of(values))
        assert is_plateau
        assert level == pytest.approx(1e-6)

    def test_decaying_tail_not_a_plateau(self):
        values = 0.5 ** np.arange(40)
        _, is_plateau, _ = plateau_level(trace_of(values))
        assert not is_plateau


class TestPotentials:
    def build(self):
        rng = make_rng(1)
        Q = rng.uniform(0.5, 2.0, size=(8, 3))
        C = rng.normal(size=(8, 3))
        obj = DiagonalQuadratic(Q, C)
        return obj, obj.minimizer(), rng

    def test_saga_potential_positive_and_shrinks(self):
        obj, xs, rng = self.build()
        ref = Euclidean()
        state = SagaState.init(xs + rng.normal(size=3), obj, store_anchors=True)
        eta = 0.05
        start = saga_potential(state, obj, ref, xs, eta)
        assert start > 0
        for _ in range(200):
            bsaga_step(state, obj, int(rng.integers(8)), mirror(ref, eta))
        assert saga_potential(state, obj, ref, xs, eta) < start

    def test_table_error_zero_at_optimum(self):
        obj, xs, _ = self.build()
        state = SagaState.init(xs, obj, store_anchors=True)
        errors = saga_slot_errors(state, obj, xs)
        assert sum(errors) / obj.n_components == pytest.approx(0.0, abs=1e-14)

    def test_svrg_potential_zero_at_optimum(self):
        obj, xs, _ = self.build()
        state = SvrgState.init(xs, obj)
        assert svrg_potential(state, obj, Euclidean(), xs, 0.05, 0.1) == pytest.approx(
            0.0, abs=1e-14
        )


def deepcopy_successors(state, obj, ref, xs, eta):
    """Successor potentials the way criterion 5 first computed them: a deep
    copy per index and every table slot recomputed."""
    out = []
    for i in range(obj.n_components):
        probe = copy.deepcopy(state)
        bsaga_step(probe, obj, i, mirror(ref, eta))
        out.append(saga_potential(probe, obj, ref, xs, eta))
    return out


class TestSuccessorPotentials:
    def quadratic(self):
        prob = Battery()._quadratic_problem()
        return prob, 1.0 / (8.0 * prob.meta["L_rel"])

    def poisson(self):
        rng = make_rng(5)
        A = rng.uniform(0.1, 1.0, size=(12, 4))
        xs = rng.uniform(0.5, 1.5, size=4)
        obj = PoissonKL(A, A @ xs)
        return obj, LogBarrier(), xs, 1.0 / (8.0 * obj.rel_smoothness())

    def assert_bitwise_equal(self, state, obj, ref, xs, eta):
        psi, successors = saga_successor_potentials(state, obj, ref, xs, eta)
        assert psi == saga_potential(state, obj, ref, xs, eta)
        assert successors == deepcopy_successors(state, obj, ref, xs, eta)

    def test_quadratic_states_match_deepcopy_route(self):
        prob, eta = self.quadratic()
        obj, ref, xs = prob.objective, prob.reference, prob.x_star
        rng = make_rng(31)
        state = SagaState.init(prob.x0, obj, store_anchors=True)
        for _ in range(6):
            for _ in range(int(rng.integers(1, 20))):
                bsaga_step(state, obj, int(rng.integers(obj.n_components)), mirror(ref, eta))
            self.assert_bitwise_equal(state, obj, ref, xs, eta)

    def test_poisson_log_barrier_states_match_deepcopy_route(self):
        obj, ref, xs, eta = self.poisson()
        rng = make_rng(6)
        state = SagaState.init(np.ones(4), obj, store_anchors=True)
        for _ in range(4):
            for _ in range(int(rng.integers(1, 15))):
                bsaga_step(state, obj, int(rng.integers(obj.n_components)), mirror(ref, eta))
            self.assert_bitwise_equal(state, obj, ref, xs, eta)

    def assert_svrg_bitwise_equal(self, state, obj, ref, xs, eta, p):
        # one mirror step per component, summed in slot order
        memory = (eta / (2.0 * p)) * ((1.0 - p) * obj.f_divergence(state.anchor, xs)
                                      + p * obj.f_divergence(state.x, xs))
        acc, want = 0.0, []
        for i in range(obj.n_components):
            x_next = mirror_step(ref, state.x, svrg_gradient(state, obj, i), eta)
            want.append(ref.divergence(xs, x_next) + memory)
            acc += want[-1]
        psi, successors = svrg_successor_potentials(state, obj, ref, xs, eta, p)
        assert psi == svrg_potential(state, obj, ref, xs, eta, p)
        assert successors == want and sum(successors) == acc

    def test_svrg_quadratic_states_match_one_step_at_a_time(self):
        prob, eta = self.quadratic()
        obj, ref, xs = prob.objective, prob.reference, prob.x_star
        rng = make_rng(32)
        state = SvrgState.init(prob.x0, obj)
        for _ in range(6):
            for _ in range(int(rng.integers(1, 20))):
                i = int(rng.integers(obj.n_components))
                bsvrg_step(state, obj, i, mirror(ref, eta), bool(rng.random() < 0.1))
            self.assert_svrg_bitwise_equal(state, obj, ref, xs, eta, 0.1)

    def test_svrg_poisson_log_barrier_states_match_one_step_at_a_time(self):
        obj, ref, xs, eta = self.poisson()
        rng = make_rng(7)
        state = SvrgState.init(np.ones(4), obj)
        for _ in range(4):
            for _ in range(int(rng.integers(1, 15))):
                i = int(rng.integers(obj.n_components))
                bsvrg_step(state, obj, i, mirror(ref, eta), bool(rng.random() < 0.2))
            self.assert_svrg_bitwise_equal(state, obj, ref, xs, eta, 0.2)

    def test_criterion_5_divergence_counts(self, monkeypatch):
        # component divergences are counted by rows, one per index, since a
        # call takes an index array: 100 states x (32 slot errors + one per
        # successor); 2 f divergences per SVRG state (anchor and x_t). O(n^2)
        # per state would read 105,600 and 6,500.
        counts = {"component_divergence": 0, "f_divergence": 0}
        for name in counts:
            original = getattr(DiagonalQuadratic, name)

            def counted(objective, *args, _name=name, _original=original):
                counts[_name] += np.size(args[0]) if _name == "component_divergence" else 1
                return _original(objective, *args)

            monkeypatch.setattr(DiagonalQuadratic, name, counted)
        checks = Battery(quick=True).criterion_5()
        assert all(c.passed for c in checks)
        assert counts == {"component_divergence": 6400, "f_divergence": 200}


class TestCheckResult:
    def test_pass_fail_logic(self):
        assert CheckResult("a", 1, 0.5, 1.0).passed
        assert not CheckResult("a", 1, 2.0, 1.0).passed

    def test_line_mentions_name(self):
        line = CheckResult("duality", 10, 0.0, 1e-9).line()
        assert "duality" in line
        assert "PASS" in line


class TestCertification:
    def test_all_kinds_pass_quickly(self):
        report = certify_lemmas(samples=60)
        assert report.passed
        names = [c.name for c in report.checks]
        for kind in ("euclidean", "log_barrier", "neg_entropy"):
            assert any(kind in name for name in names)

    def test_scaled_constant_breaks_cocoercivity(self):
        # cocoercivity at eta = 1/L is tight; understating L must be caught
        report = certify_lemmas(samples=60, l_scale=0.5)
        failing = [c for c in report.checks if not c.passed]
        assert failing
        assert any("cocoercivity" in c.name for c in failing)

    def test_descent_identity_skips_only_steps_out_of_domain(self, monkeypatch):
        # an error that is not a domain miss propagates
        def broken(self, y):
            raise TypeError("broken mirror map")

        with monkeypatch.context() as m:
            m.setattr(Euclidean, "_grad_conjugate", broken)
            with pytest.raises(TypeError, match="broken mirror map"):
                certify_lemmas(kinds=("euclidean",), samples=5)

        # a large eta sends some neg-entropy steps out of float range (the
        # log-barrier's never leave: its Poisson test gradient is positive at
        # the sampled points); the rows skipped are exactly those whose dual
        # point the 1-D conjugate map rejects
        calls = []
        dual_ok, grad_conjugate = NegEntropy.dual_ok, NegEntropy.grad_conjugate

        def spy_ok(self, y):
            calls.append(("ok", y.copy()))
            return dual_ok(self, y)

        def spy_step(self, y):
            calls.append(("step", y.copy()))
            return grad_conjugate(self, y)

        monkeypatch.setattr(NegEntropy, "dual_ok", spy_ok)
        monkeypatch.setattr(NegEntropy, "grad_conjugate", spy_step)
        samples = 40
        report = certify_lemmas(kinds=("neg_entropy",), samples=samples, l_scale=2e-3)
        check = next(c for c in report.checks if c.name.endswith("descent_identity"))
        steps = [k for k, (kind, _) in enumerate(calls) if kind == "step"]
        assert len(steps) == 1
        dual = next(y for kind, y in reversed(calls[:steps[0]]) if kind == "ok")
        monkeypatch.undo()
        assert dual.shape == (samples, CERT_DIM)
        ref = NegEntropy()
        kept = []
        for i, y in enumerate(dual):
            try:
                ref.grad_conjugate(y)
            except DomainViolation as exc:
                assert exc.index == np.flatnonzero(~ref.dual_ok(y))[0]
            else:
                kept.append(i)
        skipped = samples - len(kept)
        assert 0 < skipped < samples
        assert calls[steps[0]][1].tobytes() == dual[kept].tobytes()
        assert check.samples == samples
        assert f"skipped {skipped}" in check.note

    def test_nan_violation_fails(self, monkeypatch):
        divergence = LogBarrier.divergence
        monkeypatch.setattr(LogBarrier, "divergence",
                            lambda self, x, y: divergence(self, x, y) * np.nan)
        report = certify_lemmas(kinds=("log_barrier",), samples=20)
        by_name = {c.name: c for c in report.checks}
        for name in ("log_barrier/duality", "log_barrier/descent_identity"):
            check = by_name[name]
            assert np.isnan(check.max_violation)
            assert not check.passed
            assert check.line().endswith("FAIL")
            assert "worst sample 0" in check.note
        assert by_name["log_barrier/midpoint"].passed
        assert not report.passed

    def test_check_with_no_sample_used_fails(self):
        # at this scale every shifted dual point leaves the neg-entropy domain
        report = certify_lemmas(kinds=("neg_entropy",), samples=100, l_scale=1e-4)
        by_name = {c.name: c for c in report.checks}
        for name in ("neg_entropy/cocoercivity", "neg_entropy/descent_identity"):
            check = by_name[name]
            assert not check.passed
            assert check.line().endswith("FAIL")
            assert check.note == "no sample used, skipped 100"
        assert by_name["neg_entropy/duality"].passed
        assert not report.passed

    def test_golden_violations(self):
        # the 15 (name, samples, max_violation) triples at seed 7, bit for bit
        report = certify_lemmas(samples=1000, seed=7)
        golden = {
            "euclidean/descent_identity": "0x1.956b6ebd54bc7p-50",
            "euclidean/variance_decomposition": "0x1.0000000000000p-48",
            "log_barrier/duality": "0x1.efbf219bad8aep-51",
            "log_barrier/descent_identity": "0x1.182ab78085786p-51",
            "log_barrier/variance_decomposition": "0x1.8000000000000p-49",
            "neg_entropy/duality": "0x1.085c9cb895293p-49",
            "neg_entropy/descent_identity": "0x1.57831f08f8988p-50",
            "neg_entropy/variance_decomposition": "0x1.0000000000000p-47",
        }
        expected = [
            (f"{kind}/{lemma}", 1000, golden.get(f"{kind}/{lemma}", "0x0.0p+0"))
            for kind in ("euclidean", "log_barrier", "neg_entropy")
            for lemma in ("duality", "midpoint", "cocoercivity", "descent_identity",
                          "variance_decomposition")
        ]
        got = [(c.name, c.samples, float.hex(c.max_violation)) for c in report.checks]
        assert got == expected
        assert all(c.note.startswith("worst sample ") for c in report.checks)

    def test_demo_detects_fault(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        out = subprocess.run(
            [sys.executable, str(root / "demos" / "certification_demo.py"), "--samples", "50"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert "ALL CHECKS PASSED" in out.stdout
        assert "fault detected" in out.stdout

    @pytest.mark.parametrize("kind", ["euclidean", "log_barrier", "neg_entropy"])
    def test_stacked_draws_match_per_sample_loops(self, kind):
        # certify_lemmas' stacked draws, lemma after lemma from one stream,
        # against the per-sample loops they replaced: Philox fills an array
        # element by element, so one call per lemma draws the same numbers
        samples, d, k = 50, CERT_DIM, 5
        rng = make_rng(7)

        def point():
            return rng.standard_normal(d) if kind == "euclidean" else rng.uniform(0.2, 2.0, size=d)

        def pairs():
            X, Y = np.empty((2, samples, d))
            for i in range(samples):
                X[i] = point()
                Y[i] = point()
            return X, Y

        def midpoint():
            X, U = np.empty((samples, d)), np.empty((samples, 2, d))
            for i in range(samples):
                X[i] = point()
                U[i] = rng.uniform(-0.5, 0.5, size=(2, d))
            return X, U

        def variance():
            O, U = np.empty((samples, k, d)), np.empty((samples, d))
            P, M = np.empty((samples, k)), np.empty((samples, d))
            for i in range(samples):
                if kind == "log_barrier":
                    O[i] = -rng.uniform(0.2, 2.0, size=(k, d))
                    U[i] = -rng.uniform(0.2, 2.0, size=d)
                else:
                    O[i] = rng.standard_normal((k, d))
                    U[i] = rng.standard_normal(d)
                probs = rng.uniform(0.1, 1.0, size=k)
                probs /= probs.sum()
                P[i] = probs
                M[i] = probs @ O[i]
            return O, U, P, M

        loops = [pairs(), midpoint(), pairs(), pairs(), variance(), rng.random(3)]
        rng = make_rng(7)
        stacked = [_interior_pairs(kind, rng, d, samples), _midpoint_draws(kind, rng, d, samples),
                   _interior_pairs(kind, rng, d, samples), _interior_pairs(kind, rng, d, samples),
                   _variance_draws(kind, rng, d, samples, k), rng.random(3)]
        for want, got in zip(loops[:-1], stacked[:-1]):
            assert len(want) == len(got)
            assert all(np.array_equal(w, g) for w, g in zip(want, got))
        assert np.array_equal(loops[-1], stacked[-1])  # the stream ends where it did

    def test_objective_calls_do_not_grow_with_samples(self, monkeypatch):
        # each lemma evaluates the test objective on its whole stack: two
        # values and three gradients per kind, at any sample count
        calls = []
        make = metrics._smooth_test_objective

        def counted(kind, d, rng):
            value, grad, L = make(kind, d, rng)

            def count(name, f):
                def call(X):
                    calls.append((kind, name))
                    return f(X)
                return call

            return count("value", value), count("grad", grad), L

        monkeypatch.setattr(metrics, "_smooth_test_objective", counted)
        kinds = ("euclidean", "log_barrier", "neg_entropy")
        for samples in (200, 20):
            calls.clear()
            certify_lemmas(samples=samples)
            want = [(kind, name) for kind in kinds
                    for name in ("grad", "grad", "value", "value", "grad")]
            assert calls == want

    def test_seeded_determinism(self):
        a = certify_lemmas(samples=40, seed=3)
        b = certify_lemmas(samples=40, seed=3)
        for ca, cb in zip(a.checks, b.checks):
            assert ca.max_violation == cb.max_violation
