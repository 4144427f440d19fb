"""Acceptance battery: the certification and benchmark checks behind both
the test suite and the ``verify`` command.

Each criterion function returns a list of :class:`bregopt.metrics.CheckResult`
entries. A check passes when its measured violation does not exceed its
tolerance; range or comparison criteria are expressed so that zero or
negative violation means success. The battery is deterministic given its
seeds, and every solver run it performs is registered so the determinism
criterion can repeat it and compare traces byte for byte.
"""

import copy
import time
from dataclasses import replace

import numpy as np

from .metrics import (
    PLATEAU_BAND,
    CertReport,
    CheckResult,
    certify_lemmas,
    plateau_level,
    rate_fit,
)
from .mirror import Euclidean, LogBarrier
from .objective import DiagonalQuadratic, PoissonKL
from .problems import (
    ProblemInstance,
    gen_gaussian_logistic_data,
    gen_preconditioned,
    gen_tomography,
    poisson_sample,
    solve_reference,
)
from .rng import make_rng
from .solver import (
    SagaState,
    SolverConfig,
    SvrgState,
    bsaga_step,
    bsvrg_step,
    run,
    saga_successor_potentials,
    svrg_successor_potentials,
)

# Reference objective value for the seeded 64x60 tomography instance,
# computed once by 24000 multiplicative-update iterations (the value is
# still decreasing in the 6th decimal at that point; the benchmark gaps
# compared against it are several orders of magnitude larger).
TOMO_F_STAR = 18.2121321

# criteria run by ``bregopt verify --quick``: the fast structural ones
QUICK = (1, 5, 8, 9)
# bound in seconds on each criterion's c{k}/runtime_s check; criterion 10,
# which replays the others' runs, has none
RUNTIME_BOUNDS = {1: 30.0, 2: 60.0, 3: 60.0, 4: 60.0, 5: 60.0, 6: 180.0, 7: 180.0,
                  8: 30.0, 9: 10.0}


def _csv_without_wall(trace):
    lines = trace.to_csv_string().splitlines()
    return "\n".join(line.rsplit(",", 1)[0] for line in lines)


def _first_hit(trace, column, threshold):
    """``column`` at the first record of ``trace`` whose f_gap is at most
    ``threshold``; inf when no record reaches it."""
    hit = trace.column(column)[trace.column("f_gap") <= threshold]
    return float(hit[0]) if hit.size else np.inf


def _local_rel_mu(obj, x):
    """Relative strong convexity of ``obj`` w.r.t. the log-barrier at ``x``.

    The Hessian of the log-barrier is diag(1/x^2), so the constant is
    lambda_min(diag(x) Hess f(x) diag(x)), from one ``obj.hessian`` and one
    symmetric eigensolve.
    """
    return float(np.linalg.eigvalsh(x[:, None] * obj.hessian(x) * x[None, :])[0])


class Battery:
    """Runs acceptance criteria and accumulates results.

    ``samples`` scales the lemma-certification sample count. With
    ``quick`` set, only the fast structural criteria in QUICK run.
    ``negative_control`` injects a deliberately halved smoothness constant
    into the cocoercivity check, which must produce a failure.
    """

    def __init__(self, samples=1000, quick=False, negative_control=False):
        self.samples = samples
        self.quick = quick
        self.negative_control = negative_control
        self._registry = []  # (name, config, problem, csv) for criterion 10

    # -- registry ----------------------------------------------------------

    def _run(self, name, config, problem):
        """``run(config, problem)``, registered under ``name`` for criterion 10."""
        trace = run(config, problem)
        self._registry.append((name, config, problem, _csv_without_wall(trace)))
        return trace

    # -- shared fixtures ---------------------------------------------------

    def _noisy_poisson_problem(self):
        """Relatively strongly convex noisy Poisson desk instance."""
        rng = make_rng(11)
        n, d = 200, 20
        A = rng.uniform(0.0, 1.0, size=(n, d))
        xs = rng.uniform(0.2, 1.0, size=d)
        b = poisson_sample(A @ xs, 12).astype(float)
        lam = 0.5
        obj = PoissonKL(A, b, barrier_weight=lam)
        prob = ProblemInstance(
            objective=obj, reference=LogBarrier(), x0=np.ones(d),
            meta={"L_rel": obj.rel_smoothness()},
        )
        solve_reference(prob)
        return prob

    def _interpolation_problem(self):
        """Relatively strongly convex Poisson interpolation instance.

        b = A x_star exactly, so the noise at the optimum is zero. x_star is
        uniform on (0.5, 1.5), away from the boundary of the orthant; with
        x_star uniform on (0, 1), as ``gen_interpolation`` draws it, the
        smallest coordinates drive the local relative strong convexity to
        almost zero (1.05e-7 for ``gen_interpolation(2000, 100, 1)``).
        """
        rng = make_rng(1)
        n, d = 1000, 20
        A = rng.uniform(0.0, 1.0, size=(n, d))
        xs = rng.uniform(0.5, 1.5, size=d)
        obj = PoissonKL(A, A @ xs)
        return ProblemInstance(
            objective=obj, reference=LogBarrier(), x0=np.ones(d),
            x_star=xs, f_star=0.0, meta={"L_rel": obj.rel_smoothness()},
        )

    def _quadratic_problem(self):
        """Noisy diagonal-quadratic finite sum with closed-form optimum."""
        rng = make_rng(21)
        n, d = 32, 8
        Q = rng.uniform(0.5, 2.0, size=(n, d))
        C = rng.standard_normal((n, d))
        obj = DiagonalQuadratic(Q, C)
        xs = obj.minimizer()
        return ProblemInstance(
            objective=obj, reference=Euclidean(), x0=np.zeros(d),
            x_star=xs, f_star=obj.value(xs),
            meta={"L_rel": obj.smoothness_bound(), "mu_rel": obj.strong_convexity_bound()},
        )

    def _tomography_problem(self):
        prob = gen_tomography(64, 60, seed=1)
        prob.f_star = TOMO_F_STAR
        return prob

    def _preconditioned_problem(self):
        data = gen_gaussian_logistic_data(2000, 20, seed=41, separation=1.0)
        prob = gen_preconditioned(
            data, n_nodes=10, N=200, n_prec=200, lam=1e-5, c_prec=1e-5, seed=42
        )
        solve_reference(prob)
        return prob

    # -- criteria ----------------------------------------------------------

    def criterion_1(self):
        """Structural lemma certification across the reference kinds."""
        samples = max(self.samples, 1)
        checks = certify_lemmas(samples=samples, seed=7).checks
        if self.negative_control:
            bad = certify_lemmas(
                kinds=("euclidean",), samples=samples, seed=7, l_scale=0.5
            )
            # surface the faulty check itself; it must FAIL, which makes the
            # whole battery fail and proves the harness notices a halved
            # smoothness constant
            checks += [replace(c, name="negative_control/" + c.name)
                       for c in bad.checks if "cocoercivity" in c.name]
        return checks

    def criterion_2(self):
        """Interpolation instance, BSGD at the theoretical constant step.

        With zero noise at the optimum and f relatively mu-strongly convex,
        constant-step BSGD contracts E D_h(x_star, x_t) by (1 - eta mu) per
        iteration. mu is taken locally at x_star, where the trailing third of
        the trace that the rate is fitted on lies; the tail tolerance
        q = 1 - eta mu / 2 keeps the half slack of criterion 4's bound. The
        1e-6 target on dh_ratio is stricter than the bound (1 - eta mu)^T
        alone guarantees; the note on that check prints the bound's value.
        """
        prob = self._interpolation_problem()
        l_rel = prob.meta["L_rel"]
        eta = 1.0 / (2.0 * l_rel)
        mu = _local_rel_mu(prob.objective, prob.x_star)
        q = 1.0 - 0.5 * eta * mu
        trace = self._run("c2_bsgd", SolverConfig(method="bsgd", eta=eta, epochs=60.0, seed=1),
                          prob)
        ratio = trace.final.dh_gap / trace[0].dh_gap
        rate = rate_fit(trace, max(len(trace) // 3, 2))
        bound = np.exp(trace.final.iter * np.log1p(-eta * mu))
        return [
            CheckResult("c2/dh_ratio", trace.final.iter, ratio, 1e-6,
                        note=f"bound (1-eta*mu)^T={bound:.3g}"),
            CheckResult("c2/tail_rate", len(trace) // 3, rate, q,
                        note=f"q=1-eta*mu/2 mu={mu:.4g} L_rel={l_rel:.4g} eta={eta:.4g}"),
        ]

    def criterion_3(self):
        """Noise-region scaling: plateau level roughly proportional to eta."""
        prob = self._noisy_poisson_problem()
        eta = 1.0 / (2.0 * prob.meta["L_rel"])
        levels, rates, flat = {}, {}, True
        for tag, mult in (("full", 1.0), ("half", 0.5)):
            trace = self._run(f"c3_bsgd_{tag}",
                              SolverConfig(method="bsgd", eta=mult * eta, epochs=400.0, seed=3),
                              prob)
            levels[tag], is_plateau, rates[tag] = plateau_level(trace)
            flat = flat and is_plateau
        ratio = levels["full"] / levels["half"]
        return [
            CheckResult("c3/plateaus_detected", 2, 0.0 if flat else 1.0, 0.0,
                        note=f"tail rates full={rates['full']:.7g} half={rates['half']:.7g}, "
                             f"plateau when |rate-1|<={PLATEAU_BAND:g}"),
            CheckResult("c3/level_ratio", 2, max(1.5 - ratio, ratio - 3.0), 0.0,
                        note=f"levels full={levels['full']:.4g} half={levels['half']:.4g} "
                             f"ratio={ratio:.4g} band=[1.5, 3]"),
        ]

    def criterion_4(self):
        """Variance reduction: linear convergence to the exact optimum."""
        prob = self._quadratic_problem()
        n = prob.objective.n_components
        L, mu = prob.meta["L_rel"], prob.meta["mu_rel"]
        kappa = L / mu
        eta = 1.0 / (8.0 * L)
        bound = 1.0 - 0.5 * min(1.0 / (2 * n), 1.0 / (8 * kappa))
        saga = self._run("c4_bsaga", SolverConfig(method="bsaga", eta=eta, epochs=50.0, seed=4),
                         prob)
        sgd = self._run("c4_bsgd", SolverConfig(method="bsgd", eta=eta, epochs=150.0, seed=4),
                        prob)
        rate = rate_fit(saga, max(len(saga) // 3, 2))
        level, is_plateau, sgd_rate = plateau_level(sgd)
        separation = level / max(saga.final.dh_gap, 1e-300)
        return [
            CheckResult("c4/saga_rate", len(saga) // 3, rate, bound,
                        note=f"bound=1-min(1/(2n),1/(8*kappa))/2={bound:.7g} "
                             f"kappa={kappa:.4g} n={n} eta={eta:.4g}"),
            CheckResult("c4/saga_final_dh", 1, saga.final.dh_gap, 1e-10,
                        note=f"bsaga final iter={saga.final.iter} "
                             f"epochs={saga.final.epoch:g} eta={eta:.4g}"),
            CheckResult("c4/bsgd_plateau", 1, 0.0 if is_plateau else 1.0, 0.0,
                        note=f"bsgd tail rate={sgd_rate:.7g}, "
                             f"plateau when |rate-1|<={PLATEAU_BAND:g}"),
            CheckResult("c4/separation", 1, 1e4 - separation, 0.0,
                        note=f"bsgd plateau level={level:.4g} "
                             f"bsaga final dh_gap={saga.final.dh_gap:.4g}"),
        ]

    def criterion_5(self):
        """One-step expected potential contraction by exhaustive enumeration."""
        prob = self._quadratic_problem()
        obj, ref, xs = prob.objective, prob.reference, prob.x_star
        n = obj.n_components
        L, mu = prob.meta["L_rel"], prob.meta["mu_rel"]
        eta = 1.0 / (8.0 * L)
        n_states = 100

        def step(x, g):
            return ref.advance(x, ref.grad(x), g, eta)[0]

        worst_saga = -np.inf
        rng = make_rng(31)
        state = SagaState.init(prob.x0, obj, store_anchors=True)
        factor = 1.0 - min(eta * mu, 1.0 / (2 * n))
        for _ in range(n_states):
            for _ in range(int(rng.integers(1, 20))):
                bsaga_step(state, obj, int(rng.integers(n)), step)
            psi, successors = saga_successor_potentials(state, obj, ref, xs, eta)
            worst_saga = max(worst_saga, sum(successors) / n - factor * psi)

        p = 0.1
        worst_svrg = -np.inf
        rng = make_rng(32)
        state = SvrgState.init(prob.x0, obj)
        factor_v = 1.0 - min(eta * mu, p / 2.0)
        for _ in range(n_states):
            for _ in range(int(rng.integers(1, 20))):
                bsvrg_step(state, obj, int(rng.integers(n)), step, bool(rng.random() < p))
            psi, successors = svrg_successor_potentials(state, obj, ref, xs, eta, p)
            worst_svrg = max(worst_svrg, sum(successors) / n - factor_v * psi)

        return [
            CheckResult("c5/saga_contraction", n_states, worst_saga, 1e-9,
                        note=f"factor=1-min(eta*mu,1/(2n))={factor:.7g} "
                             f"eta={eta:.4g} mu={mu:.4g} n={n}"),
            CheckResult("c5/svrg_contraction", n_states, worst_svrg, 1e-9,
                        note=f"factor=1-min(eta*mu,p/2)={factor_v:.7g} "
                             f"eta={eta:.4g} mu={mu:.4g} p={p}"),
        ]

    def criterion_6(self):
        """Tomography benchmark: stochastic speedup and parity with MU."""
        prob = self._tomography_problem()
        every, n = 12, prob.objective.n_components  # BSAGA records every 12/n epochs
        bgd = self._run("c6_bgd", SolverConfig(method="bgd", step_multiplier=10.0,
                                               epochs=50.0, seed=6), prob)
        saga = self._run("c6_bsaga", SolverConfig(method="bsaga", step_multiplier=40.0,
                                                  epochs=50.0, seed=6, record_every=every), prob)
        mu = self._run("c6_mu", SolverConfig(method="mu", epochs=50.0, seed=6), prob)

        # SAGA's epochs to each BGD record's gap, per BGD epoch
        bg, epochs = bgd.column("f_gap")[1:], bgd.column("epoch")[1:]
        ratios = np.array([_first_hit(saga, "epoch", gap) for gap in bg]) / epochs
        reached = np.isfinite(ratios)
        unreached = ", ".join(f"{e:g}" for e in epochs[~reached]) or "none"
        worst = float(np.max(ratios[reached], initial=0.0))
        at = int(np.argmax(np.where(reached, ratios, -np.inf)))  # first record at the worst
        f_saga = saga.final.f_gap + prob.f_star
        f_mu = mu.final.f_gap + prob.f_star
        parity = abs(f_saga - f_mu) / abs(f_mu)
        return [
            CheckResult("c6/thresholds_reached", len(bg), float(np.count_nonzero(~reached)),
                        0.0, note=f"bgd epochs whose f_gap bsaga never reaches: {unreached}"),
            CheckResult("c6/epoch_ratio", len(bg), worst, 0.2,
                        note=f"bsaga records every {every}/{n} epochs; worst at bgd "
                             f"epoch {epochs[at]:g}, f_gap<={bg[at]:.4g}"),
            CheckResult("c6/mu_parity", 1, parity, 0.1,
                        note=f"f_saga={f_saga:.7g} f_mu={f_mu:.7g}"),
        ]

    def criterion_7(self):
        """Distributed benchmark: communication efficiency of BSAGA."""
        prob = self._preconditioned_problem()
        bgd = self._run("c7_bgd", SolverConfig(method="bgd", eta=0.5, epochs=40.0, seed=5),
                        prob)
        saga = self._run("c7_bsaga", SolverConfig(method="bsaga", eta=0.1, epochs=40.0, seed=5,
                                                  record_every=1), prob)
        sgd = self._run("c7_bsgd", SolverConfig(method="bsgd", eta=0.1, epochs=100.0, seed=5,
                                                record_every=1), prob)

        saga_comms = _first_hit(saga, "comms", 1e-5)
        bgd_comms = _first_hit(bgd, "comms", 1e-5)
        sgd_early, saga_early = _first_hit(sgd, "comms", 1e-2), _first_hit(saga, "comms", 1e-2)
        tail = sgd.column("f_gap")[-max(len(sgd) // 4, 3):]
        sgd_level = float(np.median(tail))
        return [
            CheckResult("c7/comms_advantage", 1, saga_comms - bgd_comms + 1.0, 0.0,
                        note=f"comms to f_gap<=1e-5: bsaga={saga_comms:g} bgd={bgd_comms:g}"),
            CheckResult("c7/bsgd_early_match", 1, sgd_early / saga_early, 2.0,
                        note=f"comms to f_gap<=1e-2: bsgd={sgd_early:g} bsaga={saga_early:g}"),
            CheckResult("c7/bsgd_plateau_above", 1, saga.final.f_gap - sgd_level, 0.0,
                        note=f"bsaga final f_gap={saga.final.f_gap:.4g} "
                             f"bsgd tail level={sgd_level:.4g}"),
        ]

    def criterion_8(self):
        """Sparse relative-smoothness constant: ordering and improvement.
        The notes name the worst Hessian ordering, by instance, point and
        l_sparse, and count the instances behind the other two verdicts."""
        n_inst = 100
        rng = make_rng(81)
        worst_order, worst_at = -np.inf, "none"
        improved = 0
        dense_violations = 0
        for inst in range(n_inst):
            n, d = 30, 10
            mask = rng.random((n, d)) < 0.2
            A = np.where(mask, rng.uniform(0.1, 1.0, size=(n, d)), 0.0)
            keep = np.asarray(A.sum(axis=1) > 0)
            A, n = A[keep], int(np.sum(keep))
            b = rng.uniform(0.5, 2.0, size=n)
            obj = PoissonKL(A, b)
            l_sparse = obj.rel_smoothness()
            l_dense = float(np.sum(b)) / n
            if l_sparse > l_dense + 1e-12:
                dense_violations += 1
            if l_sparse < l_dense - 1e-12:
                improved += 1
            for point in range(5):
                x = rng.uniform(0.5, 2.0, size=d)
                u = rng.standard_normal(d)
                quad_f = float(u @ obj.hessian(x) @ u)
                quad_h = float(np.sum(u**2 / x**2))
                order = quad_f - l_sparse * quad_h
                if order > worst_order:  # as max() keeps the first of ties
                    worst_order = order
                    worst_at = f"instance {inst} point {point}, l_sparse={l_sparse:.7g}"
        need = 0.9 * n_inst
        return [
            CheckResult("c8/hessian_ordering", 5 * n_inst, worst_order, 1e-8,
                        note=f"worst at {worst_at}"),
            CheckResult("c8/dense_bound", n_inst, float(dense_violations), 0.0,
                        note=f"l_sparse above l_dense in {dense_violations} of {n_inst}"),
            CheckResult("c8/strict_improvement", n_inst, need - improved, 0.0,
                        note=f"improved {improved} of {n_inst}, at least {need:g} needed"),
        ]

    def criterion_9(self):
        """Multiplicative updates: monotone descent and exact fixed point.
        The notes name the iteration of the worst increase and, when x* is
        not preserved, its largest move."""
        rng = make_rng(91)
        A = rng.uniform(0.0, 1.0, size=(50, 10))
        xs = rng.uniform(0.2, 1.0, size=10)
        b = poisson_sample(A @ xs, 92).astype(float)
        obj = PoissonKL(A, b)
        worst_increase, worst_at = -np.inf, 0
        # f at each of the 1001 iterates, each beside the next iterate from
        # the same product A x
        here = obj.at(np.ones(10))
        prev = here.value
        for it in range(1, 1001):
            here = obj.at(here.mu_step)
            increase = here.value - prev
            if increase > worst_increase:  # as max() keeps the first of ties
                worst_increase, worst_at = increase, it
            prev = here.value
        fixed = PoissonKL(A, A @ xs).mu_step(xs)
        preserved = np.array_equal(fixed, xs)
        moved = ("x* preserved bit for bit" if preserved
                 else f"max |x+ - x*|={float(np.max(np.abs(fixed - xs))):.4g}")
        return [
            CheckResult("c9/monotone", 1000, worst_increase, 1e-12,
                        note=f"worst increase at iteration {worst_at}"),
            CheckResult("c9/fixed_point", 1, 0.0 if preserved else 1.0, 0.0, note=moved),
        ]

    def criterion_10(self):
        """Determinism: every registered run repeats byte-identically; the
        note names each run whose replay differs."""
        differ = [name for name, config, problem, csv in self._registry
                  if _csv_without_wall(run(copy.deepcopy(config), problem)) != csv]
        return [
            CheckResult("c10/byte_identical", len(self._registry), float(len(differ)), 0.0,
                        note=f"replay differs: {', '.join(differ)}" if differ else ""),
        ]

    # -- driver ------------------------------------------------------------

    def criterion(self, k):
        """The checks of ``criterion_k``, looked up by name at call time,
        then its wall time as ``c{k}/runtime_s`` against RUNTIME_BOUNDS."""
        start = time.perf_counter()
        checks = getattr(self, f"criterion_{k}")()
        if k in RUNTIME_BOUNDS:
            runtime = time.perf_counter() - start
            checks.append(CheckResult(f"c{k}/runtime_s", 1, runtime, RUNTIME_BOUNDS[k]))
        return checks

    def run_all(self):
        """Execute the battery in criterion order and return a CertReport."""
        report = CertReport()
        for k in QUICK if self.quick else range(1, 11):
            report.checks.extend(self.criterion(k))
        return report
