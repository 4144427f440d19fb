"""Convergence diagnostics and numerical lemma certification.

This module owns the trace format (per-iteration metric records streamed to
CSV), the variance proxy of the convergence theory, rate fitting and
plateau detection, and :func:`certify_lemmas`, which checks the structural
identities and inequalities behind the solvers on seeded random inputs.
"""

import io
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainViolation, InsufficientData, TraceInvariantError
from .mirror import make_reference
from .objective import DiagonalQuadratic, PoissonKL
from .rng import make_rng

# plateau_level examines the trailing PLATEAU_TAIL of a trace's records; they
# form a plateau when their fitted contraction lies within PLATEAU_BAND of 1
PLATEAU_TAIL = 0.25
PLATEAU_BAND = 1e-3
CERT_DIM = 6  # dimension of the points certify_lemmas draws


@dataclass
class TraceRecord:
    """One row of solver diagnostics."""

    iter: int
    epoch: float
    grad_evals: int
    comms: float
    f_gap: float
    dh_gap: float
    min_df_gap: float
    eta: float
    gain: float
    halvings: int
    wall_s: float

    def as_row(self):
        return [getattr(self, c) for c in TRACE_COLUMNS]


# CSV columns in field order
TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))


class Trace:
    """Ordered collection of :class:`TraceRecord` with CSV serialization.

    Floats are written with ``repr``, i.e. the shortest decimal string that
    round-trips, so identical runs produce identical files (modulo the
    wall-clock column).
    """

    def __init__(self, metadata=None):
        self.records = []
        self.metadata = dict(metadata or {})
        self.x = None  # final iterate, left by solver.run

    def append(self, record):
        """Add ``record``; raises TraceInvariantError if grad_evals or comms
        would decrease."""
        if self.records:
            prev = self.records[-1]
            for column in ("grad_evals", "comms"):
                before, after = getattr(prev, column), getattr(record, column)
                if not after >= before:
                    raise TraceInvariantError(
                        f"trace column {column} decreased from {before!r} to {after!r}"
                    )
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __getitem__(self, i):
        return self.records[i]

    @property
    def final(self):
        return self.records[-1]

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records], dtype=float)

    @staticmethod
    def _fmt(v):
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return repr(float(v))

    def to_csv(self, path):
        with open(path, "w") as fh:
            self._write(fh)

    def _write(self, fh):
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for r in self.records:
            fh.write(",".join(self._fmt(v) for v in r.as_row()) + "\n")

    def to_csv_string(self):
        buf = io.StringIO()
        self._write(buf)
        return buf.getvalue()


# ---------------------------------------------------------------------------
# variance
# ---------------------------------------------------------------------------


def sigma2_estimate(obj, ref, x, x_star, eta, max_exact=10**4, samples=2000, seed=0):
    """Variance proxy at the optimum, probed at ``x``.

    Computes (1 / 2 eta^2) * mean_i D_{h*}(grad h(x) - 2 eta grad f_i(x_star),
    grad h(x)). Exact enumeration for small component counts, otherwise a
    seeded subsample; returns (estimate, standard_error) where the standard
    error is 0.0 for exact enumeration. The dual divergences are taken in one
    stacked call, so ``ref`` is a closed-form reference function: a
    :class:`~bregopt.mirror.Preconditioner` raises ValueError.
    """
    n = obj.n_components
    hx = ref.grad(x)
    idx = np.arange(n) if n <= max_exact else make_rng(seed).integers(0, n, size=samples)
    shifted = hx - 2.0 * eta * obj.partial_grad(idx, x_star)
    try:
        vals = ref.dual_divergence(shifted, hx) / (2.0 * eta**2)
    except DomainViolation as exc:
        raise DomainViolation("variance assumption unverifiable at this probe point") from exc
    stderr = 0.0 if n <= max_exact else float(np.std(vals) / np.sqrt(len(vals)))
    return float(np.mean(vals)), stderr


# ---------------------------------------------------------------------------
# rate fitting and plateau detection
# ---------------------------------------------------------------------------


def rate_fit(trace, window):
    """Per-iteration geometric contraction of a :class:`Trace`'s dh_gap
    column, fitted against its iteration column on the trailing ``window``
    positive records. Returns exp(slope) of a least-squares line through
    log(dh_gap).
    """
    values, iters = trace.column("dh_gap"), trace.column("iter")
    keep = values > 0
    values, iters = values[keep], iters[keep]
    if len(values) < max(window, 2):
        raise InsufficientData(
            f"rate_fit needs >= {window} positive records, got {len(values)}"
        )
    v = np.log(values[-window:])
    t = iters[-window:]
    slope = np.polyfit(t, v, 1)[0]
    return float(np.exp(slope))


def plateau_level(trace):
    """Median dh_gap over the trailing window if the trace has flattened.

    The tail is declared a plateau when its fitted contraction lies within
    PLATEAU_BAND of 1. Returns (level, is_plateau, rate), rate being that
    fitted contraction.
    """
    n_tail = max(int(len(trace) * PLATEAU_TAIL), 3)
    rate = rate_fit(trace, n_tail)
    tail = trace.column("dh_gap")[-n_tail:]
    return float(np.median(tail)), bool(abs(rate - 1.0) <= PLATEAU_BAND), rate


# ---------------------------------------------------------------------------
# lemma certification
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    """One measured quantity against its tolerance.

    ``note`` carries the quantities the tolerance was derived from; it is
    printed with the check and does not affect the verdict.
    """

    name: str
    samples: int
    max_violation: float
    tolerance: float
    note: str = ""

    @property
    def passed(self):
        return self.max_violation <= self.tolerance

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        note = f" [{self.note}]" if self.note else ""
        return (
            f"{self.name} samples={self.samples} "
            f"max_violation={self.max_violation:.7g} tol={self.tolerance:.7g}{note} {status}"
        )


@dataclass
class CertReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def text(self):
        verdict = "ALL CHECKS PASSED" if self.passed else "CHECK FAILURES PRESENT"
        return "\n".join([c.line() for c in self.checks] + [verdict])


def _interior_pairs(kind, rng, d, samples):
    """Stacks X, Y of ``samples`` interior points, drawn x then y for one
    sample after another, in one generator call. X and Y are contiguous
    copies, as the arrays a per-sample loop fills are."""
    if kind == "euclidean":
        XY = rng.standard_normal((samples, 2, d))
    else:
        XY = rng.uniform(0.2, 2.0, size=(samples, 2, d))
    X, Y = np.moveaxis(XY, 1, 0).copy()
    return X, Y


def _midpoint_draws(kind, rng, d, samples):
    """The midpoint lemma's interior points X (samples, d) and relative dual
    perturbations U (samples, 2, d), drawn x then u for one sample after
    another. On the positive orthant that is one generator call, and X a
    contiguous copy; a normal x and uniform u take one pair of calls per
    sample."""
    if kind == "euclidean":
        X, U = np.empty((samples, d)), np.empty((samples, 2, d))
        for i in range(samples):
            X[i] = rng.standard_normal(d)
            U[i] = rng.uniform(-0.5, 0.5, size=(2, d))
        return X, U
    R = rng.uniform([[0.2], [-0.5], [-0.5]], [[2.0], [0.5], [0.5]], size=(samples, 3, d))
    return R[:, 0].copy(), R[:, 1:]


def _variance_draws(kind, rng, d, samples, k):
    """The variance lemma's k dual outcomes O (samples, k, d), anchors U
    (samples, d) and probabilities P (samples, k), drawn o, u, p for one
    sample after another, and the mixtures M = P O (samples, d).

    Under the log-barrier every draw is uniform, one generator call;
    otherwise the normal o, u and uniform p take three calls per sample.
    P's normalisation and M are stacked, each row equal to the per-sample
    ``p / p.sum()`` and ``p @ o`` bit for bit.
    """
    if kind == "log_barrier":
        R = rng.uniform(np.repeat([0.2, 0.1], [(k + 1) * d, k]),
                        np.repeat([2.0, 1.0], [(k + 1) * d, k]),
                        size=(samples, (k + 1) * d + k))
        O = -R[:, :k * d].reshape(samples, k, d)
        U = -R[:, k * d:(k + 1) * d]
        P = R[:, (k + 1) * d:]
    else:
        O, U, P = np.empty((samples, k, d)), np.empty((samples, d)), np.empty((samples, k))
        for i in range(samples):
            O[i] = rng.standard_normal((k, d))
            U[i] = rng.standard_normal(d)
            P[i] = rng.uniform(0.1, 1.0, size=k)
    P = P / P.sum(axis=-1, keepdims=True)
    M = np.matmul(P[:, None, :], O)[:, 0]
    return O, U, P, M


def _smooth_test_objective(kind, d, rng):
    """A convex objective with a known relative smoothness constant w.r.t.
    the reference of the given kind: its value and gradient, each taking a
    stack of points (S, d) in one call, and the constant."""
    if kind == "euclidean":
        Q = rng.uniform(0.5, 2.0, size=(4, d))
        C = rng.standard_normal((4, d))
        obj = DiagonalQuadratic(Q, C)
        return obj.value, obj.full_grad, obj.smoothness_bound()
    if kind == "log_barrier":
        A = rng.uniform(0.0, 1.0, size=(3 * d, d))
        b = rng.uniform(0.5, 2.0, size=3 * d)
        obj = PoissonKL(A, b)
        return obj.value, obj.full_grad, obj.rel_smoothness()
    if kind == "neg_entropy":
        # weighted entropy: Hessian diag(w / x) <= max(w) * Hessian of h
        w = rng.uniform(0.5, 1.0, size=d)

        def value(X):
            return np.vecdot(w, X * np.log(X))

        def grad(X):
            return w * (np.log(X) + 1.0)

        return value, grad, float(np.max(w))
    raise ValueError(kind)


def _check(name, samples, v, tolerance, rows=None, skipped=None):
    """CheckResult for the per-sample violations ``v``: their maximum floored
    at 0.0, with a NaN entry passed through so that it fails; an empty ``v``
    fails as NaN, noted "no sample used". ``rows`` maps the entries of ``v``
    to sample indices when ``skipped`` samples were left out; the note names
    the worst sample and counts the skipped."""
    worst, note = float("nan"), "no sample used"
    if v.size:
        at = int(np.argmax(v))  # the first NaN, if any
        # + 0.0 turns a -0.0 maximum into the floor's 0.0
        worst = float(np.max(v, initial=0.0)) + 0.0
        note = f"worst sample {at if rows is None else int(rows[at])}"
    if skipped is not None:
        note += f", skipped {skipped}"
    return CheckResult(name, samples, worst, tolerance, note)


def certify_lemmas(kinds=("euclidean", "log_barrier", "neg_entropy"), seed=7,
                   samples=1000, l_scale=1.0):
    """Numerically certify the structural lemmas on seeded random inputs.

    Per reference kind: the primal/dual duality identity, the midpoint
    (Young-type) inequality for mirror steps, cocoercivity of relatively
    smooth gradients at eta = 1/L, the exact one-step descent identity, and
    the exact variance (bias/variance) decomposition of dual divergences by
    enumeration. ``l_scale`` rescales the smoothness constant fed to the
    cocoercivity check; values below 1 serve as a negative control.

    Samples come from one stream per kind, in the order of a per-sample
    loop: a lemma whose draws share one distribution takes them in one
    generator call, which fills its array element by element; a lemma that
    mixes normal and uniform draws takes them in a loop that only draws.
    The test objective is evaluated on each lemma's stack of points in one
    call, and each lemma takes one stacked call per map over all its
    samples; every row equals the per-sample call bit for bit. Each check's
    note names its worst sample;
    cocoercivity and the descent identity skip the samples whose shifted
    dual point leaves the conjugate domain, and count them.

    Returns a :class:`CertReport`; failures are report entries, not errors.
    """
    report = CertReport()
    d = CERT_DIM
    for kind in kinds:
        ref = make_reference(kind)
        rng = make_rng(seed)
        value_f, grad_f, L = _smooth_test_objective(kind, d, rng)

        # Lemma: duality identity D_h(x, y) = D_{h*}(grad h(y), grad h(x))
        X, Y = _interior_pairs(kind, rng, d, samples)
        lhs = ref.divergence(X, Y)
        rhs = ref.dual_divergence(ref.grad(Y), ref.grad(X))
        v = abs(lhs - rhs) / (1.0 + abs(lhs))
        report.checks.append(_check(f"{kind}/duality", samples, v, 1e-9))

        # Lemma: midpoint inequality for mirror steps
        X, U = _midpoint_draws(kind, rng, d, samples)
        Y = ref.grad(X)
        Y1, Y2 = Y * (1.0 + U[:, 0]), Y * (1.0 + U[:, 1])
        G1, G2 = Y - Y1, Y - Y2
        d_mid = ref.dual_divergence(Y - 0.5 * (G1 + G2), Y)
        v = d_mid - 0.5 * (ref.dual_divergence(Y1, Y) + ref.dual_divergence(Y2, Y))
        report.checks.append(_check(f"{kind}/midpoint", samples, v, 1e-10))

        # Lemma: cocoercivity at eta = 1/L, over the samples whose shifted
        # dual point lies in the conjugate domain
        eta = 1.0 / (L * l_scale)
        X, Y = _interior_pairs(kind, rng, d, samples)
        GY = grad_f(Y)
        shifted = ref.grad(X) - eta * (grad_f(X) - GY)
        rows = np.flatnonzero(ref.dual_ok(shifted).all(axis=-1))
        X, Y, GY, shifted = X[rows], Y[rows], GY[rows], shifted[rows]
        df = value_f(X) - value_f(Y) - np.vecdot(GY, X - Y)
        v = ref.dual_divergence(shifted, ref.grad(X)) / eta - df
        report.checks.append(_check(f"{kind}/cocoercivity", len(rows), v, 1e-10,
                                    rows, samples - len(rows)))

        # Lemma: one-step descent identity (holds for any comparison point
        # z), over the samples whose mirror step stays in the domain
        X, Z = _interior_pairs(kind, rng, d, samples)
        G = grad_f(X)
        dual = ref.grad(X) - eta * G
        rows = np.flatnonzero(ref.dual_ok(dual).all(axis=-1))
        X, Z, G = X[rows], Z[rows], G[rows]
        X_next = ref.grad_conjugate(dual[rows])
        lhs = (eta * np.vecdot(G, Z - X_next) + ref.divergence(Z, X)
               - ref.divergence(X_next, X))
        rhs = ref.divergence(Z, X_next)
        v = abs(lhs - rhs) / (1.0 + abs(rhs))
        report.checks.append(_check(f"{kind}/descent_identity", samples, v, 1e-9,
                                    rows, samples - len(rows)))

        # Lemma: variance decomposition of D_{h*} by exact enumeration
        O, U, P, M = _variance_draws(kind, rng, d, samples, k=5)
        # the k-term sums run left to right, one row at a time
        lhs = (P * ref.dual_divergence(O, U[:, None])).sum(axis=-1)
        rhs = (ref.dual_divergence(M, U)
               + (P * ref.dual_divergence(O, M[:, None])).sum(axis=-1))
        v = abs(lhs - rhs)
        report.checks.append(_check(f"{kind}/variance_decomposition", samples, v, 1e-10))
    return report
