"""Finite-sum objectives f = (1/n) sum_i f_i.

Three families are provided:

* :class:`PoissonKL`: Kullback-Leibler data fit D_KL(b, Ax) for nonnegative
  A and observations b, optionally grouped into row blocks (one component
  per projection angle in tomography) and optionally regularized by a
  log-barrier term that makes f relatively strongly convex w.r.t. the
  log-barrier reference function.
* :class:`LogisticL2`: l2-regularized logistic regression, optionally grouped
  into row blocks (one component per worker node in the distributed setting).
* :class:`DiagonalQuadratic`: per-component diagonal quadratics, used for the
  Euclidean-geometry test instances where everything has a closed form.

``PoissonKL`` and ``LogisticL2`` share one holder (:class:`_RowObjective`): it
checks A, holds it once and indexes the row groups, which partition the rows.
``n_components`` and ``dim`` are plain attributes of every objective.

Objectives are immutable after construction and safe for concurrent reads.
``obj.at(x)`` returns the :class:`Point` of f at x: its value, gradient,
Hessian and (PoissonKL) MU step share one data pass at x.
All component gradients are plain gradients of f_i (not divided by n), so a
uniformly sampled component gradient is an unbiased estimate of grad f.
Component methods also take an index array i and stacked points (a 1-D point
serves every row); row k equals the call with i[k] bit for bit. Quadratics
take whole-array passes, the other families one index at a time.
``value`` and ``full_grad`` of a quadratic, and of a PoissonKL whose A is
dense, also take a stack of points (S, d), in whole-array passes: row k
equals the 1-D call at x[k] bit for bit, and a domain violation is indexed
(row, component), as in the closed-form mirror maps. The stacked rates and
A^T products are one gemv per row through ``np.matmul``, which matches the
1-D ``A @ x`` bit for bit where a gemm ``X @ A.T`` does not (checked on
numpy 2.4.6 only). A stack on a sparse A raises ValueError.

A may be a dense array or a scipy sparse matrix, held as float64 CSR. A
sparse A, or a block of its rows, meets a vector in one pair of helpers:
A x (``_times``) and A^T c (``_times_t``) call scipy's compiled
``csr_matvec`` and ``csc_matvec`` on A's own CSR arrays (the CSC arrays of
A^T, so no transpose is stored), the kernels that scipy's ``@`` runs,
without its dispatch. A dense A keeps its numpy products. scipy is
imported on first use, only where a sparse matrix is built or arrives;
``_issparse`` and the helpers read an already imported ``scipy.sparse``
only, so dense objectives need numpy alone.
"""

import sys
from collections import namedtuple

import numpy as np

from .errors import DomainViolation, InvalidData
from .mirror import _dot, _require, _sum


def _issparse(A):
    """Whether A is a scipy sparse matrix, without importing scipy: no such
    matrix exists before ``scipy.sparse`` has been imported."""
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(A)


def _sparsetools():
    """scipy's compiled sparse kernels, already imported with ``scipy.sparse``
    wherever a sparse matrix exists."""
    return sys.modules["scipy.sparse._sparsetools"]


def _finite_nonnegative(values):
    """True when every entry is finite and >= 0 (NaN is neither)."""
    return bool(np.all((values >= 0) & (values < np.inf)))


def _sigmoid(t):
    """Numerically stable logistic sigmoid 0.5 (1 + tanh(t / 2)), in place
    on one new array; t is not written."""
    s = np.multiply(t, 0.5, out=np.empty(np.shape(t)))
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def _log1pexp(t):
    """log(1 + exp(t)) without overflow, in place on one new array; t is
    not written.

    max(t, 0) + log1p(exp(-|t|)) does, per element, exactly the operations
    of the two branches t + log1p(exp(-t)) (t > 0) and 0 + log1p(exp(t))
    (t <= 0), so it is bit-identical to them, without boolean masks.
    """
    t = np.asarray(t, dtype=float)
    out = np.abs(t, out=np.empty(t.shape))
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(t, 0.0)
    return out


class Point:
    """f at one point x, from :meth:`FiniteSumObjective.at`.

    ``value``, ``grad`` and (PoissonKL) ``mu_step`` are computed on first
    read and kept; ``hessian()`` builds a new array on each call and
    ``slope_to(other)`` returns <grad f(x), other.x - x>. All come from one
    checked data pass at x (``data``), made on first use, so a point outside
    the domain raises when a quantity is read; ``slope_to`` may also read
    the other point's pass: the rates A x of a PoissonKL, the loss
    arguments t = -y * (A x) of a LogisticL2. x and the point's arrays are
    read-only to its users: the point copies nothing, and no formula writes
    into x or the data pass. Where the objective takes a stack of
    points (see the module docstring), x may be one, and ``value`` and
    ``grad`` then hold a row per point.
    """

    __slots__ = ("obj", "x", "_data", "_value", "_grad", "_mu_step")

    def __init__(self, obj, x):
        self.obj, self.x = obj, x
        self._data = self._value = self._grad = self._mu_step = None

    @property
    def data(self):
        if self._data is None:
            self._data = self.obj._data(self.x)
        return self._data

    @property
    def value(self):
        if self._value is None:
            self._value = self.obj._value(self)
        return self._value

    @property
    def grad(self):
        if self._grad is None:
            self._grad = self.obj._grad(self)
        return self._grad

    @property
    def mu_step(self):
        if self._mu_step is None:
            self._mu_step = self.obj._mu_step(self)
        return self._mu_step

    def hessian(self):
        return self.obj._hessian(self)

    def slope_to(self, other):
        """<grad f(x), other.x - x>, ``other`` a point of the same f."""
        return self.obj._slope(self, other)


class FiniteSumObjective:
    """Interface shared by all finite-sum objectives. A subclass sets the
    attributes ``n_components`` and ``dim`` at construction and defines
    ``value_component(i, x)``, ``partial_grad(i, x)`` (grad f_i(x)) and the
    :class:`Point` formulas ``_value(p)``, ``_grad(p)`` and, where it has
    them, ``_hessian(p)``, ``_mu_step(p)`` and the data pass ``_data(x)``.
    ``_slope(p, q)``, the slope <grad f(p.x), q.x - p.x>, is the dot
    product with ``p.grad`` unless a subclass reads it from the two points'
    data passes."""

    kind = None

    def at(self, x):
        """The :class:`Point` of f at x."""
        return Point(self, x)

    def value(self, x):
        """f(x) = (1/n) sum_i f_i(x)."""
        return self.at(x).value

    def full_grad(self, x):
        """grad f(x) = (1/n) sum_i grad f_i(x)."""
        return self.at(x).grad

    def hessian(self, x):
        """grad^2 f(x) as a dense d x d array."""
        return self.at(x).hessian()

    def f_divergence(self, x, y):
        """D_f(x, y) = f(x) - f(y) - <grad f(y), x - y>."""
        at_x, at_y = self.at(x), self.at(y)
        f_y = at_y.value
        return float(at_x.value - f_y - at_y.slope_to(at_x))

    def _slope(self, p, q):
        return float(p.grad @ (q.x - p.x))

    def component_divergence(self, i, x, y):
        """D_{f_i}(x, y), used by the SAGA/SVRG potentials."""
        return (self.value_component(i, x) - self.value_component(i, y)
                - _dot(self.partial_grad(i, y), x - y))

    def _each(self, method, i, *points):
        """Rows ``method(i[k], row k of each stacked point)`` for index array i."""
        return np.array([method(int(j), *(p if np.ndim(p) == 1 else p[k] for p in points))
                         for k, j in enumerate(i)])


# rows of a float64 CSR matrix, its indptr starting at 0: what _times and
# _times_t read of a sparse operator, as of a scipy CSR matrix
_CSRRows = namedtuple("_CSRRows", "indptr indices data shape")


def _times(A, x):
    """A x as a fresh flat array: ``A @ x`` for a dense A, or one gemv per
    row, A x[k] in row k, for a stack x (S, d); for a CSR A (scipy's or a
    :class:`_CSRRows`), scipy's ``csr_matvec`` into float64 zeros, x 1-D of
    length ``A.shape[1]`` (ValueError otherwise)."""
    if isinstance(A, np.ndarray):
        return A @ x if x.ndim == 1 else np.matmul(A, x[..., None])[..., 0]
    rows, cols = A.shape
    if x.shape != (cols,):  # the compiled kernel reads x without a length check
        raise ValueError(f"a sparse operator takes one point of length {cols}, not shape "
                         f"{x.shape}: a stack of points needs a dense operator")
    out = np.zeros(rows)
    _sparsetools().csr_matvec(rows, cols, A.indptr, A.indices, A.data, x, out)
    return out


def _times_t(A, c):
    """A^T c as ``_times`` makes A x; for a CSR A, scipy's ``csc_matvec`` on
    A's own arrays, which are the CSC arrays of A^T."""
    if isinstance(A, np.ndarray):
        return A.T @ c if c.ndim == 1 else np.matmul(A.T, c[..., None])[..., 0]
    rows, cols = A.shape
    out = np.zeros(cols)
    _sparsetools().csc_matvec(cols, rows, A.indptr, A.indices, A.data, c, out)
    return out


def _pick(v, mask):
    """The entries of v where ``mask`` holds, along the last axis, C-ordered:
    a mask index on a 1-D v, ``np.compress`` on a stack. A stack's mask
    index returns its rows column-major, and a row sum would then not run
    in the 1-D order; on a 1-D v, ``np.compress`` costs three mask indexes."""
    return v[mask] if v.ndim == 1 else np.compress(mask, v, axis=-1)


def _gram(A, w):
    """A^T diag(w) A as a dense array for a dense or sparse A."""
    if isinstance(A, np.ndarray):
        return A.T @ (w[:, None] * A)
    import scipy.sparse as sp

    return (A.T @ (sp.diags(w) @ A)).toarray()


def _row_block(A, g):
    """The rows ``g`` of A, a view of A when g is a contiguous ascending
    range, else the copy ``A[g]``.

    A dense view is a basic slice; a sparse one is a :class:`_CSRRows` on
    slices of A's ``indices`` and ``data`` with a rebased ``indptr``.
    """
    if len(g) > 1 and not (g[1:] - g[:-1] == 1).all():
        return A[g]
    lo, hi = int(g[0]), int(g[0]) + len(g)
    if isinstance(A, np.ndarray):
        return A[lo:hi]
    start, end = A.indptr[lo], A.indptr[hi]
    return _CSRRows(A.indptr[lo:hi + 1] - start, A.indices[start:end], A.data[start:end],
                    (hi - lo, A.shape[1]))


class _RowObjective(FiniteSumObjective):
    """The row operator that :class:`PoissonKL` and :class:`LogisticL2` share:
    A (float64 CSR when sparse, else a float array; no transpose is
    stored), the component row ``groups`` as 1-D int64 index arrays
    (``None`` gives one row per component), ``n_components`` and ``dim``.

    Raises InvalidData unless A's stored entries pass ``entries_ok`` (they
    must be ``rule``), ``y`` holds one ``datum`` per row, A has a column,
    and there is at least one group, each a nonempty 1-D integer array of
    rows in [0, rows), and the groups partition the rows: each row lies in
    exactly one group, so that f is the mean of its components.
    """

    def __init__(self, A, y, groups, entries_ok, rule, datum):
        kind = self.kind
        sparse = _issparse(A)
        self.A = A = A.tocsr().astype(float, copy=False) if sparse else np.asarray(A, dtype=float)
        if not entries_ok(A.data if sparse else A):
            raise InvalidData(f"{kind}: A must be {rule}")
        if A.ndim != 2 or y.shape != A.shape[:1]:
            raise InvalidData(f"{kind}: A must be a matrix with one row per {datum}")
        rows, self.dim = A.shape
        if not self.dim:
            raise InvalidData(f"{kind}: the objective needs at least one unknown")
        if groups is None:
            groups = list(np.arange(rows).reshape(rows, 1))
        else:
            groups = [np.asarray(g) for g in groups]
            if not all(g.ndim == 1 and g.size and g.dtype.kind in "iu" for g in groups):
                raise InvalidData(f"{kind}: each group must be a nonempty 1-D integer index array")
            groups = [g.astype(np.int64, copy=False) for g in groups]
            if groups:
                flat = np.concatenate(groups)
                if flat.min() < 0 or flat.max() >= rows:
                    raise InvalidData(f"{kind}: group indices must lie in [0, {rows})")
                hits = np.bincount(flat, minlength=rows)
                for bad, what in ((hits > 1, "overlap at row {}"),
                                  (hits == 0, "leave row {} uncovered")):
                    if bad.any():
                        raise InvalidData(f"{kind}: groups {what.format(np.argmax(bad))}; "
                                          "they must partition the rows")
        if not groups:
            raise InvalidData(f"{kind}: the objective needs at least one component")
        self.groups, self.n_components = groups, len(groups)


def _counts(b):
    """(rows with a positive count, the other rows, the positive counts, b)
    of the counts ``b``: two boolean masks, the counts on the first and all
    counts."""
    pos = b > 0
    return pos, ~pos, b[pos], b


# DomainViolation messages, formatted with the kind and the index
_RATE_VIOLATION = "{}: rate (Ax)_i not positive at observed row {}"
_BARRIER_VIOLATION = "{}: barrier requires x > 0, fails at component {}"
_MU_VIOLATION = "{}: multiplicative updates need x >= 0, fails at component {}"


class PoissonKL(_RowObjective):
    """f(x) = (1/n) sum_i [ D_KL(b_i, A_i x) + barrier_weight * h_bar(x) ].

    Rows may be grouped into blocks; component i is the KL fit of block i.
    Terms with b_r = 0 contribute (A x)_r to the value and the row a_r to the
    gradient (the 0 log 0 = 0 limit). ``barrier_weight`` adds
    barrier_weight * (-sum log x_j) to every component, which makes f
    relatively barrier_weight-strongly convex w.r.t. the log-barrier.

    With a dense A and one row per component, a component gradient is the
    row kernel a_i (1 - b_i / <a_i, x>) on a view of the row of A; otherwise
    each block A_i is built once at construction, beside its positive-count
    rows and counts, as are the column sums A^T 1, the mask of the columns
    whose sum is positive and the positive-count rows and counts of all of
    b. A block whose rows form a contiguous range (each angle of a
    tomography operator) is a view of A: for a sparse A, slices of its CSR
    arrays, which serve A_i^T c as well, so the operator is held once; any
    other block is a copy of its rows. A, b and groups must not be mutated
    afterwards.
    """

    kind = "poisson_kl"

    def __init__(self, A, b, groups=None, barrier_weight=0.0):
        b = np.asarray(b, dtype=float)
        super().__init__(A, b, groups, _finite_nonnegative, "finite and nonnegative",
                         "count in b")
        if not _finite_nonnegative(b):
            raise InvalidData("poisson_kl: b must be finite and nonnegative")
        # (Ax)_r = 0 at every x on a zero row, so its count must be 0
        dead = np.flatnonzero((b > 0) & (np.asarray(self.A.sum(axis=1)).ravel() == 0))
        if dead.size:
            raise InvalidData(f"poisson_kl: row {dead[0]} of A is zero but its count is positive")
        self.b = b
        self.barrier_weight = float(barrier_weight)
        if not _finite_nonnegative(self.barrier_weight):
            raise InvalidData("poisson_kl: barrier_weight must be finite and nonnegative")
        self._rows = self._blocks = None
        if isinstance(self.A, np.ndarray) and all(len(g) == 1 for g in self.groups):
            self._rows = [(self.A[j], float(self.b[j]))
                          for g in self.groups for j in g.tolist()]
        else:
            self._blocks = [(_row_block(self.A, g), _counts(self.b[g])) for g in self.groups]
        self._counts = _counts(self.b)
        self._col_sums = _times_t(self.A, np.ones(self.A.shape[0]))
        self._live = self._col_sums > 0

    def _rates(self, A, counts, x):
        """The rates A x as a flat array, one row per point of a stack;
        DomainViolation unless every row with a positive count has a
        positive rate (NaN is not). ``counts`` is ``_counts`` of the rows'
        counts."""
        rates = _times(A, x)
        _require(counts[1] | (rates > 0), _RATE_VIOLATION, self.kind)
        return rates

    def _block(self, i):
        """(rows of A, ``_counts`` of their counts) of component i, rows as a
        2-D block."""
        if self._rows is None:
            return self._blocks[i]
        a, bi = self._rows[i]
        return a[None, :], _counts(np.array([bi]))

    @staticmethod
    def _kl_terms(rates, counts):
        """The KL fit of the rows whose rates are ``rates``, one per point of
        a stack of rates."""
        pos, zero, bp, _ = counts
        val = _sum(_pick(rates, zero))
        if bp.size:
            rp = _pick(rates, pos)
            val += _sum(bp * np.log(bp / rp) - bp + rp)
        return val

    def _barrier_on(self, x):
        """Whether the barrier term is present; when it is, DomainViolation
        at the first coordinate of x that is not > 0 (NaN fails)."""
        if self.barrier_weight == 0.0:
            return False
        _require(x > 0, _BARRIER_VIOLATION, self.kind)
        return True

    def _barrier_value(self, x):
        if not self._barrier_on(x):
            return 0.0
        return -self.barrier_weight * _sum(np.log(x))

    def _data(self, x):
        return self._rates(self.A, self._counts, x)

    def _value(self, p):
        return self._kl_terms(p.data, self._counts) / self.n_components + self._barrier_value(p.x)

    def value_component(self, i, x):
        if isinstance(i, np.ndarray):
            return self._each(self.value_component, i, x)
        Ai, counts = self._block(i)
        return self._kl_terms(self._rates(Ai, counts, x), counts) + self._barrier_value(x)

    @staticmethod
    def _kl_grad(A, rates, counts):
        """A^T (1 - b / Ax) over the observed rows, the others' coefficient 1;
        one row per point of a stack of rates."""
        pos, _, _, b = counts
        coeff = np.divide(b, rates, out=np.zeros(rates.shape), where=pos)
        return _times_t(A, np.subtract(1.0, coeff, out=coeff))

    def partial_grad(self, i, x):
        if isinstance(i, np.ndarray):
            return self._each(self.partial_grad, i, x)
        if self._rows is None:
            Ai, counts = self._blocks[i]
            g = self._kl_grad(Ai, self._rates(Ai, counts, x), counts)
        else:
            # row kernel, byte for byte _kl_grad on the (1, d) block: adding
            # 0.0 turns the -0.0 of a zero entry times a negative coefficient
            # into the +0.0 that A_i^T c has there
            a, bi = self._rows[i]
            if bi > 0:
                r = a @ x
                if not r > 0:  # NaN fails
                    raise DomainViolation(_RATE_VIOLATION.format(self.kind, 0), index=0)
                g = a * (1.0 - bi / r)
                g += 0.0
            else:
                g = a + 0.0
        if self._barrier_on(x):
            g = g - self.barrier_weight / x
        return g

    def _grad(self, p):
        g = self._kl_grad(self.A, p.data, self._counts) / self.n_components
        if self._barrier_on(p.x):
            g = g - self.barrier_weight / p.x
        return g

    def _hessian(self, p):
        """A^T diag(b / (Ax)^2) A / n + barrier_weight diag(1 / x^2)."""
        rates = p.data
        w = np.divide(self.b, np.square(rates), out=np.zeros_like(rates), where=self._counts[0])
        H = _gram(self.A, w)
        H /= self.n_components
        if self._barrier_on(p.x):
            H.flat[:: self.dim + 1] += self.barrier_weight / p.x**2  # the diagonal
        return H

    def check_mu_domain(self, x):
        """The precondition of :meth:`mu_step`, reading no data: InvalidData
        for a barrier term, then DomainViolation at the first coordinate of
        x that is not >= 0 (NaN fails)."""
        if self.barrier_weight:
            raise InvalidData("poisson_kl: multiplicative updates minimise the KL term "
                              "only, but barrier_weight is positive")
        _require(x >= 0, _MU_VIOLATION, self.kind)

    def mu_step(self, x):
        """One multiplicative (Lucy-Richardson / EM) update for min D_KL(b, Ax).

        x+ = x * (A^T (b / Ax)) / (A^T 1) componentwise. Coordinates whose
        column of A is entirely zero do not appear in the objective and are
        left unchanged. Zero coordinates are fixed points of the update and
        stay zero, which happens naturally on long runs whose limit lies on
        the boundary, so x need only be nonnegative. The update minimises
        the KL term alone: an objective with a barrier term raises
        InvalidData. :meth:`check_mu_domain` comes first, then the rates.
        """
        return self.at(x).mu_step

    def _mu_step(self, p):
        x = np.asarray(p.x, dtype=float)
        self.check_mu_domain(x)
        rates = p.data
        ratio = np.divide(self.b, rates, out=np.zeros_like(rates), where=self._counts[0])
        num = _times_t(self.A, ratio)
        out = x.copy()
        live = self._live
        # multiply by the ratio so that b = Ax is an exact fixed point
        out[live] = x[live] * (num[live] / self._col_sums[live])
        return out

    def rel_smoothness(self):
        """Relative smoothness constant of f w.r.t. the log-barrier:
        (1/n) max_j sum_{i in supp(col j)} b_i + barrier_weight.

        Exploits the column sparsity of A (its positive entries, dense or
        sparse, stored zeros excluded); the KL part is always at most the
        dense bound sum_i b_i / n, with equality when A has no zero entries.
        """
        col_sums = (self.A > 0).T @ self.b
        return float(np.max(col_sums)) / self.n_components + self.barrier_weight


class LogisticL2(_RowObjective):
    """f_i(x) = (1/N_i) sum_{r in block i} log(1 + exp(-y_r <a_r, x>))
    + (lam/2) ||x||^2, with labels y in {-1, +1}.

    Ungrouped, every row is its own component (N_i = 1). Blocks are built
    as in :class:`PoissonKL`: views of A for contiguous row ranges.

    A data pass holds the loss arguments t = -y * (A x), one per row, made
    in place on the product A x from the negated labels, which are stored
    once. With s = sigmoid(t) and w the row weights, f(x) = w . log(1 +
    exp(t)) + (lam/2) ||x||^2, grad f(x) = A^T (-y s w) + lam x, and the
    Hessian takes sigmoid(-t).
    """

    kind = "logistic_l2"

    def __init__(self, A, labels, lam=0.0, groups=None):
        labels = np.asarray(labels, dtype=float)
        super().__init__(A, labels, groups, lambda v: np.all(np.isfinite(v)), "finite", "label")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise InvalidData("logistic_l2: labels must be in {-1, +1}")
        if not _finite_nonnegative(lam):
            raise InvalidData("logistic_l2: lam must be finite and nonnegative")
        self.labels = labels
        self.lam = float(lam)
        self._neg_labels = -labels
        self._blocks = [(_row_block(self.A, g), self._neg_labels[g]) for g in self.groups]
        # per-row weight of the Hessian/value of the full objective
        w = np.zeros(self.A.shape[0])
        for g in self.groups:
            w[g] = 1.0 / (len(g) * self.n_components)
        self._row_weight = w

    @staticmethod
    def _margins(A, neg_y, x):
        """The loss arguments t = -y * (A x) of the rows of A, ``neg_y`` their
        negated labels, in place on the product A x (float, as A is)."""
        t = _times(A, x)
        t *= neg_y
        return t

    def value_component(self, i, x):
        if isinstance(i, np.ndarray):
            return self._each(self.value_component, i, x)
        Ai, neg_yi = self._blocks[i]
        t = self._margins(Ai, neg_yi, x)
        return float(np.mean(_log1pexp(t))) + 0.5 * self.lam * float(x @ x)

    def _data(self, x):
        return self._margins(self.A, self._neg_labels, x)

    def _value(self, p):
        return float(self._row_weight @ _log1pexp(p.data)) + 0.5 * self.lam * float(p.x @ p.x)

    def partial_grad(self, i, x):
        if isinstance(i, np.ndarray):
            return self._each(self.partial_grad, i, x)
        Ai, neg_yi = self._blocks[i]
        c = _sigmoid(self._margins(Ai, neg_yi, x))
        c *= neg_yi
        c /= len(neg_yi)
        return _times_t(Ai, c) + self.lam * x

    def _grad(self, p):
        c = _sigmoid(p.data)
        c *= self._neg_labels
        c *= self._row_weight
        return _times_t(self.A, c) + self.lam * p.x

    def _slope(self, p, q):
        """<grad f(x), x' - x> from the loss arguments t of x and t' of x',
        no A^T product: y * y = 1, so it is -((s w) . (t - t')) + lam x .
        (x' - x), s = sigmoid(t) and w the row weights, as in ``_grad``."""
        c = _sigmoid(p.data)
        c *= self._row_weight
        return float(-(c @ (p.data - q.data)) + self.lam * (p.x @ (q.x - p.x)))

    def _hessian(self, p):
        """A^T diag(s(1 - s) w) A + lam I, s = sigmoid(-t) = sigmoid(y * Ax),
        w the row weights."""
        s = _sigmoid(-p.data)
        w = s * (1.0 - s) * self._row_weight
        H = _gram(self.A, w)
        H.flat[:: self.dim + 1] += self.lam  # the diagonal
        return H


class DiagonalQuadratic(FiniteSumObjective):
    """f_i(x) = (1/2) sum_j Q_ij (x_j - C_ij)^2 with finite positive weights
    Q and finite centers C.

    The minimizer of f is closed form, which makes these instances exact
    oracles for the Euclidean-geometry solvers.
    """

    kind = "quadratic"

    def __init__(self, weights, centers):
        Q = np.asarray(weights, dtype=float)
        C = np.asarray(centers, dtype=float)
        if Q.shape != C.shape:
            raise InvalidData("quadratic: weights and centers must share a shape")
        if Q.ndim != 2 or not Q.size:
            raise InvalidData("quadratic: weights must be a matrix with at least one "
                              "component and one unknown")
        if not np.all((Q > 0) & (Q < np.inf)):  # NaN fails
            raise InvalidData("quadratic: weights must be finite and positive")
        if not np.all(np.isfinite(C)):
            raise InvalidData("quadratic: centers must be finite")
        self.Q = Q
        self.C = C
        self.n_components, self.dim = Q.shape

    def value_component(self, i, x):
        d = x - self.C[i]
        return 0.5 * _dot(self.Q[i], d * d)

    def _value(self, p):
        d = p.x[..., None, :] - self.C
        terms = self.Q * d * d
        return 0.5 * _sum(terms.reshape(*terms.shape[:-2], -1)) / self.n_components

    def partial_grad(self, i, x):
        return self.Q[i] * (x - self.C[i])

    def _grad(self, p):
        return np.mean(self.Q * (p.x[..., None, :] - self.C), axis=-2)

    def minimizer(self):
        return np.sum(self.Q * self.C, axis=0) / np.sum(self.Q, axis=0)

    def smoothness_bound(self):
        return float(np.max(self.Q))

    def strong_convexity_bound(self):
        return float(np.min(np.mean(self.Q, axis=0)))
