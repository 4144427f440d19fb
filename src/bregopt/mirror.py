"""Reference functions (mirror maps) and the Bregman mirror step.

A reference function h is strictly convex and twice differentiable on the
interior of its domain. It induces the Bregman divergence

    D_h(x, y) = h(x) - h(y) - <grad h(y), x - y>,

and the mirror step x+ = argmin_z { eta <g, z> + D_h(z, x) }, computed in
dual form as grad h*(grad h(x) - eta g).

Four reference functions are provided:

* :class:`Euclidean`      h(x) = ||x||^2 / 2 (self-dual; plain gradient steps)
* :class:`LogBarrier`     h(x) = -sum log x_i on the positive orthant
* :class:`NegEntropy`     h(x) = sum x_i log x_i on the positive orthant
* :class:`Preconditioner` h(x) = f0(x) + c/2 ||x||^2 for an inner objective f0
  (statistical preconditioning; the conjugate map is solved by damped Newton
  to the residual INNER_TOL within INNER_PASSES Newton steps)

Residual norms are ``math.sqrt(np.dot(r, r))`` (:func:`_norm`): the float
operations of ``np.linalg.norm(r)`` for a 1-D r (numpy 2.4.6 takes
``sqrt(x.dot(x))`` of the raveled array) without its wrapper, and like it
NaN for the scalar NaN residual of a trial outside the domain.

The closed-form maps (Euclidean, LogBarrier, NegEntropy) also take a stack
of points: every array argument may carry leading batch axes, maps act
elementwise, and values, divergences and inner products reduce over the last
axis, row by row exactly as the 1-D call does. A 1-D call returns a Python
float. The Preconditioner takes 1-D points only.

Instances are immutable after construction and safe to share across threads.
"""

import math

import numpy as np

from .errors import DomainViolation, InnerSolveFailure, StepOutOfDomain

_TINY = float(np.finfo(float).tiny)
_LOG_TINY = float(np.log(_TINY))
_LOG_MAX = float(np.log(np.finfo(float).max))
# step lengths tried along a damped Newton direction
_BACKTRACK = [0.5**k for k in range(31)]
# the preconditioner's inner solve: the residual norm it must reach, and the
# most Newton steps it may take
INNER_TOL = 1e-6
INNER_PASSES = 10
# DomainViolation and StepOutOfDomain messages, formatted with the kind and
# the index
_OUTSIDE_DUAL = "{}: dual point outside conjugate domain at component {}"
_NOT_POSITIVE = "{}: component {} is not strictly positive"
_LEFT_DUAL = "{}: mirror step left the conjugate domain at component {}"


def _require(ok, message, kind, error=DomainViolation):
    """Raise ``error`` at the first False entry of the boolean mask ``ok`` in
    C order: an int index for a 1-D mask, a tuple for a stack. One count on
    success (cheaper than ``ok.all()``), ``argmin`` on failure."""
    if np.count_nonzero(ok) == ok.size:
        return
    k = int(np.argmin(ok))
    idx = k if ok.ndim == 1 else tuple(int(i) for i in np.unravel_index(k, ok.shape))
    raise error(message.format(kind, idx), index=idx)


def _sum(v):
    """Sum over the last axis: a float for one point, an array for a stack.

    ``np.add.reduce`` is the reduction ``v.sum()`` runs, without its Python
    wrapper.
    """
    s = np.add.reduce(v, -1)
    return float(s) if s.ndim == 0 else s


def _dot(a, b):
    """<a, b> over the last axis. Each row equals the 1-D ``a @ b`` bit for
    bit, which ``einsum`` and ``(a * b).sum(-1)`` do not."""
    s = np.vecdot(a, b)
    return float(s) if s.ndim == 0 else s


def _norm(r):
    """The 2-norm of a 1-D vector or scalar r, ``np.linalg.norm(r)`` bit for
    bit; ``np.dot``, not ``r @ r``, takes a Python float r."""
    return math.sqrt(np.dot(r, r))


def damped_newton_step(x, H, r, res, trial, singular):
    """The damped Newton step for a residual r(x) whose Jacobian is ``H``:
    p = H^-1 r, then the first of the trials x - t p, t = 1, 1/2, ...,
    2^-30, whose residual norm is at most (1 - 1e-4 t) ``res``, the norm of
    r at x. ``trial(z)`` returns a tuple whose last entry is the residual at
    z; the step returns that tuple with the residual norm appended, or None
    when no trial decreases the residual enough (a NaN residual never
    does). A singular ``H`` raises ``singular``, a StepFailure."""
    try:
        p = np.linalg.solve(H, r)
    except np.linalg.LinAlgError:
        raise singular from None
    for t in _BACKTRACK:
        out = trial(x - t * p)
        res_new = _norm(out[-1])
        if res_new <= (1.0 - 1e-4 * t) * res:
            return (*out, res_new)
    return None


class ReferenceFunction:
    """Common interface for mirror maps.

    Subclasses implement ``value``, ``grad`` and its unchecked form
    ``_grad``, the unchecked conjugate maps ``_grad_conjugate`` and
    ``_conjugate_value``, and the elementwise mask ``dual_ok`` of the
    conjugate domain (and ``domain_ok`` where dom h is not all of R^d).
    Checked entry points raise DomainViolation from a mask through
    ``_require``: ``grad`` checks its point once, ``grad_conjugate`` its
    dual point, ``dual_divergence`` each argument. Divergences are derived
    from those unless a closed form is cheaper or more accurate. A run talks
    to a map only through :meth:`for_run`: its ``grad``, ``advance`` and
    ``divergence``.
    """

    kind = None

    # -- domain -------------------------------------------------------------

    def check_domain(self, x):
        """Raise DomainViolation unless ``x`` is interior to dom h."""

    # -- primal and conjugate maps --------------------------------------------

    def grad_conjugate(self, y):
        """grad h*(y); raises DomainViolation at the first False entry of
        ``dual_ok(y)``."""
        _require(self.dual_ok(y), _OUTSIDE_DUAL, self.kind)
        return self._grad_conjugate(y)

    def for_run(self):
        """What one run talks to this map through: an object with the
        map's checked ``grad`` (for x0), ``advance`` and ``divergence``. A
        closed-form map keeps nothing between steps and returns itself; the
        :class:`Preconditioner` returns a fresh :class:`PreconditionedRun`,
        so the map itself is never written to."""
        return self

    def advance(self, x, hx, g, eta):
        """The mirror step from ``x`` along ``g``, given ``hx = grad h(x)``:
        returns (x+, grad h(x+)) with x+ = grad h*(hx - eta g).

        Neither ``x`` nor ``hx`` is checked: a caller carries ``hx`` from
        a checked ``grad`` or from the previous ``advance`` (``x`` is where
        an iterative conjugate map starts its solve). The dual point is
        checked once and raises StepOutOfDomain at its first entry outside
        ``dual_ok``; x+ equals the checked route ``grad_conjugate(grad(x)
        - eta g)`` bit for bit, and the index of a violation is the one
        that route's DomainViolation carries. grad h(x+) comes
        from the unchecked primal map, since a dual point that passes
        ``dual_ok`` maps to an interior x+. A closed-form map also takes a
        stack of estimates ``g`` (``x`` and ``hx`` broadcast): one step per
        row, each equal to the 1-D step bit for bit, the index of a
        violation a (row, component) tuple.
        """
        y = hx - eta * g
        _require(self.dual_ok(y), _LEFT_DUAL, self.kind, StepOutOfDomain)
        x_new = self._grad_conjugate(y)
        return x_new, self._grad(x_new)

    # -- divergences ----------------------------------------------------------

    def divergence(self, x, y):
        """D_h(x, y) for x in dom h and y interior."""
        self.check_domain(x)
        self.check_domain(y)
        return self.value(x) - self.value(y) - _dot(self.grad(y), x - y)

    def dual_divergence(self, a, b):
        """D_{h*}(a, b) for a, b in the conjugate domain, from h* directly;
        a reference function without a closed-form conjugate raises
        ValueError."""
        _require(self.dual_ok(a), _OUTSIDE_DUAL, self.kind)
        _require(self.dual_ok(b), _OUTSIDE_DUAL, self.kind)
        return (
            self._conjugate_value(a)
            - self._conjugate_value(b)
            - _dot(self._grad_conjugate(b), a - b)
        )


class Euclidean(ReferenceFunction):
    """h(x) = ||x||^2 / 2, defined on all of R^d. Self-dual; a dual point
    must be finite."""

    kind = "euclidean"

    def dual_ok(self, y):
        return np.isfinite(y)

    def value(self, x):
        return 0.5 * _dot(x, x)

    def grad(self, x):
        return np.asarray(x, dtype=float).copy()

    def divergence(self, x, y):
        d = x - y
        return 0.5 * _dot(d, d)

    _grad = grad
    _conjugate_value = value
    _grad_conjugate = grad
    dual_divergence = divergence


class _PositiveOrthant(ReferenceFunction):
    """A reference function whose domain interior is the positive orthant."""

    def domain_ok(self, x):
        # NaN fails x > 0
        return x > 0.0

    def check_domain(self, x):
        _require(self.domain_ok(x), _NOT_POSITIVE, self.kind)

    def grad(self, x):
        _require(self.domain_ok(x), _NOT_POSITIVE, self.kind)
        return self._grad(x)


class LogBarrier(_PositiveOrthant):
    """h(x) = -sum log x_i on the strictly positive orthant.

    grad h(x) = -1/x, so the conjugate domain is the strictly negative
    orthant and grad h*(y) = -1/y.
    """

    kind = "log_barrier"

    def dual_ok(self, y):
        # NaN fails both tests; -1/y is inf for a subnormal y and 0 for
        # y = -inf. isfinite is the cheaper second test: it excludes -inf,
        # and +inf already fails the first.
        return (y < -_TINY) & np.isfinite(y)

    def value(self, x):
        return -_sum(np.log(x))

    def _grad(self, x):
        return -1.0 / x

    def _conjugate_value(self, y):
        # h*(y) = -d - sum log(-y_i)
        return -float(y.shape[-1]) - _sum(np.log(-y))

    _grad_conjugate = _grad

    def divergence(self, x, y):
        """D_h(x, y) = sum(u - log(1 + u)) with u = x/y - 1.

        The generic h(x) - h(y) - <grad h(y), x - y> cancels near x = y and
        can come out negative; each term here is nonnegative. The logarithm
        is taken of the ratio x/y itself, which equals 1 + u exactly near 1
        and keeps tiny ratios finite.
        """
        self.check_domain(x)
        self.check_domain(y)
        r = x / y
        return _sum((r - 1.0) - np.log(r))


class NegEntropy(_PositiveOrthant):
    """h(x) = sum x_i log x_i on the positive orthant (0 log 0 = 0).

    grad h(x) = log x + 1, grad h*(y) = exp(y - 1); the conjugate domain is
    all of R^d, but only log(tiny) < y < log(max) keeps exp(y - 1) finite
    and positive in floating point.
    """

    kind = "neg_entropy"

    def dual_ok(self, y):
        # NaN fails both comparisons
        return (y > _LOG_TINY) & (y < _LOG_MAX)

    def value(self, x):
        return _sum(x * np.log(x))

    def _grad(self, x):
        return np.log(x) + 1.0

    def _conjugate_value(self, y):
        return _sum(np.exp(y - 1.0))

    def _grad_conjugate(self, y):
        return np.exp(y - 1.0)


class Preconditioner(ReferenceFunction):
    """h(x) = f0(x) + (c_prec/2) ||x||^2 built from an inner objective f0.

    The conjugate map has no closed form: grad h(x) = y is solved by damped
    Newton, with the Newton matrix ``inner.hessian(x) + c_prec I``. A step
    x - t p is accepted once ||grad h(x - t p) - y|| <= (1 - 1e-4 t) ||r||,
    t halving from 1, and its gradient is the next residual r. Each point a
    solve visits, its start and each trial, costs one pass over the N
    preconditioning rows (an inner :class:`~bregopt.objective.Point`), which
    gives its gradient and its O(N d^2 + d^3) matrix build and solve in d^2
    memory. Every solve takes at least one Newton step and at most
    :data:`INNER_PASSES`; one left above :data:`INNER_TOL` raises
    :class:`InnerSolveFailure` (a StepFailure) with its residual.
    ``grad_conjugate(y)`` solves from 0.

    Steps are taken by the :class:`PreconditionedRun` that :meth:`for_run`
    returns, a state of each run's own; ``advance`` is the first step of a
    fresh one, a solve from x with the matrix built there, and
    ``divergence`` its divergence. The map holds no run state and is not
    written after construction, so runs may share it.

    Only methods of ``inner`` are called. Points are 1-D: the conjugate map
    and ``advance`` reject a stack with ValueError. h* has no closed form,
    so ``dual_divergence`` raises ValueError.
    """

    kind = "preconditioner"

    def __init__(self, inner_objective, c_prec=0.0):
        if not (np.isfinite(c_prec) and c_prec >= 0):
            raise ValueError(f"c_prec must be finite and nonnegative, got {c_prec!r}")
        self.inner = inner_objective
        self.c_prec = float(c_prec)

    def _h(self, at_y):
        """h(y) from the inner point ``at_y`` at y."""
        y = at_y.x
        return float(at_y.value) + 0.5 * self.c_prec * float(y @ y)

    def value(self, x):
        return self._h(self.inner.at(x))

    def grad(self, x):
        return self.inner.full_grad(x) + self.c_prec * x

    def divergence(self, x, y):
        """D_h(x, y), with h(y) and grad h(y) from one pass over the inner
        data; the float operations of ``value`` and ``grad``."""
        return self.for_run().divergence(x, y)

    def for_run(self):
        """A fresh :class:`PreconditionedRun` on this map."""
        return PreconditionedRun(self)

    def grad_conjugate(self, y):
        return self._newton(y, self.inner.at(np.zeros_like(y)))[0]

    def advance(self, x, hx, g, eta):
        """``ReferenceFunction.advance``: the first step of a fresh
        :class:`PreconditionedRun`."""
        return self.for_run().advance(x, hx, g, eta)

    def _newton(self, y, here, gx=None, chord=None):
        """Solve grad h(x) = y by damped Newton from the inner point ``here``
        at x, whose gradient ``gx`` is computed here unless given. Each step
        builds its matrix at its start, except that the first goes along the
        Newton matrix ``chord`` when one is given; if that step finds no
        decrease, or the solve ends above INNER_TOL, it is solved again from
        x without ``chord``. Returns the solution, its gradient, its inner
        point and the last Newton matrix used. A stack ``y`` raises
        ValueError."""
        if np.ndim(y) != 1:
            raise ValueError("preconditioner: the conjugate map takes one 1-D point, not a stack")
        if gx is None:
            gx = here.grad + self.c_prec * here.x
        start, start_gx = here, gx
        r = gx - y
        res = _norm(r)
        if not np.isfinite(res):
            raise InnerSolveFailure("preconditioner: non-finite inner gradient")
        def trial(z):  # (inner point, gradient, residual) at z
            at_z = self.inner.at(z)
            g = at_z.grad + self.c_prec * z
            return at_z, g, g - y
        singular = InnerSolveFailure("preconditioner: singular inner Hessian")
        H = chord
        for k in range(INNER_PASSES):
            if k and res <= INNER_TOL:  # a step below INNER_TOL must still move
                break
            if k or H is None:
                H = self._newton_matrix(here)
            step = damped_newton_step(here.x, H, r, res, trial, singular)
            if step is None:
                break  # no decrease along the Newton direction: stop at x
            here, gx, r, res = step
        if chord is not None and (here is start or res > INNER_TOL):
            return self._newton(y, start, start_gx)  # the carried matrix did not serve
        if res > INNER_TOL:
            raise InnerSolveFailure(
                f"preconditioner: residual {res:.3g} above inner_tol {INNER_TOL:.3g} "
                f"within {INNER_PASSES} Newton steps")
        return here.x, gx, here, H

    def _newton_matrix(self, here):
        """inner.hessian + c_prec I at the inner point ``here``."""
        H = here.hessian()
        H.flat[:: len(here.x) + 1] += self.c_prec
        return H

    def dual_divergence(self, a, b):
        raise ValueError("preconditioner: a dual divergence needs a closed-form conjugate")


class PreconditionedRun:
    """One run's state on a shared :class:`Preconditioner`, from
    ``Preconditioner.for_run``, and the one place a preconditioner takes a
    step. It carries the Newton matrix its last solve used, the inner point
    of the iterate it is at, and h at the fixed x of its divergences.

    ``grad``, ``advance`` and ``divergence`` are the map's, except that they
    read the carried point instead of making a pass, and that a solve after
    the first begins with a chord (simplified-Newton) step along the carried
    matrix; each later Newton step builds the matrix at its accepted trial.
    A solve whose chord direction fails its line search, or that ends above
    INNER_TOL, is solved once more from its start with the matrix built
    there, as a fresh state solves it: the stale matrix costs work but never
    fails a step. So a run makes one inner pass per point it visits. An
    iterate is matched to its point, and the fixed x to h(x), by identity,
    so iterates are read-only."""

    def __init__(self, ref):
        self.ref = ref
        self.matrix = None
        self.point = None
        self.h_x = None  # (x, h(x)) of the divergences' fixed x

    def at(self, x):
        """The inner point at ``x``: the carried one when it is at x."""
        if self.point is None or self.point.x is not x:
            self.point = self.ref.inner.at(x)
        return self.point

    def grad(self, x):
        """grad h(x), from the inner point at x, which is carried on."""
        return self.at(x).grad + self.ref.c_prec * x

    def advance(self, x, hx, g, eta):
        x_new, hx_new, self.point, self.matrix = self.ref._newton(
            hx - eta * g, self.at(x), hx, self.matrix)
        return x_new, hx_new

    def divergence(self, x, y):
        """D_h(x, y): h(x) is evaluated once while x stays the same array,
        h(y) and grad h(y) come from the inner point at y."""
        if self.h_x is None or self.h_x[0] is not x:
            self.h_x = (x, self.ref.value(x))
        at_y = self.at(y)
        return self.h_x[1] - self.ref._h(at_y) - _dot(at_y.grad + self.ref.c_prec * y, x - y)


_KINDS = {
    "euclidean": Euclidean,
    "log_barrier": LogBarrier,
    "neg_entropy": NegEntropy,
}


def make_reference(kind):
    """Instantiate a closed-form reference function by name."""
    try:
        return _KINDS[kind]()
    except KeyError:
        raise ValueError(f"unknown reference kind: {kind!r}") from None

