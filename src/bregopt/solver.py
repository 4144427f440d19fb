"""Iterative methods: BGD, BSGD, Bregman-SAGA, Bregman-SVRG and MU.

The four Bregman methods differ only in the gradient estimate g_t; each
then takes the mirror step x+ = grad h*(grad h(x) - eta g_t). :func:`run`
draws every random number from a counter-based generator (see
:mod:`bregopt.rng`), so a (config, problem, seed) triple determines the
trajectory bit-for-bit. A mirror step that would leave the reference
function's domain raises :class:`StepOutOfDomain`, and one whose
preconditioner solve stops short :class:`InnerSolveFailure`;
:func:`halved_advance` retries that mirror step alone, from the same
estimate, with a halved step size, and the trace shows each halving.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    AnchorsUnavailable,
    DomainViolation,
    InnerSolveFailure,
    InvalidConstants,
    InvalidData,
    StepFailure,
    StepOutOfDomain,
)
from .metrics import Trace, TraceRecord
from .rng import make_rng

METHODS = ("bgd", "bsgd", "bsaga", "bsvrg", "mu")
GAIN_KEYS = ("mu_h", "L_h", "M", "L_rel", "mu_rel")
MAX_HALVINGS = 30  # retries of one mirror step under the halving safeguard


def _positive(value):
    return bool(np.isfinite(value) and value > 0)


def _count(value, low):
    return isinstance(value, (int, np.integer)) and value >= low


@dataclass
class SolverConfig:
    """Method, step size and budget for one run.

    ``eta`` is the base step size; when left unset it defaults to
    step_multiplier / (2 L_rel) using the problem's relative smoothness
    constant. Setting ``gain_constants`` (Bregman-SAGA only) selects the
    gain rule eta_t = step_multiplier / (8 L_rel G_t) with the regularity
    metadata mu_h, L_h, M, L_rel, mu_rel. Every mirror step runs under the
    halving safeguard of :func:`halved_advance`, at most
    :data:`MAX_HALVINGS` halvings a step, and the base step size is
    restored afterwards.
    """

    method: str = "bsgd"
    eta: float = None
    step_multiplier: float = 1.0
    seed: int = 0
    epochs: float = 10.0
    p: float = 0.1  # bsvrg anchor refresh probability
    gain_constants: dict = None
    record_every: int = None  # iterations between trace records; default 1 epoch

    def validate(self):
        """Raise ValueError unless every field holds a usable value."""
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.eta is not None and not _positive(self.eta):
            raise ValueError(f"eta must be finite and positive, got {self.eta!r}")
        if not _positive(self.step_multiplier):
            raise ValueError("step_multiplier must be finite and positive, "
                             f"got {self.step_multiplier!r}")
        if not (_count(self.seed, 0) and self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if not (np.isfinite(self.epochs) and self.epochs >= 0):
            raise ValueError("epoch budget must be finite and nonnegative")
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"p must be in (0, 1], got {self.p!r}")
        if self.gain_constants is not None:
            if self.method != "bsaga":
                raise ValueError("gain_constants apply to bsaga only")
            missing = [k for k in GAIN_KEYS if k not in self.gain_constants]
            if missing:
                raise ValueError(f"gain_constants lack {', '.join(missing)}")
        if self.record_every is not None and not _count(self.record_every, 1):
            raise ValueError("record_every must be a positive integer, "
                             f"got {self.record_every!r}")


# ---------------------------------------------------------------------------
# solver states
# ---------------------------------------------------------------------------


@dataclass
class SagaState:
    """Iterate plus the per-component gradient table of Bregman-SAGA.

    ``table_mean`` is maintained incrementally in O(d) per step and must
    always equal the row mean of ``table``. Anchor points are stored only
    when requested (needed by the gain rule and the SAGA potential);
    ``sum_dist`` then tracks sum_j ||x_t - phi_j||, refreshed exactly every n
    steps and overestimated incrementally in between. ``init`` keeps the
    caller's array as ``x``: a step rebinds ``x`` and never writes into it.
    """

    x: np.ndarray
    table: np.ndarray
    table_mean: np.ndarray
    anchors: np.ndarray = None
    sum_dist: float = 0.0
    steps_since_refresh: int = 0
    gain_floor: float = np.inf  # running minimum enforcing a decreasing G_t

    @classmethod
    def init(cls, x0, obj, store_anchors=False):
        n = obj.n_components
        table = np.stack([obj.partial_grad(i, x0) for i in range(n)])
        anchors = np.tile(x0, (n, 1)) if store_anchors else None
        return cls(
            x=np.asarray(x0, dtype=float),
            table=table,
            table_mean=table.mean(axis=0),
            anchors=anchors,
        )

    def refresh_sum_dist(self):
        self.sum_dist = float(np.sum(np.linalg.norm(self.x - self.anchors, axis=1)))
        self.steps_since_refresh = 0


@dataclass
class SvrgState:
    """Iterate, anchor point and stored anchor full gradient of Bregman-SVRG;
    ``init`` keeps the caller's array as ``x``, as :class:`SagaState` does."""

    x: np.ndarray
    anchor: np.ndarray
    anchor_grad: np.ndarray

    @classmethod
    def init(cls, x0, obj):
        x0 = np.asarray(x0, dtype=float)
        anchor = x0.copy()
        return cls(x=x0, anchor=anchor, anchor_grad=obj.full_grad(anchor))


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------


def saga_gradient(state, obj, index):
    """(grad f_i(x_t), SAGA estimate g_t) for ``index``; one row each per index of an array."""
    g_new = obj.partial_grad(index, state.x)
    return g_new, g_new - state.table[index] + state.table_mean


def bsaga_step(state, obj, i, step):
    """One Bregman-SAGA step with component ``i``: the mirror step
    ``step(x, g)`` along the SAGA estimate, then the table slot update."""
    n = obj.n_components
    g_new = obj.partial_grad(i, state.x)
    diff = g_new - state.table[i]  # saga_gradient's estimate is diff + table_mean
    x_prev = state.x
    state.x = step(state.x, diff + state.table_mean)
    # slot update: anchor phi_i <- pre-step iterate, stored gradient refreshed
    state.table_mean = state.table_mean + diff / n
    state.table[i] = g_new
    if state.anchors is not None:
        old_term = float(np.linalg.norm(state.x - state.anchors[i]))
        state.anchors[i] = x_prev
        state.steps_since_refresh += 1
        if state.steps_since_refresh >= n:
            state.refresh_sum_dist()
        else:
            # incremental overestimate: the x move shifts every term by at
            # most ||dx||; the updated slot is corrected exactly
            dx = float(np.linalg.norm(state.x - x_prev))
            new_term = float(np.linalg.norm(state.x - state.anchors[i]))
            state.sum_dist += n * dx + new_term - old_term
    return state


def svrg_gradient(state, obj, index):
    """The SVRG estimate g_t for ``index`` at x_t; one row per index of an array."""
    return (
        obj.partial_grad(index, state.x)
        - obj.partial_grad(index, state.anchor)
        + state.anchor_grad
    )


def bsvrg_step(state, obj, i, step, refresh):
    """One Bregman-SVRG step with component ``i``: the mirror step
    ``step(x, g)`` along the SVRG estimate; with ``refresh`` the anchor then
    moves to the pre-step iterate and its full gradient is recomputed."""
    g = svrg_gradient(state, obj, i)
    x_prev = state.x
    state.x = step(state.x, g)
    if refresh:
        state.anchor = x_prev.copy()
        state.anchor_grad = obj.full_grad(state.anchor)
    return state


# ---------------------------------------------------------------------------
# Lyapunov potentials of the SAGA and SVRG states
# ---------------------------------------------------------------------------


def saga_slot_errors(state, obj, x_star):
    """[D_{f_j}(phi_j, x_star) for j = 0..n-1] in slot order, from one
    stacked component divergence; needs stored anchors."""
    if state.anchors is None:
        raise AnchorsUnavailable("SAGA state was created without anchor storage")
    idx = np.arange(obj.n_components)
    return obj.component_divergence(idx, state.anchors, x_star).tolist()


def _saga_psi(dh, errors, eta):
    # psi = D_h(x_star, x) / eta + (n/2) H, H the mean of the slot errors
    n = len(errors)
    return dh / eta + 0.5 * n * (sum(errors) / n)


def saga_successor_potentials(state, obj, ref, x_star, eta):
    """psi_t = D_h(x_star, x_t) / eta + (n/2) H_t, H_t the mean slot error
    D_{f_j}(phi_j, x_star), and the potential after each of the n possible
    next steps.

    Step i moves x_t along the SAGA estimate of component i and anchor i to
    x_t, so only slot i's error changes, to D_{f_i}(x_t, x_star). The n
    estimates, steps and divergences D_h(x_star, .) and the 2n slot errors
    are one stacked call each, so ``ref`` must be a closed-form map (a
    Preconditioner raises ValueError). Each value equals the potential of
    the state one ``bsaga_step`` reaches, recomputed from scratch, bit for
    bit. Returns (psi_t, [psi after step i]).
    """
    idx = np.arange(obj.n_components)
    errors = saga_slot_errors(state, obj, x_star)
    moved = obj.component_divergence(idx, state.x, x_star).tolist()
    X = ref.advance(state.x, ref.grad(state.x), saga_gradient(state, obj, idx)[1], eta)[0]
    successors = [_saga_psi(dh, errors[:i] + [moved[i]] + errors[i + 1:], eta)
                  for i, dh in enumerate(ref.divergence(x_star, X).tolist())]
    return _saga_psi(ref.divergence(x_star, state.x), errors, eta), successors


def svrg_successor_potentials(state, obj, ref, x_star, eta, p):
    """psi_t = D_h(x_star, x_t) + (eta / 2p) D_f(phi_t, x_star), phi_t the
    anchor, and the potential after each of the n possible next steps, in
    expectation over the refresh coin (the anchor stays with probability
    1 - p, else moves to x_t). Stacked as :func:`saga_successor_potentials`,
    with its contract on ``ref``. Returns (psi_t, [expected psi after step i]).
    """
    anchor = obj.f_divergence(state.anchor, x_star)
    memory = (eta / (2.0 * p)) * ((1.0 - p) * anchor + p * obj.f_divergence(state.x, x_star))
    G = svrg_gradient(state, obj, np.arange(obj.n_components))
    X = ref.advance(state.x, ref.grad(state.x), G, eta)[0]
    successors = [dh + memory for dh in ref.divergence(x_star, X).tolist()]
    psi = ref.divergence(x_star, state.x) + (eta / (2.0 * p)) * anchor
    return psi, successors


# ---------------------------------------------------------------------------
# step-size policies
# ---------------------------------------------------------------------------


def gain_bound(state, constants, n):
    """Computable bound G_t on the gain function for Bregman-SAGA.

    G_t = min(L_rel * L_h / mu_h, 1 + C * (sum_j ||x_t - phi_j|| +
    ||sum_j grad f_j(phi_j)||)) with the explicit constant

    C = 2 M L_h max(4 L_h (1 + sqrt(k_h k_rel / n)),
                    (1/L_rel)(1/(4n) + 2 sqrt(k_h k_rel / n)))

    where k_h = L_h/mu_h and k_rel = L_rel/mu_rel. A running minimum keeps
    the sequence non-increasing, as the step-size rule requires.
    """
    c = {k: float(constants[k]) for k in GAIN_KEYS}
    if c["M"] < 0 or any(c[k] <= 0 for k in ("mu_h", "L_h", "L_rel", "mu_rel")):
        raise InvalidConstants(f"gain constants must be positive (M nonnegative): {c}")
    kappa_h = c["L_h"] / c["mu_h"]
    kappa_rel = c["L_rel"] / c["mu_rel"]
    root = np.sqrt(kappa_h * kappa_rel / n)
    C = 2.0 * c["M"] * c["L_h"] * max(
        4.0 * c["L_h"] * (1.0 + root),
        (1.0 / c["L_rel"]) * (1.0 / (4.0 * n) + 2.0 * root),
    )
    grad_sum_norm = n * float(np.linalg.norm(state.table_mean))
    raw = min(
        c["L_rel"] * c["L_h"] / c["mu_h"],
        1.0 + C * (state.sum_dist + grad_sum_norm),
    )
    state.gain_floor = min(state.gain_floor, raw)
    return state.gain_floor


def step_policy(config, l_rel, gain):
    """Base step size for the current iteration.

    With ``gain_constants`` set this is the gain rule
    step_multiplier / (8 l_rel gain); otherwise ``eta``, or
    step_multiplier / (2 l_rel) when ``eta`` is unset. An ``l_rel`` that
    either rule needs must be finite and positive (None when the problem
    gives none).
    """
    gain_rule = config.gain_constants is not None
    if not gain_rule and config.eta is not None:
        return config.eta
    if l_rel is None:
        raise InvalidConstants("no eta configured and no L_rel available")
    if not _positive(l_rel):
        raise InvalidConstants(f"L_rel must be finite and positive, got {l_rel!r}")
    if gain_rule:
        return config.step_multiplier / (8.0 * l_rel * gain)
    return config.step_multiplier / (2.0 * l_rel)


# ---------------------------------------------------------------------------
# run harness
# ---------------------------------------------------------------------------


def halved_advance(advance, x, hx, g, eta, failure=None):
    """The halving safeguard: ``advance(x, hx, g, eta * 0.5**k)`` for k = 0,
    1, ..., MAX_HALVINGS until one raises neither StepOutOfDomain nor
    InnerSolveFailure, every try from the same x, grad h(x) ``hx`` and
    estimate ``g``. A caller that has tried eta itself passes that
    ``failure`` and the retries start at k = 1. Returns (x+, grad h(x+), k);
    StepFailure naming the last cause once every try has failed.
    """
    for k in range(0 if failure is None else 1, MAX_HALVINGS + 1):
        try:
            return (*advance(x, hx, g, eta * 0.5**k), k)
        except (StepOutOfDomain, InnerSolveFailure) as exc:
            failure = exc
    raise StepFailure(f"step failed after {MAX_HALVINGS} halvings: {failure}") from failure


class RunFailure(StepFailure):
    """StepFailure that carries the partial trace accumulated so far."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


def _epoch_draws(rng, n, steps):
    """Component indices for ``steps`` steps, drawn n at a time.

    Equal to one scalar ``rng.integers(n)`` per step, and ``rng`` ends at the
    same position, for a method that draws nothing else.
    """
    while steps > 0:
        k = min(n, steps)
        yield from rng.integers(n, size=k).tolist()
        steps -= k


def run(config, problem):
    """Execute the configured method on ``problem`` and return a Trace.

    Each iteration draws its random numbers (the component index, then for
    BSVRG the anchor refresh coin; BSGD and BSAGA draw an epoch's indices at
    once), computes the method's gradient estimate once and takes the mirror
    step at eta, handing a StepOutOfDomain or InnerSolveFailure to the
    halving safeguard :func:`halved_advance`, which retries from the same
    estimate and grad h(x). The run talks to the mirror map only through
    ``mirror = ref.for_run()``: the four Bregman methods check x0 through
    ``mirror.grad(x0)`` and carry grad h to each new iterate through
    ``mirror.advance``, so for a closed-form map the trajectory equals bit
    for bit the chain of checked steps ``grad_conjugate(grad(x) - eta g)``,
    and for a Preconditioner that of one fresh ``for_run()`` state, whose
    solves carry their Newton matrix; deterministic given the seed. MU
    takes the objective's ``mu_step`` (InvalidData without one) from an x0
    that passes ``check_mu_domain``, checked before any product A x.
    Records and the BGD and MU steps read the iterate's point ``obj.at(x)``,
    so a record and the step after it share one data pass; the stochastic
    steps build none. D_h(x_star, x) is ``mirror.divergence(x_star, x)``.
    D_f(x_star, x) reads only the data passes at x and at x_star (made once,
    for f(x_star)), through ``Point.slope_to``.
    Columns without f_star or x_star are NaN and never computed; a
    non-finite f_gap, D_h(x_star, x) or D_f(x_star, x) raises
    DomainViolation naming the column. A StepFailure or DomainViolation
    before or in the first record is bad input and is raised as it is; one
    after it raises a :class:`RunFailure` carrying the partial trace, its
    message prefixed ``iteration {t}: ``. The final iterate is left on
    ``trace.x``.
    """
    config.validate()
    obj, ref = problem.objective, problem.reference
    n = obj.n_components
    x_star, f_star = problem.x_star, problem.f_star
    comm = problem.comm_model
    full_round = comm.full_round if comm is not None else 0.0
    component = comm.component if comm is not None else 0.0
    if config.method == "mu" and not hasattr(obj, "mu_step"):
        raise InvalidData(f"method mu needs a poisson_kl objective, not {obj.kind}")
    gains = config.gain_constants
    if gains is not None:
        l_rel = gains["L_rel"]
    else:
        l_rel = problem.meta.get("L_rel") if problem.meta else None

    rng = make_rng(config.seed)
    method = config.method
    stochastic = method in ("bsgd", "bsaga", "bsvrg")
    steps_total = int(round(config.epochs * n)) if stochastic else int(round(config.epochs))
    record_every = config.record_every or (n if stochastic else 1)
    # gradient evaluations and communication cost of one step
    step_evals, step_comms = (1, component) if stochastic else (n, full_round)

    x = np.asarray(problem.x0, dtype=float).copy()
    mirror = ref.for_run()  # this run's grad, steps and divergences; ref stays untouched
    # x0 is checked before the first record: MU's domain, or grad h(x0),
    # checked once; each step carries grad h to the next iterate
    if method == "mu":
        obj.check_mu_domain(x)
        hx = None
    else:
        hx = mirror.grad(x)
    grad_evals, comms = 0, 0.0
    if method == "bsaga":
        state = SagaState.init(x, obj, store_anchors=gains is not None)
        grad_evals, comms = n, n * component  # table initialization
    elif method == "bsvrg":
        state = SvrgState.init(x, obj)
        grad_evals, comms = n, full_round

    trace = Trace(metadata={"method": method, "seed": config.seed})
    t, halvings_total = 0, 0
    min_df = np.inf
    if x_star is not None:
        star = obj.at(x_star)
        f_x_star = star.value
    start = time.perf_counter()

    def finite(column, value):
        """``value``, computed for ``column`` of a record; DomainViolation
        when it is not finite: x lies outside where the record is defined."""
        if not math.isfinite(value):
            raise DomainViolation(f"{column} is {value}, not finite")
        return value

    here = obj.at(x)

    def point():
        """The Point at the current iterate, built again after a step."""
        nonlocal here
        if here.x is not x:
            here = obj.at(x)
        return here

    def record(eta_now, gain_now):
        """Append the record of iteration t."""
        nonlocal min_df
        p = point()
        f_gap = dh_gap = min_df_gap = float("nan")
        if f_star is not None:
            f_gap = finite("f_gap", float(p.value - f_star))
        if x_star is not None:
            f_x = p.value  # read before D_h: a point outside f's domain raises first
            dh_gap = finite("dh_gap", float(mirror.divergence(x_star, x)))
            # FiniteSumObjective.f_divergence(x_star, x), term for term; the
            # slope reads only the data passes at x and x_star
            d_f = finite("min_df_gap", float(f_x_star - f_x - p.slope_to(star)))
            min_df = min(min_df, d_f)
            min_df_gap = float(min_df)
        trace.append(TraceRecord(
            iter=t, epoch=t * (1.0 / n if stochastic else 1.0), grad_evals=grad_evals,
            comms=comms, f_gap=f_gap, dh_gap=dh_gap, min_df_gap=min_df_gap, eta=eta_now,
            gain=gain_now, halvings=halvings_total, wall_s=time.perf_counter() - start))

    advance = mirror.advance

    def step(x, g):
        """The mirror step from the current iterate ``x``, whose grad h is
        ``hx``, along ``g``; a failure of the first try at eta_now goes to
        :func:`halved_advance`."""
        nonlocal halvings_total, hx
        try:
            x, hx = advance(x, hx, g, eta_now)
        except (StepOutOfDomain, InnerSolveFailure) as exc:
            x, hx, k = halved_advance(advance, x, hx, g, eta_now, exc)
            halvings_total += k
        return x

    gain_now = 1.0
    eta_now = float("nan") if method == "mu" else step_policy(config, l_rel, gain_now)

    if method == "bsvrg":
        draws = (int(rng.integers(n)) for _ in range(steps_total))
    elif stochastic:
        draws = _epoch_draws(rng, n, steps_total)
    else:
        draws = (None for _ in range(steps_total))

    try:
        record(eta_now, gain_now)
        for i in draws:
            if gains is not None:
                gain_now = gain_bound(state, gains, n)
                eta_now = step_policy(config, l_rel, gain_now)
            if method == "bsgd":
                x = step(x, obj.partial_grad(i, x))
            elif method == "bsaga":
                x = bsaga_step(state, obj, i, step).x
            elif method == "bsvrg":
                refresh = bool(rng.random() < config.p)
                x = bsvrg_step(state, obj, i, step, refresh).x
            elif method == "bgd":
                x = step(x, point().grad)
            else:
                x = point().mu_step
            t += 1
            grad_evals += step_evals
            comms += step_comms
            if method == "bsvrg" and refresh:  # the new anchor's full gradient
                grad_evals += n
                comms += full_round
            if t % record_every == 0:
                record(eta_now, gain_now)
        if trace.final.iter != t:
            record(eta_now, gain_now)
    except (StepFailure, DomainViolation) as exc:
        if not len(trace):  # x0 is bad input
            raise
        raise RunFailure(f"iteration {t}: {exc}", trace) from exc
    finally:
        trace.x = x
    return trace
