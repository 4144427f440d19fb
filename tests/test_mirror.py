"""Tests for reference functions and the mirror step ``advance``."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bregopt import (
    DomainViolation,
    Euclidean,
    InnerSolveFailure,
    LogBarrier,
    LogisticL2,
    NegEntropy,
    Preconditioner,
    ReferenceFunction,
    StepFailure,
    StepOutOfDomain,
    make_reference,
    mirror,
)
from bregopt.rng import make_rng

KINDS = ("euclidean", "log_barrier", "neg_entropy")


def advance_step(ref, x, g, eta):
    """x+ of the package's mirror step ``advance`` from a checked grad h(x)."""
    return ref.advance(x, ref.grad(x), g, eta)[0]


def interior_point(kind, rng, d):
    if kind == "euclidean":
        return rng.normal(size=d)
    return rng.uniform(0.2, 2.0, size=d)


class TestLogBarrier:
    def test_grad(self):
        ref = LogBarrier()
        np.testing.assert_allclose(ref.grad(np.array([1.0, 2.0])), [-1.0, -0.5])

    def test_divergence_closed_form(self):
        ref = LogBarrier()
        x = np.array([np.e])
        y = np.array([1.0])
        assert ref.divergence(x, y) == pytest.approx(np.e - 2.0, rel=1e-12)
        # finite where x/y - 1 rounds to -1
        tiny = ref.divergence(np.array([1e-20]), y)
        assert tiny == pytest.approx(20.0 * np.log(10.0) - 1.0, rel=1e-12)
        # the generic form agrees away from the diagonal
        rng = make_rng(1)
        for _ in range(50):
            x = rng.uniform(0.1, 3.0, size=4)
            y = rng.uniform(0.1, 3.0, size=4)
            generic = ReferenceFunction.divergence(ref, x, y)
            assert ref.divergence(x, y) == pytest.approx(generic, rel=1e-12)

    def test_mirror_step_scalar(self):
        ref = LogBarrier()
        out = advance_step(ref, np.array([1.0]), np.array([1.0]), 0.5)
        np.testing.assert_allclose(out, [2.0 / 3.0], rtol=1e-12)

    def test_step_out_of_domain(self):
        ref = LogBarrier()
        with pytest.raises(StepOutOfDomain) as info:
            advance_step(ref, np.array([1.0]), np.array([-3.0]), 0.5)
        assert info.value.index == 0

    def test_nan_dual_point_out_of_domain(self):
        # grad h(1) - 0.1 * nan is nan in component 0, which is not < 0
        with pytest.raises(StepOutOfDomain) as info:
            advance_step(LogBarrier(), np.ones(3), np.array([np.nan, 0.0, 0.0]), 0.1)
        assert info.value.index == 0
        with pytest.raises(DomainViolation) as info:
            LogBarrier().grad_conjugate(np.array([-1.0, np.nan]))
        assert info.value.index == 1

    def test_subnormal_dual_point_out_of_domain(self):
        # grad h(1e300) - g cancels to a negative subnormal y; -1/y is inf
        x = np.array([1.0, 1e300])
        g = np.array([0.0, np.nextafter(-1.0 / 1e300, 0.0)])
        with pytest.raises(StepOutOfDomain) as info:
            advance_step(LogBarrier(), x, g, 1.0)
        assert info.value.index == 1
        with pytest.raises(DomainViolation) as info:
            LogBarrier().grad_conjugate(np.array([-1.0, -5e-324]))
        assert info.value.index == 1

    def test_divergence_nonnegative(self):
        ref = LogBarrier()
        rng = make_rng(0)
        for _ in range(50):
            x = rng.uniform(0.1, 3.0, size=4)
            y = rng.uniform(0.1, 3.0, size=4)
            assert ref.divergence(x, y) >= 0.0
        # near the diagonal the generic h(x) - h(y) - <grad h(y), x - y>
        # cancels to roundoff of either sign
        for rel in 10.0 ** -np.arange(1, 17):
            for _ in range(50):
                y = rng.uniform(0.1, 3.0, size=4)
                x = y * (1.0 + rel * rng.standard_normal(4))
                assert ref.divergence(x, y) >= 0.0
        assert ref.divergence(y, y) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.one_of(
            st.tuples(st.floats(1e-8, 1e8), st.floats(1e-8, 1e8)),
            st.builds(
                lambda y, u, k: (y * (1.0 + u * 10.0**k), y),
                st.floats(1e-8, 1e8),
                st.floats(-1.0, 1.0, exclude_min=True),
                st.integers(-16, 0),
            ),
        ),
        min_size=1, max_size=8,
    ))
    def test_divergence_never_negative(self, pairs):
        x, y = np.array(pairs).T
        assert LogBarrier().divergence(x, y) >= 0.0


class TestEuclidean:
    def test_mirror_step_is_gradient_step(self):
        ref = Euclidean()
        out = advance_step(ref, np.array([1.0, 2.0]), np.array([1.0, 0.0]), 0.5)
        np.testing.assert_allclose(out, [0.5, 2.0])

    @pytest.mark.parametrize("g, index", [
        ([np.inf, 0.0], 0),
        ([0.0, -np.inf], 1),
        ([1.0, np.nan], 1),
    ])
    def test_non_finite_dual_point_out_of_domain(self, g, index):
        with pytest.raises(StepOutOfDomain) as info:
            advance_step(Euclidean(), np.zeros(2), np.array(g), 1.0)
        assert info.value.index == index
        with pytest.raises(DomainViolation) as info:
            Euclidean().grad_conjugate(-np.array(g))
        assert info.value.index == index
        y = np.array([1e308, -1e308])
        np.testing.assert_array_equal(Euclidean().grad_conjugate(y), y)

    def test_divergence_is_half_squared_distance(self):
        ref = Euclidean()
        x = np.array([1.0, -2.0])
        y = np.array([0.0, 1.0])
        assert ref.divergence(x, y) == pytest.approx(0.5 * np.sum((x - y) ** 2))


class TestNegEntropy:
    def test_grad_and_dual_grad(self):
        ref = NegEntropy()
        x = np.array([0.5, 2.0])
        np.testing.assert_allclose(ref.grad(x), np.log(x) + 1.0)
        np.testing.assert_allclose(ref.grad_conjugate(ref.grad(x)), x, rtol=1e-12)

    @pytest.mark.parametrize("g, index", [
        ([-1000.0, 0.0], 0),  # exp(y - 1) overflows to inf
        ([0.0, 1000.0], 1),  # exp(y - 1) underflows to 0
        ([0.0, np.nan], 1),
    ])
    def test_step_out_of_float_range(self, g, index):
        with pytest.raises(StepOutOfDomain) as info:
            advance_step(NegEntropy(), np.ones(2), np.array(g), 1.0)
        assert info.value.index == index
        with pytest.raises(DomainViolation) as info:
            NegEntropy().grad_conjugate(np.ones(2) - np.array(g))
        assert info.value.index == index


@pytest.mark.parametrize("ref", [LogBarrier(), NegEntropy()], ids=lambda r: r.kind)
@pytest.mark.parametrize("x, index", [
    ([np.nan, 1.0], 0),
    ([1.0, np.nan], 1),
    ([1.0, 0.0], 1),
    ([-np.inf, 1.0], 0),
])
def test_primal_point_outside_positive_orthant(ref, x, index):
    # NaN fails the x > 0 test like 0 and negative coordinates do
    x = np.array(x)
    with pytest.raises(DomainViolation) as info:
        ref.grad(x)
    assert info.value.index == index
    with pytest.raises(DomainViolation):
        ref.divergence(np.ones(2), x)
    with pytest.raises(DomainViolation):
        advance_step(ref, x, np.zeros(2), 0.1)


@pytest.mark.parametrize("ref", [LogBarrier(), NegEntropy()], ids=lambda r: r.kind)
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_accepted_dual_points_have_finite_positive_images(ref, v):
    y = np.array([1.0 if ref.kind == "neg_entropy" else -1.0, v])
    try:
        x = ref.grad_conjugate(y)
    except DomainViolation as exc:
        assert exc.index == 1
        assert not ref.dual_ok(y)[1]
    else:
        assert np.all(np.isfinite(x)) and np.all(x > 0)
        assert ref.dual_ok(y).all()


class TestConjugatePairs:
    @pytest.mark.parametrize("kind", KINDS)
    def test_grad_roundtrip(self, kind):
        ref = make_reference(kind)
        rng = make_rng(3)
        for _ in range(20):
            x = interior_point(kind, rng, 5)
            back = ref.grad_conjugate(ref.grad(x))
            np.testing.assert_allclose(back, x, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_fenchel_equality(self, kind):
        ref = make_reference(kind)
        rng = make_rng(4)
        for _ in range(20):
            x = interior_point(kind, rng, 5)
            y = ref.grad(x)
            total = ref.value(x) + ref._conjugate_value(y)
            assert total == pytest.approx(float(x @ y), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("kind", KINDS)
    def test_grad_matches_finite_difference(self, kind):
        ref = make_reference(kind)
        rng = make_rng(5)
        x = interior_point(kind, rng, 4)
        g = ref.grad(x)
        eps = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = eps
            fd = (ref.value(x + e) - ref.value(x - e)) / (2 * eps)
            assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-5)


class TestMakeReference:
    def test_known_kinds(self):
        assert isinstance(make_reference("euclidean"), Euclidean)
        assert isinstance(make_reference("log_barrier"), LogBarrier)
        assert isinstance(make_reference("neg_entropy"), NegEntropy)

    def test_unknown_kind(self):
        with pytest.raises(Exception):
            make_reference("not_a_reference")


class TestPreconditioner:
    @pytest.fixture(autouse=True)
    def tight_solves(self, monkeypatch):
        # each solve here must reach 1e-10, within 200 Newton steps
        monkeypatch.setattr(mirror, "INNER_TOL", 1e-10)
        monkeypatch.setattr(mirror, "INNER_PASSES", 200)

    def build(self, sparse=False):
        rng = make_rng(8)
        A = rng.normal(size=(30, 5))
        labels = np.sign(rng.normal(size=30))
        labels[labels == 0] = 1.0
        inner = LogisticL2(sp.csr_matrix(A) if sparse else A, labels, lam=0.01)
        return Preconditioner(inner, c_prec=0.1)

    def test_grad_conjugate_inverts_grad(self):
        ref = self.build()
        rng = make_rng(9)
        x = rng.normal(size=5) * 0.5
        back = ref.grad_conjugate(ref.grad(x))
        np.testing.assert_allclose(back, x, rtol=1e-6, atol=1e-6)

    def test_divergence_nonnegative_and_zero_at_equal(self):
        ref = self.build()
        rng = make_rng(10)
        x = rng.normal(size=5) * 0.5
        y = rng.normal(size=5) * 0.5
        assert ref.divergence(x, y) >= -1e-12
        assert ref.divergence(x, x) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_divergence_is_the_generic_route_bytewise(self, sparse):
        ref = self.build(sparse)
        rng = make_rng(12)
        for _ in range(5):
            x, y = rng.normal(size=(2, 5))
            generic = ReferenceFunction.divergence(ref, x, y)
            assert ref.divergence(x, y).hex() == generic.hex()

    def test_newton_cap_raises_inner_solve_failure(self, monkeypatch):
        ref = self.build()
        monkeypatch.setattr(mirror, "INNER_TOL", 1e-300)
        monkeypatch.setattr(mirror, "INNER_PASSES", 1)
        y = ref.grad(np.full(5, 0.5))
        with pytest.raises(InnerSolveFailure, match="above inner_tol .* within 1 Newton") as info:
            ref.grad_conjugate(y)
        assert isinstance(info.value, StepFailure)
        with pytest.raises(InnerSolveFailure, match="non-finite"):
            ref.grad_conjugate(np.full(5, np.nan))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sparse=st.booleans(), warm=st.booleans(),
       scale=st.floats(0.1, 3.0), lam=st.sampled_from([1e-5, 1e-2]))
def test_preconditioner_conjugate_meets_inner_tol(seed, sparse, warm, scale, lam):
    # the conjugate map solves from 0; warm, advance solves from a start
    # near the solution, for the dual point it forms there
    rng = make_rng(seed)
    A = rng.normal(size=(40, 5)) * (rng.random(size=(40, 5)) < 0.7)
    labels = np.where(rng.random(40) < 0.5, -1.0, 1.0)
    inner = LogisticL2(sp.csr_matrix(A) if sparse else A, labels, lam=lam)
    ref = Preconditioner(inner, c_prec=lam)
    x_true = scale * rng.normal(size=5)
    y = ref.grad(x_true)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mirror, "INNER_TOL", 1e-8)
        patch.setattr(mirror, "INNER_PASSES", 50)
        if warm:
            start = x_true + 0.1 * rng.normal(size=5)
            hx = ref.grad(start)
            g = hx - y
            y = hx - 1.0 * g
            x = ref.advance(start, hx, g, 1.0)[0]
        else:
            x = ref.grad_conjugate(y)
    assert np.linalg.norm(ref.grad(x) - y) <= 1e-8


_SPECIAL = [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-300, 800.0, -800.0]


def _outcome(method, *args):
    """("ok", result) or ("err", DomainViolation or StepOutOfDomain index) of
    one call."""
    try:
        return "ok", method(*args)
    except (DomainViolation, StepOutOfDomain) as exc:
        return "err", exc.index


def _first_bad_entry(mask):
    """Index of the first False entry of ``mask`` in C order, or None: an int
    for a 1-D mask, a tuple for a stack."""
    bad = np.argwhere(~mask)
    if not len(bad):
        return None
    return int(bad[0][0]) if mask.ndim == 1 else tuple(int(i) for i in bad[0])


def _stacks(count):
    """``count`` arrays of one shape (rows, d): mostly moderate values, some
    specials that leave a domain."""
    elements = st.one_of(st.floats(-30.0, 30.0), st.sampled_from(_SPECIAL))
    return st.tuples(st.integers(1, 5), st.integers(1, 12)).flatmap(
        lambda shape: st.tuples(*[arrays(np.float64, shape, elements=elements)] * count)
    )


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=_stacks(2))
def test_batched_rows_match_1d_calls_bytewise(kind, data):
    ref = make_reference(kind)
    a, b = data
    # primal points on the positive orthant, dual points on the side grad h
    # maps it to; the specials still leave the domains
    if kind == "euclidean":
        X, Y, A, B = a, b, a, b
    else:
        X, Y = np.abs(a), np.abs(b)
        A, B = (-X, -Y) if kind == "log_barrier" else (a, b)
    masks = [("dual_ok", A, "grad_conjugate")]
    if kind != "euclidean":
        masks.append(("domain_ok", X, "grad"))
    for name, S, checked in masks:
        mask = getattr(ref, name)
        batched = mask(S)
        for i, row in enumerate(S):
            assert batched[i].tobytes() == mask(row).tobytes()
        # the checked entry point raises at the mask's first False entry
        with np.errstate(all="ignore"):
            for point in (S, *S):
                status, index = _outcome(getattr(ref, checked), point)
                expected = _first_bad_entry(mask(point))
                assert (index if status == "err" else None) == expected
                if status == "err":
                    assert type(index) is (int if point.ndim == 1 else tuple)
    calls = [
        ("value", (X,), False), ("grad", (X,), True), ("divergence", (X, Y), True),
        ("_grad_conjugate", (A,), False), ("_conjugate_value", (A,), False),
        ("grad_conjugate", (A,), True), ("dual_divergence", (A, B), True),
    ]
    with np.errstate(all="ignore"):
        for name, args, checked in calls:
            method = getattr(ref, name)
            rows = [_outcome(method, *(s[i] for s in args)) for i in range(len(args[0]))]
            for status, value in rows:
                if status == "ok" and np.ndim(value) == 0:
                    assert type(value) is float
            kept = [i for i, (status, _) in enumerate(rows) if status == "ok"]
            if kept:
                batched = method(*(s[kept] for s in args))
                for j, i in enumerate(kept):
                    assert np.asarray(batched[j]).tobytes() == np.asarray(rows[i][1]).tobytes()
            status, index = _outcome(method, *args)
            failing = [i for i, (s, _) in enumerate(rows) if s == "err"]
            assert (status == "err") == bool(failing)
            if status == "err":
                row, column = index
                assert rows[row][0] == "err"
                if len(args) == 1:
                    assert (row, column) == (failing[0], rows[row][1])


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=_stacks(2), eta=st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
def test_stacked_mirror_step_rows_match_1d_steps_bytewise(kind, data, eta):
    # one (d,) iterate and a stack of estimates, as in the successor
    # potentials of criterion 5; large estimates leave the domains. Each row
    # of the stacked advance, x+ and grad h(x+), is the 1-D step's
    ref = make_reference(kind)
    a, G = data
    x = a[0] if kind == "euclidean" else np.abs(a[0]) + 0.1
    assume(np.all(np.isfinite(x)))
    hx = ref.grad(x)
    with np.errstate(all="ignore"):
        rows = [_outcome(ref.advance, x, hx, g, eta) for g in G]
        status, value = _outcome(ref.advance, x, hx, G, eta)
    failing = [k for k, (s, _) in enumerate(rows) if s == "err"]
    if not failing:
        assert status == "ok"
        X, HX = value
        assert X.shape == HX.shape == G.shape
        for k, (_, (x_k, hx_k)) in enumerate(rows):
            assert X[k].tobytes() == x_k.tobytes()
            assert HX[k].tobytes() == hx_k.tobytes()
    else:
        assert status == "err" and value == (failing[0], rows[failing[0]][1])


def test_preconditioner_rejects_a_stack():
    rng = make_rng(8)
    A = rng.normal(size=(30, 5))
    inner = LogisticL2(A, np.where(rng.normal(size=30) < 0, -1.0, 1.0), lam=0.01)
    ref = Preconditioner(inner, c_prec=0.1)
    with pytest.raises(ValueError, match="1-D"):
        ref.grad_conjugate(np.zeros((2, 5)))
    with pytest.raises(ValueError, match="closed-form conjugate"):
        ref.dual_divergence(np.zeros((5, 5)), np.zeros(5))


@pytest.mark.parametrize("kind", KINDS + ("preconditioner",))
def test_a_fresh_run_state_is_the_map_bit_for_bit(kind):
    # run() talks to a map only through for_run(): grad h(x0), then steps,
    # then D_h(x_star, x). A fresh state gives the map's own floats: a
    # closed-form map is its own state; the Preconditioner's reads its
    # carried inner point where the map makes a pass
    rng = make_rng(14)
    if kind == "preconditioner":
        A = rng.normal(size=(30, 5))
        inner = LogisticL2(A, np.where(rng.normal(size=30) < 0, -1.0, 1.0), lam=0.01)
        ref = Preconditioner(inner, c_prec=0.1)
        x, x_star = rng.normal(size=(2, 5))
    else:
        ref = make_reference(kind)
        x, x_star = (interior_point(kind, rng, 5) for _ in range(2))
    g = 0.1 * rng.normal(size=5)
    state = ref.for_run()
    assert (state is ref) == (kind != "preconditioner")
    hx = state.grad(x)
    assert hx.tobytes() == ref.grad(x).tobytes()
    x_new, hx_new = state.advance(x, hx, g, 0.1)
    expected = ref.advance(x, ref.grad(x), g, 0.1)
    assert x_new.tobytes() == expected[0].tobytes() and hx_new.tobytes() == expected[1].tobytes()
    for a, b in ((x_star, x_new), (x_star, x), (x, x_new)):
        assert state.divergence(a, b).hex() == ref.divergence(a, b).hex()
