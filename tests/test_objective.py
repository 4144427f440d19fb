"""Tests for the finite-sum objectives and relative-smoothness constants."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bregopt import (
    DiagonalQuadratic,
    DomainViolation,
    InvalidData,
    LogisticL2,
    PoissonKL,
)
from bregopt.objective import _counts, _issparse, _log1pexp, _sigmoid
from bregopt.problems import gen_tomography, load_instance, save_instance
from bregopt.rng import make_rng


def finite_difference_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = eps
        g[j] = (f(x + e) - f(x - e)) / (2 * eps)
    return g


class TestPoissonKL:
    def test_scalar_value_and_grad(self):
        obj = PoissonKL(np.array([[2.0]]), np.array([1.0]))
        x = np.array([1.0])
        assert obj.value(x) == pytest.approx(1.0 - np.log(2.0), rel=1e-12)
        np.testing.assert_allclose(obj.full_grad(x), [1.0], rtol=1e-12)

    def test_zero_count_convention(self):
        # a row with b_i = 0 contributes (Ax)_i to the value
        obj = PoissonKL(np.array([[1.0], [3.0]]), np.array([0.0, 0.0]))
        x = np.array([2.0])
        assert obj.value(x) == pytest.approx((2.0 + 6.0) / 2.0)

    def test_full_grad_is_mean_of_partials(self):
        rng = make_rng(1)
        A = rng.uniform(0.1, 1.0, size=(6, 3))
        b = rng.uniform(0.5, 3.0, size=6)
        obj = PoissonKL(A, b)
        x = rng.uniform(0.5, 2.0, size=3)
        mean_partial = np.mean([obj.partial_grad(i, x) for i in range(6)], axis=0)
        np.testing.assert_allclose(obj.full_grad(x), mean_partial, rtol=1e-12)

    def test_grad_matches_finite_difference(self):
        rng = make_rng(2)
        A = rng.uniform(0.1, 1.0, size=(5, 3))
        b = rng.uniform(0.5, 3.0, size=5)
        obj = PoissonKL(A, b, barrier_weight=0.3)
        x = rng.uniform(0.5, 2.0, size=3)
        fd = finite_difference_grad(obj.value, x)
        np.testing.assert_allclose(obj.full_grad(x), fd, rtol=1e-5, atol=1e-5)

    def test_hess_vec_matches_finite_difference(self):
        # dense and CSR, ungrouped and grouped, with and without the barrier
        rng = make_rng(3)
        A = rng.uniform(0.1, 1.0, size=(6, 3))
        A[rng.random(size=(6, 3)) < 0.3] = 0.0
        A[:, 0] += 0.1  # no zero row
        b = rng.uniform(0.5, 3.0, size=6)
        b[2] = 0.0
        groups = [np.array([0, 1]), np.array([2, 3, 4]), np.array([5])]
        for M in (A, sp.csr_matrix(A)):
            for g in (None, groups):
                for weight in (0.0, 0.3):
                    obj = PoissonKL(M, b, groups=g, barrier_weight=weight)
                    x = rng.uniform(0.5, 2.0, size=3)
                    u = rng.normal(size=3)
                    eps = 1e-6
                    fd = (obj.full_grad(x + eps * u) - obj.full_grad(x - eps * u)) / (2 * eps)
                    H = obj.hessian(x)
                    assert type(H) is np.ndarray and H.shape == (3, 3)
                    np.testing.assert_allclose(H, H.T, rtol=1e-12)
                    np.testing.assert_allclose(H @ u, fd, rtol=1e-5, atol=1e-5)

    def test_grouped_components(self):
        rng = make_rng(4)
        A = rng.uniform(0.1, 1.0, size=(6, 3))
        b = rng.uniform(0.5, 3.0, size=6)
        groups = [np.array([0, 1, 2]), np.array([3, 4, 5])]
        obj = PoissonKL(A, b, groups=groups)
        assert obj.n_components == 2
        x = rng.uniform(0.5, 2.0, size=3)
        mean_partial = np.mean([obj.partial_grad(i, x) for i in range(2)], axis=0)
        np.testing.assert_allclose(obj.full_grad(x), mean_partial, rtol=1e-12)

    def test_domain_violation(self):
        obj = PoissonKL(np.array([[1.0]]), np.array([2.0]))
        with pytest.raises(DomainViolation):
            obj.value(np.array([0.0]))

    def test_barrier_rejects_nan_point(self):
        # zero counts: no observed row's rate sees the NaN, the barrier does
        obj = PoissonKL(np.ones((2, 2)), np.zeros(2), barrier_weight=0.1)
        with pytest.raises(DomainViolation, match="barrier") as info:
            obj.value(np.array([1.0, np.nan]))
        assert info.value.index == 1

    @pytest.mark.parametrize("sparse", [False, True])
    def test_barrier_rejects_negative_coordinate_everywhere(self, sparse):
        # both rates stay positive at x, so only the barrier sees x_1 < 0
        A = np.array([[1.0, 0.1], [1.0, 0.2]])
        obj = PoissonKL(sp.csr_matrix(A) if sparse else A, [1.0, 1.0], barrier_weight=0.3)
        x = np.array([1.0, -0.5])
        for call in (obj.value, obj.full_grad, obj.hessian,
                     lambda x: obj.partial_grad(0, x),
                     lambda x: obj.partial_grad(np.array([1, 0]), x)):
            with pytest.raises(DomainViolation, match="barrier") as info:
                call(x)
            assert info.value.index == 1

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("groups", [None, [np.array([0, 1]), np.array([2])]])
    def test_zero_row_with_positive_count_rejected(self, sparse, groups):
        # row 1 is zero; its group also holds the nonzero row 0
        A = np.array([[1.0, 2.0], [0.0, 0.0], [0.5, 0.0]])
        A = sp.csr_matrix(A) if sparse else A
        with pytest.raises(InvalidData, match="row 1 of A is zero"):
            PoissonKL(A, [1.0, 2.0, 1.0], groups=groups)
        PoissonKL(A, [1.0, 0.0, 1.0], groups=groups)  # a zero count is allowed

    def test_negative_data_rejected(self):
        with pytest.raises(InvalidData):
            PoissonKL(np.array([[-1.0]]), np.array([1.0]))
        with pytest.raises(InvalidData):
            PoissonKL(np.array([[1.0]]), np.array([-1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, bad):
        with pytest.raises(InvalidData, match="b must be finite"):
            PoissonKL(np.ones((2, 2)), [bad, 1.0])
        for A in (np.array([[1.0, bad], [1.0, 1.0]]), sp.csr_matrix([[1.0, bad], [1.0, 1.0]])):
            with pytest.raises(InvalidData, match="A must be finite"):
                PoissonKL(A, [1.0, 1.0])
        with pytest.raises(InvalidData, match="barrier_weight must be finite"):
            PoissonKL(np.ones((2, 2)), [1.0, 1.0], barrier_weight=bad)

    @pytest.mark.parametrize("groups", [
        [np.array([0]), np.array([3])],   # past the last row
        [np.array([0]), np.array([-1])],  # negative rows are not wrapped
        [np.array([[0, 1]])],             # not 1-D
        [np.array([0.0, 1.0])],           # not integer
        [np.array([], dtype=np.int64)],   # empty
        [],                               # no components
    ])
    def test_bad_groups_rejected(self, groups):
        A = np.ones((3, 2))
        with pytest.raises(InvalidData):
            PoissonKL(A, np.ones(3), groups=groups)
        with pytest.raises(InvalidData):
            LogisticL2(A, np.ones(3), groups=groups)

    def test_counts_must_match_rows(self):
        with pytest.raises(InvalidData):
            PoissonKL(np.ones((3, 2)), np.ones(2))
        with pytest.raises(InvalidData):
            LogisticL2(np.ones((3, 2)), np.ones(4))


ROW_OBJECTIVES = {"poisson": PoissonKL, "logistic": LogisticL2}


class TestRowObjective:
    """The checks that PoissonKL and LogisticL2 share through one holder."""

    @pytest.mark.parametrize("name", ROW_OBJECTIVES)
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("A, rows, message", [
        (np.ones((3, 2)), 2, "A must be a matrix with one row per"),
        (np.ones((3, 0)), 3, "the objective needs at least one unknown"),
        (np.array([[1.0, np.nan], [1.0, 1.0], [1.0, 1.0]]), 3, "A must be finite"),
        (np.array([[1.0, np.inf], [1.0, 1.0], [1.0, 1.0]]), 3, "A must be finite"),
    ])
    def test_bad_operator_rejected(self, name, sparse, A, rows, message):
        cls = ROW_OBJECTIVES[name]
        with pytest.raises(InvalidData, match=f"^{cls.kind}: {message}"):
            cls(sp.csr_matrix(A) if sparse else A, np.ones(rows))

    @pytest.mark.parametrize("name", ROW_OBJECTIVES)
    @pytest.mark.parametrize("groups, message", [
        ([[0], [0, 1], [2]], "groups overlap at row 0"),
        ([[0, 1], [2, 1]], "groups overlap at row 1"),
        ([[0, 2, 2], [1]], "groups overlap at row 2"),
        ([[0], [1]], "groups leave row 2 uncovered"),
        ([[2, 0]], "groups leave row 1 uncovered"),
        ([[0], [3]], r"group indices must lie in \[0, 3\)"),
    ])
    def test_groups_must_partition_the_rows(self, name, groups, message):
        # otherwise the full objective is not the mean of its components
        cls = ROW_OBJECTIVES[name]
        A = np.array([[1.0, 2.0], [3.0, 1.0], [0.5, 0.5]])
        with pytest.raises(InvalidData, match=f"^{cls.kind}: {message}"):
            cls(A, [1.0, -1.0, 1.0] if cls is LogisticL2 else [1.0, 2.0, 1.0],
                groups=[np.array(g) for g in groups])

    def test_shape_is_held_as_attributes(self):
        A = np.ones((6, 3))
        objs = (PoissonKL(A, np.ones(6), groups=[np.arange(4), np.arange(4, 6)]),
                LogisticL2(A, np.ones(6), groups=[np.arange(4), np.arange(4, 6)]),
                DiagonalQuadratic(np.ones((2, 3)), np.zeros((2, 3))))
        for obj in objs:
            assert (obj.n_components, obj.dim) == (2, 3)
            assert {"n_components", "dim"} <= vars(obj).keys()


@st.composite
def poisson_with_nan_point(draw):
    """A dense or CSR PoissonKL with positive entries and counts, grouped or
    not, with or without the barrier, and a point with one NaN coordinate:
    every rate comes out NaN."""
    sparse = draw(st.booleans())
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    A = np.array(draw(st.lists(st.floats(1e-3, 10.0), min_size=n * d, max_size=n * d)))
    b = np.array(draw(st.lists(st.floats(0.5, 10.0), min_size=n, max_size=n)))
    cuts = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
    groups = np.split(np.arange(n), sorted(cuts)) if draw(st.booleans()) else None
    weight = draw(st.sampled_from([0.0, 0.3]))
    M = A.reshape(n, d)
    obj = PoissonKL(sp.csr_matrix(M) if sparse else M, b, groups=groups, barrier_weight=weight)
    x = np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=d, max_size=d)))
    x[draw(st.integers(0, d - 1))] = np.nan
    return obj, x


@settings(max_examples=100, deadline=None)
@given(poisson_with_nan_point())
def test_nan_coordinate_raises_at_every_entry_point(case):
    # a NaN rate is not positive: no entry point returns NaN, and a point
    # raises again on every read (a failed data pass is not kept)
    obj, x = case
    every = np.arange(obj.n_components)
    here = obj.at(x)
    calls = [lambda: obj.value(x), lambda: obj.full_grad(x), lambda: obj.hessian(x),
             lambda: here.value, lambda: here.grad, lambda: here.hessian(), lambda: here.value,
             lambda: obj.value_component(every, x), lambda: obj.partial_grad(every, x)]
    calls += [lambda i=i: obj.value_component(i, x) for i in range(obj.n_components)]
    calls += [lambda i=i: obj.partial_grad(i, x) for i in range(obj.n_components)]
    if not obj.barrier_weight:
        calls += [lambda: obj.mu_step(x), lambda: here.mu_step, lambda: obj.at(x).mu_step]
    for call in calls:
        with pytest.raises(DomainViolation) as info:
            call()
        assert info.value.index is not None


def _block_grad(obj, j, x):
    """Component gradient of row j through the (1, d) block path, the
    barrier's domain checked after the rate's."""
    A, counts = obj.A[j:j + 1], _counts(obj.b[j:j + 1])
    g = obj._kl_grad(A.T, obj._rates(A, counts, x), counts)
    return g - obj.barrier_weight / x if obj._barrier_on(x) else g


@st.composite
def singleton_poisson(draw):
    """A dense PoissonKL with one row per component, groups implicit or an
    explicit permutation of the rows, and a point that may leave the domain
    through its zero or negative coordinates. A zero row gets a zero count,
    as PoissonKL requires."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
    A = np.array(draw(st.lists(entry, min_size=n * d, max_size=n * d))).reshape(n, d)
    b = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    b[~A.any(axis=1)] = 0.0
    order = draw(st.one_of(st.none(), st.permutations(range(n))))
    groups = None if order is None else [np.array([j]) for j in order]
    weight = draw(st.sampled_from([0.0, 0.3]))
    x = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 5.0)),
                               min_size=d, max_size=d)))
    return PoissonKL(A, b, groups=groups, barrier_weight=weight), order, x


class TestRowKernel:
    @settings(max_examples=300, deadline=None)
    @given(singleton_poisson())
    def test_matches_block_path_bytewise(self, case):
        obj, order, x = case
        assert obj._rows is not None
        for i in range(obj.n_components):
            j = i if order is None else order[i]
            with np.errstate(all="ignore"):
                try:
                    want = _block_grad(obj, j, x)
                except DomainViolation as exc:
                    with pytest.raises(DomainViolation) as info:
                        obj.partial_grad(i, x)
                    assert str(info.value) == str(exc)
                    assert info.value.index == exc.index
                    continue
                got = obj.partial_grad(i, x)
            assert got.tobytes() == want.tobytes()

    def test_rows_are_views_of_a(self):
        A = make_rng(5).uniform(0.1, 1.0, size=(4, 3))
        obj = PoissonKL(A, np.ones(4), groups=[np.array([2]), np.array([0]),
                                               np.array([3]), np.array([1])])
        assert obj.n_components == 4
        assert all(a.base is obj.A for a, _ in obj._rows)
        assert PoissonKL(A, np.ones(4), groups=[np.array([0, 1]), np.array([2, 3])])._rows is None
        assert PoissonKL(sp.csr_matrix(A), np.ones(4))._rows is None


def fresh_rates(A, b, x):
    """A x, and the index of the first observed row with a nonpositive rate
    (None when there is none)."""
    rates = np.asarray(A @ x).ravel()
    bad = (b > 0) & ~(rates > 0)  # a NaN rate is not positive
    return rates, (int(np.argmax(bad)) if bad.any() else None)


def barrier_violation(x):
    """The index of the first coordinate of x that is not > 0 (None when
    there is none), where a barrier term fails."""
    bad = ~(x > 0)  # NaN is not positive
    return int(np.argmax(bad)) if bad.any() else None


def fresh_kl_grad(A, b, x):
    """A^T (1 - b / Ax) on the observed rows, A^T built on the spot."""
    rates, bad = fresh_rates(A, b, x)
    if bad is not None:
        return bad
    coeff = np.ones_like(rates)
    pos = b > 0
    coeff[pos] = 1.0 - b[pos] / rates[pos]
    return np.asarray(A.T @ coeff).ravel()


def fresh_weights(obj, x):
    """The Hessian's row weights b / (Ax)^2, 0 on the rows with a zero
    count, or the index where ``fresh_rates`` fails."""
    rates, bad = fresh_rates(obj.A, obj.b, x)
    if bad is not None:
        return bad
    w = np.zeros_like(rates)
    pos = obj.b > 0
    w[pos] = obj.b[pos] / rates[pos] ** 2
    return w


def fresh_hess_vec(obj, x, u):
    w = fresh_weights(obj, x)
    if isinstance(w, int):
        return w
    Au = np.asarray(obj.A @ u).ravel()
    Hu = np.asarray(obj.A.T @ (w * Au)).ravel() / obj.n_components
    if not obj.barrier_weight:
        return Hu
    bad = barrier_violation(x)
    return Hu + obj.barrier_weight * u / x**2 if bad is None else bad


def fresh_mu_step(obj, x):
    if not (x >= 0).all():
        return int(np.argmin(x >= 0))
    rates, bad = fresh_rates(obj.A, obj.b, x)
    if bad is not None:
        return bad
    ratio = np.zeros_like(rates)
    obs = obj.b > 0
    ratio[obs] = obj.b[obs] / rates[obs]
    num = np.asarray(obj.A.T @ ratio).ravel()
    den = np.asarray(obj.A.T @ np.ones(obj.A.shape[0])).ravel()
    out = x.copy()
    live = den > 0
    out[live] = x[live] * (num[live] / den[live])
    return out


def same_or_same_violation(call, want):
    """``call()`` equals the array ``want`` byte for byte, or raises
    DomainViolation at index ``want`` when ``want`` is an int."""
    if isinstance(want, int):
        with pytest.raises(DomainViolation) as info:
            call()
        assert info.value.index == want
    else:
        assert call().tobytes() == want.tobytes()


@st.composite
def grouped_poisson(draw):
    """A sparse or dense PoissonKL with row blocks (a dense one has a block
    of at least two rows, so the block path is taken), and points that may
    leave the domain through zero or negative coordinates. Half of the
    time the blocks are contiguous row ranges, which are views of A."""
    sparse = draw(st.booleans())
    first = 1 if sparse else 2  # the smallest end of the first block
    n, d = draw(st.integers(first, 8)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
    A = np.array(draw(st.lists(entry, min_size=n * d, max_size=n * d))).reshape(n, d)
    b = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    b[~A.any(axis=1)] = 0.0
    order = np.arange(n) if draw(st.booleans()) else np.array(draw(st.permutations(range(n))))
    cuts = draw(st.sets(st.integers(first, n - 1))) if n > first else set()
    groups = np.split(order, sorted(cuts))
    weight = draw(st.sampled_from([0.0, 0.3]))
    obj = PoissonKL(sp.csr_matrix(A) if sparse else A, b, groups=groups, barrier_weight=weight)
    point = st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 5.0)), min_size=d, max_size=d)
    return obj, np.array(draw(point)), np.array(draw(point))


class TestCachedOperators:
    @settings(max_examples=150, deadline=None)
    @given(grouped_poisson())
    @example((PoissonKL(np.array([[0, 0.1, 7, 7], [0.5, 0, 0.1, 5], [5, 2, 3, 3], [0.3, 2, 0, 1]]),
                        np.array([0.1, 5, 0, 0]), groups=[np.array([0, 1]), np.array([2, 3])]),
              np.array([0.0, 0, 0, 1]), np.array([0, 0, 0, 2.2e-309])))
    def test_match_freshly_built_transposes_bytewise(self, case):
        obj, x, u = case
        assert obj._rows is None
        bw = obj.barrier_weight
        with np.errstate(all="ignore"):
            for i, g in enumerate(obj.groups):
                want = fresh_kl_grad(obj.A[g], obj.b[g], x)
                if bw and not isinstance(want, int):
                    bad = barrier_violation(x)
                    want = want - bw / x if bad is None else bad
                same_or_same_violation(lambda: obj.partial_grad(i, x), want)
            want = fresh_kl_grad(obj.A, obj.b, x)
            if not isinstance(want, int):
                want = want / obj.n_components
                if bw:
                    bad = barrier_violation(x)
                    want = want - bw / x if bad is None else bad
            same_or_same_violation(lambda: obj.full_grad(x), want)
            want = fresh_hess_vec(obj, x, u)
            if isinstance(want, int):
                same_or_same_violation(lambda: obj.hessian(x), want)
            else:
                H = obj.hessian(x)
                if np.all(np.isfinite(H)) and np.all(np.isfinite(want)):
                    # the entries of H are sums of nonnegative terms, so
                    # |H| |u| bounds the roundoff of both routes in the
                    # normal range. Below it a product rounds to the
                    # subnormal spacing instead: up to d such errors in
                    # each entry of H u and of A u, and the fresh route
                    # carries the latter through A^T diag(w) / n.
                    scale = np.abs(H) @ np.abs(u)
                    carried = np.asarray(obj.A.T @ fresh_weights(obj, x)).ravel() / obj.n_components
                    floor = 2 * obj.dim * np.finfo(float).smallest_subnormal * (1 + carried)
                    assert np.all(np.abs(H @ u - want) <= 1e-12 * scale + floor)
            if not bw:
                same_or_same_violation(lambda: obj.mu_step(x), fresh_mu_step(obj, x))

    def test_sparse_transposes_share_the_blocks_arrays(self):
        # scipy stores these small operators with int32 indices, both the
        # generator's radon_matrix and a loaded instance's sp.csr_matrix;
        # A^T and each block's transpose are views of the same arrays, and
        # each block (one angle, a contiguous row range) a view of A's
        gen = gen_tomography(16, 3, seed=1).objective
        obj = PoissonKL(sp.csr_matrix(gen.A.toarray()), gen.b, groups=gen.groups)
        pairs = [(Ai, AiT) for o in (gen, obj) for Ai, AiT, _ in o._blocks]
        pairs += [(gen.A, gen._AT), (obj.A, obj._AT)]
        assert len(pairs) == 8
        for Ai, AiT in pairs:
            assert sp.issparse(AiT) and AiT.shape == Ai.shape[::-1]
            assert Ai.indices.dtype == Ai.indptr.dtype == np.int32
            for part in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(Ai, part), getattr(AiT, part))
        for o in (gen, obj):
            for Ai, _, _ in o._blocks:
                assert np.shares_memory(o.A.data, Ai.data)
                assert np.shares_memory(o.A.indices, Ai.indices)

    def test_tomography_blocks_are_views_of_the_operator(self, tmp_path):
        problem = gen_tomography(64, 60, seed=1)
        path = tmp_path / "tomo.bin"
        save_instance(path, problem)
        for o in (problem.objective, load_instance(path).objective):
            assert len(o._blocks) == 60
            for Ai, AiT, _ in o._blocks:
                for B in (Ai, AiT):
                    assert np.shares_memory(o.A.data, B.data)
                    assert np.shares_memory(o.A.indices, B.indices)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_only_contiguous_blocks_are_views(self, sparse):
        A = np.arange(1.0, 13.0).reshape(6, 2)
        A = sp.csr_matrix(A) if sparse else A
        groups = [np.arange(0, 3), np.array([3, 5]), np.array([4])]
        objs = (PoissonKL(A, np.ones(6), groups=groups),
                LogisticL2(A, np.ones(6), groups=groups))
        for o in objs:
            shared = [np.shares_memory(o.A.data if sparse else o.A,
                                       block[0].data if sparse else block[0])
                      for block in o._blocks]
            assert shared == [True, False, True]

    def test_objectives_need_an_unknown(self):
        with pytest.raises(InvalidData, match="at least one unknown"):
            PoissonKL(np.zeros((3, 0)), np.zeros(3))
        with pytest.raises(InvalidData, match="at least one unknown"):
            PoissonKL(sp.csr_matrix((3, 0)), np.zeros(3))
        with pytest.raises(InvalidData, match="at least one unknown"):
            LogisticL2(np.zeros((3, 0)), np.ones(3))
        for shape in [(2, 0), (0, 2), (3,)]:
            with pytest.raises(InvalidData, match="one unknown"):
                DiagonalQuadratic(np.ones(shape), np.zeros(shape))


def read(here, name):
    """Quantity ``name`` of the point ``here``; the Hessian is a call."""
    return here.hessian() if name == "hessian" else getattr(here, name)


SEPARATE = {"value": "value", "grad": "full_grad", "hessian": "hessian", "mu_step": "mu_step"}


def same_as_separate_calls(obj, x, names):
    """Reading ``names`` in turn from one point ``obj.at(x)`` gives the
    separate one-shot calls byte for byte, or raises what the first of those
    to fail raises: same type, message and index."""
    try:
        want = [getattr(obj, SEPARATE[name])(x) for name in names]
    except (DomainViolation, InvalidData) as exc:
        here = obj.at(x)
        with pytest.raises(type(exc)) as info:
            for name in names:
                read(here, name)
        assert str(info.value) == str(exc)
        assert getattr(info.value, "index", None) == getattr(exc, "index", None)
        return
    here = obj.at(x)
    for name, expected in zip(names, want):
        got = read(here, name)
        assert type(got) is type(expected)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def counted_passes(monkeypatch, obj, name):
    """The list that grows by one entry, the point x, per call of the data
    pass ``obj.<name>`` (``_rates`` or ``_margins``)."""
    original, seen = getattr(obj, name), []
    monkeypatch.setattr(obj, name, lambda A, b, x: seen.append(x) or original(A, b, x))
    return seen


class TestPairings:
    """The quantities of one point share one product A x."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(singleton_poisson().map(lambda case: (case[0], case[2])),
                     grouped_poisson().map(lambda case: case[:2])))
    def test_match_the_separate_calls_bytewise(self, case):
        # dense one-row components (the row kernel), and dense or CSR blocks
        # that are contiguous row ranges or permuted rows, with or without
        # the barrier, at points that may leave either domain; the MU step
        # checks the barrier and its own domain before the rates
        obj, x = case
        with np.errstate(all="ignore"):
            for names in (("value", "grad", "hessian"), ("value", "mu_step"),
                          ("mu_step", "value"), ("grad", "hessian", "mu_step")):
                same_as_separate_calls(obj, x, names)

    def test_one_product_each(self, monkeypatch):
        obj = PoissonKL(make_rng(3).uniform(0.1, 1.0, size=(6, 3)), np.arange(6.0))
        calls = counted_passes(monkeypatch, obj, "_rates")
        here = obj.at(np.ones(3))
        here.value, here.grad, here.hessian(), here.mu_step, here.value
        obj.at(np.ones(3)).mu_step
        assert len(calls) == 2

    @pytest.mark.parametrize("sparse", [False, True])
    def test_hessians_are_new_arrays(self, sparse):
        # the preconditioner adds c_prec to a Hessian's diagonal in place
        A = make_rng(4).uniform(0.1, 1.0, size=(6, 3))
        A = sp.csr_matrix(A) if sparse else A
        x = np.array([0.5, 1.0, 2.0])
        for obj in (PoissonKL(A, np.arange(6.0), barrier_weight=0.1),
                    LogisticL2(A, np.where(np.arange(6) % 2, 1.0, -1.0), lam=0.1)):
            here, want = obj.at(x), obj.hessian(x)
            H = here.hessian()
            H += 1.0
            again = here.hessian()
            assert again is not H and not np.shares_memory(again, H)
            assert again.tobytes() == want.tobytes()


class TestSlope:
    """``at(x).slope_to(at(y))`` is <grad f(x), y - x>; PoissonKL and
    DiagonalQuadratic take it from the gradient, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(singleton_poisson().map(lambda case: (case[0], case[2], case[2][::-1])),
                     grouped_poisson()))
    def test_poisson_is_the_gradient_formula_bytewise(self, case):
        # at points that may leave the domain: the slope raises what grad f(x) raises
        obj, x, y = case
        with np.errstate(all="ignore"):
            try:
                want = float(obj.full_grad(x) @ (y - x))
            except DomainViolation as exc:
                with pytest.raises(DomainViolation) as info:
                    obj.at(x).slope_to(obj.at(y))
                assert str(info.value) == str(exc) and info.value.index == exc.index
                return
            assert obj.at(x).slope_to(obj.at(y)).hex() == want.hex()

    def test_quadratic_is_the_gradient_formula_bytewise(self):
        rng = make_rng(12)
        obj = DiagonalQuadratic(rng.uniform(0.5, 2.0, size=(6, 3)), rng.normal(size=(6, 3)))
        for _ in range(10):
            x, y = rng.normal(size=(2, 3))
            want = float(obj.full_grad(x) @ (y - x))
            assert obj.at(x).slope_to(obj.at(y)).hex() == want.hex()
            assert obj.f_divergence(y, x).hex() == float(
                obj.value(y) - obj.value(x) - want).hex()


def rel_L(A, b, **kwargs):
    return PoissonKL(A, b, **kwargs).rel_smoothness()


class TestPoissonRelL:
    def test_identity_matrix(self):
        assert rel_L(np.eye(2), np.array([2.0, 4.0])) == pytest.approx(2.0)

    def test_dense_matrix_is_mean_of_counts(self):
        A = np.full((3, 2), 0.7)
        b = np.array([1.0, 2.0, 3.0])
        assert rel_L(A, b) == pytest.approx(np.sum(b) / 3.0)

    def test_zero_counts(self):
        assert rel_L(np.eye(3), np.zeros(3)) == 0.0

    def test_barrier_weight_is_added(self):
        A = np.full((3, 2), 0.7)
        b = np.array([1.0, 2.0, 3.0])
        assert rel_L(A, b, barrier_weight=0.5) == rel_L(A, b) + 0.5

    def test_sparse_at_most_dense(self):
        rng = make_rng(5)
        for _ in range(20):
            mask = rng.random(size=(8, 4)) < 0.3
            A = rng.uniform(0.1, 1.0, size=(8, 4)) * mask
            b = rng.uniform(0.0, 5.0, size=8)
            b[~A.any(axis=1)] = 0.0
            assert rel_L(A, b) <= np.sum(b) / 8.0 + 1e-12

    def test_sparse_matrix_input(self):
        rng = make_rng(6)
        A = rng.uniform(0.1, 1.0, size=(8, 4)) * (rng.random(size=(8, 4)) < 0.4)
        b = rng.uniform(0.0, 5.0, size=8)
        b[~A.any(axis=1)] = 0.0  # a zero row must have a zero count
        dense = rel_L(A, b)
        sparse = rel_L(sp.csr_matrix(A), b)
        assert sparse == pytest.approx(dense, rel=1e-12)

    def test_stored_zero_is_not_support(self):
        # column 1 holds a stored zero in row 0, so its support is row 1 alone
        A = sp.csr_matrix((np.array([1.0, 0.0, 1.0]), np.array([0, 1, 1]),
                           np.array([0, 2, 3])), shape=(2, 2))
        assert A.nnz == 3
        assert rel_L(A, [1.0, 2.0]) == rel_L(A.toarray(), [1.0, 2.0]) == 1.0

    def test_grouped_component_count(self):
        A = np.eye(4)
        b = np.array([1.0, 2.0, 3.0, 4.0])
        groups = [np.array([0, 1]), np.array([2, 3])]
        assert rel_L(A, b, groups=groups) == pytest.approx(2.0)


class TestLogisticL2:
    def build(self, lam=0.1):
        rng = make_rng(7)
        A = rng.normal(size=(20, 4))
        labels = np.sign(rng.normal(size=20))
        labels[labels == 0] = 1.0
        return LogisticL2(A, labels, lam=lam), rng

    def test_grad_matches_finite_difference(self):
        obj, rng = self.build()
        x = rng.normal(size=4) * 0.5
        fd = finite_difference_grad(obj.value, x)
        np.testing.assert_allclose(obj.full_grad(x), fd, rtol=1e-5, atol=1e-5)

    def test_hess_vec_matches_finite_difference(self):
        obj, rng = self.build()
        x = rng.normal(size=4) * 0.5
        u = rng.normal(size=4)
        eps = 1e-6
        fd = (obj.full_grad(x + eps * u) - obj.full_grad(x - eps * u)) / (2 * eps)
        np.testing.assert_allclose(obj.hessian(x) @ u, fd, rtol=1e-4, atol=1e-5)

    def test_full_grad_is_mean_of_partials(self):
        obj, rng = self.build()
        x = rng.normal(size=4) * 0.5
        mean_partial = np.mean(
            [obj.partial_grad(i, x) for i in range(obj.n_components)], axis=0
        )
        np.testing.assert_allclose(obj.full_grad(x), mean_partial, rtol=1e-10, atol=1e-12)

    @staticmethod
    def build_sparse_rows(seed, sparse, grouped):
        """A 30 x 5 instance with about 40% zeros, dense or CSR, grouped into
        four unequal blocks or ungrouped."""
        rng = make_rng(seed)
        A = rng.normal(size=(30, 5)) * (rng.random(size=(30, 5)) < 0.6)
        labels = np.where(rng.random(30) < 0.5, -1.0, 1.0)
        groups = np.array_split(np.arange(30), 4) if grouped else None
        obj = LogisticL2(sp.csr_matrix(A) if sparse else A, labels, lam=0.01, groups=groups)
        return obj, rng

    @staticmethod
    def block_hess_vec(obj, x, u):
        """grad^2 f(x) @ u as the mean over components of each block's
        (1/N_i) A_i^T diag(s(1 - s)) A_i u, plus lam u."""
        Hu = np.zeros(obj.dim)
        for g in obj.groups:
            Ai, yi = obj.A[g], obj.labels[g]
            s = 1.0 / (1.0 + np.exp(-yi * np.asarray(Ai @ x).ravel()))
            Hu += np.asarray(Ai.T @ (s * (1.0 - s) * np.asarray(Ai @ u).ravel())).ravel() / len(g)
        return Hu / obj.n_components + obj.lam * u

    @pytest.mark.parametrize("sparse", [False, True])
    def test_hessian_matches_stacked_hess_vec(self, sparse):
        obj, rng = self.build_sparse_rows(13, sparse, grouped=True)
        for _ in range(5):
            x = rng.normal(size=5)
            stacked = np.column_stack([self.block_hess_vec(obj, x, e) for e in np.eye(5)])
            np.testing.assert_allclose(obj.hessian(x), stacked, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("grouped", [False, True])
    def test_value_and_grad_is_value_and_full_grad_bytewise(self, sparse, grouped,
                                                             monkeypatch):
        # one point reads its value, gradient and Hessian from one margin
        # pass; D_f(x, y) takes <grad f(y), x - y> from the margins at y and
        # x, so it is the slope formula bit for bit and the full-gradient one
        # within rounding
        obj, rng = self.build_sparse_rows(12, sparse, grouped)
        for _ in range(5):
            x, y = rng.normal(size=(2, 5))
            same_as_separate_calls(obj, x, ("value", "grad", "hessian"))
            d_f = obj.f_divergence(x, y)
            f_x, f_y = obj.value(x), obj.value(y)
            assert d_f.hex() == float(f_x - f_y - obj.at(y).slope_to(obj.at(x))).hex()
            generic = float(f_x - f_y - obj.full_grad(y) @ (x - y))
            scale = abs(f_x) + abs(f_y) + self.slope_scale(obj, y, x)
            assert abs(d_f - generic) <= 8 * np.spacing(scale)
        calls = counted_passes(monkeypatch, obj, "_margins")
        here = obj.at(x)
        here.value, here.grad, here.hessian(), here.hessian()
        assert len(calls) == 1
        obj.f_divergence(x, y)
        assert len(calls) == 3

    @staticmethod
    def slope_scale(obj, x, y):
        """The sum of the magnitudes of the terms of <grad f(x), y - x>:
        (|c|^T |A|) |y - x| + lam |x| . |y - x|, |c| = s w the magnitudes of
        the row coefficients of grad f(x); it bounds the margins formula's
        terms too."""
        A = abs(obj.A.toarray()) if sp.issparse(obj.A) else abs(obj.A)
        c = _sigmoid(-obj.at(x).data) * obj._row_weight
        d = abs(y - x)
        return float(c @ (A @ d) + obj.lam * (abs(x) @ d))

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("grouped", [False, True])
    def test_slope_is_the_full_gradient_formula_within_rounding(self, sparse, grouped):
        # the slope reads the margins at x and y, not A^T; at scales from
        # 0.1 to 10 it stays within a few ulp of its terms' magnitudes
        obj, rng = self.build_sparse_rows(14, sparse, grouped)
        for scale in (0.1, 1.0, 10.0):
            for _ in range(10):
                x, y = scale * rng.normal(size=(2, 5))
                got = obj.at(x).slope_to(obj.at(y))
                want = float(obj.full_grad(x) @ (y - x))
                assert abs(got - want) <= 8 * np.spacing(self.slope_scale(obj, x, y))

    def test_value_at_zero(self):
        obj, _ = self.build(lam=0.0)
        assert obj.value(np.zeros(4)) == pytest.approx(np.log(2.0), rel=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, bad):
        with pytest.raises(InvalidData, match="lam must be finite"):
            LogisticL2(np.ones((1, 2)), [1.0], lam=bad)
        for A in (np.array([[1.0, bad]]), sp.csr_matrix([[1.0, bad]])):
            with pytest.raises(InvalidData, match="A must be finite"):
                LogisticL2(A, [1.0])

    def test_nested_list_matrix_is_accepted(self):
        # as PoissonKL does, the constructor takes A as nested lists
        listed = LogisticL2([[1.0, 2.0], [3.0, 4.0]], [1, -1])
        array = LogisticL2(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, -1.0]))
        x = np.array([0.5, -0.25])
        assert listed.value(x) == array.value(x)
        np.testing.assert_array_equal(listed.hessian(x), array.hessian(x))


def masked_log1pexp(t):
    """The two-branch form _log1pexp must reproduce bit for bit."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t > 0
    out[pos] = t[pos] + np.log1p(np.exp(-t[pos]))
    out[~pos] = np.log1p(np.exp(t[~pos]))
    return out


LOG1PEXP_EDGES = [
    0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
    -2.2250738585072009e-308, 745.0, -745.0, 745.2, -745.2, 709.8, -709.8,
    1e-300, -1e-300, 36.0, -36.0, 1.0, -1.0,
]


class TestLog1pexp:
    def test_edge_values_match_masked_form(self):
        t = np.array(LOG1PEXP_EDGES)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = _log1pexp(t)
        assert got.tobytes() == masked_log1pexp(t).tobytes()
        assert got[2] == np.inf and got[3] == 0.0
        assert np.isnan(_log1pexp(np.array([np.nan]))[0])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.one_of(
            st.floats(allow_nan=False),
            st.floats(min_value=-800.0, max_value=800.0),
            st.sampled_from(LOG1PEXP_EDGES),
        ),
        min_size=1, max_size=50,
    ))
    def test_matches_masked_form_bytewise(self, values):
        t = np.array(values, dtype=float)
        assert _log1pexp(t).tobytes() == masked_log1pexp(t).tobytes()


class TestDiagonalQuadratic:
    def test_minimizer(self):
        rng = make_rng(8)
        Q = rng.uniform(0.5, 2.0, size=(6, 3))
        C = rng.normal(size=(6, 3))
        obj = DiagonalQuadratic(Q, C)
        xs = obj.minimizer()
        np.testing.assert_allclose(obj.full_grad(xs), np.zeros(3), atol=1e-12)
        x = xs + rng.normal(size=3)
        assert obj.value(x) >= obj.value(xs)

    def test_grad_matches_finite_difference(self):
        rng = make_rng(9)
        Q = rng.uniform(0.5, 2.0, size=(4, 3))
        C = rng.normal(size=(4, 3))
        obj = DiagonalQuadratic(Q, C)
        x = rng.normal(size=3)
        fd = finite_difference_grad(obj.value, x)
        np.testing.assert_allclose(obj.full_grad(x), fd, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("weight", [0.0, -1.0, np.nan])
    def test_non_positive_weight_rejected(self, weight):
        with pytest.raises(InvalidData, match="positive"):
            DiagonalQuadratic([[1.0, weight]], [[0.0, 0.0]])

    def test_infinite_weight_rejected(self):
        with pytest.raises(InvalidData, match="weights must be finite"):
            DiagonalQuadratic([[1.0, np.inf]], [[0.0, 0.0]])

    @pytest.mark.parametrize("center", [np.nan, np.inf, -np.inf])
    def test_non_finite_center_rejected(self, center):
        with pytest.raises(InvalidData, match="centers must be finite"):
            DiagonalQuadratic([[1.0, 1.0]], [[0.0, center]])


@st.composite
def stacked_points(draw):
    """A dense or CSR PoissonKL (zero entries and zero-count rows allowed,
    grouped or not, with or without the barrier) or a DiagonalQuadratic,
    and a stack of points inside its domain, one row of which may leave it
    through zero or negative coordinates; that row's index, else None."""
    d, S = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        Q = draw(st.lists(st.floats(0.1, 10.0), min_size=n * d, max_size=n * d))
        C = draw(st.lists(st.floats(-5.0, 5.0), min_size=n * d, max_size=n * d))
        obj = DiagonalQuadratic(np.reshape(Q, (n, d)), np.reshape(C, (n, d)))
        coord = st.floats(-5.0, 5.0)
    else:
        n = draw(st.integers(1, 6))
        entry = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
        A = np.array(draw(st.lists(entry, min_size=n * d, max_size=n * d))).reshape(n, d)
        b = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
        b[~A.any(axis=1)] = 0.0
        cuts = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
        groups = np.split(np.arange(n), sorted(cuts)) if draw(st.booleans()) else None
        weight = draw(st.sampled_from([0.0, 0.3]))
        obj = PoissonKL(sp.csr_matrix(A) if draw(st.booleans()) else A, b, groups=groups,
                        barrier_weight=weight)
        coord = st.floats(0.1, 5.0)
    X = np.array(draw(st.lists(coord, min_size=S * d, max_size=S * d))).reshape(S, d)
    bad = draw(st.one_of(st.none(), st.integers(0, S - 1)))
    if bad is not None:
        X[bad] = draw(st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 5.0)),
                               min_size=d, max_size=d))
    return obj, X, bad


@settings(max_examples=150, deadline=None)
@given(stacked_points())
def test_stacked_value_and_grad_match_rows(case):
    # each row of a stacked value / full_grad is the 1-D call at that row,
    # by float.hex; a row outside the domain raises as the maps do, at
    # (row, the 1-D call's index); a sparse operator takes 1-D points only
    obj, X, bad = case
    hexes = np.vectorize(float.hex)
    for name in ("value", "full_grad"):
        method = getattr(obj, name)
        if _issparse(getattr(obj, "A", None)):
            with pytest.raises(ValueError, match="stack"):
                method(X)
            continue
        with np.errstate(all="ignore"):
            try:
                want = [method(x) for x in X]
            except DomainViolation as exc:
                with pytest.raises(DomainViolation) as info:
                    method(X)
                assert info.value.index == (bad, exc.index)
                assert str(info.value) == str(exc).removesuffix(str(exc.index)) + str(info.value.index)
                continue
            got = method(X)
        assert hexes(got).tolist() == hexes(np.array(want)).tolist()
