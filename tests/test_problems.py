"""Tests for problem generators, data formats, and instance files."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import zipfile

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bregopt import (
    DiagonalQuadratic,
    Euclidean,
    InsufficientData,
    InvalidData,
    LabelError,
    LogBarrier,
    LogisticL2,
    NegEntropy,
    ParseError,
    PoissonKL,
    ProblemInstance,
    SolverConfig,
    StepFailure,
    gen_gaussian_logistic_data,
    gen_interpolation,
    gen_preconditioned,
    gen_tomography,
    load_instance,
    load_libsvm,
    poisson_sample,
    problems,
    radon_matrix,
    run,
    save_instance,
    shepp_logan,
    solve_reference,
)
from bregopt.cli import main as cli_main
from bregopt.problems import operator_hash, write_manifest
from bregopt.rng import make_rng
from bregopt.verify import _csv_without_wall


class TestInterpolation:
    def test_optimum_is_exact(self):
        problem = gen_interpolation(50, 8, seed=0)
        obj = problem.objective
        assert problem.f_star == 0.0
        assert obj.value(problem.x_star) == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(obj.full_grad(problem.x_star)) <= 1e-12

    def test_seed_determinism(self):
        a = gen_interpolation(20, 5, seed=3)
        b = gen_interpolation(20, 5, seed=3)
        c = gen_interpolation(20, 5, seed=4)
        assert np.array_equal(a.objective.A, b.objective.A)
        assert not np.array_equal(a.objective.A, c.objective.A)

    def test_metadata(self):
        problem = gen_interpolation(20, 5, seed=0)
        assert problem.meta["L_rel"] > 0
        assert problem.reference.kind == "log_barrier"

    def test_no_rows_is_invalid_data(self):
        with pytest.raises(InvalidData, match="at least one component"):
            gen_interpolation(0, 5, seed=0)


class TestSheppLogan:
    def test_center_and_corner(self):
        img = shepp_logan(64)
        assert img.shape == (64, 64)
        assert img[32, 32] == pytest.approx(0.2, abs=1e-12)
        assert img[0, 0] == 0.0

    def test_left_right_symmetry(self):
        img = shepp_logan(32)
        # the phantom is built from left-right mirrored ellipse pairs except
        # for small interior features; the outer rows are symmetric
        np.testing.assert_allclose(img[2], img[2, ::-1], atol=1e-12)

    def test_nonnegative(self):
        assert np.all(shepp_logan(32) >= 0.0)


RADON_GOLDEN = [
    (64, 60, "24152ed2514c5530498bbb657da27c170f17bc198ae78681d8808eec33898ab2"),
    (17, 7, "a89e49bb8440952d4ca64945ddb9bf8c9b18e28fabbdd62571efbbd47d089a23"),
]


def loop_radon_matrix(size, n_angles):
    """The per-ray, per-corner loop radon_matrix must reproduce bit for bit."""
    half = size / 2.0
    offsets = np.arange(size) - half + 0.5
    steps = np.arange(-half, half + 1e-9, 1.0)
    rows, cols, vals = [], [], []
    for a in range(n_angles):
        theta = np.pi * a / n_angles
        ct, st_ = np.cos(theta), np.sin(theta)
        for bin_idx, s in enumerate(offsets):
            px = half + s * ct - steps * st_
            py = half + s * st_ + steps * ct
            ix = np.floor(px - 0.5).astype(int)
            iy = np.floor(py - 0.5).astype(int)
            fx = (px - 0.5) - ix
            fy = (py - 0.5) - iy
            row = a * size + bin_idx
            for dx, dy, w in (
                (0, 0, (1 - fx) * (1 - fy)),
                (1, 0, fx * (1 - fy)),
                (0, 1, (1 - fx) * fy),
                (1, 1, fx * fy),
            ):
                cx, cy = ix + dx, iy + dy
                ok = (cx >= 0) & (cx < size) & (cy >= 0) & (cy < size) & (w > 0)
                if np.any(ok):
                    rows.append(np.full(np.sum(ok), row))
                    cols.append(cy[ok] * size + cx[ok])
                    vals.append(w[ok])
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_angles * size, size * size),
    ).tocsr()


class TestRadon:
    def test_shape_and_nonnegative(self):
        size, n_angles = 16, 6
        A = radon_matrix(size, n_angles)
        assert A.shape == (size * n_angles, size * size)
        assert A.data.min() >= 0.0

    @pytest.mark.parametrize("size, n_angles", [(0, 3), (8, 0)])
    def test_empty_grid_or_no_angles_is_rejected(self, size, n_angles):
        with pytest.raises(ValueError, match="at least 1"):
            radon_matrix(size, n_angles)

    def test_mass_preserved_per_angle(self):
        size, n_angles = 32, 8
        A = radon_matrix(size, n_angles)
        img = shepp_logan(size).ravel()
        sino = (A @ img).reshape(n_angles, size)
        mass = img.sum()
        for a in range(n_angles):
            assert sino[a].sum() == pytest.approx(mass, rel=1e-2)

    def test_center_pixel_hits_center_bin_at_zero_angle(self):
        size = 17
        A = radon_matrix(size, 4)
        img = np.zeros((size, size))
        img[size // 2, size // 2] = 1.0
        first_angle = (A @ img.ravel())[:size]
        assert int(np.argmax(first_angle)) == size // 2

    def test_operator_hash_is_stable(self):
        a = radon_matrix(8, 3)
        b = radon_matrix(8, 3)
        assert operator_hash(a) == operator_hash(b)

    @pytest.mark.parametrize("size, n_angles, digest", RADON_GOLDEN)
    def test_golden_operator_hash(self, size, n_angles, digest):
        assert operator_hash(radon_matrix(size, n_angles)) == digest

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 12))
    def test_matches_loop_reference_bytewise(self, size, n_angles):
        A, ref = radon_matrix(size, n_angles), loop_radon_matrix(size, n_angles)
        assert A.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(A, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_peak_memory_of_the_64x60_operator(self):
        tracemalloc.start()
        try:
            radon_matrix(64, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one angle's triples at a time, the 60 per-angle CSR blocks (their
        # summed arrays only, 11.9 MiB in all; 16.1 MiB while each block
        # kept its unsummed buffers) and their stacked copy; the bound is
        # about 2.3 times the 5.54 MiB operator
        assert peak <= 13 * 2**20


class TestPoissonSample:
    def test_zero_mean_gives_zero(self):
        assert np.all(poisson_sample(np.zeros(5), seed=0) == 0)

    def test_seed_determinism(self):
        mean = np.full(100, 3.0)
        assert np.array_equal(poisson_sample(mean, 7), poisson_sample(mean, 7))
        assert not np.array_equal(poisson_sample(mean, 7), poisson_sample(mean, 8))

    def test_first_moment(self):
        mean = np.full(20000, 5.0)
        draw = poisson_sample(mean, 1)
        assert draw.mean() == pytest.approx(5.0, rel=0.02)


class TestTomography:
    def test_instance_shape(self):
        problem = gen_tomography(size=16, n_angles=6, seed=0)
        obj = problem.objective
        assert obj.dim == 16 * 16
        assert obj.n_components == 6
        assert np.all(obj.b >= 0)
        assert problem.meta["L_rel"] > 0

    def test_noiseless_counts_match_forward_projection(self):
        problem = gen_tomography(size=16, n_angles=6, seed=0, noise=False)
        obj = problem.objective
        phantom = problem.meta["phantom"].ravel()
        np.testing.assert_allclose(obj.b, np.asarray(obj.A @ phantom).ravel())


class TestLibsvm:
    def test_parse_basic(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("+1 1:0.5 3:2.0\n-1 2:1.5\n")
        A, labels = load_libsvm(path)
        np.testing.assert_allclose(A.toarray(), [[0.5, 0.0, 2.0], [0.0, 1.5, 0.0]])
        np.testing.assert_allclose(labels, [1.0, -1.0])

    def test_zero_one_labels(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 1:1.0\n0 1:2.0\n")
        _, labels = load_libsvm(path)
        np.testing.assert_allclose(labels, [1.0, -1.0])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("")
        A, labels = load_libsvm(path)
        assert A.shape[0] == 0
        assert len(labels) == 0

    def test_bad_feature_token(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 2:a\n")
        with pytest.raises(ParseError) as info:
            load_libsvm(path)
        assert "line 1" in str(info.value)

    def test_duplicate_index(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 1:1.0 1:2.0\n")
        with pytest.raises(ParseError):
            load_libsvm(path)

    def test_unsupported_label(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("3 1:1.0\n")
        with pytest.raises(LabelError):
            load_libsvm(path)

    def test_roundtrip_exact(self, tmp_path):
        # nonzeros written as repr floats parse back to the same doubles
        rng = make_rng(1)
        A = rng.normal(size=(5, 4)) * (rng.random(size=(5, 4)) < 0.6)
        labels = np.sign(rng.normal(size=5))
        labels[labels == 0] = 1.0
        path = tmp_path / "rt.txt"
        path.write_text("".join(
            " ".join(["+1" if label > 0 else "-1"]
                     + [f"{j + 1}:{float(v)!r}" for j, v in enumerate(row) if v != 0.0]) + "\n"
            for row, label in zip(A, labels)
        ))
        B, back = load_libsvm(path)
        np.testing.assert_array_equal(B.toarray()[:, : A.shape[1]], A)
        np.testing.assert_array_equal(back, labels)


class TestPreconditioned:
    def test_trivial_preconditioner_gives_unit_constants(self):
        # one node holding all data with c_prec = lam = 0 makes h coincide
        # with f, so every relative constant is 1
        data = gen_gaussian_logistic_data(60, 4, seed=0)
        problem = gen_preconditioned(
            data, n_nodes=1, N=60, n_prec=60, lam=0.0, c_prec=0.0, seed=0,
        )
        rng = make_rng(0)
        for _ in range(5):
            x = 0.3 * rng.standard_normal(4)
            np.testing.assert_allclose(problem.reference.inner.hessian(x),
                                       problem.objective.hessian(x), rtol=1e-12, atol=0.0)

    def test_partition_covers_all_rows(self):
        data = gen_gaussian_logistic_data(40, 4, seed=1)
        problem = gen_preconditioned(
            data, n_nodes=4, N=10, n_prec=5, lam=1e-3, c_prec=1e-3, seed=1
        )
        obj = problem.objective
        assert obj.n_components == 4
        covered = np.sort(np.concatenate(obj.groups))
        np.testing.assert_array_equal(covered, np.arange(40))

    @pytest.mark.parametrize("n_nodes", [0, -1])
    def test_no_nodes_is_insufficient_data(self, n_nodes):
        data = gen_gaussian_logistic_data(40, 4, seed=1)
        with pytest.raises(InsufficientData, match="at least one node"):
            gen_preconditioned(data, n_nodes=n_nodes, N=10, n_prec=5, lam=1e-3,
                               c_prec=1e-3, seed=1)

    @pytest.mark.parametrize("n_prec", [0, 11])
    def test_preconditioning_rows_outside_one_to_n_are_insufficient_data(self, n_prec):
        # the inner function is one component of n_prec rows, so it needs one
        data = gen_gaussian_logistic_data(40, 4, seed=1)
        with pytest.raises(InsufficientData, match=r"n_prec must lie in \[1, N\]"):
            gen_preconditioned(data, n_nodes=4, N=10, n_prec=n_prec, lam=1e-3,
                               c_prec=1e-3, seed=1)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_inner_function_is_one_component(self, tmp_path, sparse):
        # node 0's loss is one function: held as one component, it gives the
        # bytes of the ungrouped objective on the same rows, before and after
        # a file round trip
        problem = preconditioned_instance(sparse)
        back = load_instance(instance_file(tmp_path, problem))
        inner = problem.reference.inner
        ungrouped = LogisticL2(inner.A, inner.labels, inner.lam)
        x = make_rng(3).normal(size=4)
        want = ungrouped.at(x)
        for held in (inner, back.reference.inner):
            assert held.n_components == 1
            got = held.at(x)
            assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
            assert got.grad.tobytes() == want.grad.tobytes()
            assert got.hessian().tobytes() == want.hessian().tobytes()

    def test_comm_model(self):
        data = gen_gaussian_logistic_data(40, 4, seed=1)
        problem = gen_preconditioned(
            data, n_nodes=4, N=10, n_prec=5, lam=1e-3, c_prec=1e-3, seed=1
        )
        assert problem.comm_model.full_round == 4
        assert problem.comm_model.component == 1


HEADER = 40  # magic and sha256


def instance_file(tmp_path, problem, name="inst.bin"):
    path = str(tmp_path / name)
    save_instance(path, problem)
    return path


def read_members(path):
    """The named arrays of an instance file, read without checks."""
    with open(path, "rb") as fh:
        fh.seek(HEADER)
        with np.load(io.BytesIO(fh.read())) as npz:
            return dict(npz)


def npy_bytes(descr, shape, data):
    """An npy member whose header declares ``descr`` and ``shape``, followed
    by the raw bytes ``data``."""
    buf = io.BytesIO()
    header = {"descr": descr, "fortran_order": False, "shape": shape}
    np.lib.format.write_array_header_1_0(buf, header)
    return buf.getvalue() + data


def write_archive(path, members):
    """An instance file of ``members`` (arrays, or npy bytes) under a valid
    digest; object arrays are pickled."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for key, value in members.items():
            if isinstance(value, np.ndarray):
                npy = io.BytesIO()
                np.lib.format.write_array(npy, value, allow_pickle=True)
                value = npy.getvalue()
            zf.writestr(key + ".npy", value)
    payload = buf.getvalue()
    with open(path, "wb") as fh:
        fh.write(b"BREGOPT2" + hashlib.sha256(payload).digest() + payload)


def quadratic_instance():
    rng = make_rng(5)
    obj = DiagonalQuadratic(rng.uniform(0.5, 2.0, size=(4, 3)), rng.normal(size=(4, 3)))
    xs = obj.minimizer()
    return ProblemInstance(objective=obj, reference=Euclidean(), x0=np.zeros(3),
                           x_star=xs, f_star=obj.value(xs))


def barrier_instance():
    A = make_rng(6).uniform(0.1, 1.0, size=(6, 3))
    obj = PoissonKL(A, A @ np.ones(3), groups=[np.arange(3), np.arange(3, 6)],
                    barrier_weight=0.25)
    return ProblemInstance(objective=obj, reference=NegEntropy(), x0=np.ones(3))


def preconditioned_instance(sparse=False):
    A, labels = gen_gaussian_logistic_data(40, 4, seed=1)
    if sparse:
        A[np.abs(A) < 0.5] = 0.0
        A = sp.csr_matrix(A)
    return gen_preconditioned((A, labels), n_nodes=4, N=10, n_prec=5, lam=1e-3,
                              c_prec=1e-3, seed=1)


# every objective kind, reference kind and matrix storage
ROUND_TRIPS = {
    "interpolation": lambda: gen_interpolation(20, 5, seed=2),
    "tomography": lambda: gen_tomography(size=16, n_angles=4, seed=0),
    "noiseless-tomography": lambda: gen_tomography(size=16, n_angles=4, seed=0, noise=False),
    "barrier-neg-entropy": barrier_instance,
    "quadratic-euclidean": quadratic_instance,
    "preconditioned": preconditioned_instance,
    "preconditioned-sparse": lambda: preconditioned_instance(sparse=True),
}


class TestInstanceFiles:
    def test_interpolation_roundtrip(self, tmp_path):
        problem = gen_interpolation(20, 5, seed=2)
        path = str(tmp_path / "inst.bin")
        save_instance(path, problem)
        back = load_instance(path)
        x = np.asarray(problem.x0, dtype=float)
        assert back.objective.value(x) == problem.objective.value(x)
        np.testing.assert_array_equal(back.x_star, problem.x_star)
        assert back.f_star == problem.f_star
        assert back.reference.kind == "log_barrier"

    def test_tomography_roundtrip(self, tmp_path):
        problem = gen_tomography(size=16, n_angles=4, seed=0)
        path = str(tmp_path / "tomo.bin")
        save_instance(path, problem)
        back = load_instance(path)
        x = np.asarray(problem.x0, dtype=float)
        assert back.objective.value(x) == problem.objective.value(x)
        assert back.objective.n_components == 4
        assert back.meta["L_rel"] == problem.meta["L_rel"]

    @pytest.mark.parametrize("name", ROUND_TRIPS)
    def test_roundtrip_keeps_every_field(self, tmp_path, name):
        problem = ROUND_TRIPS[name]()
        path = instance_file(tmp_path, problem)
        back = load_instance(path)
        x = np.asarray(problem.x0, dtype=float)
        assert back.objective.kind == problem.objective.kind
        assert back.objective.value(x) == problem.objective.value(x)
        assert back.reference.kind == problem.reference.kind
        assert back.comm_model == problem.comm_model
        assert back.f_star == problem.f_star
        # the reloaded instance writes the same bytes
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(instance_file(tmp_path, back, "again.bin"), "rb") as fh:
            assert fh.read() == raw

    def test_preconditioner_roundtrip(self, tmp_path):
        problem = preconditioned_instance(sparse=True)
        ref = load_instance(instance_file(tmp_path, problem)).reference
        assert ref.c_prec == 1e-3
        assert ref.inner.lam == 1e-3 and sp.issparse(ref.inner.A)
        assert (ref.inner.A != problem.reference.inner.A).nnz == 0
        np.testing.assert_array_equal(ref.inner.labels, problem.reference.inner.labels)

    def test_writes_the_path_as_given(self, tmp_path):
        instance_file(tmp_path, gen_interpolation(20, 5, seed=1), "tomo.bin")
        assert os.listdir(tmp_path) == ["tomo.bin"]

    def test_manifest_contents(self, tmp_path):
        problem = gen_interpolation(20, 5, seed=2)
        path = str(tmp_path / "inst.manifest")
        write_manifest(path, problem)
        text = open(path).read()
        assert "d = 5" in text
        assert "n = 20" in text

    def test_every_proper_prefix_is_invalid_data(self, tmp_path):
        path = instance_file(tmp_path, gen_interpolation(20, 5, seed=1))
        for k in reversed(range(os.path.getsize(path))):
            os.truncate(path, k)
            with pytest.raises(InvalidData):
                load_instance(path)

    def test_every_single_byte_corruption_is_invalid_data(self, tmp_path):
        # each byte set to 0x00, 0xff and 0x41 in place, then restored
        path = instance_file(tmp_path, gen_interpolation(20, 5, seed=1))
        raw = open(path, "rb").read()
        fd = os.open(path, os.O_WRONLY)
        try:
            for k, byte in enumerate(raw):
                for value in {0x00, 0xFF, 0x41} - {byte}:
                    os.pwrite(fd, bytes([value]), k)
                    with pytest.raises(InvalidData):
                        load_instance(path)
                os.pwrite(fd, bytes([byte]), k)
        finally:
            os.close(fd)
        load_instance(path)

    def test_trailing_bytes_are_invalid_data(self, tmp_path):
        path = instance_file(tmp_path, gen_interpolation(20, 5, seed=1))
        with open(path, "ab") as fh:
            fh.write(b"-")
        with pytest.raises(InvalidData, match="sha256 mismatch"):
            load_instance(path)

    def test_version_1_file_is_invalid_data(self, tmp_path):
        path = str(tmp_path / "v1.bin")
        with open(path, "wb") as fh:
            fh.write(b"BREGOPT1P" + bytes(100))
        with pytest.raises(InvalidData, match="regenerate it with bregopt gen"):
            load_instance(path)

    @pytest.mark.parametrize("ndim", [0, 3, 65])
    def test_unwritten_array_rank_is_invalid_data(self, tmp_path, ndim):
        path = instance_file(tmp_path, gen_interpolation(20, 5, seed=1))
        members = read_members(path)
        members["A"] = npy_bytes("<f8", (1,) * ndim, bytes(8))
        write_archive(path, members)
        with pytest.raises(InvalidData, match="rank"):
            load_instance(path)

    @pytest.mark.parametrize("value", [0xFF, 0x41])
    def test_group_index_outside_rows_is_invalid_data(self, tmp_path, value):
        path = instance_file(tmp_path, gen_interpolation(20, 5, seed=1))
        members = read_members(path)
        members["group_rows"][3] = value
        write_archive(path, members)
        with pytest.raises(InvalidData, match="group indices"):
            load_instance(path)

    def test_repeated_group_row_is_invalid_data(self, tmp_path):
        # group_ends still rise to the number of rows, but row 2 is counted twice
        path = instance_file(tmp_path, gen_interpolation(20, 5, seed=1))
        members = read_members(path)
        members["group_rows"][3] = 2
        write_archive(path, members)
        with pytest.raises(InvalidData, match="groups overlap at row 2"):
            load_instance(path)

    @pytest.mark.parametrize("key", ["objective", "reference"])
    def test_unknown_kind_is_invalid_data(self, tmp_path, key):
        path = instance_file(tmp_path, gen_interpolation(20, 5, seed=1))
        members = read_members(path)
        members[key] = np.array("nonsense")
        write_archive(path, members)
        with pytest.raises(InvalidData, match="nonsense"):
            load_instance(path)

    @pytest.mark.parametrize("key, value", [
        ("c_prec", np.nan), ("c_prec", np.inf), ("c_prec", -1.0)])
    def test_bad_preconditioner_parameter_is_invalid_data(self, tmp_path, key, value):
        path = instance_file(tmp_path, preconditioned_instance())
        members = read_members(path)
        members[key] = np.array(value)
        write_archive(path, members)
        with pytest.raises(InvalidData, match=key):
            load_instance(path)

    @pytest.mark.parametrize("inner_tol, inner_passes", [(1e-6, 10), (0.0, 0)],
                             ids=["written", "once-refused"])
    def test_old_inner_solve_members_are_ignored(self, tmp_path, inner_tol, inner_passes):
        # files from before the inner-solve budget became the constants
        # mirror.INNER_TOL and mirror.INNER_PASSES carry it as two members:
        # such a file loads, nothing reads them, and it replays the same run
        problem = preconditioned_instance()
        solve_reference(problem)
        path = instance_file(tmp_path, problem)
        members = read_members(path)
        assert not {"inner_tol", "inner_passes"} & set(members)
        members.update(inner_tol=np.array(inner_tol), inner_passes=np.array(inner_passes))
        old = str(tmp_path / "old.bin")
        write_archive(old, members)
        config = SolverConfig(method="bsaga", eta=0.5, epochs=3.0, seed=4, record_every=1)
        traces = [_csv_without_wall(run(config, load_instance(p))) for p in (path, old)]
        assert traces[0] == traces[1] == _csv_without_wall(run(config, problem))

    def test_roundtrip_keeps_the_row_kernel(self, tmp_path):
        path = str(tmp_path / "inst.bin")
        save_instance(path, gen_interpolation(20, 5, seed=1))
        assert load_instance(path).objective._rows is not None

    def test_fortran_ordered_member_loads_as_written(self, tmp_path):
        path = instance_file(tmp_path, gen_interpolation(20, 5, seed=1))
        members = read_members(path)
        A = members["A"]
        members["A"] = np.asfortranarray(A)
        write_archive(path, members)
        loaded = load_instance(path).objective.A
        assert loaded.flags.f_contiguous and np.array_equal(loaded, A)

    def test_member_shorter_than_its_declared_size_is_invalid_data(self, tmp_path):
        # header and central directory both claim one float more than is stored,
        # and the CRC matches the stored bytes
        path = instance_file(tmp_path, gen_interpolation(20, 5, seed=1))
        members = read_members(path)
        b = members["b"]
        members["b"] = npy_bytes("<f8", (b.size + 1,), b.tobytes())
        write_archive(path, members)
        raw = bytearray(open(path, "rb").read())
        entry = raw.rindex(b"b.npy") - 46  # the member's central directory record
        assert raw[entry:entry + 4] == b"PK\x01\x02"
        size = int.from_bytes(raw[entry + 24:entry + 28], "little")
        raw[entry + 24:entry + 28] = (size + 8).to_bytes(4, "little")
        raw[8:HEADER] = hashlib.sha256(bytes(raw[HEADER:])).digest()
        with open(path, "wb") as fh:
            fh.write(raw)
        with pytest.raises(InvalidData, match="fewer than"):
            load_instance(path)

    def test_member_without_local_header_is_invalid_data(self, tmp_path):
        # members are read at the offset the central directory gives, so the
        # local header found there must be one
        path = instance_file(tmp_path, gen_interpolation(20, 5, seed=1))
        raw = bytearray(open(path, "rb").read())
        entry = raw.index(b"b.npy") - 30  # the member's local header
        assert raw[entry:entry + 4] == b"PK\x03\x04"
        raw[entry:entry + 4] = b"PK\x05\x06"
        raw[8:HEADER] = hashlib.sha256(bytes(raw[HEADER:])).digest()
        with open(path, "wb") as fh:
            fh.write(raw)
        with pytest.raises(InvalidData, match="'b' has no local file header"):
            load_instance(path)


def _base_members():
    """Members of one small instance file per objective and matrix kind."""
    bases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("interpolation", "tomography", "quadratic-euclidean",
                     "preconditioned-sparse"):
            path = os.path.join(tmp, name)
            save_instance(path, ROUND_TRIPS[name]())
            bases[name] = read_members(path)
    return bases


BASES = _base_members()
OPTIONAL = {"x_star", "f_star", "comm", "L_rel"}


@st.composite
def crafted_archives(draw):
    """(members, fault): an instance's members with one fault put in."""
    members = {k: v.copy() for k, v in BASES[draw(st.sampled_from(sorted(BASES)))].items()}
    faults = ["missing key", "wrong rank", "wrong dtype", "object array",
              "x0 length", "oversized shape"]
    faults += ["group index"] if "group_rows" in members else []
    faults += ["NaN in b"] if "b" in members else []
    faults += ["NaN in an optional value"] if OPTIONAL & set(members) else []
    fault = draw(st.sampled_from(faults))
    key = draw(st.sampled_from(sorted(set(members) - OPTIONAL)))
    value = members[key]
    if fault == "missing key":
        del members[key]
    elif fault == "wrong rank":
        members[key] = value[None] if value.ndim != 1 or draw(st.booleans()) else value[0, ...]
    elif fault == "wrong dtype":
        other = {"f": np.int64, "i": np.float64, "U": np.float64}[value.dtype.kind]
        members[key] = np.zeros(value.shape, dtype=other)
    elif fault == "object array":
        members[key] = np.array([None] * max(value.size, 1), dtype=object)
    elif fault == "x0 length":
        d = members["x0"].size
        members["x0"] = np.ones(draw(st.integers(0, 2 * d).filter(lambda n: n != d)))
    elif fault == "oversized shape":
        count = value.size + draw(st.one_of(st.integers(1, 10), st.integers(2**36, 2**44)))
        members[key] = npy_bytes(value.dtype.str, (count,), value.tobytes())
    elif fault == "group index":
        rows = members["group_rows"]
        rows[draw(st.integers(0, rows.size - 1))] = draw(st.sampled_from([-1, 10**6]))
    else:
        value = members["b" if fault == "NaN in b" else
                        draw(st.sampled_from(sorted(OPTIONAL & set(members))))].reshape(-1)
        value[draw(st.integers(0, value.size - 1))] = np.nan
    return members, fault


class TestCraftedArchives:
    """Archives under a valid digest whose contents are wrong."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(crafted_archives())
    def test_bad_contents_are_invalid_data(self, tmp_path, case):
        members, fault = case
        path = str(tmp_path / "crafted.bin")
        write_archive(path, members)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidData):
                load_instance(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no buffer beyond what the small file could hold
        assert peak < 2**24, fault


def barrier_poisson(x0=1.0, barrier_weight=0.5):
    """The barrier-poisson instance of test_golden.py, from x0 times the
    ones vector."""
    rng = make_rng(11)
    A = rng.uniform(0.0, 1.0, size=(40, 6))
    b = poisson_sample(A @ rng.uniform(0.2, 1.0, size=6), 12).astype(float)
    obj = PoissonKL(A, b, barrier_weight=barrier_weight)
    return ProblemInstance(objective=obj, reference=LogBarrier(), x0=np.full(6, x0))


def count_calls(monkeypatch, obj, name):
    """The arguments of every call of ``obj.name``, which still runs."""
    calls = []
    call = getattr(obj, name)

    def counted(*args):
        calls.append(args)
        return call(*args)
    monkeypatch.setattr(obj, name, counted)
    return calls


def reference_instance(name):
    """The instance of precond-inner (perfbench), c7, c3 or test_golden.py's
    barrier-poisson case, without its reference solution."""
    if name == "precond-inner":
        data = gen_gaussian_logistic_data(10 * 1000, 20, 0)
        return gen_preconditioned(data, n_nodes=10, N=1000, n_prec=1000, lam=1e-5,
                                  c_prec=1e-5, seed=0)
    if name == "c7":
        data = gen_gaussian_logistic_data(2000, 20, seed=41, separation=1.0)
        return gen_preconditioned(data, n_nodes=10, N=200, n_prec=200, lam=1e-5,
                                  c_prec=1e-5, seed=42)
    if name == "c3":
        rng = make_rng(11)
        A = rng.uniform(0.0, 1.0, size=(200, 20))
        b = poisson_sample(A @ rng.uniform(0.2, 1.0, size=20), 12).astype(float)
        return ProblemInstance(objective=PoissonKL(A, b, barrier_weight=0.5),
                               reference=LogBarrier(), x0=np.ones(20))
    return barrier_poisson()


def rank_deficient_instance(kind, seed):
    """lam = 0 and one zero or one duplicated column: the Hessian of f is
    singular everywhere."""
    A, labels = gen_gaussian_logistic_data(120, 5, seed=seed)
    A[:, 2] = 0.0 if kind == "zero" else A[:, 4]
    return gen_preconditioned((A, labels), n_nodes=4, N=30, n_prec=20, lam=0.0,
                              c_prec=1e-3, seed=seed)


def negated_hessian(monkeypatch):
    """Make every Newton direction of a logistic reference solve an ascent
    direction, so that no step decreases the gradient norm."""
    hessian = LogisticL2._hessian
    monkeypatch.setattr(LogisticL2, "_hessian", lambda obj, p: -hessian(obj, p))


class TestLogisticReference:
    """The one reference solve: logistic and barrier Poisson objectives are
    solved by shifted damped Newton to a gradient 2-norm of at most
    REFERENCE_TOL and certified; a solve that stops above it, or whose
    certified bound is too large, raises StepFailure naming the objective
    kind, and any other objective InvalidData."""

    @pytest.mark.parametrize("name", ["precond-inner", "c7", "c3", "barrier-poisson"])
    def test_reaches_tol_in_the_two_norm(self, name):
        problem = solve_reference(reference_instance(name))
        assert np.linalg.norm(problem.objective.full_grad(problem.x_star)) <= 1e-12
        assert problem.f_star == problem.objective.value(problem.x_star)

    @staticmethod
    def check_one_pass_per_point(monkeypatch, problem, data_pass):
        obj = problem.objective
        points = count_calls(monkeypatch, obj, "at")
        passes = count_calls(monkeypatch, obj, data_pass)
        solve_reference(problem)
        # one pass each at x0 and at every trial, none again at x_star for
        # f_star or for the Hessians
        assert len(passes) == len(points) > 2
        assert len({id(x) for x, in points}) == len(points)
        assert points[-1][0] is problem.x_star

    def test_makes_one_margin_pass_per_point(self, monkeypatch):
        self.check_one_pass_per_point(monkeypatch, reference_instance("c7"), "_margins")

    def test_makes_one_rate_pass_per_point(self, monkeypatch):
        # trials outside the orthant (test below) count one pass each too
        self.check_one_pass_per_point(monkeypatch, barrier_poisson(x0=5.0), "_rates")

    def test_a_trial_outside_the_orthant_is_never_accepted(self, monkeypatch):
        # from 5 times the ones vector, full Newton steps overshoot out of
        # the orthant; such a trial's residual is NaN, so the step backtracks
        problem = barrier_poisson(x0=5.0)
        obj = problem.objective
        points = count_calls(monkeypatch, obj, "at")
        hessians = count_calls(monkeypatch, obj, "_hessian")  # one per accepted point
        solve_reference(problem)
        assert sum(not np.all(x > 0) for x, in points) == 2
        assert all(np.all(p.x > 0) for p, in hessians) and len(hessians) > 2
        assert hessians[-1][0].x is problem.x_star
        assert np.linalg.norm(obj.full_grad(problem.x_star)) <= 1e-12

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("kind", ["zero", "duplicated"])
    def test_rank_deficient_instances_solve_to_tol(self, kind, seed):
        problem = solve_reference(rank_deficient_instance(kind, seed))
        assert np.linalg.norm(problem.objective.full_grad(problem.x_star)) <= 1e-12

    def test_separable_data_without_regularization_is_refused(self):
        # lam = 0 on linearly separable data: f has no minimizer, yet the
        # gradient norm falls below tol where the Hessian all but vanishes
        data = gen_gaussian_logistic_data(40, 5, seed=1, separation=5.0)
        problem = gen_preconditioned(data, n_nodes=2, N=20, n_prec=10, lam=0.0,
                                     c_prec=1e-3, seed=1)
        with pytest.raises(StepFailure, match=r"^logistic_l2 reference: certified distance "
                                              r"bound 93\.7 to the minimizer"):
            solve_reference(problem)
        assert problem.x_star is None and problem.f_star is None

    def test_poisson_without_barrier_is_invalid_data(self):
        with pytest.raises(InvalidData, match="no reference-solution route for poisson_kl"):
            solve_reference(barrier_poisson(barrier_weight=0.0))

    def test_stall_raises_step_failure_naming_the_residual(self, monkeypatch):
        negated_hessian(monkeypatch)
        with pytest.raises(StepFailure, match=r"^logistic_l2 reference: no Newton step "
                                              r"decreases the gradient norm 0\.668 "
                                              r"\(tol 1e-12\)"):
            solve_reference(preconditioned_instance())

    def test_max_iter_exit_above_tol_raises_step_failure(self, monkeypatch):
        monkeypatch.setattr(problems, "REFERENCE_MAX_ITER", 1)
        with pytest.raises(StepFailure, match=r"^logistic_l2 reference: gradient norm \S+ "
                                              r"above tol 1e-12 after 1 Newton steps"):
            solve_reference(preconditioned_instance())

    def test_stalled_solve_is_exit_2_from_gen(self, monkeypatch, tmp_path, capsys):
        negated_hessian(monkeypatch)
        out = tmp_path / "prec.bin"
        code = cli_main(["gen", "preconditioned", "--nodes", "2", "--samples", "10",
                         "--d", "3", "-o", str(out)])
        assert code == 2 and not out.exists()
        assert ("error: logistic_l2 reference: no Newton step decreases"
                in capsys.readouterr().err)


def fresh_interpreter(script, *args):
    """Run ``script`` in a new interpreter on this checkout's sources and
    return the JSON it prints last."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


class TestScipyOnFirstUse:
    """scipy is imported by sparse operators only; this process has it
    loaded already, so each check runs in a new interpreter."""

    def test_dense_work_loads_no_scipy(self, tmp_path):
        script = f"""
import json, sys
import bregopt.cli
from bregopt import SolverConfig, gen_interpolation, load_instance, run, save_instance
from bregopt.solver import METHODS
from bregopt.verify import Battery
path = sys.argv[1]
save_instance(path, gen_interpolation(30, 4, seed=5))
problem = load_instance(path)
lengths = [len(run(SolverConfig(method=m, eta=10.0, epochs=2.0, seed=2), problem))
           for m in METHODS]
passed = all(check.passed for check in Battery(quick=True).criterion(9))
print(json.dumps([lengths, passed, {SCIPY_MODULES}]))
"""
        lengths, passed, scipy_modules = fresh_interpreter(script, str(tmp_path / "interp.bin"))
        assert len(lengths) == 5 and min(lengths) > 1 and passed
        assert scipy_modules == []

    def test_dense_preconditioned_work_loads_no_scipy(self, tmp_path):
        script = f"""
import json, sys
import numpy as np
from bregopt import (SolverConfig, gen_gaussian_logistic_data, gen_preconditioned,
                     load_instance, run, save_instance, solve_reference)
path = sys.argv[1]
data = gen_gaussian_logistic_data(120, 5, seed=3)
problem = solve_reference(gen_preconditioned(data, n_nodes=4, N=30, n_prec=20,
                                             lam=1e-3, c_prec=1e-3, seed=3))
save_instance(path, problem)
problem = load_instance(path)
trace = run(SolverConfig(method="bsaga", eta=0.5, epochs=3.0, seed=4), problem)
print(json.dumps([float(np.linalg.norm(problem.objective.full_grad(problem.x_star))),
                  len(trace), {SCIPY_MODULES}]))
"""
        residual, length, scipy_modules = fresh_interpreter(script, str(tmp_path / "prec.bin"))
        assert residual <= 1e-12 and length > 1
        assert scipy_modules == []

    def test_csr_instance_file_in_a_new_interpreter(self, tmp_path):
        path = str(tmp_path / "tomo.bin")
        save_instance(path, gen_tomography(16, 6, seed=1, noise=False))
        problem = load_instance(path)
        config = dict(method="bsaga", step_multiplier=10.0, epochs=2.0, seed=1)
        script = f"""
import hashlib, json, sys
from bregopt import SolverConfig, load_instance, run
from bregopt.problems import operator_hash
from bregopt.verify import _csv_without_wall
before = {SCIPY_MODULES}
problem = load_instance(sys.argv[1])
trace = run(SolverConfig(**{config!r}), problem)
print(json.dumps([before, "scipy.sparse" in sys.modules, operator_hash(problem.objective.A),
                  hashlib.sha256(_csv_without_wall(trace).encode()).hexdigest()]))
"""
        before, loaded, op_hash, digest = fresh_interpreter(script, path)
        assert before == [] and loaded
        assert op_hash == operator_hash(problem.objective.A)
        trace = run(SolverConfig(**config), problem)
        assert digest == hashlib.sha256(_csv_without_wall(trace).encode()).hexdigest()
