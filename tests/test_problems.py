"""Tests for problem generators, data formats, and instance files."""

import struct

import numpy as np
import pytest

from bregopt import (
    InvalidData,
    LabelError,
    ParseError,
    gen_gaussian_logistic_data,
    gen_interpolation,
    gen_preconditioned,
    gen_tomography,
    load_instance,
    load_libsvm,
    poisson_sample,
    radon_matrix,
    rel_constants_logistic,
    save_instance,
    save_libsvm,
    shepp_logan,
)
from bregopt.problems import operator_hash, write_manifest
from bregopt.rng import make_rng


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


class TestRadon:
    def test_shape_and_nonnegative(self):
        size, n_angles = 16, 6
        A = radon_matrix(size, n_angles)
        assert A.shape == (size * n_angles, size * size)
        assert A.data.min() >= 0.0

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
        rng = make_rng(1)
        A = rng.normal(size=(5, 4)) * (rng.random(size=(5, 4)) < 0.6)
        labels = np.sign(rng.normal(size=5))
        labels[labels == 0] = 1.0
        path = tmp_path / "rt.txt"
        save_libsvm(path, A, labels)
        B, back = load_libsvm(path)
        np.testing.assert_array_equal(B.toarray()[:, : A.shape[1]], A)
        np.testing.assert_array_equal(back, labels)


class TestPreconditioned:
    def test_trivial_preconditioner_gives_unit_constants(self):
        # one node holding all data with c_prec = 0 makes h coincide with f
        data = gen_gaussian_logistic_data(60, 4, seed=0)
        problem = gen_preconditioned(
            data, n_nodes=1, N=60, n_prec=60, lam=0.0, c_prec=0.0, seed=0,
            inner_tol=1e-12, inner_passes=400,
        )
        l_rel, mu_rel, _ = rel_constants_logistic(
            problem.objective, problem.reference, samples=20, seed=0, radius=0.3
        )
        assert mu_rel == pytest.approx(1.0, abs=1e-4)
        assert l_rel == pytest.approx(1.0, abs=1e-4)

    def test_partition_covers_all_rows(self):
        data = gen_gaussian_logistic_data(40, 4, seed=1)
        problem = gen_preconditioned(
            data, n_nodes=4, N=10, n_prec=5, lam=1e-3, c_prec=1e-3, seed=1
        )
        obj = problem.objective
        assert obj.n_components == 4
        covered = np.sort(np.concatenate(obj.groups))
        np.testing.assert_array_equal(covered, np.arange(40))

    def test_comm_model(self):
        data = gen_gaussian_logistic_data(40, 4, seed=1)
        problem = gen_preconditioned(
            data, n_nodes=4, N=10, n_prec=5, lam=1e-3, c_prec=1e-3, seed=1
        )
        assert problem.comm_model.full_round == 4
        assert problem.comm_model.component == 1


def group_index_offset(raw, k):
    """Byte offset of the row index of the singleton group holding row ``k``
    (an int64 array: tag, rank 1, length 1, index) in an instance file."""
    return raw.index(b"i" + struct.pack("<qqq", 1, 1, k)) + 17


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

    def test_manifest_contents(self, tmp_path):
        problem = gen_interpolation(20, 5, seed=2)
        path = str(tmp_path / "inst.manifest")
        write_manifest(path, problem)
        text = open(path).read()
        assert "d = 5" in text
        assert "n = 20" in text

    def test_every_proper_prefix_is_invalid_data(self, tmp_path):
        path = str(tmp_path / "inst.bin")
        save_instance(path, gen_interpolation(20, 5, seed=1))
        raw = open(path, "rb").read()
        cut = str(tmp_path / "cut.bin")
        for k in range(len(raw)):
            with open(cut, "wb") as fh:
                fh.write(raw[:k])
            with pytest.raises(InvalidData):
                load_instance(cut)

    # byte offsets of the tags in a gen_interpolation(20, 5, 1) file
    @pytest.mark.parametrize("offset", [
        8,     # objective
        9,     # matrix of A
        10,    # array of A
        1528,  # reference
        -77,   # x_star flag
        -19,   # f_star flag
        -10,   # comm-model flag
        -9,    # L_rel flag
    ])
    def test_unknown_tags_are_invalid_data(self, tmp_path, offset):
        path = str(tmp_path / "inst.bin")
        save_instance(path, gen_interpolation(20, 5, seed=1))
        raw = bytearray(open(path, "rb").read())
        assert len(raw) == 1663 and chr(raw[offset]) in "PDfbXF-R"
        raw[offset] = ord("Z")
        with open(path, "wb") as fh:
            fh.write(bytes(raw))
        with pytest.raises(InvalidData):
            load_instance(path)

    def test_every_single_byte_corruption_is_invalid_data_or_loads(self, tmp_path):
        # each byte set to 0x00, 0xff and 0x41; a corruption may still load
        # (the format has no checksum) but must not raise anything else
        path = str(tmp_path / "inst.bin")
        save_instance(path, gen_interpolation(20, 5, seed=1))
        raw = open(path, "rb").read()
        bad = str(tmp_path / "bad.bin")
        outcomes = {"loaded": 0, "invalid": 0}
        for k in range(len(raw)):
            for value in (0x00, 0xFF, 0x41):
                if raw[k] == value:
                    continue
                with open(bad, "wb") as fh:
                    fh.write(raw[:k] + bytes([value]) + raw[k + 1:])
                try:
                    load_instance(bad)
                    outcomes["loaded"] += 1
                except InvalidData:
                    outcomes["invalid"] += 1
        assert sum(outcomes.values()) == 4436 and outcomes["invalid"] >= 1395

    @pytest.mark.parametrize("ndim", [0, 3, 65])
    def test_unwritten_array_rank_is_invalid_data(self, tmp_path, ndim):
        path = str(tmp_path / "inst.bin")
        save_instance(path, gen_interpolation(20, 5, seed=1))
        raw = bytearray(open(path, "rb").read())
        assert raw[10:11] == b"f" and raw[11] == 2  # rank of the array of A
        raw[11] = ndim
        with open(path, "wb") as fh:
            fh.write(bytes(raw))
        with pytest.raises(InvalidData, match="rank"):
            load_instance(path)

    @pytest.mark.parametrize("value", [0xFF, 0x41])
    def test_group_index_outside_rows_is_invalid_data(self, tmp_path, value):
        path = str(tmp_path / "inst.bin")
        save_instance(path, gen_interpolation(20, 5, seed=1))
        raw = bytearray(open(path, "rb").read())
        offset = group_index_offset(raw, 3)
        raw[offset] = value
        with open(path, "wb") as fh:
            fh.write(bytes(raw))
        with pytest.raises(InvalidData, match="group indices"):
            load_instance(path)

    def test_roundtrip_keeps_the_row_kernel(self, tmp_path):
        path = str(tmp_path / "inst.bin")
        save_instance(path, gen_interpolation(20, 5, seed=1))
        assert load_instance(path).objective._rows is not None

    def test_trailing_bytes_are_invalid_data(self, tmp_path):
        path = str(tmp_path / "inst.bin")
        save_instance(path, gen_interpolation(20, 5, seed=1))
        with open(path, "ab") as fh:
            fh.write(b"-")
        with pytest.raises(InvalidData, match="trailing"):
            load_instance(path)
