"""Problem generators, data ingestion and instance serialization.

Generators are pure functions of (arguments, seed) and can be called
concurrently. Three experiment families are covered:

* synthetic Poisson inverse problems in the interpolation regime,
* tomographic reconstruction of the Shepp-Logan phantom from a
  Poisson-corrupted sinogram,
* simulated statistically-preconditioned distributed logistic regression
  (communication is accounted, not performed over a network).

scipy is imported on first use, by the sparse operators only
(``radon_matrix`` for tomography, CSR matrices in instance files,
``load_libsvm``). Dense instances, their files and every reference solve
need numpy alone: logistic objectives are solved by a shifted Newton
method on their own Hessian.
"""

import hashlib
import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientData,
    InvalidData,
    LabelError,
    ParseError,
    StepFailure,
)
from .mirror import LogBarrier, Preconditioner, damped_newton_step, make_reference
from .objective import DiagonalQuadratic, LogisticL2, PoissonKL, _issparse
from .rng import make_rng
from .solver import halved_advance


@dataclass
class CommModel:
    """Worker-communication cost accounting for the distributed setting."""

    full_round: float  # cost of one full-gradient round (all workers)
    component: float = 1.0  # cost of querying a single component


@dataclass
class ProblemInstance:
    """Objective + reference geometry + initial point + optional certificates."""

    objective: object
    reference: object
    x0: np.ndarray
    x_star: np.ndarray = None
    f_star: float = None
    comm_model: CommModel = None
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# synthetic interpolation instance
# ---------------------------------------------------------------------------


def gen_interpolation(n, d, seed):
    """Poisson inverse problem with b = A x_star exactly (zero noise at the
    optimum). A and x_star have entries uniform on (0, 1); the reference is
    the log-barrier and x0 is the all-ones vector."""
    rng = make_rng(seed)
    A = rng.uniform(0.0, 1.0, size=(n, d))
    x_star = rng.uniform(0.0, 1.0, size=d)
    b = A @ x_star
    obj = PoissonKL(A, b)
    return ProblemInstance(
        objective=obj,
        reference=LogBarrier(),
        x0=np.ones(d),
        x_star=x_star,
        f_star=0.0,
        meta={"L_rel": obj.rel_smoothness(), "generator": "interpolation",
              "n": n, "d": d, "seed": seed},
    )


# ---------------------------------------------------------------------------
# Shepp-Logan phantom and Radon operator
# ---------------------------------------------------------------------------

# Modified (contrast-enhanced) phantom: one row per ellipse with
# (intensity, semi-axis a, semi-axis b, center x, center y, angle in degrees).
SHEPP_LOGAN_ELLIPSES = np.array(
    [
        [1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0],
        [-0.80, 0.6624, 0.8740, 0.00, -0.0184, 0.0],
        [-0.20, 0.1100, 0.3100, 0.22, 0.0000, -18.0],
        [-0.20, 0.1600, 0.4100, -0.22, 0.0000, 18.0],
        [0.10, 0.2100, 0.2500, 0.00, 0.3500, 0.0],
        [0.10, 0.0460, 0.0460, 0.00, 0.1000, 0.0],
        [0.10, 0.0460, 0.0460, 0.00, -0.1000, 0.0],
        [0.10, 0.0460, 0.0230, -0.08, -0.6050, 0.0],
        [0.10, 0.0230, 0.0230, 0.00, -0.6050, 0.0],
        [0.10, 0.0230, 0.0460, 0.06, -0.6050, 0.0],
    ]
)


def shepp_logan(size):
    """Rasterize the modified Shepp-Logan phantom on a size x size grid.

    Pixel value = sum of intensities of the ellipses containing the pixel
    center (coordinates in [-1, 1]^2), clamped at zero from below.
    """
    if size < 16:
        raise ValueError("size must be at least 16")
    coords = (np.arange(size) + 0.5) / size * 2.0 - 1.0
    X, Y = np.meshgrid(coords, -coords)  # row 0 is the top of the image
    img = np.zeros((size, size))
    for inten, a, b, x0, y0, deg in SHEPP_LOGAN_ELLIPSES:
        phi = np.deg2rad(deg)
        c, s = np.cos(phi), np.sin(phi)
        xr = (X - x0) * c + (Y - y0) * s
        yr = -(X - x0) * s + (Y - y0) * c
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += inten
    return np.maximum(img, 0.0)


# pixel offsets of the four bilinear corners (0, 0), (1, 0), (0, 1), (1, 1)
_CORNER_DX = np.array([0, 1, 0, 1])[:, None]
_CORNER_DY = np.array([0, 0, 1, 1])[:, None]


def radon_matrix(size, n_angles):
    """Sparse parallel-beam Radon operator for a size x size image.

    One row per (angle, detector bin) with angles uniform on [0, pi) and
    ``size`` detector bins of unit (pixel) spacing. Each ray is sampled at
    unit-pixel steps and distributed onto the four surrounding pixels by
    bilinear weights. Rows are grouped by angle: row index = angle * size +
    bin.

    The operator is assembled one angle at a time, vectorised over
    (bin, corner, step): each angle's entries, already in row (bin) order,
    become one CSR block, and the blocks are stacked in angle order. A
    row's entries reach it corner by corner in step order, and scipy sorts
    and sums duplicates row by row, so every row keeps the entry order and
    the summation order of a COO-to-CSR conversion of all angles at once,
    while only one angle's triples are held at a time. Each block keeps
    copies of its summed arrays, not views of the unsummed ones.
    """
    if size < 1 or n_angles < 1:
        raise ValueError("size and n_angles must be at least 1")
    import scipy.sparse as sp

    half = size / 2.0
    offsets = np.arange(size) - half + 0.5  # detector bin offsets
    steps = np.arange(-half, half + 1e-9, 1.0)  # sample positions along the ray
    blocks = []
    for a in range(n_angles):
        theta = np.pi * a / n_angles
        ct, st = np.cos(theta), np.sin(theta)
        # ray center offset s along (ct, st); direction (-st, ct): (bin, step)
        px = (half + offsets * ct)[:, None] - steps * st
        py = (half + offsets * st)[:, None] + steps * ct
        ix = np.floor(px - 0.5).astype(int)
        iy = np.floor(py - 0.5).astype(int)
        fx = (px - 0.5) - ix
        fy = (py - 0.5) - iy
        # (bin, corner, step)
        cx = ix[:, None] + _CORNER_DX
        cy = iy[:, None] + _CORNER_DY
        w = np.stack(((1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy), axis=1)
        ok = (cx >= 0) & (cx < size) & (cy >= 0) & (cy < size) & (w > 0)
        indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(ok, axis=(1, 2)))))
        block = sp.csr_matrix((w[ok], cy[ok] * size + cx[ok], indptr), shape=(size, size * size))
        block.sum_duplicates()
        # the sum may leave views of the unsummed arrays; a copy frees them
        blocks.append(block.copy())
    return sp.vstack(blocks, format="csr")


def operator_hash(A):
    """Stable hex digest of a sparse or dense operator, for trace metadata."""
    h = hashlib.sha256()
    if _issparse(A):
        A = A.tocsr()
        h.update(np.asarray(A.shape, dtype=np.int64).tobytes())
        h.update(A.indptr.astype(np.int64).tobytes())
        h.update(A.indices.astype(np.int64).tobytes())
        h.update(A.data.astype(np.float64, copy=False).tobytes())
    else:
        h.update(np.asarray(A.shape, dtype=np.int64).tobytes())
        h.update(np.asarray(A, dtype=np.float64).tobytes())
    return h.hexdigest()


def poisson_sample(mean, seed):
    """Componentwise independent Poisson draws from the seeded generator."""
    mean = np.asarray(mean, dtype=float)
    if np.any(mean < 0) or not np.all(np.isfinite(mean)):
        raise InvalidData("poisson_sample: means must be finite and nonnegative")
    return make_rng(seed).poisson(mean).astype(np.int64)


def gen_tomography(size=64, n_angles=60, seed=0, noise=True):
    """Tomography instance: phantom -> Radon -> Poisson corruption -> KL
    objective grouped per angle, with the log-barrier reference.

    With ``noise=False`` the instance is in the interpolation regime and the
    phantom (``meta["phantom"]``) attains objective value ``f_star = 0``. It
    is not given as ``x_star``: its zero background lies outside the
    log-barrier domain, where D_h(x_star, .) is +inf.
    """
    img = shepp_logan(size)
    A = radon_matrix(size, n_angles)
    clean = np.asarray(A @ img.ravel()).ravel()
    b = poisson_sample(clean, seed).astype(float) if noise else clean
    groups = [np.arange(a * size, (a + 1) * size) for a in range(n_angles)]
    obj = PoissonKL(A, b, groups=groups)
    return ProblemInstance(
        objective=obj,
        reference=LogBarrier(),
        x0=np.full(size * size, 0.5),
        f_star=None if noise else 0.0,
        meta={
            "L_rel": obj.rel_smoothness(),
            "generator": "tomography",
            "size": size,
            "n_angles": n_angles,
            "seed": seed,
            "noise": noise,
            "operator_hash": operator_hash(A),
            "phantom": img,
        },
    )


# ---------------------------------------------------------------------------
# LibSVM text format
# ---------------------------------------------------------------------------


def load_libsvm(path):
    """Read a LibSVM sparse text file into (CSR matrix, label vector).

    Feature indices are 1-based in the file and mapped to 0-based columns.
    Labels are coerced to {-1, +1} (0/1 conventions accepted). Duplicate
    indices within a line are rejected.
    """
    import scipy.sparse as sp

    rows, cols, vals, labels = [], [], [], []
    n_rows = 0
    max_col = -1
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise ParseError(f"line {lineno}: bad label {tokens[0]!r}", line=lineno)
            if label in (1.0, +1.0):
                labels.append(1.0)
            elif label in (-1.0, 0.0):
                labels.append(-1.0)
            else:
                raise LabelError(f"line {lineno}: unsupported label {label}")
            seen = set()
            for tok in tokens[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise ParseError(f"line {lineno}: bad feature token {tok!r}", line=lineno)
                if idx < 1:
                    raise ParseError(f"line {lineno}: index must be >= 1", line=lineno)
                if idx in seen:
                    raise ParseError(f"line {lineno}: duplicate index {idx}", line=lineno)
                seen.add(idx)
                rows.append(n_rows)
                cols.append(idx - 1)
                vals.append(val)
                max_col = max(max_col, idx - 1)
            n_rows += 1
    shape = (n_rows, max_col + 1)
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr(), np.array(labels)


# ---------------------------------------------------------------------------
# preconditioned distributed instance
# ---------------------------------------------------------------------------


def gen_gaussian_logistic_data(n_rows, d, seed, separation=1.0):
    """Two-class Gaussian synthetic dataset for logistic regression."""
    rng = make_rng(seed)
    labels = np.where(rng.random(n_rows) < 0.5, 1.0, -1.0)
    centers = separation * np.outer(labels, np.ones(d) / np.sqrt(d))
    A = centers + rng.standard_normal((n_rows, d))
    return A, labels


def gen_preconditioned(dataset, n_nodes, N, n_prec, lam, c_prec, seed):
    """Simulated statistically-preconditioned distributed instance.

    ``dataset`` is (matrix, labels). Rows are shuffled and partitioned into
    ``n_nodes`` blocks of ``N``; component i is node i's regularized logistic
    objective. The reference function is node 0's objective on its first
    ``n_prec`` rows plus a (c_prec/2)||x||^2 term. The communication model
    charges one unit per stochastic component query and ``n_nodes`` units per
    full-gradient round.
    """
    A, labels = dataset
    if n_nodes < 1:
        raise InsufficientData(f"need at least one node, got {n_nodes}")
    total = n_nodes * N
    if A.shape[0] < total:
        raise InsufficientData(
            f"need {total} rows for {n_nodes} nodes x {N} samples, got {A.shape[0]}"
        )
    if n_prec > N:
        raise InsufficientData("n_prec cannot exceed the per-node sample count")
    perm = make_rng(seed).permutation(A.shape[0])[:total]
    A = A[perm]
    labels = np.asarray(labels)[perm]
    groups = [np.arange(i * N, (i + 1) * N) for i in range(n_nodes)]
    obj = LogisticL2(A, labels, lam=lam, groups=groups)
    prec_rows = np.arange(n_prec)  # node 0's first n_prec rows
    inner = LogisticL2(A[prec_rows], labels[prec_rows], lam=lam)
    ref = Preconditioner(inner, c_prec=c_prec)
    return ProblemInstance(
        objective=obj,
        reference=ref,
        x0=np.zeros(A.shape[1]),
        comm_model=CommModel(full_round=float(n_nodes), component=1.0),
        meta={
            "L_rel": 1.0,  # statistical preconditioning target; advisory
            "generator": "preconditioned",
            "n_nodes": n_nodes,
            "N": N,
            "n_prec": n_prec,
            "lam": lam,
            "c_prec": c_prec,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# reference solutions for noisy instances
# ---------------------------------------------------------------------------


def solve_reference(problem, tol=1e-12, max_iter=200000):
    """High-accuracy minimizer for instances without a closed-form optimum.

    Fills in x_star and f_star in place and returns the problem. Logistic
    objectives are solved by a shifted damped Newton method on grad f(x) =
    0 until the 2-norm of the gradient is at most ``tol`` (see
    :func:`_newton_reference`); it holds one d x d Newton matrix, as each
    preconditioned inner solve does. Poisson KL objectives are solved with
    multiplicative updates, or, with a barrier term, with Bregman gradient
    descent under the log-barrier until the gradient norm is at most
    ``tol``. Each such step runs under ``run()``'s halving safeguard
    (:func:`~bregopt.solver.halved_advance`, StepFailure once it gives up),
    and the step size stays halved for the rest of the solve.
    """
    obj = problem.objective
    if isinstance(obj, LogisticL2):
        here = _newton_reference(obj, np.array(problem.x0, dtype=float), tol, max_iter)
        problem.x_star = here.x
        problem.f_star = here.value
    elif isinstance(obj, PoissonKL) and obj.barrier_weight == 0.0:
        x = np.asarray(problem.x0, dtype=float).copy()
        for _ in range(max_iter):
            x_new = obj.mu_step(x)
            if np.max(np.abs(x_new - x)) <= tol * (1.0 + np.max(np.abs(x))):
                x = x_new
                break
            x = x_new
        problem.x_star = x
        problem.f_star = float(obj.value(x))
    elif isinstance(obj, PoissonKL):
        # barrier-regularized KL: relatively strongly convex, solve by
        # deterministic Bregman descent with the theoretical step
        ref = LogBarrier()
        x = np.asarray(problem.x0, dtype=float).copy()
        hx = ref.grad(x)
        eta = 1.0 / obj.rel_smoothness()
        for _ in range(max_iter):
            g = obj.full_grad(x)
            if np.linalg.norm(g) <= tol:
                break
            x, hx, k = halved_advance(ref.advance, x, hx, g, eta)
            eta *= 0.5**k
        problem.x_star = x
        problem.f_star = float(obj.value(x))
    else:
        raise InvalidData("no reference-solution route for this objective kind")
    return problem


def _newton_reference(obj, x, tol, max_iter):
    """The point of ``obj`` where ||grad f|| <= tol, by damped Newton from x.

    Each step solves (hessian + mu I) p = grad f with mu = min(||grad f||,
    1e-8), a shift that keeps the matrix nonsingular when lam = 0 and A
    has dependent columns (Li, Fukushima, Qi & Yamashita, Comput. Optim.
    Appl. 2004) and vanishes at the solution, and takes the residual-
    decrease backtracking of :func:`~bregopt.mirror.damped_newton_step`.
    Each point visited is one ``obj.at`` data pass, which gives its
    gradient, its value and the Hessian of the next step. A step that finds
    no decrease, or ``max_iter`` steps, above ``tol`` raise StepFailure
    naming the residual.
    """
    def trial(z):  # (point, gradient) at z
        at_z = obj.at(z)
        return at_z, at_z.grad

    here = obj.at(x)
    res = np.linalg.norm(here.grad)
    singular = StepFailure("logistic reference: singular Newton matrix")
    for _ in range(max_iter):
        if res <= tol:
            return here
        H = here.hessian()
        H.flat[:: obj.dim + 1] += min(res, 1e-8)
        step = damped_newton_step(here.x, H, here.grad, res, trial, singular)
        if step is None:
            raise StepFailure(f"logistic reference: no Newton step decreases the "
                              f"gradient norm {res:.3g} (tol {tol:.3g})")
        here, _, res = step
    if res > tol:
        raise StepFailure(f"logistic reference: gradient norm {res:.3g} above tol "
                          f"{tol:.3g} after {max_iter} Newton steps")
    return here


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

# An instance file is the magic, the sha256 of everything after this 40-byte
# header, then an uncompressed npz (zip) archive of named arrays.
_MAGIC = b"BREGOPT2"
_HEADER = len(_MAGIC) + 32


def _digest(fh):
    """sha256 of ``fh`` from its position to the end, read 1 MiB at a time."""
    h = hashlib.sha256()
    for chunk in iter(lambda: fh.read(1 << 20), b""):
        h.update(chunk)
    return h.digest()


def _put_matrix(arrays, key, A):
    """Store A as ``key`` when dense, else as its CSR parts ``key_*``."""
    if _issparse(A):
        A = A.tocsr()
        arrays.update({f"{key}_shape": np.asarray(A.shape, dtype=np.int64),
                       f"{key}_indptr": A.indptr.astype(np.int64),
                       f"{key}_indices": A.indices.astype(np.int64),
                       f"{key}_data": A.data.astype(np.float64, copy=False)})
    else:
        arrays[key] = np.asarray(A, dtype=np.float64)


def _instance_arrays(problem):
    """The named arrays of ``problem``'s instance file."""
    obj, ref = problem.objective, problem.reference
    arrays = {"objective": obj.kind, "reference": ref.kind,
              "x0": np.asarray(problem.x0, dtype=float)}
    if isinstance(obj, (PoissonKL, LogisticL2)):
        _put_matrix(arrays, "A", obj.A)
        arrays["group_rows"] = np.concatenate(obj.groups)
        arrays["group_ends"] = np.cumsum([len(g) for g in obj.groups], dtype=np.int64)
        if isinstance(obj, PoissonKL):
            arrays.update(b=obj.b, barrier_weight=obj.barrier_weight)
        else:
            arrays.update(labels=obj.labels, lam=obj.lam)
    elif isinstance(obj, DiagonalQuadratic):
        arrays.update(Q=obj.Q, C=obj.C)
    else:
        raise InvalidData("unsupported objective kind for serialization")
    if ref.kind == "preconditioner":
        _put_matrix(arrays, "inner_A", ref.inner.A)
        arrays.update(inner_labels=ref.inner.labels, inner_lam=ref.inner.lam,
                      c_prec=ref.c_prec)
    comm = problem.comm_model
    optional = {"x_star": problem.x_star, "f_star": problem.f_star,
                "comm": comm and [comm.full_round, comm.component],
                "L_rel": (problem.meta or {}).get("L_rel")}
    arrays.update({k: np.asarray(v, dtype=float) for k, v in optional.items() if v is not None})
    return arrays


def save_instance(path, problem):
    """Write ``problem`` to ``path`` (the name is used as given).

    Members carry a fixed timestamp, so an instance always gives the same
    bytes. The header is written last, so a file cut short fails to load.
    """
    arrays = _instance_arrays(problem)
    with open(path, "w+b") as fh:
        fh.write(bytes(_HEADER))
        with zipfile.ZipFile(fh, "w") as zf:
            for key, value in arrays.items():
                with zf.open(zipfile.ZipInfo(key + ".npy"), "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, np.asarray(value), allow_pickle=False)
        fh.seek(_HEADER)
        digest = _digest(fh)
        fh.seek(0)
        fh.write(_MAGIC + digest)


class _Archive:
    """Checked reads from the zip archive of an instance file.

    A member must be stored uncompressed, and its npy header must declare
    exactly the bytes the member holds, so a corrupt shape cannot ask for a
    huge buffer. Members are read straight from the file at their data
    offsets, without the zip CRC that the file's sha256 already covers.
    """

    def __init__(self, zf, fh, limit):
        self.zf = zf
        self.fh = fh
        self.limit = limit  # bytes in the archive
        self.names = {name[:-4] for name in zf.namelist() if name.endswith(".npy")}

    def array(self, key, kind, shape):
        """Array ``key`` of dtype kind ``kind`` ("f", "i": 8-byte; "U") and
        ``shape`` (None matches any length)."""
        if key not in self.names:
            raise InvalidData(f"instance file lacks {key!r}")
        info = self.zf.getinfo(key + ".npy")
        if info.compress_type != zipfile.ZIP_STORED or info.file_size > self.limit:
            raise InvalidData(f"{key!r} is compressed or larger than the archive")
        # the data follow the 30-byte local header and its name and extra field
        fh = self.fh
        fh.seek(info.header_offset)
        local = fh.read(30)
        if len(local) != 30 or not local.startswith(b"PK\x03\x04"):
            raise InvalidData(f"{key!r} has no local file header")
        fh.seek(int.from_bytes(local[26:28], "little") + int.from_bytes(local[28:], "little"), 1)
        start = fh.tell()
        if np.lib.format.read_magic(fh) != (1, 0):
            raise InvalidData(f"{key!r}: unsupported npy version")
        got, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        held = info.file_size - (fh.tell() - start)
        if (dtype.kind != kind or (kind != "U" and dtype.itemsize != 8)
                or len(got) != len(shape) or any(s not in (None, g) for s, g in zip(shape, got))
                or math.prod(got) * dtype.itemsize != held):
            raise InvalidData(f"{key!r} is a {dtype} array of shape {got} (rank {len(got)}) "
                              f"in {held} bytes; expected kind {kind!r} and shape {shape}")
        array = np.ndarray(got, dtype, order="F" if fortran else "C")
        # the member stores compress_size bytes; a read stops short only at the end of the file
        if held and (info.compress_size < info.file_size
                     or fh.readinto(array.reshape(-1, order="A").view(np.uint8)) != held):
            raise InvalidData(f"{key!r} holds fewer than the {held} bytes it declares")
        return array

    def scalar(self, key, kind="f"):
        return self.array(key, kind, ()).item()

    def finite(self, key, shape):
        """Finite float array ``key`` (a float when 0-d)."""
        value = self.array(key, "f", shape)
        if not np.all(np.isfinite(value)):
            raise InvalidData(f"{key!r} is not finite")
        return value if shape else value.item()

    def optional(self, key, shape):
        """:meth:`finite` array ``key``, or None when absent."""
        return self.finite(key, shape) if key in self.names else None

    def matrix(self, key):
        """A dense matrix, or a CSR matrix from its parts."""
        if f"{key}_shape" not in self.names:
            return self.array(key, "f", (None, None))
        import scipy.sparse as sp

        A = sp.csr_matrix((self.array(f"{key}_data", "f", (None,)),
                           self.array(f"{key}_indices", "i", (None,)),
                           self.array(f"{key}_indptr", "i", (None,))),
                          shape=tuple(self.array(f"{key}_shape", "i", (2,)).tolist()))
        A.check_format(full_check=True)
        return A

    def groups(self):
        rows = self.array("group_rows", "i", (None,))
        ends = self.array("group_ends", "i", (None,))
        if not ends.size or ends[-1] != rows.size or np.any(np.diff(ends, prepend=0) < 0):
            raise InvalidData("group ends must rise to the number of group rows")
        return np.split(rows, ends[:-1])


def _read_instance(archive):
    kind = archive.scalar("objective", "U")
    if kind == "poisson_kl":
        obj = PoissonKL(archive.matrix("A"), archive.array("b", "f", (None,)),
                        groups=archive.groups(),
                        barrier_weight=archive.scalar("barrier_weight"))
    elif kind == "logistic_l2":
        obj = LogisticL2(archive.matrix("A"), archive.array("labels", "f", (None,)),
                         lam=archive.scalar("lam"), groups=archive.groups())
    elif kind == "quadratic":
        obj = DiagonalQuadratic(archive.array("Q", "f", (None, None)),
                                archive.array("C", "f", (None, None)))
    else:
        raise InvalidData(f"unknown objective kind {kind!r}")
    d = obj.dim
    ref_kind = archive.scalar("reference", "U")
    if ref_kind == "preconditioner":
        inner = LogisticL2(archive.matrix("inner_A"),
                           archive.array("inner_labels", "f", (None,)),
                           lam=archive.scalar("inner_lam"))
        if inner.dim != d:
            raise InvalidData(f"preconditioner dimension {inner.dim}, objective {d}")
        ref = Preconditioner(inner, c_prec=archive.scalar("c_prec"))
    else:
        ref = make_reference(ref_kind)
    comm = archive.optional("comm", (2,))
    l_rel = archive.optional("L_rel", ())
    return ProblemInstance(
        objective=obj, reference=ref, x0=archive.finite("x0", (d,)),
        x_star=archive.optional("x_star", (d,)), f_star=archive.optional("f_star", ()),
        comm_model=None if comm is None else CommModel(*comm.tolist()),
        meta={} if l_rel is None else {"L_rel": l_rel},
    )


def load_instance(path):
    """Read a ProblemInstance written by :func:`save_instance`.

    The digest is checked over the whole file before anything is parsed.
    A truncated or corrupt file, a version 1 file, and an archive with a
    missing key, a wrong dtype or shape, or data an objective rejects all
    raise InvalidData. A member nothing reads, such as the ``inner_tol``
    and ``inner_passes`` that older preconditioned files carry, is ignored.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER)
        if head.startswith(b"BREGOPT1"):
            raise InvalidData(f"{path}: version 1 instance files are no longer read; "
                              "regenerate it with bregopt gen")
        if len(head) < _HEADER or not head.startswith(_MAGIC):
            raise InvalidData(f"{path}: not a bregopt instance file")
        if _digest(fh) != head[len(_MAGIC):]:
            raise InvalidData(f"{path}: sha256 mismatch, corrupt or truncated instance file")
        limit = fh.tell() - _HEADER
        fh.seek(_HEADER)
        try:
            with zipfile.ZipFile(fh) as zf:
                return _read_instance(_Archive(zf, fh, limit))
        except (ValueError, EOFError, OSError, RuntimeError, zipfile.BadZipFile) as exc:
            raise InvalidData(f"{path}: {exc}") from exc


def write_manifest(path, problem):
    """Human-readable companion to the binary instance file."""
    obj = problem.objective
    n_rows = obj.A.shape[0] if hasattr(obj, "A") else obj.n_components
    lines = [
        f"kind = {obj.kind}",
        f"n = {n_rows}",
        f"d = {obj.dim}",
        f"components = {obj.n_components}",
        f"reference = {getattr(problem.reference, 'kind', '?')}",
    ]
    for key in ("generator", "size", "n_angles", "seed", "L_rel",
                "n_nodes", "N", "n_prec", "lam", "c_prec", "operator_hash"):
        if key in (problem.meta or {}):
            lines.append(f"{key} = {problem.meta[key]}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
