"""Problem generators, data ingestion and instance serialization.

Generators are pure functions of (arguments, seed) and can be called
concurrently. Three experiment families are covered:

* synthetic Poisson inverse problems in the interpolation regime,
* tomographic reconstruction of the Shepp-Logan phantom from a
  Poisson-corrupted sinogram,
* simulated statistically-preconditioned distributed logistic regression
  (communication is accounted, not performed over a network).
"""

import hashlib
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import (
    InsufficientData,
    InvalidData,
    LabelError,
    ParseError,
    StepOutOfDomain,
)
from .mirror import LogBarrier, Preconditioner, make_reference, mirror_step
from .objective import (
    DiagonalQuadratic,
    LogisticL2,
    PoissonKL,
    poisson_rel_L,
)
from .rng import make_rng

# Entries below this size are kept dense; larger operators go to CSR with
# 64-bit indices.
DENSE_ENTRY_LIMIT = 10**6


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
        meta={"L_rel": poisson_rel_L(A, b), "generator": "interpolation",
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


def radon_matrix(size, n_angles):
    """Sparse parallel-beam Radon operator for a size x size image.

    One row per (angle, detector bin) with angles uniform on [0, pi) and
    ``size`` detector bins of unit (pixel) spacing. Each ray is sampled at
    unit-pixel steps and distributed onto the four surrounding pixels by
    bilinear weights. Rows are grouped by angle: row index = angle * size +
    bin.
    """
    if n_angles < 1:
        raise ValueError("n_angles must be at least 1")
    half = size / 2.0
    offsets = np.arange(size) - half + 0.5  # detector bin offsets
    steps = np.arange(-half, half + 1e-9, 1.0)  # sample positions along the ray
    rows, cols, vals = [], [], []
    for a in range(n_angles):
        theta = np.pi * a / n_angles
        ct, st = np.cos(theta), np.sin(theta)
        for bin_idx, s in enumerate(offsets):
            # ray center offset s along (ct, st); direction (-st, ct)
            px = half + s * ct - steps * st
            py = half + s * st + steps * ct
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
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_angles * size, size * size),
    ).tocsr()
    A.indices = A.indices.astype(np.int64)
    A.indptr = A.indptr.astype(np.int64)
    return A


def operator_hash(A):
    """Stable hex digest of a sparse or dense operator, for trace metadata."""
    h = hashlib.sha256()
    if sp.issparse(A):
        A = A.tocsr()
        h.update(np.asarray(A.shape, dtype=np.int64).tobytes())
        h.update(A.indptr.astype(np.int64).tobytes())
        h.update(A.indices.astype(np.int64).tobytes())
        h.update(A.data.astype(np.float64).tobytes())
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


def gen_tomography(size=64, n_angles=60, seed=0, noise=True, photon_scale=1.0):
    """Tomography instance: phantom -> Radon -> Poisson corruption -> KL
    objective grouped per angle, with the log-barrier reference.

    ``photon_scale`` rescales the clean sinogram before sampling (higher
    scale = better counting statistics). With ``noise=False`` the instance is
    in the interpolation regime and the phantom attains objective value 0.
    """
    img = shepp_logan(size)
    A = radon_matrix(size, n_angles)
    clean = np.asarray(A @ img.ravel()).ravel() * photon_scale
    if photon_scale != 1.0:
        A = A * photon_scale
    b = poisson_sample(clean, seed).astype(float) if noise else clean
    groups = [np.arange(a * size, (a + 1) * size) for a in range(n_angles)]
    obj = PoissonKL(A, b, groups=groups)
    l_rel = poisson_rel_L(A, b, n_components=n_angles)
    x_star = None if noise else img.ravel()
    return ProblemInstance(
        objective=obj,
        reference=LogBarrier(),
        x0=np.full(size * size, 0.5),
        x_star=x_star,
        f_star=0.0 if not noise else None,
        meta={
            "L_rel": l_rel,
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
    A = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    A.indices = A.indices.astype(np.int64)
    A.indptr = A.indptr.astype(np.int64)
    return A, np.array(labels)


def save_libsvm(path, A, labels):
    """Write (matrix, labels) in LibSVM text format (1-based indices)."""
    A = A.tocsr() if sp.issparse(A) else sp.csr_matrix(np.asarray(A))
    with open(path, "w") as fh:
        for i in range(A.shape[0]):
            start, end = A.indptr[i], A.indptr[i + 1]
            feats = " ".join(
                f"{int(j) + 1}:{repr(float(v))}"
                for j, v in zip(A.indices[start:end], A.data[start:end])
            )
            lab = "+1" if labels[i] > 0 else "-1"
            fh.write(f"{lab} {feats}\n".rstrip() + "\n")


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


def gen_preconditioned(dataset, n_nodes, N, n_prec, lam, c_prec, seed,
                       inner_tol=1e-6, inner_passes=10):
    """Simulated statistically-preconditioned distributed instance.

    ``dataset`` is (matrix, labels). Rows are shuffled and partitioned into
    ``n_nodes`` blocks of ``N``; component i is node i's regularized logistic
    objective. The reference function is node 0's objective on its first
    ``n_prec`` rows plus a (c_prec/2)||x||^2 term. The communication model
    charges one unit per stochastic component query and ``n_nodes`` units per
    full-gradient round.
    """
    A, labels = dataset
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
    ref = Preconditioner(inner, c_prec=c_prec, inner_tol=inner_tol,
                         inner_passes=inner_passes)
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
    objectives are solved with scipy's deterministic L-BFGS; Poisson KL
    objectives with multiplicative updates followed by a gradient-norm check.
    """
    from scipy.optimize import minimize

    obj = problem.objective
    if isinstance(obj, LogisticL2):
        res = minimize(
            lambda x: obj.value(x),
            np.asarray(problem.x0, dtype=float),
            jac=lambda x: obj.full_grad(x),
            method="L-BFGS-B",
            options={"maxiter": max_iter, "ftol": 1e-18, "gtol": tol},
        )
        problem.x_star = res.x
        problem.f_star = float(obj.value(res.x))
    elif isinstance(obj, PoissonKL) and obj.barrier_weight == 0.0:
        from .solver import mu_step

        x = np.asarray(problem.x0, dtype=float).copy()
        for _ in range(max_iter):
            x_new = mu_step(x, obj.A, obj.b)
            if np.max(np.abs(x_new - x)) <= tol * (1.0 + np.max(np.abs(x))):
                x = x_new
                break
            x = x_new
        problem.x_star = x
        problem.f_star = float(obj.value(x))
    elif isinstance(obj, PoissonKL):
        # barrier-regularized KL: relatively strongly convex, solve by
        # deterministic Bregman descent with the theoretical step
        l_rel = poisson_rel_L(obj.A, obj.b, n_components=obj.n_components)
        l_rel += obj.barrier_weight
        ref = LogBarrier()
        x = np.asarray(problem.x0, dtype=float).copy()
        eta = 1.0 / l_rel
        for _ in range(max_iter):
            g = obj.full_grad(x)
            if np.linalg.norm(g) <= tol:
                break
            try:
                x = mirror_step(ref, x, g, eta)
            except StepOutOfDomain:
                eta *= 0.5
        problem.x_star = x
        problem.f_star = float(obj.value(x))
    else:
        raise InvalidData("no reference-solution route for this objective kind")
    return problem


# ---------------------------------------------------------------------------
# binary instance format
# ---------------------------------------------------------------------------

_MAGIC = b"BREGOPT1"
_REFERENCE_TAGS = {b"e": "euclidean", b"b": "log_barrier", b"n": "neg_entropy"}


def _pack_array(fh, arr):
    arr = np.ascontiguousarray(arr)
    code = {"f": b"f", "i": b"i"}[arr.dtype.kind]
    fh.write(code)
    fh.write(struct.pack("<q", arr.ndim))
    for s in arr.shape:
        fh.write(struct.pack("<q", s))
    fh.write(arr.astype("<f8" if code == b"f" else "<i8").tobytes())


def _read_exact(fh, n):
    """Read exactly ``n`` bytes; a short or corrupt file raises InvalidData.

    The length is checked against the bytes left in the file before reading,
    so a corrupt size field cannot ask for a huge buffer.
    """
    offset = fh.tell()
    if not 0 <= n <= os.fstat(fh.fileno()).st_size - offset:
        raise InvalidData(f"truncated instance file: {n} bytes expected at offset {offset}")
    return fh.read(n)


def _read_struct(fh, fmt):
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt)))


def _read_flag(fh, tag):
    """True for ``tag``, False for the absent marker b"-"."""
    flag = _read_exact(fh, 1)
    if flag not in (tag, b"-"):
        raise InvalidData(f"unknown block tag {flag!r} (expected {tag!r} or b'-')")
    return flag == tag


def _unpack_array(fh):
    code = _read_exact(fh, 1)
    if code not in (b"f", b"i"):
        raise InvalidData(f"unknown array tag {code!r}")
    (ndim,) = _read_struct(fh, "<q")
    if ndim not in (1, 2):
        raise InvalidData(f"array rank {ndim} (the format writes vectors and matrices)")
    shape = tuple(_read_struct(fh, "<q")[0] for _ in range(ndim))
    if any(s < 0 for s in shape):
        raise InvalidData(f"negative array shape {shape}")
    dtype = "<f8" if code == b"f" else "<i8"
    data = np.frombuffer(_read_exact(fh, 8 * math.prod(shape)), dtype=dtype)
    return data.reshape(shape).copy()


def _pack_matrix(fh, A):
    if sp.issparse(A):
        A = A.tocsr()
        fh.write(b"S")
        fh.write(struct.pack("<qq", *A.shape))
        _pack_array(fh, A.indptr.astype(np.int64))
        _pack_array(fh, A.indices.astype(np.int64))
        _pack_array(fh, A.data.astype(np.float64))
    else:
        fh.write(b"D")
        _pack_array(fh, np.asarray(A, dtype=np.float64))


def _unpack_matrix(fh):
    code = _read_exact(fh, 1)
    if code == b"S":
        shape = _read_struct(fh, "<qq")
        indptr = _unpack_array(fh)
        indices = _unpack_array(fh)
        data = _unpack_array(fh)
        return sp.csr_matrix((data, indices, indptr), shape=shape)
    if code != b"D":
        raise InvalidData(f"unknown matrix tag {code!r}")
    return _unpack_array(fh)


def save_instance(path, problem):
    """Serialize a ProblemInstance to the versioned little-endian format.

    Layout: magic, objective block (kind tag + arrays), reference block,
    points block (x0, optional x_star / f_star), communication model.
    Preconditioner references embed their inner dataset.
    """
    obj, ref = problem.objective, problem.reference
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        if isinstance(obj, PoissonKL):
            fh.write(b"P")
            _pack_matrix(fh, obj.A)
            _pack_array(fh, obj.b)
            fh.write(struct.pack("<d", obj.barrier_weight))
            fh.write(struct.pack("<q", obj.n_components))
            for g in obj.groups:
                _pack_array(fh, g.astype(np.int64))
        elif isinstance(obj, LogisticL2):
            fh.write(b"L")
            _pack_matrix(fh, obj.A)
            _pack_array(fh, obj.labels)
            fh.write(struct.pack("<d", obj.lam))
            fh.write(struct.pack("<q", obj.n_components))
            for g in obj.groups:
                _pack_array(fh, g.astype(np.int64))
        elif isinstance(obj, DiagonalQuadratic):
            fh.write(b"Q")
            _pack_array(fh, obj.Q)
            _pack_array(fh, obj.C)
        else:
            raise InvalidData("unsupported objective kind for serialization")

        kind = getattr(ref, "kind", None)
        if kind == "preconditioner":
            fh.write(b"p")
            _pack_matrix(fh, ref.inner.A)
            _pack_array(fh, ref.inner.labels)
            fh.write(struct.pack("<d", ref.inner.lam))
            fh.write(struct.pack("<dqd", ref.c_prec, ref.inner_passes, ref.inner_tol))
        else:
            tag = {name: t for t, name in _REFERENCE_TAGS.items()}[kind]
            fh.write(tag)

        _pack_array(fh, np.asarray(problem.x0, dtype=float))
        fh.write(b"X" if problem.x_star is not None else b"-")
        if problem.x_star is not None:
            _pack_array(fh, np.asarray(problem.x_star, dtype=float))
        fh.write(b"F" if problem.f_star is not None else b"-")
        if problem.f_star is not None:
            fh.write(struct.pack("<d", problem.f_star))
        fh.write(b"C" if problem.comm_model is not None else b"-")
        if problem.comm_model is not None:
            fh.write(struct.pack("<dd", problem.comm_model.full_round,
                                 problem.comm_model.component))
        if "L_rel" in (problem.meta or {}) and problem.meta["L_rel"] is not None:
            fh.write(b"R")
            fh.write(struct.pack("<d", problem.meta["L_rel"]))
        else:
            fh.write(b"-")


def load_instance(path):
    """Deserialize a ProblemInstance written by :func:`save_instance`.

    A truncated file, an unknown tag or bytes after the last block raise
    InvalidData.
    """
    with open(path, "rb") as fh:
        if fh.read(8) != _MAGIC:
            raise InvalidData(f"{path}: not a bregopt instance file")
        tag = _read_exact(fh, 1)
        if tag == b"P":
            A = _unpack_matrix(fh)
            b = _unpack_array(fh)
            (bw,) = _read_struct(fh, "<d")
            (ng,) = _read_struct(fh, "<q")
            groups = [_unpack_array(fh) for _ in range(ng)]
            obj = PoissonKL(A, b, groups=groups, barrier_weight=bw)
        elif tag == b"L":
            A = _unpack_matrix(fh)
            labels = _unpack_array(fh)
            (lam,) = _read_struct(fh, "<d")
            (ng,) = _read_struct(fh, "<q")
            groups = [_unpack_array(fh) for _ in range(ng)]
            obj = LogisticL2(A, labels, lam=lam, groups=groups)
        elif tag == b"Q":
            obj = DiagonalQuadratic(_unpack_array(fh), _unpack_array(fh))
        else:
            raise InvalidData(f"{path}: unknown objective tag {tag!r}")

        rtag = _read_exact(fh, 1)
        if rtag == b"p":
            Ai = _unpack_matrix(fh)
            li = _unpack_array(fh)
            (lam,) = _read_struct(fh, "<d")
            c_prec, passes, tol = _read_struct(fh, "<dqd")
            ref = Preconditioner(LogisticL2(Ai, li, lam=lam), c_prec=c_prec,
                                 inner_tol=tol, inner_passes=int(passes))
        elif rtag in _REFERENCE_TAGS:
            ref = make_reference(_REFERENCE_TAGS[rtag])
        else:
            raise InvalidData(f"{path}: unknown reference tag {rtag!r}")

        x0 = _unpack_array(fh)
        x_star = _unpack_array(fh) if _read_flag(fh, b"X") else None
        f_star = _read_struct(fh, "<d")[0] if _read_flag(fh, b"F") else None
        comm = None
        if _read_flag(fh, b"C"):
            fr, cc = _read_struct(fh, "<dd")
            comm = CommModel(full_round=fr, component=cc)
        meta = {}
        if _read_flag(fh, b"R"):
            meta["L_rel"] = _read_struct(fh, "<d")[0]
        if fh.read(1):
            raise InvalidData(f"{path}: trailing bytes after the last block")
    return ProblemInstance(objective=obj, reference=ref, x0=x0, x_star=x_star,
                           f_star=f_star, comm_model=comm, meta=meta)


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


def export_image_text(path, image):
    """Plain-text matrix dump of an image (one row per line)."""
    np.savetxt(path, np.asarray(image), fmt="%.10g")
