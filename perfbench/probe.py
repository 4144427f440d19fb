"""A fixed host-speed probe that does not touch bregopt.

On a shared host the CPU runs the same code about 2x slower in episodes that
last from seconds to minutes; process CPU time grows with wall time and steal
time stays near 0, so the slowdown cannot be filtered out by the clock.
Timing this probe at the boundaries of each timed segment (set-up, each
solver run, each battery criterion) gives the host's speed during it.

How much a slow episode slows code depends on what the code does, so each
workload names the probe kind that does what its hot loops do:

* ``vector``: numpy calls on 100-entry vectors (the log-barrier mirror step),
  small dense matvecs and 64-row CSR block matvecs;
* ``operator``: the vector part plus matvecs with a full 3840 x 4096 CSR
  operator of 120 entries a row, which stream memory like the tomography
  operator;
* ``dense``: a shorter vector part plus logistic gradients over 1000 x 20
  and 10000 x 20 dense blocks, like the preconditioner's inner solve and
  the records of the distributed instance.
"""

from time import perf_counter

import numpy as np
import scipy.sparse as sp

# Median probe time per kind on the host the benchmark was calibrated on
# (2-core Xeon at 2.0 GHz, Python 3.11, numpy 2.4). Normalised times are
# seconds at that probe time.
NOMINAL_S = {"vector": 0.015, "operator": 0.014, "dense": 0.010}


def _csr(rng, rows, per_row, cols=4096):
    return sp.csr_matrix(
        (rng.uniform(0.0, 1.0, size=rows * per_row),
         np.sort(rng.integers(0, cols, size=(rows, per_row)), axis=1).ravel(),
         np.arange(0, rows * per_row + 1, per_row)),
        shape=(rows, cols),
    )


class SpeedProbe:
    def __init__(self, kind):
        rng = np.random.default_rng(12345)
        self.kind = kind
        self.nominal_s = NOMINAL_S[kind]
        self.x = rng.uniform(0.5, 1.5, size=100)
        self.g = rng.uniform(-1.0, 1.0, size=100)
        self.small = rng.uniform(0.0, 1.0, size=(1000, 20))
        self.v = rng.uniform(0.0, 1.0, size=20)
        self.w = rng.uniform(0.1, 1.0, size=4096)
        if kind == "vector":
            self.steps, self.csr, self.matvecs = 600, _csr(rng, 64, 50), 150
        elif kind == "operator":
            self.steps, self.csr, self.matvecs = 600, _csr(rng, 3840, 120), 8
        else:
            self.steps = 400
            self.large = rng.uniform(0.0, 1.0, size=(10000, 20))
            self.labels = np.where(rng.random(10000) < 0.5, 1.0, -1.0)

    def _mirror_steps(self):
        x, g = self.x, self.g
        acc = 0.0
        for _ in range(self.steps):
            y = -1.0 / x - 1e-3 * g
            if np.flatnonzero(y >= 0.0).size:
                break
            x = -1.0 / y
            acc += float(x @ g)
        return acc

    @staticmethod
    def _logistic_grad(A, labels, v):
        s = 0.5 * (1.0 + np.tanh(-0.5 * labels * (A @ v)))
        return A.T @ (-labels * s / len(labels)) + 1e-5 * v

    def work(self):
        acc = self._mirror_steps()
        if self.kind == "dense":
            for _ in range(80):
                acc += float(np.sum(self._logistic_grad(self.small, self.labels[:1000], self.v)))
            for _ in range(16):
                acc += float(np.sum(self._logistic_grad(self.large, self.labels, self.v)))
            return acc
        for _ in range(40):
            acc += float(np.sum(self.small.T @ np.tanh(self.small @ self.v)))
        for _ in range(self.matvecs):
            r = self.csr @ self.w
            acc += float(np.sum(self.csr.T @ (1.0 - 1.0 / (r + 1.0))))
        return acc

    def seconds(self):
        start = perf_counter()
        self.work()
        return perf_counter() - start


class Segments:
    """Wall-clock segments separated by probe runs.

    ``cut()`` closes the current segment, runs the probe and opens the next
    one, so probe time is never inside a segment. A segment's scale is the
    probe's nominal time over its mean time at the segment's two ends; its
    normalised time is its raw time times that scale.
    """

    def __init__(self, probe):
        self.probe = probe
        self.raw, self.scale = [], []
        self._probe_s = probe.seconds()
        self.probe_times = [self._probe_s]
        self._start = perf_counter()

    def cut(self):
        end = perf_counter()
        probe_s = self.probe.seconds()
        self.probe_times.append(probe_s)
        self.raw.append(end - self._start)
        self.scale.append(2.0 * self.probe.nominal_s / (self._probe_s + probe_s))
        self._probe_s = probe_s
        self._start = perf_counter()
        return len(self.raw)

    def total(self, first, last):
        """(raw, normalised) seconds of segments first..last-1."""
        raw = sum(self.raw[first:last])
        return raw, sum(r * k for r, k in zip(self.raw[first:last], self.scale[first:last]))
