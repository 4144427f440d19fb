"""The four benchmark workloads.

Each workload builds its inputs from the seed (``build``), runs the solver
sequence a user would run on them (``solve``), writes what the user would
keep (``write``) and checks the outputs (``check``). ``build`` and ``solve``
take a tracer; with ``None`` they run exactly the untraced user path.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys

import numpy as np
import scipy.sparse as sp

from bregopt import (
    SolverConfig,
    gen_gaussian_logistic_data,
    gen_interpolation,
    gen_preconditioned,
    gen_tomography,
    load_instance,
    run,
    save_instance,
    solve_reference,
)
from bregopt.cli import main as bregopt_main

import tracing


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _csv_without_wall(trace):
    return "\n".join(line.rsplit(",", 1)[0]
                     for line in trace.to_csv_string().splitlines())


class SolverWorkload:
    """A generated instance followed by a fixed sequence of solver runs.

    Subclasses set ``primary`` (the labels of the runs whose traces give
    time to target) and ``runs`` (solver runs per repetition), and implement
    ``build``, ``configs`` and ``target_met``.
    """

    probe_kind = "vector"  # see probe.py

    def solve(self, problem, seed, tracer, between):
        """Run the configs in order, calling ``between()`` between runs."""
        if tracer is not None:
            problem = tracing.traced_problem(problem, tracer)
        traces = {}
        for k, (label, config) in enumerate(self.configs(problem, seed)):
            if k:
                between()
            with _span(tracer, tracing.RUN_SPAN):
                traces[label] = run(config, problem)
        return traces

    def write(self, traces, workdir):
        written = 0
        for label, trace in traces.items():
            path = os.path.join(workdir, f"{self.name}-{label}.csv")
            trace.to_csv(path)
            written += os.path.getsize(path)
        return written

    def time_to_target(self, traces):
        """Trace wall time at the first record meeting the target, for each
        primary run, keyed by the run's position; None if one never does."""
        order = list(traces)
        hits = {}
        for label in self.primary:
            hit = next((r.wall_s for r in traces[label].records
                        if self.target_met(r, traces)), None)
            if hit is None:
                return None
            hits[order.index(label)] = hit
        return hits

    def check(self, problem, traces):
        """Failed output checks as {run label: reason}."""
        failures = {}
        for label, trace in traces.items():
            columns = ["iter", "epoch", "grad_evals", "comms", "f_gap", "halvings"]
            if problem.x_star is not None:
                columns += ["dh_gap", "min_df_gap"]
            if trace.metadata.get("method") != "mu":
                columns.append("eta")
            values = np.array([trace.column(c) for c in columns])
            if not np.all(np.isfinite(values)):
                failures[label] = "non-finite trace value"
            elif np.any(np.diff(trace.column("grad_evals")) < 0) or np.any(
                    np.diff(trace.column("comms")) < 0):
                failures[label] = "grad_evals or comms decreased"
        for label in self.primary:
            if not any(self.target_met(r, traces) for r in traces[label].records):
                failures.setdefault(label, "accuracy target not met")
        return failures

    def counts(self, traces):
        finals = [t.final for t in traces.values()]
        return {
            "solver.steps": sum(f.iter for f in finals),
            "solver.grad_evals": sum(f.grad_evals for f in finals),
            "solver.halvings": sum(f.halvings for f in finals),
            "metrics.records": sum(len(t) for t in traces.values()),
            "verify.checks": 0,
            "verify.checks_failed": 0,
        }

    def digests(self, traces):
        return {label: hashlib.sha256(_csv_without_wall(t).encode()).hexdigest()
                for label, t in traces.items()}

    def kernel_cost(self, problem):
        return partial_grad_cost(problem.objective)


class InterpDense(SolverWorkload):
    name = "interp-dense"
    primary = ("bsgd",)
    runs = 2
    epochs = 5.0
    target = 2e-2

    def build(self, seed, tracer, workdir):
        with _span(tracer, "problems.generate"):
            return gen_interpolation(2000, 100, seed)

    def configs(self, problem, seed):
        eta = 1.0 / (2.0 * problem.meta["L_rel"])
        n = problem.objective.n_components
        return [
            ("bsgd", SolverConfig(method="bsgd", eta=eta, epochs=self.epochs, seed=seed)),
            ("bsvrg", SolverConfig(method="bsvrg", eta=eta, p=1.0 / n,
                                   epochs=self.epochs, seed=seed)),
        ]

    def target_met(self, record, traces):
        return record.f_gap <= self.target


class TomoSparse(SolverWorkload):
    """``bregopt gen tomography`` then ``bregopt run --instance``, in-process."""

    name = "tomo-sparse"
    primary = ("bsaga",)
    runs = 3
    epochs = 50.0
    probe_kind = "operator"  # MU, BGD and records stream the full operator

    def build(self, seed, tracer, workdir):
        path = os.path.join(workdir, "tomo.bin")
        radon = tracing.patched_radon(tracer) if tracer else contextlib.nullcontext()
        with _span(tracer, "problems.generate"), radon:
            problem = gen_tomography(64, 60, seed)
        with _span(tracer, "problems.save_instance"):
            save_instance(path, problem)
        if tracer is not None:
            tracer.counts["problems.instance_bytes"] = os.path.getsize(path)
        with _span(tracer, "problems.load_instance"):
            problem = load_instance(path)
        os.remove(path)
        problem.f_star = 0.0  # KL >= 0: f_gap is the objective itself
        return problem

    def configs(self, problem, seed):
        return [
            ("bsaga", SolverConfig(method="bsaga", step_multiplier=40.0,
                                   epochs=self.epochs, seed=seed, record_every=12)),
            ("mu", SolverConfig(method="mu", epochs=self.epochs, seed=seed)),
            ("bgd", SolverConfig(method="bgd", step_multiplier=10.0,
                                 epochs=self.epochs, seed=seed)),
        ]

    def target_met(self, record, traces):
        return record.f_gap <= 1.1 * traces["mu"].final.f_gap


class PrecondInner(SolverWorkload):
    """The instance of the distributed BSAGA example config, which pins its
    seed to 0. ``--seed`` picks three BSAGA sampling streams; time to target
    is their mean, since the iteration at which one stream first meets the
    target varies by about 10% from stream to stream."""

    name = "precond-inner"
    streams = 3
    primary = tuple(f"bsaga-{j}" for j in range(streams))
    runs = streams
    target = 1e-5
    instance_seed = 0
    probe_kind = "dense"  # inner solves and records are logistic gradients

    def build(self, seed, tracer, workdir):
        with _span(tracer, "problems.generate"):
            data = gen_gaussian_logistic_data(10 * 1000, 20, self.instance_seed)
            problem = gen_preconditioned(data, n_nodes=10, N=1000, n_prec=1000,
                                         lam=1e-5, c_prec=1e-5, seed=self.instance_seed)
        with _span(tracer, "problems.solve_reference"):
            solve_reference(problem)
        return problem

    def configs(self, problem, seed):
        return [(label, SolverConfig(method="bsaga", eta=0.05, epochs=30.0,
                                     seed=self.streams * seed + j, record_every=1))
                for j, label in enumerate(self.primary)]

    def target_met(self, record, traces):
        return record.f_gap <= self.target


class VerifyQuick:
    """``bregopt verify --quick``: criteria 1, 5, 8 and 9 with fixed seeds.

    Set-up is the cold start of the command: a fresh interpreter importing
    the package. The report is written by the command itself, so its write
    time is part of ``solve``.
    """

    name = "verify-quick"
    runs = 1
    probe_kind = "vector"
    criteria = (1, 5, 8, 9)

    def build(self, seed, tracer, workdir):
        root = os.path.dirname(os.path.dirname(tracing.__file__))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        subprocess.run([sys.executable, "-c", "import bregopt.cli"], env=env,
                       check=True, timeout=60)
        return workdir

    def solve(self, workdir, seed, tracer, between):
        """Run the command, calling ``between()`` before each criterion."""
        path = os.path.join(workdir, "verify-report.txt")
        with tracing.patched_battery(tracer, self.criteria, between), \
                contextlib.redirect_stdout(io.StringIO()):
            code = bregopt_main(["verify", "--quick", "--report", path])
        with open(path) as fh:
            return {"code": code, "lines": fh.read().splitlines()}

    def write(self, result, workdir):
        return 0

    def time_to_target(self, result):
        return None  # a passing report arrives when the command returns

    def check(self, workdir, result):
        if result["code"] != 0 or result["lines"][-1:] != ["ALL CHECKS PASSED"]:
            return {"verify": f"verify --quick exited {result['code']}"}
        return {}

    def counts(self, result):
        checks = [line for line in result["lines"] if line.endswith(("PASS", "FAIL"))]
        return {
            "solver.steps": 0,
            "solver.grad_evals": 0,
            "solver.halvings": 0,
            "metrics.records": 0,
            "verify.checks": len(checks),
            "verify.checks_failed": sum(line.endswith("FAIL") for line in checks),
        }

    def digests(self, result):
        return {}

    def kernel_cost(self, workdir):
        return 0.0, 0.0  # the battery builds its objectives internally


WORKLOADS = {w.name: w for w in (InterpDense(), TomoSparse(), PrecondInner(), VerifyQuick())}


# ---------------------------------------------------------------------------
# computed kernel figures
# ---------------------------------------------------------------------------


def _block_bytes(block):
    if sp.issparse(block):
        return block.data.nbytes + block.indices.nbytes + block.indptr.nbytes
    return np.asarray(block).nbytes


def partial_grad_cost(obj):
    """(flops, bytes) of one ``partial_grad`` call, averaged over components.

    Computed from block shape and stored entries, not measured: the block is
    read twice (A_i x, then A_i^T c), each stored entry costs a multiply-add
    in each pass, and each row a few elementwise operations (2 for the Poisson
    coefficient 1 - b/r, 6 for the logistic sigmoid chain). Vector traffic
    counts the block's row vectors (b or labels, rates, coefficients) and the
    dense input and output of length d.
    """
    per_row = {"poisson_kl": 2.0, "logistic_l2": 6.0}[obj.kind]
    d = obj.dim
    flops, traffic = [], []
    for group in obj.groups:
        block = obj.A[group]
        rows = block.shape[0]
        nnz = block.nnz if sp.issparse(block) else block.size
        flops.append(4.0 * nnz + per_row * rows)
        traffic.append(2.0 * _block_bytes(block) + 8.0 * (3 * rows + 2 * d))
    return float(np.mean(flops)), float(np.mean(traffic))
