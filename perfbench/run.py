"""bregopt benchmark: one workload per process, medians of repetitions.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload interp-dense --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed``. One repetition builds
the inputs (set-up), runs the solver sequence and writes its outputs;
repetitions continue until ``--seconds`` have passed. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json from untraced repetitions;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the median traced one. The last line of standard
output is the result object; the line before it is the provenance of the
run, including the raw (unnormalised) medians. Result, provenance and the
spans of the last traced repetition are also written under
``.perfbench_out/`` in the checkout.

Times are normalised to a fixed host speed: the speed probe (probe.py) runs
between set-up, each solver run (each criterion for verify-quick) and the
write; each segment's time is multiplied by ``probe.NOMINAL_S`` over the
mean probe time at its two ends. The median over repetitions is reported.

``--update-digests`` records the trace digests of this workload at the
default seed in ``perfbench/digests.json``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Single-threaded BLAS and battery unless the caller sets otherwise; must
# happen before numpy is imported.
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
os.environ.setdefault("BREGOPT_THREADS", "1")


def median(values):
    return statistics.median(values) if values else 0.0


def provenance(args):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "bregopt").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "bregopt_threads": os.environ.get("BREGOPT_THREADS"),
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def measure(workload, seed, seconds, trace, workdir):
    """Repeat set-up, solve and write until ``seconds`` have passed.

    Every repetition builds its inputs afresh, so set-up is sampled across
    the whole run. With ``trace`` the repetitions alternate untraced and
    traced; each traced one keeps its span summary, and the last keeps its
    spans.
    """
    from probe import Segments, SpeedProbe
    from tracing import Tracer

    probe = SpeedProbe(workload.probe_kind)
    probe.seconds()  # warm-up
    clock = Segments(probe)
    modes = (False, True) if trace else (False,)
    reps, failures = [], []
    attempted = failed = 0
    first_digests = kernel = last_tracer = None
    deadline = perf_counter() + seconds
    while len(reps) < len(modes) or perf_counter() < deadline:
        traced = modes[len(reps) % len(modes)]
        tracer = Tracer() if traced else None
        attempted += workload.runs
        state = None  # free the last repetition's inputs before building anew
        try:
            first = clock.cut()  # the gap since the last repetition is not timed
            state = workload.build(seed, tracer, workdir)
            setup_end = clock.cut()
            result = workload.solve(state, seed, tracer, clock.cut)
            solve_end = clock.cut()
            start = perf_counter()
            written = workload.write(result, workdir)
            write_raw = perf_counter() - start
        except Exception:  # a raising run is a counted failure, not a crash
            failed += workload.runs
            failures.append(traceback.format_exc())
            reps.append(None)
            if all(r is None for r in reps) and len(reps) >= 3:
                break
            continue
        bad = workload.check(state, result)
        digests = workload.digests(result)
        if first_digests is None:
            first_digests, kernel = digests, workload.kernel_cost(state)
        for label, digest in digests.items():
            if digest != first_digests[label]:
                bad.setdefault(label, "trace differs from the first repetition")
        failed += len(bad)
        failures.extend(f"{label}: {why}" for label, why in bad.items())

        setup_raw, setup_s = clock.total(first, setup_end)
        solve_raw, solve_s = clock.total(setup_end, solve_end)
        write_s = write_raw * clock.scale[solve_end - 1]
        hits = workload.time_to_target(result)
        if hits is None:
            ttt_raw, ttt_s = solve_raw, solve_s
        else:  # run k of the solve is segment setup_end + k
            ttt_raw = statistics.mean(hits.values())
            ttt_s = statistics.mean(t * clock.scale[setup_end + k] for k, t in hits.items())
        rep = {
            "traced": traced, "result": result, "written": written,
            "setup_s": setup_s, "solve_s": solve_s, "write_s": write_s,
            "time_to_target_s": ttt_s, "session_s": setup_s + solve_s + write_s,
            "setup_scale": setup_s / setup_raw, "solve_scale": solve_s / solve_raw,
            "raw": {"setup_s": setup_raw, "solve_s": solve_raw,
                    "time_to_target_s": ttt_raw,
                    "session_s": setup_raw + solve_raw + write_raw},
        }
        if traced:
            rep["summary"], last_tracer = tracer.summary(), tracer
        reps.append(rep)
    reps = [r for r in reps if r is not None]
    return {"plain": [r for r in reps if not r["traced"]],
            "traced": [r for r in reps if r["traced"]],
            "last_tracer": last_tracer, "kernel": kernel,
            "attempted": attempted, "failed": failed,
            "failures": failures, "digests": first_digests or {},
            "probe_s": statistics.median(clock.probe_times)}


E2E_TIMES = ("setup_s", "solve_s", "time_to_target_s", "session_s")


def end_to_end(data):
    """Medians over the untraced repetitions of the normalised times."""
    plain = data["plain"]
    values = {k: median([r[k] for r in plain]) for k in E2E_TIMES}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def raw_medians(data):
    plain = data["plain"]
    values = {k: median([r["raw"][k] for r in plain]) for k in E2E_TIMES}
    values["probe_s"] = data["probe_s"]
    values["repetitions"] = len(plain)
    return values


def per_layer(workload, data, seed):
    """Counts and normalised times of the median traced repetition."""
    from tracing import MIRROR_METHODS, OBJECTIVE_METHODS, RUN_SPAN

    traced = sorted(data["traced"], key=lambda r: r["solve_s"])
    rep = traced[(len(traced) - 1) // 2]
    summary = rep["summary"]
    calls = summary["calls"]
    # set-up spans take the set-up segment's scale, all others the solve's
    scales = {name: rep["setup_scale"] if name.startswith("problems.") else rep["solve_scale"]
              for name in calls}
    total = {k: v * scales[k] for k, v in summary["total_s"].items()}
    self_s = {k: v * scales[k] for k, v in summary["self_s"].items()}
    m = {
        "problems.generate_s": self_s.get("problems.generate", 0.0),
        "problems.radon_matrix_s": total.get("problems.radon_matrix", 0.0),
        "problems.save_instance_s": total.get("problems.save_instance", 0.0),
        "problems.load_instance_s": total.get("problems.load_instance", 0.0),
        "problems.solve_reference_s": total.get("problems.solve_reference", 0.0),
        "problems.instance_bytes": summary["counts"].get("problems.instance_bytes", 0),
    }
    for layer, methods in (("objective", OBJECTIVE_METHODS), ("mirror", MIRROR_METHODS)):
        for method in methods:
            name = f"{layer}.{method}"
            m[f"{name}.calls"] = calls.get(name, 0)
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["objective.partial_grad.flops"], m["objective.partial_grad.bytes"] = data["kernel"]
    inner = summary["counts"].get("mirror.inner_grad.calls", 0)
    m["mirror.inner_grad.calls"] = inner
    m["mirror.inner_grad_per_solve"] = inner / calls["mirror.grad_conjugate"] if inner else 0.0

    counts = workload.counts(rep["result"])
    steps, halvings = counts["solver.steps"], counts["solver.halvings"]
    solve_plain = median([r["solve_s"] for r in data["plain"]])
    expected = {}
    if seed == DEFAULT_SEED and DIGESTS.is_file():
        expected = json.loads(DIGESTS.read_text()).get(workload.name, {})
    written = rep["written"]
    m.update({
        "solver.steps": steps,
        "solver.grad_evals": counts["solver.grad_evals"],
        "solver.halvings": halvings,
        "solver.step_accept_ratio": steps / (steps + halvings) if steps else 0.0,
        "solver.us_per_step": 1e6 * solve_plain / steps if steps else 0.0,
        "solver.self_s": self_s.get(RUN_SPAN, 0.0),
        "solver.trace_digest_mismatch": sum(
            expected.get(label) != digest for label, digest in data["digests"].items()
        ) if expected else 0,
        "metrics.records": counts["metrics.records"],
        "metrics.record_s": summary["record_s"] * rep["solve_scale"],
        "metrics.to_csv_s": rep["write_s"] if written else 0.0,
        "metrics.csv_bytes": written,
        "verify.checks": counts["verify.checks"],
        "verify.checks_failed": counts["verify.checks_failed"],
        "trace_overhead_frac": median([r["solve_s"] for r in traced]) / solve_plain - 1.0,
        "failed_frac": data["failed"] / data["attempted"],
    })
    for k in (1, 5, 8, 9):
        m[f"verify.criterion_{k}_s"] = total.get(f"verify.criterion_{k}", 0.0)
    return m


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "bregopt" / "__init__.py").is_file():
        print(f"bregopt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        data = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    if not data["plain"] or (args.trace and not data["traced"]):
        print("".join(data["failures"]), file=sys.stderr)
        return 1
    for failure in data["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)

    if args.update_digests:
        if args.seed != DEFAULT_SEED:
            parser.error(f"digests are recorded at the default seed {DEFAULT_SEED}")
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        recorded[workload.name] = data["digests"]
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")

    if args.trace:
        values, wanted = per_layer(workload, data, args.seed), spec["per_layer"]
    else:
        values, wanted = end_to_end(data), spec["end_to_end"]
    result = {
        "correct": data["failed"] == 0,
        "attempted": data["attempted"],
        "failed": data["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    prov = provenance(args)
    prov["raw_medians"] = raw_medians(data)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(
        json.dumps({"provenance": prov, "result": result}, indent=2) + "\n")
    if data["last_tracer"] is not None:
        data["last_tracer"].write(f"{stem}.spans.csv")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
