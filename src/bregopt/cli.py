"""Command-line entry point: ``bregopt gen|run|verify``.

Configuration for ``run`` is a flat key=value file with sections
([problem], [solver], [output]); command-line flags override file values
and unknown keys are rejected. Exit codes: 0 success, 1 verification
failure, 2 usage or configuration error, 3 I/O error, 4 solver step
failure (the partial trace CSV is retained).
"""

import argparse
import configparser
import dataclasses
import sys

import numpy as np

from .errors import BregoptError, ParseError
from .metrics import rate_fit
from .problems import (
    gen_gaussian_logistic_data,
    gen_interpolation,
    gen_preconditioned,
    gen_tomography,
    load_instance,
    load_libsvm,
    save_instance,
    solve_reference,
    write_manifest,
)
from .solver import METHODS, RunFailure, SolverConfig, run
from .verify import Battery

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SOLVER = 4

GENERATORS = ("interpolation", "tomography", "preconditioned")


def _boolean(value):
    """configparser's boolean words: 1/yes/true/on and 0/no/false/off."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[value.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {value!r}") from None


# scalar SolverConfig fields: config keys, casts and ``run`` flags
_SOLVER_KEYS = {f.name: f.type for f in dataclasses.fields(SolverConfig)
                if f.type in (str, int, float)}
# [problem] keys and casts; ``gen`` takes the _GEN_FLAGS among them as flags
_PROBLEM_KEYS = {
    "generator": str, "instance": str, "data": str, "noise": _boolean,
    "n": int, "d": int, "size": int, "angles": int, "nodes": int, "samples": int,
    "n_prec": int, "rows": int, "seed": int,
    "lam": float, "c_prec": float, "separation": float,
}
_GEN_FLAGS = ("n", "d", "size", "angles", "nodes", "samples", "n_prec", "lam",
              "c_prec", "data", "seed")
_OUTPUT_KEYS = {"trace"}


class ConfigError(Exception):
    pass


def _build_problem(opts):
    """Instantiate a ProblemInstance from a [problem] option mapping of
    strings; a value that fails its cast or its generator is a ConfigError."""
    try:
        opts = {k: _PROBLEM_KEYS[k](v) for k, v in opts.items()}
        if "instance" in opts:
            return load_instance(opts["instance"])
        gen = opts.get("generator")
        seed = opts.get("seed", 0)
        if gen == "interpolation":
            return gen_interpolation(opts.get("n", 2000), opts.get("d", 100), seed)
        if gen == "tomography":
            return gen_tomography(
                opts.get("size", 64), opts.get("angles", 60), seed,
                noise=opts.get("noise", True),
            )
        if gen == "preconditioned":
            n_nodes = opts.get("nodes", 10)
            per_node = opts.get("samples", 200)
            if "data" in opts:
                data = load_libsvm(opts["data"])
            else:
                rows = opts.get("rows", n_nodes * per_node)
                data = gen_gaussian_logistic_data(
                    rows, opts.get("d", 20), seed,
                    separation=opts.get("separation", 1.0),
                )
            # the generator has no closed-form optimum: solve for x_star
            return solve_reference(gen_preconditioned(
                data, n_nodes=n_nodes, N=per_node,
                n_prec=opts.get("n_prec", per_node),
                lam=opts.get("lam", 1e-5),
                c_prec=opts.get("c_prec", 1e-5), seed=seed,
            ))
    except (ValueError, OverflowError) as exc:  # OverflowError: a seed outside [0, 2^64)
        raise ConfigError(f"bad problem option: {exc}") from None
    raise ConfigError(f"unknown or missing generator: {gen!r}")


def _load_config(path):
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    if not read:
        raise OSError(f"cannot read config file {path}")
    sections = {"problem": _PROBLEM_KEYS, "solver": _SOLVER_KEYS,
                "output": _OUTPUT_KEYS}
    config = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in sections[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            config[f"{section}.{key}"] = value
    return config


def cmd_gen(args):
    opts = {k: getattr(args, k) for k in _GEN_FLAGS if getattr(args, k) is not None}
    opts["generator"] = args.generator
    if not args.noise:
        opts["noise"] = "false"
    problem = _build_problem(opts)
    save_instance(args.output, problem)
    write_manifest(args.output + ".manifest", problem)
    obj = problem.objective
    print(f"wrote {args.output} ({obj.kind}, n={obj.n_components}, d={obj.dim})")
    return EXIT_OK


def cmd_run(args):
    config = _load_config(args.config) if args.config else {}
    # flags override file values
    overrides = {f"solver.{key}": getattr(args, key, None) for key in _SOLVER_KEYS}
    overrides.update({"problem.instance": args.instance, "output.trace": args.output})
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    problem_opts = {k.split(".", 1)[1]: v for k, v in config.items()
                    if k.startswith("problem.")}
    if not problem_opts:
        raise ConfigError("no problem configured (need an instance or generator)")
    problem = _build_problem(problem_opts)

    solver_kwargs = {k.split(".", 1)[1]: v for k, v in config.items()
                     if k.startswith("solver.")}
    try:
        solver_kwargs = {k: _SOLVER_KEYS[k](v) for k, v in solver_kwargs.items()}
    except ValueError as exc:
        raise ConfigError(f"bad solver option: {exc}")
    solver_config = SolverConfig(**solver_kwargs)
    try:
        solver_config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc))

    out_path = config.get("output.trace", "trace.csv")
    try:
        trace = run(solver_config, problem)
    except RunFailure as exc:
        exc.trace.to_csv(out_path)  # retain the partial trace
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    trace.to_csv(out_path)
    final = trace.final
    try:
        rate = rate_fit(trace, max(len(trace) // 3, 2))
        rate_text = f"{rate:.6f}"
    except BregoptError:
        rate_text = "n/a"
    print(
        f"{solver_config.method} iters={final.iter} epochs={final.epoch:g} "
        f"f_gap={final.f_gap:.6e} dh_gap={final.dh_gap:.6e} "
        f"rate={rate_text} halvings={final.halvings} trace={out_path}"
    )
    return EXIT_OK


def cmd_verify(args):
    report = Battery(samples=args.samples, quick=args.quick,
                     negative_control=args.negative_control).run_all()
    text = report.text()
    print(text)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def build_parser():
    parser = argparse.ArgumentParser(prog="bregopt")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a problem instance file")
    gen.add_argument("generator", choices=GENERATORS)
    for key in _GEN_FLAGS:
        # cast later by _PROBLEM_KEYS, as a [problem] value from a file
        gen.add_argument("--" + key.replace("_", "-"), dest=key)
    gen.add_argument("--no-noise", dest="noise", action="store_false")
    gen.add_argument("-o", "--output", required=True)

    runp = sub.add_parser("run", help="run a solver and write a trace CSV")
    runp.add_argument("-c", "--config", help="key=value config file")
    runp.add_argument("--instance", help="instance file path")
    for key, cast in _SOLVER_KEYS.items():
        # suppressed defaults leave file values in place
        runp.add_argument("--" + key.replace("_", "-"), dest=key, type=cast,
                          default=argparse.SUPPRESS,
                          choices=METHODS if key == "method" else None)
    runp.add_argument("-o", "--output", help="trace CSV path")

    ver = sub.add_parser("verify", help="run the certification battery")
    ver.add_argument("--samples", type=int, default=1000)
    ver.add_argument("--quick", action="store_true",
                     help="fast structural subset only")
    ver.add_argument("--negative-control", action="store_true",
                     help="inject a known fault; the battery must fail")
    ver.add_argument("--report", help="also write the report to this file")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a non-finite value raises its typed error; numpy's floating-point
        # warnings would only repeat it on stderr
        with np.errstate(all="ignore"):
            if args.command == "gen":
                code = cmd_gen(args)
            elif args.command == "run":
                code = cmd_run(args)
            else:
                code = cmd_verify(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        code = EXIT_IO
    except BregoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
