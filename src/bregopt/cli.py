"""Command-line entry point: ``bregopt gen|run|verify``.

Configuration for ``run`` is a flat key=value file with sections
([problem], [solver], [output]); command-line flags override file values.
``_PROBLEM_SCHEMA`` gives each generator's [problem] keys, casts and
defaults, and ``gen`` takes the same keys as flags. Unknown keys, and keys
that the configured problem does not read, are rejected. Exit codes: 0
success, 1 verification failure, 2 usage or configuration error, 3 I/O
error, 4 solver step failure (the partial trace CSV is retained).
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


def _boolean(value):
    """configparser's boolean words: 1/yes/true/on and 0/no/false/off."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[value.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {value!r}") from None


# scalar SolverConfig fields: config keys, casts and ``run`` flags
_SOLVER_KEYS = {f.name: f.type for f in dataclasses.fields(SolverConfig)
                if f.type in (str, int, float)}
# each generator's [problem] keys as {key: (cast, default)}; a callable
# default derives from the keys before it
_PROBLEM_SCHEMA = {
    "interpolation": {"n": (int, 2000), "d": (int, 100), "seed": (int, 0)},
    "tomography": {"size": (int, 64), "angles": (int, 60), "noise": (_boolean, True),
                   "seed": (int, 0)},
    "preconditioned": {
        "nodes": (int, 10), "samples": (int, 200),
        "n_prec": (int, lambda o: o["samples"]), "lam": (float, 1e-5),
        "c_prec": (float, 1e-5), "seed": (int, 0),
        # a LibSVM file, or else the Gaussian dataset of the three keys after it
        "data": (str, None), "rows": (int, lambda o: o["nodes"] * o["samples"]),
        "d": (int, 20), "separation": (float, 1.0),
    },
}


class ConfigError(BregoptError):
    """An unknown or unread config key or flag, or a value it rejects (exit 2)."""


def _build_problem(opts):
    """Instantiate a ProblemInstance from a [problem] option mapping of
    strings. A key that the build does not read, a value that fails its
    cast, or one its generator rejects is a ConfigError."""
    gen = opts.get("generator")
    if "instance" in opts:
        read, by = {"instance"}, "next to instance"
    elif gen in _PROBLEM_SCHEMA:
        read, by = {"generator", *_PROBLEM_SCHEMA[gen]}, f"by generator {gen}"
        if "data" in opts and "data" in read:  # the LibSVM file supplies the dataset
            read, by = read - {"rows", "d", "separation"}, by + " next to data"
    else:
        raise ConfigError(f"unknown or missing generator {gen!r}: need an instance or one of "
                          f"{', '.join(_PROBLEM_SCHEMA)}")
    for key in opts:
        if key not in read:
            raise ConfigError(f"[problem] key {key!r} is not read {by}")
    if "instance" in opts:
        return load_instance(opts["instance"])
    o = {}
    try:
        for key, (cast, default) in _PROBLEM_SCHEMA[gen].items():
            o[key] = (cast(opts[key]) if key in opts
                      else default(o) if callable(default) else default)
        if gen == "interpolation":
            return gen_interpolation(o["n"], o["d"], o["seed"])
        if gen == "tomography":
            return gen_tomography(o["size"], o["angles"], o["seed"], noise=o["noise"])
        if o["data"] is not None:
            data = load_libsvm(o["data"])
        else:
            data = gen_gaussian_logistic_data(o["rows"], o["d"], o["seed"],
                                              separation=o["separation"])
        # the generator has no closed-form optimum: solve for x_star
        return solve_reference(gen_preconditioned(
            data, n_nodes=o["nodes"], N=o["samples"], n_prec=o["n_prec"],
            lam=o["lam"], c_prec=o["c_prec"], seed=o["seed"],
        ))
    except (ValueError, OverflowError) as exc:  # OverflowError: a seed outside [0, 2^64)
        raise ConfigError(f"bad problem option: {exc}") from None


def _load_config(path):
    """The file's options as {section: {key: string value}}."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    if not read:
        raise OSError(f"cannot read config file {path}")
    sections = {"problem": {"generator", "instance"}.union(*_PROBLEM_SCHEMA.values()),
                "solver": _SOLVER_KEYS, "output": {"trace"}}
    config = {section: dict(parser.items(section)) for section in parser.sections()}
    for section in config:
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key in config[section]:
            if key not in sections[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return config


def cmd_gen(args):
    # the generator and the flags given, as [problem] strings
    opts = {k: v for k, v in vars(args).items() if k not in ("command", "output")}
    problem = _build_problem(opts)
    save_instance(args.output, problem)
    write_manifest(args.output + ".manifest", problem)
    obj = problem.objective
    print(f"wrote {args.output} ({obj.kind}, n={obj.n_components}, d={obj.dim})")
    return EXIT_OK


def cmd_run(args):
    config = _load_config(args.config) if args.config else {}
    # flags override file values; --instance replaces the whole [problem] section
    problem = _build_problem({"instance": args.instance} if args.instance is not None
                             else config.get("problem", {}))
    solver_kwargs = {**config.get("solver", {}),
                     **{k: getattr(args, k) for k in _SOLVER_KEYS if hasattr(args, k)}}
    try:
        solver_config = SolverConfig(**{k: _SOLVER_KEYS[k](v)
                                        for k, v in solver_kwargs.items()})
        solver_config.validate()
    except ValueError as exc:
        raise ConfigError(f"bad solver option: {exc}") from None

    out_path = args.output or config.get("output", {}).get("trace", "trace.csv")
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
    gen.add_argument("generator", choices=tuple(_PROBLEM_SCHEMA))
    # every [problem] key as a flag, cast like a file value; those not given
    # stay out of args
    for key in dict.fromkeys(k for keys in _PROBLEM_SCHEMA.values() for k in keys):
        if key != "noise":
            gen.add_argument("--" + key.replace("_", "-"), dest=key,
                             default=argparse.SUPPRESS)
    gen.add_argument("--no-noise", dest="noise", action="store_const", const="false",
                     default=argparse.SUPPRESS)
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
