"""Tests for the command-line interface."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bregopt import (
    DiagonalQuadratic,
    Euclidean,
    NegEntropy,
    ProblemInstance,
    gen_gaussian_logistic_data,
    gen_interpolation,
    gen_preconditioned,
    load_instance,
    mirror,
    save_instance,
)
from bregopt.cli import _PROBLEM_SCHEMA, _build_problem, _load_config, main
from bregopt.solver import METHODS


ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("distributed_*.cfg"))


def strip_wall(text):
    return [line.rsplit(",", 1)[0] for line in text.splitlines()]


def trace_column(path, name):
    """Column ``name`` of the trace CSV at ``path``, as floats."""
    with open(path, newline="") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


class TestGen:
    def test_interpolation_instance_and_manifest(self, tmp_path):
        out = str(tmp_path / "inst.bin")
        code = main(["gen", "interpolation", "--n", "30", "--d", "6",
                     "--seed", "2", "-o", out])
        assert code == 0
        problem = load_instance(out)
        assert problem.objective.dim == 6
        text = open(out + ".manifest").read()
        assert "n = 30" in text
        assert "d = 6" in text

    def test_tomography_manifest_dimensions(self, tmp_path):
        out = str(tmp_path / "tomo.bin")
        code = main(["gen", "tomography", "--size", "64", "--angles", "60",
                     "--seed", "1", "-o", out])
        assert code == 0
        text = open(out + ".manifest").read()
        assert "d = 4096" in text
        assert "n = 3840" in text

    def test_unknown_generator_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["gen", "nonsense", "-o", str(tmp_path / "x.bin")])
        assert info.value.code == 2

    def test_seed_defaults_to_zero(self, tmp_path):
        paths = [str(tmp_path / name) for name in ("default.bin", "zero.bin", "one.bin")]
        for path, seed in zip(paths, ([], ["--seed", "0"], ["--seed", "1"])):
            assert main(["gen", "interpolation", "--n", "20", "--d", "5", *seed,
                         "-o", path]) == 0
        default, zero, one = (open(path, "rb").read() for path in paths)
        assert default == zero != one
        assert "seed = 0" in open(paths[0] + ".manifest").read()


BAD_PROBLEM_VALUES = [
    ("interpolation", "n", "abc"), ("interpolation", "n", "-5"),
    ("tomography", "size", "8"), ("tomography", "angles", "0"),
    ("tomography", "noise", "maybe"), ("interpolation", "seed", "-1"),
    ("interpolation", "seed", str(2**64)), ("preconditioned", "c_prec", "nan"),
]


@pytest.mark.parametrize("generator, key, value, route", [
    (*case, route) for case in BAD_PROBLEM_VALUES for route in ("file", "flag")
    if (case[1], route) != ("noise", "flag")  # gen has only --no-noise
])
def test_bad_problem_value_is_usage_error(tmp_path, capsys, generator, key, value, route):
    out = tmp_path / "inst.bin"
    if route == "flag":
        code = main(["gen", generator, f"--{key.replace('_', '-')}={value}", "-o", str(out)])
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[problem]\ngenerator = {generator}\n{key} = {value}\n"
                       "[solver]\nmethod = bsgd\neta = 0.01\nepochs = 0\n"
                       f"[output]\ntrace = {tmp_path / 'a.csv'}\n")
        code = main(["run", "-c", str(cfg)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize("generator, flags", [
    ("interpolation", ["--n", "0"]), ("preconditioned", ["--nodes", "0"]),
    ("interpolation", ["--d", "0"]),
    ("preconditioned", ["--d", "0", "--nodes", "2", "--samples", "10"]),
])
def test_zero_size_instance_is_usage_error(tmp_path, capsys, generator, flags):
    out = tmp_path / "inst.bin"
    assert main(["gen", generator, *flags, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


SWEEP_FLAGS = {
    "interpolation": ["--n", "12", "--d", "4"],
    "tomography": ["--size", "16", "--angles", "3"],
    "preconditioned": ["--nodes", "2", "--samples", "10", "--d", "3"],
}


@pytest.fixture(scope="module")
def sweep_instances(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    paths = {}
    for generator, flags in SWEEP_FLAGS.items():
        paths[generator] = str(root / f"{generator}.bin")
        assert main(["gen", generator, *flags, "--seed", "1", "-o", paths[generator]]) == 0
    return paths


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("generator", SWEEP_FLAGS)
def test_every_generator_and_method_exits_with_a_code(sweep_instances, tmp_path, capsys,
                                                      generator, method):
    # main returns an exit code for every pairing; no exception escapes it
    code = main(["run", "--instance", sweep_instances[generator], "--method", method,
                 "--epochs", "2", "-o", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    if (generator, method) == ("preconditioned", "mu"):
        # multiplicative updates exist for the Poisson objective only
        assert code == 2 and err.count("\n") == 1 and "needs a poisson_kl objective" in err
        assert not (tmp_path / "t.csv").exists()
    else:
        assert code == 0, err


@pytest.mark.parametrize("word, noise", [("off", False), ("No", False), ("1", True),
                                         ("TRUE", True)])
def test_noise_takes_boolean_words(word, noise):
    problem = _build_problem({"generator": "tomography", "size": "16", "angles": "4",
                              "noise": word})
    assert problem.meta["noise"] is noise


# ---------------------------------------------------------------------------
# the [problem] schema: each generator's keys, casts and defaults
# ---------------------------------------------------------------------------

PROBLEM_KEYS = list(dict.fromkeys(k for keys in _PROBLEM_SCHEMA.values() for k in keys))
# small instances, and for each key a value other than its default
SMALL = {"interpolation": {"n": "12", "d": "4"}, "tomography": {"size": "16", "angles": "3"},
         "preconditioned": {"nodes": "2", "samples": "10", "d": "3"}}
VALUES = {"n": "13", "d": "5", "seed": "7", "size": "20", "angles": "2", "noise": "false",
          "nodes": "3", "samples": "11", "n_prec": "4", "lam": "1e-3", "c_prec": "1e-3",
          "rows": "40", "separation": "0.5"}


@pytest.fixture(scope="module")
def libsvm_file(tmp_path_factory):
    A, labels = gen_gaussian_logistic_data(30, 3, seed=5)
    path = tmp_path_factory.mktemp("libsvm") / "data.svm"
    path.write_text("".join(
        f"{y:+.0f} " + " ".join(f"{j + 1}:{v:.17g}" for j, v in enumerate(row)) + "\n"
        for y, row in zip(labels, A)))
    return str(path)


def gen_flags(opts):
    """``gen`` flags for the [problem] options ``opts`` (the generator aside)."""
    return [flag for key, value in opts.items() if key != "generator"
            for flag in (["--no-noise"] if key == "noise"
                         else ["--" + key.replace("_", "-"), value])]


def problem_file(tmp_path, opts):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[problem]\n" + "".join(f"{k} = {v}\n" for k, v in opts.items())
                   + "[solver]\nmethod = bgd\nepochs = 2\n"
                   + f"[output]\ntrace = {tmp_path / 'a.csv'}\n")
    return str(cfg)


@pytest.mark.parametrize("generator, key", [(gen, key) for gen, keys in _PROBLEM_SCHEMA.items()
                                            for key in keys])
def test_problem_key_from_file_and_flag_gives_the_same_instance(tmp_path, libsvm_file,
                                                                  generator, key):
    # a LibSVM file supplies the dataset in place of d
    opts = {k: v for k, v in SMALL[generator].items() if not (key == "data" and k == "d")}
    opts[key] = libsvm_file if key == "data" else VALUES[key]
    flag, default = str(tmp_path / "flag.bin"), str(tmp_path / "default.bin")
    assert main(["gen", generator, *gen_flags(opts), "-o", flag]) == 0
    assert main(["gen", generator, *gen_flags(SMALL[generator]), "-o", default]) == 0
    config = _load_config(problem_file(tmp_path, {"generator": generator, **opts}))
    save_instance(str(tmp_path / "file.bin"), _build_problem(config["problem"]))
    flag_bytes, default_bytes = open(flag, "rb").read(), open(default, "rb").read()
    assert (tmp_path / "file.bin").read_bytes() == flag_bytes != default_bytes


UNREAD = ([(gen, key) for gen, keys in _PROBLEM_SCHEMA.items() for key in PROBLEM_KEYS
           if key not in keys]
          + [("data", key) for key in ("rows", "d", "separation")]
          + [("instance", key) for key in ("generator", *PROBLEM_KEYS)])


@pytest.mark.parametrize("source, key, route", [
    (*case, route) for case in UNREAD for route in ("file", "flag")
    if (case[0], route) != ("instance", "flag")  # gen takes no instance
])
def test_unread_problem_key_is_usage_error(tmp_path, capsys, libsvm_file, sweep_instances,
                                           source, key, route):
    if source == "instance":
        opts = {"instance": sweep_instances["interpolation"]}
    elif source == "data":
        opts = {"generator": "preconditioned", "nodes": "2", "samples": "10",
                "data": libsvm_file}
    else:
        opts = {"generator": source, **SMALL[source]}
    opts[key] = {"generator": "interpolation", "data": libsvm_file}.get(key, VALUES.get(key))
    out = tmp_path / "inst.bin"
    if route == "flag":
        code = main(["gen", opts["generator"], *gen_flags(opts), "-o", str(out)])
    else:
        code = main(["run", "-c", problem_file(tmp_path, opts)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: [problem] key ") and err.count("\n") == 1
    assert f"key {key!r} is not read" in err
    assert not out.exists() and not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize("generator", _PROBLEM_SCHEMA)
def test_instance_flag_replaces_the_problem_section(tmp_path, sweep_instances, generator):
    # the file's generator would build another problem than the instance's
    other = [gen for gen in _PROBLEM_SCHEMA if gen != generator][0]
    cfg = problem_file(tmp_path, {"generator": generator, **SMALL[generator]})
    inst, a, b = sweep_instances[other], tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "-c", cfg, "--instance", inst]) == 0
    assert main(["run", "--instance", inst, "--method", "bgd", "--epochs", "2",
                 "-o", str(b)]) == 0
    assert strip_wall(a.read_text()) == strip_wall(b.read_text())


# distinct values of every key, at which derived defaults are compared
SCHEMA_POINT = {key: 2 ** i + 1 for i, key in enumerate(PROBLEM_KEYS)}


def readme_schema(text):
    """{generator: [(key, default)]} from the README's ``| `<generator>` key |``
    tables. A default is read as a Python expression, with ``none`` and
    ``true`` for None and True, over the keys' values in SCHEMA_POINT."""
    names = {"none": None, "true": True, **SCHEMA_POINT}
    tables, rows = {}, None
    for line in text.splitlines():
        if head := re.fullmatch(r"\| `(\w+)` key \| default \|.*", line):
            rows = tables[head[1]] = []
        elif not line.startswith("|"):
            rows = None
        elif rows is not None and (row := re.fullmatch(r"\| `(\w+)` \| ([^|]+) \|.*", line)):
            rows.append((row[1], eval(row[2].strip().strip("`"), {}, names)))
    return tables


@pytest.mark.parametrize("old, new", [
    (None, None),
    # each drift is seen: a changed default, a changed derivation, a dropped key
    ("| `n` | `2000` |", "| `n` | `2001` |"),
    ("| `rows` | `nodes * samples` |", "| `rows` | `nodes` |"),
    ("| `angles` | `60` |", ""),
])
def test_readme_tables_match_the_problem_schema(old, new):
    schema = {gen: [(key, default(SCHEMA_POINT) if callable(default) else default)
                    for key, (_, default) in keys.items()]
              for gen, keys in _PROBLEM_SCHEMA.items()}
    text = (ROOT / "README.md").read_text()
    if old is None:
        assert readme_schema(text) == schema
    else:
        assert old in text
        assert readme_schema(text.replace(old, new)) != schema


class TestRun:
    def gen_instance(self, tmp_path):
        out = str(tmp_path / "inst.bin")
        main(["gen", "interpolation", "--n", "20", "--d", "5", "--seed", "0",
              "-o", out])
        return out

    def test_zero_budget_writes_header_and_one_record(self, tmp_path):
        inst = self.gen_instance(tmp_path)
        trace_path = str(tmp_path / "trace.csv")
        code = main(["run", "--instance", inst, "--method", "bsgd",
                     "--eta", "0.01", "--epochs", "0", "-o", trace_path])
        assert code == 0
        lines = open(trace_path).read().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("iter,")

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[problem]\ngenerator = interpolation\nn = 20\nd = 5\nseed = 0\n"
            "[solver]\nmethod = bsgd\neta = 0.01\nepochs = 2\nseed = 1\n"
            f"[output]\ntrace = {tmp_path / 'a.csv'}\n"
        )
        assert main(["run", "-c", str(cfg)]) == 0
        assert main(["run", "-c", str(cfg), "--eta", "0.005",
                     "-o", str(tmp_path / "b.csv")]) == 0
        assert trace_column(tmp_path / "a.csv", "eta")[-1] == pytest.approx(0.01)
        assert trace_column(tmp_path / "b.csv", "eta")[-1] == pytest.approx(0.005)

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[solver]\nstride = 3\n")
        assert main(["run", "-c", str(cfg)]) == 2

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["run", "-c", str(tmp_path / "absent.cfg")]) == 3

    def test_missing_instance_file_is_io_error(self, tmp_path):
        assert main(["run", "--instance", str(tmp_path / "absent.bin"),
                     "--method", "bsgd", "--eta", "0.01"]) == 3

    def test_truncated_instance_is_usage_error(self, tmp_path, capsys):
        inst = self.gen_instance(tmp_path)
        raw = open(inst, "rb").read()
        with open(inst, "wb") as fh:
            fh.write(raw[:300])
        assert main(["run", "--instance", inst, "--method", "bsgd",
                     "--eta", "0.01", "-o", str(tmp_path / "t.csv")]) == 2
        assert "truncated instance file" in capsys.readouterr().err

    def test_corrupt_instance_is_usage_error(self, tmp_path, capsys):
        inst = self.gen_instance(tmp_path)
        raw = bytearray(open(inst, "rb").read())
        raw[len(raw) // 2] ^= 0xFF
        with open(inst, "wb") as fh:
            fh.write(bytes(raw))
        assert main(["run", "--instance", inst, "--method", "bsgd",
                     "--eta", "0.01", "-o", str(tmp_path / "t.csv")]) == 2
        assert "sha256 mismatch" in capsys.readouterr().err

    def test_out_of_range_group_index_is_usage_error(self, tmp_path, capsys):
        # a file with a valid digest whose fourth singleton group holds row 255
        problem = gen_interpolation(20, 5, seed=0)
        problem.objective.groups[3] = np.array([255])
        inst = str(tmp_path / "inst.bin")
        save_instance(inst, problem)
        assert main(["run", "--instance", inst, "--method", "bsgd",
                     "--eta", "0.01", "-o", str(tmp_path / "t.csv")]) == 2
        assert "group indices must lie in [0, 20)" in capsys.readouterr().err

    def test_repeated_group_row_is_usage_error(self, tmp_path, capsys):
        # a file with a valid digest whose groups hold row 2 twice and row 3 never
        problem = gen_interpolation(20, 5, seed=0)
        problem.objective.groups[3] = np.array([2])
        inst = str(tmp_path / "inst.bin")
        save_instance(inst, problem)
        assert main(["run", "--instance", inst, "--method", "bsgd",
                     "--eta", "0.01", "-o", str(tmp_path / "t.csv")]) == 2
        assert "groups overlap at row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("fault, message", [
        ("x0", "'x0' is not finite"), ("centers", "centers must be finite"),
        ("weights", "weights must be finite and positive")])
    def test_non_finite_quadratic_instance_is_usage_error(self, tmp_path, capsys,
                                                         fault, message):
        # save_instance writes the values as they are; the run must not start
        obj = DiagonalQuadratic(np.ones((4, 3)), np.zeros((4, 3)))
        problem = ProblemInstance(objective=obj, reference=Euclidean(), x0=np.zeros(3))
        if fault == "x0":
            problem.x0 = np.array([np.inf, 0.0, 0.0])
        elif fault == "centers":
            obj.C[1, 2] = np.nan
        else:  # inf passes Q > 0, and every step from it would halve to exhaustion
            obj.Q[:, 2] = np.inf
        inst = str(tmp_path / "inst.bin")
        save_instance(inst, problem)
        assert main(["run", "--instance", inst, "--method", "bsgd",
                     "--eta", "0.01", "-o", str(tmp_path / "t.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("key, value, route", [
        (key, value, route)
        for key, value in [
            ("step_multiplier", "-1"), ("step_multiplier", "nan"), ("eta", "nan"),
            ("eta", "inf"), ("eta", "0"), ("seed", "-1"), ("seed", str(2**64)),
            ("record_every", "-3"), ("record_every", "0"),
            ("p", "nan"), ("epochs", "inf"), ("method", "sgd"),
        ]
        for route in ("flag", "file")
        if (key, route) != ("method", "flag")  # argparse's own choices check
    ])
    def test_bad_solver_value_is_usage_error(self, tmp_path, capsys, key, value, route):
        solver = {"method": "bsgd", "eta": "0.01", "epochs": "1"}
        flags = ["--" + key.replace("_", "-"), value] if route == "flag" else []
        if route == "file":
            solver[key] = value
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[problem]\ngenerator = interpolation\nn = 20\nd = 5\nseed = 0\n[solver]\n"
            + "".join(f"{k} = {v}\n" for k, v in solver.items())
            + f"[output]\ntrace = {tmp_path / 'a.csv'}\n"
        )
        assert main(["run", "-c", str(cfg), *flags]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("route", ["flag", "file"])
    def test_max_halvings_is_no_option(self, tmp_path, capsys, route):
        # the halving budget is the constant bregopt.solver.MAX_HALVINGS
        key = "max_halvings = 5\n" if route == "file" else ""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[problem]\ngenerator = interpolation\nn = 20\nd = 5\n"
                       f"[solver]\neta = 0.01\n{key}[output]\ntrace = {tmp_path / 'a.csv'}\n")
        if route == "flag":
            with pytest.raises(SystemExit) as info:
                main(["run", "-c", str(cfg), "--max-halvings", "5"])
            code, message = info.value.code, "unrecognized arguments: --max-halvings"
        else:
            code, message = main(["run", "-c", str(cfg)]), "unknown key 'max_halvings'"
        assert code == 2 and message in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("text", [
        "[solver]\neta = 0.01\neta = 0.02\n",  # duplicate key
        "eta = 0.01\n",  # no section header
    ])
    def test_malformed_config_file_is_usage_error(self, tmp_path, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["run", "-c", str(cfg)]) == 2

    def test_missing_step_size_is_usage_error(self, tmp_path, capsys):
        # neither eta nor an L_rel in the instance file to derive it from
        problem = gen_interpolation(20, 5, seed=0)
        problem.meta = {}
        inst = str(tmp_path / "inst.bin")
        save_instance(inst, problem)
        assert main(["run", "--instance", inst, "--method", "bsgd",
                     "-o", str(tmp_path / "t.csv")]) == 2
        assert "no eta configured" in capsys.readouterr().err

    @pytest.mark.parametrize("l_rel", [0.0, -1.0])
    def test_bad_l_rel_is_usage_error(self, tmp_path, capsys, l_rel):
        # the default step size 1 / (2 L_rel) needs a positive L_rel
        problem = gen_interpolation(20, 5, seed=0)
        problem.meta = {"L_rel": l_rel}
        inst = str(tmp_path / "inst.bin")
        save_instance(inst, problem)
        assert main(["run", "--instance", inst, "--method", "bsgd",
                     "-o", str(tmp_path / "t.csv")]) == 2
        assert "L_rel must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("method", ["mu", "bgd", "bsgd", "bsaga", "bsvrg"])
    def test_noiseless_tomography_runs(self, tmp_path, method):
        # the phantom's zero background lies outside the log-barrier domain,
        # so the instance carries f_star = 0 but no x_star
        inst = str(tmp_path / "tomo.bin")
        assert main(["gen", "tomography", "--size", "16", "--angles", "4",
                     "--no-noise", "-o", inst]) == 0
        trace_path = str(tmp_path / "t.csv")
        assert main(["run", "--instance", inst, "--method", method,
                     "--epochs", "2", "-o", trace_path]) == 0
        f_gap = trace_column(trace_path, "f_gap")
        assert np.isfinite(f_gap[-1]) and f_gap[-1] < f_gap[0]

    def test_generated_preconditioned_instance_has_x_star(self, tmp_path, capsys):
        # the generator route solves for x*, so a config run and a run of the
        # written instance both report a finite gap
        cfg = tmp_path / "prec.cfg"
        cfg.write_text(
            "[problem]\ngenerator = preconditioned\nnodes = 2\nsamples = 20\nd = 3\n"
            "[solver]\nmethod = bsaga\neta = 0.05\nepochs = 2\n"
            f"[output]\ntrace = {tmp_path / 'a.csv'}\n"
        )
        assert main(["run", "-c", str(cfg)]) == 0
        inst = str(tmp_path / "prec.bin")
        assert main(["gen", "preconditioned", "--nodes", "2", "--samples", "20",
                     "--d", "3", "-o", inst]) == 0
        assert main(["run", "--instance", inst, "--method", "bsaga", "--eta", "0.05",
                     "--epochs", "2", "-o", str(tmp_path / "b.csv")]) == 0
        out = capsys.readouterr().out
        gaps = [float(w.split("=")[1]) for w in out.split() if w.startswith("f_gap=")]
        assert len(gaps) == 2 and np.all(np.isfinite(gaps))

    def test_step_failure_keeps_partial_trace(self, tmp_path):
        inst = self.gen_instance(tmp_path)
        trace_path = str(tmp_path / "partial.csv")
        code = main(["run", "--instance", inst, "--method", "bsgd",
                     "--eta", "1e12", "--epochs", "2", "-o", trace_path])
        assert code == 4
        lines = open(trace_path).read().splitlines()
        assert len(lines) >= 2

    def test_exhausted_inner_solve_keeps_partial_trace(self, tmp_path, capsys, monkeypatch):
        data = gen_gaussian_logistic_data(200, 5, seed=0)
        problem = gen_preconditioned(data, n_nodes=4, N=50, n_prec=50, lam=1e-3,
                                     c_prec=1e-3, seed=0)
        monkeypatch.setattr(mirror, "INNER_TOL", 1e-300)
        monkeypatch.setattr(mirror, "INNER_PASSES", 1)
        inst = str(tmp_path / "prec.bin")
        save_instance(inst, problem)
        trace_path = str(tmp_path / "partial.csv")
        code = main(["run", "--instance", inst, "--method", "bgd", "--eta", "0.5",
                     "--epochs", "3", "-o", trace_path])
        assert code == 4
        assert "above inner_tol" in capsys.readouterr().err
        lines = open(trace_path).read().splitlines()
        assert lines[0].startswith("iter,") and len(lines) == 2

    def test_overflowing_objective_keeps_partial_trace(self, tmp_path, capsys):
        # the neg-entropy step to iteration 2 lands near 1e271, where f overflows
        obj = DiagonalQuadratic(np.ones((2, 3)), np.full((2, 3), 0.5))
        problem = ProblemInstance(objective=obj, reference=NegEntropy(), x0=np.ones(3),
                                  x_star=obj.minimizer(), f_star=0.0)
        inst = str(tmp_path / "inst.bin")
        save_instance(inst, problem)
        trace_path = str(tmp_path / "partial.csv")
        with np.errstate(over="ignore"):
            code = main(["run", "--instance", inst, "--method", "bgd", "--eta", "1e4",
                         "--epochs", "5", "--record-every", "1", "-o", trace_path])
        assert code == 4
        assert "iteration 2: f_gap is inf, not finite" in capsys.readouterr().err
        assert trace_column(trace_path, "iter") == [0.0, 1.0]

    @pytest.mark.parametrize("flip_x0", [False, True])
    def test_domain_violation_after_the_first_record_keeps_partial_trace(
            self, tmp_path, capsys, flip_x0):
        # the Euclidean map lets a step leave the Poisson objective's domain,
        # which the next component gradient finds: exit 4 with the trace so
        # far. A start outside the domain fails at the first record: exit 2.
        problem = gen_interpolation(20, 4, 1)
        problem.reference = Euclidean()
        if flip_x0:
            problem.x0 = -problem.x0
        inst = str(tmp_path / "inst.bin")
        save_instance(inst, problem)
        trace_path = tmp_path / "partial.csv"
        code = main(["run", "--instance", inst, "--method", "bsgd", "--eta", "50",
                     "--epochs", "3", "-o", str(trace_path)])
        err = capsys.readouterr().err
        assert "poisson_kl: rate (Ax)_i not positive at observed row 0" in err
        if flip_x0:
            assert code == 2 and err.startswith("error: ") and not trace_path.exists()
        else:
            assert code == 4 and err.startswith("solver failure: iteration 1: ")
            assert trace_column(trace_path, "iter") == [0.0]

    def test_non_finite_first_record_is_usage_error(self, tmp_path, capsys):
        # a subnormal rate makes f(x0) overflow: x0 is bad input, not a failed step
        problem = gen_interpolation(20, 4, 1)
        problem.reference = Euclidean()
        problem.x0 = np.array([0.0, 0.0, 0.0, 1e-310])
        inst = str(tmp_path / "inst.bin")
        save_instance(inst, problem)
        trace_path = tmp_path / "t.csv"
        with np.errstate(over="ignore"):
            code = main(["run", "--instance", inst, "--method", "bsgd",
                         "-o", str(trace_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: f_gap is inf, not finite\n"
        assert not trace_path.exists()

    def test_non_finite_first_record_prints_only_its_error(self, tmp_path):
        # in a fresh interpreter, where numpy's overflow warning in f(x0)
        # would reach stderr, stderr holds the typed error and nothing else
        problem = gen_interpolation(20, 4, 1)
        problem.reference = Euclidean()
        problem.x0 = np.array([0.0, 0.0, 0.0, 1e-310])
        inst = str(tmp_path / "inst.bin")
        save_instance(inst, problem)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        script = "import sys\nfrom bregopt.cli import main\nsys.exit(main(sys.argv[1:]))"
        out = subprocess.run([sys.executable, "-c", script, "run", "--instance", inst,
                              "--method", "bsgd", "-o", str(tmp_path / "t.csv")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert (out.returncode, out.stderr) == (2, "error: f_gap is inf, not finite\n")

    def test_determinism_modulo_wall_clock(self, tmp_path):
        inst = self.gen_instance(tmp_path)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["run", "--instance", inst, "--method", "bsaga", "--eta", "0.02",
                "--epochs", "2", "--seed", "9"]
        assert main(args + ["-o", a]) == 0
        assert main(args + ["-o", b]) == 0
        assert strip_wall(open(a).read()) == strip_wall(open(b).read())


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda p: p.stem)
def test_example_config_runs(cfg, tmp_path):
    # each shipped config steps through the preconditioner's carried path
    out = tmp_path / "trace.csv"
    assert main(["run", "-c", str(cfg), "--epochs", "2", "-o", str(out)]) == 0
    assert np.isfinite(trace_column(out, "f_gap")[-1])


def test_example_configs_present():
    assert CONFIGS, "no configs/distributed_*.cfg to run"


class TestVerify:
    def test_quick_battery_passes(self, capsys):
        code = main(["verify", "--quick", "--samples", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ALL CHECKS PASSED" in out

    def test_negative_control_fails(self, tmp_path):
        report = str(tmp_path / "report.txt")
        code = main(["verify", "--quick", "--samples", "40",
                     "--negative-control", "--report", report])
        assert code == 1
        assert "FAIL" in open(report).read()

    @pytest.mark.parametrize("negative_control", [False, True])
    def test_quick_battery_prints_pinned_check_names(self, capsys, negative_control):
        argv = ["verify", "--quick", "--samples", "40"]
        code = main(argv + ["--negative-control"] * negative_control)
        lines = capsys.readouterr().out.splitlines()
        lemmas = [f"{kind}/{lemma}" for kind in ("euclidean", "log_barrier", "neg_entropy")
                  for lemma in ("duality", "midpoint", "cocoercivity", "descent_identity",
                                "variance_decomposition")]
        expected = (lemmas + ["negative_control/euclidean/cocoercivity"] * negative_control
                    + ["c1/runtime_s", "c5/saga_contraction", "c5/svrg_contraction",
                       "c5/runtime_s", "c8/hessian_ordering", "c8/dense_bound",
                       "c8/strict_improvement", "c8/runtime_s", "c9/monotone",
                       "c9/fixed_point", "c9/runtime_s"])
        assert [line.split(" ", 1)[0] for line in lines[:-1]] == expected
        assert code == int(negative_control)
