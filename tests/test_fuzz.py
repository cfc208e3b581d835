"""Seeded config and flag fuzzer for the command line.

Each case takes a small valid config of one subcommand, replaces one of its
values (a leaf or a whole section) with one value of VALUES and runs
cli.main in process; a flag case instead gives the subcommand's numeric
flag (FLAGS) the text of one value.  Whatever the value, the run must exit
0, 1 or 2: on 1 with empty stdout and stderr starting "error: ", on 0 or 2
with JSON on the first line of stdout, and with no warning raised.  The
suite runs every flag case and a seeded sample of SAMPLE config cases per
subcommand; every case runs with

    PYTHONPATH=src python tests/test_fuzz.py
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
import warnings

import pytest

from wavecert import cli

VALUES = (None, True, False, "x", [], [[]], {}, 0, 1, -1, 5e-324, 1e308, -1e308,
          10 ** 400, 2 ** 53 + 1)

PROBLEM = {"n": 1, "k": 1.0, "g1": 0.1, "delta": 0.1}
SIM = {"dim": 1, "points_per_axis": 21, "horizon": 0.5, "k": 1.0, "mode": "plant",
       "nonlinearity": {"form": "quadratic", "coeff": 0.1, "fz_bound": 0.2,
                        "local_radius": 1.0},
       "initial": {"polynomial": {"z": [0.0, 0.2], "zt": [0.0, 0.1]}}}
# a stability certificate of PROBLEM with g1 = 0.2 and a regional radius
CERTIFICATE = {"params": {"n": 1, "k": 1, "g1": 0.2, "delta": 0.09, "d": 0.5},
               "vars": {"chi": 0.39547002334628295, "lambda0": 0.086593379049991662,
                        "lambda1": 0.30760762067183467},
               "alpha": 0.2090599533074341, "beta": 1.7909400466925658,
               "margins": {"phi0": 0.086593379049991537, "psi1": -0.2090599533074341,
                           "psi2": -0.086592886674325437}}

# subcommand -> (valid config, flags after --config; OUT and TRACE are paths)
BASES = {
    "certify": ({"problem": dict(PROBLEM, t_star=3.9),
                 "search": {"tstar_tol": 0.01, "margin": 1e-9}}, []),
    "min-time": ({"problem": dict(PROBLEM, delta=0.05, t_total=20.0),
                  "search": {"tstar_tol": 0.01}}, ["--out", "OUT"]),
    "regional": ({"problem": dict(PROBLEM, d=1.0), "search": {"tstar_tol": 0.01}},
                 ["--out", "OUT"]),
    "simulate": ({"sim": dict(SIM, chi=0.2)}, ["--out", "OUT"]),
    "recover": ({"sim": dict(SIM, convergence_threshold=0.5),
                 "certificate": CERTIFICATE},
                ["--trace", "TRACE", "--iterations", "2", "--out", "OUT"]),
    "sweep": ({"problems": [dict(PROBLEM, t_star=3.9), dict(PROBLEM, delta=0.05)],
               "search": {"tstar_tol": 0.01}}, ["--out", "OUT"]),
}
# the numeric flag of each subcommand that takes one
FLAGS = {"certify": "--margin", "min-time": "--tol", "recover": "--iterations",
         "sweep": "--jobs"}
SAMPLE = 100  # config cases per subcommand in the suite
SEED = 0


def _paths(node, prefix=()):
    """Every position below node: each key of a dict, each item of a list."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def cases(command):
    doc, _ = BASES[command]
    return [(command, path, value) for path in _paths(doc) for value in VALUES]


def flag_cases(command):
    """The flag as a one-element path, with each value as its text."""
    return [(command, (FLAGS[command],), str(value)) for value in VALUES]


def sample(command):
    return random.Random("%s:%s" % (SEED, command)).sample(cases(command), SAMPLE)


def _run(command, doc, workdir, trace, flag=None, text=None):
    """(exit code, stdout, stderr, warnings) of one run on the config doc,
    with flag given text when set."""
    _, flags = BASES[command]
    if flag is not None:
        flags = list(flags)
        if flag in flags:
            flags[flags.index(flag) + 1] = text
        else:
            flags += [flag, text]
    config = os.path.join(workdir, "config.json")
    with open(config, "w") as fh:
        # allow_nan=False: VALUES holds no NaN or infinity for json to spell
        fh.write(json.dumps(doc, allow_nan=False))
    paths = {"OUT": os.path.join(workdir, "out"), "TRACE": trace}
    argv = [command, "--config", config] + [paths.get(f, f) for f in flags]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def run_case(command, path, value, workdir, trace):
    """The failed promise of one run as text, or None when all are kept.

    A path that names the subcommand's flag in FLAGS gives that flag value,
    a text; any other path is a position in the config.
    """
    doc = BASES[command][0]
    try:
        if path[0] == FLAGS.get(command):
            code, out, err, caught = _run(command, doc, workdir, trace, path[0], value)
        else:
            code, out, err, caught = _run(command, _mutated(doc, path, value),
                                          workdir, trace)
    except Exception as exc:  # the crash the fuzzer looks for
        return "raised %s: %s" % (type(exc).__name__, exc)
    if caught:
        return "warned: %s" % caught[0].message
    if code == 1:
        if out or not err.startswith("error: "):
            return "exit 1 with stdout %r, stderr %r" % (out[:80], err[:80])
        return None
    if code not in (0, 2):
        return "exit %r" % (code,)
    try:
        json.loads(out.split("\n", 1)[0])
    except ValueError:
        return "exit %d without JSON on stdout: %r" % (code, out[:80])
    return None


def make_trace(workdir):
    """The plant trace recover's base config replays."""
    config = os.path.join(workdir, "plant.json")
    trace = os.path.join(workdir, "trace.csv")
    with open(config, "w") as fh:
        json.dump({"sim": SIM}, fh)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--config", config, "--out", trace]) == 0
    return trace


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    return make_trace(str(tmp_path_factory.mktemp("fuzz")))


def test_every_base_config_is_valid(tmp_path, trace):
    for command, (doc, _) in BASES.items():
        assert _run(command, doc, str(tmp_path), trace)[0] == 0, command


def _failures(cases, workdir, trace):
    failures = []
    for case in cases:
        failure = run_case(*case, workdir, trace)
        if failure is not None:
            failures.append("%s %s = %r: %s" % (case[0], list(case[1]), case[2], failure))
    return failures


@pytest.mark.parametrize("command", sorted(BASES))
def test_mutated_configs_keep_the_exit_contract(tmp_path, trace, command):
    failures = _failures(sample(command), str(tmp_path), trace)
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_numeric_flags_keep_the_exit_contract(tmp_path, trace, command):
    failures = _failures(flag_cases(command), str(tmp_path), trace)
    assert not failures, "\n".join(failures)


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        trace = make_trace(workdir)
        for command in sorted(BASES):
            flags = flag_cases(command) if command in FLAGS else []
            for failure in _failures(cases(command) + flags, workdir, trace):
                failed += 1
                print(failure)
    print("%d failed" % failed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
