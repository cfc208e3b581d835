"""End-to-end tests of the command line front end.

Most cases call cli.main(argv) in process and parse its stdout; one test
drives the installed console script to check the packaging wiring.
"""

import hashlib
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import wavecert
from wavecert import certificates, cli, observer, pde, search

FIG_SIM = {
    "points_per_axis": 201,
    "horizon": 2.1,
    "k": 1.0,
    "nonlinearity": {"form": "quadratic", "coeff": 0.1, "fz_bound": 0.2,
                     "local_radius": 1.0},
    "initial": {"preset": "paper-example2"},
}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_python(args, **kw):
    """Run a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable] + args,
                          capture_output=True, text=True, env=env, **kw)


def fresh_cli(argv, **kw):
    """Run the CLI in a fresh interpreter that imports this checkout's package."""
    return fresh_python(["-m", "wavecert.cli"] + argv, **kw)


def _recover_argv(trace="{trace}", out="{tmp}/r.json"):
    return ["recover", "--config", "{cfg}", "--trace", trace, "--iterations", "1",
            "--out", out]


class TestErrors:
    def test_malformed_json_line_anchored(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "problem": {"n": 1,,}\n}\n')
        code, out, err = run_cli(["certify", "--config", str(path)], capsys)
        assert code == 1
        assert "broken.json:2:" in err

    def test_missing_file(self, capsys):
        code, out, err = run_cli(["certify", "--config", "/nosuch/x.json"],
                                 capsys)
        assert code == 1 and err

    EXACT_SIM = {"points_per_axis": 41, "horizon": 0.5, "k": 1.0,
                 "initial": {"preset": "paper-example2"}}
    EXACT_CASES = {
        # name: (sim overrides, argv, stderr after "error: ")
        "missing-config": ({}, ["certify", "--config", "{tmp}/nosuch.json"],
                           "[Errno 2] No such file or directory: '{tmp}/nosuch.json'"),
        "missing-trace": ({}, _recover_argv(trace="{tmp}/nosuch.csv"),
                          "[Errno 2] No such file or directory: '{tmp}/nosuch.csv'"),
        "trace-is-a-directory": ({}, _recover_argv(trace="{tmp}"),
                                 "[Errno 21] Is a directory: '{tmp}'"),
        "recover-out-missing-directory": (
            {}, _recover_argv(out="{tmp}/no/r.json"),
            "[Errno 2] No such file or directory: '{tmp}/no/r.json'"),
        "simulate-out-missing-directory": (
            {}, ["simulate", "--config", "{cfg}", "--out", "{tmp}/no/t.csv"],
            "[Errno 2] No such file or directory: '{tmp}/no/t.csv'"),
        "zero-convergence-threshold": ({"convergence_threshold": 0}, _recover_argv(),
                                       "convergence_threshold must be > 0, got 0.0"),
        "trace-of-another-length": ({"horizon": 0.4}, _recover_argv(),
                                    "trace has 24 levels, the run needs 19"),
        "negative-fz-bound": (
            {"nonlinearity": {"form": "linear", "coeff": 0.1, "fz_bound": -1}},
            _recover_argv(), "nonlinearity: fz_bound must be >= 0, got -1.0"),
    }

    @pytest.mark.parametrize("case", sorted(EXACT_CASES))
    def test_exact_error_output(self, tmp_path, capsys, case):
        # an OSError or ValueError from reading, writing or recovering
        # reaches stderr as "error: " and its own text, with exit 1 and
        # nothing on stdout
        sim, argv, message = self.EXACT_CASES[case]
        names = {"tmp": str(tmp_path), "trace": str(tmp_path / "t.csv"),
                 "cfg": write_json(tmp_path, "c.json", {"sim": dict(self.EXACT_SIM, **sim)})}
        plain = write_json(tmp_path, "plain.json", {"sim": self.EXACT_SIM})
        assert run_cli(["simulate", "--config", plain, "--out", names["trace"]],
                       capsys)[0] == 0
        code, out, err = run_cli([arg.format(**names) for arg in argv], capsys)
        assert (code, out, err) == (1, "", "error: %s\n" % message.format(**names))

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0}, "extra": 1})
        code, out, err = run_cli(["certify", "--config", cfg], capsys)
        assert code == 1 and "extra" in err

    def test_unknown_problem_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "kk": 2.0}})
        code, out, err = run_cli(["certify", "--config", cfg], capsys)
        assert code == 1 and "kk" in err

    def test_unknown_search_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "delta": 0.01},
                          "search": {"bogus": 1}})
        code, out, err = run_cli(["certify", "--config", cfg], capsys)
        assert code == 1 and "bogus" in err

    @pytest.mark.parametrize("mode", ["certify", "sweep"])
    def test_mode_key_is_unknown(self, tmp_path, capsys, mode):
        # the subcommand alone says what a config is for, matching or not
        cfg = write_json(tmp_path, "c.json",
                         {"mode": mode, "problem": {"n": 1, "k": 1.0, "delta": 0.05}})
        code, out, err = run_cli(["certify", "--config", cfg], capsys)
        assert (code, out, err) == (1, "", "error: unknown config keys: mode\n")

    @pytest.mark.parametrize("argv", [["min-time", "--tol", "0.01"],
                                      ["certify", "--margin", "0.1"]],
                             ids=["tol", "margin"])
    def test_search_settings_are_not_flags(self, tmp_path, capsys, argv):
        # search.tstar_tol is set in the config only; the margin is fixed
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.2, "delta": 0.09}})
        code, out, err = run_cli(argv[:1] + ["--config", cfg] + argv[1:], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "unrecognized arguments: %s %s" % (
            argv[1], argv[2]) in err

    def test_bad_seed(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0}, "seed": True})
        code, out, err = run_cli(["certify", "--config", cfg], capsys)
        assert code == 1 and "seed" in err

    @pytest.mark.parametrize("mode,doc,says", [
        ("certify", {"problem": {"n": 1, "k": [1.0], "delta": 0.05}}, "k must"),
        ("certify", {"problem": {"n": 1, "k": "1.5", "delta": 0.05}}, "k must"),
        ("certify", {"problem": {"n": 1, "k": 1.0, "g1": True, "delta": 0.05}},
         "g1 must"),
        # a retired grid key is dropped before the rest of the section is
        # checked, so the error names the key that is still read
        ("certify", {"problem": {"n": 1, "k": 1.0, "delta": 0.05},
                     "search": {"refinement_rounds": math.inf, "tstar_tol": math.inf}},
         "tstar_tol must be finite"),
        ("certify", {"problem": {"n": 1, "k": 1.0, "delta": 0.05},
                     "search": {"chi_grid": 5, "tstar_tol": 0}}, "tstar_tol must be >"),
        ("simulate", {"sim": {"points_per_axis": math.inf, "horizon": 1.0,
                              "initial": {"preset": "paper-example2"}}},
         "points_per_axis must"),
        ("sweep", {"problems": [[1]]}, "JSON object of problem keys"),
        ("min-time", {"problem": {"n": 1, "k": 1.0, "delta": 0.05},
                      "search": {"lambda_bisection_tol": 0.5}},
         "unknown search keys: lambda_bisection_tol"),
        ("min-time", {"problem": {"n": 1, "k": 1.0, "delta": 0.05},
                      "search": {"chi_grid": [1e-4, 0.4, 10 ** 8], "chi_gird": 1}},
         "unknown search keys: chi_gird"),
        # JSON integers past the float range, which float() cannot convert
        ("certify", {"problem": {"n": 1, "k": 10 ** 400, "delta": 0.05}},
         "k is an integer too large for a float"),
        ("min-time", {"problem": {"n": 10 ** 400, "k": 1.0, "delta": 0.05}},
         "n is an integer too large for a float"),
        ("simulate", {"sim": {"points_per_axis": 10 ** 400, "horizon": 1.0,
                              "initial": {"preset": "paper-example2"}}},
         "points_per_axis is an integer too large for a float"),
        ("simulate", {"sim": {"points_per_axis": 101, "horizon": 1.0, "cfl": 0.5,
                              "initial": {"preset": "paper-example2"}}},
         "unknown sim keys: cfl"),
        ("simulate", {"sim": {"dim": 0, "points_per_axis": 101, "horizon": 1.0,
                              "initial": {"preset": "paper-example2"}}},
         "dim must"),
        ("simulate", {"sim": {"points_per_axis": 21, "horizon": 1e308,
                              "initial": {"preset": "paper-example2"}}},
         "sim: step count horizon/dt must be finite"),
        # 2.5e13 nodes: no address space holds them, so without the bound
        # the run fails at once instead of filling memory
        ("simulate", {"sim": {"dim": 2, "points_per_axis": 5 * 10 ** 6, "horizon": 1.0,
                              "initial": {"fourier-sine": {"z": [[1.0]]}}}},
         "sim: grid has 5000000^2 nodes, more than 10000000"),
        # 2.2e301 steps of dt = 0.045: without the bound the run would never end
        ("simulate", {"sim": {"points_per_axis": 21, "horizon": 1e300,
                              "initial": {"preset": "paper-example2"}}},
         "sim: step count horizon/dt must be <= 1000000"),
        # 2 k / dx overflows, which made NaN in the boundary constants
        ("simulate", {"sim": {"points_per_axis": 21, "horizon": 1.0,
                              "mode": "observer-forward", "k": 1e308,
                              "initial": {"preset": "paper-example2"}}},
         "sim: k must keep 2 k / dx and k dt / dx finite"),
        # 993,407 steps over 9,998,244 nodes, each within its own bound:
        # days of work and a 50 GB trace
        ("simulate", {"sim": {"dim": 2, "points_per_axis": 3162, "horizon": 200.0,
                              "initial": {"fourier-sine": {"z": [[1.0]]}}}},
         "node-steps, more than 200000000"),
        ("min-time", {"problem": {"n": 1, "k": 1.0, "delta": 0.05},
                      "search": {"refinement_rounds": 1e308, "margin": -1e-9}},
         "unknown search keys: margin"),
    ])
    def test_bad_value_names_its_key(self, tmp_path, capsys, mode, doc, says):
        # json.dumps writes math.inf as the Infinity token json.loads accepts
        cfg = write_json(tmp_path, "c.json", doc)
        argv = [mode, "--config", cfg]
        if mode != "certify":
            argv += ["--out", str(tmp_path / "x.csv")]
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and says in err

    @pytest.mark.parametrize("command", ["certify", "min-time", "regional", "sweep"])
    def test_problem_and_problems_are_exclusive(self, tmp_path, capsys, command):
        # one rule for every subcommand: min-time once ran on problem and
        # ignored a problems section, whatever it held
        problem = {"n": 1, "k": 1.0, "g1": 0.1, "delta": 0.05, "d": 1.0}
        cfg = write_json(tmp_path, "c.json", {"problem": problem, "problems": "junk"})
        argv = [command, "--config", cfg]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "t.csv")]
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (1, "", "error: give either problem or problems, not both\n")

    @pytest.mark.parametrize("command", ["certify", "min-time", "regional", "sweep"])
    def test_search_margin_is_refused(self, tmp_path, capsys, command):
        # the LMI margin is the constant certificates.MARGIN: as a setting,
        # margin 0.05 made min-time emit t* = 6.734 for 12.122 here, with
        # lambda_max(psi2) = +0.05
        problem = {"n": 2, "k": 1.0, "g1": 0.1, "delta": 0.01}
        if command == "regional":
            problem = {"n": 1, "k": 1.0, "g1": 0.1, "d": 1.0}
        cfg = write_json(tmp_path, "c.json", {"problem": problem, "search": {"margin": 0.05}})
        argv = [command, "--config", cfg]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "t.csv")]
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (1, "", "error: unknown search keys: margin\n")
        assert not (tmp_path / "t.csv").exists()

    def test_retired_search_keys_are_ignored(self, tmp_path, capsys):
        # the grids are fixed; 1e308 refinement rounds once ran without end
        doc = {"problem": {"n": 1, "k": 1.0, "g1": 0.1, "delta": 0.05},
               "search": {"tstar_tol": 0.01}}
        plain = run_cli(["min-time", "--config", write_json(tmp_path, "a.json", doc)],
                        capsys)
        doc["search"].update(chi_grid=[1e-4, 0.49, 12], refinement_rounds=1e308,
                             delta_grid="x")
        retired = run_cli(["min-time", "--config", write_json(tmp_path, "b.json", doc)],
                          capsys)
        assert retired == plain and plain[0] == 0 and plain[2] == ""

    def test_usage_error_is_exit_one(self, capsys):
        # argparse would exit 2, which is reserved for negative results
        code, out, err = run_cli(["certify"], capsys)
        assert code == 1
        code, out, err = run_cli(["no-such-command"], capsys)
        assert code == 1

    def test_missing_section(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {})
        code, out, err = run_cli(["min-time", "--config", cfg], capsys)
        assert code == 1 and "problem" in err
        code, out, err = run_cli(
            ["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")],
            capsys)
        assert code == 1 and "sim" in err


class TestCertify:
    def test_infeasible_point_names_phi0(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.0,
                                      "delta": 0.001}})
        vars_path = write_json(tmp_path, "v.json",
                               {"chi": 0.6, "lambda1": 0.1})
        code, out, err = run_cli(
            ["certify", "--config", cfg, "--vars", vars_path], capsys)
        assert code == 2
        data = json.loads(out)
        assert data["feasible"] is False
        assert "phi0" in data["failing"]
        assert data["margins"]["phi0"] < 0

    def test_feasible_point(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.0,
                                      "delta": 0.05}})
        vars_path = write_json(tmp_path, "v.json",
                               {"chi": 0.2, "lambda1": 0.15})
        code, out, err = run_cli(
            ["certify", "--config", cfg, "--vars", vars_path], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["feasible"] is True
        assert data["alpha"] == pytest.approx(0.6)
        assert data["beta"] == pytest.approx(1.4)
        assert "failing" not in data

    def test_point_is_checked_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        check = certificates.check_stability
        monkeypatch.setattr(certificates, "check_stability",
                            lambda *a: calls.append(a) or check(*a))
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.1,
                                      "delta": 0.1, "t_star": 3.79}})
        vars_path = write_json(tmp_path, "v.json",
                               {"chi": 0.18035, "lambda1": 0.09470606,
                                "lambda2": 1e-3})
        code, out, err = run_cli(
            ["certify", "--config", cfg, "--vars", vars_path], capsys)
        assert code == 0 and json.loads(out)["feasible"] is True
        assert len(calls) == 1

    def test_search_fallback_without_vars(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.0,
                                      "delta": 0.05}})
        code, out, err = run_cli(["certify", "--config", cfg], capsys)
        assert code == 0
        assert json.loads(out)["feasible"] is True

    def test_search_fallback_infeasible(self, tmp_path, capsys):
        # delta at the psi1 cut k/(1+k^2) leaves no admissible chi
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.0,
                                      "delta": 0.6}})
        code, out, err = run_cli(["certify", "--config", cfg], capsys)
        assert code == 2
        data = json.loads(out)
        assert data["feasible"] is False and data["reason"]

    def test_a_long_window_keeps_q_positive(self, tmp_path, capsys):
        # exp(-4 delta (T - t_star)) underflows to 0 at T = 20000; q is
        # floored at the least float, still an upper bound
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.1, "delta": 0.01,
                                      "t_star": 10.0, "t_total": 20000.0}})
        code, out, err = run_cli(["certify", "--config", cfg], capsys)
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["feasible"] is True and data["q"] == math.ulp(0.0)

    def test_vars_from_min_time_stdout(self, tmp_path, capsys):
        # min-time prints its certificate under a "certificate" key
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.1, "delta": 0.05},
                          "search": {"tstar_tol": 0.01}})
        code, out, err = run_cli(["min-time", "--config", cfg], capsys)
        assert code == 0
        stdout_path = tmp_path / "stdout.json"
        stdout_path.write_text(out)
        code, checked, err = run_cli(
            ["certify", "--config", cfg, "--vars", str(stdout_path)], capsys)
        assert code == 0
        data = json.loads(checked)
        assert data["feasible"] is True
        assert data["params"]["t_star"] == json.loads(out)["t_star"]
        for doc, says in (({"certificate": [1]}, "certificate entry must be"),
                          ([1], "vars file must hold")):
            stdout_path.write_text(json.dumps(doc))
            code, checked, err = run_cli(
                ["certify", "--config", cfg, "--vars", str(stdout_path)], capsys)
            assert code == 1 and checked == ""
            assert err == "error: %s a JSON object\n" % says

    @pytest.mark.parametrize("extra", [{"r": 5}, {"gamma": 1e-30}],
                             ids=["r", "gamma"])
    def test_vars_with_an_iss_gain_rejected(self, tmp_path, capsys, extra):
        # (r, gamma) is derived from the LMIs; a document that states it is
        # not re-verified, so it is refused rather than echoed back
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.0, "delta": 0.05}})
        for doc in (dict({"chi": 0.2, "lambda1": 0.15}, **extra),
                    {"params": {"n": 1, "k": 1.0, "g1": 0.0, "delta": 0.05},
                     "vars": dict({"chi": 0.2, "lambda1": 0.15}, **extra),
                     "alpha": 0.6, "beta": 1.4}):
            code, out, err = run_cli(["certify", "--config", cfg, "--vars",
                                      write_json(tmp_path, "v.json", doc)], capsys)
            assert code == 1 and out == ""
            assert err == "error: unknown variable keys: %s\n" % list(extra)[0]

    def test_vars_problem_mismatch(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "delta": 0.001}})
        mt = write_json(tmp_path, "mt.json",
                        {"problem": {"n": 2, "k": 1.0, "g1": 0.0,
                                     "lambda0": 0.1}})
        # build a certificate for n=2 and feed it to the n=1 config
        cert_path = str(tmp_path / "cert.json")
        code, out, err = run_cli(
            ["min-time", "--config",
             write_json(tmp_path, "mt2.json",
                        {"problem": {"n": 2, "k": 1.0, "g1": 0.0,
                                     "delta": 0.0001},
                         "search": {"tstar_tol": 0.05}}),
             "--out", cert_path], capsys)
        assert code == 0
        code, out, err = run_cli(
            ["certify", "--config", cfg, "--vars", cert_path], capsys)
        assert code == 1 and "different" in err


class TestMinTime:
    def test_one_dimensional_sharp_limit(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.0,
                                      "delta": 0.001}})
        out_path = str(tmp_path / "cert.json")
        code, out, err = run_cli(
            ["min-time", "--config", cfg, "--out", out_path], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["feasible"] is True
        assert 2.00 <= data["t_star"] <= 2.06
        assert data["delta"] == 0.001
        saved = json.loads(open(out_path).read())
        assert saved == data["certificate"]

    def test_round_trip_certify(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.1,
                                      "delta": 0.05},
                          "search": {"tstar_tol": 0.01}})
        out_path = str(tmp_path / "cert.json")
        code, out, err = run_cli(
            ["min-time", "--config", cfg, "--out", out_path], capsys)
        assert code == 0
        code, out, err = run_cli(
            ["certify", "--config", cfg, "--vars", out_path], capsys)
        assert code == 0
        assert json.loads(out)["feasible"] is True

    def test_a_long_window_keeps_q_positive(self, tmp_path, capsys):
        # q underflowed to 0 at t_total = 20000 and the assembly gave up
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.1, "delta": 0.01,
                                      "t_total": 20000.0}})
        out_path = str(tmp_path / "cert.json")
        code, out, err = run_cli(["min-time", "--config", cfg, "--out", out_path], capsys)
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["certificate"]["q"] == math.ulp(0.0)
        assert data["t_star"] == pytest.approx(9.184, abs=0.01)
        code, out, err = run_cli(["certify", "--config", cfg, "--vars", out_path], capsys)
        assert code == 0 and json.loads(out)["q"] == math.ulp(0.0)

    def test_rejects_given_t_star(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "delta": 0.01,
                                      "t_star": 3.0}})
        code, out, err = run_cli(["min-time", "--config", cfg], capsys)
        assert code == 1 and "t_star" in err

    def test_tolerance_below_the_float_spacing_ends(self, tmp_path):
        # the t_star bisection stops once no float lies between its ends
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.0, "delta": 0.001},
                          "search": {"tstar_tol": 1e-300}})
        proc = fresh_cli(["min-time", "--config", cfg], timeout=60)
        assert proc.returncode == 0
        assert 2.00 <= json.loads(proc.stdout)["t_star"] <= 2.06


class TestRegional:
    def test_example_case(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.1, "d": 1.0},
                          "search": {"tstar_tol": 0.01}})
        out_path = str(tmp_path / "cert.json")
        code, out, err = run_cli(
            ["regional", "--config", cfg, "--out", out_path], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["d0"] >= 0.23
        assert data["d0"] <= 0.5
        assert data["t_max"] > 0
        assert data["certificate"]["d0"] == data["d0"]
        # the emitted certificate re-verifies
        code, out, err = run_cli(
            ["certify", "--config", cfg, "--vars", out_path], capsys)
        assert code == 0

    def test_t_total_below_the_window_is_exit_two(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.1, "d": 1.0,
                                      "delta": 0.05, "t_total": 0.5},
                          "search": {"tstar_tol": 0.01}})
        code, out, err = run_cli(["regional", "--config", cfg], capsys)
        assert code == 2 and err == ""
        data = json.loads(out)
        assert data["feasible"] is False
        assert re.search(r"; last reason: t_total below minimal time \S+ "
                         r"at delta=0\.05\d*$", data["reason"]), data["reason"]

    def test_a_long_horizon_gives_a_zero_radius(self, tmp_path, capsys):
        # exp(-(g1/pi) t_total) underflows to 0 at t_total = 30000: the
        # radius 0 is an empty guarantee, and rounding it up would claim more
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.1, "d": 1.0,
                                      "t_total": 30000.0}})
        out_path = str(tmp_path / "cert.json")
        code, out, err = run_cli(["regional", "--config", cfg, "--out", out_path], capsys)
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["d0"] == data["certificate"]["d0"] == 0.0
        assert data["binding"] == "growth"
        code, out, err = run_cli(["certify", "--config", cfg, "--vars", out_path], capsys)
        assert code == 0 and json.loads(out)["d0"] == 0.0

    def test_requires_d(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.1}})
        code, out, err = run_cli(["regional", "--config", cfg], capsys)
        assert code == 1 and "d " in err


class TestSimulate:
    def test_trajectory_csv_round_trip(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"sim": dict(FIG_SIM)})
        out_path = str(tmp_path / "traj.csv")
        code, out, err = run_cli(
            ["simulate", "--config", cfg, "--out", out_path], capsys)
        assert code == 0
        meta = json.loads(out)
        text = open(out_path).read()
        trace, energies, lyap = pde.read_trajectory_csv(text)
        assert trace.steps == meta["steps"]
        assert trace.dt == meta["dt"]
        assert energies[0] == meta["energy_initial"]
        assert energies[-1] == meta["energy_final"]
        # no chi given: the V column falls back to E
        assert np.array_equal(energies, lyap)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"sim": dict(FIG_SIM)})
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run_cli(["simulate", "--config", cfg, "--out", a], capsys)[0] == 0
        assert run_cli(["simulate", "--config", cfg, "--out", b], capsys)[0] == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_observer_mode_decays_without_trace(self, tmp_path, capsys):
        sim = {"points_per_axis": 101, "horizon": 4.0,
               "mode": "observer-forward", "k": 1.0, "chi": 0.1,
               "initial": {"polynomial": {"z": [0.0, 0.2733, -0.13665]}}}
        cfg = write_json(tmp_path, "c.json", {"sim": sim})
        out_path = str(tmp_path / "dec.csv")
        code, out, err = run_cli(
            ["simulate", "--config", cfg, "--out", out_path], capsys)
        assert code == 0
        trace, energies, lyap = pde.read_trajectory_csv(open(out_path).read())
        assert energies[-1] < 1e-6 * energies[0]
        assert not np.array_equal(energies, lyap)

    def test_two_dimensional_fourier(self, tmp_path, capsys):
        sim = {"dim": 2, "points_per_axis": 31, "horizon": 1.0, "k": 1.0,
               "initial": {"fourier-sine": {"z": [[0.3, 0.0], [0.0, 0.05]],
                                            "zt": [[0.1]]}}}
        cfg = write_json(tmp_path, "c.json", {"sim": sim})
        out_path = str(tmp_path / "t2.csv")
        code, out, err = run_cli(
            ["simulate", "--config", cfg, "--out", out_path], capsys)
        assert code == 0
        trace, _, _ = pde.read_trajectory_csv(open(out_path).read())
        assert trace.samples.shape[1] == 2 * 31 - 3

    def test_initial_violating_pinned_end(self, tmp_path, capsys):
        sim = {"points_per_axis": 101, "horizon": 1.0,
               "initial": {"polynomial": {"z": [1.0]}}}
        cfg = write_json(tmp_path, "c.json", {"sim": sim})
        code, out, err = run_cli(
            ["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")],
            capsys)
        assert code == 1 and "initial" in err

    def test_initial_spec_errors(self, tmp_path, capsys):
        base = {"points_per_axis": 101, "horizon": 1.0}
        cases = [
            ({"initial": {"preset": "nope"}}, "unknown preset"),
            ({"initial": {"preset": "paper-example2",
                          "polynomial": {"z": [0.0, 1.0]}}}, "exactly one"),
            ({"initial": {}}, "exactly one"),
            ({"initial": {"polynomial": {"z": [0.0, 1.0], "w": 1}}},
             "unknown polynomial keys: w"),
            ({"dim": 2, "initial": {"preset": "paper-example2"}},
             "one-dimensional"),
            ({"dim": 2, "initial": {"fourier-sine": {"z": [0.1]}}}, "2-D array"),
            ({"initial": {"polynomial": {"z": {"c0": 1.0}}}}, "initial:"),
            # polyval has no value for an empty coefficient list
            ({"initial": {"polynomial": {"z": []}}}, "polynomial z"),
            ({"initial": {"polynomial": {"z": [0.0, 1.0], "zt": []}}},
             "polynomial zt"),
            ({"initial": {"polynomial": {"z": [0.0, 10 ** 400]}}}, "initial:"),
            ({}, "sim requires an initial section here"),
            ({"initial": {"polynomial": {"zt": [0.0, 1.0]}}},
             "polynomial requires z coefficients"),
            ({"initial": {"fourier-sine": {"zt": [0.1]}}},
             "fourier-sine requires z coefficients"),
            ({"dim": 2, "initial": {"polynomial": {"z": [0.0, 1.0]}}},
             "polynomial initial data is one-dimensional"),
        ]
        for extra, says in cases:
            sim = dict(base)
            sim.update(extra)
            if extra.get("dim") == 2:
                sim["points_per_axis"] = 31
            cfg = write_json(tmp_path, "c.json", {"sim": sim})
            code, out, err = run_cli(
                ["simulate", "--config", cfg,
                 "--out", str(tmp_path / "x.csv")], capsys)
            assert code == 1 and out == "", extra
            assert err.startswith("error:") and says in err, extra

    def test_nonlinearity_spec_errors(self, tmp_path, capsys):
        cases = [
            ({"form": "cubic"}, "form"),
            ({"form": "linear", "fz_bound": math.nan}, "fz_bound must"),
            ({"form": "linear", "fz_bound": math.inf}, "fz_bound must"),
        ]
        for spec, says in cases:
            sim = {"points_per_axis": 101, "horizon": 1.0,
                   "initial": {"preset": "paper-example2"},
                   "nonlinearity": spec}
            cfg = write_json(tmp_path, "c.json", {"sim": sim})
            code, out, err = run_cli(
                ["simulate", "--config", cfg,
                 "--out", str(tmp_path / "x.csv")], capsys)
            assert code == 1 and says in err, spec

    def test_non_finite_energy_is_an_error_not_bad_json(self, tmp_path, capsys):
        # |grad z|^2 overflows to inf while z itself stays finite
        sim = {"points_per_axis": 21, "horizon": 0.05,
               "initial": {"polynomial": {"z": [0.0, 1e200]}}}
        cfg = write_json(tmp_path, "c.json", {"sim": sim})
        with np.errstate(over="ignore"):
            code, out, err = run_cli(
                ["simulate", "--config", cfg,
                 "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1 and out == ""
        assert "inf" in err

    def test_overflowing_step_prints_only_the_error(self, tmp_path):
        # the source overflows inside the first step; a fresh interpreter
        # shows what a user sees on stderr, warnings included
        sim = {"points_per_axis": 21, "horizon": 0.05,
               "nonlinearity": {"form": "quadratic", "coeff": 1e10,
                                "fz_bound": 1.0, "local_radius": 1.0},
               "initial": {"polynomial": {"z": [0.0, 1e150]}}}
        cfg = write_json(tmp_path, "c.json", {"sim": sim})
        proc = fresh_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: solution diverged")


class TestRecover:
    def make_trace(self, tmp_path, capsys, horizon=2.1):
        sim = dict(FIG_SIM)
        sim["horizon"] = horizon
        cfg = write_json(tmp_path, "c%s.json" % horizon, {"sim": sim})
        trace_path = str(tmp_path / ("t%s.csv" % horizon))
        code, _, _ = run_cli(
            ["simulate", "--config", cfg, "--out", trace_path], capsys)
        assert code == 0
        return cfg, trace_path

    def test_converged_run(self, tmp_path, capsys):
        cfg, trace_path = self.make_trace(tmp_path, capsys)
        out_path = str(tmp_path / "run.json")
        code, out, err = run_cli(
            ["recover", "--config", cfg, "--trace", trace_path,
             "--iterations", "10", "--out", out_path], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["converged"] is True and data["diverged"] is False
        assert data["iterations"][-1]["succ_change"] < 1e-3
        assert json.loads(open(out_path).read()) == data

    def test_certificate_section_arms_the_regional_guard(self, tmp_path, capsys):
        # a certificate with d adds the guard's verdict to the report; the
        # preset's max |z| of 0.137 stays within d = 0.5, not within 0.05
        cfg, trace_path = self.make_trace(tmp_path, capsys)
        params = certificates.ProblemParams(n=1, k=1.0, g1=0.2, delta=0.09)
        vars = search.find_feasible_vars(params)
        for d, holds in ((0.5, True), (0.05, False)):
            cert = certificates.make_certificate(
                certificates.ProblemParams(n=1, k=1.0, g1=0.2, delta=0.09, d=d), vars)
            doc = {"sim": FIG_SIM, "certificate": certificates.certificate_to_dict(cert)}
            code, out, err = run_cli(
                ["recover", "--config", write_json(tmp_path, "r.json", doc),
                 "--trace", trace_path, "--iterations", "10",
                 "--out", str(tmp_path / "run.json")], capsys)
            assert code == 0 and json.loads(out)["regional_guard_ok"] is holds
        doc = {"sim": FIG_SIM, "certificate": {"params": {"n": 1}}}
        code, out, err = run_cli(
            ["recover", "--config", write_json(tmp_path, "bad.json", doc),
             "--trace", trace_path, "--iterations", "10",
             "--out", str(tmp_path / "run.json")], capsys)
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_recovery_holds_the_trace_not_the_parsed_rows(self, tmp_path, capsys,
                                                          monkeypatch):
        # the CSV parses into one (levels, 3 + nodes) array, of which the
        # recovery needs only the trace's own (levels, nodes) copy: at
        # observer.recover's entry the command holds the trace and little
        # else (3 KB), not the row array, four times the trace's size in 1-D
        sim = dict(FIG_SIM, points_per_axis=17, horizon=200.0)
        cfg = write_json(tmp_path, "long.json", {"sim": sim})
        trace_path = str(tmp_path / "long.csv")
        assert run_cli(["simulate", "--config", cfg, "--out", trace_path], capsys)[0] == 0
        held = {}
        real = observer.recover

        def recover(measurements, config, truth=None):
            held["at_entry"] = tracemalloc.get_traced_memory()[0] - held["before"]
            held["trace"] = measurements.samples.nbytes
            return real(measurements, config, truth)

        monkeypatch.setattr(observer, "recover", recover)
        tracemalloc.start()
        try:
            held["before"] = tracemalloc.get_traced_memory()[0]
            code, _, _ = run_cli(["recover", "--config", cfg, "--trace", trace_path,
                                  "--iterations", "1", "--out", str(tmp_path / "r.json")],
                                 capsys)
        finally:
            tracemalloc.stop()
        assert code in (0, 2)
        assert held["trace"] == 8 * 3557  # 3,556 steps, one column
        assert held["at_entry"] < 2.0 * held["trace"], held

    @pytest.mark.parametrize("change,message", [
        ({"mode": "nonsense"}, "sim: mode must be one of %s" % (pde.MODES,)),
        ({"chi": "abc"}, "chi must be a number, got 'abc'"),
        ({"chi": -1}, "chi must be >= 0, got -1.0"),
        ({"initial": {"bogus": 1}}, "unknown initial keys: bogus"),
        ({"convergence_threshold": "x"}, "convergence_threshold must be a number, got 'x'"),
        ({"convergence_threshold": 0}, "convergence_threshold must be > 0, got 0.0"),
    ], ids=["mode", "chi-text", "chi-negative", "initial", "threshold-text",
            "threshold-zero"])
    def test_simulate_and_recover_check_the_whole_sim_section(self, tmp_path, capsys,
                                                              change, message):
        # each refuses what the other reads, with the reader's own text:
        # recover once ran on such a section, simulate on a bad threshold
        _, trace_path = self.make_trace(tmp_path, capsys)
        cfg = write_json(tmp_path, "bad.json", {"sim": dict(FIG_SIM, **change)})
        out_path = tmp_path / "out"
        for argv in (["simulate", "--config", cfg, "--out", str(out_path)],
                     ["recover", "--config", cfg, "--trace", trace_path,
                      "--iterations", "1", "--out", str(out_path)]):
            assert run_cli(argv, capsys) == (1, "", "error: %s\n" % message), argv[0]
            assert not out_path.exists()

    def test_budget_too_small_is_exit_two(self, tmp_path, capsys):
        cfg, trace_path = self.make_trace(tmp_path, capsys)
        code, out, err = run_cli(
            ["recover", "--config", cfg, "--trace", trace_path,
             "--iterations", "1", "--out", str(tmp_path / "r.json")], capsys)
        assert code == 2
        assert "not converged" in err
        assert json.loads(out)["converged"] is False

    def test_trace_grid_mismatch(self, tmp_path, capsys):
        cfg, _ = self.make_trace(tmp_path, capsys)
        other_cfg, other_trace = self.make_trace(tmp_path, capsys,
                                                 horizon=1.5)
        code, out, err = run_cli(
            ["recover", "--config", cfg, "--trace", other_trace,
             "--iterations", "2", "--out", str(tmp_path / "r.json")], capsys)
        assert code == 1

    def test_bad_iterations(self, tmp_path, capsys):
        cfg, trace_path = self.make_trace(tmp_path, capsys)
        code, out, err = run_cli(
            ["recover", "--config", cfg, "--trace", trace_path,
             "--iterations", "0", "--out", str(tmp_path / "r.json")], capsys)
        assert code == 1

    def test_iteration_budget_bounds_the_work(self, tmp_path, capsys):
        # 10^12 iterations of a 1-D N=201 window would run for days; the
        # budget on 2 x m_max x steps x nodes refuses them before any run
        cfg, trace_path = self.make_trace(tmp_path, capsys)
        code, out, err = run_cli(
            ["recover", "--config", cfg, "--trace", trace_path,
             "--iterations", "1000000000000", "--out", str(tmp_path / "r.json")],
            capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: 1000000000000 iterations of 2 runs make ")
        assert err.endswith("node-steps, more than %d\n"
                            % observer.MAX_RECOVERY_NODE_STEPS)
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("text", ["", " \n\n"], ids=["empty", "blank"])
    def test_empty_trace_file(self, tmp_path, capsys, text):
        cfg = write_json(tmp_path, "c.json", {"sim": dict(FIG_SIM)})
        trace_path = tmp_path / "t.csv"
        trace_path.write_text(text)
        code, out, err = run_cli(
            ["recover", "--config", cfg, "--trace", str(trace_path),
             "--iterations", "2", "--out", str(tmp_path / "r.json")], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "empty" in err


    @pytest.mark.parametrize("text,message", [
        ("t,E,V,trace0\n0,1,1,0,5\n0.0015,1,1,0,5\n",
         "row 1 carries 5 values, the header names 4"),
        ("t,E,V,foo\n0,1,1,0\n0.0015,1,1,0\n", "expected the header"),
        ("t,E,V,trace0\n0,nan,1,0\n0.0015,1,1,0\n", "E and V values must be finite"),
    ], ids=["wide-rows", "header", "nan-E"])
    def test_malformed_trace_file(self, tmp_path, capsys, text, message):
        cfg = write_json(tmp_path, "c.json", {"sim": dict(FIG_SIM)})
        trace_path = tmp_path / "t.csv"
        trace_path.write_text(text)
        code, out, err = run_cli(
            ["recover", "--config", cfg, "--trace", str(trace_path),
             "--iterations", "2", "--out", str(tmp_path / "r.json")], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: %s: " % trace_path) and message in err
        assert not (tmp_path / "r.json").exists()


class TestSweep:
    PROBLEMS = [
        {"n": 1, "k": 1.0, "g1": 0.0, "delta": 0.001},
        {"n": 1, "k": 1.0, "g1": 0.1, "delta": 0.05},
        {"n": 1, "k": 1.0, "g1": 5.0, "delta": 0.4},
    ]

    def test_jobs_do_not_change_bytes(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "s.json",
                         {"problems": self.PROBLEMS,
                          "search": {"tstar_tol": 0.01}})
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        code, out, _ = run_cli(
            ["sweep", "--config", cfg, "--jobs", "1", "--out", a], capsys)
        assert code == 0
        meta = json.loads(out)
        assert meta == {"rows": 3, "feasible_rows": 2}
        code, _, _ = run_cli(
            ["sweep", "--config", cfg, "--jobs", "8", "--out", b], capsys)
        assert code == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        header = open(a).read().splitlines()[0]
        assert header == ("n,k,g1,delta,t_star,chi,lambda0,lambda1,lambda2,"
                          "alpha,beta,d0,feasible")

    def test_round_trip_certify(self, tmp_path, capsys):
        # every feasible row's 17-digit cells re-certify through --vars
        problems = [
            {"n": 1, "k": 1.0, "g1": 0.0, "delta": 0.001},
            {"n": 1, "k": 1.0, "g1": 0.1, "delta": 0.1, "t_star": 3.9},
            {"n": 2, "k": 1.0, "g1": 0.1, "delta": 0.01, "t_star": 15.0},
            {"n": 1, "k": 1.0, "g1": 5.0, "delta": 0.4},
        ]
        cfg = write_json(tmp_path, "s.json",
                         {"problems": problems, "search": {"tstar_tol": 0.01}})
        csv_path = str(tmp_path / "s.csv")
        code, out, _ = run_cli(["sweep", "--config", cfg, "--out", csv_path],
                               capsys)
        assert code == 0 and json.loads(out)["feasible_rows"] == 3
        lines = open(csv_path).read().splitlines()
        header = lines[0].split(",")
        checked = 0
        for i, line in enumerate(lines[1:]):
            row = dict(zip(header, line.split(",")))
            if row["feasible"] != "true":
                continue
            problem = {"n": int(row["n"])}
            for key in ("k", "g1", "delta", "t_star"):
                problem[key] = float(row[key])
            vars = {key: float(row[key])
                    for key in ("chi", "lambda0", "lambda1", "lambda2")
                    if row[key] != ""}
            assert "lambda2" in vars
            cfg_i = write_json(tmp_path, "p%d.json" % i, {"problem": problem})
            vars_i = write_json(tmp_path, "v%d.json" % i, vars)
            code, out, err = run_cli(
                ["certify", "--config", cfg_i, "--vars", vars_i], capsys)
            assert code == 0, err
            assert json.loads(out)["feasible"] is True
            checked += 1
        assert checked == 3

    def test_all_infeasible_is_exit_two(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "s.json",
                         {"problems": [{"n": 1, "k": 1.0, "delta": 0.6}]})
        code, out, err = run_cli(
            ["sweep", "--config", cfg, "--jobs", "1",
             "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 2
        assert json.loads(out) == {"rows": 1, "feasible_rows": 0}
        assert "false" in open(tmp_path / "s.csv").read()

    def test_single_problem_section(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "s.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.0,
                                      "delta": 0.05},
                          "search": {"tstar_tol": 0.01}})
        code, out, err = run_cli(
            ["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")],
            capsys)
        assert code == 0
        assert json.loads(out) == {"rows": 1, "feasible_rows": 1}

    def test_both_sections_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "s.json",
                         {"problem": self.PROBLEMS[0],
                          "problems": self.PROBLEMS})
        code, out, err = run_cli(
            ["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")],
            capsys)
        assert code == 1

    def test_bad_jobs(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "s.json", {"problem": self.PROBLEMS[0]})
        code, out, err = run_cli(
            ["sweep", "--config", cfg, "--jobs", "0",
             "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 1

    def test_cli_import_leaves_the_pool_module_out(self):
        # only sweep --jobs needs concurrent.futures, which weighs on every
        # command's start-up
        proc = fresh_python(["-c", "import sys, wavecert.cli; "
                                   "print(sorted(m for m in sys.modules "
                                   "if m.startswith('concurrent')))"],
                            timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_cli_import_leaves_numpy_out(self):
        # numpy loads with search, pde or observer, which only the commands
        # that search or simulate run
        proc = fresh_python(["-c", "import sys, wavecert.cli; "
                                   "print('numpy' in sys.modules)"],
                            timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestLazySimulationLayer:
    """search, pde and observer run on first use; every launch pays only
    for its own, and only a launch that runs one of them loads numpy.

    Each case runs in a fresh interpreter whose audit hook records the
    file of every code object passed to exec, which is how every module
    body runs, from source or from a bytecode cache.
    """

    PROBLEM = {"n": 1, "k": 1.0, "g1": 0.1, "delta": 0.05}
    SIM = {"points_per_axis": 41, "horizon": 0.5, "k": 1.0,
           "initial": {"preset": "paper-example2"}}
    CERTIFICATE_LAYER = ["__init__.py", "certificates.py", "smallmat.py"]
    CLI_LAYER = sorted(CERTIFICATE_LAYER + ["cli.py"])
    SEARCH_LAYER = sorted(CLI_LAYER + ["search.py"])

    # the names the package binds, by the module that defines each
    PUBLIC = {
        "certificates": ["Certificate", "CertificateError", "DecisionVars",
                         "ProblemParams", "certificate_from_dict",
                         "certificate_to_dict", "check_observability",
                         "check_stability", "compute_alpha_beta",
                         "compute_iss_gain", "compute_regional_radius",
                         "make_certificate"],
        "observer": ["ContractionReport", "IssReport", "IterationRecord",
                     "RecoveryConfig", "RecoveryRun", "contraction_report",
                     "perturbed_recover", "recover", "run_to_json"],
        "pde": ["ZERO_F", "BoundaryTrace", "DivergenceError", "Grid",
                "Nonlinearity", "WaveField", "boundary_node_count", "energy",
                "hnorm", "lyapunov", "make_grid", "read_trajectory_csv", "run",
                "sobolev_check", "step", "trace_check", "trace_sq_integral",
                "trajectory_csv", "wirtinger_check", "zero_trace"],
        "search": ["Infeasible", "SweepResult", "SweepRow", "chi_min_stability",
                   "delta_margin", "find_feasible_vars",
                   "maximize_regional_radius", "minimal_observability_time",
                   "sweep"],
    }
    MODULES = ["certificates", "observer", "pde", "search", "smallmat"]

    LAUNCH = """
import json, os, sys
seen = set()
sys.addaudithook(lambda event, args: event == "exec"
                 and seen.add(args[0].co_filename))
import wavecert
code = None
if len(sys.argv) > 1:
    from wavecert import cli
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
root = os.path.dirname(wavecert.__file__)
print(json.dumps([code, "numpy" in sys.modules,
                  sorted(os.path.basename(f) for f in seen
                         if os.path.dirname(f) == root)]))
"""

    def launch(self, argv=()):
        """(exit code, whether numpy was imported, the package files run)
        of one launch, and its stderr."""
        proc = fresh_python(["-c", self.LAUNCH] + list(argv), timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, numpy, ran = json.loads(proc.stdout.splitlines()[-1])
        return (code, numpy, ran), proc.stderr

    def executed(self, argv=()):
        """(whether numpy was imported, the package files run) of a launch
        that ends in a result."""
        (code, numpy, ran), _ = self.launch(argv)
        assert code in (None, 0, 2)
        return numpy, ran

    def test_import_runs_the_certificate_layer_only(self):
        assert self.executed() == (False, self.CERTIFICATE_LAYER)

    @pytest.mark.parametrize("command", ["certify", "min-time", "regional",
                                         "sweep"])
    def test_searches_run_neither_pde_nor_observer(self, tmp_path, command):
        problem = dict(self.PROBLEM)
        if command == "regional":
            problem["d"] = 1.0
        if command == "sweep":
            problem["t_star"] = 3.9
        argv = [command, "--config",
                write_json(tmp_path, "c.json", {"problem": problem,
                                                "search": {"tstar_tol": 0.01}})]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "s.csv")]
        assert self.executed(argv) == (True, self.SEARCH_LAYER)

    def test_certify_vars_and_help_run_no_search_and_no_numpy(self, tmp_path):
        cfg = write_json(tmp_path, "c.json", {"problem": self.PROBLEM})
        vars_path = write_json(tmp_path, "v.json", {"chi": 0.2, "lambda1": 0.15})
        assert self.executed(["certify", "--config", cfg, "--vars", vars_path]) \
            == (False, self.CLI_LAYER)
        assert self.executed(["--help"]) == (False, self.CLI_LAYER)

    BAD = {"search": ({"search": {"tstar_tol": -1}},
                      "error: tstar_tol must be > 0, got -1.0\n"),
           "problem": ({"problem": {"n": 1, "k": -1.0}},
                       "error: k must be > 0, got -1.0\n")}

    @pytest.mark.parametrize("section", sorted(BAD))
    @pytest.mark.parametrize("command", ["min-time", "regional", "sweep"])
    def test_a_bad_config_is_rejected_before_numpy_loads(self, tmp_path,
                                                          command, section):
        doc, stderr = self.BAD[section]
        doc = dict({"problem": dict(self.PROBLEM, d=1.0)}, **doc)
        argv = [command, "--config", write_json(tmp_path, "c.json", doc)]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "s.csv")]
        assert self.launch(argv) == ((1, False, self.CLI_LAYER), stderr)

    def test_simulate_runs_pde_and_recover_runs_both(self, tmp_path):
        cfg = write_json(tmp_path, "c.json", {"sim": self.SIM})
        trace = str(tmp_path / "t.csv")
        assert self.executed(["simulate", "--config", cfg, "--out", trace]) \
            == (True, sorted(self.CLI_LAYER + ["pde.py"]))
        assert self.executed(["recover", "--config", cfg, "--trace", trace,
                              "--iterations", "1",
                              "--out", str(tmp_path / "r.json")]) \
            == (True, sorted(self.CLI_LAYER + ["observer.py", "pde.py"]))

    def test_every_module_is_registered_for_the_tracer(self):
        """bench/tracer.py reads sys.modules["wavecert." + module] for each
        traced module and getattr()s its functions from that entry, so a
        lazy module must be registered from the start and resolve to the
        same objects as the package attribute."""
        proc = fresh_python(["-c", """
import sys, wavecert.cli
print(sorted(m for m in sys.modules if m.startswith("wavecert.")))
import wavecert
print(getattr(sys.modules["wavecert.pde"], "step") is wavecert.pde.step,
      getattr(sys.modules["wavecert.observer"], "recover")
      is wavecert.observer.recover,
      getattr(sys.modules["wavecert.search"], "sweep")
      is wavecert.search.sweep)
"""], timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            str(["wavecert.%s" % m for m in sorted(self.MODULES + ["cli"])]),
            "True True True"]

    def test_public_names_resolve_to_their_modules(self):
        for module, names in self.PUBLIC.items():
            for name in names:
                assert getattr(wavecert, name) \
                    is getattr(getattr(wavecert, module), name), name
        public = sorted(self.MODULES
                        + [n for names in self.PUBLIC.values() for n in names])
        assert sorted(wavecert.__all__) == public
        # the searches' negative result is defined with the certificates
        assert wavecert.Infeasible is wavecert.search.Infeasible \
            is wavecert.certificates.Infeasible
        assert set(public + ["__version__"]) <= set(dir(wavecert))
        star = {}
        exec("from wavecert import *", star)
        assert sorted(n for n in star if n != "__builtins__") == public
        with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
            wavecert.nosuch

    def test_simulation_objects_unpickle_before_pde_runs(self):
        grid = pde.make_grid(1, 41, 0.5, k=1.0)
        config = observer.RecoveryConfig(horizon=0.5, m_max=2, grid=grid)
        proc = fresh_python(["-c", """
import pickle, sys
grid, config = pickle.loads(bytes.fromhex(sys.argv[1]))
print(type(grid).__module__, type(config).__module__, config.grid == grid,
      config.steps)
""", pickle.dumps((grid, config)).hex()], timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "wavecert.pde wavecert.observer True %d\n" \
            % config.steps


class TestUnwritableOut:
    SIM = {"points_per_axis": 41, "horizon": 0.5, "k": 1.0,
           "initial": {"preset": "paper-example2"}}
    PROBLEM = {"n": 1, "k": 1.0, "g1": 0.1, "delta": 0.05}
    DOCS = {"min-time": {"problem": PROBLEM, "search": {"tstar_tol": 0.01}},
            "regional": {"problem": dict(PROBLEM, d=1.0),
                         "search": {"tstar_tol": 0.01}},
            "simulate": {"sim": SIM},
            "recover": {"sim": SIM},
            "sweep": {"problem": dict(PROBLEM, t_star=3.9)}}

    @pytest.mark.parametrize("command", sorted(DOCS))
    def test_exit_one_and_nothing_on_stdout(self, tmp_path, capsys, command):
        # the result is written before it is printed, so a failed write
        # leaves stdout empty, as every exit 1 does
        cfg = write_json(tmp_path, "c.json", self.DOCS[command])
        flags = []
        if command == "recover":
            trace = str(tmp_path / "t.csv")
            assert run_cli(["simulate", "--config", cfg, "--out", trace],
                           capsys)[0] == 0
            flags = ["--trace", trace, "--iterations", "1"]
        missing = str(tmp_path / "missing" / "out")
        code, out, err = run_cli([command, "--config", cfg, "--out", missing] + flags,
                                 capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: [Errno 2] No such file or directory")


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.0,
                                      "delta": 0.05}})
        proc = subprocess.run(
            [sys.executable, "-m", "wavecert.cli", "certify",
             "--config", cfg],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["feasible"] is True


class TestParserReuse:
    """cli.main builds its parser on the first call and reuses it."""

    @staticmethod
    def call(argv, capsys):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_three_calls_build_one_parser(self, tmp_path, capsys, monkeypatch):
        cli.build_parser.cache_clear()
        progs = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cfg = write_json(tmp_path, "c.json",
                         {"problem": {"n": 1, "k": 1.0, "g1": 0.0, "delta": 0.05}})
        vars_path = write_json(tmp_path, "v.json", {"chi": 0.2, "lambda1": 0.15})
        assert self.call(["min-time"], capsys)[0] == 1
        built = len(progs)
        assert self.call(["certify", "--config", cfg, "--vars", vars_path],
                         capsys)[0] == 0
        assert self.call(["sweep", "--config", cfg], capsys)[0] == 1
        # the top-level parser and its six subcommand parsers, once
        assert len(progs) == built == 7 and progs.count("wavecert") == 1

    def test_calls_stay_isolated(self, tmp_path, capsys, monkeypatch):
        # each call of one process-wide parser gives the exit code, stdout
        # and stderr of a parser of its own, as in a fresh interpreter
        monkeypatch.setenv("COLUMNS", "80")
        worker_counts = []
        real_sweep = search.sweep

        def sweep(problems, worker_count, **settings):
            worker_counts.append(worker_count)
            return real_sweep(problems, worker_count=worker_count, **settings)

        monkeypatch.setattr(search, "sweep", sweep)
        problem = {"n": 1, "k": 1.0, "g1": 0.1, "delta": 0.05}
        cfg = write_json(tmp_path, "c.json", {"problem": problem})
        vars_path = write_json(tmp_path, "v.json", {"chi": 0.6, "lambda1": 0.1})
        rows = write_json(tmp_path, "rows.json",
                          {"problems": [dict(problem, t_star=3.9),
                                        dict(problem, t_star=4.5)]})
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        steps = [["min-time"],
                 ["certify", "--config", cfg, "--vars", vars_path],
                 ["certify", "--config", cfg],
                 ["sweep", "--config", rows, "--jobs", "2", "--out", a],
                 ["sweep", "--config", rows, "--out", b],
                 ["--help"], ["--help"]]
        cli.build_parser.cache_clear()
        got = [self.call(argv, capsys) for argv in steps]
        assert cli.build_parser.cache_info().misses == 1
        assert [code for code, _, _ in got] == [1, 2, 0, 0, 0, 0, 0]
        # certify without --vars searches: it does not reuse the last vars
        assert json.loads(got[1][1])["vars"] != json.loads(got[2][1])["vars"]
        assert worker_counts == [2, 1]
        assert open(a, "rb").read() == open(b, "rb").read()
        assert got[5] == got[6] and got[5][1].startswith("usage: wavecert")
        for argv, result in zip(steps, got):
            cli.build_parser.cache_clear()
            assert self.call(argv, capsys) == result, argv
        for i in (0, 2, 5):
            proc = fresh_cli(steps[i], timeout=60)
            assert (proc.returncode, proc.stdout, proc.stderr) == got[i], steps[i]


class TestPinnedOutputBytes:
    """simulate then recover on reduced 1-D and 2-D cases, hashed.

    Each case's SHA-256 covers, per command in order, its exit code,
    stdout, stderr and written file.  The digests were taken with
    Python 3.11.7 and numpy 2.4.6; a numpy release that changes the
    last bit of an elementwise operation changes them too.
    """

    CASES = {
        # criterion 4's case on a coarse grid, with the Lyapunov column
        "d1": ({"points_per_axis": 41, "horizon": 2.1, "k": 1.0, "chi": 0.18,
                "nonlinearity": {"form": "quadratic", "coeff": 0.1,
                                 "fz_bound": 0.2, "local_radius": 1.0},
                "initial": {"preset": "paper-example2"}}, True),
        "d1-observer": ({"points_per_axis": 41, "horizon": 1.0, "k": 1.0,
                         "chi": 0.1, "mode": "observer-backward",
                         "initial": {"fourier-sine": {"z": [0.2, -0.1, 0.05],
                                                      "zt": [0.1]}}}, False),
        "d2": ({"dim": 2, "points_per_axis": 21, "horizon": 2.5, "k": 1.0,
                "chi": 0.05, "nonlinearity": {"form": "sine", "coeff": 0.1},
                "initial": {"fourier-sine": {"z": [[0.2, 0.05], [0.05, 0.02]],
                                             "zt": [[0.1, 0.0], [0.0, 0.05]]}}},
               True),
        "d2-observer": ({"dim": 2, "points_per_axis": 21, "horizon": 0.5,
                         "k": 0.5, "chi": 0.1, "mode": "observer-forward",
                         "initial": {"fourier-sine": {"z": [[0.1, 0.0, 0.03]],
                                                      "zt": [[0.0], [0.1]]}}},
                        False),
    }

    DIGESTS = {
        "d1": "93b65e7089b22f663e335f934f0d5fd18b129302fbaa7ad1420720313b36d1ed",
        "d1-observer":
            "414c64b6501409a9a264c4d8c2583f3489717092802b793cbf1116b18183f4eb",
        "d2": "242c7705a1e4f7c59abd12eddebc7de6b8648c0392bdeb5f14e6c5a817b3c717",
        "d2-observer":
            "80d286945e8630af66a3d272806a4e226150cc1d70ec0a268b4bbd35cc141d14",
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_digest(self, tmp_path, capsys, name):
        sim, recovers = self.CASES[name]
        cfg = write_json(tmp_path, "c.json", {"sim": sim})
        trace = str(tmp_path / "trace.csv")
        report = str(tmp_path / "run.json")
        commands = [(["simulate", "--config", cfg, "--out", trace], trace)]
        if recovers:
            commands.append((["recover", "--config", cfg, "--trace", trace,
                              "--iterations", "10", "--out", report], report))
        h = hashlib.sha256()
        for argv, path in commands:
            code, out, err = run_cli(argv, capsys)
            assert code in (0, 2), err
            h.update(b"%d\n" % code)
            h.update(out.encode())
            h.update(err.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
        assert h.hexdigest() == self.DIGESTS[name]


class TestPinnedSearchBytes:
    """The search commands on acceptance rows and a two-row sweep, hashed.

    Each case's SHA-256 covers its exit code, stdout, stderr and, where
    the command writes one, its --out file.  The two sweep cases differ
    only in --jobs and share one digest.  The digests were taken with
    Python 3.11.7 and numpy 2.4.6.
    """

    SWEEP = {"problems": [{"n": 1, "k": 1.0, "g1": 0.1, "delta": 0.05},
                          {"n": 2, "k": 1.0, "g1": 0.1, "delta": 0.01,
                           "t_star": 15.0}],
             "search": {"tstar_tol": 0.01}}

    CASES = {
        # criterion 1's n=2, g1=0.1 row and criterion 2's row
        "min-time-n2-g0.1": ("min-time", {"problem": {"n": 2, "k": 1.0, "g1": 0.1,
                                                      "delta": 0.01}}, []),
        "min-time-n1-g0": ("min-time", {"problem": {"n": 1, "k": 1.0, "g1": 0.0,
                                                    "delta": 0.001}}, []),
        # every delta fails the T_STAR_MAX probe; the last quotes lambda_max
        "min-time-probe": ("min-time", {"problem": {"n": 1, "k": 1.0, "g1": 0.1,
                                                    "delta": 1e-4}}, None),
        # criterion 3's first config
        "regional-g0.1": ("regional", {"problem": {"n": 1, "k": 1.0, "g1": 0.1,
                                                   "d": 1.0},
                                       "search": {"tstar_tol": 0.01}}, []),
        # the stability-mode chi scan behind certify without --vars
        "certify-n3": ("certify", {"problem": {"n": 3, "k": 1.0, "g1": 0.05,
                                               "delta": 0.02}}, None),
        "sweep-jobs1": ("sweep", SWEEP, ["--jobs", "1"]),
        "sweep-jobs2": ("sweep", SWEEP, ["--jobs", "2"]),
    }

    SWEEP_DIGEST = "03a87632d34fae8878c7d862b421373d968e7ef71fcea234c620c85ecf4f45bd"

    DIGESTS = {
        "min-time-n2-g0.1":
            "a371adc5e0b8c9045feb7050b08f07b0346cdc1d044abef71edae5123870c34d",
        "min-time-n1-g0":
            "20781831d2601eac63d0ac54a9c9efa30d00c305bb6f830a1884b3f6a48baedb",
        "min-time-probe":
            "6aaf425ef452895cbca78251a4c1752c7b6d72153e96191010f3f0488f5d8240",
        "regional-g0.1":
            "60fced0f0373c78bf7634ed53081253d195ce5bb0d9eb0976b6d0fb3371a6738",
        "certify-n3":
            "38e2695657b1773eec1ed80982b71e1636b58952ddbf3021ce98c4f6d37dbe3d",
        "sweep-jobs1": SWEEP_DIGEST,
        "sweep-jobs2": SWEEP_DIGEST,
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_digest(self, tmp_path, capsys, name):
        command, doc, flags = self.CASES[name]
        argv = [command, "--config", write_json(tmp_path, "c.json", doc)]
        out_path = tmp_path / "out"
        if flags is not None:
            argv += flags + ["--out", str(out_path)]
        code, out, err = run_cli(argv, capsys)
        assert code in (0, 2), err
        h = hashlib.sha256()
        h.update(b"%d\n" % code)
        h.update(out.encode())
        h.update(err.encode())
        if flags is not None:
            h.update(out_path.read_bytes())
        assert h.hexdigest() == self.DIGESTS[name]


class TestEmittedCertificatesHoldOutright:
    """Every certificate the searches emit on the acceptance configs holds
    each LMI outright, with no margin as slack: lambda_min(phi0) > 0,
    psi1 <= 0, lambda_max(psi2) <= 0 and lambda_max(phi_obs) < 0, the
    eigenvalues from numpy on the matrices rebuilt from the document.
    """

    # criterion 1's rows, criterion 2's, n = 1 and n = 3 at g1 > 0, and
    # criterion 3's configs, by command and problem
    SEARCHES = [("min-time", {"n": n, "k": 1.0, "g1": g1, "delta": delta}, {})
                for n, g1, delta in ((2, 0.0, 1e-4), (2, 0.01, 0.01), (2, 0.1, 0.01),
                                     (2, 0.3, 0.01), (1, 0.0, 0.001), (1, 0.2, 0.09),
                                     (3, 0.1, 0.01))] + [
        ("regional", {"n": 1, "k": 1.0, "g1": g1, "d": 1.0}, {"tstar_tol": 0.01})
        for g1 in (0.1, 0.2)]

    @staticmethod
    def _eigenvalues(entries):
        a00, a01, a02, a11, a12, a22 = entries
        return np.linalg.eigvalsh(np.array([[a00, a01, a02], [a01, a11, a12],
                                            [a02, a12, a22]]))

    def _assert_outright(self, label, params, vars):
        phi0 = self._eigenvalues(certificates.build_phi0(params, vars))[0]
        psi1 = certificates.build_psi1(params, vars)
        psi2 = self._eigenvalues(certificates.build_psi2(params, vars))[-1]
        assert phi0 > 0.0 and psi1 <= 0.0 and psi2 <= 0.0, (label, phi0, psi1, psi2)
        if params.t_star is not None:
            phi_obs = self._eigenvalues(certificates.build_phi_obs(params, vars))[-1]
            assert phi_obs < 0.0, (label, phi_obs)

    def _assert_document(self, label, doc):
        self._assert_outright(label, certificates.ProblemParams.from_dict(doc["params"]),
                              certificates.DecisionVars.from_dict(doc["vars"]))

    @pytest.mark.parametrize("command, problem, settings", SEARCHES,
                             ids=["%s-n%d-g%g" % (c, p["n"], p["g1"]) for c, p, _ in SEARCHES])
    def test_search_certificate(self, tmp_path, capsys, command, problem, settings):
        doc = {"problem": problem, "search": settings}
        code, out, err = run_cli([command, "--config",
                                  write_json(tmp_path, "c.json", doc)], capsys)
        assert code == 0, err
        self._assert_document(problem, json.loads(out)["certificate"])

    def test_certify_without_vars(self, tmp_path, capsys):
        problem = TestPinnedSearchBytes.CASES["certify-n3"][1]
        code, out, err = run_cli(["certify", "--config",
                                  write_json(tmp_path, "c.json", problem)], capsys)
        assert code == 0, err
        self._assert_document("certify-n3", json.loads(out))

    def test_sweep_rows(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code, _, err = run_cli(["sweep", "--config",
                                write_json(tmp_path, "c.json", TestPinnedSearchBytes.SWEEP),
                                "--out", str(out_path)], capsys)
        assert code == 0, err
        header, *lines = out_path.read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert len(rows) == 2 and all(row["feasible"] == "true" for row in rows)
        for row in rows:
            number = {key: float(cell) for key, cell in row.items()
                      if cell and key != "feasible"}
            params = certificates.ProblemParams(
                n=int(number["n"]), k=number["k"], g1=number["g1"],
                delta=number["delta"], t_star=number["t_star"])
            vars = certificates.DecisionVars(
                chi=number["chi"], lambda0=number["lambda0"],
                lambda1=number["lambda1"], lambda2=number["lambda2"])
            self._assert_outright(row, params, vars)
