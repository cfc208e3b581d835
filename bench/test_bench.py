"""Tests of the benchmark itself, on configs small enough to run in seconds.

    python3 -m pytest bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import speed
import workloads

SMALL_SEARCH = {"chi_grid": [1e-4, 0.49, 12], "refinement_rounds": 1,
                "tstar_tol": 0.05, "delta_grid": [0.05, 0.2, 3]}


@pytest.fixture(scope="module")
def cli():
    return run._import_cli()


def _pinned(tmp):
    doc = {"problem": {"n": 1, "k": 1.0, "g1": 0.0, "delta": 0.001},
           "search": SMALL_SEARCH}
    return workloads._search_jobs(str(tmp), "pinned", "min-time", doc, None)


def _regional(tmp):
    doc = {"problem": {"n": 1, "k": 1.0, "g1": 0.1, "d": 1.0},
           "search": SMALL_SEARCH}
    return workloads._search_jobs(str(tmp), "regional", "regional", doc, None)


def _recover(tmp):
    d1 = {"points_per_axis": 41, "horizon": 2.1, "k": 1.0,
          "initial": {"preset": "paper-example2"}}
    d2 = {"dim": 2, "points_per_axis": 17, "horizon": 2.5, "k": 1.0,
          "initial": {"fourier-sine": {"z": [[0.2]]}}}
    return (workloads._recover_case(str(tmp), "d1", d1, True)
            + workloads._recover_case(str(tmp), "d2", d2, True))


def _layers(cli, jobs):
    """Per-layer values of one traced pass, after checking the pass itself."""
    reference = run.Pass(cli, jobs)
    traced = run.Pass(cli, jobs, traced=True)
    assert traced.restored
    assert reference.errors == [] and traced.errors == []
    assert traced.digest == reference.digest
    metrics = run.layer_metrics(traced.tracer.spans, traced.wall_s,
                                reference.wall_s)
    return {name: metric["value"] for name, metric in metrics.items()}


def _counts(values):
    return {name: value for name, value in values.items()
            if name.endswith(".calls") or name in ("observer.sweeps",
                                                   "pde.csv.bytes")}


@pytest.mark.parametrize("make", [_pinned, _regional, _recover])
def test_traced_counts_repeat(cli, tmp_path, make):
    jobs = make(tmp_path)
    assert _counts(_layers(cli, jobs)) == _counts(_layers(cli, jobs))


def test_predicted_zeros(cli, tmp_path):
    pde_and_observer = [name for name in run.PER_LAYER
                        if name.startswith(("pde.", "observer."))
                        and (name.endswith(".calls") or name.endswith(".bytes")
                             or name == "observer.sweeps")]
    search_side = ["smallmat.eigenvalues.calls", "certificates.build.calls",
                   "certificates.check.calls",
                   "search.find_feasible_vars.calls",
                   "search.chi_min_stability.calls"]

    pinned = _layers(cli, _pinned(tmp_path))
    assert all(pinned[name] == 0 for name in pde_and_observer)
    assert all(pinned[name] > 0 for name in search_side)

    regional = _layers(cli, _regional(tmp_path))
    assert all(regional[name] == 0 for name in pde_and_observer)
    assert regional["search.find_feasible_vars.calls"] == 0
    assert regional["search.chi_min_stability.calls"] > 0

    recover = _layers(cli, _recover(tmp_path))
    assert all(recover[name] == 0 for name in search_side)
    assert all(recover[name] > 0 for name in pde_and_observer)


def test_metric_names_match_benchmark_json(cli, tmp_path):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert list(_layers(cli, _recover(tmp_path))) == list(run.PER_LAYER)


def test_seed_zero_is_the_acceptance_config(tmp_path):
    jobs = workloads.build("search-pinned", 0, str(tmp_path))
    with open(jobs[6].config) as fh:
        assert json.load(fh) == {"problem": {"n": 2, "k": 1.0, "g1": 0.3,
                                             "delta": 0.01}}
    jobs = workloads.build("search-pinned", 7, str(tmp_path))
    with open(jobs[6].config) as fh:
        problem = json.load(fh)["problem"]
    assert problem["g1"] != 0.3
    assert abs(problem["g1"] / 0.3 - 1.0) <= workloads.REL_G1
    assert abs(problem["delta"] / 0.01 - 1.0) <= workloads.REL_DELTA


def test_corrected_time_leaves_out_the_probe_and_scales_by_speed():
    probe = speed.SpeedProbe()
    ref = speed.REF_S
    probe.starts = [1.0, 2.0]
    probe.durations = [ref, 2.0 * ref]  # reference speed, then half of it
    assert probe.corrected(0.5, 3.0) == pytest.approx(
        0.5 + (1.0 - ref) + (1.0 - 2.0 * ref) / 2.0)
    assert probe.corrected(2.5, 2.6) == pytest.approx(0.05)


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "recover", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
