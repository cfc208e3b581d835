"""wavecert benchmark: runs one workload's CLI jobs and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The jobs (see workloads.py) run in-process through `wavecert.cli.main`,
one at a time, in a closed loop.  wavecert is imported from the `src`
directory next to this one, never from an installed copy.

--trace 0 repeats the whole job list while the next pass still fits in
--seconds (always at least once) and reports the end-to-end metrics in
END_TO_END: medians over the passes, and the median set-up time of
SETUP_LAUNCHES fresh interpreters.  --trace 1 makes one untraced and one
traced pass and reports the per-layer metrics in PER_LAYER.  Every time
reported is in corrected seconds (see speed.py): wall time rescaled to a
fixed machine speed, because the host's own speed swings by up to 2x.

Every job's exit code and result are checked, every emitted certificate
goes back through `certify --vars`, and each pass's stdout and output
files are hashed: the digest must agree between passes and between the
traced and untraced pass.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Span, Tracer  # noqa: E402

SETUP_LAUNCHES = 7

END_TO_END = {"wall_s": "s", "solve_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "smallmat.eigenvalues.calls": "count",
    "smallmat.eigenvalues.self_s": "s",
    "smallmat.eigenvalues.us_per_call": "us",
    "certificates.build.calls": "count",
    "certificates.build.self_s": "s",
    "certificates.check.calls": "count",
    "certificates.check.self_s": "s",
    "search.find_feasible_vars.calls": "count",
    "search.find_feasible_vars.total_s": "s",
    "search.find_feasible_vars.self_s": "s",
    "search.find_feasible_vars.useful_ratio": "ratio",
    "search.chi_min_stability.calls": "count",
    "search.chi_min_stability.total_s": "s",
    "search.chi_min_stability.self_s": "s",
    "search.chi_min_stability.infeasible": "count",
    "search.self_s": "s",
    "pde.step.d1.calls": "count",
    "pde.step.d1.us_per_call": "us",
    "pde.step.d2.calls": "count",
    "pde.step.d2.us_per_call": "us",
    "pde.step.self_s": "s",
    "pde.energy.calls": "count",
    "pde.energy.self_s": "s",
    "pde.run.self_s": "s",
    "pde.csv.self_s": "s",
    "pde.csv.bytes": "B",
    "observer.recover.calls": "count",
    "observer.recover.self_s": "s",
    "observer.sweeps": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# A fresh interpreter that imports the CLI and parses the workload's
# configs the way the subcommands do: what every `wavecert` launch pays
# before its real work.  It prints that time in corrected seconds.
_SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from speed import SpeedProbe
with SpeedProbe() as probe:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[2])
    from wavecert import cli
    for mode, path in zip(sys.argv[3::2], sys.argv[4::2]):
        doc = cli.load_config(path, mode)
        if "sim" in doc:
            sim = cli.parse_sim(doc)
            grid = cli.build_grid(sim)
            cli.build_nonlinearity(sim.get("nonlinearity"))
            cli.build_initial(sim["initial"], grid)
        else:
            cli.parse_problem(doc)
            cli.parse_search(doc)
    end = time.perf_counter()
print(probe.corrected(start, end))
"""


def _import_cli():
    if not os.path.isfile(os.path.join(SRC, "wavecert", "cli.py")):
        raise SystemExit("bench: no wavecert sources under %s" % SRC)
    sys.path.insert(0, SRC)
    from wavecert import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("bench: imported wavecert from %s, not from %s"
                         % (cli.__file__, SRC))
    return cli


def measure_setup(jobs):
    """Median set-up time of SETUP_LAUNCHES fresh interpreters.

    Returns (corrected seconds, uncorrected seconds of the whole launch).
    """
    argv = [sys.executable, "-c", _SETUP_PROBE, BENCH_DIR, SRC]
    for config, command in dict((j.config, j.command) for j in jobs).items():
        argv += [command, config]
    corrected, launches = [], []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        done = subprocess.run(argv, check=True, cwd=ROOT,
                              capture_output=True, text=True)
        launches.append(time.perf_counter() - start)
        corrected.append(float(done.stdout))
    return statistics.median(corrected), statistics.median(launches)


class Pass:
    """One run of the job list: timings, results and their check.

    With traced set, the run goes through a Tracer (self.tracer), and
    self.restored says whether it put every original function back.
    """

    def __init__(self, cli, jobs, traced=False):
        runs = []
        with SpeedProbe() as probe:
            self.tracer = Tracer(probe.corrected) if traced else None
            with self.tracer or contextlib.nullcontext():
                start = time.perf_counter()
                for job in jobs:
                    out = io.StringIO()
                    t0 = time.perf_counter()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(list(job.argv))
                    runs.append((job, code, out.getvalue(), t0,
                                 time.perf_counter()))
                end = time.perf_counter()
        self.restored = self.tracer is None or self.tracer.restored()
        self.raw_wall_s = end - start
        self.wall_s = probe.corrected(start, end)
        # (job, exit code, stdout, corrected seconds)
        self.results = [(job, code, stdout, probe.corrected(t0, t1))
                        for job, code, stdout, t0, t1 in runs]
        self.errors = []
        digest = hashlib.sha256()
        for job, code, stdout, _ in self.results:
            error = self._check(job, code, stdout)
            if error:
                self.errors.append("%s: %s" % (job.name, error))
            digest.update(("%s exit %d\n%s" % (job.name, code,
                                               stdout)).encode())
            for path in job.outputs:
                try:
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
                except FileNotFoundError:
                    if not error:
                        self.errors.append("%s: no output %s" % (job.name,
                                                                 path))
        self.digest = digest.hexdigest()

    @staticmethod
    def _check(job, code, stdout):
        if code != job.expect_code:
            return "exit %d, expected %d" % (code, job.expect_code)
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return "stdout is not JSON (%s)" % exc
        return job.check(doc) if job.check else None

    def seconds(self, command=None, solve=None):
        return sum(t for job, _, _, t in self.results
                   if (command is None or job.command == command)
                   and (solve is None or job.solve == solve))


def layer_metrics(spans, traced_wall, untraced_wall):
    def get(name):
        return spans.get(name) or Span()

    def per_call_us(span):
        return span.total_s / span.calls * 1e6 if span.calls else 0.0

    eig = get("smallmat.eigenvalues")
    ffv = get("search.find_feasible_vars")
    cms = get("search.chi_min_stability")
    d1, d2 = get("pde.step.d1"), get("pde.step.d2")
    energy, csv = get("pde.energy"), get("pde.csv")
    rec = get("observer.recover")
    values = {
        "smallmat.eigenvalues.calls": eig.calls,
        "smallmat.eigenvalues.self_s": eig.self_s,
        "smallmat.eigenvalues.us_per_call": per_call_us(eig),
        "certificates.build.calls": get("certificates.build").calls,
        "certificates.build.self_s": get("certificates.build").self_s,
        "certificates.check.calls": get("certificates.check").calls,
        "certificates.check.self_s": get("certificates.check").self_s,
        "search.find_feasible_vars.calls": ffv.calls,
        "search.find_feasible_vars.total_s": ffv.total_s,
        "search.find_feasible_vars.self_s": ffv.self_s,
        "search.find_feasible_vars.useful_ratio":
            (ffv.calls - ffv.raised) / ffv.calls if ffv.calls else 0.0,
        "search.chi_min_stability.calls": cms.calls,
        "search.chi_min_stability.total_s": cms.total_s,
        "search.chi_min_stability.self_s": cms.self_s,
        "search.chi_min_stability.infeasible": cms.raised,
        "search.self_s": sum(span.self_s for name, span in spans.items()
                             if name.startswith("search.")),
        "pde.step.d1.calls": d1.calls,
        "pde.step.d1.us_per_call": per_call_us(d1),
        "pde.step.d2.calls": d2.calls,
        "pde.step.d2.us_per_call": per_call_us(d2),
        "pde.step.self_s": d1.self_s + d2.self_s,
        "pde.energy.calls": energy.calls,
        "pde.energy.self_s": energy.self_s,
        "pde.run.self_s": get("pde.run").self_s,
        "pde.csv.self_s": csv.self_s,
        "pde.csv.bytes": csv.units,
        "observer.recover.calls": rec.calls,
        "observer.recover.self_s": rec.self_s,
        "observer.sweeps": rec.units,
        "cli.self_s": get("cli").self_s,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def run_passes(cli, jobs, seconds):
    """Passes of the job list while the next one is predicted to fit."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(Pass(cli, jobs))
        longest = max(p.raw_wall_s for p in passes)
        if time.perf_counter() - start + longest > seconds:
            return passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    cli = _import_cli()
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            reference = Pass(cli, jobs)
            traced = Pass(cli, jobs, traced=True)
            passes, timed = [reference, traced], [reference]
            metrics = layer_metrics(traced.tracer.spans, traced.wall_s,
                                    reference.wall_s)
            extra_errors = [] if traced.restored else [
                "tracer left a wrapped function in place"]
        else:
            setup_s, raw_setup_s = measure_setup(jobs)
            passes = timed = run_passes(cli, jobs, args.seconds)
            rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            values = {"wall_s": statistics.median(p.wall_s for p in passes),
                      "solve_s": statistics.median(p.seconds(solve=True)
                                                   for p in passes),
                      "setup_s": setup_s, "peak_rss_mb": rss_mb}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
            extra_errors = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = sorted({p.digest for p in passes})
    if len(digests) > 1:
        extra_errors.append("output digests differ between passes: %s"
                            % ", ".join(digests))
    attempted = sum(len(p.results) for p in passes)
    failed = sum(len(p.errors) for p in passes)
    for p in passes:
        for error in p.errors:
            print("FAIL %s" % error)
    for error in extra_errors:
        print("FAIL %s" % error)

    print("workload %s seed %d: %d pass(es), output sha256 %s"
          % (args.workload, args.seed, len(passes), digests[0]))
    print("uncorrected wall time %.4f s (median over untraced passes)"
          % statistics.median(p.raw_wall_s for p in timed))
    if not args.trace:
        print("uncorrected launch time %.4f s (median over %d launches)"
              % (raw_setup_s, SETUP_LAUNCHES))
    for command in sorted({job.command for job in jobs}):
        print("%s_s %.4f s (median over untraced passes)"
              % (command.replace("-", "_"),
                 statistics.median(p.seconds(command) for p in timed)))
    print("failed_frac %.4f (%d of %d jobs)"
          % (failed / attempted, failed, attempted))
    for name, metric in metrics.items():
        print("%s %r %s" % (name, metric["value"], metric["unit"]))

    print(json.dumps({"correct": failed == 0 and not extra_errors,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
