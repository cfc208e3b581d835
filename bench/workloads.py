"""The CLI jobs each benchmark workload runs, and the checks on their output.

Seed 0 gives the acceptance configs of tests/test_acceptance.py exactly
and checks their stated tolerances.  Any other seed scales g1, delta and
the initial-data coefficients by factors drawn from the ranges below.  The
ranges are narrow on purpose: every job keeps its seed-0 exit code and
nearly its seed-0 amount of work, so a claim can be re-checked on an
unseen seed without the spread of the timings growing.
"""

import json
import math
import os
import random
from dataclasses import dataclass

REL_G1 = 0.02  # g1 and the nonlinearity coefficient, relative (zero stays zero)
REL_DELTA = 0.02  # pinned delta, relative
REL_INITIAL = 0.05  # each initial-data coefficient, relative


@dataclass(frozen=True)
class Job:
    """One `wavecert` command line and what its result must satisfy.

    solve marks the jobs that compute the workload's answer (min-time,
    regional, recover), as opposed to the certify round trips that check
    an answer and the simulate runs that make recover's input.
    """

    name: str
    argv: tuple
    expect_code: int
    outputs: tuple = ()
    check: object = None  # callable(stdout document) -> error text or None
    solve: bool = True

    @property
    def command(self):
        return self.argv[0]

    @property
    def config(self):
        return self.argv[self.argv.index("--config") + 1]


class _Perturb:
    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)

    def __call__(self, value, rel):
        if self.seed == 0:
            return value
        return value * (1.0 + rel * self.rng.uniform(-1.0, 1.0))


def _within(key, lo, hi):
    def check(doc):
        value = doc.get(key)
        if not (isinstance(value, (int, float)) and lo <= value <= hi):
            return "%s = %r outside [%g, %g]" % (key, value, lo, hi)
        return None
    return check


def _converged(expected):
    def check(doc):
        if doc.get("converged") is not expected:
            return "converged = %r, expected %r" % (doc.get("converged"),
                                                    expected)
        return None
    return check


def _certified(doc):
    if doc.get("feasible") is not True:
        return "certify --vars rejected the emitted certificate"
    return None


def _infeasible(doc):
    if doc.get("feasible") is not False:
        return "expected an infeasible result"
    return None


def _write_config(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _search_jobs(workdir, tag, command, doc, check):
    """The search job plus a certify --vars round trip on its certificate."""
    cfg = _write_config(workdir, tag + ".json", doc)
    cert = os.path.join(workdir, tag + ".cert.json")
    return [Job(tag, (command, "--config", cfg, "--out", cert), 0,
                (cert,), check),
            Job(tag + ".certify", ("certify", "--config", cfg, "--vars", cert),
                0, (), _certified, solve=False)]


def _search_pinned(workdir, seed):
    jitter = _Perturb(seed)
    # (n, g1, delta, accepted t_star range at seed 0); criterion 1 then 2
    rows = [(2, 0.0, 1e-4, (3.28 * 0.95, 3.28 * 1.05)),
            (2, 0.01, 0.01, (4.3 * 0.95, 4.3 * 1.05)),
            (2, 0.1, 0.01, (12.2 * 0.95, 12.2 * 1.05)),
            (2, 0.3, 0.01, (38.0 * 0.95, 38.0 * 1.05)),
            (1, 0.0, 0.001, (2.00, 2.06))]
    jobs = []
    for n, g1, delta, (lo, hi) in rows:
        doc = {"problem": {"n": n, "k": 1.0, "g1": jitter(g1, REL_G1),
                           "delta": jitter(delta, REL_DELTA)}}
        if seed != 0:
            lo, hi = 0.0, math.inf
        jobs += _search_jobs(workdir, "min-time.n%d.g%g" % (n, g1), "min-time",
                             doc, _within("t_star", lo, hi))
    # criterion 8's infeasible row: a valid negative answer, exit 2
    doc = {"problem": {"n": 1, "k": 1.0, "g1": jitter(5.0, REL_G1),
                       "delta": jitter(0.4, REL_DELTA)}}
    cfg = _write_config(workdir, "min-time.infeasible.json", doc)
    jobs.append(Job("min-time.infeasible", ("min-time", "--config", cfg), 2,
                    (), _infeasible))
    return jobs


def _search_delta_grid(workdir, seed):
    jitter = _Perturb(seed)
    jobs = []
    for g1, floor in ((0.1, 0.23), (0.2, 0.18)):
        doc = {"problem": {"n": 1, "k": 1.0, "g1": jitter(g1, REL_G1),
                           "d": 1.0},
               "search": {"tstar_tol": 0.01}}
        jobs += _search_jobs(workdir, "regional.g%g" % g1, "regional", doc,
                             _within("d0", floor if seed == 0 else 0.0,
                                     math.inf))
    return jobs


def _recover_case(workdir, tag, sim, converges):
    cfg = _write_config(workdir, tag + ".json", {"sim": sim})
    trace = os.path.join(workdir, tag + ".trace.csv")
    report = os.path.join(workdir, tag + ".run.json")
    return [Job(tag + ".simulate", ("simulate", "--config", cfg,
                                    "--out", trace), 0, (trace,),
                solve=False),
            Job(tag + ".recover", ("recover", "--config", cfg, "--trace",
                                   trace, "--iterations", "10",
                                   "--out", report),
                0 if converges else 2, (report,), _converged(converges))]


def _recover(workdir, seed):
    jitter = _Perturb(seed)
    jobs = []
    # criterion 4: f = 0.1 z^2 on N=201; T=2.1 converges, T=1.8 does not
    for horizon, converges in ((2.1, True), (1.8, False)):
        coeff = jitter(0.1, REL_G1)
        if seed == 0:
            initial = {"preset": "paper-example2"}
        else:
            # the preset is 0.2733 x (1 - x/2) for both z and z_t
            base = [0.0, 0.2733, -0.2733 / 2.0]
            initial = {"polynomial": {
                "z": [jitter(c, REL_INITIAL) for c in base],
                "zt": [jitter(c, REL_INITIAL) for c in base]}}
        sim = {"points_per_axis": 201, "horizon": horizon, "k": 1.0,
               "nonlinearity": {"form": "quadratic", "coeff": coeff,
                                "fz_bound": 2.0 * coeff, "local_radius": 1.0},
               "initial": initial}
        jobs += _recover_case(workdir, "d1.T%g" % horizon, sim, converges)
    z = [[0.2, 0.05], [0.05, 0.02]]
    zt = [[0.1, 0.0], [0.0, 0.05]]
    sim = {"dim": 2, "points_per_axis": 81, "horizon": 2.5, "k": 1.0,
           "nonlinearity": {"form": "sine", "coeff": jitter(0.1, REL_G1)},
           "initial": {"fourier-sine": {
               "z": [[jitter(c, REL_INITIAL) for c in row] for row in z],
               "zt": [[jitter(c, REL_INITIAL) for c in row] for row in zt]}}}
    jobs += _recover_case(workdir, "d2.T2.5", sim, True)
    return jobs


WORKLOADS = {"search-pinned": _search_pinned,
             "search-delta-grid": _search_delta_grid,
             "recover": _recover}


def build(workload, seed, workdir):
    """Write the workload's configs for this seed into workdir; return its jobs."""
    return WORKLOADS[workload](workdir, seed)
