"""Batch command line front end.

Subcommands: certify, min-time, regional, simulate, recover, sweep.  Each
takes a JSON config file; outputs are JSON on stdout plus optional CSV/JSON
files.  All floats are printed with 17 significant digits so emitted
documents round-trip losslessly, and every code path is deterministic:
identical inputs give byte-identical outputs (--jobs only changes wall time).

Exit codes: 0 success/feasible, 2 infeasible or not converged (a valid
negative result), 1 error (bad config, missing file, numeric blow-up).
"""

import argparse
import functools
import json
import math
import sys

# search, pde and observer run on first use (see wavecert/__init__), and
# numpy is imported only inside the simulation helpers below, which run
# after pde: a launch that neither searches nor simulates loads no numpy
from . import observer, pde, search
from .certificates import (DecisionVars, Infeasible, ProblemParams,
                           certificate_at, certificate_from_dict,
                           certificate_to_dict, check_point, checked_float,
                           compute_regional_radius, json_dumps,
                           reject_unknown_keys)

CONFIG_KEYS = {"problem", "problems", "search", "sim", "certificate"}
SIM_KEYS = {"dim", "points_per_axis", "horizon", "mode", "k", "chi",
            "nonlinearity", "initial", "convergence_threshold"}
NONLINEARITY_FORMS = ("linear", "quadratic", "sine")
IC_KINDS = ("preset", "polynomial", "fourier-sine")
PRESETS = ("paper-example2",)
# the search grids are fixed (search.CHI_COUNT, search.DELTA_GRID, ...); the
# benchmark's own tests (bench/test_bench.py) still set these keys, so they
# are accepted and ignored until those tests stop setting them
RETIRED_SEARCH_KEYS = {"chi_grid", "delta_grid", "refinement_rounds"}
# time levels per chunk of the trajectory CSV that simulate writes
CSV_CHUNK_ROWS = 64


class CliError(Exception):
    """Bad input or environment; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool reserves
    # for valid negative results; route usage problems to exit code 1 instead.
    def error(self, message):
        raise CliError("%s: %s" % (self.prog, message))


# ------------------------------------------------------------- config loading


def _read_text(path):
    with open(path) as fh:
        return fh.read()


def _load_json(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError("%s:%d:%d: %s" % (path, exc.lineno, exc.colno, exc.msg))


def load_config(path, mode=None):
    # mode is ignored: the subcommand alone picks what a config is read for,
    # and the benchmark's set-up probe (bench/run.py) still passes it
    doc = _load_json(path)
    reject_unknown_keys("config", doc, CONFIG_KEYS)
    if "problem" in doc and "problems" in doc:
        raise CliError("give either problem or problems, not both")
    return doc


def parse_problem(doc):
    problem = doc.get("problem")
    if problem is None:
        raise CliError("this mode requires a problem section")
    return ProblemParams.from_dict(problem)


def parse_search(doc):
    # the searches' keyword arguments, {} (the defaults) or {"tstar_tol": x},
    # checked as the searches check them but without loading search
    section = doc.get("search")
    if section is None:
        return {}
    if isinstance(section, dict):
        section = {key: value for key, value in section.items()
                   if key not in RETIRED_SEARCH_KEYS}
    reject_unknown_keys("search", section, ("tstar_tol",))
    return {key: checked_float(key, value, 0.0, strict=True)
            for key, value in section.items()}


def parse_sim(doc, require_initial=False):
    sim = doc.get("sim")
    if sim is None:
        raise CliError("this mode requires a sim section")
    reject_unknown_keys("sim", sim, SIM_KEYS)
    for key in ("points_per_axis", "horizon"):
        if key not in sim:
            raise CliError("sim requires %s" % key)
    if require_initial and "initial" not in sim:
        raise CliError("sim requires an initial section here")
    # checked as pde.run and RecoveryConfig check them, whichever reads them
    if sim.get("chi") is not None:
        checked_float("chi", sim["chi"], 0.0)
    if "convergence_threshold" in sim:
        checked_float("convergence_threshold", sim["convergence_threshold"], 0.0, strict=True)
    return sim


def build_grid(sim):
    try:
        return pde.make_grid(sim.get("dim", 1), sim["points_per_axis"], sim["horizon"],
                             mode=sim.get("mode", "plant"), k=sim.get("k", 0.0))
    except ValueError as exc:
        raise CliError("sim: %s" % exc)


def build_nonlinearity(spec):
    """Nonlinearity from {"form", "coeff", "fz_bound", "local_radius"}.

    fz_bound defaults to |coeff|, a global slope bound, for linear and
    sine, and to 0.0 for quadratic, whose slope 2 coeff z has no global
    bound; a quadratic's bound on |z| <= local_radius (2 |coeff|
    local_radius) counts only when given as fz_bound.
    """
    if spec is None:
        return pde.ZERO_F
    reject_unknown_keys("nonlinearity", spec,
                        ("form", "coeff", "fz_bound", "local_radius"))
    form = spec.get("form")
    if form not in NONLINEARITY_FORMS:
        raise CliError("nonlinearity form must be one of: %s"
                       % ", ".join(NONLINEARITY_FORMS))
    try:
        coeff = checked_float("coeff", spec.get("coeff", 1.0))
        if form == "linear":
            f = lambda z, x, t: coeff * z
            default_bound = abs(coeff)
        elif form == "quadratic":
            f = lambda z, x, t: coeff * z * z
            default_bound = 0.0
        else:
            import numpy as np
            f = lambda z, x, t: coeff * np.sin(z)
            default_bound = abs(coeff)
        radius = spec.get("local_radius")
        return pde.Nonlinearity(f, fz_bound=spec.get("fz_bound", default_bound),
                                local_radius=math.inf if radius is None else radius)
    except ValueError as exc:
        raise CliError("nonlinearity: %s" % exc)


def _fourier_sum(coeffs, grid):
    # coefficient (j_1, ..., j_dim) (1-based) weights the Dirichlet-compliant
    # mode product sin((j_1 - 1/2) pi x_1) ... sin((j_dim - 1/2) pi x_dim)
    import numpy as np
    a = np.asarray(coeffs, dtype=float)
    if a.ndim != grid.dim:
        raise CliError("fourier-sine coefficients must be a %d-D array for dim %d"
                       % (grid.dim, grid.dim))
    x = grid.axis()
    out = np.zeros((x.size,) * grid.dim)
    for modes in np.ndindex(a.shape):
        term = a[modes]
        for i, j in enumerate(modes):
            # the factor of axis i, broadcast along dimension i
            term = term * np.sin((j + 0.5) * math.pi * x).reshape(
                (-1,) + (1,) * (grid.dim - 1 - i))
        out += term
    return out


def build_initial(spec, grid):
    import numpy as np
    reject_unknown_keys("initial", spec, IC_KINDS)
    given = [kind for kind in IC_KINDS if kind in spec]
    if len(given) != 1:
        raise CliError("initial requires exactly one of: %s"
                       % ", ".join(IC_KINDS))
    kind = given[0]
    try:
        if kind == "preset":
            name = spec["preset"]
            if name not in PRESETS:
                raise CliError("unknown preset %r (known: %s)"
                               % (name, ", ".join(PRESETS)))
            if grid.dim != 1:
                raise CliError("preset %s is one-dimensional" % name)
            x = grid.axis()
            z = 0.2733 * x * (1 - x / 2)
            return pde.WaveField(z, z.copy())
        sub = spec[kind]
        reject_unknown_keys(kind, sub, ("z", "zt"))
        if "z" not in sub:
            raise CliError("%s requires z coefficients" % kind)
        if kind == "polynomial":
            if grid.dim != 1:
                raise CliError("polynomial initial data is one-dimensional")
            x = grid.axis()
            values = []
            for key in ("z", "zt"):
                c = np.asarray(sub.get(key, 0.0), dtype=float)
                if c.size == 0:
                    raise CliError("polynomial %s needs at least one coefficient" % key)
                values.append(np.polynomial.polynomial.polyval(x, c))
            return pde.WaveField(*values)
        z = _fourier_sum(sub["z"], grid)
        zt = (_fourier_sum(sub["zt"], grid) if "zt" in sub
              else np.zeros_like(z))
        return pde.WaveField(z, zt)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError("initial: %s" % exc)


def _write(path, text, more=()):
    """Write text, then each string of the iterable more, to path."""
    with open(path, "w") as fh:
        fh.write(text)
        fh.writelines(more)


# ----------------------------------------------------------------- subcommands


def _load_vars(path):
    """(params or None, vars) from a vars file.

    Accepts a bare decision-variables object, a full certificate document,
    or min-time stdout (certificate under a "certificate" key); a document
    carrying params re-verifies with them.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise CliError("vars file must hold a JSON object")
    if "certificate" in doc:
        doc = doc["certificate"]
        if not isinstance(doc, dict):
            raise CliError("certificate entry must be a JSON object")
    if "vars" in doc:
        cert = certificate_from_dict(doc)
        return cert.params, cert.vars
    return None, DecisionVars.from_dict(doc)


def cmd_certify(args):
    doc = load_config(args.config)
    params = parse_problem(doc)
    # no search setting applies here, but a shared config is checked the same
    parse_search(doc)
    vars = None
    if args.vars is not None:
        cert_params, vars = _load_vars(args.vars)
        if cert_params is not None:
            same = (cert_params.n == params.n and cert_params.k == params.k
                    and cert_params.g1 == params.g1)
            if not same:
                raise CliError("vars file was certified for a different "
                               "problem (n, k, g1 disagree with the config)")
            # the document's params carry the searched delta and t_star
            params = cert_params
    if vars is None:
        vars = search.find_feasible_vars(params)
    vars, report = check_point(params, vars)
    if report["feasible"]:
        out = {"feasible": True,
               **certificate_to_dict(certificate_at(params, vars, report))}
    else:
        out = {"feasible": False, "params": params.to_dict(), "vars": vars.to_dict(),
               "failing": report["failing"], "margins": report["margins"]}
    print(json_dumps(out))
    return 0 if report["feasible"] else 2


def cmd_min_time(args):
    doc = load_config(args.config)
    # both parsed before search is touched, so a bad config loads no numpy
    params, settings = parse_problem(doc), parse_search(doc)
    t_star, delta, cert = search.minimal_observability_time(params, **settings)
    payload = {"feasible": True, "t_star": t_star, "delta": delta,
               "certificate": certificate_to_dict(cert)}
    if args.out is not None:
        _write(args.out, json_dumps(certificate_to_dict(cert)) + "\n")
    print(json_dumps(payload))
    return 0


def cmd_regional(args):
    doc = load_config(args.config)
    params, settings = parse_problem(doc), parse_search(doc)
    d0, cert = search.maximize_regional_radius(params, **settings)
    radius = compute_regional_radius(cert.params, cert.vars)
    payload = {"feasible": True, "d0": d0}
    if math.isfinite(radius.t_max):
        payload["t_max"] = radius.t_max
    payload["binding"] = radius.binding
    payload["certificate"] = certificate_to_dict(cert)
    if args.out is not None:
        _write(args.out, json_dumps(certificate_to_dict(cert)) + "\n")
    print(json_dumps(payload))
    return 0


def cmd_simulate(args):
    doc = load_config(args.config)
    sim = parse_sim(doc, require_initial=True)
    grid = build_grid(sim)
    nonlinearity = build_nonlinearity(sim.get("nonlinearity"))
    field = build_initial(sim["initial"], grid)
    horizon = float(sim["horizon"])
    chi = sim.get("chi")
    # no measurement source on the command line: observer modes run the
    # autonomous damped (or anti-damped) dynamics against zero measurements
    trace_in = None if grid.mode == "plant" else pde.zero_trace(grid, horizon)
    _, trace, energies, lyapunovs = pde.run(field, horizon, grid, nonlinearity,
                                            trace_in=trace_in, chi=chi)
    summary = json_dumps({"steps": trace.steps, "dt": trace.dt,
                          "energy_initial": float(energies[0]),
                          "energy_final": float(energies[-1])})
    # the CSV goes out CSV_CHUNK_ROWS time levels at a time; the first
    # chunk, which carries the header and checks the whole series, is
    # made before the file is opened
    chunks = (pde.trajectory_csv(trace, energies, lyapunovs,
                                   slice(i, i + CSV_CHUNK_ROWS))
              for i in range(0, trace.steps + 1, CSV_CHUNK_ROWS))
    _write(args.out, next(chunks), chunks)
    print(summary)
    return 0


def cmd_recover(args):
    doc = load_config(args.config)
    sim = parse_sim(doc)
    if args.iterations < 1:
        raise CliError("--iterations must be >= 1")
    try:
        # the trace alone: E and V are views that would keep every parsed row
        trace = pde.read_trajectory_csv(_read_text(args.trace))[0]
    except ValueError as exc:
        raise CliError("%s: %s" % (args.trace, exc))
    # the observer grids replace the section's mode; initial is checked only
    grid = build_grid(sim)
    if "initial" in sim:
        build_initial(sim["initial"], grid)
    certificate = certificate_from_dict(doc["certificate"]) if "certificate" in doc else None
    config = observer.RecoveryConfig(
        horizon=sim["horizon"], m_max=args.iterations, grid=grid,
        nonlinearity=build_nonlinearity(sim.get("nonlinearity")),
        convergence_threshold=sim.get("convergence_threshold", 1e-3),
        certificate=certificate)
    run = observer.recover(trace, config)
    text = observer.run_to_json(run)
    _write(args.out, text + "\n")
    print(text)
    if run.converged:
        return 0
    why = "diverged" if run.diverged else "not converged"
    print("recover: %s after %d iterations" % (why, len(run.records)),
          file=sys.stderr)
    return 2


def cmd_sweep(args):
    doc = load_config(args.config)
    if args.jobs < 1:
        raise CliError("--jobs must be >= 1")
    if "problems" in doc:
        rows = doc["problems"]
        if not isinstance(rows, list) or not rows:
            raise CliError("problems must be a nonempty list")
        problems = [ProblemParams.from_dict(row) for row in rows]
    else:
        problems = [parse_problem(doc)]
    # parsed before search is touched, so a bad section loads no numpy
    settings = parse_search(doc)
    result = search.sweep(problems, **settings, worker_count=args.jobs)
    _write(args.out, result.to_csv())
    feasible = sum(1 for row in result.rows if row.feasible)
    print(json_dumps({"rows": len(result.rows), "feasible_rows": feasible}))
    return 0 if feasible else 2


# ----------------------------------------------------------------------- main


# one build per process serves every in-process job; patch after cache_clear()
@functools.cache
def build_parser():
    parser = _Parser(prog="wavecert",
                     description="LMI certification and observer-based "
                                 "recovery for boundary-observed wave "
                                 "equations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify",
                       help="check the LMIs at a given decision point")
    p.add_argument("--config", required=True,
                   help="JSON config with a problem section")
    p.add_argument("--vars",
                   help="JSON decision variables or certificate document; "
                        "omit to search for a feasible point")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("min-time",
                       help="minimal certified observation time")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="write the certificate JSON here")
    p.set_defaults(func=cmd_min_time)

    p = sub.add_parser("regional",
                       help="largest certified regional radius d0")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="write the certificate JSON here")
    p.set_defaults(func=cmd_regional)

    p = sub.add_parser("simulate",
                       help="integrate one run and write the trajectory CSV")
    p.add_argument("--config", required=True,
                   help="JSON config with a sim section")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("recover",
                       help="iterative initial-state recovery from a trace")
    p.add_argument("--config", required=True)
    p.add_argument("--trace", required=True,
                   help="trajectory CSV holding the measured trace")
    p.add_argument("--iterations", type=int, required=True,
                   help="iteration budget m_max")
    p.add_argument("--out", required=True, help="recovery report JSON path")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("sweep", help="batch feasibility/min-time over rows")
    p.add_argument("--config", required=True,
                   help="JSON config with a problems list")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (results never depend on this)")
    p.add_argument("--out", required=True, help="result CSV path")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except Infeasible as exc:
        print(json_dumps({"feasible": False, "reason": str(exc)}))
        return 2
    except (CliError, ValueError, RuntimeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
