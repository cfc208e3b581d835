"""Outside-in tracing of wavecert: per-layer call counts and self times.

The package has no spans of its own, so the tracer replaces the public
functions listed in SPANS, in every loaded wavecert module that holds a
reference to them, by wrappers that count calls and time them.  Calls
between modules go through module globals (search calls
`certificates.build_psi2` through its own `build_psi2` name), so patching
every such name catches them all.  A span's self time is its duration
minus the time of the spans it encloses; spans are aggregated as they
close, because a search pass makes hundreds of thousands of them.
"""

import functools
import sys
import time
import types

_BUILD = "certificates.build"
_CHECK = "certificates.check"
_SEARCH = "search.other"

# module -> {public function: span name}; pde.step is split into
# pde.step.d1 and pde.step.d2 by grid.dim
SPANS = {
    "smallmat": {"eigenvalues": "smallmat.eigenvalues"},
    "certificates": {
        "build_phi0": _BUILD, "build_phi1": _BUILD, "build_psi1": _BUILD,
        "build_psi2": _BUILD, "build_phi_obs": _BUILD,
        "check_stability": _CHECK, "check_observability": _CHECK,
        "make_certificate": _CHECK, "compute_alpha_beta": _CHECK,
        "compute_regional_radius": _CHECK, "compute_iss_gain": _CHECK,
    },
    "search": {
        "find_feasible_vars": "search.find_feasible_vars",
        "chi_min_stability": "search.chi_min_stability",
        "minimal_observability_time": _SEARCH,
        "maximize_regional_radius": _SEARCH,
        "delta_margin": _SEARCH, "sweep": _SEARCH,
    },
    "pde": {
        "step": "pde.step", "run": "pde.run",
        "energy": "pde.energy", "lyapunov": "pde.energy",
        "hnorm": "pde.energy",
        "trajectory_csv": "pde.csv", "read_trajectory_csv": "pde.csv",
    },
    "observer": {"recover": "observer.recover"},
    "cli": {"main": "cli"},
}

_MARK = "__bench_traced__"


class Span:
    """Aggregate of every span with one name.

    raised counts calls that ended in an exception; units is a per-span
    quantity (CSV bytes, recovery sweeps) where one is recorded.
    """

    __slots__ = ("calls", "raised", "total_s", "self_s", "units")

    def __init__(self):
        self.calls = self.raised = self.units = 0
        self.total_s = self.self_s = 0.0


def _csv_bytes(args, result):
    text = result if isinstance(result, str) else args[0]
    return len(text.encode())


def _sweeps(args, result):
    return len(result.records)


_UNITS = {("pde", "trajectory_csv"): _csv_bytes,
          ("pde", "read_trajectory_csv"): _csv_bytes,
          ("observer", "recover"): _sweeps}


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "wavecert" or name.startswith("wavecert.")]


class Tracer:
    """Context manager: wraps the SPANS functions on entry, restores on exit.

    duration(start, end) turns two perf_counter readings into the seconds
    a span is charged (speed.SpeedProbe.corrected in the benchmark).
    """

    def __init__(self, duration):
        self.duration = duration
        self.spans = {}
        self._open = []  # enclosed-span time of each open span
        self._patched = []  # (module, attribute, original function)

    def span(self, name):
        return self.spans.setdefault(name, Span())

    def _wrap(self, fn, pick, units):
        open_spans = self._open
        clock = time.perf_counter
        duration = self.duration

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = pick(args, kwargs)
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.raised += 1
                raise
            finally:
                elapsed = duration(start, clock())
                rec.calls += 1
                rec.total_s += elapsed
                rec.self_s += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if units is not None:
                rec.units += units(args, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def _picker(self, module, name, span_name):
        if (module, name) == ("pde", "step"):
            by_dim = {1: self.span("pde.step.d1"), 2: self.span("pde.step.d2")}
            # step(field, grid, ...)
            return lambda args, kwargs: by_dim[
                (args[1] if len(args) > 1 else kwargs["grid"]).dim]
        rec = self.span(span_name)
        return lambda args, kwargs: rec

    def __enter__(self):
        wrappers = {}
        for module, table in SPANS.items():
            mod = sys.modules["wavecert." + module]
            for name, span_name in table.items():
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(
                    fn, self._picker(module, name, span_name),
                    _UNITS.get((module, name))))
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        return False

    def restored(self):
        """True when every patched name holds its original function again."""
        if not all(getattr(mod, attr) is fn for mod, attr, fn in self._patched):
            return False
        return not any(isinstance(value, types.FunctionType)
                       and value.__dict__.get(_MARK)
                       for mod in _package_modules()
                       for value in vars(mod).values())
