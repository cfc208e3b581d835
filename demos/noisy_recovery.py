"""Recovery under boundary measurement noise stays within the ISS bound.

If the measured velocity trace is corrupted by a perturbation w, the gap
between the noisy and clean recoveries is bounded by a constant times the
time integral of the boundary L2 norm of w.  The constant comes from the
certified gain (r, gamma) and the spare decay margin delta0.  The bound
holds only on a window the certificate covers: its t_star is
1.02 * 5.457 = 5.566, so the run observes T = 6.0.
"""

import math

import numpy as np

from wavecert import (BoundaryTrace, Nonlinearity, ProblemParams,
                      RecoveryConfig, WaveField, find_feasible_vars,
                      make_certificate, make_grid, minimal_observability_time,
                      perturbed_recover, run)

source = Nonlinearity(lambda z, x, t: 0.1 * z * z, fz_bound=0.2,
                      local_radius=1.0)

params = ProblemParams(n=1, k=1.0, g1=0.2, delta=0.09)
t_star, _, _ = minimal_observability_time(params)
certified = ProblemParams(n=1, k=1.0, g1=0.2, delta=0.09,
                          t_star=t_star * 1.02)
cert = make_certificate(certified, find_feasible_vars(certified))

horizon = 6.0
grid = make_grid(1, 201, horizon, k=1.0)
x = grid.axis()
z0 = 0.2733 * x * (1 - x / 2)
trace = run(WaveField(z0, z0.copy()), horizon, grid, source).trace

config = RecoveryConfig(horizon=horizon, m_max=10, grid=grid,
                        nonlinearity=source, certificate=cert)

steps = round(horizon / grid.dt)
t = np.arange(steps + 1) * grid.dt
for amplitude in (0.0, 1e-3, 2e-3):
    noise = BoundaryTrace(amplitude * np.sin(2 * math.pi * t / horizon),
                          grid.dt)
    noisy, report = perturbed_recover(trace, noise, config)
    print("amplitude %.0e: gap^2 = %.3e <= bound %.3e  (ok = %s)"
          % (amplitude, report.gap_sq, report.bound, report.ok))
print("constant C = %.2f from gamma and the decay margin delta0 = %.2e"
      % (report.c_constant, report.delta0))
