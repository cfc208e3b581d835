"""Check a decay certificate against the simulated error dynamics.

A stability certificate promises V(t) <= exp(-2 delta t) V(0) for the
boundary-damped error system, for every source with |f_z| <= g1.  This
script finds a certificate, then integrates the error equation with the
worst-case constant slope f = g1 z and reports how much of the certified
envelope the trajectory actually uses.
"""

import numpy as np

from wavecert import (Nonlinearity, ProblemParams, WaveField, find_feasible_vars,
                      make_certificate, make_grid, run, zero_trace)

g1, delta = 0.1, 0.09
params = ProblemParams(n=1, k=1.0, g1=g1, delta=delta)
vars = find_feasible_vars(params)
cert = make_certificate(params, vars)
print("certificate: chi = %.4f, alpha = %.4f, beta = %.4f"
      % (vars.chi, cert.alpha, cert.beta))

horizon = 10.0
grid = make_grid(1, 401, horizon, mode="observer-forward", k=1.0)
x = grid.axis()
e0 = 0.2733 * x * (1 - x / 2)

# zero measurements: the observer error evolves autonomously, damped at x=1
zero = zero_trace(grid, horizon)
steps = zero.steps
worst = Nonlinearity(lambda z, x, t: g1 * z, fz_bound=g1)
V = run(WaveField(e0, e0.copy()), horizon, grid, worst,
        trace_in=zero, chi=vars.chi).lyapunovs

t = np.arange(steps + 1) * grid.dt
envelope = V[0] * np.exp(-2 * delta * t)
print("worst V(t) / envelope over [0, %g]: %.4f (certified <= 1)"
      % (horizon, np.max(V / envelope)))
for i in range(0, steps + 1, steps // 5):
    print("  t = %5.2f   V = %.3e   envelope = %.3e" % (t[i], V[i],
                                                        envelope[i]))
