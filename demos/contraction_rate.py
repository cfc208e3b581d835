"""Observed contraction of the backward error against the certified rate.

With a certified pair (t_star, delta) and a window T > t_star, each
forward/backward round shrinks the backward-error Lyapunov value by at
least q = exp(-4 delta (T - t_star)).  Running the iteration on a known
initial state lets us measure the actual per-round ratios and compare.
"""

from wavecert import (ProblemParams, RecoveryConfig, WaveField,
                      contraction_report, make_grid,
                      minimal_observability_time, recover, run)

params = ProblemParams(n=1, k=0.1, g1=0.0, delta=0.08)
t_star, delta, cert = minimal_observability_time(params)
print("minimal certified time t_star = %.3f at delta = %g" % (t_star, delta))

horizon = 4.0
grid = make_grid(1, 201, horizon, k=0.1)
x = grid.axis()
z0 = 0.2733 * x * (1 - x / 2)
truth = WaveField(z0, z0.copy())
trace = run(truth, horizon, grid).trace

config = RecoveryConfig(horizon=horizon, m_max=6, grid=grid, certificate=cert,
                        convergence_threshold=1e-12)
result = recover(trace, config, truth=truth)
report = contraction_report(result)

print("window T = %g gives q = %.4f (tested bound q x 1.1 = %.4f)"
      % (horizon, report.q, report.q * 1.1))
for row in report.rows:
    print("  m = %d   V_b ratio = %.4f   %s"
          % (row["m"], row["ratio"], "ok" if row["ok"] else "VIOLATED"))
print("uniform-boundedness peak %.3e <= %.3e: %s"
      % (report.uniform_peak, report.uniform_bound, report.uniform_ok))
