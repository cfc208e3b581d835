"""Initial-state recovery succeeds or fails with the observation window.

The iterative observer integrates forward with output injection, then
backward, reusing each pass's terminal state.  With the quadratic source
f = 0.1 z^2 the iteration contracts once the window exceeds the minimal
observability time; on a shorter window the alternation stalls.  Both runs
use the same measured velocity trace at x = 1 and a zero first guess.
"""

import numpy as np

from wavecert import (Nonlinearity, RecoveryConfig, WaveField, hnorm,
                      make_grid, recover, run)

source = Nonlinearity(lambda z, x, t: 0.1 * z * z, fz_bound=0.2,
                      local_radius=1.0)

for horizon in (2.1, 1.8):
    grid = make_grid(1, 201, horizon, k=1.0)
    x = grid.axis()
    z0 = 0.2733 * x * (1 - x / 2)
    truth = WaveField(z0, z0.copy())
    trace = run(truth, horizon, grid, source).trace

    config = RecoveryConfig(horizon=horizon, m_max=10, grid=grid,
                            nonlinearity=source)
    result = recover(trace, config, truth=truth)

    print("T = %g: converged = %s after %d iterations"
          % (horizon, result.converged, len(result.records)))
    for record in result.records:
        print("  m = %2d   successive change = %.3e   error energy = %.3e"
              % (record.m, record.succ_change, record.E_b_t0))
    err = hnorm(WaveField(result.recovered.z - truth.z,
                          result.recovered.zt - truth.zt), grid)
    print("  final state error / truth norm = %.3e\n"
          % (err / hnorm(truth, grid)))
