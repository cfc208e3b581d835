"""Minimal certified observation time versus nonlinearity strength.

For the square domain with unit boundary gain, bisect the smallest t_star
for which the observability LMI stays feasible, at several Lipschitz bounds
g1 on the source slope.  Stronger nonlinearities force longer observation
windows; the growth is dramatic as g1 approaches the critical strength.
"""

from wavecert import ProblemParams, sweep

rows = [
    ProblemParams(n=2, k=1.0, g1=0.0, delta=1e-4),
    ProblemParams(n=2, k=1.0, g1=0.01, delta=0.01),
    ProblemParams(n=2, k=1.0, g1=0.1, delta=0.01),
    ProblemParams(n=2, k=1.0, g1=0.3, delta=0.01),
]

result = sweep(rows, tstar_tol=0.01, worker_count=4)

print("  g1      delta    t_star    chi")
for row in result.rows:
    p, v = row.certificate.params, row.certificate.vars
    print("  %-7g %-8g %-9.3f %.4f" % (p.g1, p.delta, p.t_star, v.chi))

print("\nCSV form (the sweep subcommand writes exactly this):")
print(result.to_csv())
