"""Regional observability: how large an initial-data ball is certified.

When the source is only locally Lipschitz (|f_z| <= g1 on |z| <= d), the
recovery guarantee holds on a ball of radius d0 < d/2 in the energy norm.
The radius trades off the decay achieved over the window against the
nonlinear growth the window allows, so there is a horizon t_max past which
waiting longer stops helping.
"""

from wavecert import (DecisionVars, ProblemParams, compute_regional_radius,
                      maximize_regional_radius)

# evaluate the closed-form radius at a fixed certificate
p = ProblemParams(n=1, k=1.0, g1=0.1, delta=0.1, t_star=3.78, d=1.0)
radius = compute_regional_radius(p, DecisionVars(chi=0.1803))
print("fixed point: d0 = %.4f of d = 1, t_max = %.2f (binding: %s)"
      % (radius.d0, radius.t_max, radius.binding))

# let the search pick (delta, t_star, chi) to enlarge the ball
for g1 in (0.1, 0.2):
    params = ProblemParams(n=1, k=1.0, g1=g1, d=1.0)
    d0, cert = maximize_regional_radius(params, tstar_tol=0.01)
    print("search g1 = %g: d0 = %.4f at delta = %.4f, t_star = %.3f, "
          "chi = %.4f" % (g1, d0, cert.params.delta, cert.params.t_star,
                          cert.vars.chi))
