"""Forward sensitivity equations: differentiate the ODE, then solve.

Differentiating du/dt = f(u, theta, t) with respect to theta gives a
linear matrix ODE for the sensitivity s = du/dtheta,

    ds/dt = (df/du) s + df/dtheta,    s(t0) = du0/dtheta,

integrated jointly with the state so both see the same error control.
"""

import math

import numpy as np

from sensikit import SolverConfig, forward_sensitivity, make_harmonic
from sensikit.sensitivity import jacobian_assembly

ent = make_harmonic(theta=0.2)
cfg = SolverConfig(method="dopri5", abstol=1e-12, reltol=1e-12)

# the Jacobians that drive the sensitivity equation, assembled analytically
# here (multidual seeding fills in when a problem supplies none)
J_u, J_theta, _ = jacobian_assembly(ent.problem, np.array([1.0, 0.0]), ent.problem.theta, 0.0)
print("df/du at u=(1,0):")
print(J_u)
print("df/dtheta at u=(1,0):", J_theta.ravel())

res = forward_sensitivity(ent.problem, ent.loss, cfg)
s_final = res.sensitivity_trajectory[-1]
print("\nsensitivity at t=10:")
print(f"  s1 = du1/dtheta = {s_final[0, 0]:.9f}  (analytic {ent.analytic_gradient()[0]:.9f})")
print(f"  s2 = du2/dtheta = {s_final[1, 0]:.9f}  (analytic {-10 * math.sin(2.0):.9f})")
print(f"\ngradient of u1(10): {res.gradient[0]:.9f}")
print(f"augmented-system work: {res.stats.rhs_evaluations} rhs evaluations, "
      f"{res.stats.accepted_steps} steps")

# with an initial condition that depends on the parameter, s(t0) seeds the
# integration instead of starting at zero
import sensikit as sk

decay = sk.OdeProblem(
    rhs=lambda u, p, t: -u,
    u0=[1.0],
    tspan=(0.0, 1.0),
    theta=[1.0],
    u0_jacobian=[[1.0]],
)
loss = sk.LinearStateLoss([1.0], [[1.0]])
res = forward_sensitivity(decay, loss, cfg)
print(f"\ntheta as initial condition of du/dt=-u: dL/dtheta = {res.gradient[0]:.9f}"
      f"  (exp(-1) = {math.exp(-1.0):.9f})")
