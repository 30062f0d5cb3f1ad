#!/usr/bin/env python3
"""Residual tangle of the damped three-qubit families.

The residual tangle pi averages, over the three modes, the squared
one-vs-rest negativity minus the squared pairwise negativities.  For the
pure generalized GHZ family it equals sin^2(2 t1); damping degrades it
monotonically in r but never to zero for r < pi/4, and for fixed r it
grows monotonically with the control angle.  That is what lets tripartite
nonlocality persist: more entanglement is needed at higher acceleration,
and it is available.
"""

import math

import numpy as np

from accelbell import apply_channel, density, gghz, maximal_slice, pi_tangle

print(__doc__)

print("pure generalized GHZ family: tangle vs sin^2(2 t1)")
t1s = np.linspace(0.0, math.pi / 4.0, 6)
for t1, rho in zip(t1s, density(gghz(t1s))):
    got = pi_tangle(rho).pi
    print(f"  t1 = {t1:6.4f}   pi = {got:10.8f}   sin^2(2 t1) = {math.sin(2 * t1) ** 2:10.8f}")

print()
print("damped GHZ (qubit 3): tangle vs r, with components")
rs = np.linspace(0.0, math.pi / 4.0, 6)
for r, rho in zip(rs, apply_channel(density(gghz(math.pi / 4.0)), 3, rs)):
    t = pi_tangle(rho)
    print(f"  r = {r:6.4f}   pi = {t.pi:10.8f}   components = ({t.pi_1:+.6f}, {t.pi_2:+.6f}, {t.pi_3:+.6f})")

print()
print("monotone in the control angle at fixed r (damped GGHZ and MS)")
thetas = np.linspace(math.pi / 24.0, math.pi / 4.0, 6)
for r in (0.0, math.pi / 8.0, math.pi / 4.0 - 0.01):
    row = [pi_tangle(rho).pi for rho in apply_channel(density(gghz(thetas)), 3, r)]
    print(f"  gghz r = {r:6.4f}:  " + "  ".join(f"{v:8.6f}" for v in row))
for r in (0.0, math.pi / 8.0, math.pi / 4.0 - 0.01):
    row = [pi_tangle(rho).pi for rho in apply_channel(density(maximal_slice(np.linspace(0.2, math.pi / 2, 6))), 2, r)]
    print(f"  ms   r = {r:6.4f}:  " + "  ".join(f"{v:8.6f}" for v in row))
