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
for t1, got in zip(t1s, pi_tangle(density(gghz(t1s))).pi):
    print(f"  t1 = {t1:6.4f}   pi = {got:10.8f}   sin^2(2 t1) = {math.sin(2 * t1) ** 2:10.8f}")

print()
print("damped GHZ (qubit 3): tangle vs r, with components")
rs = np.linspace(0.0, math.pi / 4.0, 6)
t = pi_tangle(apply_channel(density(gghz(math.pi / 4.0)), 3, rs))
for r, pi, pi_1, pi_2, pi_3 in zip(rs, t.pi, t.pi_1, t.pi_2, t.pi_3):
    print(f"  r = {r:6.4f}   pi = {pi:10.8f}   components = ({pi_1:+.6f}, {pi_2:+.6f}, {pi_3:+.6f})")

print()
print("monotone in the control angle at fixed r (damped GGHZ and MS)")
rs = np.array([0.0, math.pi / 8.0, math.pi / 4.0 - 0.01])
thetas = np.linspace(math.pi / 24.0, math.pi / 4.0, 6)
rows = {  # one (r, angle) stack per family: the r axis against the angle axis
    "gghz": pi_tangle(apply_channel(density(gghz(thetas)), 3, rs[:, None])).pi,
    "ms": pi_tangle(apply_channel(density(maximal_slice(np.linspace(0.2, math.pi / 2, 6))), 2, rs[:, None])).pi,
}
for name, values in rows.items():
    for r, row in zip(rs, values):
        print(f"  {name:<4} r = {r:6.4f}:  " + "  ".join(f"{v:8.6f}" for v in row))
