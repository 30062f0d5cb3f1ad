#!/usr/bin/env python3
"""Tripartite nonlocality survives any finite acceleration.

The Svetlichny inequality (hybrid bound 4) certifies genuine three-party
nonlocality.  For the generalized GHZ family cos(t1)|000> + sin(t1)|111>
with the third qubit damped, the closed-form maximum has two branches:
axial 4(2 cos^2 t1 cos^2 r - 1) and equatorial 4 sqrt(2) sin(2 t1) cos(r).
For every r < pi/4 some t1 still violates; at r = pi/4 the violation is
gone.  The maximal-slice family behaves the same way for both choices of
the accelerated qubit.
"""

import math

import numpy as np

from accelbell import (
    apply_channel,
    density,
    gghz,
    maximize_svetlichny,
    svetlichny_bound_gghz,
    svetlichny_bound_ms_pair,
    svetlichny_bound_ms_slice,
)

print(__doc__)

print("generalized GHZ, accelerated qubit 3 (closed form vs numeric maximum)")
print(f"{'t1':>8} {'r':>8} {'branch':>11} {'bound':>9} {'numeric':>9}")
for t1 in (math.pi / 16, math.pi / 8, math.pi / 4):
    for r in (0.0, math.pi / 8, math.pi / 4):
        ref = svetlichny_bound_gghz(t1, r)
        rho = apply_channel(density(gghz(t1)), 3, r)
        numeric = maximize_svetlichny(rho, restarts=12, seed=3).value
        print(f"{t1:8.4f} {r:8.4f} {ref.branch:>11} {ref.envelope:9.5f} {numeric:9.5f}")

print()
print("violation boundary: largest bound over t1 in [0, pi/4], per r")
for r in np.linspace(0.0, math.pi / 4.0, 6):
    best = max(svetlichny_bound_gghz(float(t), float(r)).envelope for t in np.linspace(0, math.pi / 4, 129))
    status = "violates" if best > 4.0 + 1e-9 else "no violation"
    print(f"  r = {r:6.4f}   max bound = {best:8.5f}   {status}")

print()
print("maximal slice: the violation region is sin^2 t3 > tan^2 r (pair case)")
for r in (0.2, 0.5, math.pi / 4 - 0.01, math.pi / 4):
    t_grid = np.linspace(0.0, math.pi / 2.0, 201)
    pair = svetlichny_bound_ms_pair(t_grid, r)
    slc = svetlichny_bound_ms_slice(t_grid, r)
    print(
        f"  r = {r:6.4f}   pair max = {float(pair.max()):8.5f}   "
        f"slice max = {float(slc.max()):8.5f}   "
        f"{'both violate' if pair.max() > 4 and slc.max() > 4 else 'limit reached'}"
    )

print()
print("At r = pi/4 every maximum equals 4 exactly: tripartite nonlocality")
print("vanishes only in the infinite-acceleration limit, unlike CHSH.")
