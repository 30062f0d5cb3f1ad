#!/usr/bin/env python3
"""Tripartite nonlocality survives any finite acceleration.

The Svetlichny inequality (hybrid bound 4) certifies genuine three-party
nonlocality.  For the generalized GHZ family cos(t1)|000> + sin(t1)|111>
with the third qubit damped, the closed-form maximum (envelope) is the
larger of two branches: axial 4|2 cos^2 t1 cos^2 r - 1| and equatorial
4 sqrt(2) |sin(2 t1)| cos(r).  The table's branch and bound are the
branch the squared-weight rule picks and its value, which can be the
smaller one: at (t1, r) = (pi/8, 0) the weights tie, axial wins, and its
value 2.828 sits below the equatorial 4.  For every r < pi/4 some t1 still
violates; at r = pi/4 the violation is gone.  The maximal-slice family
behaves the same way for both choices of the accelerated qubit.
"""

import math

import numpy as np

from accelbell import (
    apply_channel,
    density,
    gghz,
    maximize_bell,
    svetlichny_bound_gghz,
    svetlichny_bound_ms_pair,
    svetlichny_bound_ms_slice,
    violates,
)

print(__doc__)

print("generalized GHZ, accelerated qubit 3 (closed form vs numeric maximum)")
print(f"{'t1':>8} {'r':>8} {'branch':>11} {'bound':>9} {'envelope':>9} {'numeric':>9}")
t1s, rs = (axis.ravel() for axis in np.meshgrid(
    (math.pi / 16, math.pi / 8, math.pi / 4), (0.0, math.pi / 8, math.pi / 4), indexing="ij"))
rhos = apply_channel(density(gghz(t1s)), 3, rs)
refs = svetlichny_bound_gghz(t1s, rs)
results = maximize_bell(rhos, restarts=12, seed=3)
for t1, r, branch, bound, envelope, result in zip(t1s, rs, refs.branch, refs.bound, refs.envelope, results):
    print(f"{t1:8.4f} {r:8.4f} {branch:>11} {bound:9.5f} {envelope:9.5f} {result.value:9.5f}")

print()
print("violation boundary: largest envelope over t1 in [0, pi/4], per r")
t_grid = np.linspace(0, math.pi / 4, 129)
for r in np.linspace(0.0, math.pi / 4.0, 6):
    best = svetlichny_bound_gghz(t_grid, r).envelope.max()
    status = "violates" if violates(best, 3) else "no violation"
    print(f"  r = {r:6.4f}   max envelope = {best:8.5f}   {status}")

print()
print("maximal slice: the violation region is sin^2 t3 > tan^2 r (pair case)")
for r in (0.2, 0.5, math.pi / 4 - 0.01, math.pi / 4):
    t_grid = np.linspace(0.0, math.pi / 2.0, 201)
    pair = svetlichny_bound_ms_pair(t_grid, r)
    slc = svetlichny_bound_ms_slice(t_grid, r)
    print(
        f"  r = {r:6.4f}   pair max = {float(pair.max()):8.5f}   "
        f"slice max = {float(slc.max()):8.5f}   "
        f"{'both violate' if violates(pair.max(), 3) and violates(slc.max(), 3) else 'limit reached'}"
    )

print()
print("At r = pi/4 every maximum equals 4 exactly: tripartite nonlocality")
print("vanishes only in the infinite-acceleration limit, unlike CHSH.")
