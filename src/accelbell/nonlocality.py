"""Bipartite CHSH and tripartite Svetlichny quantities with their closed bounds.

Setting conventions
-------------------
CHSH: party 1 measures along a or a', party 2 along b or b'.  Svetlichny:
party 1 chooses a/a', party 2 chooses c/c', party 3 chooses b/b'; the
Svetlichny combination implemented here is the standard eight-term form

    S = A(CK' + C'K) + A'(CK - C'K'),    K = B + B',  K' = B - B',

whose local-realistic-nonlocal hybrid bound is 4 and whose algebraic
quantum maximum is 4 sqrt(2) (a flip of b' maps it to the textbook
sign pattern with +1 on zero- or one-primed terms).

Each value is |sum beta[x, y(, z)] T(u_x, v_y(, w_z))|: the Pauli correlation
tensor T (``correlation_tensor``) contracted with the settings u, v(, w) of
modes 1, 2(, 3) (index 0 unprimed, 1 primed) and weighted by the coefficients
beta, e.g. CHSH = |a.T(b + b') + a'.T(b - b')|.  No measurement operator is built.
``bell_value`` is the one evaluator: the state's mode count picks the row of
``INEQUALITIES`` (2: CHSH for 4x4 states, 3: Svetlichny for 8x8 ones), and its
settings are unit 3-vector arrays of 2n directions, shape (..., 4, 3)
(a, a', b, b') or (..., 6, 3) (a, a', c, c', b, b').  ``_bell_fields``, the
one contraction of T with the later settings, is shared with the maximizer,
and so is ``_upper_bound``, the body of ``bell_upper``: the upper bound
from T over all settings, exact for CHSH and a bound for Svetlichny.
The state quantities take a stack of states (..., d, d), checked in one
``_state`` call, whose leading axes broadcast against the settings'; one state
and one setting give a float.  ``violates`` reads the classical bound of the
table's row, with margin ``VIOLATION_TOL``.  ``ValueError`` is raised for a
non-state, positivity included, and for settings of the wrong count or
non-finite; angles and values are read by ``linalg._numbers`` and mode counts
follow ``linalg._check_integer``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import _check_broadcast, _check_integer, _numbers, _state
from .states import PAULI, _unit_vectors
from .unruh import _check_r


class Inequality(NamedTuple):
    """One Bell inequality: its beta, its two bounds, and the Pauli products with T = paulis @ rho.ravel()."""

    name: str
    beta: np.ndarray
    classical_bound: float
    quantum_max: float
    paulis: np.ndarray


# by mode count; beta of CHSH and of S above (expanded in B and B'), Pauli products over (i, j(, k)) in C order
INEQUALITIES = {
    2: Inequality("CHSH", np.array([[1.0, 1.0], [1.0, -1.0]]), 2.0, 2.0 * math.sqrt(2.0),
                  np.einsum("ica,jdb->ijabcd", PAULI, PAULI).reshape(9, 16)),
    3: Inequality("Svetlichny", np.array([[[1.0, -1.0], [1.0, 1.0]], [[1.0, 1.0], [-1.0, 1.0]]]), 4.0,
                  4.0 * math.sqrt(2.0), np.einsum("ida,jeb,kfc->ijkabcdef", PAULI, PAULI, PAULI).reshape(27, 64)),
}
VIOLATION_TOL = 1e-9

# maximizer of |sin^2 g + cos g| on [0, pi]: cos g = 1/2
GAMMA_STAR = math.pi / 3.0

__all__ = [
    "VIOLATION_TOL",
    "GAMMA_STAR",
    "INEQUALITIES",
    "Inequality",
    "ChshThreshold",
    "GghzBound",
    "correlation_tensor",
    "bell_value",
    "chsh_restricted",
    "restricted_settings",
    "chsh_restricted_max",
    "chsh_threshold",
    "bell_upper",
    "svetlichny_bound_gghz",
    "svetlichny_bound_ms",
    "violates",
]


def _tensor(rho: np.ndarray) -> tuple[np.ndarray, int]:
    """Correlation tensors (..., 3, 3(, 3)) of a checked stack of states, and its mode count."""
    rho, n = _state(rho)
    if n not in INEQUALITIES:
        raise ValueError(f"expected a 4x4 or 8x8 operator, got shape {rho.shape}")
    lead = rho.shape[:-2]  # one matrix-vector product per state, so a row of a stack equals its lone call
    return np.matmul(INEQUALITIES[n].paulis, rho.reshape(lead + (4**n, 1))).real.reshape(lead + (3,) * n), n


def _maybe_scalar(values: np.ndarray):
    return values.item() if values.ndim == 0 else values  # a Python float or bool for one value


def correlation_tensor(rho: np.ndarray) -> np.ndarray:
    """T_ij = Tr[rho sigma_i x sigma_j] of a 4x4 operator, or T_ijk of an 8x8 one, as a real array (..., 3, 3(, 3))."""
    return _tensor(rho)[0]


def _bell_fields(t: np.ndarray, rest: np.ndarray, modes: int) -> np.ndarray:
    """First-party fields X_x = sum beta[x, ...] T(., v_y(, w_z)) of the ``modes``-mode inequality, shape (..., 2, 3).

    ``rest`` holds the later settings, (..., 2, 3) as (b, b') for CHSH or
    (..., 4, 3) as (c, c', b, b') for Svetlichny.  T is one tensor, 3x3 or
    3x3x3, or a stack of them of shape (..., 3, 3(, 3)) whose leading axes
    broadcast against those of ``rest``.  The Bell value of the full setting
    is |a.X_0 + a'.X_1|.
    """
    if modes == 2:
        return (INEQUALITIES[2].beta @ rest) @ np.swapaxes(t, -1, -2)  # T(b + b'), T(b - b')
    return np.einsum("...ijk,...yj,...xyk->...xi", t, rest[..., :2, :], INEQUALITIES[3].beta @ rest[..., None, 2:, :])


def _bell_value(t: np.ndarray, settings, modes: int):
    """Bell values of a correlation tensor or a stack of them at ``settings``; ``modes`` picks the inequality."""
    dirs = _unit_vectors(settings, 2 * modes)
    _check_broadcast("states of leading shape", t.shape[:-modes], "settings of leading shape", dirs.shape[:-2])
    fields = _bell_fields(t, dirs[..., 2:, :], modes)
    return _maybe_scalar(np.abs(np.sum(dirs[..., :2, :] * fields, axis=(-2, -1))))


def bell_value(rho: np.ndarray, settings) -> float | np.ndarray:
    """|sum beta T(u_x, v_y(, w_z))| of a state or a stack of them: CHSH for 4x4 operators, Svetlichny for 8x8 ones.

    ``settings`` is a stack of 2n unit directions, (..., 4, 3) in the order
    (a, a', b, b') or (..., 6, 3) in the order (a, a', c, c', b, b'); one
    state and one setting give a float.
    """
    t, n = _tensor(rho)
    return _bell_value(t, settings, n)


def restricted_settings(gamma, r=0.0) -> np.ndarray:
    """The z-symmetric two-setting family realizing the restricted CHSH form,
    as a (..., 4, 3) array (a, a', b, b'); ``gamma`` and ``r`` broadcast.

    a = b = z, and the primed vectors sit at polar angle gamma.  At r = 0
    they lie in a common plane on opposite sides of z (the coplanar
    configuration with a'/b' angle 2 gamma).  The damped singlet carries
    correlation matrix diag(-cos r, -cos r, -cos^2 r): transverse
    components damp more slowly than the z-z one, so for r > 0 the primed
    vectors are splayed to azimuthal separation arccos(-cos r), which keeps
    their transverse correlation equal to -cos^2(r) cos(2 gamma) and makes
    the closed form of ``chsh_restricted`` exact for every r.
    """
    r, g = _check_r(r), _numbers(gamma, "angle gamma")
    _check_broadcast("angles gamma of shape", g.shape, "r of shape", r.shape)
    g, split = np.broadcast_arrays(g, math.pi - r)
    s, c, zero = np.sin(g), np.cos(g), np.zeros(g.shape)
    z = np.stack([zero, zero, zero + 1.0], axis=-1)
    return np.stack([z, np.stack([s * np.cos(split), s * np.sin(split), c], -1), z, np.stack([s, zero, c], -1)], -2)


def chsh_restricted(r, gamma):
    """CHSH value of the damped singlet on the restricted family:
    2 cos^2(r) |sin^2(gamma) + cos(gamma)|.  Values above 2 are violations."""
    r, g = _check_r(r), _numbers(gamma, "angle gamma")
    _check_broadcast("r values of shape", r.shape, "angles gamma of shape", g.shape)
    vals = 2.0 * np.square(np.cos(r)) * np.abs(np.square(np.sin(g)) + np.cos(g))
    return _maybe_scalar(vals)


def chsh_restricted_max(r):
    """Maximum of the restricted CHSH value over gamma, attained at
    gamma* = pi/3 independently of r (the r-dependence factorizes)."""
    return chsh_restricted(r, GAMMA_STAR)


@dataclass(frozen=True)
class ChshThreshold:
    """Where the coplanar CHSH violation dies as acceleration grows."""

    r_t: float
    cos2_rt: float
    a_t_over_omega_c: float
    gamma_star: float


def chsh_threshold() -> ChshThreshold:
    """Damping threshold of the coplanar CHSH violation.

    The gamma maximum of |sin^2 g + cos g| is 5/4, so the violation
    condition 2 cos^2(r) * 5/4 > 2 fails once cos^2(r) <= 4/5, i.e. at
    r_t = arccos(2/sqrt(5)).  In acceleration units this is
    a_t / (omega c) = 2 pi / ln 4.
    """
    return ChshThreshold(
        r_t=math.acos(2.0 / math.sqrt(5.0)),
        cos2_rt=0.8,
        a_t_over_omega_c=2.0 * math.pi / math.log(4.0),
        gamma_star=GAMMA_STAR,
    )


def _upper_bound(t: np.ndarray, modes: int) -> np.ndarray:
    """The body of ``bell_upper``: its values for the ``modes``-mode inequality from T (..., 3, 3(, 3))."""
    if modes == 2:
        evs = np.linalg.eigvalsh(np.swapaxes(t, -1, -2) @ t)
        return 2.0 * np.sqrt(np.maximum(evs[..., -1] + evs[..., -2], 0.0))
    # mode k's axis to the front of the three mode axes; a stack's leading axes are not unfolded
    unfoldings = np.stack([np.moveaxis(t, k - 3, -3) for k in range(3)], axis=-4).reshape(t.shape[:-3] + (3, 3, 9))
    return 4.0 * np.linalg.svd(unfoldings, compute_uv=False)[..., 0].min(axis=-1)


def bell_upper(rho: np.ndarray) -> float | np.ndarray:
    """Upper bound of the Bell value of a state, or of each of a stack, over all settings.

    The state's mode count picks the inequality, as in ``bell_value``.  CHSH
    (4x4): 2 sqrt(t1 + t2) with t1 >= t2 the two largest eigenvalues of
    T^T T, the exact maximum (Horodecki, Horodecki & Horodecki, PLA 200, 340
    (1995)).  Svetlichny (8x8): 4 min_k sigma_max(T_(k)) over the 3x9
    unfoldings T_(k) of T along each mode k (Li, Shen, Jing, Fei & Li-Jost,
    PRA 96, 042323 (2017)), a bound: it equals the damped GGHZ envelope and
    both maximal-slice closed forms, and lies above the maximum of a generic
    state.
    """
    return _maybe_scalar(_upper_bound(*_tensor(rho)))


@dataclass(frozen=True)
class GghzBound:
    """Branch diagnostics of the damped-GGHZ Svetlichny maximum.

    The closed-form maximum has an axial branch, reached by settings along
    z, and an equatorial branch reached in the x-y plane.  ``bound`` is the
    branch selected by comparing the squared weights (axial wins ties), so
    it is not the maximum everywhere: at (t1, r) = (0.3, 0.2) it is 3.0132
    while the maximum is 3.1304.  ``envelope`` is the larger of the two
    branch values and is what the numerical maximum is compared against.
    Each field is a float for scalar input and an array for array input.
    """

    bound: float | np.ndarray
    branch: str | np.ndarray
    axial_value: float | np.ndarray
    equatorial_value: float | np.ndarray
    envelope: float | np.ndarray


def svetlichny_bound_gghz(theta1, r) -> GghzBound:
    """Closed-form Svetlichny maximum of the generalized GHZ state with the
    third qubit damped at angle r; ``theta1`` and ``r`` broadcast.

    Axial branch 4|2 cos^2 t1 cos^2 r - 1|, equatorial branch
    4 sqrt(2) |sin(2 t1)| cos(r); the axial branch applies when its squared
    weight (2 cos^2 t1 cos^2 r - 1)^2 is at least sin^2(2 t1) cos^2(r).
    The moduli keep the form valid for every t1, as ``states.gghz`` takes
    it: at t1 = pi/2 (|111>) the axial value is 4.
    """
    r, t1 = _check_r(r), _numbers(theta1, "control angle theta1")
    _check_broadcast("control angles theta1 of shape", t1.shape, "r of shape", r.shape)
    axial_amp = 2.0 * np.square(np.cos(t1)) * np.square(np.cos(r)) - 1.0
    axial_value = 4.0 * np.abs(axial_amp)
    equatorial_value = 4.0 * math.sqrt(2.0) * np.abs(np.sin(2.0 * t1)) * np.cos(r)
    axial = np.square(axial_amp) >= np.square(np.sin(2.0 * t1)) * np.square(np.cos(r))
    return GghzBound(
        bound=_maybe_scalar(np.where(axial, axial_value, equatorial_value)),
        branch=np.where(axial, "axial", "equatorial")[()],
        axial_value=_maybe_scalar(axial_value),
        equatorial_value=_maybe_scalar(equatorial_value),
        envelope=_maybe_scalar(np.maximum(axial_value, equatorial_value)),
    )


def svetlichny_bound_ms(theta3, r, mode: int):
    """Svetlichny maximum of the maximal slice state with ``mode`` (1..3)
    damped at angle r; ``theta3`` and ``r`` broadcast.

    A paired qubit (mode 1 or 2): 4 cos(r) sqrt(cos^2 t3 + 2 sin^2 t3),
    which exceeds 4 iff sin^2 t3 > tan^2 r.  The slice qubit (mode 3):
    4 sqrt(cos^2 t3 cos^2 2r + 2 sin^2 t3 cos^2 r).
    """
    r, t3 = _check_r(r), _numbers(theta3, "control angle theta3")
    _check_broadcast("control angles theta3 of shape", t3.shape, "r of shape", r.shape)
    _check_integer("mode", mode, 1, 3)
    cos2, sin2 = np.square(np.cos(t3)), np.square(np.sin(t3))
    if mode < 3:
        return _maybe_scalar(4.0 * np.cos(r) * np.sqrt(cos2 + 2.0 * sin2))
    return _maybe_scalar(4.0 * np.sqrt(cos2 * np.square(np.cos(2.0 * r)) + 2.0 * sin2 * np.square(np.cos(r))))


def violates(values, modes: int):
    """Where values of the ``modes``-mode inequality clear its classical bound beyond ``VIOLATION_TOL``, elementwise."""
    _check_integer("mode count", modes, min(INEQUALITIES), max(INEQUALITIES))
    values = _numbers(values, "Bell values", finite=False)  # NaN is no violation
    return _maybe_scalar(values > INEQUALITIES[modes].classical_bound + VIOLATION_TOL)
