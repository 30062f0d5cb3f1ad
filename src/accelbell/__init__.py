"""Nonlocality of fermionic states under uniform acceleration.

Library layout:

    linalg        the one shape rule for matrices (..., d, d), the one state check, the one reader of numbers from
                  outside and the one integer rule, partial trace/transpose of operators (..., d, d); np.kron
    states        singlet / generalized GHZ / maximal slice kets (..., 8) by their formula at any finite angle,
                  spin observables along unit 3-vectors
    unruh         acceleration parameter, the wedge damping channel on state stacks, the one r check, dilation
    nonlocality   INEQUALITIES (CHSH, Svetlichny) by mode count and violates; correlation tensors T of state
                  stacks (a correlation is a @ T @ b), bell_value, the one evaluator on unit-vector setting arrays,
                  and bell_upper, the one upper bound over all settings (the state's mode count picks the
                  inequality of both); closed forms, the maximal-slice one by damped mode
    optimize      maximize_bell over states (..., d, d), 4x4 (CHSH) or 8x8 (Svetlichny): first party in closed
                  form + lockstep simplex, stopped per state once it reaches the state's bell_upper; fields
                  with the stack's leading axes; separable lattice oracle grid_oracle on the same state form
    entanglement  negativity across one mode (pairs via linalg.partial_trace), residual tripartite tangle with
                  its fields pi, pi_1, pi_2, pi_3, of states (..., d, d)
    checks        cross-module invariant suite (the `verify` command), timed per check; loaded by `verify` only
    cli           sweep / threshold / verify / pi-tangle commands; COLUMNS maps each sweep column to its states, flag
"""

from .entanglement import PiTangle, negativity, pi_tangle
from .linalg import density, partial_trace, partial_transpose
from .nonlocality import (
    INEQUALITIES,
    ChshThreshold,
    GghzBound,
    bell_upper,
    bell_value,
    chsh_restricted,
    chsh_restricted_max,
    chsh_threshold,
    restricted_settings,
    correlation_tensor,
    svetlichny_bound_gghz,
    svetlichny_bound_ms,
    violates,
)
from .optimize import BudgetError, OptimizeResult, grid_oracle, maximize_bell
from .states import gghz, maximal_slice, singlet, spin_observable
from .unruh import R_MAX, acceleration_parameter, apply_channel, dilate

__version__ = "0.1.0"
