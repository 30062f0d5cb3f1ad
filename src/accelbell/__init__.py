"""Nonlocality of fermionic states under uniform acceleration.

Library layout:

    linalg        the one state form (..., d, d) and its one check, the mode check, partial trace/transpose
    states        singlet / generalized GHZ / maximal slice kets (..., 8), spin observables along unit 3-vectors
    unruh         acceleration parameter, the wedge damping channel on state stacks, the one r check, dilation
    nonlocality   INEQUALITIES (CHSH, Svetlichny) by mode count and violates; correlation tensors of state stacks,
                  bell_value, the one evaluator on unit-vector setting arrays (the state's mode count picks the
                  inequality), closed forms
    optimize      maximize_bell over a stack of 4x4 (CHSH) or 8x8 (Svetlichny) states: first party in
                  closed form + lockstep simplex; separable lattice oracle grid_oracle on the same stack form
    entanglement  negativity across one mode (pairs via linalg.partial_trace), residual tripartite tangle
    checks        cross-module invariant suite (the `verify` command), timed per check
    cli           sweep / threshold / verify / pi-tangle commands; one COLUMNS entry per sweep column, flagged or not
"""

from .entanglement import PiTangle, negativity, pi_tangle
from .linalg import (
    density,
    expectation,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    tensor,
)
from .nonlocality import (
    INEQUALITIES,
    ChshThreshold,
    GghzBound,
    bell_value,
    chsh_restricted,
    chsh_restricted_max,
    chsh_threshold,
    restricted_settings,
    correlation,
    correlation_tensor,
    horodecki_max,
    svetlichny_bound_gghz,
    svetlichny_bound_ms_pair,
    svetlichny_bound_ms_slice,
    violates,
)
from .optimize import BudgetError, OptimizeResult, grid_oracle, maximize_bell
from .states import gghz, maximal_slice, singlet, spin_observable
from .unruh import R_MAX, acceleration_parameter, apply_channel, build_channel, dilate

__version__ = "0.1.0"
