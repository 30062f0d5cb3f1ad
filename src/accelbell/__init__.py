"""Nonlocality of fermionic states under uniform acceleration.

Library layout:

    linalg        dense complex operators, partial trace/transpose, checked eigvalsh
    states        singlet / generalized GHZ / maximal slice states, spin observables
    unruh         acceleration parameter and the wedge damping channel
    nonlocality   correlation tensor, CHSH/Svetlichny evaluators, closed-form bounds, thresholds
    optimize      multistart simplex maximization over spheres (restarts, seed) + lattice oracle
    entanglement  negativity and the residual tripartite tangle
    checks        cross-module invariant suite (the `verify` command)
    cli           sweep / threshold / verify / pi-tangle commands
"""

from .entanglement import PiTangle, negativity, pi_tangle
from .linalg import (
    density,
    expectation,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    purity,
    tensor,
    trace_norm,
)
from .nonlocality import (
    ChshSettings,
    ChshThreshold,
    GghzBound,
    SvetlichnySettings,
    chsh_restricted,
    chsh_restricted_max,
    chsh_threshold,
    chsh_value,
    restricted_settings,
    correlation,
    correlation_tensor,
    horodecki_max,
    svetlichny_bound_gghz,
    svetlichny_bound_ms_pair,
    svetlichny_bound_ms_slice,
    svetlichny_value,
    violates_chsh,
    violates_svetlichny,
)
from .optimize import (
    BudgetError,
    OptimizeResult,
    grid_oracle,
    maximize_chsh,
    maximize_over_spheres,
    maximize_svetlichny,
)
from .states import direction, gghz, maximal_slice, singlet, spin_observable
from .unruh import R_MAX, UnruhChannel, acceleration_parameter, apply_channel, build_channel, dilate

__version__ = "0.1.0"
