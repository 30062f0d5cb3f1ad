import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelbell import optimize
from accelbell.linalg import density, tensor
from accelbell.nonlocality import chsh_value, horodecki_max, svetlichny_value
from accelbell.optimize import (
    BudgetError,
    grid_oracle,
    maximize_chsh,
    maximize_over_spheres,
    maximize_svetlichny,
)
from accelbell.states import gghz, singlet
from accelbell.unruh import apply_channel

from helpers import random_density, random_unitary

SQRT2 = math.sqrt(2.0)


def pole_objective(dirs):
    return np.asarray(dirs)[..., 0, 2]


def two_vector_objective(dirs):
    d = np.asarray(dirs)
    # smooth multimodal function of two directions
    return d[..., 0, 2] + d[..., 1, 0] + np.einsum("...i,...i->...", d[..., 0, :], d[..., 1, :]) ** 2


def test_single_vector_pole():
    result = maximize_over_spheres(pole_objective, 1, restarts=8, seed=1)
    assert abs(result.value - 1.0) < 1e-8


def test_grid_oracle_pole_on_lattice():
    assert abs(grid_oracle(pole_objective, 1, math.pi / 8.0) - 1.0) < 1e-15


def test_grid_oracle_resolution_must_divide_pi():
    for resolution in (1.0, 0.0, -math.pi / 4.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            grid_oracle(pole_objective, 1, resolution)


def test_grid_oracle_budget_rejected():
    # a pi/16 lattice for four vectors needs (17*32)^4 ~ 8.8e10 evaluations,
    # and pi/8 for six vectors needs (9*16)^6 ~ 8.9e12; both exceed 1e8
    objective = lambda d: chsh_value(density(singlet()), d)
    with pytest.raises(BudgetError):
        grid_oracle(objective, 4, math.pi / 16.0)
    svet = lambda d: svetlichny_value(density(gghz(0.0)), d)
    with pytest.raises(BudgetError):
        grid_oracle(svet, 6, math.pi / 8.0)


def test_grid_oracle_chsh_contains_optimum():
    # the pi/4 lattice contains the exact CHSH maximizers of the singlet
    objective = lambda d: chsh_value(density(singlet()), d)
    value = grid_oracle(objective, 4, math.pi / 4.0)
    assert value >= 2.80
    assert abs(value - 2.0 * SQRT2) < 1e-12


def test_grid_oracle_svetlichny_product_bounded():
    rho = density(gghz(0.0))
    value = grid_oracle(lambda d: svetlichny_value(rho, d), 6, math.pi / 2.0)
    assert value <= 4.0 + 1e-12


def test_determinism_bit_identical():
    rho = apply_channel(density(singlet()), 2, 0.3)
    first = maximize_over_spheres(lambda d: chsh_value(rho, d), 4, restarts=6, seed=42)
    second = maximize_over_spheres(lambda d: chsh_value(rho, d), 4, restarts=6, seed=42)
    assert first.value == second.value
    assert np.array_equal(first.directions, second.directions)
    assert first.start_values == second.start_values


def test_value_dominates_restart_starts():
    rho = density(singlet())
    result = maximize_over_spheres(lambda d: chsh_value(rho, d), 4, restarts=12, seed=5)
    assert result.value >= max(result.start_values) - 1e-12


def test_value_dominates_grid_witness():
    result = maximize_over_spheres(two_vector_objective, 2, witness_resolution=math.pi / 12.0, restarts=16, seed=7)
    assert result.oracle_value is not None
    # lattice witness minus a Lipschitz slack for the lattice spacing
    assert result.value >= result.oracle_value - 0.05
    assert result.value >= result.oracle_value - 1e-9  # witness also seeds a polish


def test_constant_objective_tie_break():
    result = maximize_over_spheres(lambda d: 1.0, 2, restarts=5, seed=3)
    assert result.restart == 0
    assert result.value == 1.0


def test_non_finite_objective_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        maximize_over_spheres(lambda d: float("nan"), 1, restarts=2, seed=0)


def test_maximize_chsh_singlet():
    value = maximize_chsh(density(singlet()), restarts=12, seed=2).value
    assert abs(value - 2.0 * SQRT2) < 1e-6


def test_maximize_chsh_product_state():
    rho = density(np.array([1, 0, 0, 0], dtype=complex))
    result = maximize_chsh(rho, restarts=12, seed=2)
    assert abs(result.value - 2.0) < 1e-6
    assert result.converged


def test_maximize_chsh_witness_included():
    rho = density(singlet())
    value = maximize_chsh(rho, witness_resolution=math.pi / 4.0, restarts=6, seed=2).value
    assert abs(value - 2.0 * SQRT2) < 1e-9


def test_maximize_chsh_frame_rotation_invariant(rng):
    rho = density(singlet())
    base = maximize_chsh(rho, restarts=12, seed=9).value
    for _ in range(3):
        u = tensor(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        assert abs(maximize_chsh(rotated, restarts=12, seed=9).value - base) < 1e-6


def test_maximize_svetlichny_ghz():
    rho = density(gghz(math.pi / 4.0))
    result = maximize_svetlichny(rho, restarts=20, seed=4)
    assert abs(result.value - 4.0 * SQRT2) < 1e-6
    # the returned settings reproduce the reported value
    assert abs(svetlichny_value(rho, result.directions) - result.value) < 1e-12


def test_maximize_svetlichny_product():
    rho = density(gghz(0.0))
    result = maximize_svetlichny(rho, restarts=12, seed=4)
    assert abs(result.value - 4.0) < 1e-6


def test_config_validation():
    with pytest.raises(ValueError, match="restarts"):
        maximize_over_spheres(pole_objective, 1, restarts=0)


def test_capped_simplex_reports_not_converged(monkeypatch):
    # five simplex iterations stop well short of the product state's maximum 2
    rho = density(np.array([1, 0, 0, 0], dtype=complex))
    monkeypatch.setattr(optimize, "MAX_ITERATIONS", 5)
    result = maximize_chsh(rho, restarts=12, seed=2)
    assert result.value < 2.0 - 1e-3
    assert result.converged is False


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_numeric_chsh_below_horodecki(seed, rank):
    rho = random_density(np.random.default_rng(seed), 2, rank)
    result = maximize_chsh(rho, restarts=2)
    assert result.value <= horodecki_max(rho) + 1e-12
    assert abs(chsh_value(rho, result.directions) - result.value) <= 1e-12
