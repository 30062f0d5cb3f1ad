import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelbell import nonlocality, optimize
from accelbell.linalg import density, tensor
from accelbell.nonlocality import bell_value, correlation_tensor, horodecki_max, svetlichny_bound_gghz
from accelbell.optimize import BudgetError, grid_oracle, maximize_bell
from accelbell.states import gghz, singlet
from accelbell.unruh import apply_channel

from helpers import grid_search_reference, random_density, random_unitary

SQRT2 = math.sqrt(2.0)


def test_grid_oracle_pole_on_lattice():
    # the product states' maxima 2 and 4 sit at the pole z, a lattice point
    assert abs(grid_oracle([density(np.eye(4)[0])], math.pi / 4.0)[0][0] - 2.0) < 1e-15
    (value,), (setting,) = grid_oracle([density(gghz(0.0))], math.pi / 2.0)
    assert abs(value - 4.0) < 1e-15
    assert abs(bell_value(density(gghz(0.0)), setting) - value) < 1e-15


def test_grid_oracle_resolution_must_divide_pi():
    for resolution in (1.0, 0.0, -math.pi / 4.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            grid_oracle([density(singlet())], resolution)


def test_grid_oracle_budget_rejected():
    # a pi/16 lattice for four vectors needs (17*32)^4 ~ 8.8e10 evaluations,
    # and pi/8 for six vectors needs (9*16)^6 ~ 8.9e12; both exceed 1e8
    with pytest.raises(BudgetError):
        grid_oracle([density(singlet())], math.pi / 16.0)
    with pytest.raises(BudgetError):
        grid_oracle([density(gghz(0.0))], math.pi / 8.0)
    # the budget is checked before the lattice is built: pi/500 would need a 501000-point lattice
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            grid_oracle([density(singlet())], math.pi / 500.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# (modes, resolution) of each lattice the scan is checked on
_SCAN_LATTICES = ((2, math.pi / 4.0), (2, math.pi / 2.0), (3, math.pi), (3, math.pi / 2.0))


def _assert_scan_matches_reference(rho, resolution):
    t = correlation_tensor(rho)
    values, angles = optimize._grid_search(t[None], resolution)  # a stack of one
    ref_value, ref_angles = grid_search_reference(t, resolution)
    assert values[0] == ref_value
    assert np.array_equal(angles[0], ref_angles)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_grid_search_matches_per_point_scan(seed, rank):
    # the max/min scan over a' gives the reference loop's value and angles bit for bit
    rng = np.random.default_rng(seed)
    for modes, resolution in _SCAN_LATTICES:
        _assert_scan_matches_reference(random_density(rng, modes, rank), resolution)


@pytest.mark.parametrize(
    "rho",
    [density(singlet()), density(np.eye(4)[0]), density(gghz(math.pi / 4.0)), density(gghz(0.0)),
     apply_channel(density(gghz(math.pi / 8.0)), 3, 0.0), apply_channel(density(gghz(math.pi / 8.0)), 3, math.pi / 4.0)],
    ids=["singlet", "00", "ghz", "000", "gghz-r0", "gghz-r-quarter-pi"],
)
def test_grid_search_ties_match_per_point_scan(rho):
    # symmetric states reach their lattice maximum at many lattice points: the lowest C-order one must win
    for modes, resolution in _SCAN_LATTICES:
        if 2**modes == len(rho):
            _assert_scan_matches_reference(rho, resolution)


def test_grid_search_stack_matches_per_state_calls(rng):
    # the lattice is built once per call; each state of the stack still gets its own scan, bit for bit
    for modes, resolution in _SCAN_LATTICES:
        ts = np.stack([correlation_tensor(random_density(rng, modes, rank)) for rank in (1, 2, 4)])
        values, angles = optimize._grid_search(ts, resolution)
        assert values.shape == (3,) and angles.shape == (3, 4 * modes)
        for t, value, row in zip(ts, values, angles):
            one_value, one_angles = optimize._grid_search(t[None], resolution)
            assert value == one_value[0]
            assert np.array_equal(row, one_angles[0])


def test_grid_oracle_chsh_contains_optimum():
    # the pi/4 lattice contains the exact CHSH maximizers of the singlet
    (value,), (setting,) = grid_oracle([density(singlet())], math.pi / 4.0)
    assert value >= 2.80
    assert abs(value - 2.0 * SQRT2) < 1e-12
    assert abs(bell_value(density(singlet()), setting) - value) < 1e-12


def test_grid_oracle_svetlichny_product_bounded():
    (value,), _ = grid_oracle([density(gghz(0.0))], math.pi / 2.0)
    assert value <= 4.0 + 1e-12


def test_grid_oracle_stack_rows_equal_single_state_calls():
    # a (3, 4, 4) stack is three CHSH states, not one three-mode tensor: each row is its state's lone call
    rhos = apply_channel(density(singlet()), 2, np.array([0.0, 0.4, math.pi / 4.0]))
    for resolution in (math.pi / 2.0, math.pi):
        values, directions = grid_oracle(rhos, resolution)
        assert values.shape == (3,) and directions.shape == (3, 4, 3)
        assert np.all(values <= 2.0 * SQRT2 + 1e-12)
        for rho, value, setting in zip(rhos, values, directions):
            (one_value,), (one_setting,) = grid_oracle([rho], resolution)
            assert value == one_value
            assert np.array_equal(setting, one_setting)
            assert abs(bell_value(rho, setting) - value) < 1e-12
    for rhos in ([], np.empty((0, 8, 8)), density(singlet())):  # a lone (d, d) array is not a stack
        with pytest.raises(ValueError, match="operator"):
            grid_oracle(rhos, math.pi)


def test_determinism_bit_identical():
    rho = apply_channel(density(singlet()), 2, 0.3)
    first = maximize_bell([rho], restarts=6, seed=42)[0]
    second = maximize_bell(iter([rho]), restarts=6, seed=42)[0]  # any iterable of states is a stack
    assert first.value == second.value
    assert np.array_equal(first.directions, second.directions)
    assert first.evaluations == second.evaluations


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_value_dominates_restart_starts(seed, rank):
    # each row's simplex minimizes the negated objective, so it never ends above its start
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 2, rank)
    fn = lambda rows, x: -bell_value(rho, optimize._angles_to_directions(x).reshape(len(x), 4, 3))
    x0 = np.array([optimize._sample_start(rng, 4) for _ in range(3)])
    assert (optimize._nelder_mead(fn, x0, np.full(3, 0.35))[1] <= fn(None, x0)).all()


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ranks=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       restarts=st.integers(1, 6), witness=st.booleans(), modes=st.sampled_from([2, 3]))
def test_stacked_maximizer_matches_per_point_calls(seed, ranks, restarts, witness, modes):
    # a point's (point, start) rows step in lockstep with other points' rows and must not feel them
    rng = np.random.default_rng(seed)
    rhos = [random_density(rng, modes, rank) for rank in ranks]
    resolution = (math.pi / 4.0 if modes == 2 else math.pi / 2.0) if witness else None
    for rho, stacked in zip(rhos, maximize_bell(rhos, resolution, restarts=restarts, seed=seed)):
        single = maximize_bell([rho], resolution, restarts=restarts, seed=seed)[0]
        assert stacked.value == single.value
        assert np.array_equal(stacked.directions, single.directions)
        assert stacked.evaluations == single.evaluations
        assert stacked.converged == single.converged


def test_value_dominates_grid_witness(rng):
    rho = random_density(rng, 3)
    result = maximize_bell([rho], witness_resolution=math.pi / 2.0, restarts=16, seed=7)[0]
    oracle_value = grid_oracle([rho], math.pi / 2.0)[0][0]
    # lattice witness minus a Lipschitz slack for the lattice spacing
    assert result.value >= oracle_value - 0.05
    assert result.value >= oracle_value - 1e-9  # the witness is also a simplex start


def test_constant_objective_tie_break():
    # T = 0 makes |X_0| + |X_1| constant: every restart ties and the first one wins
    result = maximize_bell([np.eye(4) / 4.0], restarts=5, seed=3)[0]
    first_start = optimize._angles_to_directions(optimize._sample_start(np.random.default_rng(3), 2))
    assert result.value == 0.0
    assert np.array_equal(result.directions[2:], first_start)


def test_non_finite_objective_rejected():
    # a unit-trace Hermitian operator whose correlation tensor overflows
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="objective returned non-finite"):
        maximize_bell([np.diag([1e308, -1e308, 0.5, 0.5])], restarts=1)


def test_maximize_chsh_singlet():
    value = maximize_bell([density(singlet())], restarts=12, seed=2)[0].value
    assert abs(value - 2.0 * SQRT2) < 1e-6


def test_maximize_chsh_product_state():
    rho = density(np.array([1, 0, 0, 0], dtype=complex))
    result = maximize_bell([rho], restarts=12, seed=2)[0]
    assert abs(result.value - 2.0) < 1e-6
    assert result.converged


def test_maximize_chsh_zero_tensor():
    # T = 0: both first-party fields vanish, so a and a' fall back to z
    result = maximize_bell([np.eye(4) / 4.0], restarts=2)[0]
    assert result.value == 0.0
    assert np.array_equal(result.directions[:2], [[0.0, 0.0, 1.0]] * 2)


def test_maximize_chsh_witness_included():
    rho = density(singlet())
    value = maximize_bell([rho], witness_resolution=math.pi / 4.0, restarts=6, seed=2)[0].value
    assert abs(value - 2.0 * SQRT2) < 1e-9


def test_maximize_chsh_frame_rotation_invariant(rng):
    rho = density(singlet())
    base = maximize_bell([rho], restarts=12, seed=9)[0].value
    for _ in range(3):
        u = tensor(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        assert abs(maximize_bell([rotated], restarts=12, seed=9)[0].value - base) < 1e-6


def test_maximize_svetlichny_ghz():
    rho = density(gghz(math.pi / 4.0))
    result = maximize_bell([rho], restarts=20, seed=4)[0]
    assert abs(result.value - 4.0 * SQRT2) < 1e-6
    # the returned settings reproduce the reported value
    assert abs(bell_value(rho, result.directions) - result.value) < 1e-12


def test_maximize_svetlichny_product():
    rho = density(gghz(0.0))
    result = maximize_bell([rho], restarts=12, seed=4)[0]
    assert abs(result.value - 4.0) < 1e-6


def test_maximize_svetlichny_gghz_past_quarter_pi():
    # past pi/4 the closed form needs the moduli |2 cos^2 t1 cos^2 r - 1| and |sin 2 t1|
    for t1, r in ((3.0 * math.pi / 8.0, math.pi / 4.0), (1.3, 0.1), (math.pi / 2.0, 0.0), (2.0, 0.0)):
        numeric = maximize_bell([apply_channel(density(gghz(t1)), 3, r)], restarts=8, seed=1)[0].value
        assert abs(numeric - svetlichny_bound_gghz(t1, r).envelope) < 1e-6


def test_config_validation():
    rho = density(singlet())
    # a bool is an int to Python, but not a count or a seed
    for restarts in (0, -1, 2.5, "4", True, False, np.True_):
        with pytest.raises(ValueError, match="restarts"):
            maximize_bell([rho], restarts=restarts)
    for seed in (-1, 1.5, None, True, False, np.False_):
        with pytest.raises(ValueError, match="seed"):
            maximize_bell([rho], restarts=1, seed=seed)
    # the matrix size picks the inequality: one size per stack, 4x4 or 8x8 only
    with pytest.raises(ValueError, match="same shape"):
        maximize_bell([rho, density(gghz(0.3))], restarts=1)
    for rhos in ([np.eye(2) / 2.0], [np.eye(16) / 16.0], [], np.empty((0, 4, 4))):
        with pytest.raises(ValueError, match="operator"):
            maximize_bell(rhos, restarts=1)
    # a lone (d, d) array is not a stack of d / 2 states
    with pytest.raises(ValueError, match=r"wrap a single state as \[rho\]"):
        maximize_bell(rho, restarts=1)


def test_each_state_checked_once(monkeypatch, rng):
    # the stack is checked in one call, and the final values come from its T, not from a second check
    calls = []
    checked = nonlocality._state
    monkeypatch.setattr(nonlocality, "_state", lambda *args: calls.append(1) or checked(*args))
    rhos = [random_density(rng, 2, 2) for _ in range(64)]
    results = maximize_bell(rhos, restarts=1, seed=3)
    assert len(calls) == 1
    monkeypatch.undo()
    assert [bell_value(rho, result.directions) for rho, result in zip(rhos, results)] == [r.value for r in results]


def test_capped_simplex_reports_not_converged(monkeypatch):
    # five simplex iterations stop well short of the product state's maximum 4
    monkeypatch.setattr(optimize, "MAX_ITERATIONS", 5)
    result = maximize_bell([density(gghz(0.0))], restarts=12, seed=2)[0]
    assert result.value < 4.0 - 1e-3
    assert result.converged is False


def test_capped_row_beside_converged_row(monkeypatch):
    # the capped product state's rows run out of iterations; the constant objective of T = 0 converges at once
    monkeypatch.setattr(optimize, "MAX_ITERATIONS", 5)
    capped, flat = maximize_bell([density(gghz(0.0)), np.eye(8) / 8.0], restarts=12, seed=2)
    assert capped.converged is False
    assert capped.value == maximize_bell([density(gghz(0.0))], restarts=12, seed=2)[0].value < 4.0 - 1e-3
    assert flat.converged is True
    assert flat.value == 0.0
    assert flat.evaluations == 12 * 9  # each row's initial simplex only


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_numeric_chsh_below_horodecki(seed, rank):
    rho = random_density(np.random.default_rng(seed), 2, rank)
    result = maximize_bell([rho], restarts=2)[0]
    assert result.value <= horodecki_max(rho) + 1e-12
    assert abs(bell_value(rho, result.directions) - result.value) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 8))
def test_numeric_svetlichny_reproduced_by_directions(seed, rank):
    rho = random_density(np.random.default_rng(seed), 3, rank)
    result = maximize_bell([rho], restarts=2)[0]
    assert abs(bell_value(rho, result.directions) - result.value) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_grid_oracle_below_witnessed_maximum(seed, rank):
    rng = np.random.default_rng(seed)
    for modes, resolution in ((2, math.pi / 4.0), (3, math.pi / 2.0)):
        rho = random_density(rng, modes, rank)
        result = maximize_bell([rho], witness_resolution=resolution, restarts=1)[0]
        assert grid_oracle([rho], resolution)[0][0] <= result.value + 1e-12


@settings(max_examples=10, deadline=None)
@given(t1=st.floats(0.0, math.pi / 2.0), r=st.floats(0.0, math.pi / 4.0), seed=st.integers(0, 2**32 - 1))
def test_svetlichny_maximum_local_unitary_invariant(t1, r, seed):
    # U1 x U2 x U3 rotates each party's Bloch sphere, which the maximum over all settings absorbs
    rng = np.random.default_rng(seed)
    u = tensor(*(random_unitary(rng, 2) for _ in range(3)))
    rho = u @ apply_channel(density(gghz(t1)), 3, r) @ u.conj().T
    assert abs(maximize_bell([rho], restarts=12)[0].value - svetlichny_bound_gghz(t1, r).envelope) < 1e-6
