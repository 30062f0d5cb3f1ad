import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accelbell import nonlocality, optimize
from accelbell.linalg import density
from accelbell.nonlocality import (
    bell_upper,
    bell_value,
    correlation_tensor,
    svetlichny_bound_gghz,
)
from accelbell.optimize import BudgetError, grid_oracle, maximize_bell
from accelbell.states import gghz, singlet
from accelbell.unruh import apply_channel

from helpers import grid_search_reference, random_density, random_unitary

SQRT2 = math.sqrt(2.0)


def test_grid_oracle_pole_on_lattice(rng):
    # the product states' maxima 2 and 4 sit at the pole z, a lattice point
    assert abs(grid_oracle(density(np.eye(4)[0]), math.pi / 4.0)[0] - 2.0) < 1e-15
    value, setting = grid_oracle(density(gghz(0.0)), math.pi / 2.0)
    assert abs(value - 4.0) < 1e-15
    assert abs(bell_value(density(gghz(0.0)), setting) - value) < 1e-15
    # the pi lattice's directions are z and exactly -z, so its maximum is exactly 2 |T_zz| or 4 |T_zzz|; the singlet's
    # T_zz is -0.9999999999999998, as 1/sqrt(2) squared rounds below 1/2
    t = correlation_tensor(density(singlet()))
    assert grid_oracle(density(singlet()), math.pi)[0] == 2.0 * abs(t[2, 2]) == 1.9999999999999996
    for modes in (2, 3) * 4:
        rho = random_density(rng, modes, 2)
        assert grid_oracle(rho, math.pi)[0] == 2.0 ** (modes - 1) * abs(correlation_tensor(rho)[(2,) * modes])


@pytest.mark.parametrize("steps", [1, 2, 3, 4])
def test_lattice_antipodes_are_exact_negations(steps):
    # the antipode of (theta, phi) is (pi - theta, phi + pi): the lower index of each pair is in H, built from its
    # angles, and the other one's direction is its exact negation
    resolution = math.pi / steps
    angles, dirs, half, order = optimize._lattice(resolution)
    theta, phi = np.divmod(np.arange(len(dirs)), 2 * steps)
    antipode = (steps - theta) * 2 * steps + (phi + steps) % (2 * steps)
    assert np.array_equal(half, np.flatnonzero(np.arange(len(dirs)) < antipode)) and 2 * len(half) == len(dirs)
    assert np.array_equal(dirs[antipode], -dirs)
    assert np.array_equal(dirs[half], optimize._angles_to_directions(angles[half]))
    assert np.allclose(optimize._angles_to_directions(angles), dirs, rtol=0.0, atol=1e-15)


def test_grid_oracle_resolution_must_divide_pi():
    for resolution in (1.0, 0.0, -math.pi / 4.0, math.nan, math.inf, 5e-324):  # pi / 5e-324 overflows to inf
        with pytest.raises(ValueError):
            grid_oracle(density(singlet()), resolution)


def test_grid_oracle_budget_rejected():
    # the scan makes 3 n^3 / 2 sums for CHSH and 3 n^5 / 4 for Svetlichny on an n-point lattice: a pi/16 lattice
    # (n = 17*32) needs ~2.4e8 for CHSH, pi/8 (n = 9*16) ~4.6e10 for Svetlichny, and pi/5 (n = 6*10) ~5.8e8 for
    # Svetlichny; each exceeds 1e8
    with pytest.raises(BudgetError):
        grid_oracle(density(singlet()), math.pi / 16.0)
    with pytest.raises(BudgetError):
        grid_oracle(density(gghz(0.0)), math.pi / 8.0)
    with pytest.raises(BudgetError):
        grid_oracle(density(gghz(0.0)), math.pi / 5.0)
    # pi/4 for Svetlichny (n = 5*8) needs ~7.7e7 and is admitted; its chunks bound the memory of the scan
    tracemalloc.start()
    try:
        value = grid_oracle(apply_channel(density(gghz(0.5)), 3, 0.3), math.pi / 4.0)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value - svetlichny_bound_gghz(0.5, 0.3).envelope) < 1e-12
    assert peak <= 64 * 2**20
    # the budget is checked before the lattice is built: pi/500 would need a 501000-point lattice
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            grid_oracle(density(singlet()), math.pi / 500.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# (modes, resolution) of each lattice the scan is checked on
_SCAN_LATTICES = ((2, math.pi / 4.0), (2, math.pi / 2.0), (3, math.pi), (3, math.pi / 2.0))


def test_projected_tensor_matches_contraction(rng):
    # T at every lattice direction, though only H's columns are computed; a few ulps of T's contraction apart
    for modes, resolution in _SCAN_LATTICES:
        t = correlation_tensor(random_density(rng, modes))
        angles, dirs, half, order = optimize._lattice(resolution)
        operands = ("ij,ai,bj->ab", t, dirs, dirs) if modes == 2 else ("ijk,ai,cj,bk->acb", t, dirs, dirs, dirs)
        assert np.allclose(optimize._projected(t, dirs, half, order, modes), np.einsum(*operands), rtol=0.0, atol=1e-14)


def _assert_scan_matches_reference(t, resolution):
    values, angles, _ = optimize._grid_search(t[None], t.ndim, resolution)  # a stack of one
    ref_value, ref_angles = grid_search_reference(t, resolution)
    assert values[0] == ref_value
    assert np.array_equal(angles[0], ref_angles)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_grid_search_matches_per_point_scan(seed, rank):
    # the max/min scan over a' gives the reference loop's value and angles bit for bit
    rng = np.random.default_rng(seed)
    for modes, resolution in _SCAN_LATTICES:
        _assert_scan_matches_reference(correlation_tensor(random_density(rng, modes, rank)), resolution)


_TIE_STATES = [
    density(singlet()), density(np.eye(4)[0]), density(gghz(math.pi / 4.0)), density(gghz(0.0)),
    apply_channel(density(gghz(math.pi / 8.0)), 3, 0.0), apply_channel(density(gghz(math.pi / 8.0)), 3, math.pi / 4.0),
]


@pytest.mark.parametrize("rho", _TIE_STATES, ids=["singlet", "00", "ghz", "000", "gghz-r0", "gghz-r-quarter-pi"])
def test_grid_search_ties_match_per_point_scan(rho):
    # symmetric states reach their lattice maximum at many lattice points: the lowest C-order one must win
    for modes, resolution in _SCAN_LATTICES:
        if 2**modes == len(rho):
            _assert_scan_matches_reference(correlation_tensor(rho), resolution)


@pytest.mark.parametrize("chunk", [optimize._CHUNK, 1, 5000], ids=["one-chunk", "one-outer", "partial-last"])
def test_grid_search_ties_across_chunks_match_per_point_scan(chunk, monkeypatch):
    # the tie rule holds across chunks: one outer index of the later tuples per chunk, or a few of them in chunks of
    # unequal lengths.  Besides the symmetric states, a T of -1, 0 and 1 ties at many tuples, and a later chunk often
    # reaches a's maximum at a lower a' than an earlier one; the scan takes any real T, not only a state's
    monkeypatch.setattr(optimize, "_CHUNK", chunk)
    rng = np.random.default_rng(0)
    for modes, resolution in _SCAN_LATTICES:
        tensors = [correlation_tensor(rho) for rho in _TIE_STATES if len(rho) == 2**modes]
        for t in tensors + [rng.integers(-1, 2, size=(3,) * modes).astype(float) for _ in range(8)]:
            _assert_scan_matches_reference(t, resolution)


def test_grid_search_stack_matches_per_state_calls(rng):
    # the lattice is built once per call; each state of the stack still gets its own scan, bit for bit
    for modes, resolution in _SCAN_LATTICES:
        ts = np.stack([correlation_tensor(random_density(rng, modes, rank)) for rank in (1, 2, 4)])
        values, angles, _ = optimize._grid_search(ts, modes, resolution)
        assert values.shape == (3,) and angles.shape == (3, 4 * modes)
        for t, value, row in zip(ts, values, angles):
            one_value, one_angles, _ = optimize._grid_search(t[None], modes, resolution)
            assert value == one_value[0]
            assert np.array_equal(row, one_angles[0])


def test_grid_oracle_chsh_contains_optimum():
    # the pi/4 lattice contains the exact CHSH maximizers of the singlet
    value, setting = grid_oracle(density(singlet()), math.pi / 4.0)
    assert value >= 2.80
    assert abs(value - 2.0 * SQRT2) < 1e-12
    assert abs(bell_value(density(singlet()), setting) - value) < 1e-12


def test_grid_oracle_svetlichny_product_bounded():
    value, _ = grid_oracle(density(gghz(0.0)), math.pi / 2.0)
    assert value <= 4.0 + 1e-12


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lead=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       modes=st.sampled_from([2, 3]))
def test_grid_oracle_stack_rows_equal_single_state_calls(seed, lead, modes):
    # a (3, 4, 4) stack is three CHSH states, not one three-mode tensor: each row is its state's lone call
    rng = np.random.default_rng(seed)
    rhos = np.stack([random_density(rng, modes, int(rng.integers(1, 5))) for _ in range(math.prod(lead))])
    rhos = rhos.reshape(tuple(lead) + rhos.shape[1:])
    for resolution in (math.pi / 2.0, math.pi) if modes == 2 else (math.pi,):
        values, directions = grid_oracle(rhos, resolution)
        assert values.shape == tuple(lead) and directions.shape == tuple(lead) + (2 * modes, 3)
        assert np.all(values <= nonlocality.INEQUALITIES[modes].quantum_max + 1e-12)
        for index in np.ndindex(*lead):
            one_value, one_setting = grid_oracle(rhos[index], resolution)
            assert isinstance(one_value, float) and one_setting.shape == (2 * modes, 3)
            assert values[index] == one_value
            assert np.array_equal(directions[index], one_setting)
            assert abs(bell_value(rhos[index], one_setting) - one_value) < 1e-12
    # an empty stack gives empty fields; an empty list has no operator shape
    empty = np.empty((2, 0) + rhos.shape[-2:])
    assert grid_oracle(empty, math.pi)[0].shape == (2, 0)
    assert grid_oracle(empty[0], math.pi)[1].shape == (0, 2 * modes, 3)
    for bad in ([], np.empty((0, 2, 2)), np.empty((0, 16, 16))):
        with pytest.raises(ValueError, match="operator|square matrix"):
            grid_oracle(bad, math.pi)


def test_determinism_bit_identical():
    rho = apply_channel(density(singlet()), 2, 0.3)
    first = maximize_bell(rho, restarts=6, seed=42)
    second = maximize_bell(rho, restarts=6, seed=42)
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
    never = np.array([-math.inf])  # one state of three starts, with a goal no value reaches
    assert (optimize._nelder_mead(fn, x0[None], np.full(3, 0.35), never)[1][0] <= fn(None, x0)).all()


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lead=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       restarts=st.integers(1, 6), witness=st.booleans(), modes=st.sampled_from([2, 3]))
def test_stacked_maximizer_matches_per_point_calls(seed, lead, restarts, witness, modes):
    # a point's (point, start) rows step in lockstep with other points' rows and must not feel them
    rng = np.random.default_rng(seed)
    rhos = np.stack([random_density(rng, modes, int(rng.integers(1, 5))) for _ in range(math.prod(lead))])
    rhos = rhos.reshape(tuple(lead) + rhos.shape[1:])
    resolution = (math.pi / 4.0 if modes == 2 else math.pi / 2.0) if witness else None
    stacked = maximize_bell(rhos, resolution, restarts=restarts, seed=seed)
    assert stacked.directions.shape == tuple(lead) + (2 * modes, 3)
    for index in np.ndindex(*lead):
        single = maximize_bell(rhos[index], resolution, restarts=restarts, seed=seed)
        assert (type(single.value), type(single.evaluations), type(single.converged), type(single.certified)) == (
            float, int, bool, bool)
        assert stacked.value[index] == single.value
        assert np.array_equal(stacked.directions[index], single.directions)
        assert stacked.evaluations[index] == single.evaluations
        assert stacked.converged[index] == single.converged
        assert stacked.certified[index] == single.certified


def test_value_dominates_grid_witness(rng):
    rho = random_density(rng, 3)
    result = maximize_bell(rho, witness_resolution=math.pi / 2.0, restarts=16, seed=7)
    oracle_value = grid_oracle(rho, math.pi / 2.0)[0]
    # lattice witness minus a Lipschitz slack for the lattice spacing
    assert result.value >= oracle_value - 0.05
    assert result.value >= oracle_value - 1e-9  # the witness is also a simplex start


def test_constant_objective_tie_break():
    # T = 0 makes |X_0| + |X_1| constant: every restart ties and the first one wins
    result = maximize_bell(np.eye(4) / 4.0, restarts=5, seed=3)
    first_start = optimize._angles_to_directions(optimize._sample_start(np.random.default_rng(3), 2))
    assert result.value == 0.0
    assert np.array_equal(result.directions[2:], first_start)


def test_non_finite_objective_rejected():
    # a unit-trace Hermitian operator whose correlation tensor would overflow; it is not positive, so the state check
    # refuses it before the objective runs
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="positive semidefinite"):
        maximize_bell(np.diag([1e308, -1e308, 0.5, 0.5]), restarts=1)


def test_maximize_chsh_singlet():
    value = maximize_bell(density(singlet()), restarts=12, seed=2).value
    assert abs(value - 2.0 * SQRT2) < 1e-6


def test_maximize_chsh_product_state():
    rho = density(np.array([1, 0, 0, 0], dtype=complex))
    result = maximize_bell(rho, restarts=12, seed=2)
    assert abs(result.value - 2.0) < 1e-6
    assert result.converged


def test_maximize_chsh_zero_tensor():
    # T = 0: both first-party fields vanish, so a and a' fall back to z
    result = maximize_bell(np.eye(4) / 4.0, restarts=2)
    assert result.value == 0.0
    assert np.array_equal(result.directions[:2], [[0.0, 0.0, 1.0]] * 2)


def test_maximize_chsh_witness_included():
    rho = density(singlet())
    value = maximize_bell(rho, witness_resolution=math.pi / 4.0, restarts=6, seed=2).value
    assert abs(value - 2.0 * SQRT2) < 1e-9


def test_maximize_chsh_frame_rotation_invariant(rng):
    rho = density(singlet())
    base = maximize_bell(rho, restarts=12, seed=9).value
    for _ in range(3):
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        assert abs(maximize_bell(rotated, restarts=12, seed=9).value - base) < 1e-6


def test_maximize_svetlichny_ghz():
    rho = density(gghz(math.pi / 4.0))
    result = maximize_bell(rho, restarts=20, seed=4)
    assert abs(result.value - 4.0 * SQRT2) < 1e-6
    # the returned settings reproduce the reported value
    assert abs(bell_value(rho, result.directions) - result.value) < 1e-12


def test_maximize_svetlichny_product():
    rho = density(gghz(0.0))
    result = maximize_bell(rho, restarts=12, seed=4)
    assert abs(result.value - 4.0) < 1e-6


def test_maximize_svetlichny_gghz_past_quarter_pi():
    # past pi/4 the closed form needs the moduli |2 cos^2 t1 cos^2 r - 1| and |sin 2 t1|
    for t1, r in ((3.0 * math.pi / 8.0, math.pi / 4.0), (1.3, 0.1), (math.pi / 2.0, 0.0), (2.0, 0.0)):
        numeric = maximize_bell(apply_channel(density(gghz(t1)), 3, r), restarts=8, seed=1).value
        assert abs(numeric - svetlichny_bound_gghz(t1, r).envelope) < 1e-6


def test_config_validation():
    rho = density(singlet())
    # a bool is an int to Python, but not a count or a seed
    for restarts in (0, -1, 2.5, "4", True, False, np.True_):
        with pytest.raises(ValueError, match="restarts"):
            maximize_bell(rho, restarts=restarts)
    for seed in (-1, 1.5, None, True, False, np.False_):
        with pytest.raises(ValueError, match="seed"):
            maximize_bell(rho, restarts=1, seed=seed)
    # the matrix size picks the inequality: one size per stack, 4x4 or 8x8 only
    with pytest.raises(ValueError, match="inhomogeneous shape"):
        maximize_bell([rho, density(gghz(0.3))], restarts=1)
    for rhos in ([np.eye(2) / 2.0], [np.eye(16) / 16.0], np.empty((0, 2, 2))):
        with pytest.raises(ValueError, match="operator"):
            maximize_bell(rhos, restarts=1)
    with pytest.raises(ValueError, match="square matrix"):  # an empty list has no operator shape
        maximize_bell([], restarts=1)
    # a stack is an array or a list; an iterator or a generator is not read as one
    for rhos in (iter([rho]), (state for state in [rho])):
        with pytest.raises(ValueError, match="expected numbers for matrix, got (list_iterator|generator)"):
            maximize_bell(rhos, restarts=1)


def test_each_state_checked_once(monkeypatch, rng):
    # the stack is checked in one call, and the final values come from its T, not from a second check
    calls = []
    checked = nonlocality._state
    monkeypatch.setattr(nonlocality, "_state", lambda *args: calls.append(1) or checked(*args))
    rhos = [random_density(rng, 2, 2) for _ in range(64)]
    results = maximize_bell(rhos, restarts=1, seed=3)
    assert len(calls) == 1
    monkeypatch.undo()
    assert [bell_value(rho, directions) for rho, directions in zip(rhos, results.directions)] == list(results.value)


def test_capped_simplex_reports_not_converged(monkeypatch):
    # five simplex iterations stop well short of the product state's maximum 4
    monkeypatch.setattr(optimize, "MAX_ITERATIONS", 5)
    result = maximize_bell(density(gghz(0.0)), restarts=12, seed=2)
    assert result.value < 4.0 - 1e-3
    assert result.converged is False


def test_capped_row_beside_converged_row(monkeypatch):
    # the capped product state's rows run out of iterations; the constant objective of T = 0 converges at once
    monkeypatch.setattr(optimize, "MAX_ITERATIONS", 5)
    result = maximize_bell(np.stack([density(gghz(0.0)), np.eye(8) / 8.0]), restarts=12, seed=2)
    (capped, flat), (capped_converged, flat_converged) = result.value, result.converged
    assert not capped_converged
    assert capped == maximize_bell(density(gghz(0.0)), restarts=12, seed=2).value < 4.0 - 1e-3
    assert flat_converged
    assert flat == 0.0
    assert result.evaluations[1] == 12 * 9  # each row's initial simplex only


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_numeric_chsh_below_horodecki(seed, rank):
    rho = random_density(np.random.default_rng(seed), 2, rank)
    result = maximize_bell(rho, restarts=2)
    assert result.value <= bell_upper(rho) + 1e-12
    assert abs(bell_value(rho, result.directions) - result.value) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 8))
def test_numeric_svetlichny_reproduced_by_directions(seed, rank):
    rho = random_density(np.random.default_rng(seed), 3, rank)
    result = maximize_bell(rho, restarts=2)
    assert abs(bell_value(rho, result.directions) - result.value) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 8), size=st.integers(1, 3))
@example(seed=5, rank=4, size=3)  # a stack of three: unfolding its leading axis instead of a mode axis gives no error
def test_numeric_svetlichny_below_upper_bound(seed, rank, size):
    rng = np.random.default_rng(seed)
    rhos = np.stack([random_density(rng, 3, rank) for _ in range(size)])
    upper = bell_upper(rhos)
    result = maximize_bell(rhos, restarts=2)
    assert np.all(result.value <= upper + 1e-12)
    assert np.array_equal(result.certified, result.value >= upper - optimize.TOLERANCE)


def test_certified_on_tight_references():
    # the numeric workload's GGHZ grid, where the bound is the envelope, and damped singlets away from r = 0
    t1s, rs = (axis.ravel() for axis in np.meshgrid(np.linspace(math.pi / 16.0, math.pi / 4.0, 2),
                                                    np.linspace(0.0, math.pi / 4.0, 3), indexing="ij"))
    for seed in (1, 5, 7):
        result = maximize_bell(apply_channel(density(gghz(t1s)), 3, rs), restarts=8, seed=seed)
        assert np.all(result.certified & result.converged)
        rhos = apply_channel(density(singlet()), 2, np.linspace(0.2, math.pi / 4.0, 8))
        result = maximize_bell(rhos, restarts=16, seed=seed)
        assert np.all(result.certified)
        assert np.all(np.abs(result.value - bell_upper(rhos)) <= optimize.TOLERANCE)


def test_degenerate_optimum_not_certified():
    # the damped singlet near r = 0: the simplex's value spread closes 2.5e-9 below the Horodecki value
    rho = apply_channel(density(singlet()), 2, 1.06e-4)
    result = maximize_bell(rho, restarts=16, seed=1)
    assert result.converged and not result.certified
    assert 1e-9 < bell_upper(rho) - result.value < 1e-8


def test_certified_state_retires_its_rows():
    # the witness of the singlet sits on the Horodecki maximum, so every row stops at the first iteration
    rho = density(singlet())
    witnessed = maximize_bell(rho, math.pi / 4.0, restarts=4, seed=2)
    assert witnessed.certified and witnessed.converged
    assert witnessed.evaluations == 5 * 5  # each row's initial simplex only
    assert maximize_bell(rho, restarts=4, seed=2).evaluations > witnessed.evaluations


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_grid_oracle_below_witnessed_maximum(seed, rank):
    rng = np.random.default_rng(seed)
    for modes, resolution in ((2, math.pi / 4.0), (3, math.pi / 2.0)):
        rho = random_density(rng, modes, rank)
        result = maximize_bell(rho, witness_resolution=resolution, restarts=1)
        assert grid_oracle(rho, resolution)[0] <= result.value + 1e-12


@settings(max_examples=10, deadline=None)
@given(t1=st.floats(0.0, math.pi / 2.0), r=st.floats(0.0, math.pi / 4.0), seed=st.integers(0, 2**32 - 1))
def test_svetlichny_maximum_local_unitary_invariant(t1, r, seed):
    # U1 x U2 x U3 rotates each party's Bloch sphere, which the maximum over all settings absorbs
    rng = np.random.default_rng(seed)
    u = functools.reduce(np.kron, (random_unitary(rng, 2) for _ in range(3)))
    rho = u @ apply_channel(density(gghz(t1)), 3, r) @ u.conj().T
    assert abs(maximize_bell(rho, restarts=12).value - svetlichny_bound_gghz(t1, r).envelope) < 1e-6
