import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from accelbell.checks import operator_bell_value
from accelbell.entanglement import negativity, pi_tangle
from accelbell.linalg import density
from accelbell.nonlocality import (
    INEQUALITIES,
    VIOLATION_TOL,
    GAMMA_STAR,
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
from accelbell.optimize import maximize_bell
from accelbell.states import X_AXIS, Z_AXIS, gghz, maximal_slice, singlet, spin_observable
from accelbell.unruh import R_MAX, acceleration_parameter, apply_channel, dilate

from helpers import random_density, random_direction, random_directions, random_unitary

SQRT2 = math.sqrt(2.0)


def damped_singlet(r):
    return apply_channel(density(singlet()), 2, r)


def chsh_tsirelson_settings():
    minus = -(Z_AXIS + X_AXIS) / SQRT2
    other = (X_AXIS - Z_AXIS) / SQRT2
    return np.stack([Z_AXIS, X_AXIS, minus, other])


def test_correlation_singlet_axes():
    t = correlation_tensor(density(singlet()))
    assert abs(Z_AXIS @ t @ Z_AXIS + 1.0) < 1e-14
    assert abs(Z_AXIS @ t @ X_AXIS) < 1e-12
    assert abs(X_AXIS @ t @ X_AXIS + 1.0) < 1e-14


def test_correlation_damped_zz():
    for r in np.linspace(0.0, R_MAX, 9):
        got = Z_AXIS @ correlation_tensor(damped_singlet(float(r))) @ Z_AXIS
        assert abs(got + math.cos(r) ** 2) < 1e-13


def test_correlation_damped_law_general_angle():
    for r in np.linspace(0.0, R_MAX, 8):
        t = correlation_tensor(damped_singlet(float(r)))
        for theta in np.linspace(0.0, math.pi, 8):
            want = -math.cos(r) ** 2 * math.cos(theta)
            assert abs(Z_AXIS @ t @ [math.sin(theta), 0.0, math.cos(theta)] - want) < 1e-12


def test_correlation_of_a_stack_equals_single_state_calls(rng):
    rhos = np.stack([random_density(rng, 2, rank) for rank in (1, 2, 3, 4)] + [damped_singlet(0.3)])
    a, b = random_direction(rng), random_direction(rng)
    values = a @ correlation_tensor(rhos) @ b
    assert values.shape == (5,)
    assert isinstance(a @ correlation_tensor(rhos[0]) @ b, float)
    assert [a @ correlation_tensor(rho) @ b for rho in rhos] == list(values)
    assert (a @ correlation_tensor(rhos.reshape(5, 1, 4, 4)) @ b).shape == (5, 1)


def test_inequality_table_by_mode_count():
    chsh, svetlichny = INEQUALITIES[2], INEQUALITIES[3]
    assert (chsh.name, svetlichny.name) == ("CHSH", "Svetlichny")
    assert (chsh.classical_bound, svetlichny.classical_bound) == (2.0, 4.0)
    assert (chsh.quantum_max, svetlichny.quantum_max) == (2.0 * SQRT2, 4.0 * SQRT2)
    assert chsh.beta.shape == (2, 2) and svetlichny.beta.shape == (2, 2, 2)
    assert chsh.paulis.shape == (9, 16) and svetlichny.paulis.shape == (27, 64)
    # CHSH's beta weighs the singlet's Tsirelson settings to the table's quantum maximum
    assert abs(bell_value(density(singlet()), chsh_tsirelson_settings()) - chsh.quantum_max) < 1e-12


def test_violates_broadcasts_and_rejects_unknown_mode_counts():
    for modes, bound in ((2, 2.0), (3, 4.0)):
        assert violates(bound + 2.0 * VIOLATION_TOL, modes) is True
        assert violates(bound + 0.5 * VIOLATION_TOL, modes) is False
        assert violates(np.float64(bound), modes) is False
        flags = violates(np.array([[bound - 1.0, bound], [bound + 1e-8, math.nan]]), modes)
        assert flags.dtype == bool and flags.tolist() == [[False, False], [True, False]]
    assert violates(2.5, 2) and not violates(2.5, 3)
    assert violates([], 2).shape == (0,)
    for modes in (1, 4, True):
        with pytest.raises(ValueError, match="mode count .*: expected an integer in 2..3"):
            violates(3.0, modes)


def test_chsh_optimal_settings_reach_tsirelson():
    value = bell_value(density(singlet()), chsh_tsirelson_settings())
    assert abs(value - 2.0 * SQRT2) < 1e-12
    assert abs(value - bell_upper(density(singlet()))) < 1e-12


def test_evaluators_reject_values_above_quantum_maximum():
    # unit-trace and Hermitian but not positive, so the state check refuses them before any value is formed; it must
    # hold under python -O too
    with pytest.raises(ValueError, match="positive semidefinite"):
        bell_value(10.0 * density(singlet()) - 9.0 * np.eye(4) / 4.0, chsh_tsirelson_settings())
    with pytest.raises(ValueError, match="positive semidefinite"):
        bell_value(10.0 * density(gghz(0.0)) - 9.0 * np.eye(8) / 8.0, np.tile(Z_AXIS, (6, 1)))


def test_bell_value_rejects_settings_of_the_other_inequality():
    # the state's mode count picks the inequality, so the settings count is checked against it, not the trace
    with pytest.raises(ValueError, match="expected 6 directions"):
        bell_value(density(gghz(0.3)), chsh_tsirelson_settings())
    with pytest.raises(ValueError, match="expected 4 directions"):
        bell_value(density(singlet()), np.tile(Z_AXIS, (6, 1)))


def test_chsh_degenerate_settings_bounded():
    d = random_direction(np.random.default_rng(3))
    value = bell_value(density(singlet()), np.tile(d, (4, 1)))
    assert value <= 2.0 + 1e-12


def test_chsh_batched_matches_scalar(rng):
    rho = damped_singlet(0.37)
    dirs = np.stack([np.stack([random_direction(rng) for _ in range(4)]) for _ in range(10)])
    batched = bell_value(rho, dirs)
    for k in range(10):
        assert abs(batched[k] - bell_value(rho, dirs[k])) < 1e-14


def test_chsh_random_values_bounded(rng):
    for _ in range(1000):
        rho = random_density(rng, 2)
        dirs = np.stack([random_direction(rng) for _ in range(4)])
        assert bell_value(rho, dirs) <= INEQUALITIES[2].quantum_max + 1e-9
        assert -1.0 - 1e-12 <= dirs[0] @ correlation_tensor(rho) @ dirs[2] <= 1.0 + 1e-12


def test_restricted_equivalence(rng):
    for _ in range(100):
        r = float(rng.uniform(0.0, R_MAX))
        gamma = float(rng.uniform(0.0, math.pi))
        full = bell_value(damped_singlet(r), restricted_settings(gamma, r))
        assert abs(full - chsh_restricted(r, gamma)) < 1e-12


def test_restricted_family_reduces_to_coplanar_at_rest():
    # at r = 0 the realizing family is the coplanar one: primed vectors on
    # opposite sides of z in the x-z plane, a'/b' angle 2 gamma
    for gamma in (0.3, 1.0, 2.1):
        arr = restricted_settings(gamma)
        assert abs(arr[1] @ arr[3] - math.cos(2.0 * gamma)) < 1e-12
        assert np.max(np.abs(arr[:, 1])) < 1e-12  # x-z plane


def test_coplanar_family_offset_from_closed_form():
    # the literal coplanar settings see the a'/b' transverse correlation
    # damp as cos(r) instead of cos^2(r); for gamma <= pi/2 the offset from
    # the closed form is exactly (cos r - cos^2 r) sin^2 gamma
    for r in (0.0, 0.2, 0.5, R_MAX):
        rho = damped_singlet(r)
        for gamma in np.linspace(0.1, math.pi / 2.0, 7):
            actual = bell_value(rho, restricted_settings(float(gamma), 0.0))
            offset = (math.cos(r) - math.cos(r) ** 2) * math.sin(gamma) ** 2
            assert abs(actual - chsh_restricted(r, float(gamma)) - offset) < 1e-12


def test_coplanar_known_values():
    assert abs(chsh_restricted(0.0, 0.0) - 2.0) < 1e-15
    assert abs(chsh_restricted(0.0, math.pi / 3.0) - 2.5) < 1e-14
    r_t = math.acos(2.0 / math.sqrt(5.0))
    assert abs(chsh_restricted(r_t, math.pi / 3.0) - 2.0) < 1e-12


def test_coplanar_max_matches_scan():
    gammas = np.linspace(0.0, math.pi, 40001)
    for r in (0.0, 0.2, 0.4, R_MAX):
        scan = float(np.max(chsh_restricted(r, gammas)))
        closed = chsh_restricted_max(r)
        assert scan <= closed + 1e-12
        assert scan >= closed - 1e-7


def test_threshold_record():
    th = chsh_threshold()
    assert abs(th.a_t_over_omega_c - 2.0 * math.pi / math.log(4.0)) < 1e-12
    assert abs(th.cos2_rt - 0.8) < 1e-15
    assert abs(math.cos(th.r_t) ** 2 - 0.8) < 1e-14
    assert abs(th.gamma_star - GAMMA_STAR) < 1e-15
    assert abs(th.r_t - 0.46365) < 1e-5
    # definition consistency with the acceleration map
    assert abs(acceleration_parameter(math.log(4.0) / (2.0 * math.pi)) - th.r_t) < 1e-12
    # the restricted maximum saturates the classical bound exactly at r_t
    gammas = np.linspace(0.0, math.pi, 200001)
    assert abs(float(np.max(chsh_restricted(th.r_t, gammas))) - 2.0) < 1e-9


def test_restricted_violation_iff_threshold():
    th = chsh_threshold()
    gammas = np.linspace(0.0, math.pi, 4001)
    for r in np.linspace(0.0, th.r_t - 1e-3, 15):
        assert float(np.max(chsh_restricted(float(r), gammas))) > 2.0
    for r in np.linspace(th.r_t + 1e-3, R_MAX, 15):
        assert float(np.max(chsh_restricted(float(r), gammas))) <= 2.0


def test_horodecki_singlet_and_products(rng):
    assert abs(bell_upper(density(singlet())) - 2.0 * SQRT2) < 1e-12
    for _ in range(10):
        product = np.kron(random_density(rng, 1), random_density(rng, 1))
        assert bell_upper(product) <= 2.0 + 1e-9


def test_svetlichny_upper_known_states():
    # GHZ reaches the quantum maximum, |000> the classical bound, and the maximally mixed state has T = 0
    assert abs(bell_upper(density(gghz(math.pi / 4.0))) - 4.0 * SQRT2) < 1e-12
    assert abs(bell_upper(density(gghz(0.0))) - 4.0) < 1e-12
    assert bell_upper(np.eye(8) / 8.0) == 0.0
    assert isinstance(bell_upper(density(gghz(0.3))), float)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 8))
def test_svetlichny_upper_local_unitary_invariant_and_above_values(seed, rank):
    # U1 x U2 x U3 rotates each unfolding by orthogonal matrices, which keeps its singular values
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 3, rank)
    u = functools.reduce(np.kron, (random_unitary(rng, 2) for _ in range(3)))
    assert abs(bell_upper(u @ rho @ u.conj().T) - bell_upper(rho)) < 1e-12
    assert np.all(bell_value(rho, random_directions(rng, (64, 6))) <= bell_upper(rho) + 1e-12)


def test_horodecki_damped_singlet_closed_form():
    # T = diag(-cos r, -cos r, -cos^2 r) gives 2 sqrt(2) cos r
    for r in np.linspace(0.0, R_MAX, 10):
        got = bell_upper(damped_singlet(float(r)))
        assert abs(got - 2.0 * SQRT2 * math.cos(r)) < 1e-12


def test_svetlichny_product_all_z():
    rho = density(gghz(0.0))  # |000>
    dirs = np.tile(Z_AXIS, (6, 1))
    assert abs(bell_value(rho, dirs) - 4.0) < 1e-14


def test_svetlichny_degenerate_pairs_bounded(rng):
    # b = b' and a = a' collapses to a doubled three-party correlator
    for _ in range(20):
        rho = random_density(rng, 3)
        a, c, cp, b = (random_direction(rng) for _ in range(4))
        value = bell_value(rho, np.stack([a, a, c, cp, b, b]))
        assert value <= 4.0 + 1e-9


def test_svetlichny_swap_symmetry(rng):
    # swapping every pair (a<->a', c<->c', b<->b') maps the combination to
    # itself exactly, so |<S>| is unchanged
    rho = random_density(rng, 3)
    for _ in range(20):
        a, ap, c, cp, b, bp = (random_direction(rng) for _ in range(6))
        v1 = bell_value(rho, np.stack([a, ap, c, cp, b, bp]))
        v2 = bell_value(rho, np.stack([ap, a, cp, c, bp, b]))
        assert abs(v1 - v2) < 1e-12


def test_svetlichny_random_bounded(rng):
    for _ in range(300):
        rho = random_density(rng, 3)
        dirs = np.stack([random_direction(rng) for _ in range(6)])
        assert bell_value(rho, dirs) <= INEQUALITIES[3].quantum_max + 1e-9


def test_svetlichny_batched_matches_scalar(rng):
    rho = random_density(rng, 3)
    dirs = np.stack([np.stack([random_direction(rng) for _ in range(6)]) for _ in range(8)])
    batched = bell_value(rho, dirs)
    for k in range(8):
        assert abs(batched[k] - bell_value(rho, dirs[k])) < 1e-14


def test_gghz_bound_branches():
    ghz_inertial = svetlichny_bound_gghz(math.pi / 4.0, 0.0)
    assert ghz_inertial.branch == "equatorial"
    assert abs(ghz_inertial.bound - 4.0 * SQRT2) < 1e-12
    assert (ghz_inertial.axial_value / 4.0) ** 2 < 1e-15  # the axial weight

    separable = svetlichny_bound_gghz(0.0, 0.3)
    assert separable.branch == "axial"
    assert abs(separable.bound - 4.0 * math.cos(2.0 * 0.3)) < 1e-12
    assert abs(separable.equatorial_value) < 1e-15

    limit = svetlichny_bound_gghz(math.pi / 4.0, math.pi / 4.0)
    assert abs(limit.bound - 4.0) < 1e-12
    assert limit.envelope <= 4.0 + 1e-12


def test_gghz_bound_past_quarter_pi():
    # |111> at t1 = pi/2: all-z settings give 4 at every r
    for r in np.linspace(0.0, R_MAX, 5):
        ref = svetlichny_bound_gghz(math.pi / 2.0, float(r))
        assert abs(ref.bound - 4.0) < 1e-12 and abs(ref.envelope - 4.0) < 1e-12
    # the axial amplitude is -sin^2(3 pi/8) at (3 pi/8, pi/4); the branch value is its modulus
    ref = svetlichny_bound_gghz(3.0 * math.pi / 8.0, R_MAX)
    assert ref.branch == "axial"
    assert abs(ref.bound - (2.0 + SQRT2)) < 1e-12
    assert ref.envelope == ref.bound
    # t1 outside [0, pi/2] names the same state as its fold, so it has the same bounds
    for t1, folded in ((2.0, math.pi - 2.0), (-0.3, 0.3)):
        assert abs(svetlichny_bound_gghz(t1, 0.2).envelope - svetlichny_bound_gghz(folded, 0.2).envelope) < 1e-12
    # the branch rule compares weights, not values, so bound can sit below the maximum
    ref = svetlichny_bound_gghz(0.3, 0.2)
    assert ref.branch == "axial" and ref.bound < ref.envelope - 0.1


def test_gghz_bound_envelope_dominates():
    ref = svetlichny_bound_gghz(np.linspace(0.0, math.pi / 4.0, 9)[:, None], np.linspace(0.0, R_MAX, 9)[None, :])
    assert ref.envelope.shape == ref.branch.shape == (9, 9)
    assert np.all(ref.envelope >= ref.bound - 1e-15)
    assert np.array_equal(ref.envelope, np.maximum(ref.axial_value, ref.equatorial_value))


@settings(max_examples=40, deadline=None)
@given(points=st.lists(st.tuples(st.floats(-math.pi, 2.0 * math.pi), st.floats(0.0, R_MAX)), min_size=1, max_size=40))
@example(points=[(1.25, 0.0237851932747438)])  # a scalar cos(r) ** 2 once missed np.square's bits by 4.4e-16
def test_closed_forms_on_arrays_equal_scalar_calls(points):
    # one input form: an array call is its elementwise scalar calls, bit for bit
    t, r = (np.array(axis) for axis in zip(*points))
    for form in (chsh_restricted, *(functools.partial(svetlichny_bound_ms, mode=mode) for mode in (1, 2, 3))):
        args = (r, t) if form is chsh_restricted else (t, r)
        values = form(*args)
        assert values.shape == t.shape
        assert all(v == form(*(float(a[i]) for a in args)) for i, v in enumerate(values))
    assert all(v == chsh_restricted_max(float(x)) for v, x in zip(chsh_restricted_max(r), r))
    family = restricted_settings(t, r)
    assert family.shape == t.shape + (4, 3)
    assert all(np.array_equal(family[i], restricted_settings(float(t[i]), float(r[i]))) for i in range(len(t)))
    ref = svetlichny_bound_gghz(t, r)
    for i, (ti, ri) in enumerate(points):
        one = svetlichny_bound_gghz(ti, ri)
        assert isinstance(one.bound, float) and one.branch in ("axial", "equatorial")
        assert ref.branch[i] == one.branch
        for name in ("bound", "axial_value", "equatorial_value", "envelope"):
            assert getattr(ref, name)[i] == getattr(one, name)


def test_closed_forms_reject_r_outside_quarter_pi():
    # r lives in [0, pi/4]; past it the forms return numbers for no state (a negative
    # equatorial value at r = 2), so they raise, and so do the channel and the dilation
    for r in (-0.1, 2.0):
        for call in (
            lambda: chsh_restricted(r, GAMMA_STAR),
            lambda: chsh_restricted_max(r),
            lambda: restricted_settings(GAMMA_STAR, r),
            lambda: svetlichny_bound_gghz(0.3, r),
            lambda: svetlichny_bound_ms(0.3, r, 1),
            lambda: svetlichny_bound_ms(0.3, np.array([0.0, r]), 3),
            lambda: apply_channel(density(singlet()), 1, r),
            lambda: dilate(singlet(), 1, r),
        ):
            with pytest.raises(ValueError, match="outside"):
                call()
    assert svetlichny_bound_gghz(0.3, R_MAX + 1e-13).envelope > 0.0  # the channel's 1e-12 slack


def test_ms_pair_bound_values():
    for mode in (1, 2):
        assert abs(svetlichny_bound_ms(math.pi / 2.0, 0.0, mode) - 4.0 * SQRT2) < 1e-12
        for r in np.linspace(0.0, R_MAX, 7):
            assert abs(svetlichny_bound_ms(0.0, float(r), mode) - 4.0 * math.cos(r)) < 1e-12
        assert abs(svetlichny_bound_ms(math.pi / 2.0, math.pi / 4.0, mode) - 4.0) < 1e-12


def test_ms_slice_bound_values():
    assert abs(svetlichny_bound_ms(math.pi / 2.0, 0.0, 3) - 4.0 * SQRT2) < 1e-12
    assert abs(svetlichny_bound_ms(math.pi / 2.0, math.pi / 4.0, 3) - 4.0) < 1e-12
    assert abs(svetlichny_bound_ms(0.0, math.pi / 4.0, 3)) < 1e-12


def test_ms_damping_qubit1_equals_qubit2():
    # the maximal slice state is symmetric under swapping qubits 1 and 2,
    # so damping either pair qubit gives swap-related states and the pair
    # bound covers both; check the states directly
    from accelbell.linalg import density, mode_count, partial_transpose
    from accelbell.states import maximal_slice

    def swap12(rho):
        n = mode_count(rho.shape[0])
        t = rho.reshape((2,) * (2 * n))
        t = np.swapaxes(np.swapaxes(t, 0, 1), n, n + 1)
        return t.reshape(rho.shape)

    for t3 in (0.4, 1.0, math.pi / 2.0):
        for r in (0.2, R_MAX):
            rho1 = apply_channel(density(maximal_slice(t3)), 1, r)
            rho2 = apply_channel(density(maximal_slice(t3)), 2, r)
            assert np.max(np.abs(swap12(rho1) - rho2)) < 1e-14


def test_ms_bounds_monotone_and_violating():
    thetas = np.linspace(0.0, math.pi / 2.0, 25)
    rs = np.linspace(0.0, R_MAX, 13)
    for mode in (1, 2, 3):
        surface = svetlichny_bound_ms(thetas[None, :], rs[:, None], mode)
        assert np.all(np.diff(surface, axis=0) <= 1e-12)
        # violation achievable whenever r < pi/4: sin^2 t3 > tan^2 r
        r_edge = R_MAX - 0.01
        assert np.any(svetlichny_bound_ms(thetas, r_edge, mode) > 4.0)


def test_correlation_tensor_known_values():
    assert_allclose(correlation_tensor(density(singlet())), -np.eye(3), atol=1e-15)
    # GHZ: <XXX> = 1 and <XYY> = <YXY> = <YYX> = -1, every other entry zero
    want = np.zeros((3, 3, 3))
    want[0, 0, 0] = 1.0
    want[0, 1, 1] = want[1, 0, 1] = want[1, 1, 0] = -1.0
    assert_allclose(correlation_tensor(density(gghz(math.pi / 4.0))), want, atol=1e-15)


def test_correlation_tensor_rejects_other_shapes():
    for bad in (np.eye(2) / 2.0, np.eye(16) / 16.0, np.ones((4, 8))):
        with pytest.raises(ValueError, match="4x4 or 8x8 operator|square matrix"):
            correlation_tensor(bad)


def test_evaluators_reject_non_finite_input():
    rho2, rho3 = density(singlet()), density(gghz(0.3))
    dirs4, dirs6 = chsh_tsirelson_settings(), np.tile(Z_AXIS, (6, 1))
    for value in (math.nan, math.inf):
        bad2, bad3 = rho2.copy(), rho3.copy()
        bad2[1, 2] = bad3[0, 7] = value
        bad_dirs4, bad_dirs6 = dirs4.copy(), np.stack([dirs6] * 3)
        bad_dirs4[2, 0] = bad_dirs6[1, 4, 2] = value
        calls = [
            lambda: bell_value(bad2, dirs4),
            lambda: bell_value(rho2, bad_dirs4),
            lambda: bell_value(bad3, dirs6),
            lambda: bell_value(rho3, bad_dirs6),
            lambda: correlation_tensor(bad2),
            lambda: bell_upper(bad2),
            lambda: correlation_tensor(bad3),
            lambda: bell_upper(bad3),
            lambda: gghz(value),
            lambda: maximal_slice(value),
            lambda: chsh_restricted(value, 0.3),
            lambda: chsh_restricted(0.3, np.array([0.1, value])),
            lambda: chsh_restricted_max(value),
            lambda: restricted_settings(value),
            lambda: restricted_settings(0.3, value),
            lambda: svetlichny_bound_gghz(value, 0.1),
            lambda: svetlichny_bound_gghz(0.3, value),
            lambda: svetlichny_bound_ms(value, 0.1, 1),
            lambda: svetlichny_bound_ms(np.array([0.2, value]), 0.1, 3),
            lambda: svetlichny_bound_ms(0.2, np.array([0.1, value]), 3),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="non-finite"):
                call()
        # (theta, phi) pairs are not settings: a direction is a unit 3-vector only
        with pytest.raises(ValueError, match="expected 4 directions of dimension 3"):
            bell_value(rho2, np.array([[0.0, 0.0], [value, 0.0], [0.0, 0.0], [1.0, 0.0]]))


def test_state_entry_points_reject_non_states():
    # every state entry point checks shape, finiteness, Hermiticity, unit trace and positivity
    calls = {
        "and trace 20$": [lambda: bell_upper(5.0 * np.eye(4)), lambda: maximize_bell(5.0 * np.eye(4), restarts=1)],
        "and trace 12$": [lambda: negativity(3.0 * np.eye(4), 1)],
        "and trace 16$": [lambda: pi_tangle(2.0 * np.eye(8)), lambda: bell_upper(2.0 * np.eye(8))],
        "and trace 2$": [lambda: density([1.0, 1.0])],
        "non-finite": [lambda: apply_channel(np.full((4, 4), math.nan), 1, 0.1), lambda: density([math.nan, 0.0])],
        "not Hermitian": [lambda: apply_channel(np.triu(np.ones((4, 4))) / 4.0, 1, 0.1)],
        "exceeds the supported maximum": [lambda: apply_channel(np.eye(32) / 32.0, 1, 0.1)],
        "state of one or more modes": [
            lambda: apply_channel(np.eye(1), 1, 0.1),
            lambda: negativity(np.eye(1), 1),
            lambda: correlation_tensor(np.eye(1)),
            lambda: density([1.0]),
        ],
        "3-mode state": [lambda: pi_tangle(density(singlet()))],
    }
    for message, group in calls.items():
        for call in group:
            with pytest.raises(ValueError, match=message):
                call()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), modes=st.sampled_from([2, 3]), data=st.data())
def test_valid_states_give_finite_values(seed, modes, data):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, modes, data.draw(st.integers(1, 2**modes), label="rank"))
    values = [bell_value(rho, random_directions(rng, (2 * modes,))), maximize_bell(rho, restarts=1).value]
    values += [negativity(rho, mode) for mode in range(1, modes + 1)] + [bell_upper(rho)]
    if modes == 3:
        tangle = pi_tangle(rho)
        values += [tangle.pi, tangle.pi_1, tangle.pi_2, tangle.pi_3]
    assert np.isfinite(values).all()


def test_evaluators_reject_non_hermitian_input():
    # the real part of Tr[rho sigma x sigma] alone would read 1j * ones as T = 0
    bad2, bad3 = 1j * np.ones((4, 4)), 1j * np.ones((8, 8))
    calls = [
        lambda: correlation_tensor(bad2),
        lambda: correlation_tensor(bad3),
        lambda: bell_value(bad2, chsh_tsirelson_settings()),
        lambda: bell_value(bad3, np.tile(Z_AXIS, (6, 1))),
        lambda: bell_upper(bad2),
        lambda: maximize_bell(bad2, restarts=1),
        lambda: maximize_bell(bad3, restarts=1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="not Hermitian"):
            call()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4), modes=st.sampled_from([2, 3]))
def test_tensor_evaluators_equal_operator_trace(seed, rank, modes):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, modes, rank)
    dirs = random_directions(rng, (8, 2 * modes))
    batched = bell_value(rho, dirs)
    for k in range(dirs.shape[0]):
        reference = operator_bell_value(rho, dirs[k])
        assert abs(bell_value(rho, dirs[k]) - reference) < 1e-12
        assert abs(batched[k] - reference) < 1e-12
    if modes == 2:
        a, b = dirs[0, 0], dirs[0, 2]
        pair = np.kron(spin_observable(a), spin_observable(b))
        assert abs(a @ correlation_tensor(rho) @ b - np.trace(rho @ pair).real) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_horodecki_local_unitary_invariant(seed, rank):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 2, rank)
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    assert abs(bell_upper(u @ rho @ u.conj().T) - bell_upper(rho)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_chsh_never_exceeds_horodecki(seed, rank):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 2, rank)
    assert np.all(bell_value(rho, random_directions(rng, (64, 4))) <= bell_upper(rho) + 1e-12)
