"""The one state form: a stack (..., d, d) gives, row by row, exactly what each state gives alone."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelbell import cli, entanglement, linalg, nonlocality, optimize, states, unruh
from accelbell.cli import SweepSpec, run_sweep
from accelbell.entanglement import negativity, pi_tangle
from accelbell.linalg import density, partial_trace, partial_transpose
from accelbell.nonlocality import (
    bell_upper,
    bell_value,
    chsh_restricted,
    chsh_restricted_max,
    correlation_tensor,
    restricted_settings,
    svetlichny_bound_gghz,
    svetlichny_bound_ms,
)
from accelbell.optimize import maximize_bell
from accelbell.states import gghz, maximal_slice, singlet
from accelbell.unruh import R_MAX, apply_channel, dilate

from helpers import random_density, random_directions


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), modes=st.sampled_from([2, 3]), rank=st.integers(1, 4),
       size=st.integers(1, 4), data=st.data())
def test_stack_rows_equal_single_state_calls(seed, modes, rank, size, data):
    rng = np.random.default_rng(seed)
    rhos = np.stack([random_density(rng, modes, rank) for _ in range(size)])
    rs = rng.uniform(0.0, R_MAX, size)
    mode = data.draw(st.integers(1, modes), label="mode")
    damped = apply_channel(rhos, mode, rs)
    assert damped.shape == rhos.shape
    dirs = random_directions(rng, (size, 2 * modes))
    tensors, values = correlation_tensor(damped), bell_value(damped, dirs)
    result = maximize_bell(damped, restarts=1, seed=seed % 1000)
    upper = bell_upper(damped)
    reduced, transposed = partial_trace(damped, mode), partial_transpose(damped, mode)
    negativities = [negativity(damped, cut) for cut in range(1, modes + 1)]
    tangle = pi_tangle(damped) if modes == 3 else None
    for i in range(size):
        rho = apply_channel(rhos[i], mode, rs[i])
        assert np.array_equal(damped[i], rho)
        assert np.array_equal(tensors[i], correlation_tensor(rho))
        assert values[i] == bell_value(rho, dirs[i])
        assert upper[i] == bell_upper(rho)
        assert np.array_equal(reduced[i], partial_trace(rho, mode))
        assert np.array_equal(transposed[i], partial_transpose(rho, mode))
        assert [by_cut[i] for by_cut in negativities] == [negativity(rho, cut) for cut in range(1, modes + 1)]
        if tangle is not None:
            assert [field[i] for field in vars(tangle).values()] == list(vars(pi_tangle(rho)).values())
        alone = maximize_bell(rho, restarts=1, seed=seed % 1000)
        assert result.value[i] == alone.value
        assert np.array_equal(result.directions[i], alone.directions)
        assert (result.evaluations[i], result.converged[i], result.certified[i]) == (
            alone.evaluations, alone.converged, alone.certified)


@settings(max_examples=25, deadline=None)
@given(angles=st.lists(st.floats(-math.pi, 2.0 * math.pi), min_size=1, max_size=12), data=st.data())
def test_state_builders_on_arrays_equal_scalar_calls(angles, data):
    t = np.array(angles)
    rs = np.array(data.draw(st.lists(st.floats(0.0, R_MAX), min_size=len(angles), max_size=len(angles)), label="rs"))
    for build, mode in ((gghz, 3), (maximal_slice, 1), (maximal_slice, 3)):
        kets = build(t)
        assert kets.shape == (len(angles), 8)
        damped = apply_channel(density(kets), mode, rs)
        tangle = pi_tangle(damped)  # the sweep's states: each row as its lone call gives it, bit for bit
        for i in range(len(angles)):
            assert np.array_equal(kets[i], build(float(t[i])))
            rho = apply_channel(density(build(float(t[i]))), mode, float(rs[i]))
            assert np.array_equal(damped[i], rho)
            assert [field[i] for field in vars(tangle).values()] == list(vars(pi_tangle(rho)).values())
    # the singlet builder ignores its parameter: the channel broadcasts one state against the r axis
    damped = apply_channel(density(singlet()), 2, rs)
    assert all(np.array_equal(damped[i], apply_channel(density(singlet()), 2, float(r))) for i, r in enumerate(rs))


def test_leading_axes_broadcast():
    # a (2, 1) stack of states against three r values gives a (2, 3) stack; one state and one setting give a float
    rhos = density(gghz(np.array([[0.2], [0.7]])))
    damped = apply_channel(rhos, 3, np.array([0.0, 0.3, R_MAX]))
    assert damped.shape == (2, 3, 8, 8)
    assert np.array_equal(damped[1, 2], apply_channel(density(gghz(0.7)), 3, R_MAX))
    assert correlation_tensor(damped).shape == (2, 3, 3, 3, 3)
    assert bell_value(damped, np.tile([0.0, 0.0, 1.0], (6, 1))).shape == (2, 3)
    assert bell_upper(damped).shape == (2, 3)  # only the three mode axes are unfolded
    assert bell_upper(damped)[1, 2] == bell_upper(damped[1, 2])
    assert isinstance(bell_upper(density(singlet())), float)
    assert isinstance(bell_value(density(singlet()), np.tile([0.0, 0.0, 1.0], (4, 1))), float)
    tangle = pi_tangle(damped)
    assert tangle.pi.shape == tangle.pi_1.shape == tangle.pi_2.shape == tangle.pi_3.shape == (2, 3)
    assert negativity(damped, 2).shape == (2, 3)
    # a Python float, not a numpy scalar
    assert all(type(field) is float for field in vars(pi_tangle(damped[1, 2])).values())
    assert type(negativity(damped[1, 2], 2)) is float and type(negativity(density(singlet()), 1)) is float


def test_stack_check_names_the_worst_trace():
    # one pass over the stack: the message reports the trace furthest from 1, whichever row holds it
    rhos = np.stack([np.eye(4) / 4.0, 1.5 * np.eye(4) / 4.0, 0.2 * np.eye(4) / 4.0])
    with pytest.raises(ValueError, match="shape \\(3, 4, 4\\) and trace 0.2$"):
        correlation_tensor(rhos)
    rhos[0, 0, 1] = 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        bell_upper(rhos)
    rhos = np.stack([np.eye(4) / 4.0] * 2)
    rhos[1, 2, 2] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        apply_channel(rhos, 1, 0.1)
    with pytest.raises(ValueError, match="non-finite"):
        density(np.array([[1.0, 0.0], [math.nan, 0.0]]))


def test_sweep_block_checked_once_per_step(monkeypatch):
    # density, the channel and bell_upper each check a 64-point block in one call
    calls, reads = [], []
    for module in (linalg, unruh, nonlocality, entanglement):
        checked = module._state
        monkeypatch.setattr(module, "_state", lambda *args, checked=checked: calls.append(1) or checked(*args))
    numbers = linalg._numbers
    monkeypatch.setattr(linalg, "_numbers", lambda *args, **kwargs: reads.append(1) or numbers(*args, **kwargs))
    spec = SweepSpec(state="singlet", param_start=0.0, param_stop=0.0, param_steps=1, r_start=0.0,
                     r_stop=R_MAX, r_steps=cli.BLOCK, mode=2, columns=("chsh_restricted_max", "chsh_horodecki"))
    run_sweep(spec)
    assert len(calls) == 3
    counts = {}
    for other in ("svetlichny_envelope", "pi_tangle"):
        calls.clear(), reads.clear()
        run_sweep(SweepSpec(state="gghz", param_start=0.0, param_stop=1.0, param_steps=8, r_start=0.0, r_stop=R_MAX,
                            r_steps=8, mode=3, columns=("svetlichny_bound", other)))
        counts[other] = len(calls), len(reads)
    assert counts["svetlichny_envelope"][0] == 2
    # pi_tangle takes the channel's output of the checked block unread: no state of the block is checked again, and
    # its nine partial traces and transposes read none again
    assert counts["pi_tangle"][0] == 2
    assert counts["pi_tangle"][1] == counts["svetlichny_envelope"][1]


@pytest.mark.parametrize("call", [
    lambda mode: negativity(density(gghz(0.3)), mode),
    lambda mode: apply_channel(density(gghz(0.3)), mode, 0.1),
    lambda mode: dilate(gghz(0.3), mode, 0.1),
    lambda mode: partial_trace(density(gghz(0.3)), mode),
    lambda mode: partial_transpose(density(gghz(0.3)), mode),
    lambda mode: svetlichny_bound_ms(0.3, 0.1, mode),
], ids=["negativity", "apply_channel", "dilate", "partial_trace", "partial_transpose", "svetlichny_bound_ms"])
def test_mode_arguments_reject_non_integers(call):
    # one mode check: an integer in 1..n; a bool, a float, a string or a pair is a ValueError
    for mode in (0, 4, 1.5, 2.0, True, np.True_, "1", None, (1, 2)):
        with pytest.raises(ValueError, match="expected an integer in 1..3"):
            call(mode)
    call(np.int64(2))  # a numpy integer is an integer


def test_horodecki_rejects_values_above_the_quantum_maximum():
    # unit trace and Hermitian, but not positive (T_zz = 3 is T's only entry, so the closed form would read
    # 2 sqrt(9) = 6): the state check refuses it, alone or in a stack
    with pytest.raises(ValueError, match="positive semidefinite"):
        bell_upper(np.diag([2.0, -1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="positive semidefinite"):
        bell_upper(np.stack([density(singlet()), np.diag([2.0, -1.0, 0.0, 0.0])]))


def test_state_quantities_accept_empty_stacks():
    # an empty stack (0, d, d) gives empty values, as apply_channel gives an empty stack of states
    for modes in (2, 3):
        empty = np.empty((0,) + (2**modes,) * 2)
        assert correlation_tensor(empty).shape == (0,) + (3,) * modes
        assert bell_value(empty, np.tile([0.0, 0.0, 1.0], (2 * modes, 1))).shape == (0,)
        assert bell_value(density(singlet() if modes == 2 else gghz(0.3)), np.empty((0, 2 * modes, 3))).shape == (0,)
        assert bell_upper(empty).shape == (0,)
        assert all(negativity(empty, cut).shape == (0,) for cut in range(1, modes + 1))
        result = maximize_bell(empty.reshape((3, 0) + empty.shape[1:]), restarts=2)
        assert result.value.shape == result.evaluations.shape == result.certified.shape == (3, 0)
        assert result.directions.shape == (3, 0, 2 * modes, 3)
    assert all(np.shape(field) == (2, 0) for field in vars(pi_tangle(np.empty((2, 0, 8, 8)))).values())


def test_apply_channel_rejects_r_that_does_not_broadcast():
    # the leading shapes are checked before any product, so the message names the shapes passed, not numpy's operands
    rhos = density(gghz([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="^states of leading shape \\(3,\\) do not broadcast against r of shape "
                                         "\\(2,\\)$"):
        apply_channel(rhos, 1, [0.1, 0.2])
    with pytest.raises(ValueError, match="leading shape \\(3,\\) do not broadcast against r of shape \\(3, 2\\)$"):
        apply_channel(rhos, 1, np.zeros((3, 2)))
    assert apply_channel(rhos, 1, np.zeros((2, 1))).shape == (2, 3, 8, 8)  # shapes that broadcast still do


def test_bell_value_rejects_settings_that_do_not_broadcast():
    rhos = density(gghz([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="^states of leading shape \\(3,\\) do not broadcast against settings of "
                                         "leading shape \\(2,\\)$"):
        bell_value(rhos, np.tile(states.Z_AXIS, (2, 6, 1)))
    with pytest.raises(ValueError, match="leading shape \\(2, 3\\) do not broadcast against settings of leading shape "
                                         "\\(4,\\)$"):
        bell_value(apply_channel(density(singlet()), 2, np.zeros((2, 3))), np.tile(states.Z_AXIS, (4, 4, 1)))
    assert bell_value(rhos, np.tile(states.Z_AXIS, (2, 1, 6, 1))).shape == (2, 3)  # shapes that broadcast still do


def test_state_check_rejects_a_wrong_mode_count_by_its_own_message():
    # a wrong mode count names the shape and the wanted count, and no trace: the traces of the first stack are fine,
    # and the empty stack has none
    for rhos in (np.stack([density(singlet())] * 2), np.empty((0, 4, 4))):
        with pytest.raises(ValueError, match=f"^expected a 3-mode state, got shape \\({rhos.shape[0]}, 4, 4\\)$"):
            pi_tangle(rhos)
    with pytest.raises(ValueError, match="^expected a state of one or more modes, got shape \\(2, 1, 1\\)$"):
        correlation_tensor(np.ones((2, 1, 1)))
    # a wrong trace at the right mode count is still refused by the worst trace
    with pytest.raises(ValueError, match="^expected a unit-trace state, got shape \\(2, 8, 8\\) and trace 2$"):
        pi_tangle(np.stack([np.eye(8) / 8.0, np.eye(8) / 4.0]))


def test_closed_forms_reject_arguments_that_do_not_broadcast():
    # each closed form names its angle and r with their shapes, in the order the caller passes them
    two, three = [0.1, 0.2], [0.1, 0.2, 0.3]
    calls = {
        "control angles theta1 of shape (2,) do not broadcast against r of shape (3,)":
            [lambda: svetlichny_bound_gghz(two, three)],
        "control angles theta3 of shape (2,) do not broadcast against r of shape (3,)":
            [lambda: svetlichny_bound_ms(two, three, 1), lambda: svetlichny_bound_ms(two, three, 3)],
        "r values of shape (3,) do not broadcast against angles gamma of shape (2,)":
            [lambda: chsh_restricted(three, two)],
        "angles gamma of shape (2,) do not broadcast against r of shape (3,)":
            [lambda: restricted_settings(two, three)],
    }
    for message, group in calls.items():
        for call in group:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
    # shapes that broadcast still do
    column = np.array(three)[:, None]
    assert svetlichny_bound_gghz(two, column).bound.shape == svetlichny_bound_ms(two, column, 3).shape == (3, 2)
    assert chsh_restricted(column, two).shape == (3, 2) and restricted_settings(two, column).shape == (3, 2, 4, 3)


def test_closed_forms_accept_empty_input():
    empty = np.array([])
    assert chsh_restricted(empty, 0.3).shape == chsh_restricted(0.3, empty).shape == (0,)
    assert chsh_restricted_max([]).shape == (0,)
    assert svetlichny_bound_gghz(0.3, []).envelope.shape == svetlichny_bound_gghz([], 0.3).branch.shape == (0,)
    for mode in (1, 3):
        assert svetlichny_bound_ms(0.3, [], mode).shape == svetlichny_bound_ms([], 0.3, mode).shape == (0,)
    assert nonlocality.restricted_settings([], 0.3).shape == (0, 4, 3)
    assert apply_channel(density(singlet()), 2, empty).shape == (0, 4, 4)


_RHO2, _RHO3 = density(singlet()), density(gghz(0.3))
_SPEC = dict(state="gghz", param_start=0.0, param_stop=0.5, param_steps=2, r_start=0.0, r_stop=0.5, r_steps=2,
             mode=3, columns=("svetlichny_bound",), seed=0, restarts=1, certify_resolution=math.pi)
# entry point and argument: (call with that argument replaced, a valid value of it, what it must be)
_ARGUMENTS = {
    "mode_count": (linalg.mode_count, 4, "integer"),
    "density": (density, singlet(), "finite"),
    "partial_trace-rho": (lambda x: partial_trace(x, 1), _RHO2, "finite"),
    "partial_trace-mode": (lambda x: partial_trace(_RHO2, x), 1, "integer"),
    "partial_transpose-rho": (lambda x: partial_transpose(x, 1), _RHO2, "finite"),
    "partial_transpose-mode": (lambda x: partial_transpose(_RHO2, x), 1, "integer"),
    "spin_observable": (states.spin_observable, states.Z_AXIS, "finite"),
    "gghz": (gghz, 0.3, "finite"),
    "maximal_slice": (maximal_slice, 0.3, "finite"),
    "acceleration_parameter": (unruh.acceleration_parameter, 0.5, "finite"),
    "dilate-psi": (lambda x: dilate(x, 1, 0.1), singlet(), "finite"),
    "dilate-mode": (lambda x: dilate(singlet(), x, 0.1), 1, "integer"),
    "dilate-r": (lambda x: dilate(singlet(), 1, x), 0.1, "finite"),
    "apply_channel-rho": (lambda x: apply_channel(x, 1, 0.1), _RHO2, "finite"),
    "apply_channel-mode": (lambda x: apply_channel(_RHO2, x, 0.1), 1, "integer"),
    "apply_channel-r": (lambda x: apply_channel(_RHO2, 1, x), 0.1, "finite"),
    "correlation_tensor": (correlation_tensor, _RHO2, "finite"),
    "bell_value-rho": (lambda x: bell_value(x, np.tile(states.Z_AXIS, (4, 1))), _RHO2, "finite"),
    "bell_value-settings": (lambda x: bell_value(_RHO2, x), np.tile(states.Z_AXIS, (4, 1)), "finite"),
    "restricted_settings-gamma": (nonlocality.restricted_settings, 0.2, "finite"),
    "restricted_settings-r": (lambda x: nonlocality.restricted_settings(0.2, x), 0.1, "finite"),
    "chsh_restricted-r": (lambda x: chsh_restricted(x, 0.2), 0.1, "finite"),
    "chsh_restricted-gamma": (lambda x: chsh_restricted(0.1, x), 0.2, "finite"),
    "chsh_restricted_max": (chsh_restricted_max, 0.1, "finite"),
    "bell_upper-4x4": (bell_upper, _RHO2, "finite"),
    "bell_upper-8x8": (bell_upper, _RHO3, "finite"),
    "svetlichny_bound_gghz-theta1": (lambda x: svetlichny_bound_gghz(x, 0.1), 0.3, "finite"),
    "svetlichny_bound_gghz-r": (lambda x: svetlichny_bound_gghz(0.3, x), 0.1, "finite"),
    "svetlichny_bound_ms-theta3": (lambda x: svetlichny_bound_ms(x, 0.1, 1), 1.0, "finite"),
    "svetlichny_bound_ms-r": (lambda x: svetlichny_bound_ms(1.0, x, 3), 0.1, "finite"),
    "svetlichny_bound_ms-mode": (lambda x: svetlichny_bound_ms(1.0, 0.1, x), 3, "integer"),
    "violates-values": (lambda x: nonlocality.violates(x, 2), 3.0, "number"),  # NaN is no violation
    "violates-modes": (lambda x: nonlocality.violates(2.5, x), 2, "integer"),
    "negativity-rho": (lambda x: negativity(x, 1), _RHO2, "finite"),
    "negativity-mode": (lambda x: negativity(_RHO2, x), 1, "integer"),
    "pi_tangle": (entanglement.pi_tangle, _RHO3, "finite"),
    "maximize_bell-rhos": (lambda x: maximize_bell(x, restarts=1), _RHO2, "finite"),
    "maximize_bell-witness_resolution": (lambda x: maximize_bell(_RHO2, x, restarts=1), math.pi, "optional"),
    "maximize_bell-restarts": (lambda x: maximize_bell(_RHO2, restarts=x), 1, "integer"),
    "maximize_bell-seed": (lambda x: maximize_bell(_RHO2, restarts=1, seed=x), 0, "integer"),
    "grid_oracle-rhos": (lambda x: optimize.grid_oracle(x, math.pi), _RHO2, "finite"),
    "grid_oracle-resolution": (lambda x: optimize.grid_oracle(_RHO2, x), math.pi, "finite"),
    "solve_pi_tangle-param": (lambda x: cli.solve_pi_tangle("gghz", x, 0.1, 3), 0.3, "finite"),
    "solve_pi_tangle-r": (lambda x: cli.solve_pi_tangle("gghz", 0.3, x, 3), 0.1, "finite"),
    "solve_pi_tangle-mode": (lambda x: cli.solve_pi_tangle("gghz", 0.3, 0.1, x), 3, "integer"),
    **{f"run_sweep-{field}": (lambda x, field=field: run_sweep(SweepSpec(**{**_SPEC, field: x})), _SPEC[field], kind)
       for field, kind in (("param_start", "finite"), ("param_stop", "finite"), ("param_steps", "integer"),
                           ("r_start", "finite"), ("r_stop", "finite"), ("r_steps", "integer"), ("mode", "integer"),
                           ("restarts", "integer"), ("seed", "integer"), ("certify_resolution", "optional"))},
}


@pytest.mark.parametrize("argument", _ARGUMENTS)
def test_entry_points_reject_non_numbers(argument):
    # one reader (linalg._numbers) and one integer rule (linalg._check_integer) behind every entry point: None, an
    # iterator, a string and a bool, also one in a list among numbers, are ValueError, never TypeError or a number;
    # so are NaN where the argument must be finite, and a float where it must be an integer
    call, good, kind = _ARGUMENTS[argument]
    call(good)
    mixed = np.asarray(good).tolist() if np.ndim(good) else [good, good]
    leaf = mixed
    while isinstance(leaf[0], list):
        leaf = leaf[0]
    leaf[0] = bool(leaf[0])  # a bool among numbers, which numpy would read as 0 or 1
    bad = [iter(np.asarray(good).tolist() if np.ndim(good) else [good]), str(good), True, np.True_, mixed]
    if kind == "optional":  # a finite number, or None for none
        call(None)
    else:
        bad.append(None)
    if kind != "number":
        bad.append(np.full(np.shape(good), math.nan))
    if kind == "integer":
        bad += [float(good), np.float64(good)]
    for value in bad:
        with pytest.raises(ValueError):
            call(value)
