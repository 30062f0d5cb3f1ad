"""The one state form: a stack (..., d, d) gives, row by row, exactly what each state gives alone."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelbell import cli, entanglement, linalg, nonlocality, unruh
from accelbell.cli import SweepSpec, run_sweep
from accelbell.entanglement import negativity
from accelbell.linalg import density, partial_trace, partial_transpose
from accelbell.nonlocality import (
    bell_value,
    chsh_restricted,
    chsh_restricted_max,
    correlation_tensor,
    horodecki_max,
    svetlichny_bound_gghz,
    svetlichny_bound_ms_pair,
    svetlichny_bound_ms_slice,
    svetlichny_upper,
)
from accelbell.optimize import maximize_bell
from accelbell.states import gghz, maximal_slice, singlet
from accelbell.unruh import R_MAX, apply_channel, build_channel, dilate

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
    upper = horodecki_max(damped) if modes == 2 else svetlichny_upper(damped)
    for i in range(size):
        rho = apply_channel(rhos[i], mode, rs[i])
        assert np.array_equal(damped[i], rho)
        assert np.array_equal(tensors[i], correlation_tensor(rho))
        assert values[i] == bell_value(rho, dirs[i])
        assert upper[i] == (horodecki_max(rho) if modes == 2 else svetlichny_upper(rho))
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
        for i in range(len(angles)):
            assert np.array_equal(kets[i], build(float(t[i])))
            assert np.array_equal(damped[i], apply_channel(density(build(float(t[i]))), mode, float(rs[i])))
    # the singlet builder ignores its parameter: the channel broadcasts one state against the r axis
    damped = apply_channel(density(singlet()), 2, rs)
    assert all(np.array_equal(damped[i], apply_channel(density(singlet()), 2, float(r))) for i, r in enumerate(rs))
    assert build_channel(rs).shape == (len(angles), 2, 2, 2)


def test_leading_axes_broadcast():
    # a (2, 1) stack of states against three r values gives a (2, 3) stack; one state and one setting give a float
    rhos = density(gghz(np.array([[0.2], [0.7]])))
    damped = apply_channel(rhos, 3, np.array([0.0, 0.3, R_MAX]))
    assert damped.shape == (2, 3, 8, 8)
    assert np.array_equal(damped[1, 2], apply_channel(density(gghz(0.7)), 3, R_MAX))
    assert correlation_tensor(damped).shape == (2, 3, 3, 3, 3)
    assert bell_value(damped, np.tile([0.0, 0.0, 1.0], (6, 1))).shape == (2, 3)
    assert svetlichny_upper(damped).shape == (2, 3)  # only the three mode axes are unfolded
    assert svetlichny_upper(damped)[1, 2] == svetlichny_upper(damped[1, 2])
    assert isinstance(horodecki_max(density(singlet())), float)
    assert isinstance(bell_value(density(singlet()), np.tile([0.0, 0.0, 1.0], (4, 1))), float)


def test_stack_check_names_the_worst_trace():
    # one pass over the stack: the message reports the trace furthest from 1, whichever row holds it
    rhos = np.stack([np.eye(4) / 4.0, 1.5 * np.eye(4) / 4.0, 0.2 * np.eye(4) / 4.0])
    with pytest.raises(ValueError, match="shape \\(3, 4, 4\\) and trace 0.2$"):
        correlation_tensor(rhos)
    rhos[0, 0, 1] = 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        horodecki_max(rhos)
    rhos = np.stack([np.eye(4) / 4.0] * 2)
    rhos[1, 2, 2] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        apply_channel(rhos, 1, 0.1)
    with pytest.raises(ValueError, match="non-finite"):
        density(np.array([[1.0, 0.0], [math.nan, 0.0]]))


def test_sweep_block_checked_once_per_step(monkeypatch):
    # density, the channel and horodecki_max each check a 64-point block in one call
    calls = []
    for module in (linalg, unruh, nonlocality, entanglement):
        checked = module._state
        monkeypatch.setattr(module, "_state", lambda *args, checked=checked: calls.append(1) or checked(*args))
    spec = SweepSpec(state="singlet", param_start=0.0, param_stop=0.0, param_steps=1, r_start=0.0,
                     r_stop=R_MAX, r_steps=cli.BLOCK, mode=2, columns=("chsh_restricted_max", "chsh_horodecki"))
    run_sweep(spec)
    assert len(calls) == 3
    calls.clear()
    run_sweep(SweepSpec(state="gghz", param_start=0.0, param_stop=1.0, param_steps=8, r_start=0.0, r_stop=R_MAX,
                        r_steps=8, mode=3, columns=("svetlichny_bound", "svetlichny_envelope")))
    assert len(calls) == 2


def test_fold_logs_one_line_per_call(caplog):
    with caplog.at_level(logging.INFO, logger="accelbell.states"):
        gghz(np.array([0.1, 2.0, -0.5, 1.0]))
        maximal_slice(np.array([0.5, 1.0]))
    assert [record.getMessage() for record in caplog.records] == ["gghz: 2 control angle(s) folded into [0, 1.5708]"]
    with pytest.raises(ValueError, match="non-finite control angle"):
        gghz(np.array([0.1, math.nan]))


@pytest.mark.parametrize("call", [
    lambda mode: negativity(density(gghz(0.3)), mode),
    lambda mode: apply_channel(density(gghz(0.3)), mode, 0.1),
    lambda mode: dilate(gghz(0.3), mode, 0.1),
    lambda mode: partial_trace(density(gghz(0.3)), mode),
    lambda mode: partial_transpose(density(gghz(0.3)), mode),
], ids=["negativity", "apply_channel", "dilate", "partial_trace", "partial_transpose"])
def test_mode_arguments_reject_non_integers(call):
    # one mode check: an integer in 1..n; a bool, a float, a string or a pair is a ValueError
    for mode in (0, 4, 1.5, 2.0, True, np.True_, "1", None, (1, 2)):
        with pytest.raises(ValueError, match="expected an integer in 1..3"):
            call(mode)
    call(np.int64(2))  # a numpy integer is an integer


def test_horodecki_rejects_values_above_the_quantum_maximum():
    # unit trace and Hermitian, but not positive: T_zz = 3 is T's only entry, so the closed form reads 2 sqrt(9) = 6
    with pytest.raises(ValueError, match="quantum maximum"):
        horodecki_max(np.diag([2.0, -1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="quantum maximum"):
        horodecki_max(np.stack([density(singlet()), np.diag([2.0, -1.0, 0.0, 0.0])]))


def test_state_quantities_accept_empty_stacks():
    # an empty stack (0, d, d) gives empty values, as apply_channel gives an empty stack of states
    for modes in (2, 3):
        empty = np.empty((0,) + (2**modes,) * 2)
        assert correlation_tensor(empty).shape == (0,) + (3,) * modes
        assert bell_value(empty, np.tile([0.0, 0.0, 1.0], (2 * modes, 1))).shape == (0,)
        assert bell_value(density(singlet() if modes == 2 else gghz(0.3)), np.empty((0, 2 * modes, 3))).shape == (0,)
        assert (horodecki_max(empty) if modes == 2 else svetlichny_upper(empty)).shape == (0,)
        result = maximize_bell(empty.reshape((3, 0) + empty.shape[1:]), restarts=2)
        assert result.value.shape == result.evaluations.shape == result.certified.shape == (3, 0)
        assert result.directions.shape == (3, 0, 2 * modes, 3)


def test_closed_forms_accept_empty_input():
    empty = np.array([])
    assert chsh_restricted(empty, 0.3).shape == chsh_restricted(0.3, empty).shape == (0,)
    assert chsh_restricted_max([]).shape == (0,)
    assert svetlichny_bound_gghz(0.3, []).envelope.shape == svetlichny_bound_gghz([], 0.3).branch.shape == (0,)
    assert svetlichny_bound_ms_pair(0.3, []).shape == svetlichny_bound_ms_pair([], 0.3).shape == (0,)
    assert svetlichny_bound_ms_slice(0.3, []).shape == svetlichny_bound_ms_slice([], 0.3).shape == (0,)
    assert nonlocality.restricted_settings([], 0.3).shape == (0, 4, 3)
    assert apply_channel(density(singlet()), 2, empty).shape == (0, 4, 4)
