"""Dense complex linear algebra for few-mode quantum operators.

Everything in this package works on plain numpy arrays.  A register of n
two-level modes lives in dimension 2**n, and mode 1 is stored as the most
significant bit of the basis index, so the product ket |abc> sits at index
4a + 2b + c.  Mode indices are 1-based throughout.  The sign convention is
sigma_z |0> = +|0>.

All functions are pure.  Every matrix is read by one shape rule, ``_operator``:
finite complex numbers (..., d, d), square, d = 2^n <= ``MAX_DIM`` = 16.  A state
is also Hermitian, of unit trace and positive semidefinite within ``HERMITICITY_ATOL``
(n >= 1; positivity by one ``eigvalsh`` of the stack), so a stack is checked whole
by one ``_state`` call at each entry point (``density``, ``unruh``, ``entanglement``,
``nonlocality._tensor``).  ``partial_trace`` and ``partial_transpose`` read
outside operators by the shape rule; arrays ``_state`` already checked go to
their private bodies unread.  Eigenvalues, Tr[rho O] and Kronecker products are
numpy's ``eigvalsh``, ``einsum`` and ``kron``, called directly; ``np.kron(a, b)``
keeps ``a`` most significant, as the ordering above needs.  Input from outside
is read by one reader, ``_numbers``: numbers only, never None, a string, a bool
(in a list or tuple too) or an iterator, and finite unless the caller says
otherwise.  A count follows one integer rule, ``_check_integer``: a mode is an
integer in 1..n, never a bool.
"""

from __future__ import annotations

import math
import reprlib

import numpy as np

MAX_DIM = 16
HERMITICITY_ATOL = 1e-10

__all__ = [
    "MAX_DIM",
    "mode_count",
    "density",
    "partial_trace",
    "partial_transpose",
]


def _numbers(values, what: str, dtype=float, finite: bool = True) -> np.ndarray:
    """``values`` as an array of ``dtype`` (float or complex); ValueError unless they are numbers, all finite
    unless ``finite`` is False.

    numpy stores None, an iterator, a ``Fraction`` and an int beyond 64 bits as objects, and a string as text; none
    of them, and no bool, is read as a number, nor is a complex number where ``dtype`` is float.  numpy reads a bool
    among numbers in a list as 0 or 1, so a list or tuple is scanned for one; an ndarray is not.
    """
    if isinstance(values, (list, tuple)) and _holds_bool(values):
        raise ValueError(f"expected numbers for {what}, got a bool in a {type(values).__name__}")
    array = np.asarray(values)
    if array.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        raise ValueError(f"expected numbers for {what}, got {type(values).__name__}")
    array = array.astype(dtype, copy=False)
    if finite and not np.isfinite(array).all():
        raise ValueError(f"non-finite {what}: {reprlib.repr(values)}")
    return array


def _holds_bool(values) -> bool:
    if isinstance(values, (list, tuple)):
        return any(map(_holds_bool, values))
    return isinstance(values, (bool, np.bool_)) or (isinstance(values, np.ndarray) and values.dtype.kind == "b")


def _check_integer(name: str, value, low: int, high: float = math.inf) -> None:
    """Raise ValueError unless ``value`` is an integer in low..high; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not low <= value <= high:
        span = f"in {low}..{high}" if high < math.inf else f">= {low}"
        raise ValueError(f"{name} {value!r}: expected an integer {span}")


def mode_count(dim: int) -> int:
    """Number of two-level modes for a Hilbert space of dimension ``dim``."""
    _check_integer("dimension", dim, 1)
    n = int(dim).bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def density(psi: np.ndarray) -> np.ndarray:
    """Rank-one density operators |psi><psi| of kets (..., d); a non-finite or non-unit ket raises ValueError."""
    v = np.atleast_1d(_numbers(psi, "ket", complex, finite=False))
    if not (np.abs(v) <= 1.0 + HERMITICITY_ATOL).all():  # before the product, which would overflow or make NaN
        raise ValueError("ket has a non-finite entry or one of modulus above 1, so it is not a unit ket")
    return _state(v[..., :, None] * v[..., None, :].conj())[0]


def _operator(rho, what: str = "operator") -> tuple[np.ndarray, int]:
    """The one shape rule: ``rho`` read as finite complex matrices (..., d, d), square with d = 2^n <= ``MAX_DIM``;
    returns them and n."""
    rho = _numbers(rho, what, complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    if rho.shape[-1] > MAX_DIM:
        raise ValueError(f"dimension {rho.shape[-1]} exceeds the supported maximum {MAX_DIM}")
    return rho, mode_count(rho.shape[-1])


def _state(rho: np.ndarray, modes: int | None = None) -> tuple[np.ndarray, int]:
    """Check every state of ``rho`` (..., d, d) in one pass; return it as a complex array and its mode count."""
    rho, n = _operator(rho, "matrix")
    if n < 1 or n != (modes or n):
        want = f"{modes}-mode state" if modes else "state of one or more modes"
        raise ValueError(f"expected a {want}, got shape {rho.shape}")
    residual = float(np.abs(rho - np.swapaxes(rho.conj(), -1, -2)).max(initial=0.0))
    if residual > HERMITICITY_ATOL:
        raise ValueError(f"matrix is not Hermitian (residual {residual:.3e} > {HERMITICITY_ATOL:.0e})")
    traces = np.trace(rho, axis1=-2, axis2=-1).ravel()
    worst = traces[np.argmax(np.abs(traces - 1.0))] if traces.size else 1.0
    if not abs(worst - 1.0) <= HERMITICITY_ATOL:
        raise ValueError(f"expected a unit-trace state, got shape {rho.shape} and trace {worst.real:.6g}")
    lowest = float(np.linalg.eigvalsh(rho).min(initial=0.0))  # one eigensolve of the whole stack
    if lowest < -HERMITICITY_ATOL:
        raise ValueError(f"matrix is not positive semidefinite (smallest eigenvalue {lowest:.3e} < {-HERMITICITY_ATOL:.0e})")
    return rho, n


def _check_broadcast(first: str, first_shape: tuple, second: str, second_shape: tuple) -> None:
    """ValueError naming both arguments and their shapes, in the caller's order, unless the shapes broadcast."""
    try:
        np.broadcast_shapes(first_shape, second_shape)
    except ValueError:
        raise ValueError(f"{first} {first_shape} do not broadcast against {second} {second_shape}") from None


def partial_trace(rho: np.ndarray, mode: int) -> np.ndarray:
    """Trace out one mode of each multi-mode operator of ``rho`` (..., d, d).

    ``mode`` is the 1-based index of the mode to discard.  Returns the
    reduced operators on the remaining modes, in their original order.  The
    trace is preserved exactly.
    """
    return _partial_trace(*_operator(rho), mode)


def _partial_trace(rho: np.ndarray, n: int, mode) -> np.ndarray:  # rho (..., 2^n, 2^n) already read
    _check_integer("mode", mode, 1, n)
    if n < 2:
        raise ValueError("cannot trace out the only mode")
    lead, d = rho.shape[:-2], 2 ** (n - 1)
    traced = np.trace(rho.reshape(lead + (2,) * (2 * n)), axis1=mode - 1 - 2 * n, axis2=mode - 1 - n)
    return traced.reshape(lead + (d, d))


def partial_transpose(rho: np.ndarray, mode: int) -> np.ndarray:
    """Transpose the indices of one mode of each operator of ``rho`` (..., d, d), leaving the rest alone.

    The result is Hermitian whenever the input is, has the same trace, and
    is an involution: applying it twice on the same mode gives the input
    back exactly.
    """
    return _partial_transpose(*_operator(rho), mode)


def _partial_transpose(rho: np.ndarray, n: int, mode) -> np.ndarray:  # rho (..., 2^n, 2^n) already read
    _check_integer("mode", mode, 1, n)
    split = rho.reshape(rho.shape[:-2] + (2,) * (2 * n))
    return np.swapaxes(split, mode - 1 - 2 * n, mode - 1 - n).reshape(rho.shape)
