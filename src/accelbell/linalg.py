"""Dense complex linear algebra for few-mode quantum operators.

Everything in this package works on plain numpy arrays.  A register of n
two-level modes lives in dimension 2**n, and mode 1 is stored as the most
significant bit of the basis index, so the product ket |abc> sits at index
4a + 2b + c.  Mode indices are 1-based throughout.  The sign convention is
sigma_z |0> = +|0>.

Operators never exceed ``MAX_DIM`` = 16, and all functions are pure.  A
state is 2^n x 2^n (n >= 1), finite, Hermitian and of unit trace within
``HERMITICITY_ATOL``; positivity is not checked.  States are one array (..., d, d),
so a stack is checked whole by one ``_state`` call at each entry point (``density``,
``unruh``, ``entanglement``, ``_tensor``); ``partial_trace`` and ``partial_transpose``
take one operator.  The other functions also take non-states, such as T^T T, and
check less.  A mode is an integer in 1..n, never a bool (``_check_mode``).
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 16
HERMITICITY_ATOL = 1e-10

__all__ = [
    "MAX_DIM",
    "mode_count",
    "tensor",
    "density",
    "partial_trace",
    "partial_transpose",
    "hermitian_eigenvalues",
    "expectation",
]


def mode_count(dim: int) -> int:
    """Number of two-level modes for a Hilbert space of dimension ``dim``."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of the factors, leftmost factor most significant.

    ``tensor(a, b)[i*db + k, j*db + l] = a[i, j] * b[k, l]`` with
    ``db = b.shape[0]``, which realizes the |abc> -> 4a+2b+c ordering.
    """
    if not factors:
        raise ValueError("tensor needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def density(psi: np.ndarray) -> np.ndarray:
    """Rank-one density operators |psi><psi| of kets (..., d); a non-finite or non-unit ket raises ValueError."""
    v = np.atleast_1d(np.asarray(psi, dtype=complex))
    if not (np.abs(v) <= 1.0 + HERMITICITY_ATOL).all():  # before the product, which would overflow or make NaN
        raise ValueError("ket has a non-finite entry or one of modulus above 1, so it is not a unit ket")
    return _state(v[..., :, None] * v[..., None, :].conj())[0]


def _operator(rho: np.ndarray, mode) -> tuple[np.ndarray, int]:
    """One square operator as a complex array, and its mode count; ``mode`` must be one of its modes."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    n = mode_count(rho.shape[0])
    _check_mode(mode, n)
    return rho, n


def _check_mode(mode, n: int) -> None:
    """Raise ValueError unless ``mode`` is an integer in 1..n; a bool is not one."""
    if isinstance(mode, bool) or not isinstance(mode, (int, np.integer)) or not 1 <= mode <= n:
        raise ValueError(f"mode {mode!r} out of range: expected an integer in 1..{n}")


def partial_trace(rho: np.ndarray, mode: int) -> np.ndarray:
    """Trace out one mode of a multi-mode operator.

    Parameters
    ----------
    rho : 2^n x 2^n operator
    mode : 1-based index of the mode to discard

    Returns the reduced operator on the remaining modes, in their original
    order.  The trace is preserved exactly.
    """
    rho, n = _operator(rho, mode)
    if n < 2:
        raise ValueError("cannot trace out the only mode")
    t = np.trace(rho.reshape((2,) * (2 * n)), axis1=mode - 1, axis2=mode - 1 + n)
    d = 2 ** (n - 1)
    return t.reshape(d, d)


def partial_transpose(rho: np.ndarray, mode: int) -> np.ndarray:
    """Transpose the indices of a single mode, leaving the rest alone.

    The result is Hermitian whenever the input is, has the same trace, and
    is an involution: applying it twice on the same mode gives the input
    back exactly.
    """
    rho, n = _operator(rho, mode)
    return np.swapaxes(rho.reshape((2,) * (2 * n)), mode - 1, mode - 1 + n).reshape(rho.shape)


def _require_hermitian(matrix: np.ndarray, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    try:
        m = np.asarray(matrix, dtype=complex)
    except TypeError:  # numpy reads an iterator or a generator as one object, not as an array of numbers
        raise ValueError(f"expected a square matrix or a stack of them, got {type(matrix).__name__}") from None
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] > MAX_DIM:
        raise ValueError(f"dimension {m.shape[-1]} exceeds the supported maximum {MAX_DIM}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    residual = float(np.abs(m - np.swapaxes(m.conj(), -1, -2)).max(initial=0.0))
    if residual > atol:
        raise ValueError(f"matrix is not Hermitian (residual {residual:.3e} > {atol:.0e})")
    return m


def _state(rho: np.ndarray, modes: int | None = None) -> tuple[np.ndarray, int]:
    """Check every state of ``rho`` (..., d, d) in one pass; return it as a complex array and its mode count."""
    rho = _require_hermitian(rho)
    n = mode_count(rho.shape[-1])
    traces = np.trace(rho, axis1=-2, axis2=-1).ravel()
    worst = traces[np.argmax(np.abs(traces - 1.0))] if traces.size else 1.0
    if n < 1 or n != (modes or n) or not abs(worst - 1.0) <= HERMITICITY_ATOL:
        want = f"{modes}-mode state" if modes else "state of one or more modes"
        raise ValueError(f"expected a unit-trace {want}, got shape {rho.shape} and trace {worst.real:.6g}")
    return rho, n


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, or of each of a stack (..., d, d), in ascending order."""
    return np.linalg.eigvalsh(_require_hermitian(matrix))


def expectation(rho: np.ndarray, observable: np.ndarray) -> float:
    """Real part of Tr[rho O]."""
    return float(np.einsum("ij,ji->", np.asarray(rho, complex), np.asarray(observable, complex)).real)

