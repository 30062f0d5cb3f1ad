"""Dense complex linear algebra for few-mode quantum operators.

Everything in this package works on plain numpy arrays.  A register of n
two-level modes lives in dimension 2**n, and mode 1 is stored as the most
significant bit of the basis index, so the product ket |abc> sits at index
4a + 2b + c.  Mode indices are 1-based throughout.  The sign convention is
sigma_z |0> = +|0>.

Operators never exceed dimension 16: three modes plus the hidden partner
mode of the channel's dilation.  The eigensolver refuses anything larger,
so a misshaped operator fails loudly instead of being diagonalized.  All
functions are pure and never mutate their inputs.
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
    "trace_norm",
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
    """Rank-one density operator |psi><psi| from a state vector."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def _square_operator(rho: np.ndarray) -> tuple[np.ndarray, int]:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    return rho, mode_count(rho.shape[0])


def partial_trace(rho: np.ndarray, mode: int) -> np.ndarray:
    """Trace out one mode of a multi-mode operator.

    Parameters
    ----------
    rho : 2^n x 2^n operator
    mode : 1-based index of the mode to discard

    Returns the reduced operator on the remaining modes, in their original
    order.  The trace is preserved exactly.
    """
    rho, n = _square_operator(rho)
    if n < 2:
        raise ValueError("cannot trace out the only mode")
    if not 1 <= mode <= n:
        raise ValueError(f"mode {mode} out of range 1..{n}")
    t = rho.reshape((2,) * (2 * n))
    t = np.trace(t, axis1=mode - 1, axis2=mode - 1 + n)
    d = 2 ** (n - 1)
    return t.reshape(d, d)


def partial_transpose(rho: np.ndarray, mode: int) -> np.ndarray:
    """Transpose the indices of a single mode, leaving the rest alone.

    The result is Hermitian whenever the input is, has the same trace, and
    is an involution: applying it twice on the same mode gives the input
    back exactly.
    """
    rho, n = _square_operator(rho)
    if not 1 <= mode <= n:
        raise ValueError(f"mode {mode} out of range 1..{n}")
    t = rho.reshape((2,) * (2 * n))
    t = np.swapaxes(t, mode - 1, mode - 1 + n)
    return t.reshape(rho.shape)


def _require_hermitian(matrix: np.ndarray, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {m.shape[0]} exceeds the supported maximum {MAX_DIM}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    residual = float(np.max(np.abs(m - m.conj().T)))
    if residual > atol:
        raise ValueError(f"matrix is not Hermitian (residual {residual:.3e} > {atol:.0e})")
    return m


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, in ascending order."""
    return np.linalg.eigvalsh(_require_hermitian(matrix))


def trace_norm(matrix: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: the sum of absolute eigenvalues."""
    return float(np.sum(np.abs(hermitian_eigenvalues(matrix))))


def expectation(rho: np.ndarray, observable: np.ndarray) -> float:
    """Real part of Tr[rho O]."""
    return float(np.einsum("ij,ji->", np.asarray(rho, complex), np.asarray(observable, complex)).real)

