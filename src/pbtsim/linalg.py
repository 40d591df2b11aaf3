"""Small dense linear-algebra helpers shared across the package."""

from __future__ import annotations

import math
import string
from typing import Sequence

import numpy as np


def dag(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def xlogy(x, y):
    """x log(y), and 0 where x == 0 unless y is nan, as ``scipy.special.xlogy``.

    A float y in [0, inf) takes math.log, the libm log scipy calls, and one
    multiply, masked where x == 0 (so 0 log 0 is never formed, and 0 log y
    is +0.0, not the -0.0 of 0 * log(y < 1)): the result has scipy's bits.
    Any other y takes numpy's log, which may differ from libm's in the last
    bit.
    """
    if isinstance(y, float) and 0 <= y < math.inf:
        x = np.asarray(x)
        return np.multiply(x, math.log(y) if y else -math.inf, out=np.zeros(x.shape),
                           where=x != 0)[()]
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((np.asarray(x) == 0) & ~np.isnan(y), 0.0, x * np.log(y))[()]


def kron_power(m: np.ndarray, k: int, right: np.ndarray | None = None) -> np.ndarray:
    """m^(x)k (x) right, a new complex array (``right`` defaults to 1).

    Built from the right, m (x) (m (x) (... (x) right)), so that each step
    runs its inner loop over the long axis.  A step writes each block
    m[i, j] * out straight into its place in the next array, the bytes
    ``np.kron(m, out)`` gives without its outer-product temporaries.
    """
    m = np.asarray(m)
    out = np.eye(1, dtype=complex) if right is None else np.array(right, dtype=complex)
    for _ in range(k):
        new = np.empty((m.shape[0], out.shape[0], m.shape[1], out.shape[1]), dtype=complex)
        for i, j in np.ndindex(m.shape):
            np.multiply(m[i, j], out, out=new[i, :, j, :])
        out = new.reshape(m.shape[0] * out.shape[0], m.shape[1] * out.shape[1])
    return out


def partial_trace_qubits(op: np.ndarray, n: int, keep: Sequence[int]) -> np.ndarray:
    """Trace out every qubit of an n-qubit operator except those in ``keep``.

    Qubit 0 is the most significant (leftmost) tensor slot; the ``keep`` order
    is preserved in the output.
    """
    letters = string.ascii_letters
    if 2 * n > len(letters):
        raise ValueError(f"too many qubits for einsum labels: {n}")
    row = list(letters[:n])
    col = list(letters[n:2 * n])
    for q in range(n):
        if q not in keep:
            col[q] = row[q]
    sub = (
        "".join(row) + "".join(col) + "->"
        + "".join(row[q] for q in keep) + "".join(col[q] for q in keep)
    )
    d = 2 ** len(keep)
    return np.einsum(sub, np.asarray(op).reshape((2,) * (2 * n))).reshape(d, d)


def permute_qubits(op: np.ndarray, src_order: Sequence[int]) -> np.ndarray:
    """Reorder the tensor slots of an operator: new slot k holds old slot src_order[k]."""
    n = len(src_order)
    axes = list(src_order) + [s + n for s in src_order]
    d = 2 ** n
    return np.asarray(op).reshape((2,) * (2 * n)).transpose(axes).reshape(d, d)


def swap_qubits(op: np.ndarray, qubits: int, *pairs: tuple[int, int]) -> np.ndarray:
    """op on ``qubits`` qubits with the tensor slots of each pair exchanged."""
    src = list(range(qubits))
    for i, j in pairs:
        src[i], src[j] = src[j], src[i]
    return permute_qubits(op, src)


# the off-diagonal positions of the X shape of a 4 x 4 matrix, upper triangle
X_PAIRS = ((0, 3), (1, 2))


def x_matrix(diagonal: Sequence, c03=0, c12=0) -> np.ndarray:
    """Hermitian 4 x 4 matrix nonzero only on its diagonal and at X_PAIRS.

    The X shape of every phase-covariant qubit channel's Choi matrix: the
    diagonal, c03 at (0, 3), c12 at (1, 2), and their conjugates at the
    transposed positions.  A literal, so each entry keeps the bits it is given.
    """
    d0, d1, d2, d3 = diagonal
    return np.array([[d0, 0, 0, c03],
                     [0, d1, c12, 0],
                     [0, c12.conjugate(), d2, 0],
                     [c03.conjugate(), 0, 0, d3]], dtype=complex)


def herm_defect(m: np.ndarray) -> float:
    m = np.asarray(m)
    return float(np.abs(m - m.conj().T).max())


def max_abs(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def transfer_choi(transfer: np.ndarray, joint: np.ndarray) -> np.ndarray:
    """4 x 4 Choi matrix of a map given by its real (2^n, 4, 2^n) transfer matrix.

    C[(m, i), (m', j)] = sum_{a, a'} T[a, (m, m'), a'] R[(a, i), (a', j)]
    for an operator R on (A, B_1), the n qubits of A first.  T is laid out in
    R's own index order, so R is read in place through its float view
    (a, i, a', (j, re/im)): one (4, 2^n) x (2^n, 4) product per (a, i),
    summed over a.
    """
    d = transfer.shape[0]
    r = np.ascontiguousarray(joint, dtype=complex).view(float).reshape(d, 2, d, 4)
    c = (transfer[:, None] @ r).sum(axis=0)  # (i, (m, m'), (j, re/im))
    return c.view(complex).reshape(2, 2, 2, 2).transpose(1, 0, 2, 3).reshape(4, 4)
