"""Independent numpy references used by the benchmark's correctness checks.

Nothing here imports pbtsim: the checks compare the package's outputs with
these computations (or with properties every valid output must have), never
with stored copies of earlier outputs.

Slot conventions match the package: a full resource on n ports has qubit
slots (A_n .. A_1, B_n .. B_1); reduced blocks live on (A_n .. A_1); Choi
matrices are indexed (idler bit, output bit) with the idler outermost.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class CheckError(AssertionError):
    """An output of the package failed a correctness check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ----------------------------------------------------------------------------
# states
# ----------------------------------------------------------------------------

def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Ginibre-distributed full-rank density matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def port_permuted(rho: np.ndarray, n: int, perm: tuple[int, ...]) -> np.ndarray:
    """Apply the same permutation to the A and the B ports of a full resource."""
    axes = list(perm) + [n + q for q in perm]
    axes = axes + [a + 2 * n for a in axes]
    d = 4 ** n
    return rho.reshape((2,) * (4 * n)).transpose(axes).reshape(d, d)


def symmetrised(rho: np.ndarray, n: int) -> np.ndarray:
    """Average of a full resource over all n! simultaneous port permutations."""
    acc = np.zeros_like(rho)
    for perm in itertools.permutations(range(n)):
        acc += port_permuted(rho, n, perm)
    return acc / math.factorial(n)


def product_full(port: np.ndarray, n: int) -> np.ndarray:
    """n copies of a two-qubit port state (slots A, B), regrouped as (A.., B..)."""
    rho = np.eye(1, dtype=complex)
    for _ in range(n):
        rho = np.kron(rho, port)
    # slots now (A_n, B_n, ..., A_1, B_1)
    src = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    axes = src + [s + 2 * n for s in src]
    d = 4 ** n
    return rho.reshape((2,) * (4 * n)).transpose(axes).reshape(d, d)


def product_blocks(port: np.ndarray, n: int) -> np.ndarray:
    """Conditional blocks R^{ij} (stacked 11, 12, 21, 22) of n copies of a port."""
    t = port.reshape(2, 2, 2, 2)  # (A, B, A', B')
    marg = np.einsum("abcb->ac", t)
    rest = np.eye(1, dtype=complex)
    for _ in range(n - 1):
        rest = np.kron(rest, marg)
    return np.stack([np.kron(rest, t[:, i, :, j]) for i in (0, 1) for j in (0, 1)])


def reduced_blocks(rho: np.ndarray, n: int) -> np.ndarray:
    """Conditional blocks of a full resource: keep (A_n..A_1, B_1), trace B_n..B_2."""
    da = 2 ** n
    t = rho.reshape(da, 2 ** (n - 1), 2, da, 2 ** (n - 1), 2)
    red = np.einsum("arbcrd->abcd", t)  # (A, B_1, A', B_1')
    return np.stack([red[:, i, :, j] for i in (0, 1) for j in (0, 1)])


# ----------------------------------------------------------------------------
# port states and closed-form targets
# ----------------------------------------------------------------------------

def bell_port() -> np.ndarray:
    v = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    return np.outer(v, v.conj())


def ad_port(p: float) -> np.ndarray:
    """Choi state of amplitude damping in the singlet convention, sender first."""
    v = np.array([0, math.sqrt(1 - p), -1, 0], dtype=complex) / math.sqrt(2)
    return np.outer(v, v.conj()) + np.diag([p / 2, 0, 0, 0]).astype(complex)


def alternate_port(a: float) -> np.ndarray:
    v = np.array([0, -math.sqrt(1 - a), math.sqrt(a), 0], dtype=complex)
    return np.outer(v, v.conj())


def ad_target(p0: float) -> np.ndarray:
    """Choi matrix of amplitude damping relative to (|00> + |11>)/sqrt(2)."""
    r = math.sqrt(1 - p0)
    return np.array(
        [[0.5, 0, 0, r / 2], [0, 0, 0, 0], [0, 0, p0 / 2, 0], [r / 2, 0, 0, (1 - p0) / 2]],
        dtype=complex,
    )


# ----------------------------------------------------------------------------
# channel checks
# ----------------------------------------------------------------------------

def check_choi_properties(c: np.ndarray, atol: float) -> None:
    """Hermitian, positive, unit trace, idler marginal I/2."""
    require(c.shape == (4, 4), f"Choi shape {c.shape}")
    require(float(np.max(np.abs(c - c.conj().T))) <= atol, "Choi matrix not Hermitian")
    herm = (c + c.conj().T) / 2
    require(float(np.linalg.eigvalsh(herm).min()) >= -atol, "Choi matrix not positive")
    require(abs(np.trace(c) - 1) <= atol, "Choi trace differs from 1")
    marginal = np.einsum("iaja->ij", c.reshape(2, 2, 2, 2))
    require(float(np.max(np.abs(marginal - np.eye(2) / 2))) <= atol,
            "idler marginal differs from I/2")


def check_close(got: np.ndarray, want: np.ndarray, atol: float, what: str) -> None:
    dev = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    require(dev <= atol, f"{what}: deviation {dev:.3e} above {atol:.0e}")


# ----------------------------------------------------------------------------
# exact diamond norm of X-shaped Choi differences
# ----------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5) - 1) / 2


def _weighted_trace_norm(j: np.ndarray, t: float) -> float:
    d = np.kron(np.diag([math.sqrt(t), math.sqrt(1 - t)]), np.eye(2))
    return 2.0 * float(np.abs(np.linalg.eigvalsh(d @ j @ d)).sum())


def diamond_x_shaped(j: np.ndarray, tol: float = 1e-13) -> float:
    """Diamond norm of a qubit-channel difference whose Choi difference j is X-shaped.

    The diamond norm is the maximum of the concave function
    2 ||(sqrt(rho) (x) 1) j (sqrt(rho) (x) 1)||_1 over input marginals rho
    (Watrous' SDP).  An X-shaped j is invariant under diagonal phase
    rotations, so a diagonal rho = diag(t, 1 - t) is optimal, and a
    golden-section search over t in [0, 1] finds the global maximum.
    """
    mask = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=bool)
    require(float(np.max(np.abs(j[~mask]))) <= 1e-15, "Choi difference is not X-shaped")
    lo, hi = 0.0, 1.0
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = _weighted_trace_norm(j, x1), _weighted_trace_norm(j, x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = _weighted_trace_norm(j, x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = _weighted_trace_norm(j, x1)
    return max(f1, f2, _weighted_trace_norm(j, 0.0), _weighted_trace_norm(j, 1.0))


# ----------------------------------------------------------------------------
# PBTRES writer for sparse inputs
# ----------------------------------------------------------------------------

def write_pbtres(path: str, n: int, form: str, mats: np.ndarray) -> None:
    """Write matrices in the PBTRES text format; zero entries cost no formatting."""
    lines = ["PBTRES 1", f"N={n}", f"FORM={form}"]
    for m in mats:
        for row in m:
            cells = ["0 0"] * row.size
            for k in np.flatnonzero(row):
                cells[k] = f"{row[k].real:.17g} {row[k].imag:.17g}"
            lines.append(" ".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
