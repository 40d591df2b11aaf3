"""Dense brute-force construction of the square-root measurement and channel.

Everything here is built by explicit linear algebra on the full
2^(n+1)-dimensional space so it can validate the closed-form results at small
port counts.  Slot order matches the rest of the package: sender qubits
(A_n .. A_1) then the measured input qubit C last.

The measurement is built in real arithmetic (rho is a sum of real singlet
projectors) by a dense ``eigh``, whose spectrum is checked against
``spin.rho_eigenvalue`` on every build.  A Choi entry
(n/2) Tr[pi_1 (R^{ij} (x) |m><m'|)] needs no 2^(n+1) matrix product: it is
(n/2) sum_{a, a'} pi_1[(a, m), (a', m')] R[(a, i), (a', j)], so the whole
4 x 4 matrix is a contraction with the transfer matrix
T[a, (m, m'), a'] = (n/2) pi_1[(a, m), (a', m')], O(4^n) work per resource.
``build_povm`` returns T, read-only and kept per n; ``povm_element`` re-lays
pi_1 from it.  The contraction is ``linalg.transfer_choi``, which the
protocol Kraus map (``kraus.apply_protocol``) shares: the two checks differ
only in how their transfer matrix is built.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import swap_qubits, transfer_choi
from .resources import ReducedResource, bell_port
from .spin import rho_eigenvalue

MAX_ORACLE_PORTS = 8

_SUPPORT_CUTOFF = 1e-10  # spectral gap of rho is >= 1/4, so orders of margin


def sigma_op(i: int, n: int) -> np.ndarray:
    """Singlet projector between C and sender qubit i, identity elsewhere."""
    if not 1 <= i <= n:
        raise ValueError(f"port index {i} out of 1..{n}")
    # normalised, so rho = sum_i sigma_i has the spectrum of spin.rho_eigenvalue,
    # which build_povm asserts on every call
    sigma1 = np.kron(np.eye(2 ** (n - 1)), bell_port().real)
    return swap_qubits(sigma1, n + 1, (n - 1, n - i))


@lru_cache(maxsize=None)
def build_povm(n: int) -> np.ndarray:
    """Square-root measurement element for outcome 1, built densely, as the
    read-only real (2^n, 4, 2^n) transfer matrix
    T[a, (m, m'), a'] = (n/2) pi_1[(a, m), (a', m')] of the simulated
    channel, in the index order of the operator on (A, B_1) it contracts."""
    if not 2 <= n <= MAX_ORACLE_PORTS:
        raise ValueError(f"port count must be in 2..{MAX_ORACLE_PORTS}, got {n}")
    dim = 2 ** (n + 1)
    sigma1 = sigma_op(1, n)
    rho = sigma1.copy()
    for i in range(2, n + 1):
        rho += sigma_op(i, n)
    w, v = np.linalg.eigh(rho)
    # the n qubits carry spin jj/2 for jj = n, n - 2, ..., and C anti-aligns
    # with it only for jj > 0
    spectrum = ([rho_eigenvalue("-", jj, n) for jj in range(n % 2, n + 1, 2)]
                + [rho_eigenvalue("+", jj, n) for jj in range(2 - n % 2, n + 1, 2)])
    if max(min(abs(x - s) for s in spectrum) for x in w) > 1e-8:
        raise AssertionError("rho spectrum off the expected quarter-integer stencil")
    kept = v[:, w > _SUPPORT_CUTOFF]
    inv_sqrt = (kept / np.sqrt(w[w > _SUPPORT_CUTOFF])) @ kept.T
    pi_1 = inv_sqrt @ sigma1 @ inv_sqrt + (np.eye(dim) - kept @ kept.T) / n
    pi_1 = 0.5 * (pi_1 + pi_1.T)
    d = 2 ** n
    transfer = np.multiply(n / 2, pi_1.reshape(d, 2, d, 2).transpose(0, 1, 3, 2),
                           out=np.empty((d, 2, 2, d))).reshape(d, 4, d)
    transfer.flags.writeable = False
    return transfer


def povm_element(i: int, n: int) -> np.ndarray:
    """Outcome-i measurement element on (A, C): pi_1, re-laid from the
    transfer matrix, with its port permuted."""
    d = 2 ** n
    pi_1 = np.divide(build_povm(n).reshape(d, 2, 2, d).transpose(0, 1, 3, 2), n / 2,
                     out=np.empty((d, 2, d, 2)))
    return swap_qubits(pi_1.reshape(2 * d, 2 * d), n + 1, (n - 1, n - i))


def oracle_choi(reduced: ReducedResource) -> np.ndarray:
    """Choi matrix of the simulated channel, by direct dense traces."""
    return transfer_choi(build_povm(reduced.n), reduced.joint)
