"""Kraus representations: qubit channels from Choi matrices, and the
protocol map from a reduced resource state to the simulated channel's Choi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .choi import CHOI_PSD_ATOL
from .resources import ProductResource, ReducedResource, apply_transfer
from .spin import build_spin_basis

EIG_FLOOR = 1e-12  # rank decision for Kraus extraction
EIG_GAP = 1e-8     # eigenvalues closer than this share one eigenspace
KRAUS_ZERO = 1e-14  # operator entries (real or imaginary part) below this are 0

# a fixed generic 4 x 4 frame (condition number 5.1); it is real, so a real
# Choi matrix gets real operators
_FRAME = np.cos(np.outer(np.sqrt([2.0, 3.0, 5.0, 7.0]), np.arange(1, 5)))


@dataclass(frozen=True, eq=False)
class KrausSet:
    ops: tuple[np.ndarray, ...]


def choi_to_kraus(choi: np.ndarray) -> KrausSet:
    """Kraus operators of the qubit channel with the given Choi matrix.

    Eigenvalues below EIG_FLOOR are dropped.  Each operator comes from a
    vector b (indexed idler-outermost) as K[out, in] = sqrt(2) <in out|b>,
    and sum_k b_k b_k^dag is the Choi matrix, so that
    sum_k (1 (x) K_k) |Phi><Phi| (1 (x) K_k)^dag recovers it for the
    normalised reference state |Phi>.

    The set is canonical: the eigenvectors that eigh returns are arbitrary
    inside a degenerate eigenspace, so the eigenvalues are grouped into
    clusters split where neighbours differ by more than EIG_GAP.  A cluster
    of r eigenvalues with eigenspace projector P and spectral part C gives
    b_i = C^(1/2) q_i, where q = F (F^dag F)^(-1/2) orthonormalises F = P W
    for the first r columns W of a fixed generic frame; so
    sum_i b_i b_i^dag = C, and the operators depend on P and C only.  Real
    and imaginary parts below KRAUS_ZERO are set to 0, so Choi matrices
    equal to within rounding give the same operators.
    """
    w, v = np.linalg.eigh(np.asarray(choi))
    if w.min() < -CHOI_PSD_ATOL:
        raise ValueError(f"Choi matrix is not positive semidefinite (min eig {w.min():.3e})")
    keep = w > EIG_FLOOR
    w, v = w[keep], v[:, keep]
    ops = []
    for cluster in np.split(np.arange(w.size), np.flatnonzero(np.diff(w) > EIG_GAP) + 1):
        vc = v[:, cluster]
        root = (vc * np.sqrt(w[cluster])) @ vc.conj().T
        f = vc @ (vc.conj().T @ _FRAME[:, :cluster.size])
        s, u = np.linalg.eigh(f.conj().T @ f)
        q = f @ ((u / np.sqrt(s)) @ u.conj().T)
        for b in (root @ q).T:
            k = math.sqrt(2) * b.reshape(2, 2).T
            ops.append(np.where(abs(k.real) < KRAUS_ZERO, 0.0, k.real)
                       + 1j * np.where(abs(k.imag) < KRAUS_ZERO, 0.0, k.imag))
    return KrausSet(ops=tuple(ops))


def apply_kraus(kraus: KrausSet, state: np.ndarray) -> np.ndarray:
    """sum_k K_k state K_k^dag."""
    state = np.asarray(state)
    if state.shape != (2, 2):
        raise ValueError(f"state shape {state.shape} is not a qubit's (2, 2)")
    out = np.zeros((2, 2), dtype=complex)
    for k in kraus.ops:
        out += k @ state @ k.conj().T
    return out


def choi_from_kraus(kraus: KrausSet) -> np.ndarray:
    """Choi matrix of a qubit channel from its Kraus operators."""
    c = np.zeros((4, 4), dtype=complex)
    for k in kraus.ops:
        # (1 (x) K)|Phi> with |Phi> = (|00> + |11>)/sqrt(2); component (idler, out)
        vec = (k / math.sqrt(2)).T.reshape(-1)
        c += np.outer(vec, vec.conj())
    return c


@dataclass(frozen=True, eq=False)
class ProtocolKraus:
    """Kraus operators of the map from Tr_{B2..Bn}[resource] to the Choi matrix.

    Operators act on (A, B_1) (dimension 2^(n+1)) and output (C_0, B_1)
    (dimension 4).  Each is bra_k (x) 1_{B_1} for a real (2, 2^n) bra_k on A
    (the coupled basis and the measurement rows are real).  ``bras`` holds
    them as one (count, 2, 2^n) array; ``ops``, the operators as one
    (count, 4, 2^(n+1)) array, is built on first read.  ``k2``, views of its
    first n + 2 operators, covers the kernel sector of the measurement
    (ascending mm), ``k1`` the bulk (ss outer, mm middle, alpha inner).  The
    family with the traced receiver qubits kept explicit is identical up to
    the choice of a basis bra on those n-1 qubits: 2^(n-1) copies of each
    operator here.

    The whole map is its real (2^n, 4, 2^n) ``transfer`` matrix
    T[a, (m, m'), a'] = sum_k bra_k[m, a] bra_k[m', a'].  It equals the
    dense oracle's (n/2) pi_1 in the same layout (``oracle.build_povm``),
    reached from the spin-basis rows instead of a dense ``eigh``.
    """

    n: int
    bras: np.ndarray

    @cached_property
    def ops(self) -> np.ndarray:
        """The operators bra_k (x) 1_{B_1}, built on first read (four times the bras' bytes)."""
        ops = self.bras[:, :, None, :, None] * np.eye(2)[:, None, :]
        return ops.reshape(len(self.bras), 4, 2 ** (self.n + 1))

    @property
    def k2(self) -> np.ndarray:
        return self.ops[:self.n + 2]

    @property
    def k1(self) -> np.ndarray:
        return self.ops[self.n + 2:]

    @cached_property
    def transfer(self) -> np.ndarray:
        """The map's transfer matrix, built on first use (32 * 4^n bytes)."""
        d, count = 2 ** self.n, len(self.bras)
        # one (2^(n+1), count) x (count, 2^(n+1)) product: rows (a, m), columns
        # (m', a'), already the target layout
        rows = self.bras.transpose(0, 2, 1).reshape(count, 2 * d)
        return (rows.T @ self.bras.reshape(count, 2 * d)).reshape(d, 4, d)


def protocol_kraus(n: int) -> ProtocolKraus:
    """Explicit protocol Kraus operators for n ports: each measurement row
    pair G_k on the full basis, as sqrt(w_k) G_k u^T (x) 1, kept as the bras
    sqrt(w_k) G_k u^T."""
    if n < 2:
        raise ValueError("at least two ports are required")
    basis = build_spin_basis(n)
    rows = basis.rows
    # G_k u^T: each row pair's coefficients times the basis vectors of its columns
    bras = np.sqrt(rows.weights)[:, None, None] * (rows.coefs @ basis.u.T[rows.cols])
    return ProtocolKraus(n=n, bras=bras)


def apply_protocol(pk: ProtocolKraus,
                   resource: ReducedResource | ProductResource | np.ndarray) -> np.ndarray:
    """Choi matrix sum_k K_k R K_k^T for R the resource reduced to (A, B_1):
    a resource, or R itself.  The transfer matrix is applied as
    ``oracle_choi`` applies (n/2) pi_1 (``resources.apply_transfer``): a
    product resource port by port, any other operator where it lies."""
    return apply_transfer(pk.transfer, resource)


def protocol_gram(pk: ProtocolKraus) -> np.ndarray:
    """sum_k K_k^dag K_k, kept available for inspection; the protocol is only
    guaranteed trace preserving on port-symmetric inputs."""
    flat = pk.ops.reshape(-1, 2 ** (pk.n + 1))
    return flat.T @ flat
