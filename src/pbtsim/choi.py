"""Closed-form 4x4 Choi matrix of the channel simulated by n-port teleportation.

The Choi matrix is indexed by (idler bit, output bit) with the idler bit
outermost, relative to the maximally entangled reference state
(|00> + |11>)/sqrt(2).

The square-root measurement acts on the coupled spin basis of the n sender
qubits through one real row pair G_k per stratum (``measurement_rows``): a
kernel-sector pair per projection mm, then a bulk pair per total spin
ss = 2s of the measured (n+1)-qubit system, projection and multiplet of the
n-1 unkept ports, built from the overlap coefficients ``qr_coeffs``.  Each
of the four conditional-block tables T gives one 2x2 sum
sum_k w_k G_k T G_k^T (``g_sum``), and the four sums tile the Choi matrix.
The protocol's Kraus operators (``kraus.protocol_kraus``) are the same rows
on the full basis.  Labels outside the basis contribute exactly 0, which
covers the s = 0 stratum of odd n without special-casing.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .linalg import herm_defect, partial_trace_qubits
from .resources import TAGS, ReducedResource, SpinCoefficients, to_spin_coefficients
from .spin import Kind, SpinBasis, SpinLabel, build_spin_basis, degeneracy

_I = Kind.I
_II = Kind.II

CHOI_ATOL = 1e-10      # Hermiticity, trace and trace-preservation defects
CHOI_PSD_ATOL = 1e-9   # most negative eigenvalue tolerated


@dataclass(frozen=True)
class QRCoeffs:
    """Measurement overlap coefficients at one (ss, mm) stratum."""

    q_minus: float
    q_plus: float
    r_minus: float
    r_plus: float


def qr_coeffs(ss: int, mm: int, n: int) -> QRCoeffs:
    """Overlap coefficients; zero radicands give exact 0.

    Doubled arguments: ss = 2s, mm = 2m.  Requires ss <= n - 1 so the
    divisors stay positive, and |mm| <= ss.
    """
    if ss > n - 1:
        raise ValueError(f"ss={ss} exceeds n-1={n - 1}")
    if abs(mm) > ss:
        raise ValueError(f"|mm|={abs(mm)} exceeds ss={ss}")
    dq = (n + 1 - ss) * (ss + 1)
    dr = (n + 3 + ss) * (ss + 1)
    return QRCoeffs(
        q_minus=math.sqrt((ss - mm) / dq),
        q_plus=math.sqrt((ss + mm) / dq),
        r_minus=math.sqrt((ss - mm + 2) / dr),
        r_plus=math.sqrt((ss + mm + 2) / dr),
    )


def measurement_rows(basis: SpinBasis) -> tuple[np.ndarray, np.ndarray]:
    """The square-root measurement's rows in the coupled spin basis.

    Returns ``(rows, weights)``: ``rows[k]`` is a real 2 x len(basis.labels)
    pair over the basis columns, in protocol order.  First one kernel row
    per mm, ascending, at alpha = 1 with weight 1/2; then one bulk row per
    (ss, mm, alpha) the basis holds, weighted by (n/2) degeneracy(n-1, ss)
    over the number of those alpha.  The blocks of a port-symmetric resource
    commute with permutations of A_n..A_2, so by Schur-Weyl duality every
    alpha gives the same term: on the alpha = 1 basis each bulk row stands
    for all degeneracy(n-1, ss) multiplets.
    """
    n = basis.n
    width = len(basis.labels)
    # alpha count per parent spin ss: one Kind.II multiplet at jj = ss + 1 per parent
    held = Counter(lab.jj - 1 for lab in basis.labels if lab.kind is _II and lab.mm == lab.jj)
    rows, weights = [], []

    def add(weight, entries):
        # entries: (row, coefficient, jj, mm, kind, alpha); labels outside the basis add nothing
        g = np.zeros((2, width))
        for r, coef, *label in entries:
            k = basis.index.get(SpinLabel(n, *label))
            if k is not None:
                g[r, k] = coef
        rows.append(g)
        weights.append(weight)

    # kernel sector, weight m/(n+1) written with doubled mm
    for mm in range(-(n + 1), n + 2, 2):
        w = mm / (2.0 * (n + 1))
        add(0.5, [(0, math.sqrt(max(0.5 - w, 0.0)), n, mm + 1, _II, 1),
                  (1, math.sqrt(max(0.5 + w, 0.0)), n, mm - 1, _II, 1)])
    for ss in range(1 if n % 2 == 0 else 0, n, 2):
        weight = (n / 2) * degeneracy(n - 1, ss) / held[ss]
        for mm in range(-ss, ss + 1, 2):
            qr = qr_coeffs(ss, mm, n)
            for alpha in range(1, held[ss] + 1):
                add(weight, [(0, qr.q_minus, ss - 1, mm + 1, _I, alpha),
                             (0, -qr.r_plus, ss + 1, mm + 1, _II, alpha),
                             (1, qr.q_plus, ss - 1, mm - 1, _I, alpha),
                             (1, qr.r_minus, ss + 1, mm - 1, _II, alpha)])
    return np.array(rows), np.array(weights)


def g_sum(rows: np.ndarray, weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_k w_k G_k T G_k^T over the measurement rows G_k, a 2x2 matrix."""
    return np.einsum("k,kai,kbi->ab", weights, rows @ table, rows)


def assemble_choi(coeffs: SpinCoefficients) -> np.ndarray:
    """Choi matrix of the simulated channel from spin-basis coefficient tables.

    Entry (idler a, output i; idler b, output j) is entry (a, b) of the
    measurement sum over the block table R^{i+1, j+1}; the lower triangle is
    set to the conjugate of the upper.
    """
    if coeffs.n < 2:
        raise ValueError("at least two ports are required")
    rows, weights = measurement_rows(coeffs.basis)
    sums = [g_sum(rows, weights, coeffs.tables[tag]) for tag in TAGS]
    # sums[2i + j][a, b] -> c[2a + i, 2b + j]
    c = np.array(sums).reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)
    lower = np.tril_indices(4, -1)
    c[lower] = c.T[lower].conj()
    return c


def choi_from_reduced(reduced: ReducedResource) -> np.ndarray:
    """Full pipeline: reduced blocks -> alpha = 1 spin tables -> Choi matrix.

    Exact for port-symmetric resources, whose tables are the same on every
    multiplet (see ``measurement_rows``); ``load_resource`` rejects any
    other input.
    """
    basis = build_spin_basis(reduced.n, first_only=True)
    return assemble_choi(to_spin_coefficients(reduced, basis))


def check_choi(c: np.ndarray) -> None:
    """Validate the state and trace-preservation invariants of a Choi matrix."""
    if c.shape != (4, 4):
        raise ValueError(f"Choi matrix must be 4x4, got {c.shape}")
    if herm_defect(c) > CHOI_ATOL:
        raise ValueError("Choi matrix is not Hermitian")
    if np.linalg.eigvalsh(c).min() < -CHOI_PSD_ATOL:
        raise ValueError("Choi matrix is not positive semidefinite")
    if abs(np.trace(c) - 1) > CHOI_ATOL:
        raise ValueError("Choi matrix trace differs from 1")
    marginal = partial_trace_qubits(c, 2, [0])
    if np.max(np.abs(marginal - np.eye(2) / 2)) > CHOI_ATOL:
        raise ValueError("channel is not trace preserving (idler marginal != I/2)")
