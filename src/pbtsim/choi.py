"""Closed-form 4x4 Choi matrix of the channel simulated by n-port teleportation.

The Choi matrix is indexed by (idler bit, output bit) with the idler bit
outermost, relative to the maximally entangled reference state
(|00> + |11>)/sqrt(2).

The square-root measurement acts on the coupled spin basis of the n sender
qubits through one real row pair G_k per stratum (``measurement_rows``): a
kernel-sector pair per projection mm, then a bulk pair per total spin
ss = 2s of the measured (n+1)-qubit system, projection and multiplet of the
n-1 unkept ports, whose overlap coefficients it writes in closed form.  One
sum sum_k w_k G_k T G_k^T (``g_sum``) over the resource's spin table T gives
a 2x2 matrix for each of the four conditional blocks, and those tile the
Choi matrix.
The protocol's Kraus operators (``kraus.protocol_kraus``) are the same rows
on the full basis.  Labels outside the basis contribute exactly 0, which
covers the s = 0 stratum of odd n without special-casing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import dag, herm_defect, partial_trace_qubits
from .resources import ProductResource, ReducedResource, SpinCoefficients, to_spin_coefficients
from .spin import (SpinBasis, build_spin_basis, cached_up_to_max_ports, degeneracy,
                   held_multiplets)

CHOI_ATOL = 1e-10      # Hermiticity, trace and trace-preservation defects
CHOI_PSD_ATOL = 1e-9   # most negative eigenvalue tolerated

_LOWER = np.tril_indices(4, -1)


@dataclass(frozen=True, eq=False)
class MeasurementRows:
    """Row pairs G_k over the basis columns, stored by their entries: pair k
    holds ``coefs[k, a, e]`` in row a at column ``cols[k, e]``.  Each pair has
    four entries; a pair with fewer repeats one of its columns with
    coefficient 0."""

    cols: np.ndarray   # (pairs, 4) integer
    coefs: np.ndarray  # (pairs, 2, 4) real

    def __len__(self) -> int:
        return len(self.cols)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays of every column pair each row pair reads: (pairs, 4, 4)."""
        return self.cols[:, :, None], self.cols[:, None, :]


@cached_up_to_max_ports(lambda basis: basis.n)
def measurement_rows(basis: SpinBasis) -> tuple[MeasurementRows, np.ndarray]:
    """The square-root measurement's rows in the coupled spin basis.

    Returns ``(rows, weights)`` with one row pair per stratum, in protocol
    order.  First one kernel pair per mm, ascending, at alpha = 1 with
    weight 1/2; then one bulk pair per (ss, mm, alpha) the basis holds,
    weighted by (n/2) degeneracy(n-1, ss) over the number of those alpha.
    The blocks of a port-symmetric resource commute with permutations of
    A_n..A_2, so by Schur-Weyl duality every alpha gives the same term: on
    the alpha = 1 basis each bulk pair stands for all degeneracy(n-1, ss)
    multiplets.  Every pair reads columns of one parent multiplet only
    (``SpinBasis.parents``): a kernel pair that of spin n - 1, a bulk pair
    that of spin ss, at projections mm and mm +- 2, found in closed form
    from the column order of ``build_spin_basis``.  The result is read-only
    and cached per basis up to MAX_PORTS, as the bases are.
    """
    n = basis.n
    held = [held_multiplets(n, ss, basis.first_only) for ss in range(n + 2)]
    cols, coefs, weights = [], [], []

    def pairs(mm, parent, alpha, entries):
        # one pair per projection in mm, reading multiplet alpha of spin parent;
        # entries: (row, coefficients, jj, mm shift).  Labels outside the basis
        # add nothing: coefficient 0 at a column the pair holds, so that every
        # pair reads one parent multiplet
        c = np.full((mm.size, 4), -1)
        g = np.zeros((mm.size, 2, 4))
        for e, (r, coef, jj, shift) in enumerate(entries):
            there = np.abs(mm + shift) <= jj
            # the multiplet's lowest projection: within jj, those coupled from
            # spin jj + 1 come first
            start = (np.searchsorted(basis.jj, jj) + (alpha - 1) * (jj + 1)
                     + (held[jj + 1] * (jj + 1) if parent < jj else 0))
            c[:, e] = np.where(there, start + (mm + shift + jj) // 2, -1)
            g[:, r, e] = np.where(there, coef, 0.0)
        return np.where(c < 0, c.max(axis=1, keepdims=True), c), g

    def add(weight, c, g):
        cols.append(c)
        coefs.append(g)
        weights.append(np.full(len(c), weight))

    # kernel sector, weight m/(n+1) written with doubled mm
    mm = np.arange(-(n + 1), n + 2, 2)
    w = mm / (2.0 * (n + 1))
    add(0.5, *pairs(mm, n - 1, 1, [(0, np.sqrt(np.maximum(0.5 - w, 0.0)), n, 1),
                                   (1, np.sqrt(np.maximum(0.5 + w, 0.0)), n, -1)]))
    for ss in range(1 if n % 2 == 0 else 0, n, 2):
        # overlaps with the columns of spin ss - 1 (q) and ss + 1 (r); a zero
        # radicand, at mm = +-ss, gives exactly 0
        mm = np.arange(-ss, ss + 1, 2)
        dq, dr = (n + 1 - ss) * (ss + 1), (n + 3 + ss) * (ss + 1)
        q_minus, q_plus = np.sqrt((ss - mm) / dq), np.sqrt((ss + mm) / dq)
        r_minus, r_plus = np.sqrt((ss - mm + 2) / dr), np.sqrt((ss + mm + 2) / dr)
        # strata ordered by mm, then alpha
        by_alpha = [pairs(mm, ss, alpha, [(0, q_minus, ss - 1, 1), (0, -r_plus, ss + 1, 1),
                                          (1, q_plus, ss - 1, -1), (1, r_minus, ss + 1, -1)])
                    for alpha in range(1, held[ss] + 1)]
        add((n / 2) * degeneracy(n - 1, ss) / held[ss],
            *(np.stack(part, axis=1).reshape(-1, *part[0].shape[1:]) for part in zip(*by_alpha)))
    rows = MeasurementRows(np.concatenate(cols), np.concatenate(coefs))
    weights = np.concatenate(weights)
    for a in (rows.cols, rows.coefs, weights):
        a.setflags(write=False)
    return rows, weights


def g_sum(rows: MeasurementRows, weights: np.ndarray, table) -> np.ndarray:
    """sum_k w_k G_k T G_k^T over the measurement rows G_k.

    T is read only at the columns each row pair holds, as ``table[i, j]``
    with integer index arrays: a dense array, or a ``ProductTable``.  Axes
    of T after the two column axes (the block pair of a resource's table)
    come first in the result, then the 2x2 of the sum.
    """
    # contiguous, so each leading index runs the products of a 2-D table, bit for bit
    sub = np.ascontiguousarray(np.moveaxis(table[rows.pairs], (0, 1, 2), (-3, -2, -1)))
    return np.einsum("k,...kai,kbi->...ab", weights, rows.coefs @ sub, rows.coefs)


def assemble_choi(coeffs: SpinCoefficients) -> np.ndarray:
    """Choi matrix of the simulated channel from a spin-basis coefficient table.

    Entry (idler a, output i; idler b, output j) is entry (a, b) of the
    measurement sum over block R^{i+1, j+1} of the table, turned back on the
    idler if the table is of a turned resource (``SpinCoefficients.frame``);
    the lower triangle is set to the conjugate of the upper.
    """
    if coeffs.basis.n < 2:
        raise ValueError("at least two ports are required")
    rows, weights = measurement_rows(coeffs.basis)
    # sums[i, j, a, b] -> c[2a + i, 2b + j]
    c = g_sum(rows, weights, coeffs.table).transpose(2, 0, 3, 1).reshape(4, 4)
    if coeffs.frame is not None:
        turn = np.kron(coeffs.frame.T, np.eye(2))
        c = turn @ c @ dag(turn)
    c[_LOWER] = c.T[_LOWER].conj()
    return c


def choi_from_reduced(reduced: ReducedResource | ProductResource) -> np.ndarray:
    """Full pipeline: resource -> alpha = 1 spin table -> Choi matrix.

    Exact for port-symmetric resources, whose table is the same on every
    multiplet (see ``measurement_rows``); ``load_resource`` rejects any
    other input.  A product resource needs the basis labels only.
    """
    basis = build_spin_basis(reduced.n, first_only=True)
    return assemble_choi(to_spin_coefficients(reduced, basis))


def check_choi(c: np.ndarray) -> None:
    """Validate the state and trace-preservation invariants of a Choi matrix."""
    if c.shape != (4, 4):
        raise ValueError(f"Choi matrix must be 4x4, got {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("Choi matrix has a nan or inf entry")
    if herm_defect(c) > CHOI_ATOL:
        raise ValueError("Choi matrix is not Hermitian")
    if np.linalg.eigvalsh(c).min() < -CHOI_PSD_ATOL:
        raise ValueError("Choi matrix is not positive semidefinite")
    if abs(np.trace(c) - 1) > CHOI_ATOL:
        raise ValueError("Choi matrix trace differs from 1")
    marginal = partial_trace_qubits(c, 2, [0])
    if np.max(np.abs(marginal - np.eye(2) / 2)) > CHOI_ATOL:
        raise ValueError("channel is not trace preserving (idler marginal != I/2)")
