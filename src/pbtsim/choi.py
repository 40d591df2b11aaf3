"""Closed-form 4x4 Choi matrix of the channel simulated by n-port teleportation.

The Choi matrix is indexed by (idler bit, output bit) with the idler bit
outermost, relative to the maximally entangled reference state
(|00> + |11>)/sqrt(2).

The square-root measurement acts on the coupled spin basis of the n sender
qubits through one real row pair G_k of weight w_k per stratum; the basis
holds them (``SpinBasis.rows``).  One sum sum_k w_k G_k T G_k^T (``g_sum``)
over the resource's spin table T gives a 2x2 matrix for each of the four
conditional blocks, and those tile the Choi matrix.  The protocol's Kraus
operators (``kraus.protocol_kraus``) are the same rows on the full basis.
"""

from __future__ import annotations

import numpy as np

from .linalg import dag, partial_trace_qubits
from .resources import (ProductResource, ReducedResource, SpinCoefficients, _check_state,
                        to_spin_coefficients)
from .spin import MeasurementRows, build_spin_basis

CHOI_ATOL = 1e-10      # Hermiticity, trace and trace-preservation defects
CHOI_PSD_ATOL = 1e-9   # most negative eigenvalue tolerated

_LOWER = np.tril_indices(4, -1)


def g_sum(rows: MeasurementRows, table) -> np.ndarray:
    """sum_k w_k G_k T G_k^T over the measurement rows G_k and weights w_k.

    T is read only at the columns each row pair holds, as ``table[i, j]``
    with integer index arrays: a dense array, or a ``ProductTable``.  Axes
    of T after the two column axes (the block pair of a resource's table)
    come first in the result, then the 2x2 of the sum.
    """
    # contiguous, so each leading index runs the products of a 2-D table, bit for bit
    sub = table[rows.cols[:, :, None], rows.cols[:, None, :]]
    # (k, a, b, ...) -> (..., k, a, b); a transpose costs a sixth of np.moveaxis
    sub = np.ascontiguousarray(sub.transpose(*range(3, sub.ndim), 0, 1, 2))
    return np.einsum("k,...kai,kbi->...ab", rows.weights, rows.coefs @ sub, rows.coefs)


def assemble_choi(coeffs: SpinCoefficients) -> np.ndarray:
    """Choi matrix of the simulated channel from a spin-basis coefficient table.

    Entry (idler a, output i; idler b, output j) is entry (a, b) of the
    measurement sum over block R^{i+1, j+1} of the table, turned back on the
    idler if the table is of a turned resource (``SpinCoefficients.frame``);
    the lower triangle is set to the conjugate of the upper.
    """
    if coeffs.basis.n < 2:
        raise ValueError("at least two ports are required")
    # sums[i, j, a, b] -> c[2a + i, 2b + j]
    c = g_sum(coeffs.basis.rows, coeffs.table).transpose(2, 0, 3, 1).reshape(4, 4)
    if coeffs.frame is not None:
        turn = np.kron(coeffs.frame.T, np.eye(2))
        c = turn @ c @ dag(turn)
    c[_LOWER] = c.T[_LOWER].conj()
    return c


def choi_from_reduced(reduced: ReducedResource | ProductResource) -> np.ndarray:
    """Full pipeline: resource -> alpha = 1 spin table -> Choi matrix.

    Exact for port-symmetric resources, whose table is the same on every
    multiplet (see ``SpinBasis.rows``); ``load_resource`` rejects any
    other input.  A product resource needs the basis labels only.
    """
    basis = build_spin_basis(reduced.n, first_only=True)
    return assemble_choi(to_spin_coefficients(reduced, basis))


def check_choi(c: np.ndarray) -> None:
    """Validate the state (``resources._check_state``) and trace-preservation
    invariants of a Choi matrix."""
    _check_state(c, "Choi matrix", 4, CHOI_ATOL, CHOI_PSD_ATOL)
    marginal = partial_trace_qubits(c, 2, [0])
    if np.max(np.abs(marginal - np.eye(2) / 2)) > CHOI_ATOL:
        raise ValueError("channel is not trace preserving (idler marginal != I/2)")
