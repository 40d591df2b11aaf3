"""Closed-form 4x4 Choi matrix of the channel simulated by n-port teleportation.

The Choi matrix is indexed by (idler bit, output bit) with the idler bit
outermost, relative to the maximally entangled reference state
(|00> + |11>)/sqrt(2).  Its sixteen entries come from three component sums
(top-left, top-right and bottom-right diagonal blocks), each evaluated with
one of the four conditional-block tables and combined with complex
conjugation below the diagonal.

Each component sum has a bulk part over total spin ss = 2s of the measured
(n+1)-qubit system, ss from s_min to n-1, weighted by the square-root
measurement overlap coefficients and by the number of spin-s multiplets of
the n-1 unkept ports (their tables are equal, so only alpha = 1 is
computed), plus a kernel-sector boundary part at alpha = 1.  Labels outside
the basis contribute exactly 0, which covers the s = 0 stratum of odd n
without special-casing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import herm_defect, partial_trace_qubits
from .resources import TAGS, ReducedResource, SpinCoefficients, g_sum, to_spin_coefficients
from .spin import Kind, build_spin_basis

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


def _components(coeffs: SpinCoefficients, tag: str, n: int) -> tuple[complex, complex, complex]:
    """The three independent Choi components for one block table."""
    ss_min = 1 if n % 2 == 0 else 0
    c11 = 0j
    c13 = 0j
    c33 = 0j
    for ss in range(ss_min, n, 2):
        for mm in range(-ss, ss + 1, 2):
            qr = qr_coeffs(ss, mm, n)

            def g(kinds, signs):
                return g_sum(coeffs, tag, kinds, signs, ss, mm)

            c11 += (
                qr.q_minus ** 2 * g((_I, _I), (-1, 1, -1, 1))
                - qr.q_minus * qr.r_plus * (g((_I, _II), (-1, 1, 1, 1)) + g((_II, _I), (1, 1, -1, 1)))
                + qr.r_plus ** 2 * g((_II, _II), (1, 1, 1, 1))
            )
            c13 += (
                qr.q_minus * qr.q_plus * g((_I, _I), (-1, 1, -1, -1))
                + qr.q_minus * qr.r_minus * g((_I, _II), (-1, 1, 1, -1))
                - qr.q_plus * qr.r_plus * g((_II, _I), (1, 1, -1, -1))
                - qr.r_minus * qr.r_plus * g((_II, _II), (1, 1, 1, -1))
            )
            c33 += (
                qr.q_plus ** 2 * g((_I, _I), (-1, -1, -1, -1))
                + qr.q_plus * qr.r_minus * (g((_I, _II), (-1, -1, 1, -1)) + g((_II, _I), (1, -1, -1, -1)))
                + qr.r_minus ** 2 * g((_II, _II), (1, -1, 1, -1))
            )
    c11 *= n / 2
    c13 *= n / 2
    c33 *= n / 2
    # kernel-sector boundary terms, weight m/(n+1) written with doubled mm
    for mm in range(-(n + 1), n + 2, 2):
        w = mm / (2.0 * (n + 1))
        c11 += 0.5 * (0.5 - w) * coeffs.boundary(tag, mm, 1, 1)
        c13 += 0.5 * math.sqrt(max(0.25 - w * w, 0.0)) * coeffs.boundary(tag, mm, 1, -1)
        c33 += 0.5 * (0.5 + w) * coeffs.boundary(tag, mm, -1, -1)
    return c11, c13, c33


def assemble_choi(coeffs: SpinCoefficients) -> np.ndarray:
    """Choi matrix of the simulated channel from spin-basis coefficient tables."""
    n = coeffs.n
    if n < 2:
        raise ValueError("at least two ports are required")
    c11, c13, c33 = {}, {}, {}
    for tag in TAGS:
        c11[tag], c13[tag], c33[tag] = _components(coeffs, tag, n)
    return np.array(
        [
            [c11["11"], c11["12"], c13["11"], c13["12"]],
            [np.conj(c11["12"]), c11["22"], c13["21"], c13["22"]],
            [np.conj(c13["11"]), np.conj(c13["21"]), c33["11"], c33["12"]],
            [np.conj(c13["12"]), np.conj(c13["22"]), np.conj(c33["12"]), c33["22"]],
        ],
        dtype=complex,
    )


def choi_from_reduced(reduced: ReducedResource) -> np.ndarray:
    """Full pipeline: reduced blocks -> alpha = 1 spin tables -> Choi matrix.

    Exact for port-symmetric resources, whose tables are the same on every
    multiplet (see ``g_sum``); ``load_resource`` rejects any other input.
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
