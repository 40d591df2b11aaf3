"""Angular-momentum (spin) structure of n qubits.

Builds the coupled spin basis of n qubits by the standard spin-1/2
Clebsch-Gordan recursion.  One level up it also diagonalises the operator
rho = sum_i sigma_i (sigma_i = singlet projector between an extra qubit C and
qubit i) that underlies the square-root measurement: the recursion couples
the newest qubit last, so with C as qubit n + 1 every vector of
``build_spin_basis(n + 1)`` is an eigenvector of rho, its kind naming the
n-qubit spin it came from.  A Kind.I vector at jj has eigenvalue
``rho_eigenvalue('+', jj + 1, n)``, a Kind.II vector
``rho_eigenvalue('-', jj - 1, n)``; the Kind.II vectors at jj = n + 1 span
the kernel.

For port-symmetric resources every spin table is the same on each multiplet
of a given (jj, kind) (Schur-Weyl duality), so the channel needs only the
first multiplet of each: ``build_spin_basis(n, first_only=True)`` keeps those,
a real 2^n x O(n^2) matrix (60 columns at n = 10) instead of the 2^n x 2^n
unitary.

Half-integer labels are stored doubled (``jj = 2j``, ``mm = 2m``) so that all
index arithmetic is exact; values are converted to floats only inside
coefficient formulas.  Qubit ordering: the recursion appends the newest qubit
as the last (least significant) tensor slot, so C sits after all n qubits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: the four 2^n x 2^n complex REDUCED blocks take 1 GiB at 12 ports and
#: 4 GiB at 13; the compressed basis itself is only 2^n x O(n^2)
MAX_PORTS = 12

_E0 = np.array([1.0, 0.0])
_E1 = np.array([0.0, 1.0])


class Kind(enum.Enum):
    """How a coupled basis vector was built from the (n-1)-qubit basis."""

    I = "I"          # parent multiplet has j + 1/2
    II = "II"        # parent multiplet has j - 1/2
    UNSPLIT = "1"    # n = 1 base case


def clebsch_gordan(branch: str, jj: int, mm: int) -> float:
    """<j, m, 1/2, s2 | j +- 1/2, m +- 1/2> in the Condon-Shortley convention.

    ``branch`` holds two signs, e.g. ``"+-"``: the first selects whether the
    target total spin is j+1/2 or j-1/2, the second whether the target
    z-projection is m+1/2 or m-1/2.  ``jj`` and ``mm`` are the doubled source
    labels.  Couplings whose source or target state does not exist return
    exactly 0.
    """
    if branch not in ("++", "+-", "-+", "--"):
        raise ValueError(f"unknown coupling branch {branch!r}")
    if jj < 0:
        raise ValueError(f"negative spin magnitude: jj={jj}")
    if (jj - mm) % 2:
        raise ValueError(f"jj={jj} and mm={mm} must have equal parity")
    jj_t = jj + 1 if branch[0] == "+" else jj - 1
    mm_t = mm + 1 if branch[1] == "+" else mm - 1
    if abs(mm) > jj or jj_t < 0 or abs(mm_t) > jj_t:
        return 0.0
    if branch == "++":
        return math.sqrt((jj + mm + 2) / (2.0 * (jj + 1)))
    if branch == "+-":
        return math.sqrt((jj - mm + 2) / (2.0 * (jj + 1)))
    if branch == "--":
        return math.sqrt((jj + mm) / (2.0 * (jj + 1)))
    return -math.sqrt((jj - mm) / (2.0 * (jj + 1)))


def degeneracy(ports: int, jj: int) -> int:
    """Number of spin-j multiplets in ``ports`` qubits (exact integer).

    Returns 0 for any (ports, jj) combination that does not occur, including
    parity mismatches.
    """
    if ports < 0 or jj < 0 or jj > ports or (ports - jj) % 2:
        return 0
    return (jj + 1) * math.factorial(ports) // (
        math.factorial((ports - jj) // 2) * math.factorial((ports + jj) // 2 + 1)
    )


def rho_eigenvalue(sign: str, jj: int, n: int) -> float:
    """Eigenvalue of rho on the sector where the n qubits carry spin j.

    ``sign`` '-' labels the sector where C aligns with the n-qubit spin
    (total spin j+1/2), '+' the sector where it anti-aligns (total j-1/2).
    """
    if sign == "-":
        if not 0 <= jj <= n:
            raise ValueError(f"jj={jj} out of range for n={n}")
        return (n - jj) / 4.0
    if sign == "+":
        if not 1 <= jj <= n:
            raise ValueError(f"jj={jj} out of range for n={n} (sign '+')")
        return (n + jj + 2) / 4.0
    raise ValueError(f"sign must be '-' or '+', got {sign!r}")


@dataclass(frozen=True)
class SpinLabel:
    """Label of one coupled-basis vector of ``n`` qubits."""

    n: int
    jj: int        # doubled total spin
    mm: int        # doubled z-projection
    kind: Kind
    alpha: int     # multiplet index within (jj, kind), 1-based


@dataclass(frozen=True, eq=False)
class SpinBasis:
    """Coupled spin basis of n qubits.

    ``u`` holds the basis vectors as columns (computational basis rows,
    qubit 1 in the last tensor slot), ordered like ``labels``: a real
    orthogonal 2^n x 2^n matrix, or its alpha = 1 columns alone
    (``first_only``).  The Clebsch-Gordan coefficients are real.
    """

    n: int
    labels: tuple[SpinLabel, ...]
    u: np.ndarray
    index: dict


def _couple(parent: dict, jj_child: int, jj_parent: int, dim: int) -> dict:
    """One multiplet of the child level from one parent multiplet."""
    first = "-" if jj_parent > jj_child else "+"
    vecs = {}
    for mm in range(-jj_child, jj_child + 1, 2):
        v = np.zeros(dim)
        c0 = clebsch_gordan(first + "-", jj_parent, mm + 1)
        if c0 and (mm + 1) in parent:
            v += c0 * np.kron(parent[mm + 1], _E0)
        c1 = clebsch_gordan(first + "+", jj_parent, mm - 1)
        if c1 and (mm - 1) in parent:
            v += c1 * np.kron(parent[mm - 1], _E1)
        vecs[mm] = v
    return vecs


def check_port_count(n: int) -> None:
    if not 1 <= n <= MAX_PORTS:
        raise ValueError(f"port count must be in 1..{MAX_PORTS}, got {n}")


@lru_cache(maxsize=None)
def build_spin_basis(n: int, first_only: bool = False) -> SpinBasis:
    """Construct the coupled spin basis of n qubits.

    Within each jj the Kind.I multiplets come first, each kind ordered by the
    parent multiplet it was coupled from; columns are ordered by ascending jj,
    then multiplet, then ascending mm.

    With ``first_only`` each level keeps just the alpha = 1 multiplet of each
    (jj, kind): Kind.I from the first parent at jj + 1, Kind.II from the first
    at jj - 1.  Its columns are exactly the alpha = 1 columns of the full
    basis.
    """
    check_port_count(n)
    groups: dict[int, list] = {1: [(Kind.UNSPLIT, 1, {-1: _E0, 1: _E1})]}
    for level in range(2, n + 1):
        nxt: dict[int, list] = {}
        dim = 2 ** level
        for jj in range(level % 2, level + 1, 2):
            mults = []
            for kind, jj_parent in ((Kind.I, jj + 1), (Kind.II, jj - 1)):
                parents = groups.get(jj_parent, ())[:1 if first_only else None]
                for alpha, (_, _, parent) in enumerate(parents, start=1):
                    mults.append((kind, alpha, _couple(parent, jj, jj_parent, dim)))
            if mults:
                nxt[jj] = mults
        groups = nxt
    labels: list[SpinLabel] = []
    cols: list[np.ndarray] = []
    for jj in sorted(groups):
        for kind, alpha, vecs in groups[jj]:
            for mm in range(-jj, jj + 1, 2):
                labels.append(SpinLabel(n, jj, mm, kind, alpha))
                cols.append(vecs[mm])
    u = np.array(cols).T
    u.setflags(write=False)
    index = {lab: k for k, lab in enumerate(labels)}
    return SpinBasis(n=n, labels=tuple(labels), u=u, index=index)
