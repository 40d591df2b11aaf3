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
unitary.  A product resource needs only their labels and how each label
couples to its parent multiplet (``SpinBasis.parents``); the vectors are
built on first use of ``SpinBasis.u``, so for it no 2^n array is built and n
may reach MAX_PRODUCT_PORTS.

Half-integer labels are stored doubled (``jj = 2j``, ``mm = 2m``) so that all
index arithmetic is exact; values are converted to floats only inside
coefficient formulas.  Qubit ordering: the recursion appends the newest qubit
as the last (least significant) tensor slot, so C sits after all n qubits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from typing import Callable

import numpy as np

#: cap wherever 2^n-dimensional arrays are built (resource blocks, basis
#: vectors): the four 2^n x 2^n complex blocks take 1 GiB at 12 ports and
#: 4 GiB at 13
MAX_PORTS = 12
#: cap on product resources, which build no 2^n array: their label-only
#: basis grows as n^2.  A diagonal port marginal (every built-in family) gives
#: about n^2/4 terms of Sym^ss, and one Choi matrix at 500 ports takes about
#: 1.8 s and 0.4 GB; a general marginal gives O(n^3) terms, all held at once:
#: 0.7 s and 0.3 GB at 200 ports, about 3 GB at 500 (one BLAS thread)
MAX_PRODUCT_PORTS = 500

_E0 = np.array([1.0, 0.0])
_E1 = np.array([0.0, 1.0])


class Kind(enum.Enum):
    """How a coupled basis vector was built from the (n-1)-qubit basis."""

    I = "I"          # parent multiplet has j + 1/2
    II = "II"        # parent multiplet has j - 1/2
    UNSPLIT = "1"    # n = 1 base case


def clebsch_gordan(branch: str, jj, mm):
    """<j, m, 1/2, s2 | j +- 1/2, m +- 1/2> in the Condon-Shortley convention.

    ``branch`` holds two signs, e.g. ``"+-"``: the first selects whether the
    target total spin is j+1/2 or j-1/2, the second whether the target
    z-projection is m+1/2 or m-1/2.  ``jj`` and ``mm`` are the doubled source
    labels, integers or integer arrays (the result then has their broadcast
    shape).  Couplings whose source or target state does not exist return
    exactly 0.
    """
    if branch not in ("++", "+-", "-+", "--"):
        raise ValueError(f"unknown coupling branch {branch!r}")
    jj, mm = np.asarray(jj), np.asarray(mm)
    if (jj < 0).any():
        raise ValueError(f"negative spin magnitude: jj={jj}")
    if ((jj - mm) % 2).any():
        raise ValueError(f"jj={jj} and mm={mm} must have equal parity")
    jj_t = jj + 1 if branch[0] == "+" else jj - 1
    mm_t = mm + 1 if branch[1] == "+" else mm - 1
    exists = (abs(mm) <= jj) & (jj_t >= 0) & (abs(mm_t) <= jj_t)
    radicand = {"++": jj + mm + 2, "+-": jj - mm + 2, "--": jj + mm, "-+": jj - mm}[branch]
    value = np.sqrt(np.where(exists, radicand, 0) / (2.0 * (jj + 1)))
    return (-value if branch == "-+" else value)[()]


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


@dataclass(frozen=True)
class Parents:
    """How each basis column couples the last qubit to a multiplet of the
    other n - 1 qubits: column c is sum_b cg[c, b] |jj[c]; pos[c, b]> (x) |b>,
    where |jj; pos> is the state of multiplet alpha[c] of spin jj[c] at
    doubled projection 2 pos - jj (mm + 1 for b = 0, mm - 1 for b = 1).
    Where that state does not exist, pos is -1 or jj + 1 and cg is 0.
    """

    jj: np.ndarray     # (columns,)
    alpha: np.ndarray  # (columns,)
    pos: np.ndarray    # (columns, 2)
    cg: np.ndarray     # (columns, 2), from ``coupling``


@dataclass(frozen=True, eq=False)
class SpinBasis:
    """Coupled spin basis of n qubits.

    ``u`` holds the basis vectors as columns (computational basis rows,
    qubit 1 in the last tensor slot), ordered like ``labels``: a real
    orthogonal 2^n x 2^n matrix, or its alpha = 1 columns alone
    (``first_only``).  The Clebsch-Gordan coefficients are real.
    """

    n: int
    first_only: bool
    labels: tuple[SpinLabel, ...]

    @cached_property
    def u(self) -> np.ndarray:
        """The basis vectors, built on first use and only up to MAX_PORTS."""
        check_port_count(self.n)
        multiplets = _multiplets(self.n, self.first_only, vectors=True)
        u = np.array([vecs[mm] for jj, _, _, vecs in multiplets for mm in range(-jj, jj + 1, 2)]).T
        u.setflags(write=False)
        return u

    @cached_property
    def index(self) -> dict:
        """Column of each label."""
        return {lab: k for k, lab in enumerate(self.labels)}

    @cached_property
    def parents(self) -> Parents:
        jj, mm, parent, alpha = np.array(
            [(lab.jj, lab.mm, lab.jj + 1 if lab.kind is Kind.I else lab.jj - 1, lab.alpha)
             for lab in self.labels]).T
        cg = np.stack(coupling(jj, parent, mm), axis=-1)
        pos = (mm[:, None] + np.array([1, -1]) + parent[:, None]) // 2
        return Parents(jj=parent, alpha=alpha, pos=pos, cg=cg)


def coupling(jj_child, jj_parent, mm):
    """How child vector |jj_child, mm> is built from its parent multiplet:
    the coefficients of |jj_parent, mm + 1> (x) |0> and |jj_parent, mm - 1> (x) |1>.
    Arguments may be integer arrays, as in ``clebsch_gordan``."""
    aligned = np.asarray(jj_parent) < jj_child  # the child has spin j + 1/2

    def coefficient(second: str, mm_parent):
        return np.where(aligned, clebsch_gordan("+" + second, jj_parent, mm_parent),
                        clebsch_gordan("-" + second, jj_parent, mm_parent))[()]

    return coefficient("-", np.asarray(mm) + 1), coefficient("+", np.asarray(mm) - 1)


def _couple(parent: dict, jj_child: int, jj_parent: int, dim: int) -> dict:
    """One multiplet of the child level from one parent multiplet."""
    vecs = {}
    mms = np.arange(-jj_child, jj_child + 1, 2)
    for mm, c0, c1 in zip(mms.tolist(), *coupling(jj_child, jj_parent, mms)):
        v = np.zeros(dim)
        if c0 and (mm + 1) in parent:
            v += c0 * np.kron(parent[mm + 1], _E0)
        if c1 and (mm - 1) in parent:
            v += c1 * np.kron(parent[mm - 1], _E1)
        vecs[mm] = v
    return vecs


def check_port_count(n: int, limit: int = MAX_PORTS) -> None:
    if not 1 <= n <= limit:
        raise ValueError(f"port count must be in 1..{limit}, got {n}")


def cached_up_to_max_ports(ports: Callable) -> Callable:
    """``lru_cache`` for the calls whose port count, ``ports`` of the first
    argument, is at most MAX_PORTS; larger calls are computed afresh.  So a
    caller sweeping n up to MAX_PRODUCT_PORTS keeps nothing above MAX_PORTS,
    where one label-only basis alone holds O(n^2) labels."""
    def decorate(fn: Callable) -> Callable:
        cached = lru_cache(maxsize=None)(fn)

        @wraps(fn)
        def call(first, *args, **kwargs):
            return (cached if ports(first) <= MAX_PORTS else fn)(first, *args, **kwargs)

        call.cache_info = cached.cache_info
        return call

    return decorate


def _multiplets(n: int, first_only: bool, vectors: bool) -> list[tuple]:
    """Every multiplet of n qubits as (jj, kind, alpha, vectors by mm), in
    column order; the vectors are None unless ``vectors`` is set."""
    groups: dict[int, list] = {1: [(Kind.UNSPLIT, 1, {-1: _E0, 1: _E1} if vectors else None)]}
    for level in range(2, n + 1):
        nxt: dict[int, list] = {}
        dim = 2 ** level
        for jj in range(level % 2, level + 1, 2):
            mults = []
            for kind, jj_parent in ((Kind.I, jj + 1), (Kind.II, jj - 1)):
                parents = groups.get(jj_parent, ())[:1 if first_only else None]
                for alpha, (_, _, parent) in enumerate(parents, start=1):
                    vecs = None if parent is None else _couple(parent, jj, jj_parent, dim)
                    mults.append((kind, alpha, vecs))
            if mults:
                nxt[jj] = mults
        groups = nxt
    return [(jj, kind, alpha, vecs) for jj in sorted(groups) for kind, alpha, vecs in groups[jj]]


@cached_up_to_max_ports(lambda n: n)
def build_spin_basis(n: int, first_only: bool = False) -> SpinBasis:
    """Construct the coupled spin basis of n qubits.

    Within each jj the Kind.I multiplets come first, each kind ordered by the
    parent multiplet it was coupled from; columns are ordered by ascending jj,
    then multiplet, then ascending mm.

    With ``first_only`` each level keeps just the alpha = 1 multiplet of each
    (jj, kind): Kind.I from the first parent at jj + 1, Kind.II from the first
    at jj - 1.  Its columns are exactly the alpha = 1 columns of the full
    basis, O(n^2) labels, so n may reach MAX_PRODUCT_PORTS; the full basis
    has 2^n labels and stops at MAX_PORTS.  Only the labels are built here,
    the vectors on first use of ``SpinBasis.u``.
    """
    check_port_count(n, MAX_PRODUCT_PORTS if first_only else MAX_PORTS)
    labels = tuple(SpinLabel(n, jj, mm, kind, alpha)
                   for jj, kind, alpha, _ in _multiplets(n, first_only, vectors=False)
                   for mm in range(-jj, jj + 1, 2))
    return SpinBasis(n=n, first_only=first_only, labels=labels)
