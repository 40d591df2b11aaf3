"""Angular-momentum (spin) structure of n qubits.

Builds the coupled spin basis of n qubits by the standard spin-1/2
Clebsch-Gordan recursion, one qubit at a time; ``SpinBasis.parents`` holds
the two coefficients of each step.  Each column is labelled by four
integers: its doubled total spin jj and projection mm, the doubled spin
``parent`` of the (n-1)-qubit multiplet it couples the last qubit to (jj + 1
or jj - 1), and that multiplet's index alpha.  One level up the basis also diagonalises the
operator rho = sum_i sigma_i (sigma_i = singlet projector between an extra
qubit C and qubit i) that underlies the square-root measurement: the
recursion couples the newest qubit last, so with C as qubit n + 1 every
vector of ``build_spin_basis(n + 1)`` is an eigenvector of rho, its parent
being the n-qubit spin.  A vector with parent = jj + 1 has eigenvalue
``rho_eigenvalue('+', jj + 1, n)``, one with parent = jj - 1
``rho_eigenvalue('-', jj - 1, n)``; those at jj = n + 1 span the kernel.

The square-root measurement acts on the n-qubit basis through one real row
pair per stratum (``SpinBasis.rows``): a kernel-sector pair per projection
mm, then a bulk pair per total spin ss = 2s of the measured (n+1)-qubit
system, projection and multiplet of the n-1 unkept ports, whose overlap
coefficients are written in closed form.  Labels outside the basis
contribute exactly 0, which covers the s = 0 stratum of odd n without
special-casing.

For port-symmetric resources every spin table is the same on each multiplet
of a given (jj, parent) (Schur-Weyl duality), so the channel needs only the
first multiplet of each: ``build_spin_basis(n, first_only=True)`` keeps those,
a real 2^n x O(n^2) matrix (60 columns at n = 10) instead of the 2^n x 2^n
unitary.  A product resource needs only their labels, how each column
couples to its parent multiplet (``SpinBasis.parents``) and the rows; the
vectors are built on first use of ``SpinBasis.u``, so for it no 2^n array is
built and n may reach MAX_PRODUCT_PORTS.  Bases up to MAX_PORTS are cached,
each with the vectors, couplings and rows it has built; larger ones are built
afresh on every call, so nothing above MAX_PORTS is kept.

Half-integer labels are stored doubled (``jj = 2j``, ``mm = 2m``) so that all
index arithmetic is exact; values are converted to floats only inside
coefficient formulas.  Qubit ordering: the recursion appends the newest qubit
as the last (least significant) tensor slot, so C sits after all n qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

#: cap wherever 2^n-dimensional arrays are built (resource blocks, basis
#: vectors): the four 2^n x 2^n complex blocks take 1 GiB at 12 ports and
#: 4 GiB at 13
MAX_PORTS = 12
#: cap on product resources, which build no 2^n array: their label-only
#: basis and measurement rows grow as n^2.  One Choi matrix, for any port,
#: takes about 0.1 s and 0.1 GB at 200 ports and 0.5 s and 0.25 GB at 500
#: (peak RSS, one BLAS thread)
MAX_PRODUCT_PORTS = 500


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


@dataclass(frozen=True, eq=False)
class MeasurementRows:
    """Row pairs G_k over the basis columns, stored by their entries: pair k
    holds ``coefs[k, a, e]`` in row a at column ``cols[k, e]`` and has weight
    ``weights[k]``.  Each pair has four entries; a pair with fewer repeats one
    of its columns with coefficient 0."""

    cols: np.ndarray     # (pairs, 4) integer
    coefs: np.ndarray    # (pairs, 2, 4) real
    weights: np.ndarray  # (pairs,) real

    def __len__(self) -> int:
        return len(self.cols)


@dataclass(frozen=True, eq=False)
class SpinBasis:
    """Coupled spin basis of n qubits, one entry per column in each label
    array: doubled total spin ``jj`` and projection ``mm``, the doubled spin
    ``parent`` (jj + 1 or jj - 1) of the (n-1)-qubit multiplet the column
    couples the last qubit to, and that multiplet's index ``alpha`` (from 1)
    among those of spin ``parent``.

    ``u`` holds the basis vectors as columns (computational basis rows,
    qubit 1 in the last tensor slot): a real orthogonal 2^n x 2^n matrix, or
    its alpha = 1 columns alone (``first_only``).  The Clebsch-Gordan
    coefficients (``parents``) are real.
    """

    n: int
    first_only: bool
    jj: np.ndarray
    mm: np.ndarray
    parent: np.ndarray
    alpha: np.ndarray

    def __len__(self) -> int:
        return len(self.jj)

    @cached_property
    def u(self) -> np.ndarray:
        """The basis vectors, built on first use and only up to MAX_PORTS,
        one level at a time from the label arrays alone."""
        check_port_count(self.n)
        ut, jj_prev = np.ones((1, 1)), np.zeros(1, dtype=int)  # zero qubits: spin 0
        for level in range(1, self.n + 1):
            basis = build_spin_basis(level, self.first_only)
            pos, cg = basis.parents
            # the multiplets of one spin sit in order from its first column
            col = np.searchsorted(jj_prev, basis.parent) + (basis.alpha - 1) * (basis.parent + 1)
            col = np.clip(col[:, None] + pos, 0, len(jj_prev) - 1)
            # + 0.0 turns the -0.0 of a negative coefficient into 0.0
            ut = (ut[col] * cg[..., None] + 0.0).transpose(0, 2, 1).reshape(len(basis), -1)
            jj_prev = basis.jj
        u = ut.T
        u.setflags(write=False)
        return u

    @cached_property
    def parents(self) -> tuple[np.ndarray, np.ndarray]:
        """How each column couples the last qubit to its parent multiplet, as
        (pos, cg), each (columns, 2): column c is
        sum_b cg[c, b] |parent[c]; pos[c, b]> (x) |b>, where |parent; pos> is
        the state of multiplet alpha[c] of spin parent[c] at doubled projection
        2 pos - parent (mm + 1 for b = 0, mm - 1 for b = 1).

        cg holds the Condon-Shortley coefficients of coupling one qubit to a
        parent of doubled spin p: with a = sqrt((p - mm + 1) / (2 (p + 1)))
        and b = sqrt((p + mm + 1) / (2 (p + 1))), (a, b) for a child of spin
        p/2 + 1/2 and (b, -a) for one of spin p/2 - 1/2.  Where the parent
        state does not exist, pos is -1 or parent + 1 and the radicand is
        exactly 0."""
        p, mm = self.parent, self.mm
        a = np.sqrt((p - mm + 1) / (2.0 * (p + 1)))
        b = np.sqrt((p + mm + 1) / (2.0 * (p + 1)))
        aligned = (p < self.jj)[:, None]
        cg = np.where(aligned, np.stack([a, b], axis=-1), np.stack([b, -a], axis=-1))
        return (mm[:, None] + np.array([1, -1]) + p[:, None]) // 2, cg

    @cached_property
    def rows(self) -> MeasurementRows:
        """The square-root measurement's rows on this basis, built on first use.

        One row pair per stratum, in protocol order.  First one kernel pair
        per mm, ascending, at alpha = 1 with weight 1/2; then one bulk pair
        per (ss, mm, alpha) the basis holds, weighted by
        (n/2) degeneracy(n-1, ss) over the number of those alpha.  The blocks
        of a port-symmetric resource commute with permutations of A_n..A_2, so
        by Schur-Weyl duality every alpha gives the same term: on the
        alpha = 1 basis each bulk pair stands for all degeneracy(n-1, ss)
        multiplets.  Every pair reads columns of one parent multiplet only
        (``parents``): a kernel pair that of spin n - 1, a bulk pair that of
        spin ss, at projections mm and mm +- 2, found in closed form from the
        column order of ``build_spin_basis``.
        """
        n = self.n
        held = [held_multiplets(n, ss, self.first_only) for ss in range(n + 2)]
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
                start = (np.searchsorted(self.jj, jj) + (alpha - 1) * (jj + 1)
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
            # overlaps with the columns of spin ss - 1 (q) and ss + 1 (r), over the
            # exact (ss + 1) 4 lambda for rho's eigenvalue lambda there (ss = 0 has
            # no q column); a zero radicand, at mm = +-ss, gives exactly 0
            mm = np.arange(-ss, ss + 1, 2)
            dq = (ss + 1) * 4 * rho_eigenvalue("-", ss - 1, n) if ss else 1.0
            dr = (ss + 1) * 4 * rho_eigenvalue("+", ss + 1, n)
            q_minus, q_plus = np.sqrt((ss - mm) / dq), np.sqrt((ss + mm) / dq)
            r_minus, r_plus = np.sqrt((ss - mm + 2) / dr), np.sqrt((ss + mm + 2) / dr)
            # strata ordered by mm, then alpha
            by_alpha = [pairs(mm, ss, alpha, [(0, q_minus, ss - 1, 1), (0, -r_plus, ss + 1, 1),
                                              (1, q_plus, ss - 1, -1), (1, r_minus, ss + 1, -1)])
                        for alpha in range(1, held[ss] + 1)]
            add((n / 2) * degeneracy(n - 1, ss) / held[ss],
                *(np.stack(part, axis=1).reshape(-1, *part[0].shape[1:])
                  for part in zip(*by_alpha)))
        rows = MeasurementRows(*(np.concatenate(x) for x in (cols, coefs, weights)))
        for a in (rows.cols, rows.coefs, rows.weights):
            a.setflags(write=False)
        return rows


def check_port_count(n: int, limit: int = MAX_PORTS) -> None:
    if not 1 <= n <= limit:
        raise ValueError(f"port count must be in 1..{limit}, got {n}")


def held_multiplets(n: int, ss: int, first_only: bool) -> int:
    """How many multiplets of spin ss of the first n - 1 qubits the basis of
    n qubits couples each child spin jj = ss +- 1 from."""
    if first_only:  # without the factorials of degeneracy: 20 us each at 500 ports
        return int(0 <= ss < n and (n - 1 - ss) % 2 == 0)
    return degeneracy(n - 1, ss)


def _runs(counts) -> np.ndarray:
    """0, 1, .., c - 1 for each count c, concatenated."""
    counts = np.asarray(counts)
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def build_spin_basis(n: int, first_only: bool = False) -> SpinBasis:
    """Construct the coupled spin basis of n qubits.

    Columns are ordered by ascending jj, then parent (jj + 1 before jj - 1),
    then alpha, then ascending mm; the labels are built in closed form, with
    degeneracy(n - 1, parent) multiplets per (jj, parent).

    With ``first_only`` each (jj, parent) keeps just its alpha = 1 multiplet.
    Its columns are exactly the alpha = 1 columns of the full basis, O(n^2)
    of them, so n may reach MAX_PRODUCT_PORTS; the full basis has 2^n columns
    and stops at MAX_PORTS.  Only the labels are built here; the vectors,
    couplings and measurement rows on first use of ``u``, ``parents`` and
    ``rows``.  Bases up to MAX_PORTS are cached, each with whatever it has
    built; a caller sweeping n up to MAX_PRODUCT_PORTS keeps nothing above.
    """
    check_port_count(n, MAX_PRODUCT_PORTS if first_only else MAX_PORTS)
    return (_cached_spin_basis if n <= MAX_PORTS else _spin_basis)(n, first_only)


def _spin_basis(n: int, first_only: bool) -> SpinBasis:
    # one entry per multiplet
    jj = np.repeat(np.arange(n % 2, n + 1, 2), 2)
    parent = jj + np.tile([1, -1], jj.size // 2)
    count = [held_multiplets(n, ss, first_only) for ss in parent.tolist()]
    jj, parent, alpha = np.repeat(jj, count), np.repeat(parent, count), _runs(count) + 1
    # one entry per column, mm ascending within each multiplet
    width = jj + 1
    jj, parent, alpha = (np.repeat(x, width) for x in (jj, parent, alpha))
    mm = 2 * _runs(width) - jj
    for x in (jj, mm, parent, alpha):
        x.setflags(write=False)
    return SpinBasis(n, first_only, jj, mm, parent, alpha)


_cached_spin_basis = lru_cache(maxsize=None)(_spin_basis)
