"""Program (resource) states for the teleportation protocol.

A resource on n ports lives on 2n qubits (sender block A, receiver block B).
All channel formulas only need the state reduced to A plus the first receiver
qubit, one operator on (A_n .. A_1, B_1) whose four conditional blocks are

    R^{i+1, j+1} = <i|_B1 Tr_{B2..Bn}[pi] |j>_B1 ,

so the reduced form is the primary representation here; full 2n-qubit states
exist for the brute-force oracle and for FULL resource files.  A product of
one two-qubit port state on every port is kept as that port
(``ProductResource``): its spin table, and its contraction with the dense
cross-checks' transfer matrices, come from the port alone, and its reduced
operator is built only when asked for.  Tensor slot order for full
states is (A_n .. A_1, B_n .. B_1); the qubit paired with the kept receiver
qubit sits in slot A_1, matching the spin-basis recursion.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .linalg import (dag, herm_defect, kron_power, partial_trace_qubits, permute_qubits, swap_defect,
                     transfer_choi, x_matrix, xlogy)
from .spin import MAX_PRODUCT_PORTS, SpinBasis, check_port_count

FILE_ATOL = 1e-8  # Hermiticity, trace, positivity and port-symmetry defects


# ----------------------------------------------------------------------------
# families
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Bell:
    """Maximally entangled port (|01> - |10>)/sqrt(2)."""


@dataclass(frozen=True)
class AdChoi:
    """Port equal to the Choi state of an amplitude-damping channel."""

    p: float


@dataclass(frozen=True)
class Alternate:
    """Rank-1 tensor-product port sqrt(a)|10> - sqrt(1-a)|01>."""

    a: float


@dataclass(frozen=True)
class FromFile:
    """Resource read from the PBTRES text format."""

    path: str


ResourceFamily = Bell | AdChoi | Alternate | FromFile


def bell_port() -> np.ndarray:
    v = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    return np.outer(v, v.conj())


def ad_choi_port(p: float) -> np.ndarray:
    """Choi state of amplitude damping (probability p), sender qubit first."""
    if not 0 <= p <= 1:
        raise ValueError(f"damping probability out of [0,1]: {p}")
    return x_matrix((p / 2, (1 - p) / 2, 0.5, 0), c12=-math.sqrt(1 - p) / 2)


def alternate_port(a: float) -> np.ndarray:
    """Rank-1 port state sqrt(a)|10> - sqrt(1-a)|01>, sender qubit first.

    Which of the two qubits carries the sqrt(a) weight is fixed by the
    channel the protocol produces (cross-checked against the dense
    measurement oracle); at a = 1/2 this is the Bell port.
    """
    if not 0 <= a <= 1:
        raise ValueError(f"parameter out of [0,1]: {a}")
    v = np.array([0, -math.sqrt(1 - a), math.sqrt(a), 0], dtype=complex)
    return np.outer(v, v.conj())


def port_state(family: ResourceFamily) -> np.ndarray:
    if isinstance(family, Bell):
        return bell_port()
    if isinstance(family, AdChoi):
        return ad_choi_port(family.p)
    if isinstance(family, Alternate):
        return alternate_port(family.a)
    raise TypeError(f"no single-port state for {family!r}")


# ----------------------------------------------------------------------------
# full and reduced resources
# ----------------------------------------------------------------------------

def _check_state(op: np.ndarray, name: str, dim: int,
                 atol: float = FILE_ATOL, psd_atol: float = FILE_ATOL) -> None:
    """Reject ``op`` unless it is a dim x dim density matrix: finite, Hermitian
    and of unit trace within atol, with no eigenvalue below -psd_atol (up to
    rounding).  A nan passes every comparison below, hence the finiteness
    test.  op + psd_atol has a Cholesky factor only if it is positive
    definite, at a fraction of the eigenvalues' cost.  The tolerances default
    to a resource's; ``choi.check_choi`` passes a Choi matrix's."""
    if op.shape != (dim, dim):
        raise ValueError(f"expected shape {(dim, dim)}, got {op.shape}")
    if not np.isfinite(op).all():
        raise ValueError(f"{name} has a nan or inf entry")
    if herm_defect(op) > atol:
        raise ValueError(f"{name} is not Hermitian")
    if abs(op.trace() - 1) > atol:
        raise ValueError(f"{name} trace differs from 1")
    shifted = np.array(op)
    shifted.reshape(-1)[::dim + 1] += psd_atol
    try:
        # numpy's factor reads the lower triangle: of the transpose, that is
        # the upper triangle of op
        np.linalg.cholesky(shifted.T)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} is not positive semidefinite") from None


@dataclass(frozen=True, eq=False)
class FullResource:
    """Density matrix of all 2n qubits, slots (A_n..A_1, B_n..B_1)."""

    n: int
    rho_ab: np.ndarray

    def validate(self) -> None:
        _check_state(self.rho_ab, "resource state", 4 ** self.n)


class ReducedResource:
    """Tr_{B2..Bn}[pi] as one complex operator ``joint`` on (A_n..A_1, B_1),
    B_1 last: R^{i+1, j+1} sits at the B_1 bits (i, j), and ``r11``..``r22``
    are writable views of those blocks.  The constructor copies four blocks
    into a new operator; ``from_joint`` keeps the one it is given."""

    def __init__(self, n: int, r11, r12, r21, r22):
        d = 2 ** n
        joint = np.empty((d, 2, d, 2), dtype=complex)
        for (i, j), blk in zip(np.ndindex(2, 2), (r11, r12, r21, r22)):
            if np.shape(blk) != (d, d):
                raise ValueError(f"block r{i + 1}{j + 1}: expected shape {(d, d)}, got {np.shape(blk)}")
            joint[:, i, :, j] = blk
        self.n = n
        self.joint = joint.reshape(2 * d, 2 * d)

    @classmethod
    def from_joint(cls, n: int, joint: np.ndarray) -> ReducedResource:
        d = 2 ** (n + 1)
        if np.shape(joint) != (d, d):
            raise ValueError(f"joint operator: expected shape {(d, d)}, got {np.shape(joint)}")
        obj = cls.__new__(cls)
        obj.n, obj.joint = n, np.ascontiguousarray(joint, dtype=complex)
        return obj

    def _block(self, i: int, j: int) -> np.ndarray:
        d = 2 ** self.n
        return self.joint.reshape(d, 2, d, 2)[:, i, :, j]

    r11 = property(lambda self: self._block(0, 0))
    r12 = property(lambda self: self._block(0, 1))
    r21 = property(lambda self: self._block(1, 0))
    r22 = property(lambda self: self._block(1, 1))

    def validate(self) -> None:
        # the operator on (A, B_1), not r11 and r22 alone: large r12, r21 break it
        _check_state(self.joint, "resource reduced to (A, B_1)", 2 ** (self.n + 1))


def _port_blocks(port: np.ndarray) -> np.ndarray:
    """The port's conditional blocks on A, t[i, j] = <i|_B port |j>_B."""
    return np.array(port, dtype=complex).reshape(2, 2, 2, 2).transpose(1, 3, 0, 2)


def reduced_from_port(port: np.ndarray, n: int) -> ReducedResource:
    """The n-fold product of one two-qubit port state reduced to (A, B_1):
    M^(x)(n-1) (x) port, with M the port's sender marginal; a new array even
    at n = 1, as ``from_joint`` keeps the array it is given."""
    check_port_count(n)  # before any 2^(n+1) x 2^(n+1) operator is allocated
    t = _port_blocks(port)
    return ReducedResource.from_joint(n, kron_power(t[0, 0] + t[1, 1], n - 1, port))


@dataclass(frozen=True, eq=False)
class ProductResource:
    """The n-fold product of one two-qubit port state, kept as the port: a
    read-only copy, checked (``validate``) when the resource is made.

    ``to_spin_coefficients`` and ``apply_transfer`` read only the port, at
    any n up to MAX_PRODUCT_PORTS.  The reduced operator (``reduced``, and
    its ``joint``) is built on first use, and only up to MAX_PORTS ports.
    """

    n: int
    port: np.ndarray

    def __post_init__(self) -> None:
        port = np.array(self.port)
        port.flags.writeable = False
        object.__setattr__(self, "port", port)
        self.validate()

    @cached_property
    def reduced(self) -> ReducedResource:
        return reduced_from_port(self.port, self.n)

    joint = property(lambda self: self.reduced.joint)

    def validate(self) -> None:
        _check_state(self.port, "resource state", 4)  # the port as a one-port state


def apply_transfer(transfer: np.ndarray,
                   resource: ReducedResource | ProductResource | np.ndarray) -> np.ndarray:
    """4 x 4 Choi matrix of the map with the real (2^n, 4, 2^n) transfer
    matrix T (``linalg.transfer_choi``) applied to an n-port resource.

    A ReducedResource, or a bare operator on (A, B_1), is contracted by
    ``transfer_choi``.  A ProductResource is contracted port by port, with
    no 2^(n+1)-square operator: its operator is M^(x)(n-1) (x) port for the
    port's sender marginal M, so

        C[(m, i), (m', j)] = sum T[a, (m, m'), a'] prod_{k >= 2} M[a_k, a'_k]
                             port[(a_1, i), (a'_1, j)].

    Each step contracts the leading sender qubit of T's rows and columns
    with M, reading T once and leaving it 4 times smaller (only M's nonzero
    entries are read, in real arithmetic when M is real); the last
    (2, 4, 2) array meets the port.
    """
    d = transfer.shape[0]
    if isinstance(resource, ProductResource):
        shape = (2 ** (resource.n + 1),) * 2
    else:
        joint = resource.joint if isinstance(resource, ReducedResource) else np.asarray(resource)
        shape = joint.shape
    if shape != (2 * d, 2 * d):
        raise ValueError(f"expected {(2 * d, 2 * d)} operator on (A, B_1), got {shape}")
    if not isinstance(resource, ProductResource):
        return transfer_choi(transfer, joint)
    t = _port_blocks(resource.port)
    marginal = t[0, 0] + t[1, 1]
    if not marginal.imag.any():
        marginal = marginal.real
    (x0, y0), *rest = zip(*np.nonzero(marginal))
    s = transfer
    while d > 2:
        # rows (leading qubit, (other qubits, (m, m'))), columns (leading
        # qubit, other qubits)
        s = s.reshape(2, 2 * d, 2, d // 2)
        out = marginal[x0, y0] * s[x0, :, y0]
        for x, y in rest:
            out += marginal[x, y] * s[x, :, y]
        d //= 2
        s = out.reshape(d, 4, d)
    c = np.einsum("xky,xiyj->kij", s, np.reshape(resource.port, (2, 2, 2, 2)))
    return c.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def make_family(family: ResourceFamily, n: int) -> ReducedResource | ProductResource:
    """The resource of a named family on n ports.

    A file gives its reduced operator (n up to MAX_PORTS); a product family
    gives a ProductResource (n up to MAX_PRODUCT_PORTS), which allocates
    nothing of size 2^n unless its reduced operator is asked for.
    """
    if isinstance(family, FromFile):
        check_port_count(n)  # before the file is read
        loaded = load_resource(family.path)
        if loaded.n != n:
            raise ValueError(f"resource file has N={loaded.n}, expected {n}")
        return loaded
    check_port_count(n, MAX_PRODUCT_PORTS)
    return ProductResource(n, port_state(family))


def full_from_port(port: np.ndarray, n: int) -> FullResource:
    """n-fold product of a two-qubit port state as a full 2n-qubit resource."""
    rho = kron_power(port, n)
    # slots currently (A_n, B_n, ..., A_1, B_1); regroup into (A.., B..)
    src = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    return FullResource(n=n, rho_ab=permute_qubits(rho, src))


def reduce_full(full: FullResource) -> ReducedResource:
    """Trace out all receiver qubits but the first, B_1 in the last slot."""
    full.validate()
    n = full.n
    joint = partial_trace_qubits(full.rho_ab, 2 * n, list(range(n)) + [2 * n - 1])
    return ReducedResource.from_joint(n, joint)


def reduced_port_state(family: ResourceFamily, n: int) -> np.ndarray:
    """Tr_{B2..Bn} of a product family, on (A, B_1) with B_1 last."""
    return reduced_from_port(port_state(family), n).joint


def _port_asymmetry(obj: FullResource | ReducedResource) -> float:
    """Largest change of a resource under an exchange of two adjacent ports.

    A full state exchanges (A_k, B_k) with (A_k+1, B_k+1).  The reduced
    operator keeps B_1, so it shows only the exchanges that leave it alone:
    those within A_n..A_2, and A_2 <-> A_1 in r11 + r22, where B_1 is traced
    out.  Each exchange is read slice by slice (``swap_defect``), with no
    copy of the operator.
    """
    n = obj.n
    if isinstance(obj, FullResource):
        return max((swap_defect(obj.rho_ab, 2 * n, (k, k + 1), (n + k, n + k + 1)) for k in range(n - 1)),
                   default=0.0)
    defects = [swap_defect(obj.joint, n + 1, (k, k + 1)) for k in range(n - 2)]
    if n >= 2:
        defects.append(swap_defect(obj.r11 + obj.r22, n, (n - 2, n - 1)))
    return max(defects, default=0.0)


# ----------------------------------------------------------------------------
# spin-basis coefficient tables
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpinCoefficients:
    """Resource blocks in the coupled spin basis, as one table: ``table[i, j]``
    with integer index arrays gives the (..., 2, 2) entries u^T R^{k+1, l+1} u
    at (i, j) of the four blocks, block pair (k, l) last.  It is a dense
    array after the congruence, or a ``ProductTable`` for a product resource.
    ``frame`` is None, or the unitary V that turned the sender qubit of every
    port: the table is then that of the turned resource, and
    ``assemble_choi`` turns its Choi matrix back by
    (V^T (x) 1) . (V^T (x) 1)^dag."""

    basis: SpinBasis
    table: np.ndarray | ProductTable
    frame: np.ndarray | None = None


def to_spin_coefficients(reduced: ReducedResource | ProductResource,
                         basis: SpinBasis) -> SpinCoefficients:
    """Spin table by Schur-Weyl duality from the port of a product resource,
    turned into the eigenframe of its A marginal, else by the dense
    congruence u^T R u of the reduced operator's four blocks."""
    if basis.n != reduced.n:
        raise ValueError(f"basis is for n={basis.n}, resource for n={reduced.n}")
    if isinstance(reduced, ProductResource):
        t = _port_blocks(reduced.port)
        marginal = t[0, 0] + t[1, 1]
        frame = None
        if marginal[0, 1] == 0 and marginal[1, 0] == 0:  # every built-in family
            eig = marginal.diagonal().real
        else:
            eig, q = np.linalg.eigh(marginal)
            frame = dag(q)
            t = frame @ t @ q
        return SpinCoefficients(basis, ProductTable(basis, *np.maximum(eig, 0), t), frame)
    u = basis.u
    d, m = u.shape
    # u is real, so u^T R is one real product on the joint operator's
    # interleaved (re, im) view, its A rows against (B_1 row, A column, B_1
    # column); the small (m, 2, 2, d) result then meets u on the right
    half = (u.T @ reduced.joint.view(float).reshape(d, -1)).view(complex)
    table = half.reshape(m, 2, d, 2).transpose(0, 1, 3, 2).reshape(4 * m, d) @ u
    return SpinCoefficients(basis, table.reshape(m, 2, 2, m).transpose(0, 3, 1, 2))


class ProductTable:
    """The spin table u^T (M^(x)(n-1) (x) t[k, l]) u of a product resource
    whose port has the diagonal A marginal M = diag(m0, m1), read as
    ``table[i, j]`` with integer index arrays like ``SpinCoefficients.table``;
    t[k, l] is the conditional port block <k|_B port |l>_B.

    Any port can be turned into that frame, the eigenframe of its marginal:
    the square-root measurement commutes with U^(x)(n+1) on the sender
    qubits and C (SU(2) covariance), so turning the sender qubit of every
    port by one unitary V only composes the channel with V . V^dag on its
    input, which ``SpinCoefficients.frame`` undoes exactly.  Column c
    couples A_1 to multiplet alpha of spin ss of A_n..A_2
    (``SpinBasis.parents``), and a diagonal M^(x)(n-1) keeps every
    multiplet and every projection, so an entry is a sum over the bits b, b'
    of A_1 of t[k, l][b, b'] times

        cg_i[b] cg_j[b'] <ss; pos_i[b]| M^(x)(n-1) |ss; pos_j[b']> :

    0 between multiplets and between projections, else
    det(M)^((n-1-ss)/2) m1^pos m0^(ss-pos), since M^(x)(n-1) is diagonal and
    a parent state at pos has (n-1-ss)/2 + pos of its n - 1 qubits in |1>.
    """

    def __init__(self, basis: SpinBasis, m0: float, m1: float, t: np.ndarray):
        self.basis = basis
        self.t = t.reshape(4, 4).T  # row (b, b'), column (k, l)
        n = basis.n
        ss = np.arange((n - 1) % 2, n, 2)[:, None]
        # column pos + 1 for pos = -1..n; pos outside 0..ss, where cg is 0,
        # reads the finite weight at the nearest end
        k = np.minimum(np.maximum(np.arange(-1, n + 1), 0), ss)
        log_weight = xlogy(k, m1) + xlogy(ss - k, m0) + xlogy((n - 1 - ss) / 2, m0 * m1)
        # the complex exp rounds as libm does; numpy's vectorised real exp
        # can differ in the last bit, and with it a printed Kraus digit
        self.weight = np.exp(log_weight + 0j)

    def __getitem__(self, index) -> np.ndarray:
        i, j = (np.asarray(x) for x in index)
        b = self.basis
        pos, cg = b.parents
        pos_i, pos_j = pos[i][..., :, None], pos[j][..., None, :]
        same = ((b.parent[i] == b.parent[j]) & (b.alpha[i] == b.alpha[j]))[..., None, None]
        w = self.weight[(b.parent[i] // 2)[..., None, None], pos_i + 1]
        entries = np.where(same & (pos_i == pos_j), cg[i][..., :, None] * cg[j][..., None, :] * w, 0)
        # one 2-D product; a batched one makes a BLAS call per entry group
        return (entries.reshape(-1, 4) @ self.t).reshape(entries.shape)


# ----------------------------------------------------------------------------
# resource file format
# ----------------------------------------------------------------------------

_MAGIC = "PBTRES 1"


def save_resource(path: str | Path, obj: FullResource | ReducedResource | ProductResource) -> None:
    """Write a resource in the PBTRES text format (FULL or REDUCED), a few
    rows at a time (``float_text.format_rows``)."""
    if isinstance(obj, FullResource):
        form, mats = "FULL", [obj.rho_ab]
    else:
        d = 2 ** obj.n
        blocks = obj.joint.reshape(d, 2, d, 2)
        form, mats = "REDUCED", [blocks[:, i, :, j] for i, j in np.ndindex(2, 2)]
    from .float_text import format_rows  # on first use, as for load_resource

    with open(path, "wb") as f:
        f.write(f"{_MAGIC}\nN={obj.n}\nFORM={form}\n".encode())
        for m in mats:
            f.writelines(format_rows(np.asarray(m, dtype=complex)))


_NEWLINE = re.compile(rb"\r\n|\r|\n")


def _read_head(f) -> list[str]:
    """The first three non-blank lines of a file opened in binary mode, and
    f left just past them.  Lines end at LF, CR or CRLF, as in text mode;
    fewer than three are returned when the file has no more."""
    size = 4096
    while True:
        f.seek(0)
        chunk = f.read(size)
        head, pos = [], 0
        for end in _NEWLINE.finditer(chunk):
            if line := chunk[pos:end.start()].strip():
                head.append(line.decode("utf-8"))
            pos = end.end()
            if len(head) == 3:
                f.seek(pos)
                return head
        if len(chunk) < size:
            return head
        size *= 2


def load_resource(path: str | Path) -> ReducedResource:
    """Read a PBTRES file; FULL resources are reduced on the fly.

    Inputs violating Hermiticity, positivity or port symmetry by more than
    1e-8 are rejected: the channel's closed form holds only for
    port-symmetric resources.
    """
    # imported on first use: only file input and output need the module, and
    # an import that compiles its source (no bytecode written) peaks higher
    # for every process as the source grows
    from .float_text import parse_numbers, text_blocks

    with open(path, "rb") as f:
        head = _read_head(f)
        if len(head) < 3 or head[0] != _MAGIC:
            raise ValueError("not a PBTRES resource file")
        if not head[1].startswith("N="):
            raise ValueError("missing N= header line")
        # ASCII digits only, as save_resource writes them; a minus sign reads, so
        # that a negative count fails on its range below
        count = head[1][2:]
        if not re.fullmatch("-?[0-9]+", count):
            raise ValueError(f"the N= header must be an integer, got {count!r}")
        n = int(count)
        check_port_count(n)  # before the body is parsed or a block is shaped
        form = head[2]
        if form not in ("FORM=FULL", "FORM=REDUCED"):
            raise ValueError(f"unknown FORM header: {form!r}")
        d = 4 ** n if form == "FORM=FULL" else 2 ** n
        size = d * d if form == "FORM=FULL" else 4 * d * d  # complex entries
        try:
            # numpy 1.x only warns at a token it cannot read, and returns the
            # numbers before it; numpy 2 raises
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                # the body a block at a time, never whole, into room for the
                # entries the header names, as far as the file can hold them
                # (a number and its separator take 2 bytes at least)
                values = parse_numbers(text_blocks(f), min(2 * size, (os.fstat(f.fileno()).st_size + 1) // 2))
        except (ValueError, DeprecationWarning):
            raise ValueError("resource entries must be whitespace-separated numbers") from None
    if not values.size:
        raise ValueError("not a PBTRES resource file")
    if not np.isfinite(values).all():
        raise ValueError("resource entries must be finite; the file holds nan or inf")
    if values.size % 2:
        raise ValueError("odd number of real values; entries must be re/im pairs")
    entries = values.view(complex)  # keeps signed zeros, unlike re + 1j * im
    if entries.size != size:
        raise ValueError(f"expected {size} complex entries, got {entries.size}")
    if form == "FORM=FULL":
        full = FullResource(n=n, rho_ab=entries.reshape(d, d))
        reduced = reduce_full(full)
        asymmetry = _port_asymmetry(full)
    else:
        reduced = ReducedResource(n, *entries.reshape(4, d, d))
        del values, entries  # the resource holds its own copy
        reduced.validate()
        asymmetry = _port_asymmetry(reduced)
    if asymmetry > FILE_ATOL:
        raise ValueError(f"resource is not port symmetric: exchanging two ports changes it by "
                         f"{asymmetry:.3g}; the channel's closed form needs a port-symmetric resource")
    return reduced
