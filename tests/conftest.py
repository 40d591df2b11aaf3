"""Shared helpers: random resources, random channels, and independent oracles."""

import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pbtsim.linalg import permute_qubits
from pbtsim.oracle import sigma_op
from pbtsim.resources import FullResource, reduce_full
from pbtsim.spin import build_spin_basis, rho_eigenvalue


def symmetrize(full: FullResource) -> FullResource:
    """Average over all simultaneous (A_i, B_i) port permutations.

    The identity and the transpositions (k, m) for k < m are coset
    representatives of S_m over S_{m-1}, so averaging over them after the
    average over S_{m-1} averages over S_m: n(n-1)/2 permutations, not n!.
    """
    n = full.n
    if n >= 8:
        raise ValueError(f"refusing to symmetrise n={n} ports (a 4^n x 4^n state)")
    rho = full.rho_ab
    for m in range(1, n):
        acc = rho.copy()
        for k in range(m):
            perm = list(range(n))
            perm[k], perm[m] = m, k
            acc += permute_qubits(rho, perm + [n + q for q in perm])
        rho = acc / (m + 1)
    return FullResource(n=n, rho_ab=rho)


def run_python(*argv, memory_bytes=None):
    """Python on the package sources in a child process, one BLAS thread, with a
    time limit and, if given, an address-space cap."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (memory_bytes, memory_bytes))

    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120, preexec_fn=None if memory_bytes is None else cap)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_symmetric_resource(n: int, rng: np.random.Generator) -> FullResource:
    rho = random_density(2 ** (2 * n), rng)
    return symmetrize(FullResource(n=n, rho_ab=rho))


@pytest.fixture(scope="session")
def symmetric_reduced():
    """Reduced blocks of one seeded random port-symmetric resource per port
    count, built once per session (n = 5 takes seconds)."""
    made = {}

    def get(n: int):
        if n not in made:
            made[n] = reduce_full(random_symmetric_resource(n, np.random.default_rng(n)))
        return made[n]

    return get


def left_grown_kron_power(m: np.ndarray, k: int) -> np.ndarray:
    """m^(x)k grown from the left, ((1 (x) m) (x) m) (x) ...: the reference
    association for kron_power and reduced_from_port, which grow from the right."""
    out = np.eye(1, dtype=complex)
    for _ in range(k):
        out = np.kron(out, m)
    return out


def dense_rho(n: int) -> np.ndarray:
    """rho = sum_i sigma_i on n ports plus C, summed densely."""
    return sum(sigma_op(i, n) for i in range(1, n + 1))


def rho_eigenbasis(n: int):
    """Eigenbasis of rho = sum_i sigma_i on n ports plus C, as
    ``(basis, eigenvalues, u)`` with the eigenvectors as the columns of u.

    It is the coupled basis of n + 1 qubits with C coupled last, so each
    column's parent is the n-qubit spin: a column with parent = jj - 1
    aligns C with it, one with parent = jj + 1 anti-aligns it.
    """
    basis = build_spin_basis(n + 1)
    eigenvalues = np.array([rho_eigenvalue("-" if parent < jj else "+", parent, n)
                            for jj, parent in zip(basis.jj.tolist(), basis.parent.tolist())])
    return basis, eigenvalues, basis.u


def random_choi(rng: np.random.Generator) -> np.ndarray:
    """Choi matrix of a random qubit channel (Stinespring isometry blocks)."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(g)
    iso = q[:, :2]
    c = np.zeros((4, 4), dtype=complex)
    for k in (iso[0:2, :], iso[2:4, :]):
        v = (k / np.sqrt(2)).T.reshape(-1)
        c += np.outer(v, v.conj())
    return c


def total_spin(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Total J^2 and J_z of m qubits, built densely from the one-qubit spin
    operators, independent of the package's recursion.  Here |0> has
    S_z = +1/2; the package's labels give |0> the projection -1/2."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex) / 2
    sz = np.array([[1, 0], [0, -1]], dtype=complex) / 2
    dim = 2 ** m
    j2 = np.zeros((dim, dim), dtype=complex)
    for comp in (sx, sy, sz):
        total = np.zeros((dim, dim), dtype=complex)
        for q in range(m):
            op = np.eye(1, dtype=complex)
            for slot in range(m):
                op = np.kron(op, comp if slot == q else np.eye(2))
            total += op
        j2 += total @ total
    return j2, total


def total_spin_multiplets(m: int) -> dict:
    """Multiplet counts of m qubits by dense diagonalisation of the total spin.

    Independent of the package's combinatorial formula: bins the eigenvalues
    j(j+1) of ``total_spin``'s J^2.
    """
    eigs = np.linalg.eigvalsh(total_spin(m)[0])
    counts: dict[int, int] = {}
    for e in eigs:
        jj = round(np.sqrt(4 * e + 1) - 1)  # j(j+1) = e  ->  2j = sqrt(4e+1) - 1
        counts[jj] = counts.get(jj, 0) + 1
    return {jj: c // (jj + 1) for jj, c in counts.items()}


def column_index(basis) -> dict:
    """Column of each (jj, mm, parent, alpha) label of a spin basis."""
    labels = zip(*(x.tolist() for x in (basis.jj, basis.mm, basis.parent, basis.alpha)))
    return {label: k for k, label in enumerate(labels)}


def textbook_cg(j1: float, m1: float, m2: float, j: float) -> float:
    """<j1, m1; 1/2, m2 | j, m1 + m2> in the Condon-Shortley convention, in
    spin values, for j = j1 +- 1/2; exactly 0 where |m1| > j1."""
    m = m1 + m2
    if j == j1 + 0.5:
        return math.sqrt((j1 + 2 * m2 * m + 0.5) / (2 * j1 + 1))
    return -2 * m2 * math.sqrt((j1 - 2 * m2 * m + 0.5) / (2 * j1 + 1))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
