import math
import weakref

import numpy as np
import pytest

from pbtsim import spin
from pbtsim.choi import g_sum
from pbtsim.spin import MAX_PORTS, build_spin_basis, degeneracy, rho_eigenvalue

from conftest import (column_index, dense_rho, rho_eigenbasis, textbook_cg, total_spin,
                      total_spin_multiplets)


class TestParents:
    S = 1 / math.sqrt(2)

    @pytest.mark.parametrize("n, label, want", [
        (2, (0, 0, 1), (S, -S)),       # two-spin singlet
        (2, (2, 0, 1), (S, S)),
        (2, (2, -2, 1), (1.0, 0.0)),   # stretched states: the parent's m = -3/2
        (2, (2, 2, 1), (0.0, 1.0)),    # and m = 3/2 are missing
        (3, (3, -3, 2), (1.0, 0.0)),
        (3, (3, 3, 2), (0.0, 1.0)),
        (3, (1, -1, 0), (1.0, 0.0)),   # spin 0 has no m = +-1
        (3, (1, 1, 0), (0.0, 1.0)),
        (3, (1, -1, 2), (math.sqrt(1 / 3), -math.sqrt(2 / 3))),
        (3, (1, 1, 2), (math.sqrt(2 / 3), -math.sqrt(1 / 3))),
    ])
    @pytest.mark.parametrize("first_only", [False, True])
    def test_values(self, n, label, want, first_only):
        basis = build_spin_basis(n, first_only)
        jj, mm, parent = label
        c = column_index(basis)[jj, mm, parent, 1]
        pos, cg = basis.parents
        assert cg[c] == pytest.approx(want, abs=1e-15)
        # a missing parent state has coefficient exactly 0, at pos -1 or parent + 1
        missing = (pos[c] < 0) | (pos[c] > parent)
        assert list(missing) == [w == 0.0 for w in want]
        assert (cg[c][missing] == 0.0).all()

    @pytest.mark.parametrize("n, first_only", [(n, f) for n in range(2, 9) for f in (False, True)]
                             + [(50, True), (200, True)])
    def test_every_coefficient_is_textbook(self, n, first_only):
        # column c couples |parent, m - m2> (x) |b>, qubit |0> at m2 = -1/2
        basis = build_spin_basis(n, first_only)
        _, cg = basis.parents
        labels = zip(basis.jj.tolist(), basis.mm.tolist(), basis.parent.tolist())
        for c, (jj, mm, parent) in enumerate(labels):
            for b, m2 in enumerate((-0.5, 0.5)):
                want = textbook_cg(parent / 2, mm / 2 - m2, m2, jj / 2)
                assert abs(cg[c, b] - want) <= 1e-15


class TestDegeneracy:
    def test_two_qubit_triplet_unique(self):
        assert degeneracy(2, 2) == 1

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_dense_total_spin_enumeration(self, m):
        counts = total_spin_multiplets(m)
        for jj in range(0, m + 1):
            assert degeneracy(m, jj) == counts.get(jj, 0)

    def test_out_of_range_is_zero(self):
        assert degeneracy(3, 5) == 0
        assert degeneracy(3, 2) == 0   # parity mismatch
        assert degeneracy(-1, 1) == 0

    def test_pascal_recursion_exact(self):
        for n in range(2, 21):
            for jj in range(n % 2, n + 1, 2):
                assert degeneracy(n, jj) == degeneracy(n - 1, jj - 1) + degeneracy(n - 1, jj + 1)

    def test_dimension_sum_exact(self):
        for n in range(1, 21):
            assert sum(degeneracy(n, jj) * (jj + 1) for jj in range(n % 2, n + 1, 2)) == 2 ** n


class TestRhoEigenvalue:
    def test_kernel_value(self):
        assert rho_eigenvalue("-", 2, 2) == 0.0

    def test_values(self):
        assert rho_eigenvalue("+", 2, 2) == 1.5
        assert rho_eigenvalue("-", 1, 3) == 0.5

    def test_domain(self):
        with pytest.raises(ValueError):
            rho_eigenvalue("-", 5, 3)
        with pytest.raises(ValueError):
            rho_eigenvalue("+", 0, 3)
        with pytest.raises(ValueError):
            rho_eigenvalue("x", 1, 3)


class TestSpinBasis:
    def test_single_qubit_is_identity(self):
        basis = build_spin_basis(1)
        np.testing.assert_allclose(basis.u, np.eye(2), atol=1e-15)
        assert basis.mm[0] == -1  # |0> carries m = -1/2

    def test_two_qubit_basis_explicit(self):
        basis = build_spin_basis(2)
        keys = list(zip(basis.jj.tolist(), basis.mm.tolist(), basis.parent.tolist(),
                        basis.alpha.tolist()))
        assert keys == [(0, 0, 1, 1), (2, -2, 1, 1), (2, 0, 1, 1), (2, 2, 1, 1)]
        s = 1 / math.sqrt(2)
        expected = np.array([
            [0, 1, 0, 0],
            [-s, 0, s, 0],
            [s, 0, s, 0],
            [0, 0, 0, 1],
        ])
        np.testing.assert_allclose(basis.u, expected, atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unitarity(self, n):
        u = build_spin_basis(n).u
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2 ** n), atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_label_counts(self, n):
        basis = build_spin_basis(n)
        assert len(basis) == 2 ** n
        for jj in range(n % 2, n + 1, 2):
            for mm in range(-jj, jj + 1, 2):
                here = (basis.jj == jj) & (basis.mm == mm)
                assert np.count_nonzero(here) == degeneracy(n, jj)
                # coupled from spin jj + 1; one qubit couples from spin 0 only
                from_above = np.count_nonzero(here & (basis.parent == jj + 1))
                assert from_above == degeneracy(n - 1, jj + 1)
                from_below = np.count_nonzero(here & (basis.parent == jj - 1))
                assert from_below == degeneracy(n - 1, jj - 1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_first_only_sizes(self, n):
        u = build_spin_basis(n, first_only=True).u
        cols = sum(jj + 1 for jj in range(n % 2, n + 1, 2) for parent in (jj + 1, jj - 1)
                   if degeneracy(n - 1, parent))
        assert u.shape == (2 ** n, cols)
        np.testing.assert_allclose(u.T @ u, np.eye(cols), atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_first_only_columns_are_alpha_one(self, n):
        full = build_spin_basis(n)
        first = build_spin_basis(n, first_only=True)
        keep = full.alpha == 1
        for name in ("jj", "mm", "parent", "alpha"):
            assert np.array_equal(getattr(full, name)[keep], getattr(first, name))
        assert full.u[:, keep].tobytes() == first.u.tobytes()

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("first_only", [False, True])
    def test_columns_are_total_spin_eigenvectors(self, n, first_only):
        # against dense J^2 and J_z, which have |0> at S_z = +1/2 where the
        # labels have mm = -1
        basis = build_spin_basis(n, first_only=first_only)
        j2, jz = total_spin(n)
        j = basis.jj / 2
        np.testing.assert_allclose(j2 @ basis.u, basis.u * (j * (j + 1)), atol=1e-12)
        np.testing.assert_allclose(jz @ basis.u, basis.u * (-basis.mm / 2), atol=1e-12)

    def test_vectors_keep_no_lower_level(self, monkeypatch):
        # the recursion reads the lower levels' labels and builds none of
        # their vectors
        build, made = spin._spin_basis, []

        def fresh(level, first_only=False):
            made.append(build(level, first_only))
            return made[-1]

        monkeypatch.setattr(spin, "build_spin_basis", fresh)
        assert fresh(8).u.shape == (256, 256)
        assert not any("u" in vars(basis) for basis in made[1:])

    def test_port_count_bounds(self):
        with pytest.raises(ValueError):
            build_spin_basis(0)
        with pytest.raises(ValueError):
            build_spin_basis(13)

    def test_cache_returns_same_object(self):
        assert build_spin_basis(3) is build_spin_basis(3)

    def test_rows_are_built_once(self):
        basis = build_spin_basis(5, first_only=True)
        assert basis.rows is basis.rows
        assert build_spin_basis(5, True).rows is basis.rows

    def test_rows_are_built_on_first_use(self):
        basis = build_spin_basis(MAX_PORTS + 1, first_only=True)
        assert basis is not build_spin_basis(MAX_PORTS + 1, first_only=True)
        assert "rows" not in vars(basis)
        rows = basis.rows
        assert vars(basis)["rows"] is rows

    def test_uncached_basis_dies_with_its_rows(self):
        basis = build_spin_basis(MAX_PORTS + 1, first_only=True)
        table = np.eye(len(basis))
        assert g_sum(basis.rows, table).shape == (2, 2)
        ref = weakref.ref(basis)
        del basis
        assert ref() is None


class TestRhoEigenvectors:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_reconstructs_dense_rho(self, n):
        _, eig, u = rho_eigenbasis(n)
        np.testing.assert_allclose((u * eig) @ u.T, dense_rho(n), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rayleigh_quotients(self, n):
        _, eig, u = rho_eigenbasis(n)
        quotients = np.einsum("ik,ij,jk->k", u, dense_rho(n), u)
        assert np.max(np.abs(quotients - eig)) <= 1e-10

    def test_eigenvalues_on_stencil(self):
        # rho = n/4 - S_C . S_ports: the spin Casimirs of C, the n ports (jp)
        # and all n + 1 qubits (j) fix each eigenvalue
        for n in (2, 3, 4):
            basis, eig, _ = rho_eigenbasis(n)
            for jj, parent, value in zip(basis.jj, basis.parent, eig):
                j = jj / 2
                jp = parent / 2
                assert value == pytest.approx(n / 4 - (j * (j + 1) - jp * (jp + 1) - 0.75) / 2,
                                              abs=1e-14)

    def test_kernel_family(self):
        n = 3
        basis, eig, u = rho_eigenbasis(n)
        kernel = [k for k, value in enumerate(eig) if value == 0.0]
        assert all(basis.jj[k] == n + 1 and basis.parent[k] == n
                   and basis.alpha[k] == 1 for k in kernel)
        assert len(kernel) == n + 2
        assert np.max(np.abs(dense_rho(n) @ u[:, kernel])) <= 1e-12
