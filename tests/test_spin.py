import math

import numpy as np
import pytest

from pbtsim.oracle import build_povm
from pbtsim.spin import Kind, build_spin_basis, clebsch_gordan, degeneracy, rho_eigenvalue

from conftest import rho_eigenbasis, total_spin_multiplets


class TestClebschGordan:
    @pytest.mark.parametrize("branch, jj, mm, expected", [
        ("--", 1, 1, 1 / math.sqrt(2)),     # two-spin singlet coefficient
        ("-+", 1, -1, -1 / math.sqrt(2)),   # two-spin singlet coefficient
        ("++", 1, 1, 1.0),                  # stretched state
        ("--", 0, 0, 0.0),                  # no j = -1/2 multiplet
        ("+-", 1, -1, 1.0),
        ("++", 1, -3, 0.0),                 # nonexistent source state
        ("+-", 1, 3, 0.0),
    ])
    def test_values(self, branch, jj, mm, expected):
        assert clebsch_gordan(branch, jj, mm) == pytest.approx(expected, abs=1e-15)

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            clebsch_gordan("++", -1, 1)

    def test_parity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            clebsch_gordan("++", 2, 1)

    def test_unknown_branch_rejected(self):
        with pytest.raises(ValueError):
            clebsch_gordan("+*", 1, 1)


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
        assert basis.labels[0].mm == -1  # |0> carries m = -1/2

    def test_two_qubit_basis_explicit(self):
        basis = build_spin_basis(2)
        keys = [(l.jj, l.mm, l.kind) for l in basis.labels]
        assert keys == [(0, 0, Kind.I), (2, -2, Kind.II), (2, 0, Kind.II), (2, 2, Kind.II)]
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
        assert len(basis.labels) == 2 ** n
        for jj in range(n % 2, n + 1, 2):
            for mm in range(-jj, jj + 1, 2):
                count = sum(1 for l in basis.labels if l.jj == jj and l.mm == mm)
                assert count == degeneracy(n, jj)
                kind_i = sum(1 for l in basis.labels
                             if l.jj == jj and l.mm == mm and l.kind == Kind.I)
                if n > 1:
                    assert kind_i == degeneracy(n - 1, jj + 1)

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
        assert [lab for lab in full.labels if lab.alpha == 1] == list(first.labels)
        assert np.array_equal(full.u[:, [full.index[lab] for lab in first.labels]], first.u)

    def test_port_count_bounds(self):
        with pytest.raises(ValueError):
            build_spin_basis(0)
        with pytest.raises(ValueError):
            build_spin_basis(13)

    def test_cache_returns_same_object(self):
        assert build_spin_basis(3) is build_spin_basis(3)


class TestRhoEigenvectors:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_reconstructs_dense_rho(self, n):
        _, eig, u = rho_eigenbasis(n)
        np.testing.assert_allclose((u * eig) @ u.T, build_povm(n).rho, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rayleigh_quotients(self, n):
        _, eig, u = rho_eigenbasis(n)
        quotients = np.einsum("ik,ij,jk->k", u, build_povm(n).rho, u)
        assert np.max(np.abs(quotients - eig)) <= 1e-10

    def test_eigenvalues_on_stencil(self):
        # rho = n/4 - S_C . S_ports: the spin Casimirs of C, the n ports (jp)
        # and all n + 1 qubits (j) fix each eigenvalue
        for n in (2, 3, 4):
            labels, eig, _ = rho_eigenbasis(n)
            for lab, value in zip(labels, eig):
                j = lab.jj / 2
                jp = j + 0.5 if lab.kind is Kind.I else j - 0.5
                assert value == pytest.approx(n / 4 - (j * (j + 1) - jp * (jp + 1) - 0.75) / 2,
                                              abs=1e-14)

    def test_kernel_family(self):
        n = 3
        labels, eig, u = rho_eigenbasis(n)
        kernel = [k for k, value in enumerate(eig) if value == 0.0]
        assert all(labels[k].jj == n + 1 and labels[k].kind == Kind.II
                   and labels[k].alpha == 1 for k in kernel)
        assert len(kernel) == n + 2
        assert np.max(np.abs(build_povm(n).rho @ u[:, kernel])) <= 1e-12
