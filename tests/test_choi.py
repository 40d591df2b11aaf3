import hashlib
import math

import numpy as np
import pytest

from pbtsim.analysis import alternate_choi, depolarizing_choi, pbt_ad_choi, xi
from pbtsim.choi import assemble_choi, check_choi, choi_from_reduced, g_sum
from pbtsim.linalg import max_abs, partial_trace_qubits
from pbtsim.oracle import oracle_choi
from pbtsim.resources import (AdChoi, Alternate, Bell, ReducedResource,
                              make_family, reduce_full, to_spin_coefficients)
from pbtsim.spin import build_spin_basis, degeneracy, held_multiplets, rho_eigenvalue

from conftest import column_index, random_symmetric_resource, textbook_cg


def full_basis_choi(reduced: ReducedResource) -> np.ndarray:
    """Reference route without the alpha = 1 compression: congruence with the
    full basis and one measurement row per multiplet alpha."""
    return assemble_choi(to_spin_coefficients(reduced, build_spin_basis(reduced.n)))


class TestMeasurementRows:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_counts_and_weights(self, n):
        ss_values = range(1 if n % 2 == 0 else 0, n, 2)
        full_rows = build_spin_basis(n).rows
        first_rows = build_spin_basis(n, first_only=True).rows
        full_w, first_w = full_rows.weights, first_rows.weights
        assert len(full_rows) == n + 2 + sum(degeneracy(n - 1, ss) * (ss + 1) for ss in ss_values)
        assert len(first_rows) == n + 2 + sum(ss + 1 for ss in ss_values)
        assert (full_w[:n + 2] == 0.5).all() and (full_w[n + 2:] == n / 2).all()
        # on the alpha = 1 basis each bulk row carries all of its multiplets
        assert first_w.sum() == pytest.approx(full_w.sum(), abs=1e-12)

    def test_bytes_pinned(self):
        # every row, coefficient and weight, full bases at n = 1..10 and
        # first-only ones at n = 1..13, 50, 200, 500; sqrt and true division
        # round correctly, so the digest is the same on every IEEE machine
        h = hashlib.sha256()
        for first_only, ports in ((False, range(1, 11)), (True, [*range(1, 14), 50, 200, 500])):
            for n in ports:
                rows = build_spin_basis(n, first_only).rows
                for a, dtype in ((rows.cols, "<i8"), (rows.coefs, "<f8"), (rows.weights, "<f8")):
                    h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
        assert h.hexdigest() == "f55fd84df35f3b636df63e066eca974dc588421389cbb5c6a980262459594567"

    def test_labels_outside_basis_are_skipped(self):
        # n = 2, ss = 1, mm = 1: the label (jj, mm) = (0, 2) coupled from
        # spin 1 does not exist, so the top row holds only the entry at (2, 2)
        basis = build_spin_basis(2)
        index = column_index(basis)
        rows = basis.rows
        top = rows.coefs[4 + 1][0]
        k = index[2, 2, 1, 1]
        assert np.count_nonzero(top) == 1
        assert rows.cols[4 + 1][top != 0] == [k]
        assert top[top != 0] == pytest.approx([-1 / math.sqrt(3)], abs=1e-15)
        # the missing entry repeats a column the pair holds
        held = {index[jj, mm, 1, 1] for jj, mm in ((2, 2), (0, 0), (2, 0))}
        assert set(rows.cols[4 + 1].tolist()) == held

    def test_two_port_overlaps(self):
        # the one bulk stratum of n = 2, ss = 1: q- = sqrt(1/2) and r- = sqrt(1/3)
        # at mm = -1, r+ = sqrt(1/3) at mm = 1
        basis = build_spin_basis(2)
        index = column_index(basis)
        rows = basis.rows

        def entry(k, a, jj, mm):
            return rows.coefs[k, a][rows.cols[k] == index[jj, mm, 1, 1]].sum()

        assert entry(4, 0, 0, 0) == pytest.approx(math.sqrt(1 / 2), abs=1e-15)
        assert entry(4, 1, 2, -2) == pytest.approx(math.sqrt(1 / 3), abs=1e-15)
        assert entry(5, 0, 2, 2) == pytest.approx(-math.sqrt(1 / 3), abs=1e-15)

    @pytest.mark.parametrize("n, first_only", [(n, f) for n in range(2, 9) for f in (False, True)]
                             + [(50, True), (200, True)])
    def test_every_bulk_coefficient_is_textbook(self, n, first_only):
        # bulk pair (ss, mm, alpha) couples qubit C to the unkept ports' spin s:
        # row a (m2 = +1/2, then -1/2) holds, at each column of spin j = s +- 1/2
        # and projection m + m2, -2 m2 <s, m; 1/2, m2 | j, m + m2> / sqrt(2 lambda),
        # lambda the eigenvalue of rho on that column's sector
        basis = build_spin_basis(n, first_only)
        index = column_index(basis)
        rows = basis.rows
        got, want, k = {}, {}, n + 2
        for ss in range(1 if n % 2 == 0 else 0, n, 2):
            for mm in range(-ss, ss + 1, 2):
                for alpha in range(1, held_multiplets(n, ss, first_only) + 1):
                    for a, m2 in enumerate((0.5, -0.5)):
                        for jj, sign in ((ss - 1, "-"), (ss + 1, "+")):
                            c = index.get((jj, mm + round(2 * m2), ss, alpha))
                            if c is None:
                                continue
                            lam = rho_eigenvalue(sign, jj, n)
                            value = -2 * m2 * textbook_cg(ss / 2, mm / 2, m2, jj / 2)
                            if value:
                                want[k, a, c] = value / math.sqrt(2 * lam)
                    for a in range(2):
                        for c, coef in zip(rows.cols[k].tolist(), rows.coefs[k, a].tolist()):
                            if coef:
                                got[k, a, c] = coef
                    k += 1
        assert k == len(rows)
        assert got.keys() == want.keys()
        assert max(abs(got[key] - want[key]) for key in want) <= 1e-15


class TestGSum:
    def test_bell_two_port_value(self):
        basis = build_spin_basis(2)
        table = to_spin_coefficients(make_family(Bell(), 2), basis).table
        got = g_sum(basis.rows, table)[0, 0]
        want = np.diag([6 + math.sqrt(3), 6 - math.sqrt(3)]) / 24
        assert max_abs(got, want) <= 1e-15

    def test_zero_table_is_exact_zero(self):
        for first_only in (False, True):
            basis = build_spin_basis(4, first_only=first_only)
            width = len(basis)
            got = g_sum(basis.rows, np.zeros((width, width), dtype=complex))
            assert np.array_equal(got, np.zeros((2, 2)))

    def test_conjugate_symmetry_between_tags(self, symmetric_reduced):
        for first_only in (False, True):
            basis = build_spin_basis(3, first_only=first_only)
            coeffs = to_spin_coefficients(symmetric_reduced(3), basis)
            sums = g_sum(basis.rows, coeffs.table)
            assert max_abs(sums[1, 0], sums[0, 1].conj().T) <= 1e-14

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("first_only", [True, False])
    def test_one_sum_equals_four(self, n, first_only, symmetric_reduced):
        # the sum over the whole table gives, bit for bit, the sum over each
        # block's own 2-D table
        basis = build_spin_basis(n, first_only=first_only)
        table = to_spin_coefficients(symmetric_reduced(n), basis).table
        sums = g_sum(basis.rows, table)
        assert sums.shape == (2, 2, 2, 2)
        for i in (0, 1):
            for j in (0, 1):
                assert sums[i, j].tobytes() == g_sum(basis.rows, table[..., i, j]).tobytes()


class TestTwoPort:
    """n=2 regressions on the general assembly."""

    def test_bell_values(self):
        c = choi_from_reduced(make_family(Bell(), 2))
        assert c[0, 0] == pytest.approx(0.25 + 1 / (8 * math.sqrt(3)), abs=1e-14)
        assert c[2, 2] == pytest.approx(0.25 - 1 / (8 * math.sqrt(3)), abs=1e-14)
        assert c[2, 2] == pytest.approx(xi(2) / 4, abs=1e-14)

    def test_zero_coherence_blocks(self):
        red = make_family(Bell(), 2).reduced
        zero = np.zeros_like(red.r12)
        diagonal_only = ReducedResource(n=2, r11=red.r11, r12=zero, r21=zero, r22=red.r22)
        c = choi_from_reduced(diagonal_only)
        # entries fed by the off-diagonal conditional blocks vanish exactly
        for idx in ((0, 1), (0, 3), (2, 3), (1, 2)):
            assert abs(c[idx]) == 0.0

    @pytest.mark.parametrize("trial", range(5))
    def test_matches_general_assembly(self, trial, rng):
        """The general assembly at n=2 against the dense oracle."""
        red = reduce_full(random_symmetric_resource(2, rng))
        assert max_abs(choi_from_reduced(red), oracle_choi(red)) <= 1e-12


class TestAssembleChoi:
    def test_bell_two_ports_value(self):
        c = choi_from_reduced(make_family(Bell(), 2))
        assert c[0, 0] == pytest.approx((6 + math.sqrt(3)) / 24, abs=1e-13)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_bell_gives_depolarizing(self, n):
        c = choi_from_reduced(make_family(Bell(), n))
        assert max_abs(c, depolarizing_choi(xi(n))) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("family", [AdChoi(0.45), Alternate(0.3)])
    def test_matches_oracle(self, n, family):
        red = make_family(family, n)
        assert max_abs(choi_from_reduced(red), oracle_choi(red)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_invariants_on_random_symmetric(self, n, rng):
        red = reduce_full(random_symmetric_resource(n, rng))
        c = choi_from_reduced(red)
        check_choi(c)
        marginal = partial_trace_qubits(c, 2, [0])
        np.testing.assert_allclose(marginal, np.eye(2) / 2, atol=1e-10)

    def test_linear_in_coefficients(self, rng):
        n = 3
        ra = reduce_full(random_symmetric_resource(n, rng))
        rb = reduce_full(random_symmetric_resource(n, rng))
        for lam in (0.25, 0.5, 0.9):
            mix = ReducedResource(
                n=n,
                r11=lam * ra.r11 + (1 - lam) * rb.r11,
                r12=lam * ra.r12 + (1 - lam) * rb.r12,
                r21=lam * ra.r21 + (1 - lam) * rb.r21,
                r22=lam * ra.r22 + (1 - lam) * rb.r22,
            )
            want = lam * choi_from_reduced(ra) + (1 - lam) * choi_from_reduced(rb)
            assert max_abs(choi_from_reduced(mix), want) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("family", [Bell(), AdChoi(0.3), Alternate(0.8)])
    def test_matches_full_basis_route_on_products(self, n, family):
        red = make_family(family, n)
        assert max_abs(choi_from_reduced(red), full_basis_choi(red.reduced)) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_full_basis_route_on_random_symmetric(self, n, symmetric_reduced):
        red = symmetric_reduced(n)
        assert max_abs(choi_from_reduced(red), full_basis_choi(red)) <= 1e-13

    @pytest.mark.parametrize("family, closed", [
        (Bell(), lambda n: depolarizing_choi(xi(n))),
        (AdChoi(0.3), lambda n: pbt_ad_choi(n, 0.3)),
        (Alternate(0.8), lambda n: alternate_choi(n, 0.8)),
    ], ids=["bell", "ad", "alternate"])
    def test_closed_forms_at_eleven_ports(self, family, closed):
        c = choi_from_reduced(make_family(family, 11))
        assert max_abs(c, closed(11)) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_products_exactly_hermitian_and_x_shaped(self, n):
        outside_x = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
        for family in (Bell(), AdChoi(0.3), Alternate(0.8)):
            c = choi_from_reduced(make_family(family, n))
            assert np.array_equal(c, c.conj().T)
            assert (c[outside_x] == 0).all()

    def test_single_port_rejected(self):
        red = make_family(Bell(), 1)
        with pytest.raises(ValueError):
            assemble_choi(to_spin_coefficients(red, build_spin_basis(1)))


class TestCheckChoi:
    def test_accepts_valid(self):
        check_choi(depolarizing_choi(0.3))

    def test_rejects_non_hermitian(self):
        c = depolarizing_choi(0.3)
        c[0, 1] = 0.2
        with pytest.raises(ValueError):
            check_choi(c)

    def test_rejects_trace_deficit(self):
        with pytest.raises(ValueError):
            check_choi(0.9 * depolarizing_choi(0.3))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"expected shape \(4, 4\), got \(2, 2\)"):
            check_choi(np.eye(2) / 2)

    @pytest.mark.parametrize("lowest, ok", [(-5e-10, True), (-2e-9, False)])
    def test_tolerates_eigenvalues_down_to_minus_1e_9(self, lowest, ok):
        # trace 1 and trace preserving: only the lowest eigenvalue decides
        c = np.diag([0.5 - lowest, lowest, 0.0, 0.5]).astype(complex)
        if ok:
            check_choi(c)
        else:
            with pytest.raises(ValueError, match="Choi matrix is not positive semidefinite"):
                check_choi(c)

    def test_rejects_non_trace_preserving(self):
        c = np.diag([0.6, 0.0, 0.4, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            check_choi(c)
