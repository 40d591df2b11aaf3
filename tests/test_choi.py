import math

import numpy as np
import pytest

from pbtsim import choi
from pbtsim.analysis import alternate_choi, depolarizing_choi, pbt_ad_choi, xi
from pbtsim.choi import assemble_choi, check_choi, choi_from_reduced, qr_coeffs
from pbtsim.linalg import max_abs, partial_trace_qubits
from pbtsim.oracle import oracle_choi
from pbtsim.resources import (TAGS, AdChoi, Alternate, Bell, ReducedResource,
                              SpinCoefficients, make_family, reduce_full,
                              to_spin_coefficients)
from pbtsim.spin import build_spin_basis, degeneracy

from conftest import random_symmetric_resource


def _alpha_sum(coeffs, tag, kinds, signs, ss, mm):
    """g_sum as the explicit sum over the parent multiplets alpha."""
    s1, s2, s3, s4 = signs
    return sum(coeffs.f(tag, kinds[0], ss + s1, mm + s2, alpha, kinds[1], ss + s3, mm + s4, alpha)
               for alpha in range(1, degeneracy(coeffs.n - 1, ss) + 1))


def full_basis_choi(reduced: ReducedResource) -> np.ndarray:
    """Reference route without the alpha = 1 compression: dense complex
    congruence with the full unitary, then the explicit sum over alpha."""
    basis = build_spin_basis(reduced.n)
    u = basis.u.astype(complex)
    tables = {tag: u.conj().T @ reduced.block(tag) @ u for tag in TAGS}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(choi, "g_sum", _alpha_sum)
        return assemble_choi(SpinCoefficients(reduced.n, basis, tables))


class TestQRCoeffs:
    def test_zero_radicand_is_exact_zero(self):
        assert qr_coeffs(1, 1, 2).q_minus == 0.0

    def test_values(self):
        # q- at (s=1/2, m=-1/2, n=2): 2(s-m) = 2, (n+1-2s)(2s+1) = 4
        assert qr_coeffs(1, -1, 2).q_minus == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert qr_coeffs(1, 1, 2).r_plus == pytest.approx(math.sqrt(1 / 3), abs=1e-15)
        assert qr_coeffs(1, -1, 2).r_minus == pytest.approx(math.sqrt(1 / 3), abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            qr_coeffs(3, 1, 2)   # s beyond (n-1)/2
        with pytest.raises(ValueError):
            qr_coeffs(1, 3, 4)   # |m| > s


class TestTwoPort:
    """n=2 regressions on the general assembly."""

    def test_bell_values(self):
        c = choi_from_reduced(make_family(Bell(), 2))
        assert c[0, 0] == pytest.approx(0.25 + 1 / (8 * math.sqrt(3)), abs=1e-14)
        assert c[2, 2] == pytest.approx(0.25 - 1 / (8 * math.sqrt(3)), abs=1e-14)
        assert c[2, 2] == pytest.approx(xi(2) / 4, abs=1e-14)

    def test_zero_coherence_blocks(self):
        red = make_family(Bell(), 2)
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
        assert max_abs(choi_from_reduced(red), full_basis_choi(red)) <= 1e-13

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

    def test_rejects_non_trace_preserving(self):
        c = np.diag([0.6, 0.0, 0.4, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            check_choi(c)
