import itertools
import math
import tracemalloc

import numpy as np
import pytest

from pbtsim import oracle
from pbtsim.linalg import max_abs, permute_qubits
from pbtsim.oracle import build_povm, oracle_choi, povm_element, sigma_op
from pbtsim.resources import AdChoi, Bell, ReducedResource, make_family, reduced_from_port

from conftest import dense_rho, random_density, rho_eigenbasis


def per_entry_oracle(reduced: ReducedResource) -> np.ndarray:
    """Each Choi entry as its own dense trace (n/2) Tr[pi_1 (R^{ij} (x) |m><m'|)],
    one 2^(n+1) matrix product per entry."""
    n = reduced.n
    pi_1 = povm_element(1, n)
    c = np.zeros((4, 4), dtype=complex)
    for m, mp, i, j in itertools.product((0, 1), repeat=4):
        e = np.zeros((2, 2))
        e[m, mp] = 1.0
        c[2 * m + i, 2 * mp + j] = (n / 2) * np.trace(pi_1 @ np.kron(_block(reduced, i, j), e))
    return c


def mixed_products(n: int, rng: np.random.Generator, count: int = 3) -> ReducedResource:
    """A random mixture of products of random ports: port symmetric, not a product."""
    weights = rng.dirichlet(np.ones(count))
    parts = [reduced_from_port(random_density(4, rng), n) for _ in range(count)]
    return ReducedResource.from_joint(n, sum(w * part.joint for w, part in zip(weights, parts)))


def _block(reduced: ReducedResource, i: int, j: int) -> np.ndarray:
    """R^{i+1, j+1}, read from the joint operator by its B_1 bits."""
    d = 2 ** reduced.n
    return reduced.joint.reshape(d, 2, d, 2)[:, i, :, j]


class TestBuildPovm:
    def test_two_port_spectrum(self):
        w = np.linalg.eigvalsh(dense_rho(2))
        counts = {0.0: 4, 0.5: 2, 1.5: 2}
        for value, mult in counts.items():
            assert np.sum(np.abs(w - value) < 1e-10) == mult

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_spectrum_multiplicities_match_labels(self, n):
        w = np.sort(np.linalg.eigvalsh(dense_rho(n)))
        np.testing.assert_allclose(w, np.sort(rho_eigenbasis(n)[1]), atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_eigenspace_projectors_match(self, n):
        w, v = np.linalg.eigh(dense_rho(n))
        _, eig, u = rho_eigenbasis(n)
        for value in np.unique(eig):
            dense_cols = v[:, np.abs(w - value) < 1e-8]
            mine = u[:, eig == value]
            assert max_abs(dense_cols @ dense_cols.conj().T, mine @ mine.T) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_element_is_povm(self, n):
        w = np.linalg.eigvalsh(povm_element(1, n))
        assert w.min() >= -1e-10
        assert w.max() <= 1 + 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_completeness(self, n):
        total = sum(povm_element(i, n) for i in range(1, n + 1))
        assert max_abs(total, np.eye(2 ** (n + 1))) <= 1e-10

    def test_spectrum_checked_on_every_build(self, monkeypatch):
        # rho is not kept, so its spectrum is checked, against the spin
        # module's eigenvalues, while the element is built
        monkeypatch.setattr(oracle, "rho_eigenvalue", lambda sign, jj, n: -1.0)
        with pytest.raises(AssertionError, match="stencil"):
            build_povm.__wrapped__(2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_the_out_of_place_expression(self, n):
        # the element as one expression, each step a new array
        dim, d = 2 ** (n + 1), 2 ** n
        sigma1 = sigma_op(1, n)
        rho = sigma1.copy()
        for i in range(2, n + 1):
            rho += sigma_op(i, n)
        w, v = np.linalg.eigh(rho)
        kept = v[:, w > 1e-10]
        inv_sqrt = (kept / np.sqrt(w[w > 1e-10])) @ kept.T
        pi_1 = inv_sqrt @ sigma1 @ inv_sqrt + (np.eye(dim) - kept @ kept.T) / n
        pi_1 = 0.5 * (pi_1 + pi_1.T)
        want = (n / 2) * pi_1.reshape(d, 2, d, 2).transpose(0, 1, 3, 2).reshape(d, 4, d)
        assert np.array_equal(build_povm(n), want)

    def test_build_holds_few_squares_at_once(self):
        # rho, its eigenvectors and eigh's copy of rho beside sigma_1: four
        # 2^(n+1)-square arrays, where the out-of-place steps held eight
        n = 8
        square = 8 * 4 ** (n + 1)
        tracemalloc.start()
        try:
            build_povm.__wrapped__(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * square

    def test_transfer_is_read_only(self):
        # cached per n, so a write would change every later oracle Choi matrix
        transfer = build_povm(3)
        assert not transfer.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            transfer[0, 0, 0] = 1.0

    def test_port_range(self):
        with pytest.raises(ValueError):
            build_povm(1)
        with pytest.raises(ValueError):
            build_povm(9)
        with pytest.raises(ValueError):
            sigma_op(0, 3)

    @pytest.mark.parametrize("i", [0, 4, -1])
    def test_povm_element_rejects_a_port_index_outside_one_to_n(self, i):
        # i = 0 and n + 1 gave an element of valid trace, with A_1 and C exchanged
        with pytest.raises(ValueError, match=f"port index {i} out of 1..3"):
            povm_element(i, 3)


class TestOracleChoi:
    def test_bell_two_ports(self):
        c = oracle_choi(make_family(Bell(), 2))
        assert c[0, 0] == pytest.approx((6 + math.sqrt(3)) / 24, abs=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_full_damping_output(self, n):
        c = oracle_choi(make_family(AdChoi(1.0), n))
        np.testing.assert_allclose(c, np.diag([0.5, 0, 0.5, 0]), atol=1e-12)

    def test_maximally_mixed_blocks(self):
        n = 3
        d = 2 ** n
        scale = 1.0 / 2 ** (n + 1)
        red = ReducedResource(
            n=n,
            r11=scale * np.eye(d, dtype=complex),
            r12=np.zeros((d, d), dtype=complex),
            r21=np.zeros((d, d), dtype=complex),
            r22=scale * np.eye(d, dtype=complex),
        )
        np.testing.assert_allclose(oracle_choi(red), np.eye(4) / 4, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_port_swap_invariance_for_symmetric_resources(self, n):
        # re-derive the Choi from the outcome-2 element with the resource
        # blocks moved to the matching sender slot
        red = make_family(AdChoi(0.3), n)
        pi_2 = povm_element(2, n)
        src = list(range(n))
        src[n - 1], src[n - 2] = src[n - 2], src[n - 1]
        c = np.zeros((4, 4), dtype=complex)
        for m in (0, 1):
            for nn in (0, 1):
                e = np.zeros((2, 2), dtype=complex)
                e[m, nn] = 1.0
                for i in (0, 1):
                    for j in (0, 1):
                        blk = permute_qubits(_block(red, i, j), src)
                        c[2 * m + i, 2 * nn + j] = (n / 2) * np.trace(pi_2 @ np.kron(blk, e))
        assert max_abs(c, oracle_choi(red)) <= 1e-10


class TestOracleContraction:
    """The one-product Choi matrix against the per-entry traces it replaces."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_per_entry_traces_on_mixtures(self, n):
        red = mixed_products(n, np.random.default_rng(100 + n))
        assert max_abs(oracle_choi(red), per_entry_oracle(red)) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_per_entry_traces_on_random_symmetric(self, n, symmetric_reduced):
        red = symmetric_reduced(n)
        assert max_abs(oracle_choi(red), per_entry_oracle(red)) <= 1e-13

    def test_matches_per_entry_traces_without_symmetry(self):
        n = 4
        joint = random_density(2 ** (n + 1), np.random.default_rng(7)).reshape(2 ** n, 2, 2 ** n, 2)
        red = ReducedResource(n, *(joint[:, i, :, j] for i in (0, 1) for j in (0, 1)))
        assert max_abs(oracle_choi(red), per_entry_oracle(red)) <= 1e-13
