from functools import reduce

import numpy as np
import pytest

from pbtsim.linalg import (X_PAIRS, herm_defect, kron_power, max_abs, swap_defect, swap_qubits,
                           transfer_choi, x_matrix)

from conftest import left_grown_kron_power


class TestXMatrix:
    def test_entries_land_on_the_x(self):
        c03, c12 = 0.25 - 0.5j, -0.125 + 0.75j
        m = x_matrix((0.1, 0.2, 0.3, 0.4), c03, c12)
        assert m.shape == (4, 4) and m.dtype == complex
        np.testing.assert_array_equal(np.diag(m), [0.1, 0.2, 0.3, 0.4])
        for (k, l), c in zip(X_PAIRS, (c03, c12)):
            assert m[k, l] == c
            assert m[l, k] == np.conj(c)
        on_x = np.zeros((4, 4), dtype=bool)
        on_x[np.diag_indices(4)] = True
        for k, l in X_PAIRS:
            on_x[k, l] = on_x[l, k] = True
        off = m[~on_x]
        assert off.size == 8
        # exact zeros, with positive sign in both parts
        assert not np.signbit(off.view(float)).any() and not off.any()
        np.testing.assert_array_equal(m, m.conj().T)

    def test_coherences_default_to_zero(self):
        m = x_matrix((1, 2, 3, 4))
        np.testing.assert_array_equal(m, np.diag([1, 2, 3, 4]).astype(complex))

    def test_signed_zeros_kept(self):
        m = x_matrix((-0.0, 0, 0, 0), c12=-0.0)
        assert np.signbit(m[0, 0].real)
        assert np.signbit(m[1, 2].real) and np.signbit(m[2, 1].real)


def _kron(*ops):
    return reduce(np.kron, ops)


class TestSwapQubits:
    def test_swaps_the_factors_of_a_product(self, rng):
        a, b, c, d = (rng.normal(size=(2, 2)) for _ in range(4))
        got = swap_qubits(_kron(a, b, c, d), 4, (0, 2))
        np.testing.assert_allclose(got, _kron(c, b, a, d), rtol=1e-14)
        got = swap_qubits(_kron(a, b, c, d), 4, (0, 1), (2, 3))
        np.testing.assert_allclose(got, _kron(b, a, d, c), rtol=1e-14)

    def test_a_slot_swapped_with_itself_is_unchanged(self, rng):
        op = rng.normal(size=(8, 8))
        np.testing.assert_array_equal(swap_qubits(op, 3, (1, 1)), op)


class TestSwapDefect:
    """The exchanged operator read slice by slice, against the whole copy."""

    @pytest.mark.parametrize("qubits, pairs", [
        (1, []), (2, [(0, 1)]), (3, [(1, 2)]), (4, [(0, 1), (2, 3)]), (4, [(0, 3)]),
        (6, [(1, 2), (4, 5)]), (6, [(0, 2), (3, 5)]), (7, [(5, 6)]), (8, [(2, 3), (6, 7)])])
    def test_equals_the_whole_copy(self, qubits, pairs):
        rng = np.random.default_rng(qubits + 10 * len(pairs))
        d = 2 ** qubits
        op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        want = max_abs(swap_qubits(op, qubits, *pairs), op)
        assert swap_defect(op, qubits, *pairs) == want
        # symmetric under the exchange but for one entry and its image
        sym = (op + swap_qubits(op, qubits, *pairs)) / 2
        sym[d - 1, 0] += 1e-9
        assert swap_defect(sym, qubits, *pairs) == max_abs(swap_qubits(sym, qubits, *pairs), sym)

    def test_reads_a_strided_operator(self, rng):
        op = rng.normal(size=(32, 64)) + 1j * rng.normal(size=(32, 64))
        view = op[:, ::2]
        want = max_abs(swap_qubits(view, 5, (2, 3)), view)
        assert swap_defect(view, 5, (2, 3)) == want


def _herm_defect_whole(m: np.ndarray) -> float:
    """The single expression herm_defect keeps for a matrix of one tile."""
    return float(np.abs(m - m.conj().T).max())


class TestHermDefect:
    """The defect tile by tile above the diagonal, against the whole matrix."""

    @pytest.mark.parametrize("d", [1, 4, 127, 128, 129, 300, 1024])
    def test_equals_the_whole_matrix_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        herm = g + g.conj().T
        for m in (g, herm, herm + 1e-12 * g):
            assert herm_defect(m) == _herm_defect_whole(m)
        assert herm_defect(herm) == 0.0

    @pytest.mark.parametrize("d", [127, 129, 300])
    def test_largest_defect_in_the_last_partial_tile(self, d):
        rng = np.random.default_rng(d)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = g + g.conj().T
        m[d - 1, d - 2] += 3e-7  # below the diagonal, in the last row of tiles
        m[d - 2, 1] -= 1e-7j
        assert herm_defect(m) == _herm_defect_whole(m) > 2e-7
        m[d - 1, d - 1] += 5e-7j  # the diagonal entry of the last tile
        assert herm_defect(m) == _herm_defect_whole(m) > 9e-7

    def test_nan_propagates(self, rng):
        m = np.eye(200, dtype=complex)
        m[150, 3] = np.nan
        assert np.isnan(herm_defect(m))


class TestKronPower:
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 9])
    def test_matches_left_grown_product(self, k):
        rng = np.random.default_rng(40 + k)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        want = left_grown_kron_power(m, k)
        got = kron_power(m, k)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("k", range(10))
    def test_bytes_of_right_grown_kron_chain(self, k):
        # each block is written in place, with the bits np.kron gives
        rng = np.random.default_rng(50 + k)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        right = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for r in (None, right):
            want = np.eye(1, dtype=complex) if r is None else r
            for _ in range(k):
                want = np.kron(m, want)
            got = kron_power(m, k, r)
            assert got.shape == want.shape and got.dtype == complex
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", range(5))
    def test_bytes_of_a_four_by_four_power(self, k):
        # the port itself, as full_from_port takes it; real entries and
        # signed zeros come out as np.kron makes them
        rng = np.random.default_rng(70 + k)
        for m in (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)),
                  np.diag([0.5, -0.0, 0.25, 0.0])):
            want = np.eye(1, dtype=complex)
            for _ in range(k):
                want = np.kron(m, want)
            assert kron_power(m, k).tobytes() == want.tobytes()


def _blocks_contraction(transfer, joint):
    """The contraction transfer_choi replaces: the transfer laid out
    T[(m, m'), (a, a')] against a copy of R in (a a' | i j) blocks."""
    d = transfer.shape[0]
    t = transfer.transpose(1, 0, 2).reshape(4, d * d)
    blocks = np.asarray(joint, dtype=complex).reshape(d, 2, d, 2).transpose(0, 2, 1, 3)
    c = (t @ blocks.reshape(d * d, 4).view(float)).view(complex)
    return c.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def _random_transfer(n, rng):
    d = 2 ** n
    return rng.normal(size=(d, 4, d)) / d


class TestTransferChoi:
    """The in-place contraction against the blocks copy it replaces."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_blocks_contraction(self, n):
        rng = np.random.default_rng(70 + n)
        dim = 2 ** (n + 1)
        joint = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))  # not Hermitian
        transfer = _random_transfer(n, rng)
        got = transfer_choi(transfer, joint)
        assert got.shape == (4, 4) and got.dtype == complex
        want = _blocks_contraction(transfer, joint)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(joint).max()

    def test_real_input(self, rng):
        n = 3
        joint = rng.normal(size=(16, 16))
        transfer = _random_transfer(n, rng)
        want = _blocks_contraction(transfer, joint)
        assert np.abs(transfer_choi(transfer, joint) - want).max() <= 1e-13 * np.abs(joint).max()

    def test_non_contiguous_input(self, rng):
        n = 4
        wide = rng.normal(size=(32, 64)) + 1j * rng.normal(size=(32, 64))
        joint = wide[:, ::2]
        assert not joint.flags.c_contiguous
        transfer = _random_transfer(n, rng)
        want = _blocks_contraction(transfer, joint)
        assert np.abs(transfer_choi(transfer, joint) - want).max() <= 1e-13 * np.abs(joint).max()
