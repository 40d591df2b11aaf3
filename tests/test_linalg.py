from functools import reduce

import numpy as np

from pbtsim.linalg import X_PAIRS, swap_qubits, x_matrix


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
