import importlib.util
import io
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pbtsim import float_text, resources
from pbtsim.linalg import herm_defect, max_abs, partial_trace_qubits, permute_qubits, swap_qubits
from pbtsim.oracle import oracle_choi
from pbtsim.resources import (AdChoi, Alternate, Bell, FromFile, FullResource,
                              ReducedResource, _port_asymmetry, ad_choi_port,
                              alternate_port, bell_port, full_from_port,
                              load_resource, make_family, port_state,
                              reduce_full, reduced_from_port, reduced_port_state,
                              save_resource, to_spin_coefficients)
from pbtsim.spin import build_spin_basis

from conftest import (column_index, left_grown_kron_power, random_density,
                      random_symmetric_resource, symmetrize)


class TestPortStates:
    def test_ad_zero_is_bell(self):
        np.testing.assert_allclose(ad_choi_port(0.0), bell_port(), atol=1e-15)

    def test_alternate_half_is_bell(self):
        np.testing.assert_allclose(alternate_port(0.5), bell_port(), atol=1e-15)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            ad_choi_port(1.2)
        with pytest.raises(ValueError):
            alternate_port(-0.1)

    def test_ports_are_states(self):
        for port in (bell_port(), ad_choi_port(0.4), alternate_port(0.3)):
            assert abs(np.trace(port) - 1) < 1e-14
            assert np.linalg.eigvalsh(port).min() > -1e-14


class TestReduce:
    def test_bell_pair_blocks(self):
        red = make_family(Bell(), 2).reduced
        np.testing.assert_allclose(
            red.r11, 0.25 * np.kron(np.eye(2), np.diag([0, 1])), atol=1e-15
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("family", [Bell(), AdChoi(0.3), Alternate(0.3)])
    def test_product_families_match_dense_reduction(self, n, family):
        direct = make_family(family, n)
        dense = reduce_full(full_from_port(port_state(family), n))
        assert max_abs(direct.joint, dense.joint) <= 1e-13

    def test_maximally_mixed(self):
        n = 3
        dim = 2 ** (2 * n)
        red = reduce_full(FullResource(n=n, rho_ab=np.eye(dim, dtype=complex) / dim))
        np.testing.assert_allclose(red.r11, np.eye(2 ** n) / 2 ** (n + 1), atol=1e-14)
        np.testing.assert_allclose(red.r12, 0 * red.r12, atol=1e-15)

    @pytest.mark.parametrize("family", [Bell(), AdChoi(0.6), Alternate(0.2)])
    def test_block_trace_sums_to_one(self, family):
        red = make_family(family, 4).reduced
        red.validate()
        assert abs(np.trace(red.r11) + np.trace(red.r22) - 1) < 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_joint_undoes_split(self, n):
        full = random_symmetric_resource(n, np.random.default_rng(n))
        want = partial_trace_qubits(full.rho_ab, 2 * n, list(range(n)) + [2 * n - 1])
        assert np.array_equal(reduce_full(full).joint, want)


def random_blocks(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Four unrelated complex 2^n x 2^n blocks, with a signed zero in each part."""
    d = 2 ** n
    blocks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(4)]
    for blk in blocks:
        blk[0, 0] = complex(-0.0, -0.0)
    return blocks


def interleaved(r11, r12, r21, r22) -> np.ndarray:
    """The four blocks as one operator on (A, B_1), B_1 last, written out
    independently of ``ReducedResource``."""
    d = len(r11)
    return np.array([[r11, r12], [r21, r22]]).transpose(2, 0, 3, 1).reshape(2 * d, 2 * d)


def per_block_asymmetry(red: ReducedResource) -> float:
    """Port asymmetry block by block: every exchange within A_n..A_2 in each of
    r11, r12, r21, r22, and A_2 <-> A_1 in r11 + r22."""
    n = red.n

    def swap(k):
        src = list(range(n))
        src[k], src[k + 1] = src[k + 1], src[k]
        return src

    blocks = [red.r11.copy(), red.r12.copy(), red.r21.copy(), red.r22.copy()]
    defects = [max_abs(permute_qubits(blk, swap(k)), blk) for blk in blocks for k in range(n - 2)]
    marg = blocks[0] + blocks[3]
    defects.append(max_abs(permute_qubits(marg, swap(n - 2)), marg))
    return max(defects)


def whole_operator_asymmetry(obj: FullResource | ReducedResource) -> float:
    """_port_asymmetry as one whole exchanged copy of the operator per exchange."""
    n = obj.n
    if isinstance(obj, FullResource):
        rho = obj.rho_ab
        return max((max_abs(swap_qubits(rho, 2 * n, (k, k + 1), (n + k, n + k + 1)), rho)
                    for k in range(n - 1)), default=0.0)
    joint = obj.joint
    defects = [max_abs(swap_qubits(joint, n + 1, (k, k + 1)), joint) for k in range(n - 2)]
    if n >= 2:
        marg = obj.r11 + obj.r22
        defects.append(max_abs(swap_qubits(marg, n, (n - 2, n - 1)), marg))
    return max(defects, default=0.0)


class TestJointLayout:
    """``ReducedResource`` holds one operator on (A, B_1); the blocks are views."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_constructor_round_trips_blocks_bitwise(self, n):
        blocks = random_blocks(n, np.random.default_rng(n))
        red = ReducedResource(n, *blocks)
        for got, want in zip((red.r11, red.r12, red.r21, red.r22), blocks):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_joint_is_the_block_interleave(self, n):
        blocks = random_blocks(n, np.random.default_rng(10 + n))
        red = ReducedResource(n, *blocks)
        assert red.joint.shape == (2 ** (n + 1), 2 ** (n + 1))
        assert red.joint.tobytes() == interleaved(*blocks).tobytes()

    def test_block_writes_reach_joint(self):
        red = ReducedResource(2, *random_blocks(2, np.random.default_rng(0)))
        before = red.joint.copy()
        red.r11[1, 1] += 1e-12
        red.r21[0, 3] = 5.0
        assert red.joint[2, 2] == before[2, 2] + 1e-12
        assert red.joint[1, 6] == 5.0
        assert np.count_nonzero(red.joint != before) == 2

    def test_from_joint_keeps_the_operator(self):
        joint = random_density(8, np.random.default_rng(1))
        red = ReducedResource.from_joint(2, joint)
        assert red.joint is joint
        assert red.r12.tobytes() == joint.reshape(4, 2, 4, 2)[:, 0, :, 1].copy().tobytes()

    @pytest.mark.parametrize("op", [np.ones((4, 64)) / 8, np.eye(8) / 8], ids=["4x64", "8x8"])
    def test_from_joint_rejects_operator_of_wrong_shape(self, op):
        # the first gave a 4 x 4 Choi matrix; the second passed validate(),
        # then failed to reshape in choi_from_reduced
        with pytest.raises(ValueError, match=re.escape(f"expected shape (16, 16), got {op.shape}")):
            ReducedResource.from_joint(3, op)

    def test_rejects_block_of_wrong_shape(self):
        blocks = random_blocks(2, np.random.default_rng(2))
        blocks[1] = blocks[1][:3]
        with pytest.raises(ValueError, match=r"block r12: expected shape \(4, 4\)"):
            ReducedResource(2, *blocks)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_port_asymmetry_is_the_per_block_maximum(self, n):
        rng = np.random.default_rng(30 + n)
        for _ in range(3):
            red = ReducedResource.from_joint(n, random_density(2 ** (n + 1), rng))
            assert _port_asymmetry(red) == per_block_asymmetry(red) == whole_operator_asymmetry(red)
        # only A_2 <-> A_1 in the B_1 marginal shows the defect
        sigma, tau = random_density(4, rng), random_density(4, rng)
        red = reduce_full(_port_product(*[sigma] * (n - 1), tau))
        assert _port_asymmetry(red) == per_block_asymmetry(red) == whole_operator_asymmetry(red) > 1e-3


class TestReducedPortState:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("family", [Bell(), AdChoi(0.3), Alternate(0.8)])
    def test_bitwise_equal_to_marginal_product(self, n, family):
        # the direct formula marg (x) (marg (x) ... (x) port), with marg the
        # port's B marginal
        port = port_state(family)
        marg = port[0::2, 0::2] + port[1::2, 1::2]
        want = np.array(port, dtype=complex)
        for _ in range(n - 1):
            want = np.kron(marg, want)
        got = reduced_port_state(family, n)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestReducedFromPort:
    """The product built from the right against the left-grown product it replaces."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_left_grown_product(self, n):
        rng = np.random.default_rng(300 + n)
        port = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))  # a general port
        marg = port[0::2, 0::2] + port[1::2, 1::2]
        want = np.kron(left_grown_kron_power(marg, n - 1), port)
        got = reduced_from_port(port, n).joint
        scale = np.abs(want).max()
        got -= want  # in place: at n = 10 each operator takes 64 MB
        assert np.abs(got).max() <= 1e-15 * scale

    def test_one_port_is_a_copy(self, rng):
        port = random_density(4, rng)
        red = reduced_from_port(port, 1)
        np.testing.assert_array_equal(red.joint, port)
        assert not np.shares_memory(red.joint, port)


class TestSpinCoefficients:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_round_trip(self, n, rng):
        red = make_family(AdChoi(0.35), n).reduced  # the dense congruence
        coeffs = to_spin_coefficients(red, build_spin_basis(n))
        u = coeffs.basis.u
        for i, j in np.ndindex(2, 2):
            block = red.joint.reshape(2 ** n, 2, 2 ** n, 2)[:, i, :, j]
            assert max_abs(u @ coeffs.table[..., i, j] @ u.T, block) <= 1e-12

    @staticmethod
    def _assert_schur_weyl(red):
        # on the full basis, each column lies in multiplet alpha of spin
        # jj +- 1 of the unkept ports A_n..A_2: no entry links two different
        # such multiplets, and every alpha repeats the alpha = 1 sub-table
        basis = build_spin_basis(red.n)
        coeffs = to_spin_coefficients(red, basis)
        alpha, parent = basis.alpha, basis.parent
        index = column_index(basis)
        first = np.array([index[label[:3] + (1,)] for label in index])
        same = (alpha[:, None] == alpha[None, :]) & (parent[:, None] == parent[None, :])
        t = coeffs.table  # the four blocks at once, on the trailing axes
        assert np.abs(t[~same]).max() <= 1e-13
        assert np.abs(t - t[np.ix_(first, first)])[same].max() <= 1e-13

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_schur_weyl_on_random_symmetric(self, n, symmetric_reduced):
        self._assert_schur_weyl(symmetric_reduced(n))

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("family", [Bell(), AdChoi(0.3), Alternate(0.8)])
    def test_schur_weyl_on_products(self, n, family):
        self._assert_schur_weyl(make_family(family, n).reduced)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bell_closed_forms(self, n):
        # expansion of the all-Bell r11 block in the coupled basis, read from
        # the product table
        basis = build_spin_basis(n)
        table = to_spin_coefficients(make_family(Bell(), n), basis).table
        scale = 1.0 / 2 ** n
        index = column_index(basis)
        for (jj, mm, parent, alpha), k in index.items():
            if parent == jj + 1:
                want = ((jj - mm) / 2 + 1) / (jj + 2) * scale
                assert abs(table[k, k][0, 0] - want) <= 1e-13
                cross = -math.sqrt(((jj - mm) / 2 + 1) * ((jj + mm) / 2 + 1)) / (jj + 2) * scale
                partner = index[jj + 2, mm, parent, alpha]
                assert abs(table[k, partner][0, 0] - cross) <= 1e-13
                assert abs(table[partner, k][0, 0] - cross) <= 1e-13
            else:
                want = (jj + mm) / 2 / jj * scale if jj else 0.0
                assert abs(table[k, k][0, 0] - want) <= 1e-13

    def test_hermiticity_between_tables(self, rng):
        red = reduce_full(random_symmetric_resource(3, rng))
        t = to_spin_coefficients(red, build_spin_basis(3)).table
        # table[i, j][k, l] = conj(table[j, i][l, k]): r21 = r12^dag, r11 and r22 Hermitian
        np.testing.assert_allclose(t, t.conj().transpose(1, 0, 3, 2), atol=1e-13)

    def test_basis_mismatch_rejected(self):
        with pytest.raises(ValueError):
            to_spin_coefficients(make_family(Bell(), 2), build_spin_basis(3))


class TestSymmetrize:
    def test_idempotent_on_symmetric_input(self):
        full = full_from_port(ad_choi_port(0.3), 3)
        again = symmetrize(full)
        assert max_abs(again.rho_ab, full.rho_ab) <= 1e-14

    def test_two_port_average(self, rng):
        sigma = random_density(4, rng)
        tau = random_density(4, rng)
        both = _port_product(sigma, tau)
        swapped = _port_product(tau, sigma)
        sym = symmetrize(both)
        assert max_abs(sym.rho_ab, (both.rho_ab + swapped.rho_ab) / 2) <= 1e-14

    def test_refuses_large_port_counts(self):
        # a read-only view of one scalar with the n=8 shape: the guard must
        # fire before the 2^16 x 2^16 state is ever read
        rho = np.broadcast_to(np.zeros((), dtype=complex), (2 ** 16, 2 ** 16))
        with pytest.raises(ValueError, match="refusing to symmetrise"):
            symmetrize(FullResource(n=8, rho_ab=rho))

    def test_mean_channel_equals_symmetrized_channel(self, rng):
        # outcome-averaged channel of an asymmetric resource == channel of its
        # symmetrisation (both sides evaluated by the dense oracle)
        sigma = random_density(4, rng)
        tau = random_density(4, rng)
        both = _port_product(sigma, tau)
        swapped = _port_product(tau, sigma)
        mean = (oracle_choi(reduce_full(both)) + oracle_choi(reduce_full(swapped))) / 2
        sym = oracle_choi(reduce_full(symmetrize(both)))
        np.testing.assert_allclose(sym, mean, atol=1e-12)


def _port_product(*ports: np.ndarray) -> FullResource:
    """ports[0] on (A_n, B_n), ..., ports[-1] on (A_1, B_1), slots (A_n..A_1, B_n..B_1)."""
    n = len(ports)
    rho = ports[0]
    for port in ports[1:]:
        rho = np.kron(rho, port)  # slots (A_n B_n .. A_1 B_1)
    src = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    return FullResource(n=n, rho_ab=permute_qubits(rho, src))


class TestFullPortAsymmetry:
    """FULL exchanges read slice by slice, against a whole copy per exchange."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_whole_operator_exchanges(self, n):
        rng = np.random.default_rng(60 + n)
        rho = random_density(4 ** n, rng)
        sym = symmetrize(FullResource(n, rho))
        # the state of one port pair differs: only the exchanges that move
        # that pair show a defect
        sigma, tau = random_density(4, rng), random_density(4, rng)
        ports = [sigma] * n
        ports[rng.integers(n)] = tau
        for full in (FullResource(n, rho), sym, _port_product(*ports)):
            assert _port_asymmetry(full) == whole_operator_asymmetry(full)
        if n >= 2:
            assert _port_asymmetry(_port_product(*ports)) > 1e-3

    def test_checks_hold_a_quarter_of_a_full_four_port_operator(self):
        # neither the Hermiticity nor the port-symmetry check copies the
        # 1 MB operator of a FULL n = 4 resource
        full = FullResource(4, random_density(4 ** 4, np.random.default_rng(64)))
        for check in (lambda: herm_defect(full.rho_ab), lambda: _port_asymmetry(full)):
            check()  # numpy's first-call set-up outside the trace
            tracemalloc.start()
            try:
                check()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < full.rho_ab.nbytes / 4


def bell_coherences_scaled(n: int, scale: float) -> ReducedResource:
    """Bell-port blocks with r12 and r21 multiplied by scale: r11 and r22 keep
    their spectra, and the joint (A, B_1) operator has the eigenvalue
    (1 - scale) / 2^(n-1) on the singlet of (A_1, B_1)."""
    bell = make_family(Bell(), n).reduced
    return ReducedResource(n, bell.r11, scale * bell.r12, scale * bell.r21, bell.r22)


_WRITER_CHECK = Path(__file__).resolve().parents[1] / "tools" / "check_pbtres_writer.py"


def _load_writer_check():
    spec = importlib.util.spec_from_file_location("_check_pbtres_writer", _WRITER_CHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read(body: bytes, size: int = float_text._BLOCK) -> np.ndarray:
    """The numbers of a PBTRES body as load_resource reads them, in blocks
    of about size bytes."""
    return float_text.parse_numbers(float_text.text_blocks(io.BytesIO(body), size))


def _saved(tmp_path, obj):
    path = tmp_path / "res.pbtres"
    save_resource(path, obj)
    return path


class TestResourceFiles:
    def test_reduced_round_trip(self, tmp_path, rng):
        red = reduce_full(random_symmetric_resource(2, rng))
        path = tmp_path / "res.pbtres"
        save_resource(path, red)
        back = load_resource(path)
        assert max_abs(back.joint, red.joint) <= 1e-14

    def test_full_round_trip_reduces(self, tmp_path):
        full = full_from_port(ad_choi_port(0.25), 2)
        path = tmp_path / "full.pbtres"
        save_resource(path, full)
        back = load_resource(path)
        direct = reduce_full(full)
        assert max_abs(back.joint, direct.joint) <= 1e-14

    def test_from_file_family(self, tmp_path):
        red = make_family(AdChoi(0.4), 3)
        path = tmp_path / "ad.pbtres"
        save_resource(path, red)
        again = make_family(FromFile(str(path)), 3)
        assert max_abs(again.joint, red.joint) <= 1e-14
        with pytest.raises(ValueError):
            make_family(FromFile(str(path)), 4)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pbtres"
        path.write_text("NOPE 1\nN=2\nFORM=REDUCED\n0 0\n")
        with pytest.raises(ValueError):
            load_resource(path)

    def test_rejects_malformed_token(self, tmp_path):
        path = tmp_path / "token.pbtres"
        path.write_text("PBTRES 1\nN=1\nFORM=REDUCED\n1 0 x 0\n")
        with pytest.raises(ValueError, match="whitespace-separated numbers"):
            load_resource(path)

    @pytest.mark.parametrize("body", ["0.5 0 0 0 0 0 0 0\n0 0 0 0 0 0 0.5 0 junk",
                                      "0.5 0 0 0 0 0 0 0 0 0 0 0 0 0 0.5 0x"])
    def test_rejects_trailing_garbage(self, tmp_path, body):
        path = tmp_path / "token.pbtres"
        path.write_text(f"PBTRES 1\nN=1\nFORM=REDUCED\n{body}\n")
        with pytest.raises(ValueError, match="whitespace-separated numbers"):
            load_resource(path)

    def test_rejects_malformed_token_where_numpy_only_warns(self, tmp_path, monkeypatch):
        # numpy 1.x warns at an unreadable token and returns the numbers before it
        def fromstring_1x(text, sep):
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
            return np.array([0.5, 0, 0, 0, 0, 0, 0.5, 0])

        monkeypatch.setattr(resources.np, "fromstring", fromstring_1x)
        path = tmp_path / "token.pbtres"
        path.write_text("PBTRES 1\nN=1\nFORM=REDUCED\n0.5 0 0 0 0 0 0.5 0 junk\n")
        with pytest.raises(ValueError, match="whitespace-separated numbers"):
            load_resource(path)

    def test_header_may_follow_blank_lines(self, tmp_path):
        path = tmp_path / "blank.pbtres"
        path.write_text("\n\nPBTRES 1\n  \nN=1\nFORM=REDUCED\n\n0.25 0 0 0 0 0 0.25 0\n"
                        "0 0 0 0 0 0 0 0\n 0 0 0 0 0 0 0 0\n0.25 0 0 0 0 0 0.25 0\n")
        red = load_resource(path)
        assert np.array_equal(red.joint, np.diag([0.25, 0.25, 0.25, 0.25]))

    @pytest.mark.parametrize("newline", [b"\r", b"\r\n"])
    @pytest.mark.parametrize("form", ["FULL", "REDUCED"])
    def test_cr_and_crlf_files_load_as_lf(self, tmp_path, form, newline):
        obj = (full_from_port(ad_choi_port(0.3), 2) if form == "FULL"
               else make_family(Alternate(0.6), 3))
        path = _saved(tmp_path, obj)
        want = load_resource(path).joint
        # tabs between the numbers, and a blank line before the third header
        # line and every tenth row after it
        lines = path.read_bytes().split(b"\n")
        lines[3:] = [line.replace(b" ", b"\t") for line in lines[3:]]
        path.write_bytes(newline.join(newline + line if k % 10 == 2 else line
                                      for k, line in enumerate(lines)))
        assert np.array_equal(load_resource(path).joint, want)

    def test_header_after_many_blank_lines(self, tmp_path):
        # more blank lines than the first read of the header holds
        path = _saved(tmp_path, make_family(AdChoi(0.3), 2))
        want = load_resource(path).joint
        path.write_bytes(b"\r\n" * 5000 + path.read_bytes().replace(b"\n", b"\r"))
        assert np.array_equal(load_resource(path).joint, want)

    @pytest.mark.parametrize("text", ["", "PBTRES 1\nN=1\n", "PBTRES 1\nN=1\nFORM=REDUCED\n",
                                      "PBTRES 1\nN=1\nFORM=REDUCED\n \n\n"])
    def test_rejects_file_without_body(self, tmp_path, text):
        path = tmp_path / "short.pbtres"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a PBTRES resource file"):
            load_resource(path)

    @pytest.mark.parametrize("form", ["FULL", "REDUCED"])
    def test_round_trip_keeps_signed_zeros(self, tmp_path, form):
        full = full_from_port(ad_choi_port(0.3), 2)
        op = (full.rho_ab if form == "FULL" else reduce_full(full).joint).copy()
        op.flat[np.flatnonzero(op == 0)[::3]] = complex(-0.0, -0.0)
        assert np.signbit(op.real).any() and np.signbit(op.imag).any()
        obj = FullResource(2, op) if form == "FULL" else ReducedResource.from_joint(2, op)
        want = reduce_full(obj).joint if form == "FULL" else op
        back = load_resource(_saved(tmp_path, obj))
        assert back.joint.tobytes() == want.tobytes()

    @pytest.mark.parametrize("form", ["FULL", "REDUCED"])
    def test_saved_bytes_match_per_entry_formatting(self, tmp_path, form):
        # the file is what formatting each entry with an f-string writes,
        # including signed zeros, extreme exponents and 17-digit values
        rng = np.random.default_rng(8)
        d = 16 if form == "FULL" else 8
        op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        op.flat[:5] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(1e-300, -1e300),
                       complex(-1e300, 5e-324), complex(0.1, 1 / 3)]
        op.flat[-1] = complex(0.12345678901234567, -9.8765432109876543e-200)
        if form == "FULL":
            obj, mats = FullResource(2, op), [op]
        else:
            obj = ReducedResource.from_joint(2, op)
            mats = [obj.r11, obj.r12, obj.r21, obj.r22]
        want = f"PBTRES 1\nN=2\nFORM={form}\n" + "".join(
            " ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) + "\n"
            for m in mats for row in m)
        assert {"-0", "1e-300", "-1.0000000000000001e+300", "4.9406564584124654e-324",
                "0.33333333333333331"} <= set(want.split())
        assert _saved(tmp_path, obj).read_bytes() == want.encode()

    @pytest.mark.parametrize("shape", [(3, 5), (1000, 1), (1, 5000), (40, 700), (300, 64)])
    @pytest.mark.parametrize("fill", ["+0", "-0", "last of a row", "first of a row", "sparse", "mostly +0",
                                      "dense"])
    def test_format_rows_of_edge_shapes(self, shape, fill):
        # +0 throughout (only the last entry of a line gets a row), signed
        # zeros, lines that end in an entry other than +0 or start with one,
        # rows mostly +0 in windows over the sparse threshold (written in
        # dense chunks), and a strided view
        rng = np.random.default_rng(sum(shape))
        m = np.zeros((shape[0], 2 * shape[1]), dtype=complex)[:, ::2]
        if fill == "-0":
            m[:] = complex(-0.0, 0.0)
        elif fill in ("last of a row", "first of a row"):
            m[:, -1 if fill == "last of a row" else 0] = rng.normal(size=shape[0]) * 1e-3j
        elif fill != "+0":
            kept = rng.random(shape) < {"sparse": 0.01, "mostly +0": 0.1, "dense": 0.9}[fill]
            m[kept] = (rng.normal(size=shape) + 1j * rng.normal(size=shape))[kept]
        want = "".join(" ".join(f"{x:.17g}" for x in row.view(float).tolist()) + "\n"
                       for row in np.ascontiguousarray(m))
        assert b"".join(float_text.format_rows(m)) == want.encode()

    def test_corpus_written_as_per_entry_formatting(self, tmp_path, monkeypatch):
        # 262144 numbers of every binade, sign, tie and power-of-ten
        # neighbour, dense (FULL) and in rows of every +0 share (REDUCED),
        # each line against per-entry f"{x:.17g}"; the numbers handed to
        # Python's "%.17g" are recorded
        check = _load_writer_check()
        full, reduced = check.corpus_resources(4, 7, np.random.default_rng(8))
        handed, original = [], float_text.percent_format

        def percent_format(x):
            handed.append(x.copy())
            return original(x)

        monkeypatch.setattr(float_text, "percent_format", percent_format)
        # and read back, against np.fromstring bit for bit; the texts the
        # reader hands to numpy are recorded
        read, fromstring = [], float_text._fromstring

        def numpy_reads(text):
            read.append(text)
            return fromstring(text)

        monkeypatch.setattr(float_text, "_fromstring", numpy_reads)
        # and the pieces each branch of format_rows writes, as (branch, rows,
        # the least and the largest share of entries other than +0 in a row)
        pieces = []
        for name in ("_sparse_text", "_dense_text"):
            def branch(m, *args, name=name, original=getattr(float_text, name)):
                share = (m.real.view(np.uint64).astype(bool) | m.imag.view(np.uint64).astype(bool)).mean(axis=1)
                pieces.append((name, len(m), share.min(), share.max()))
                return original(m, *args)

            monkeypatch.setattr(float_text, name, branch)
        for obj in (full, reduced):
            path = _saved(tmp_path, obj)
            assert check.differing_lines(path, obj) == []
            assert check.differing_numbers(path) == 0
        # windows mostly +0 take the sparse branch whole (64 rows of 128
        # entries), other windows the dense branch a chunk at a time (8 rows
        # of 128 entries, 4 of 256); the pieces of both hold all-+0 rows and
        # dense rows
        assert {(name, rows) for name, rows, _, _ in pieces} == {
            ("_sparse_text", 64), ("_dense_text", 8), ("_dense_text", 4)}
        for name in ("_sparse_text", "_dense_text"):
            assert any(least == 0 and most > 0.5 for branch, _, least, most in pieces if branch == name)
        tokens = b" ".join(read).split()
        assert b"0" not in tokens and b"-0" not in tokens  # a zero is set directly
        # numbers of the integer route's range, as the writer's route writes
        # them, reach numpy only where a float candidate and both its
        # neighbours miss their digits
        a = np.abs(np.fromstring(b" ".join(tokens), sep=" "))
        written = np.abs(np.concatenate([full.rho_ab.view(float).ravel(), reduced.joint.view(float).ravel()]))
        shaped = np.count_nonzero((written >= 1e-11) & (written < 1))
        assert shaped > 0.3 * written.size
        assert np.count_nonzero((a >= 1e-11) & (a < 1)) < 0.01 * shaped
        x = np.concatenate(handed)
        a = np.abs(x)
        assert (x != 0).all()  # a zero never takes Python's route
        tiny = np.finfo(float).smallest_normal
        assert np.isnan(x).any() and np.isinf(x).any()
        assert ((a > 0) & (a < tiny)).any()
        assert ((a >= tiny) & (a < 1e-11)).any()
        assert ((a >= 1) & np.isfinite(a)).any()
        # in the integer route's range only numbers within a part in 1e-15
        # of a power of ten fall back, where log10 can miss the exponent by one
        fast = a[(a >= 1e-11) & (a < 1)]
        assert (np.abs(fast / 10.0 ** np.round(np.log10(fast)) - 1) < 1e-15).all()
        exponent = np.array([int(f"{v:.16e}".split("e")[1]) for v in fast])
        assert (np.floor(np.log10(fast)) == exponent + 1).any()

    @pytest.mark.parametrize("toward", [-np.inf, np.inf])
    def test_log10_an_ulp_off_changes_no_byte(self, tmp_path, monkeypatch, toward):
        # the exponent log10 gives is checked against the digits, so a log10
        # one ulp off either way, as another libm may be, only hands more
        # numbers to Python's "%.17g"
        check = _load_writer_check()
        full, reduced = check.corpus_resources(3, 5, np.random.default_rng(9))
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
        for obj in (full, reduced):
            assert check.differing_lines(_saved(tmp_path, obj), obj) == []

    def test_save_and_load_memory(self, tmp_path):
        # the text of a FULL n = 4 file (3 MB) is never held whole while
        # saving or loading; nor is that of a REDUCED family mixture at n = 8
        # (1 MB, over 99% of its numbers +0), whose load holds the 4 MB
        # operator it returns and three more arrays of its size at most: the
        # numbers read, and the positivity check's copy and factor
        # a tiny save and load first, so that what the first file operation
        # of a process sets up (the module import, the digit table) is not
        # counted, whichever tests ran before
        load_resource(_saved(tmp_path, make_family(Bell(), 1)))
        rng = np.random.default_rng(44)
        full = full_from_port(random_density(4, rng), 4)
        path = tmp_path / "full4.pbtres"
        tracemalloc.start()
        try:
            save_resource(path, full)
            saved_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            load_resource(path)
            loaded_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 3e6
        assert saved_peak < 0.1 * size
        assert loaded_peak < 2.5 * size
        families = (Bell(), AdChoi(0.3), Alternate(0.7))
        mixture = ReducedResource.from_joint(
            8, sum(w * make_family(f, 8).joint for w, f in zip((0.5, 0.3, 0.2), families)))
        assert np.count_nonzero(mixture.joint.view(float)) < 0.01 * 2 * mixture.joint.size
        path = tmp_path / "mixture8.pbtres"
        tracemalloc.start()
        try:
            save_resource(path, mixture)
            saved_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            load_resource(path)
            loaded_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 1e6
        assert saved_peak < 0.1 * size
        assert loaded_peak < 4 * mixture.joint.nbytes

    @pytest.mark.parametrize("token", [
        "0.1", "1", "-1", "+0.5", ".5", "5.", "1E-05", "1e-3", "1e+00", "0.0", "00", "-0.0",
        "1.234567890123456789012345", "0.0001234567890123456789", "4.9e-324", "1e-400",
        "1.7976931348623157e308", "infinity", "nan"])
    def test_reads_other_shapes_as_numpy_does(self, token):
        # alone, between writer-shaped numbers and zeros, and as a whole body
        # of them, so that a block of mostly other shapes is read too
        for body in (token, f"0.5 {token} -0 1.2345678901234567e-05\n0 {token}", f"{token} " * 50):
            assert _read(body.encode()).tobytes() == np.fromstring(body, sep=" ").tobytes()

    @pytest.mark.parametrize("token", ["infinity", "nan"])
    def test_rejects_other_non_finite_shapes(self, tmp_path, token):
        path = tmp_path / "token.pbtres"
        path.write_text(f"PBTRES 1\nN=1\nFORM=REDUCED\n0.5 0 0 0 0 0 0.5 {token}\n" + "0 " * 16)
        with pytest.raises(ValueError, match="must be finite"):
            load_resource(path)

    @pytest.mark.parametrize("sep", ["\t", "\v", "\f", "\r\n", "   ", " \n\t\r\v\f "])
    def test_reads_every_separator(self, sep):
        # leading and trailing separators too; the writer's shapes, zeros
        # and one number of another shape
        numbers = ["0.5", "-0", "0", "1.2345678901234567e-05", "-0.00012345678901234567", "1.5"]
        body = (sep + sep.join(numbers * 3) + sep).encode()
        assert _read(body).tobytes() == np.fromstring(body, sep=" ").tobytes()

    @pytest.mark.parametrize("size", [1, 2, 7, 64, float_text._BLOCK])
    @pytest.mark.parametrize("place", ["alone", "inside a token", "between tokens", "at a block edge"])
    def test_reads_other_bytes_as_numpy_does(self, size, place):
        # a token is a run of bytes between the six separators, whatever its
        # bytes: NUL and the other control bytes and bytes >= 0x7f are read,
        # or rejected, as np.fromstring reads them, also where a block ends
        odd = [bytes([c]) for c in range(256) if bytes([c]) not in b"0123456789+-.e" + float_text._SEPARATORS]
        assert len(odd) == 256 - 20 and b"\0" in odd and b"\x7f" in odd and b"\xff" in odd
        for c in odd:
            if place == "alone":
                bodies = [c]
            elif place == "inside a token":
                bodies = [b"-0.1234" + c + b"5678901234567 0", b"0 1.2345678901234567e-0" + c + b"5"]
            elif place == "between tokens":
                bodies = [b"0.25" + c + b"-0.5", b"0.25 " + c + b"\t-0.5"]
            else:  # the first byte of the second read, after a token or a separator, and the last byte
                bodies = [b" " * (size - 1) + b"0" + c + b" 0.5", b"0" + b" " * (size - 1) + c + b" 0.5",
                          b"0.5 " + c]
            for body in bodies:
                try:
                    want = np.fromstring(body, sep=" ")
                except ValueError:
                    with pytest.raises(ValueError):
                        _read(body, size)
                    continue
                assert _read(body, size).tobytes() == want.tobytes(), (body, size)

    @pytest.mark.parametrize("size", [1, 2, 7, 23, 64])
    def test_reads_tokens_across_block_boundaries(self, size):
        # blocks of a few bytes cut most tokens; a token runs on into the
        # next block until a separator comes
        body = b"0.12345678901234567 -3.4567890123456789e-07 0 -0\n0.0001234567890123456 1e-05 0.5"
        blocks = list(float_text.text_blocks(io.BytesIO(body), size))
        assert b"".join(blocks) == body and all(block[-1:].isspace() for block in blocks[:-1])
        assert _read(body, size).tobytes() == np.fromstring(body, sep=" ").tobytes()

    def test_reads_writer_shapes_and_mutations_as_numpy_does(self):
        # seeded numbers in every style numpy reads, and the writer's tokens
        # with a digit, the point, the sign or the exponent changed: the
        # numbers read, or the error, are numpy's
        rng = np.random.default_rng(33)
        x = 10.0 ** rng.uniform(-13, 1, 3000) * rng.choice([-1.0, 1.0], 3000)
        tokens = [f"{v:.17g}" for v in x] + [f"{v:.16e}" for v in x[:300]] + [f"{v:.25f}" for v in x[:300]]
        tokens += [f"{v:.{rng.integers(1, 19)}g}" for v in x[:300]]
        chars = list("0123456789.-e+ ")
        mutated = []
        for t in tokens[:3000:3]:
            i = int(rng.integers(len(t)))
            mutated.append(t[:i] + str(rng.choice(chars)) + t[i + 1:])
            mutated.append(t[:i] + t[i + 1:])
        bad = 0
        for batch in np.array_split(np.array(tokens + mutated, dtype=object), 200):
            body = " ".join(batch).encode()
            try:
                want = np.fromstring(body, sep=" ")
            except ValueError:
                bad += 1
                with pytest.raises(ValueError):
                    _read(body)
                continue
            assert _read(body).tobytes() == want.tobytes()
        assert 0 < bad < 200

    @pytest.mark.parametrize("bad", ["1.5.3", "--1", "1e", "e5", "0x10", "1_0", "1\x002", "0.5-0.5"])
    def test_rejects_malformed_tokens(self, tmp_path, bad):
        path = tmp_path / "token.pbtres"
        path.write_bytes(b"PBTRES 1\nN=1\nFORM=REDUCED\n0.5 0 0 0 0 0 0.5 0 " + bad.encode() + b"\n")
        with pytest.raises(ValueError):
            np.fromstring(path.read_bytes().split(b"\n", 3)[3], sep=" ")
        with pytest.raises(ValueError, match="whitespace-separated numbers"):
            load_resource(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("form", ["FULL", "REDUCED"])
    def test_rejects_non_finite(self, tmp_path, form, bad):
        obj = full_from_port(ad_choi_port(0.3), 2) if form == "FULL" else make_family(AdChoi(0.3), 2)
        path = _saved(tmp_path, obj)
        lines = path.read_text().splitlines()
        row = lines[4].split()
        row[2] = bad
        lines[4] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="must be finite"):
            load_resource(path)

    @pytest.mark.parametrize("n", [0, -1, 13])
    @pytest.mark.parametrize("form", ["FULL", "REDUCED"])
    def test_rejects_port_count_before_body(self, tmp_path, form, n):
        path = tmp_path / "ports.pbtres"
        # at N=0 a FULL body of one entry once reached the reduction and failed there
        path.write_text(f"PBTRES 1\nN={n}\nFORM={form}\n1 0\n")
        with pytest.raises(ValueError, match="port count must be in 1..12"):
            load_resource(path)

    def test_rejects_wrong_count(self, tmp_path):
        path = tmp_path / "short.pbtres"
        path.write_text("PBTRES 1\nN=1\nFORM=REDUCED\n1 0 0 0\n")
        with pytest.raises(ValueError):
            load_resource(path)

    def test_rejects_non_hermitian(self, tmp_path):
        red = make_family(Bell(), 2).reduced
        broken = ReducedResource(n=2, r11=red.r11 + 1e-6 * np.triu(np.ones((4, 4)), 1),
                                 r12=red.r12, r21=red.r21, r22=red.r22)
        path = tmp_path / "nonherm.pbtres"
        save_resource(path, broken)
        with pytest.raises(ValueError, match=r"resource reduced to \(A, B_1\) is not Hermitian"):
            load_resource(path)

    def test_rejects_coherence_blocks_not_adjoint(self, tmp_path):
        red = make_family(Bell(), 2).reduced
        broken = ReducedResource(2, red.r11, red.r12 + 1e-6, red.r21, red.r22)
        with pytest.raises(ValueError, match=r"resource reduced to \(A, B_1\) is not Hermitian"):
            load_resource(_saved(tmp_path, broken))

    def test_rejects_trace_deficit(self, tmp_path):
        red = make_family(Bell(), 2).reduced
        broken = ReducedResource(2, 0.99 * red.r11, red.r12, red.r21, red.r22)
        with pytest.raises(ValueError, match=r"resource reduced to \(A, B_1\) trace differs from 1"):
            load_resource(_saved(tmp_path, broken))

    def test_rejects_non_psd(self, tmp_path):
        red = make_family(Bell(), 2).reduced
        bad = red.r11.copy()
        bad[0, 0] -= 1e-4
        bad[3, 3] += 1e-4
        broken = ReducedResource(n=2, r11=bad, r12=red.r12, r21=red.r21, r22=red.r22)
        path = tmp_path / "nonpsd.pbtres"
        save_resource(path, broken)
        with pytest.raises(ValueError,
                           match=r"resource reduced to \(A, B_1\) is not positive semidefinite"):
            load_resource(path)

    @pytest.mark.parametrize("scale", [3.0, 1 + 1e-6])
    def test_rejects_joint_operator_not_psd(self, tmp_path, scale):
        # r11 and r22 stay positive; the joint operator has eigenvalue (1 - scale) / 8
        red = bell_coherences_scaled(3, scale)
        assert min(np.linalg.eigvalsh(red.r11).min(), np.linalg.eigvalsh(red.r22).min()) >= -1e-15
        with pytest.raises(ValueError,
                           match=r"resource reduced to \(A, B_1\) is not positive semidefinite"):
            load_resource(_saved(tmp_path, red))

    def test_accepts_joint_defect_within_tolerance(self, tmp_path):
        red = bell_coherences_scaled(3, 1 + 4e-8)  # joint eigenvalue -5e-9
        back = load_resource(_saved(tmp_path, red))
        assert max_abs(back.r12, red.r12) <= 1e-15

    def _full_file(self, tmp_path, rho):
        path = tmp_path / "full.pbtres"
        save_resource(path, FullResource(n=2, rho_ab=rho))
        return path

    def test_full_rejects_non_hermitian(self, tmp_path):
        rho = full_from_port(bell_port(), 2).rho_ab.copy()
        rho[0, 1] += 1e-6
        with pytest.raises(ValueError, match="resource state is not Hermitian"):
            load_resource(self._full_file(tmp_path, rho))

    def test_full_rejects_trace_deficit(self, tmp_path):
        rho = 0.99 * full_from_port(bell_port(), 2).rho_ab
        with pytest.raises(ValueError, match="resource state trace differs from 1"):
            load_resource(self._full_file(tmp_path, rho))

    def test_full_rejects_non_psd(self, tmp_path):
        rho = full_from_port(bell_port(), 2).rho_ab.copy()
        # the Bell product has zero weight on |0000>: moving weight there from
        # a populated diagonal entry keeps the trace and breaks positivity
        assert rho[0, 0] == 0
        k = int(np.argmax(rho.diagonal().real))
        rho[0, 0] -= 1e-4
        rho[k, k] += 1e-4
        with pytest.raises(ValueError, match="resource state is not positive semidefinite"):
            load_resource(self._full_file(tmp_path, rho))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_state_in_memory(self, n, entry):
        # a nan passes every tolerance comparison, so only a finiteness test
        # rejects it, also at n = 1 where the state is one port
        rho = full_from_port(bell_port(), n).rho_ab.copy()
        rho[1, 2] = entry
        with pytest.raises(ValueError, match="resource state has a nan or inf entry"):
            reduce_full(FullResource(n, rho))
        red = reduced_from_port(bell_port(), n)
        red.joint[1, 2] = entry
        with pytest.raises(ValueError,
                           match=r"resource reduced to \(A, B_1\) has a nan or inf entry"):
            red.validate()

    def test_rejects_port_asymmetric_full(self, tmp_path):
        rho = random_density(2 ** 6, np.random.default_rng(20191223))
        with pytest.raises(ValueError, match="not port symmetric"):
            load_resource(_saved(tmp_path, FullResource(n=3, rho_ab=rho)))

    def test_rejects_reduced_asymmetric_within_unkept_ports(self, tmp_path):
        # ports A_2 and A_1 carry the same state, so r11 + r22 is symmetric
        # under A_2 <-> A_1; only the A_3 <-> A_2 exchange shows the defect
        gen = np.random.default_rng(3)
        sigma, tau = random_density(4, gen), random_density(4, gen)
        red = reduce_full(_port_product(sigma, tau, tau))
        with pytest.raises(ValueError, match="not port symmetric"):
            load_resource(_saved(tmp_path, red))

    def test_rejects_reduced_asymmetric_marginal(self, tmp_path):
        # at n = 2 there is no exchange within A_n..A_2; only r11 + r22 shows it
        gen = np.random.default_rng(4)
        red = reduce_full(_port_product(random_density(4, gen), random_density(4, gen)))
        with pytest.raises(ValueError, match="not port symmetric"):
            load_resource(_saved(tmp_path, red))

    def test_accepts_port_symmetric_products(self, tmp_path):
        gen = np.random.default_rng(5)
        port = random_density(4, gen)
        for obj in (_port_product(port, port, port), reduce_full(_port_product(port, port, port)),
                    make_family(Alternate(0.8), 4)):
            load_resource(_saved(tmp_path, obj))
