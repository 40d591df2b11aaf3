import math
import tracemalloc

import numpy as np
import pytest

from pbtsim import cli
from pbtsim.analysis import depolarizing_choi, xi
from pbtsim.choi import choi_from_reduced
from pbtsim.kraus import (KrausSet, ProtocolKraus, apply_kraus, apply_protocol,
                          choi_from_kraus, choi_to_kraus, protocol_gram, protocol_kraus)
from pbtsim.linalg import max_abs, transfer_choi
from pbtsim.oracle import build_povm, oracle_choi, povm_element
from pbtsim.resources import (AdChoi, Alternate, Bell, ProductResource, apply_transfer,
                              make_family, port_state, reduce_full, reduced_from_port,
                              reduced_port_state)
from pbtsim.spin import build_spin_basis, degeneracy

from conftest import random_choi, random_symmetric_resource

PAULIS = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


class TestChoiToKraus:
    def test_identity_channel_single_operator(self):
        v = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        ks = choi_to_kraus(np.outer(v, v.conj()))
        assert len(ks.ops) == 1
        phase = ks.ops[0][0, 0]
        np.testing.assert_allclose(ks.ops[0], phase * np.eye(2), atol=1e-14)
        assert abs(abs(phase) - 1) < 1e-14

    def test_depolarizing_weights(self):
        # weights are fixed; the triply degenerate block is only determined up
        # to unitary mixing inside the Pauli (traceless) span
        x = 0.37
        ks = choi_to_kraus(depolarizing_choi(x))
        weights = sorted(np.linalg.norm(k) / math.sqrt(2) for k in ks.ops)
        expected = sorted([math.sqrt(1 - 3 * x / 4)] + [math.sqrt(x / 4)] * 3)
        np.testing.assert_allclose(weights, expected, atol=1e-12)
        top = max(ks.ops, key=np.linalg.norm)
        np.testing.assert_allclose(top, top[0, 0] * np.eye(2), atol=1e-12)
        for k in ks.ops:
            if k is not top:
                assert abs(np.trace(k)) <= 1e-12

    @pytest.mark.parametrize("trial", range(10))
    def test_completeness(self, trial, rng):
        ks = choi_to_kraus(random_choi(rng))
        acc = sum(k.conj().T @ k for k in ks.ops)
        np.testing.assert_allclose(acc, np.eye(2), atol=1e-10)

    def test_round_trip(self, rng):
        worst = 0.0
        for _ in range(100):
            c = random_choi(rng)
            worst = max(worst, max_abs(choi_from_kraus(choi_to_kraus(c)), c))
        assert worst <= 1e-12

    def test_rank_at_most_four(self, rng):
        for _ in range(10):
            assert len(choi_to_kraus(random_choi(rng)).ops) <= 4

    def test_rejects_non_psd(self):
        bad = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            choi_to_kraus(bad)


class TestCanonicalKraus:
    def test_rotation_inside_degenerate_eigenspace(self, rng):
        # the same channel written in eigenbases rotated inside its triply
        # degenerate eigenspace
        c = depolarizing_choi(0.37)
        w, v = np.linalg.eigh(c)
        assert np.ptp(w[:3]) < 1e-15 < w[3] - w[2]
        want = choi_to_kraus(c).ops
        for _ in range(5):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            turned = v.copy()
            turned[:, :3] = v[:, :3] @ q
            got = choi_to_kraus((turned * w) @ turned.conj().T).ops
            assert len(got) == len(want) == 4
            assert max(max_abs(a, b) for a, b in zip(got, want)) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 10))
    def test_same_operators_from_product_and_dense_routes(self, n):
        # the two routes give Choi matrices equal to within rounding but not
        # bit for bit; the printed operators are compared in test_cli
        for spec in ("bell", "ad:0.3", "ad:0.77", "alternate:0.13", "alternate:0.7"):
            family = cli.parse_resource(spec)
            sets = []
            for resource in (make_family(family, n), reduced_from_port(port_state(family), n)):
                c = choi_from_reduced(resource)
                ops = choi_to_kraus(c).ops
                assert max_abs(choi_from_kraus(KrausSet(ops)), c) <= 1e-12
                sets.append(ops)
            assert len(sets[0]) == len(sets[1])
            assert max(max_abs(a, b) for a, b in zip(*sets)) <= 1e-13, spec


class TestApplyKraus:
    def test_identity(self):
        v = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        ks = choi_to_kraus(np.outer(v, v.conj()))
        state = np.array([[0.7, 0.2j], [-0.2j, 0.3]], dtype=complex)
        np.testing.assert_allclose(apply_kraus(ks, state), state, atol=1e-14)

    def test_dimension_mismatch_rejected(self, rng):
        ks = choi_to_kraus(random_choi(rng))
        with pytest.raises(ValueError):
            apply_kraus(ks, np.eye(4))


class TestProtocolKraus:
    def test_operator_counts_two_ports(self):
        pk = protocol_kraus(2)
        assert len(pk.k1) == 2 and len(pk.k2) == 4
        assert all(k.shape == (4, 8) for k in pk.ops)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_operator_counts(self, n):
        pk = protocol_kraus(n)
        assert len(pk.k2) == n + 2
        expected_k1 = sum(
            degeneracy(n - 1, ss) * (ss + 1) for ss in range(1 if n % 2 == 0 else 0, n, 2)
        )
        assert len(pk.k1) == expected_k1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("family", [Bell(), AdChoi(0.3), Alternate(0.7)])
    def test_matches_component_assembly(self, n, family):
        pk = protocol_kraus(n)
        got = apply_protocol(pk, reduced_port_state(family, n))
        want = choi_from_reduced(make_family(family, n))
        assert max_abs(got, want) <= 1e-10
        assert abs(np.trace(got) - 1) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_on_random_symmetric(self, n, rng):
        full = random_symmetric_resource(n, rng)
        got = apply_protocol(protocol_kraus(n), reduce_full(full).joint)
        want = choi_from_reduced(reduce_full(full))
        assert max_abs(got, want) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_oracle_on_random_symmetric(self, n, symmetric_reduced):
        # the Choi assembly shares the measurement rows; the dense oracle does not
        red = symmetric_reduced(n)
        assert max_abs(apply_protocol(protocol_kraus(n), red.joint), oracle_choi(red)) <= 1e-10

    def test_bell_resource_gives_depolarizing(self):
        n = 4
        got = apply_protocol(protocol_kraus(n), reduced_port_state(Bell(), n))
        assert max_abs(got, depolarizing_choi(xi(n))) <= 1e-10

    def test_gram_is_available_and_hermitian(self):
        g = protocol_gram(protocol_kraus(2))
        np.testing.assert_allclose(g, g.conj().T, atol=1e-13)

    def test_input_dimension_check(self):
        with pytest.raises(ValueError):
            apply_protocol(protocol_kraus(2), np.eye(4))

    @pytest.mark.parametrize("n", [2, 3])
    def test_sectors_are_views_in_order(self, n):
        pk = protocol_kraus(n)
        assert pk.ops.shape == (len(pk.k2) + len(pk.k1), 4, 2 ** (n + 1))
        assert np.shares_memory(pk.k2, pk.ops) and np.shares_memory(pk.k1, pk.ops)
        assert np.array_equal(np.concatenate([pk.k2, pk.k1]), pk.ops)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_operators_are_the_bras_times_identity(self, n):
        # the bras and their Kronecker product with 1 on B_1, written out
        basis = build_spin_basis(n)
        rows = basis.rows
        bras = np.sqrt(rows.weights)[:, None, None] * (rows.coefs @ basis.u.T[rows.cols])
        ops = (bras[:, :, None, :, None] * np.eye(2)[:, None, :]).reshape(len(bras), 4, 2 ** (n + 1))
        pk = protocol_kraus(n)
        assert pk.bras.tobytes() == bras.tobytes()
        assert pk.ops.tobytes() == ops.tobytes()
        assert pk.ops is pk.ops

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_verify_builds_no_operators(self, n):
        pk = protocol_kraus(n)
        assert "ops" not in vars(pk)
        for family in (Bell(), AdChoi(0.3), Alternate(0.9)):
            apply_protocol(pk, reduced_port_state(family, n))
        assert "ops" not in vars(pk)

    def test_verify_command_builds_no_operators(self, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError("operators built")
        monkeypatch.setattr(ProtocolKraus, "ops", property(refuse))
        assert cli.main(["verify", "--max-ports", "4"]) == 0
        assert capsys.readouterr().out.endswith("ok\n")


def _random_operator(n: int, seed: int) -> np.ndarray:
    """A random non-Hermitian operator on (A, B_1), entries of order 2^-(n+1)."""
    gen = np.random.default_rng(seed)
    d = 2 ** (n + 1)
    return (gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))) / d


class TestProtocolContractions:
    """The stacked products against the per-operator sums they replace."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_apply_protocol_matches_operator_loop(self, n):
        pk = protocol_kraus(n)
        r = _random_operator(n, 30 + n)
        want = sum(k @ r @ k.conj().T for k in pk.ops)
        assert max_abs(apply_protocol(pk, r), want) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_gram_matches_operator_loop(self, n):
        pk = protocol_kraus(n)
        want = sum(k.conj().T @ k for k in pk.ops)
        assert max_abs(protocol_gram(pk), want) <= 1e-13

    def test_apply_protocol_takes_real_input(self):
        pk = protocol_kraus(3)
        r = _random_operator(3, 1).real
        assert max_abs(apply_protocol(pk, r), apply_protocol(pk, r.astype(complex))) == 0


class TestProtocolTransfer:
    """The whole protocol map as its (2^n, 4, 2^n) transfer matrix."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_transfer_equals_oracle_measurement(self, n):
        # (n/2) pi_1 from the dense eigh, laid out T[a, (m, m'), a'] = pi_1[(a, m), (a', m')]
        d = 2 ** n
        pi_1 = povm_element(1, n)
        want = (n / 2) * pi_1.reshape(d, 2, d, 2).transpose(0, 1, 3, 2).reshape(d, 4, d)
        assert np.array_equal(build_povm(n), want)
        assert max_abs(protocol_kraus(n).transfer, want) <= 1e-13

    def test_oracle_transfer_is_the_cached_array(self):
        # the measurement is laid out once per n, not re-laid on each read
        assert build_povm(4) is build_povm(4)

    def test_transfer_built_once(self):
        pk = protocol_kraus(3)
        transfer = pk.transfer
        assert pk.transfer is transfer
        apply_protocol(pk, reduced_port_state(Bell(), 3))
        assert pk.transfer is transfer

    def test_transfer_built_on_first_apply_only(self):
        # at n = 9 the bras take 2.2 MB, the operators 8.7 MB and the transfer
        # 8.4 MB; building the set must hold neither of the last two
        n = 9
        tracemalloc.start()
        try:
            pk = protocol_kraus(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "transfer" not in vars(pk) and "ops" not in vars(pk)
        assert peak < pk.bras.nbytes + 32 * 4 ** n
        apply_protocol(pk, np.eye(2 ** (n + 1)) / 2 ** (n + 1))
        assert vars(pk)["transfer"].shape == (2 ** n, 4, 2 ** n)
        assert "ops" not in vars(pk)

    def test_protocol_kraus_command_builds_no_transfer(self, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError("transfer built")
        monkeypatch.setattr(ProtocolKraus, "transfer", property(refuse))
        assert cli.main(["protocol-kraus", "--ports", "3"]) == 0
        assert "# 9 reduced protocol Kraus operators, 4 x 16" in capsys.readouterr().out


def _general_ports(n: int) -> list[np.ndarray]:
    """Seeded random ports of rank 1..4, and a port whose sender marginal
    is a singular pure state; every marginal is complex and not diagonal."""
    gen = np.random.default_rng(60 + n)
    ports = []
    for rank in (1, 2, 3, 4):
        g = gen.normal(size=(4, rank)) + 1j * gen.normal(size=(4, rank))
        ports.append(g @ g.conj().T / np.vdot(g, g).real)
    psi = np.array([0.6, 0.8j])
    g = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
    ports.append(np.kron(np.outer(psi, psi.conj()), g @ g.conj().T / np.vdot(g, g).real))
    return ports


class TestPortByPort:
    """Both checks contract a product resource port by port, never building
    its 2^(n+1)-square operator on (A, B_1)."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_dense_contraction(self, n):
        pk = protocol_kraus(n)
        ports = [port_state(f) for _, f in cli.VERIFY_FAMILIES] + _general_ports(n)
        for port in ports:
            for transfer, check in ((build_povm(n), oracle_choi),
                                    (pk.transfer, lambda r: apply_protocol(pk, r))):
                resource = ProductResource(n, port)
                got = check(resource)
                assert "reduced" not in vars(resource)
                assert max_abs(got, transfer_choi(transfer, resource.reduced.joint)) <= 1e-14

    def test_general_marginals_are_complex_and_one_singular(self):
        marginals = [p[0::2, 0::2] + p[1::2, 1::2] for p in _general_ports(4)]
        assert all(abs(m[0, 1].imag) > 1e-3 for m in marginals)
        assert abs(np.linalg.det(marginals[-1])) <= 1e-15

    def test_rejects_a_resource_of_another_port_count(self):
        pk = protocol_kraus(3)
        with pytest.raises(ValueError) as wrong_shape:
            apply_protocol(pk, np.eye(32))
        assert str(wrong_shape.value).startswith("expected (16, 16) operator on (A, B_1)")
        for transfer in (pk.transfer, build_povm(3)):
            for n in (2, 4):
                resource = make_family(Bell(), n)
                with pytest.raises(ValueError, match=r"^expected \(16, 16\) operator on \(A, B_1\), got"):
                    apply_transfer(transfer, resource)
                assert "reduced" not in vars(resource)
        with pytest.raises(ValueError, match=r"^expected \(16, 16\) operator on \(A, B_1\), got \(32, 32\)"):
            apply_protocol(pk, make_family(AdChoi(0.3), 4))

    def test_verify_command_builds_no_reduced_operator(self, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError("reduced operator built")
        monkeypatch.setattr(ProductResource, "joint", property(refuse))
        monkeypatch.setattr(ProductResource, "reduced", property(refuse))
        assert cli.main(["verify", "--max-ports", "4"]) == 0
        assert capsys.readouterr().out.endswith("ok\n")
