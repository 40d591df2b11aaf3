"""The product-resource route: spin tables from the port marginal by Schur-Weyl
duality, checked against the dense congruence, the dense oracle and the
basis-free closed forms.

The built-in families all have a diagonal port marginal, so random general
two-qubit ports (complex, non-diagonal marginal, entangled) and turned
built-in ports exercise the turn into the eigenframe of the marginal.
"""

import numpy as np
import pytest

from pbtsim.analysis import alternate_choi, depolarizing_choi, pbt_ad_choi, xi
from pbtsim.choi import check_choi, choi_from_reduced, measurement_rows
from pbtsim.linalg import dag, max_abs
from pbtsim.oracle import oracle_choi
from pbtsim.resources import (AdChoi, Alternate, Bell, FromFile, ProductResource,
                              make_family, port_state, reduced_from_port, save_resource,
                              to_spin_coefficients)
from pbtsim.spin import MAX_PORTS, MAX_PRODUCT_PORTS, build_spin_basis

from conftest import random_density, run_python


def random_port(seed: int) -> np.ndarray:
    return random_density(4, np.random.default_rng(seed))


@pytest.mark.parametrize("n", range(2, 11))
def test_matches_dense_congruence_on_random_ports(n):
    for seed in range(3):
        port = random_port(100 * n + seed)
        marginal = port[0::2, 0::2] + port[1::2, 1::2]
        assert abs(marginal[0, 1]) > 1e-3
        got = choi_from_reduced(ProductResource(n, port))
        assert max_abs(got, choi_from_reduced(reduced_from_port(port, n))) <= 1e-13
        check_choi(got)


@pytest.mark.parametrize("n", range(2, 9))
def test_matches_oracle_on_random_ports(n):
    port = random_port(n)
    got = choi_from_reduced(ProductResource(n, port))
    assert max_abs(got, oracle_choi(reduced_from_port(port, n))) <= 1e-10


@pytest.mark.parametrize("n", [13, 50, 200, 500])
@pytest.mark.parametrize("family, closed", [
    (Bell(), lambda n: depolarizing_choi(xi(n))),
    (AdChoi(0.3), lambda n: pbt_ad_choi(n, 0.3)),
    (AdChoi(0.77), lambda n: pbt_ad_choi(n, 0.77)),
    (Alternate(0.7), lambda n: alternate_choi(n, 0.7)),
    (Alternate(0.13), lambda n: alternate_choi(n, 0.13)),
], ids=["bell", "ad:0.3", "ad:0.77", "alternate:0.7", "alternate:0.13"])
def test_closed_forms_beyond_dense_cap(n, family, closed):
    c = choi_from_reduced(make_family(family, n))
    assert max_abs(c, closed(n)) <= 1e-12


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("first_only", [True, False])
def test_tables_match_congruence_where_rows_read(n, first_only):
    # every entry within one parent multiplet, a superset of those the
    # measurement rows read, on the alpha = 1 basis and on the full basis:
    # the tables are of the port turned into the eigenframe of its marginal
    port = random_port(7 * n)
    basis = build_spin_basis(n, first_only=first_only)
    fast = to_spin_coefficients(ProductResource(n, port), basis)
    turn = np.kron(fast.frame, np.eye(2))
    dense = to_spin_coefficients(reduced_from_port(turn @ port @ dag(turn), n), basis)
    same = (basis.parent[:, None] == basis.parent) & (basis.alpha[:, None] == basis.alpha)
    i, j = np.nonzero(same)
    assert max_abs(fast.table[i, j], dense.table[i, j]) <= 1e-14


def test_tables_vanish_between_multiplets():
    n = 5
    basis = build_spin_basis(n)
    table = to_spin_coefficients(ProductResource(n, random_port(3)), basis).table
    i, j = np.meshgrid(np.arange(len(basis)), np.arange(len(basis)), indexing="ij")
    other = (basis.parent[i] != basis.parent[j]) | (basis.alpha[i] != basis.alpha[j])
    assert (table[i[other], j[other]] == 0).all()


# a fixed generic sender unitary
TURN, _ = np.linalg.qr(np.random.default_rng(17).normal(size=(2, 2))
                       + 1j * np.random.default_rng(18).normal(size=(2, 2)))


@pytest.mark.parametrize("n", [13, 50, 200, 500])
@pytest.mark.parametrize("family, closed", [
    (Bell(), lambda n: depolarizing_choi(xi(n))),
    (AdChoi(0.3), lambda n: pbt_ad_choi(n, 0.3)),
    (Alternate(0.7), lambda n: alternate_choi(n, 0.7)),
    (Alternate(0.0), lambda n: alternate_choi(n, 0.0)),
    (Alternate(1.0), lambda n: alternate_choi(n, 1.0)),
], ids=["bell", "ad:0.3", "alternate:0.7", "alternate:0", "alternate:1"])
def test_turned_ports_match_turned_closed_forms(n, family, closed):
    # (W (x) 1) port (W (x) 1)^dag simulates the port's channel after
    # W^dag . W on its input, by the SU(2) covariance of the measurement: an
    # independent route for non-diagonal marginals beyond the dense cap
    w = np.kron(TURN, np.eye(2))
    c = choi_from_reduced(ProductResource(n, w @ port_state(family) @ dag(w)))
    back = np.kron(TURN.conj(), np.eye(2))
    assert max_abs(c, back @ closed(n) @ dag(back)) <= 1e-12


@pytest.mark.parametrize("port, problem", [
    (random_port(5) + 0.1 * np.eye(4, k=2), "not Hermitian"),  # the A marginal's (0, 1) alone
    (np.diag([1.2, 0, -0.2, 0]).astype(complex), "not positive semidefinite"),
], ids=["non-hermitian", "negative"])
def test_rejects_a_port_with_a_bad_marginal(port, problem):
    with pytest.raises(ValueError, match=f"resource state is {problem}"):
        choi_from_reduced(ProductResource(20, port))


def _shifted_bell() -> np.ndarray:
    """The Bell port with 0.05 moved from |00><00| to |11><11|: eigenvalues
    -0.05, 0, 0.05 and 1, trace 1, and a positive sender marginal."""
    port = port_state(Bell())
    port[0, 0] -= 0.05
    port[3, 3] += 0.05
    return port


def _nan_bell() -> np.ndarray:
    port = port_state(Bell())
    port[1, 2] = np.nan
    return port


@pytest.mark.parametrize("n", [2, 5, 50, 500])
@pytest.mark.parametrize("port, problem", [
    (_shifted_bell(), "resource state is not positive semidefinite"),
    (2 * port_state(Bell()), "resource state trace differs from 1"),
    (_nan_bell(), "resource state has a nan or inf entry"),
], ids=["negative-eigenvalue", "trace-2", "nan"])
def test_rejects_a_port_that_is_not_a_state(n, port, problem):
    # each used to give a Choi matrix, the first one that check_choi passes
    # at n = 2 and 5
    resource = ProductResource(n, port)
    with pytest.raises(ValueError, match=problem):
        resource.validate()
    with pytest.raises(ValueError, match=problem):
        choi_from_reduced(resource)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("where", [(0, 0), (1, 2), (3, 0)])
def test_check_choi_rejects_non_finite_entries(entry, where):
    c = depolarizing_choi(0.3)
    c[where] = entry
    with pytest.raises(ValueError, match="nan or inf"):
        check_choi(c)
    c = np.full((4, 4), entry, dtype=complex)
    with pytest.raises(ValueError, match="nan or inf"):
        check_choi(c)


def test_general_port_at_the_cap_within_one_gigabyte():
    script = (
        "import numpy as np\n"
        "from pbtsim.choi import check_choi, choi_from_reduced\n"
        "from pbtsim.resources import ProductResource\n"
        "from pbtsim.spin import MAX_PRODUCT_PORTS\n"
        "rng = np.random.default_rng(500)\n"
        "g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))\n"
        "port = g @ g.conj().T / np.trace(g @ g.conj().T)\n"
        "check_choi(choi_from_reduced(ProductResource(MAX_PRODUCT_PORTS, port)))\n"
    )
    proc = run_python("-c", script, memory_bytes=10 ** 9)
    assert proc.returncode == 0, proc.stderr


def test_blocks_built_on_first_use_only():
    big = make_family(Bell(), MAX_PORTS + 1)
    assert "reduced" not in vars(big)
    choi_from_reduced(big)
    assert "reduced" not in vars(big)
    with pytest.raises(ValueError, match=f"port count must be in 1..{MAX_PORTS}, got 13"):
        big.joint
    small = make_family(AdChoi(0.4), 3)
    want = reduced_from_port(small.port, 3)
    assert np.array_equal(small.joint, want.joint)
    assert small.joint is small.reduced.joint


@pytest.mark.parametrize("n", [3, 13, 500])
def test_validate_checks_the_port_at_any_port_count(n):
    make_family(Bell(), n).validate()
    bad = ProductResource(n, np.diag([0.6, 0.6, -0.2, 0]).astype(complex))
    with pytest.raises(ValueError, match="not positive semidefinite"):
        bad.validate()
    assert "reduced" not in vars(bad)


def test_port_caps(tmp_path):
    with pytest.raises(ValueError, match=f"port count must be in 1..{MAX_PORTS}, got 13"):
        build_spin_basis(13)
    labels_only = build_spin_basis(13, first_only=True)
    assert len(labels_only) == 98
    with pytest.raises(ValueError, match=f"port count must be in 1..{MAX_PORTS}, got 13"):
        labels_only.u
    over = MAX_PRODUCT_PORTS + 1
    with pytest.raises(ValueError, match=f"port count must be in 1..{MAX_PRODUCT_PORTS}"):
        build_spin_basis(over, first_only=True)
    with pytest.raises(ValueError, match=f"port count must be in 1..{MAX_PRODUCT_PORTS}"):
        make_family(Bell(), over)
    with pytest.raises(ValueError, match="port count must be in 1..12, got 13"):
        make_family(FromFile(str(tmp_path / "never_read.pbtres")), 13)
    with pytest.raises(ValueError, match="at least two ports"):
        choi_from_reduced(make_family(Bell(), 1))


def test_caches_keep_nothing_above_the_dense_cap():
    caches = (build_spin_basis, measurement_rows)
    choi_from_reduced(make_family(Bell(), MAX_PORTS))
    choi_from_reduced(ProductResource(MAX_PORTS, random_port(1)))
    sizes = [cache.cache_info().currsize for cache in caches]
    for n in range(MAX_PORTS + 1, MAX_PORTS + 9):
        choi_from_reduced(make_family(AdChoi(0.3), n))
        choi_from_reduced(ProductResource(n, random_port(n)))
    assert [cache.cache_info().currsize for cache in caches] == sizes


def test_saved_product_reads_back_as_the_same_channel(tmp_path):
    red = make_family(Alternate(0.8), 3)
    path = tmp_path / "alt.pbtres"
    save_resource(path, red)
    loaded = make_family(FromFile(str(path)), 3)
    assert max_abs(choi_from_reduced(loaded), choi_from_reduced(red)) <= 1e-14
