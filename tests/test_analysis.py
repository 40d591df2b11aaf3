import math

import numpy as np
import pytest

from pbtsim import analysis
from pbtsim.choi import choi_from_reduced
from pbtsim.linalg import X_PAIRS, max_abs, partial_trace_qubits, x_matrix
from pbtsim.resources import AdChoi, Alternate, ad_choi_port, make_family

XI2 = (6 - math.sqrt(3)) / 6


class TestXi:
    def test_two_ports_exact(self):
        assert analysis.xi(2) == pytest.approx(XI2, abs=1e-15)

    def test_three_and_four_ports(self):
        assert analysis.xi(3) == pytest.approx(0.5, abs=1e-14)
        assert analysis.xi(4) == pytest.approx(0.3562148075, abs=1e-9)

    def test_threshold_port_count(self):
        assert next(n for n in range(2, 20) if analysis.xi(n) < 0.237) == 6

    def test_decreasing_and_scaled_bounded(self):
        vals = [analysis.xi(n) for n in range(2, 41)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0 < n * v < 4 for n, v in zip(range(2, 41), vals))

    def test_finite_and_decreasing_at_many_ports(self):
        ports = (1021, 1022, 1025, 5000)
        vals = [analysis.xi(n) for n in ports]
        assert all(math.isfinite(v) for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert 5000 * vals[-1] == pytest.approx(1, rel=0.01)
        assert np.isfinite(analysis.pbt_ad_choi(1030, 0.3)).all()
        assert math.isfinite(analysis.ad_known_points(1030, 0.5).d1)

    def test_domain(self):
        with pytest.raises(ValueError):
            analysis.xi(1)


class TestModelChois:
    def test_identity_limits(self):
        v = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        proj = np.outer(v, v.conj())
        np.testing.assert_allclose(analysis.depolarizing_choi(0.0), proj, atol=1e-15)
        np.testing.assert_allclose(analysis.ad_choi(0.0, "plus"), proj, atol=1e-15)

    def test_full_damping(self):
        np.testing.assert_allclose(
            analysis.ad_choi(1.0, "plus"), np.diag([0.5, 0, 0.5, 0]), atol=1e-15
        )

    def test_conventions_pauli_related(self):
        # Y on the idler maps the singlet-referenced port state to the
        # plus-referenced Choi matrix
        y = np.array([[0, -1j], [1j, 0]])
        u = np.kron(y, np.eye(2))
        for p in (0.0, 0.4, 0.9):
            a = u @ ad_choi_port(p) @ u.conj().T
            np.testing.assert_allclose(a, analysis.ad_choi(p), atol=1e-14)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            analysis.ad_choi(1.5)
        with pytest.raises(ValueError):
            analysis.ad_choi(0.5, "other")
        with pytest.raises(ValueError):
            analysis.ad_choi(0.5, "singlet")
        with pytest.raises(ValueError):
            analysis.depolarizing_choi(2.0)


class TestPbtAdChoi:
    def test_limits(self):
        for n in (2, 5):
            np.testing.assert_allclose(
                analysis.pbt_ad_choi(n, 0.0),
                analysis.depolarizing_choi(analysis.xi(n)), atol=1e-14,
            )
            np.testing.assert_allclose(
                analysis.pbt_ad_choi(n, 1.0), np.diag([0.5, 0, 0.5, 0]), atol=1e-14
            )

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p1", [0.0, 0.35, 0.8])
    def test_matches_pipeline(self, n, p1):
        got = choi_from_reduced(make_family(AdChoi(p1), n))
        assert max_abs(got, analysis.pbt_ad_choi(n, p1)) <= 1e-12


class TestTraceNorm:
    def test_identical_inputs(self):
        c = analysis.depolarizing_choi(0.4)
        assert analysis.trace_norm(c, c) == 0.0

    def test_depolarizing_vs_identity(self):
        for x in (0.2, 0.5, 0.9):
            got = analysis.trace_norm(
                analysis.depolarizing_choi(x), analysis.depolarizing_choi(0.0)
            )
            assert got == pytest.approx(1.5 * x, abs=1e-12)

    def test_known_point_formula(self):
        for n, p0 in ((2, 0.3), (4, 0.6)):
            x = analysis.xi(n)
            got = analysis.trace_norm(
                analysis.pbt_ad_choi(n, p0), analysis.ad_choi(p0, "plus")
            )
            assert got == pytest.approx(x * ((1 - p0) / 2 + math.sqrt(1 - p0)), abs=1e-12)


class TestDiamondBounds:
    def test_collapse_at_known_points(self):
        for n, p0 in ((3, 0.6), (4, 0.5), (6, 0.4)):
            kp = analysis.ad_known_points(n, p0)
            target = analysis.ad_choi(p0, "plus")
            for p1 in (kp.p1_a, kp.p1_b):
                if p1 is None:
                    continue
                lower, upper = analysis.diamond_bounds(analysis.pbt_ad_choi(n, p1), target)
                assert abs(upper - lower) <= 1e-9

    def test_strict_between_known_points(self):
        n, p0 = 4, 0.36
        lower, upper = analysis.diamond_bounds(
            analysis.pbt_ad_choi(n, 0.2), analysis.ad_choi(p0, "plus")
        )
        assert upper - lower > 1e-3

    def test_ordering(self, rng):
        from conftest import random_choi

        for _ in range(20):
            lower, upper = analysis.diamond_bounds(random_choi(rng), random_choi(rng))
            assert lower <= upper + 1e-12


_GOLDEN = (math.sqrt(5) - 1) / 2


def _weighted_trace_norm(j: np.ndarray, t: float) -> float:
    """2 ||(sqrt(rho) (x) 1) j (sqrt(rho) (x) 1)||_1 at rho = diag(t, 1 - t)."""
    d = np.kron(np.diag([math.sqrt(t), math.sqrt(1 - t)]), np.eye(2))
    return 2.0 * float(np.abs(np.linalg.eigvalsh(d @ j @ d)).sum())


def _golden_diagonal_max(j: np.ndarray, tol: float = 1e-13) -> float:
    """Maximum over diagonal input marginals; the diamond norm when j is X-shaped."""
    lo, hi = 0.0, 1.0
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = _weighted_trace_norm(j, x1), _weighted_trace_norm(j, x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = _weighted_trace_norm(j, x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = _weighted_trace_norm(j, x1)
    return max(f1, f2, _weighted_trace_norm(j, 0.0), _weighted_trace_norm(j, 1.0))


def _random_marginal_sqrt(rng: np.random.Generator) -> np.ndarray:
    """sqrt of a qubit state drawn uniformly from the Bloch ball, by eigendecomposition."""
    r = rng.normal(size=3)
    r *= rng.uniform() ** (1 / 3) / np.linalg.norm(r)
    rho = 0.5 * np.array([[1 + r[2], r[0] - 1j * r[1]], [r[0] + 1j * r[1], 1 - r[2]]])
    w, v = np.linalg.eigh(rho)
    return (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T


def _figure_grid(n: int):
    """(out, noisy, target) over both families' figure ranges for three targets.

    noisy is out moved by Hermitian noise of size 1e-15 whose trace over the
    output vanishes, so it stays a trace-preserving channel's Choi matrix to
    rounding, and X-shaped to within 1.6e-14 in the sum of its off-X entries.
    """
    rng = np.random.default_rng(n)
    for p0 in (0.36, 0.7, 0.95):
        target = analysis.ad_choi(p0, "plus")
        outs = ([analysis.pbt_ad_choi(n, float(p1)) for p1 in np.linspace(0, 1, 11)]
                + [analysis.alternate_choi(n, float(a)) for a in np.linspace(0.5, 1, 11)])
        for out in outs:
            h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = h + h.conj().T
            h -= np.kron(partial_trace_qubits(h, 2, [0]), np.eye(2) / 2)
            yield out, out + 1e-15 * h / np.abs(h).max(), target


def _random_x_choi(rng: np.random.Generator) -> np.ndarray:
    """Choi matrix of a random trace-preserving qubit channel that is X-shaped:
    nonzero only on the diagonal and at (0, 3), (1, 2) and their conjugates,
    with complex coherences anywhere in the disc positivity allows."""
    u, v = rng.uniform(size=2)
    diag = np.array([u, 1 - u, v, 1 - v]) / 2
    coherences = [math.sqrt(rng.uniform() * diag[k] * diag[l])
                  * np.exp(2j * math.pi * rng.uniform()) for k, l in X_PAIRS]
    return x_matrix(diag, *coherences)


def _study_rows(n: int):
    """(out, target) for both families at five parameters and three targets."""
    for p0 in (0.36, 0.7, 0.95):
        target = analysis.ad_choi(p0, "plus")
        for p1, a in zip(np.linspace(0, 1, 5), np.linspace(0.5, 1, 5)):
            yield analysis.pbt_ad_choi(n, float(p1)), target
            yield analysis.alternate_choi(n, float(a)), target


def _assert_x_route_matches_search(pairs) -> None:
    worst = worst_below = 0.0
    for x, y in pairs:
        (fast, _), (search, _) = analysis._diamond_x_shaped(x - y), analysis._diamond_search(x - y)
        worst = max(worst, abs(fast - search))
        worst_below = max(worst_below, search - fast)
    assert worst <= 1e-9
    # the search value is the objective at a feasible marginal, so the
    # maximum over diagonal marginals may only fall short of it by rounding
    assert worst_below <= 1e-12


def _known_point_rows():
    """(out, p0) at the d0, d1 and d2 points, where the diamond bounds meet."""
    rows = []
    for n in (3, 4, 6):
        for p0 in (0.3, 0.45, 0.6, 0.8, 0.95):
            kp = analysis.ad_known_points(n, p0)
            rows += [(analysis.pbt_ad_choi(n, p1), p0) for p1 in (kp.p1_a, kp.p1_b)
                     if p1 is not None]
            known = analysis.alternate_known_point(n, p0)
            if known is not None:
                rows.append((analysis.alternate_choi(n, known[0]), p0))
    return rows


class TestDiamondRoutes:
    """The closed-form X route against the 3-D search it replaces, and which
    route diamond_numeric takes."""

    def test_off_x_mask(self):
        # everything off the diagonal and the antidiagonal
        eye = np.eye(4, dtype=bool)
        np.testing.assert_array_equal(analysis._OFF_X, ~(eye | eye[::-1]))
        assert analysis._OFF_X.sum() == 8

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_x_route_matches_search_on_figure_grid(self, n):
        _assert_x_route_matches_search((out, target) for out, _, target in _figure_grid(n))

    def test_x_route_matches_search_on_random_x_shaped_channels(self):
        rng = np.random.default_rng(21)
        pairs = [(_random_x_choi(rng), _random_x_choi(rng)) for _ in range(30)]
        pairs += [(_random_x_choi(rng), analysis.ad_choi(float(rng.uniform()), "plus"))
                  for _ in range(15)]
        # the identity channel against a full flip of populations
        flip = np.zeros((4, 4), dtype=complex)
        flip[1, 1] = flip[2, 2] = 0.5
        pairs.append((analysis.ad_choi(0.0, "plus"), flip))
        _assert_x_route_matches_search(pairs)

    @pytest.mark.parametrize("n", [3, 4, 6, 10, 50])
    def test_x_route_matches_search_on_study_rows(self, n):
        _assert_x_route_matches_search(_study_rows(n))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_x_shaped_pairs_run_no_search(self, monkeypatch, n):
        def no_search(*args, **kwargs):
            raise AssertionError("search ran on an X-shaped pair")

        monkeypatch.setattr(analysis, "minimize", no_search)
        for out, noisy, target in _figure_grid(n):
            analysis.diamond_numeric(out, target)
            analysis.diamond_numeric(noisy, target)

    def test_pairs_off_the_x_reach_the_search(self, monkeypatch, rng):
        from conftest import random_choi

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return minimize(*args, **kwargs)

        minimize = analysis.minimize
        monkeypatch.setattr(analysis, "minimize", counted)
        # entries of 1e-6 at (0, 1) and (2, 3) keep the output trace
        out = analysis.pbt_ad_choi(4, 0.2).copy()
        out[0, 1] = out[1, 0] = out[2, 3] = out[3, 2] = 1e-6
        pairs = [(out, analysis.ad_choi(0.5, "plus"))]
        pairs += [(random_choi(rng), random_choi(rng)) for _ in range(3)]
        for x, y in pairs:
            before = len(calls)
            analysis.diamond_numeric(x, y)
            assert len(calls) > before


class TestDiamondNumeric:
    def test_identical_channels(self):
        c = analysis.pbt_ad_choi(3, 0.4)
        assert analysis.diamond_numeric(c, c) <= 1e-12

    def test_known_point_equals_trace_norm(self):
        n, p0 = 3, 0.5
        target = analysis.ad_choi(p0, "plus")
        out = analysis.pbt_ad_choi(n, p0)
        got = analysis.diamond_numeric(out, target)
        assert got == pytest.approx(analysis.trace_norm(out, target), abs=1e-9)

    def test_second_known_point_value(self):
        got = analysis.diamond_numeric(analysis.pbt_ad_choi(3, 0.0), analysis.ad_choi(0.5, "plus"))
        assert got == pytest.approx(0.5746432177, abs=1e-9)

    def test_sandwiched_by_bounds(self, rng):
        from conftest import random_choi

        for _ in range(5):
            x, y = random_choi(rng), random_choi(rng)
            lower, upper = analysis.diamond_bounds(x, y)
            num = analysis.diamond_numeric(x, y)
            assert lower - 1e-6 <= num <= upper + 1e-6

    def test_deterministic_for_seed(self):
        # the search uses no randomness: seed and restarts are ignored
        x = analysis.pbt_ad_choi(4, 0.2)
        y = analysis.ad_choi(0.5, "plus")
        want = analysis.diamond_numeric(x, y)
        for seed, restarts in ((11, 6), (11, 6), (0, 1), (12345, 64), (7, 0)):
            assert analysis.diamond_numeric(x, y, seed=seed, restarts=restarts) == want

    def test_matches_golden_section_on_x_shaped_points(self):
        # X-shaped Choi differences are invariant under diagonal phase
        # rotations, so a diagonal input marginal is optimal
        rng = np.random.default_rng(5)
        # a point where the first run of a search clipped to the Bloch ball
        # stalled 2.2e-4 short on the plateau outside it
        cases = [(analysis.alternate_choi(5, 0.9248591877504492), 0.35747014315067516)]
        for n in range(3, 7):
            for family in ("choi", "alternate"):
                for p0 in np.linspace(0.0, 1.0, 7):
                    if family == "choi":
                        out = analysis.pbt_ad_choi(n, float(rng.uniform(0, 1)))
                    else:
                        out = analysis.alternate_choi(n, float(rng.uniform(0.5, 1)))
                    cases.append((out, float(p0)))
        worst = 0.0
        for out, p0 in cases:
            target = analysis.ad_choi(p0, "plus")
            exact = _golden_diagonal_max(out - target)
            worst = max(worst, abs(analysis.diamond_numeric(out, target) - exact))
        assert worst <= 1e-9

    def test_points_where_a_clipped_search_stalled(self):
        # with Bloch vectors clipped to the ball instead of folded into it,
        # rounding-level changes of the input made the search stop at
        # 0.983302 at the first point, and it stopped 9.5e-6 to 1.7e-3 short
        # at the other three
        got = analysis.diamond_numeric(analysis.alternate_choi(4, 0.95), analysis.ad_choi(0.36))
        assert abs(got - 0.984593256789) <= 1e-9
        for a, p0 in ((0.935, 0.36), (0.98, 0.34), (0.995, 0.26)):
            out, target = analysis.alternate_choi(5, a), analysis.ad_choi(p0, "plus")
            exact = _golden_diagonal_max(out - target)
            assert abs(analysis.diamond_numeric(out, target) - exact) <= 1e-9

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_figure_grid_exact_and_stable_under_rounding_noise(self, n):
        worst_exact = worst_noise = 0.0
        for out, noisy, target in _figure_grid(n):
            got = analysis.diamond_numeric(out, target)
            worst_exact = max(worst_exact, abs(got - _golden_diagonal_max(out - target)))
            worst_noise = max(worst_noise, abs(analysis.diamond_numeric(noisy, target) - got))
        assert worst_exact <= 1e-9
        assert worst_noise <= 1e-9

    def test_known_points_exit_with_the_lower_bound(self, monkeypatch):
        # where the bounds meet the value is certified, so no search runs
        def no_search(*args, **kwargs):
            raise AssertionError("search ran at a point with meeting bounds")

        rows = _known_point_rows()
        assert len(rows) == 39
        monkeypatch.setattr(analysis, "minimize", no_search)
        for out, p0 in rows:
            target = analysis.ad_choi(p0, "plus")
            lower, upper = analysis.diamond_bounds(out, target)
            got = analysis.diamond_numeric(out, target)
            assert got == lower
            # the bounds can cross by rounding (1.1e-16 at most on these rows)
            assert got <= upper + 1e-15

    def test_fold_maps_radii_into_the_ball_as_a_triangle_wave(self):
        for length, folded in ((0.3, 0.3), (1.0, 1.0), (1.25, 0.75), (2.0, 0.0),
                               (2.5, 0.5), (3.0, 1.0), (3.5, 0.5)):
            r = length * np.array([0.6, 0.0, -0.8])
            assert np.allclose(analysis._fold(r), folded * np.array([0.6, 0.0, -0.8]),
                               atol=1e-15, rtol=0)

    def test_no_sampled_marginal_beats_result(self, rng):
        from conftest import random_choi

        for _ in range(4):
            x, y = random_choi(rng), random_choi(rng)
            got = analysis.diamond_numeric(x, y)
            j = x - y
            best_sample = 0.0
            for _ in range(250):
                d = np.kron(_random_marginal_sqrt(rng), np.eye(2))
                best_sample = max(best_sample, 2.0 * float(np.abs(np.linalg.eigvalsh(d @ j @ d)).sum()))
            assert best_sample <= got + 1e-12
            assert got <= analysis.diamond_bounds(x, y)[1] + 1e-12


def _assert_certified(d: analysis.Diamond) -> None:
    """Watrous' witness reproduces the value and lies between -rho (x) 1 and rho (x) 1."""
    assert abs(2.0 * np.trace(d.W @ d.J) - d.value) <= 1e-13
    weight = np.kron(d.rho, np.eye(2))
    assert np.linalg.eigvalsh(weight - d.W).min() >= -1e-12
    assert np.linalg.eigvalsh(weight + d.W).min() >= -1e-12


def _assert_route(d: analysis.Diamond, route: str) -> None:
    assert d.route == route
    if route == "bounds":
        assert d.value == d.lower
        np.testing.assert_allclose(d.rho, np.eye(2) / 2, rtol=0, atol=1e-15)
    elif route == "x":
        assert d.rho[0, 1] == 0 and d.rho[1, 0] == 0


class TestDiamondResult:
    """diamond(x, y): the value with its witness, the route and the maximiser."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_certified_on_figure_grid(self, n):
        routes = set()
        for p0 in (0.36, 0.7, 0.85, 0.95):
            target = analysis.ad_choi(p0, "plus")
            outs = ([analysis.pbt_ad_choi(n, float(p1)) for p1 in np.arange(0, 1, 0.03)]
                    + [analysis.alternate_choi(n, float(a)) for a in np.arange(0.5, 1, 0.02)])
            for out in outs:
                d = analysis.diamond(out, target)
                _assert_route(d, "bounds" if d.upper - d.lower <= analysis.CERTIFIED_GAP
                              else "x")
                _assert_certified(d)
                routes.add(d.route)
        assert "x" in routes

    def test_certified_on_random_channels_by_search(self):
        from conftest import random_choi

        rng = np.random.default_rng(31)
        for _ in range(30):
            d = analysis.diamond(random_choi(rng), random_choi(rng))
            _assert_route(d, "search")
            _assert_certified(d)

    def test_known_points_take_the_bounds_route(self):
        for out, p0 in _known_point_rows():
            d = analysis.diamond(out, analysis.ad_choi(p0, "plus"))
            _assert_route(d, "bounds")
            _assert_certified(d)

    def test_x_shaped_and_off_x_routes(self):
        out, target = analysis.pbt_ad_choi(4, 0.2), analysis.ad_choi(0.5, "plus")
        d = analysis.diamond(out, target)
        _assert_route(d, "x")
        off_x = out.copy()
        off_x[0, 1] = off_x[1, 0] = off_x[2, 3] = off_x[3, 2] = 1e-6
        _assert_route(analysis.diamond(off_x, target), "search")
        assert d.value == analysis.diamond_numeric(out, target)
        assert (d.lower, d.upper) == analysis.diamond_bounds(out, target)
        np.testing.assert_array_equal(d.J, out - target)

    def test_witness_is_computed_on_first_read_only(self):
        d = analysis.diamond(analysis.pbt_ad_choi(4, 0.2), analysis.ad_choi(0.5, "plus"))
        assert "W" not in vars(d)
        assert d.W is d.W

    @pytest.mark.parametrize("route", ["bounds", "x", "search"])
    def test_arrays_are_read_only(self, route):
        # a write to J once moved 2 Tr[W J] 0.064 away from value, unseen
        out, target = analysis.pbt_ad_choi(4, 0.2), analysis.ad_choi(0.5, "plus")
        if route == "bounds":
            out, p0 = _known_point_rows()[0]
            target = analysis.ad_choi(p0, "plus")
        elif route == "search":
            out = out.copy()
            out[0, 1] = out[1, 0] = 1e-6
        d = analysis.diamond(out, target)
        _assert_route(d, route)
        value, witness, rho = d.value, d.W.copy(), d.rho
        for name in ("J", "sqrt_rho", "W"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(d, name)[0, 0] += 0.1
        assert d.value == value
        np.testing.assert_array_equal(d.W, witness)
        np.testing.assert_array_equal(d.rho, rho)
        _assert_certified(d)


class TestMalformedInputs:
    """Every distance rejects what is not a pair of finite 4 x 4 matrices with a
    Hermitian difference, instead of reading one triangle of it."""

    DISTANCES = (analysis.trace_norm, analysis.diamond_bounds, analysis.diamond,
                 analysis.diamond_numeric)

    @pytest.mark.parametrize("entry", [(0, 3), (3, 0)])
    def test_coherence_on_one_side_only(self, entry):
        # before the check, (0, 3) gave 0.31503 below the lower bound 0.34934,
        # and (3, 0) gave 0.35035 above the upper bound 0.31810
        out = analysis.pbt_ad_choi(4, 0.2).copy()
        out[entry] += 0.05
        for distance in self.DISTANCES:
            with pytest.raises(ValueError, match="not Hermitian"):
                distance(out, analysis.ad_choi(0.5, "plus"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry(self, bad):
        out = analysis.pbt_ad_choi(4, 0.2).copy()
        out[1, 1] = bad
        for distance in self.DISTANCES:
            for x, y in ((out, analysis.ad_choi(0.5, "plus")), (out, out)):
                with pytest.raises(ValueError, match="non-finite"):
                    distance(x, y)

    @pytest.mark.parametrize("x, y", [(np.eye(3) / 3, np.eye(3) / 3),
                                      (np.eye(4) / 2, np.eye(2) / 2),
                                      (np.zeros(16), np.zeros(16))])
    def test_wrong_shape(self, x, y):
        for distance in self.DISTANCES:
            with pytest.raises(ValueError, match="expected two 4 x 4 Choi matrices"):
                distance(x, y)

    def test_rounding_level_asymmetry_is_accepted(self):
        out, target = analysis.pbt_ad_choi(4, 0.2).copy(), analysis.ad_choi(0.5, "plus")
        want = analysis.diamond(out, target)
        out[0, 3] += 5e-11
        got = analysis.diamond(out, target)
        assert got.route == "x" and abs(got.value - want.value) <= 1e-10


class TestKnownPoints:
    def test_trivial_full_damping(self):
        kp = analysis.ad_known_points(3, 1.0)
        assert kp.d0 == pytest.approx(0.0, abs=1e-15)
        assert kp.d1 == pytest.approx(0.0, abs=1e-15)
        assert kp.p1_b == pytest.approx(1.0)

    def test_second_point_absent_below_xi(self):
        kp = analysis.ad_known_points(3, 0.3)   # xi(3) = 0.5
        assert kp.p1_b is None and kp.d1 is None

    def test_d1_matches_trace_norm(self):
        for n, p0 in ((3, 0.7), (6, 0.5)):
            kp = analysis.ad_known_points(n, p0)
            direct = analysis.trace_norm(
                analysis.pbt_ad_choi(n, kp.p1_b), analysis.ad_choi(p0, "plus")
            )
            assert kp.d1 == pytest.approx(direct, abs=1e-9)


class TestDifferenceSpectrum:
    def test_degenerate_cases(self):
        n = 4
        x = analysis.xi(n)
        s = analysis.difference_spectrum(n, 0.5, 0.5)
        assert s.e1 == pytest.approx(s.e2, abs=1e-15)
        p1 = (0.5 - x) / (1 - x)
        s = analysis.difference_spectrum(n, 0.5, p1)
        assert s.e1 == pytest.approx(-s.e2, abs=1e-14)
        p1 = (2 * 0.5 - x) / (2 - x)
        s = analysis.difference_spectrum(n, 0.5, p1)
        assert s.e2 == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_matches_dense_eigenvalues(self, n, rng):
        for _ in range(20):
            p0, p1 = rng.uniform(size=2)
            s = analysis.difference_spectrum(n, p0, p1)
            diff = analysis.pbt_ad_choi(n, p1) - analysis.ad_choi(p0, "plus")
            dense = np.sort(np.linalg.eigvalsh(diff))
            mine = np.sort([s.e1, s.e2, s.e3, s.e4])
            np.testing.assert_allclose(dense, mine, atol=1e-12)
            assert s.e3 <= 1e-15 and s.e4 >= -1e-15
            total = abs(s.e1) + abs(s.e2) + abs(s.e3) + abs(s.e4)
            assert total == pytest.approx(
                analysis.trace_norm(analysis.pbt_ad_choi(n, p1), analysis.ad_choi(p0, "plus")),
                abs=1e-12,
            )


class TestTraceMinLocation:
    def test_absent_below_half_xi(self):
        assert analysis.trace_min_location(4, 0.1) is None

    def test_low_p0_formula_regime(self):
        n = 4
        x = analysis.xi(n)
        for p0 in (0.2, 0.36, 0.39):
            assert analysis.trace_min_location(n, p0) == pytest.approx(
                (2 * p0 - x) / (2 - x), abs=1e-12
            )

    @pytest.mark.parametrize("p0", [0.36, 0.7, 0.85, 0.95])
    def test_matches_grid_search(self, p0):
        n = 4
        loc = analysis.trace_min_location(n, p0)
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-4)
        target = analysis.ad_choi(p0, "plus")
        vals = [analysis.trace_norm(analysis.pbt_ad_choi(n, p1), target) for p1 in grid]
        assert abs(grid[int(np.argmin(vals))] - loc) <= 1e-4 + 1e-12

    @pytest.mark.parametrize("n, p0", [(3, 0.39), (6, 0.39), (8, 0.3)])
    def test_formula_holds_below_two_fifths_across_ports(self, n, p0):
        # below p0 = 2/5 the minimiser sits at the closed-form point for every
        # port count; confirmed by an independent 1e-4 grid search
        x = analysis.xi(n)
        loc = analysis.trace_min_location(n, p0)
        assert loc == pytest.approx((2 * p0 - x) / (2 - x), abs=1e-12)
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-4)
        target = analysis.ad_choi(p0, "plus")
        vals = [analysis.trace_norm(analysis.pbt_ad_choi(n, p1), target) for p1 in grid]
        assert abs(grid[int(np.argmin(vals))] - loc) <= 1e-4 + 1e-12

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_bracketed_below_two_thirds(self, n):
        x = analysis.xi(n)
        for p0 in np.arange(x / 2 + 0.01, 2 / 3, 0.05):
            loc = analysis.trace_min_location(n, float(p0))
            assert max((p0 - x) / (1 - x), 0.0) - 1e-12 <= loc
            assert loc <= (2 * p0 - x) / (2 - x) + 1e-12


class TestP0Cross:
    def test_zero_limit(self):
        assert analysis.p0_cross(0.0) == 2 / 3

    def test_monotone_on_grid(self):
        vals = [analysis.p0_cross(x) for x in np.linspace(0, 0.7, 71)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_three_port_value_in_range(self):
        v = analysis.p0_cross(0.5)
        assert 2 / 3 < v <= 1

    def test_domain(self):
        with pytest.raises(ValueError):
            analysis.p0_cross(0.8)


class TestAlternateXYZ:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_bell_point(self, n):
        x = analysis.xi(n)
        v = analysis.alternate_xyz(n, 0.5)
        assert v.x == pytest.approx(0.5 - x / 4, abs=1e-13)
        assert v.y == pytest.approx(x / 4, abs=1e-13)
        assert v.z == pytest.approx(0.5 - x / 2, abs=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("a", [0.0, 0.15, 0.5, 0.85, 1.0])
    def test_matches_pipeline(self, n, a):
        got = choi_from_reduced(make_family(Alternate(a), n))
        assert max_abs(got, analysis.alternate_choi(n, a)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_reflection_symmetry(self, n):
        for a in np.linspace(0.05, 0.95, 10):
            assert analysis.alternate_xyz(n, a).x == pytest.approx(
                0.5 - analysis.alternate_xyz(n, 1 - a).y, abs=1e-13
            )

    def test_choi_trace_one(self):
        for a in (0.0, 0.3, 0.77, 1.0):
            assert np.trace(analysis.alternate_choi(5, a)) == pytest.approx(1.0, abs=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            analysis.alternate_xyz(3, 1.2)
        with pytest.raises(ValueError):
            analysis.alternate_xyz(3, np.array([0.2, -0.1]))

    @pytest.mark.parametrize("n", [2, 5, 12, 50])
    def test_array_parameter_matches_scalar(self, n):
        grid = np.linspace(0.0, 1.0, 9)
        got = analysis.alternate_xyz(n, grid)
        for k, a in enumerate(grid):
            one = analysis.alternate_xyz(n, float(a))
            assert np.allclose([got.x[k], got.y[k], got.z[k]], [one.x, one.y, one.z],
                               atol=1e-15, rtol=0)


def _alternate_loop(n: int, a: float) -> tuple[float, ...]:
    """x, y, z, dy/da and dz/da summed term by term over the spin strata."""
    terms = []  # (sum, coefficient, exponent of a); the exponent of 1 - a is n minus it
    for ss in range(1 if n % 2 == 0 else 0, n, 2):
        s = ss / 2
        common = math.comb(n, (n - 1 - ss) // 2) / (2 * (ss + 1))
        wa, wb = (n + 1) / 2 - s, (n + 3) / 2 + s
        for mm in range(-ss, ss + 1, 2):
            m = mm / 2
            terms += [
                ("x", common * ((s - m) / math.sqrt(wa) + (s + m + 1) / math.sqrt(wb)) ** 2,
                 (n + 1) / 2 + m),
                ("y", common * (s + m) * (s - m + 1) * (1 / math.sqrt(wa) - 1 / math.sqrt(wb)) ** 2,
                 (n - 1) / 2 + m),
                ("z", common * ((s * s - m * m) / wa + 2 * (s * s + m * m + s) / math.sqrt(wa * wb)
                                + ((s + 1) ** 2 - m * m) / wb), n / 2 + m),
            ]
    for mm in range(-(n + 1), n + 2, 2):
        m = mm / 2
        ce = ((n + 1) / 2 + m) * ((n + 1) / 2 - m) / (2 * n * (n + 1))
        terms += [("x", ce, (n + 1) / 2 + m), ("z", -ce, n / 2 + m),
                  ("y", ((n - 1) / 2 + m) * ((n + 1) / 2 + m) / (2 * n * (n + 1)), (n - 1) / 2 + m)]
    out = dict.fromkeys(("x", "y", "z", "dy", "dz"), 0.0)
    for which, c, e in terms:
        if c:
            f = n - e
            out[which] += c * a ** e * (1 - a) ** f
            if which != "x":
                out["d" + which] += c * (e * a ** (e - 1) * (1 - a) ** f
                                         - f * a ** e * (1 - a) ** (f - 1))
    return tuple(out.values())


class TestAlternateTable:
    @pytest.mark.parametrize("n", list(range(2, 13)) + [50])
    def test_matches_term_by_term_sums(self, n):
        # the table merges like terms and sums them in another order
        for a in np.linspace(0.05, 0.95, 7):
            x, y, z, dy, dz = _alternate_loop(n, float(a))
            v = analysis.alternate_xyz(n, float(a))
            d = analysis.alternate_derivatives(n, float(a))
            assert max(abs(v.x - x), abs(v.y - y), abs(v.z - z)) <= 1e-14
            assert max(abs(d.dy_da - dy), abs(d.dz_da - dz)) <= 1e-12

    @pytest.mark.parametrize("n", [1030, 1100, 1500])
    def test_no_overflow_past_a_thousand_ports(self, n):
        # the binomial weights pass 1e308 at about 1020 ports
        got = analysis.alternate_choi(n, 0.5)
        assert max_abs(got, analysis.depolarizing_choi(analysis.xi(n))) <= 1e-12
        for a in (0.0, 0.3, 0.7, 1.0):
            assert np.isfinite(list(vars(analysis.alternate_xyz(n, a)).values())).all()
        # the derivatives are singular at a = 0 and 1
        for a in (0.3, 0.7):
            assert np.isfinite(list(vars(analysis.alternate_derivatives(n, a)).values())).all()


@pytest.mark.parametrize("n", [1, 0, -1])
@pytest.mark.parametrize("call", [
    lambda n: analysis.alternate_choi(n, 0.5),
    lambda n: analysis.alternate_xyz(n, 0.3),
    lambda n: analysis.alternate_xyz(n, np.linspace(0.0, 1.0, 5)),
    lambda n: analysis.alternate_known_point(n, 0.5),
    lambda n: analysis.alternate_trace_min_a(n, 0.4),
    lambda n: analysis.symmetric_sum_curvature(n),
    lambda n: analysis.alternate_derivatives(n, 0.7),
], ids=["choi", "xyz", "xyz_array", "known_point", "trace_min_a", "curvature", "derivatives"])
def test_alternate_needs_two_ports(n, call):
    # the message xi and the Choi route give; before, n = 1 gave a matrix or
    # None, and n <= 0 an IndexError or RuntimeWarnings
    with pytest.raises(ValueError, match="at least two ports are required"):
        call(n)


@pytest.mark.parametrize("p", [1.5, -0.2, math.nan])
@pytest.mark.parametrize("call", [
    lambda p: analysis.alternate_known_point(4, p),
    lambda p: analysis.alternate_trace_min_a(4, p),
    lambda p: analysis.trace_min_location(4, p),
    lambda p: analysis.difference_spectrum(4, p, 0.3),
    lambda p: analysis.difference_spectrum(4, 0.3, p),
], ids=["known_point", "trace_min_a", "trace_min_location", "spectrum_p0", "spectrum_p1"])
def test_damping_roots_need_a_probability(p, call):
    # before, the first two returned None ("p0 not reachable") and the others
    # ended in a math domain error, or Brent's method's nan error
    with pytest.raises(ValueError, match=r"damping probability out of \[0,1\]"):
        call(p)


class TestAlternateKnownPoint:
    def test_reachable_range_starts_at_xi(self):
        # at a = 1/2 the known-point condition forces p0 = xi(n)
        for n in (3, 4):
            x = analysis.xi(n)
            got = analysis.alternate_known_point(n, x + 1e-6)
            assert got is not None
            assert got[0] == pytest.approx(0.5, abs=0.05)
            assert analysis.alternate_known_point(n, 0.9 * x) is None

    def test_bounds_collapse_and_numeric_match(self):
        n, p0 = 4, 0.45
        a_known, d2 = analysis.alternate_known_point(n, p0)
        target = analysis.ad_choi(p0, "plus")
        out = analysis.alternate_choi(n, a_known)
        lower, upper = analysis.diamond_bounds(out, target)
        assert abs(upper - lower) <= 1e-9
        assert d2 == pytest.approx(lower, abs=1e-9)
        num = analysis.diamond_numeric(out, target)
        assert num == pytest.approx(d2, abs=1e-9)

    def test_trace_min_solver(self):
        n = 4
        x = analysis.xi(n)
        a = analysis.alternate_trace_min_a(n, x / 2)
        assert a == pytest.approx(0.5, abs=1e-5)
        a = analysis.alternate_trace_min_a(n, 0.4)
        assert analysis.alternate_xyz(n, a).y == pytest.approx(0.2, abs=1e-10)


class TestAlternateDerivatives:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("a", [0.51, 0.6, 0.75, 0.9])
    def test_matches_finite_differences(self, n, a):
        d = analysis.alternate_derivatives(n, a)
        h = 1e-6
        fd_y = (analysis.alternate_xyz(n, a + h).y - analysis.alternate_xyz(n, a - h).y) / (2 * h)
        fd_z = (analysis.alternate_xyz(n, a + h).z - analysis.alternate_xyz(n, a - h).z) / (2 * h)
        assert d.dy_da == pytest.approx(fd_y, rel=1e-5)
        assert d.dz_da == pytest.approx(fd_z, rel=1e-5, abs=1e-9)

    def test_dp0_matches_finite_differences(self):
        n, a, h = 5, 0.7, 1e-6
        d = analysis.alternate_derivatives(n, a)

        def p0_of(v):
            w = analysis.alternate_xyz(n, v)
            return 1 - 2 * (w.x - w.y)

        fd = (p0_of(a + h) - p0_of(a - h)) / (2 * h)
        assert d.dp0_da == pytest.approx(fd, rel=1e-5)

    def test_dy_positive_near_half(self):
        for n in (2, 4, 6):
            assert analysis.alternate_derivatives(n, 0.505).dy_da > 0

    def test_dz_vanishes_at_half(self):
        for n in (3, 5):
            vals = [abs(analysis.alternate_derivatives(n, 0.5 + eps).dz_da)
                    for eps in (0.05, 0.01, 0.001)]
            assert vals[2] < vals[1] < vals[0]
            assert vals[2] < 1e-2

    def test_endpoints_rejected(self):
        with pytest.raises(ValueError):
            analysis.alternate_derivatives(3, 0.0)

    def test_symmetric_curvature_exact_values(self):
        # exact differentiation of the n = 2 and n = 3 sums
        assert abs(analysis.symmetric_sum_curvature(2) - 2 / math.sqrt(3)) <= 1e-13
        assert abs(analysis.symmetric_sum_curvature(3) - 2.0) <= 1e-13

    def test_symmetric_curvature_positive(self):
        # a = 1/2 is a local minimum of y[a] + y[1-a] for every tested n
        for n in range(2, 11):
            assert analysis.symmetric_sum_curvature(n) > 0
