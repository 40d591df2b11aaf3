"""Acceptance suite: one test per numbered criterion, each printing a
PASS line with its measured margins.  Heavy sweeps go through the CLI with
coarser grids (a documented override); every numeric diamond value is still
certified against its analytic bounds.
"""

import csv
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from pbtsim import analysis, cli
from pbtsim.choi import choi_from_reduced
from pbtsim.kraus import apply_protocol, choi_from_kraus, choi_to_kraus, protocol_kraus
from pbtsim.linalg import max_abs
from pbtsim.oracle import oracle_choi
from pbtsim.resources import (AdChoi, Alternate, Bell, make_family,
                              reduce_full, reduced_port_state,
                              trace_to_first_port)

from conftest import random_choi, random_symmetric_resource

FAMILIES = [Bell(), AdChoi(0.0), AdChoi(0.3), AdChoi(0.7), AdChoi(1.0),
            Alternate(0.1), Alternate(0.5), Alternate(0.9)]

SEED = 20240817


@contextmanager
def criterion(k: int, summary: str):
    try:
        yield
    except AssertionError as exc:
        print(f"AC-{k:02d} FAIL: {summary}: {exc}")
        raise
    print(f"AC-{k:02d} PASS: {summary}")


def _read_csv(path: Path) -> list[dict]:
    with open(path) as fh:
        return [
            {k: float(v) for k, v in row.items()}
            for row in csv.DictReader(fh)
        ]


@pytest.fixture(scope="module")
def figure_data(tmp_path_factory):
    """CSV datasets behind the four figures, generated through the CLI."""
    out = tmp_path_factory.mktemp("figures")
    assert cli.main(["figure", "--id", "1", "--out", str(out), "--step", "0.04"]) == 0
    assert cli.main(["figure", "--id", "3", "--out", str(out), "--step", "0.04"]) == 0
    assert cli.main(["figure", "--id", "4", "--out", str(out), "--step", "0.1"]) == 0
    sweep = out / "adsweep.csv"
    assert cli.main(["ad-sweep", "--ports", "4", "--p0", "0.36", "--family", "choi",
                     "--grid", "0:0.9:0.06", "--out", str(sweep)]) == 0
    return {p.name: _read_csv(p) for p in sorted(out.glob("*.csv"))}


def test_ac01_depolarising_probability():
    with criterion(1, "xi closed form vs dense oracle"):
        start = time.perf_counter()
        assert abs(analysis.xi(2) - (6 - math.sqrt(3)) / 6) <= 1e-12
        for n, expect in ((3, 0.5), (4, None)):
            oracle_xi = 4 * oracle_choi(make_family(Bell(), n))[1, 1].real
            assert abs(analysis.xi(n) - oracle_xi) <= 1e-12
            if expect is not None:
                assert abs(analysis.xi(n) - expect) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_ac02_oracle_equivalence(rng):
    with criterion(2, "assemble_choi == oracle_choi on families and random states"):
        start = time.perf_counter()
        worst = 0.0
        for n in (2, 3, 4, 5):
            for family in FAMILIES:
                red = make_family(family, n)
                worst = max(worst, max_abs(choi_from_reduced(red), oracle_choi(red)))
        gen = np.random.default_rng(SEED)
        for n, count in ((2, 7), (3, 7), (4, 6)):
            for _ in range(count):
                red = reduce_full(random_symmetric_resource(n, gen))
                worst = max(worst, max_abs(choi_from_reduced(red), oracle_choi(red)))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-10, f"max deviation {worst:.3e}"
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_ac03_bell_resource_is_depolarising():
    with criterion(3, "Bell ports enact the depolarising channel, n = 2..8"):
        worst = 0.0
        for n in range(2, 9):
            c = choi_from_reduced(make_family(Bell(), n))
            worst = max(worst, max_abs(c, analysis.depolarizing_choi(analysis.xi(n))))
        assert worst <= 1e-10, f"max deviation {worst:.3e}"


def test_ac04_damping_choi_closed_form():
    with criterion(4, "damping-resource closed form == full pipeline, n = 2..8"):
        worst = 0.0
        for n in range(2, 9):
            for p1 in np.arange(0.0, 1.0 + 1e-12, 0.05):
                c = choi_from_reduced(make_family(AdChoi(float(p1)), n))
                worst = max(worst, max_abs(c, analysis.pbt_ad_choi(n, float(p1))))
        assert worst <= 1e-10, f"max deviation {worst:.3e}"


def test_ac05_known_point_collapse():
    with criterion(5, "diamond bounds collapse at both known points"):
        worst_gap = 0.0
        worst_numeric = 0.0
        worst_analytic = 0.0
        for n in (2, 3, 4, 6):
            x = analysis.xi(n)
            for p0 in (0.3, 0.5, 0.8):
                kp = analysis.ad_known_points(n, p0)
                target = analysis.ad_choi(p0, "plus")
                points = [(kp.p1_a, kp.d0)]
                if p0 >= x:
                    assert kp.p1_b is not None
                    points.append((kp.p1_b, kp.d1))
                else:
                    assert kp.p1_b is None
                for p1, d_analytic in points:
                    out = analysis.pbt_ad_choi(n, p1)
                    lower, upper = analysis.diamond_bounds(out, target)
                    worst_gap = max(worst_gap, abs(upper - lower))
                    worst_analytic = max(worst_analytic, abs(lower - d_analytic))
                    num = analysis.diamond_numeric(out, target)
                    worst_numeric = max(worst_numeric, abs(num - d_analytic))
        assert worst_gap <= 1e-9, f"bound gap {worst_gap:.3e}"
        assert worst_analytic <= 1e-9, f"analytic mismatch {worst_analytic:.3e}"
        assert worst_numeric <= 1e-4, f"numeric mismatch {worst_numeric:.3e}"


def test_ac06_second_point_wins_at_six_ports():
    with criterion(6, "d1 <= d0 on the p0 grid for n = 6..10"):
        for n in range(6, 11):
            x = analysis.xi(n)
            p0 = x
            while p0 < 0.99 + 1e-12:
                kp = analysis.ad_known_points(n, p0)
                assert kp.d1 is not None
                assert kp.d1 <= kp.d0 + 1e-12, f"n={n} p0={p0:.2f}: {kp.d1} > {kp.d0}"
                p0 += 0.01


def test_ac07_trace_norm_minimum_location():
    with criterion(7, "trace-norm minimiser on a 1e-4 grid, n = 4"):
        n = 4
        x = analysis.xi(n)
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-4)

        def grid_argmin(p0):
            target = analysis.ad_choi(p0, "plus")
            vals = [analysis.trace_norm(analysis.pbt_ad_choi(n, p1), target) for p1 in grid]
            return float(grid[int(np.argmin(vals))])

        for p0 in (0.36, 0.7):
            formula = (2 * p0 - x) / (2 - x)
            assert abs(grid_argmin(p0) - formula) <= 1e-4 + 1e-12
        for p0 in (0.85, 0.95):
            formula = (2 * p0 - x) / (2 - x)
            found = grid_argmin(p0)
            assert found < formula - 1e-4, f"p0={p0}: minimum {found} not below {formula}"
            if p0 == 0.95:
                assert found < (p0 - x) / (1 - x), "minimum not outside the known-point bracket"


def test_ac08_difference_spectrum():
    with criterion(8, "p0_cross limit and difference eigenvalues on the grid"):
        assert analysis.p0_cross(0.0) == 2 / 3
        worst = 0.0
        for n in (3, 4, 6):
            for p0 in np.linspace(0.0, 1.0, 100):
                for p1 in np.linspace(0.0, 1.0, 100):
                    s = analysis.difference_spectrum(n, float(p0), float(p1))
                    assert s.e3 <= 1e-12 and s.e4 >= -1e-12
                    diff = analysis.pbt_ad_choi(n, float(p1)) - analysis.ad_choi(float(p0), "plus")
                    dense = np.sort(np.linalg.eigvalsh(diff))
                    worst = max(worst, float(np.max(np.abs(
                        dense - np.sort([s.e1, s.e2, s.e3, s.e4])))))
        assert worst <= 1e-12, f"eigenvalue mismatch {worst:.3e}"


def test_ac09_alternate_derivatives():
    with criterion(9, "analytic derivatives; symmetric-sum curvature matches the dense oracle"):
        h = 1e-6
        for n in range(2, 9):
            for a in (0.51, 0.6, 0.75, 0.9):
                d = analysis.alternate_derivatives(n, a)
                fd_y = (analysis.alternate_xyz(n, a + h).y
                        - analysis.alternate_xyz(n, a - h).y) / (2 * h)
                fd_z = (analysis.alternate_xyz(n, a + h).z
                        - analysis.alternate_xyz(n, a - h).z) / (2 * h)
                assert abs(d.dy_da - fd_y) <= 1e-5 * abs(fd_y)
                assert abs(d.dz_da - fd_z) <= 1e-5 * max(abs(fd_z), 1e-9)
        # the exact curvature of y[a] + y[1-a] at a = 1/2 against a
        # five-point stencil on the dense square-root-measurement oracle,
        # which shares no code with the spin-basis sums
        curv = {n: analysis.symmetric_sum_curvature(n) for n in range(2, 11)}
        for n in range(2, 7):
            dense = _oracle_symmetric_sum_curvature(n)
            assert abs(curv[n] - dense) <= 1e-6, f"n={n}: {curv[n]:.9f} vs oracle {dense:.9f}"
        # exact differentiation of the n=2 and n=3 sums
        for n, exact in ((2, 2 / math.sqrt(3)), (3, 2.0)):
            assert abs(curv[n] - exact) <= 1e-8, f"n={n}: {curv[n]:.12f} vs exact {exact:.12f}"
        msg = "curvature sequence n=2..10: " + ", ".join(f"{c:.6f}" for c in curv.values())
        assert all(c > 0 for c in curv.values()), f"not positive; {msg}"


def _oracle_symmetric_sum_curvature(n: int, h: float = 1e-3) -> float:
    """Five-point second derivative of y[a] + y[1-a] at a = 1/2, by the oracle."""

    def w(a: float) -> float:
        return sum(oracle_choi(make_family(Alternate(b), n))[2, 2].real for b in (a, 1 - a))

    return (
        -w(0.5 + 2 * h) + 16 * w(0.5 + h) - 30 * w(0.5) + 16 * w(0.5 - h) - w(0.5 - 2 * h)
    ) / (12 * h * h)


def test_ac10_alternate_resource_advantage(figure_data):
    with criterion(10, "alternate resource beats every damping-Choi resource at low p0"):
        for n, p0 in ((4, 0.36), (6, 0.25)):
            target = analysis.ad_choi(p0, "plus")
            best_choi = min(
                analysis.diamond_numeric(analysis.pbt_ad_choi(n, float(p1)), target)
                for p1 in np.arange(0.0, p0 + 1e-12, 0.01)
            )
            best_alt = min(
                analysis.diamond_numeric(analysis.alternate_choi(n, float(a)), target)
                for a in np.arange(0.5, 0.8 + 1e-12, 0.01)
            )
            assert best_alt < best_choi, f"n={n} p0={p0}: {best_alt} !< {best_choi}"

        # figure 3 caption: the alternate known point beats both damping-resource
        # known points, and the sweep minimum beats the damping sweep minimum
        for p0 in (0.36, 0.7):
            kp = analysis.ad_known_points(4, p0)
            a_known, d2 = analysis.alternate_known_point(4, p0)
            assert d2 < kp.d0 and d2 < kp.d1
            alt_rows = figure_data[f"fig3_p0_{p0:g}.csv"]
            choi_rows = figure_data[f"fig1_p0_{p0:g}.csv"]
            alt_min = min(r["diamond_numeric"] for r in alt_rows)
            choi_min = min(r["diamond_numeric"] for r in choi_rows)
            assert alt_min < choi_min

        # figure 4 caption: resources coincide at the starting p0, then the
        # alternate resource is strictly better through low and mid p0
        for panel in ("fig4_left.csv", "fig4_right.csv"):
            rows = figure_data[panel]
            first = rows[0]
            assert abs(first["alt_diamond_numeric"] - first["choi_diamond_numeric"]) <= 1e-6
            low_mid = [r for r in rows[1:] if r["p0"] <= 0.9]
            assert low_mid, "no rows below p0 = 0.9"
            for r in low_mid:
                assert r["alt_diamond_numeric"] < r["choi_diamond_numeric"], (
                    f"{panel} p0={r['p0']}")
        # left panel rows sit at known points on both sides: bounds collapse
        for r in figure_data["fig4_left.csv"]:
            assert abs(r["choi_diamond_upper"] - r["choi_diamond_lower"]) <= 1e-9
            assert abs(r["alt_diamond_upper"] - r["alt_diamond_lower"]) <= 1e-9


def test_ac11_protocol_kraus_consistency(rng):
    with criterion(11, "protocol Kraus map and Choi<->Kraus round trip"):
        worst = 0.0
        worst_trace = 0.0
        for n in (2, 3, 4, 5):
            pk = protocol_kraus(n)
            for family in FAMILIES:
                got = apply_protocol(pk, reduced_port_state(family, n))
                want = choi_from_reduced(make_family(family, n))
                worst = max(worst, max_abs(got, want))
                worst_trace = max(worst_trace, abs(np.trace(got) - 1))
        gen = np.random.default_rng(SEED + 1)
        for n in (2, 3, 4):
            for _ in range(2):
                full = random_symmetric_resource(n, gen)
                got = apply_protocol(protocol_kraus(n), trace_to_first_port(full))
                want = choi_from_reduced(reduce_full(full))
                worst = max(worst, max_abs(got, want))
                worst_trace = max(worst_trace, abs(np.trace(got) - 1))
        assert worst <= 1e-10, f"max deviation {worst:.3e}"
        assert worst_trace <= 1e-10, f"trace defect {worst_trace:.3e}"

        gen = np.random.default_rng(SEED + 2)
        roundtrip = 0.0
        for _ in range(100):
            c = random_choi(gen)
            roundtrip = max(roundtrip, max_abs(choi_from_kraus(choi_to_kraus(c)), c))
        assert roundtrip <= 1e-12, f"round-trip deviation {roundtrip:.3e}"


def test_ac12_bound_sandwich_on_all_sweep_rows(figure_data):
    with criterion(12, "trace <= numeric <= upper bound on every CLI sweep row"):
        checked = 0
        for name, rows in figure_data.items():
            for row in rows:
                if "trace_norm" in row:
                    triples = [(row["trace_norm"], row["diamond_numeric"],
                                row["diamond_upper"])]
                else:
                    triples = [
                        (row["choi_trace_norm"], row["choi_diamond_numeric"],
                         row["choi_diamond_upper"]),
                        (row["alt_trace_norm"], row["alt_diamond_numeric"],
                         row["alt_diamond_upper"]),
                    ]
                for tn, num, upper in triples:
                    assert tn - 1e-6 <= num <= upper + 1e-6, f"{name}: {tn}, {num}, {upper}"
                    checked += 1
        assert checked > 100, f"only {checked} rows checked"
