"""The package's own routines against the scipy ones they replace.

``analysis._brentq`` stands for ``scipy.optimize.brentq``, ``linalg.xlogy``
for ``scipy.special.xlogy``, and the Cholesky test of
``resources._check_state`` for a direct LAPACK ``potrf`` call.  scipy is
imported here only, as the reference.
"""

import math

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs
from scipy.optimize import brentq
from scipy.special import xlogy as scipy_xlogy

from pbtsim import analysis
from pbtsim.linalg import kron_power, xlogy
from pbtsim.resources import FILE_ATOL, _check_state, ad_choi_port, alternate_port, bell_port

from conftest import random_density


def _bits(x) -> tuple:
    a = np.asarray(x, dtype=float)
    return a.shape, a.tobytes()


def _scipy_xlogy(x, y):
    # scipy's ufunc warns at log(0) and log(-1), which the tests turn into errors
    with np.errstate(divide="ignore", invalid="ignore"):
        return scipy_xlogy(x, y)


# ----------------------------------------------------------------------------
# Brent's method
# ----------------------------------------------------------------------------

def _traced(f):
    """f, and the list of the points it is evaluated at."""
    points = []

    def g(x):
        points.append(x)
        return f(x)

    return g, points


def _both(f, a, b, xtol):
    """(outcome, evaluation points) of scipy's brentq and of ``_brentq``; an
    outcome is the root, or the exception's type."""
    runs = []
    for solve in (brentq, analysis._brentq):
        g, points = _traced(f)
        try:
            outcome = solve(g, a, b, xtol=xtol)
        except (ValueError, RuntimeError) as exc:
            outcome = type(exc)
        runs.append((outcome, points))
    return runs


class TestBrentq:
    @pytest.fixture
    def scipy_roots(self, monkeypatch):
        """Runs a function once with ``_brentq`` and once with scipy's brentq in
        its place; returns both results and how many roots were refined."""

        def run(fn, *args):
            ours = fn(*args)
            calls = []

            def reference(f, a, b, xtol):
                calls.append(1)
                return brentq(f, a, b, xtol=xtol)

            with monkeypatch.context() as m:
                m.setattr(analysis, "_brentq", reference)
                theirs = fn(*args)
            return ours, theirs, len(calls)

        return run

    @pytest.mark.parametrize("fn", [analysis.alternate_known_point,
                                    analysis.alternate_trace_min_a,
                                    analysis.trace_min_location])
    def test_package_roots_equal_scipy(self, scipy_roots, fn):
        refined = 0
        for n in (2, 3, 4, 5, 6, 8, 12, 50):
            for p0 in np.linspace(0.0, 1.0, 41).tolist() + [0.36, 0.7, 0.95, 0.999703450964]:
                ours, theirs, calls = scipy_roots(fn, n, p0)
                assert ours == theirs, (n, p0)
                refined += calls
        # most grid points reach Brent's method, not only the sampled grid
        assert refined >= 100

    def test_generic_brackets_equal_scipy(self):
        rng = np.random.default_rng(2911)
        shapes = [
            lambda r, c: lambda x: (x - r) * (c * c + 1) + c * (x - r) ** 3,
            lambda r, c: lambda x: math.tanh(50 * (x - r)),
            lambda r, c: lambda x: math.exp(c * x) - math.exp(c * r),
            lambda r, c: lambda x: (x - r) ** 3,
            lambda r, c: lambda x: math.atan(x - r) + c * c * (x - r) ** 5,
        ]
        compared = 0
        while compared < 1500:
            r, c = rng.uniform(-2, 2), rng.normal()
            f = shapes[compared % len(shapes)](r, c)
            a, b = r - rng.uniform(1e-3, 3), r + rng.uniform(1e-3, 3)
            xtol = 10.0 ** rng.uniform(-15, -3)
            if f(a) * f(b) >= 0:
                continue
            (theirs, their_points), (ours, our_points) = _both(f, a, b, xtol)
            assert ours == theirs and our_points == their_points, (a, b, xtol)
            compared += 1

    @pytest.mark.parametrize("f, a, b, expected", [
        (lambda x: x, 0.0, 1.0, 0.0),                       # root at the left end
        (lambda x: x - 1, 0.0, 1.0, 1.0),                   # root at the right end
        (lambda x: -0.0 if x == 0 else x, 0.0, 1.0, 0.0),   # -0.0 at the left end
        (lambda x: -0.0 if x == 1 else x - 1, 0.0, 1.0, 1.0),
        (lambda x: -0.0 if abs(x - 0.5) < 0.1 else x - 0.5, 0.0, 1.0, 0.5),  # -0.0 inside
        (lambda x: x * x + 1, -1.0, 1.0, ValueError),       # one sign, positive
        (lambda x: -x * x - 1, -1.0, 1.0, ValueError),      # one sign, negative
        (lambda x: math.nan, 0.0, 1.0, ValueError),         # nan at an end
        (lambda x: math.nan if x > 0.3 else x - 0.5, 0.0, 1.0, ValueError),
        (lambda x: -1.0 if x < 1 else 1.0, -1e300, 1e300, RuntimeError),  # no convergence
    ], ids=["left_end", "right_end", "neg_zero_left", "neg_zero_right", "neg_zero_inside",
            "same_sign_pos", "same_sign_neg", "nan_end", "nan_inside", "no_convergence"])
    def test_edge_cases_equal_scipy(self, f, a, b, expected):
        (theirs, their_points), (ours, our_points) = _both(f, a, b, 1e-12)
        assert ours == theirs == expected
        assert our_points == their_points


# ----------------------------------------------------------------------------
# x log y
# ----------------------------------------------------------------------------

_XS = [
    np.array([0, 1, 2, 7]),                          # integers, as ProductTable passes
    np.array([0.0, -0.0, 0.5, 1.5, -2.5, 1e-300, 1e10, 3.0]),
    np.arange(0, 12.5, 0.5),                         # the alternate exponents
    np.array([[0, 1], [2, 0]]),
]


class TestXlogy:
    @pytest.mark.parametrize("y", [0.0, 5e-324, 1e-300, 1e-5, 0.3, 0.5, 1 - 2 ** -53, 1.0,
                                   1.7, 2.0, 1e300, np.float64(0.0), np.float64(0.65)])
    @pytest.mark.parametrize("k", range(len(_XS)))
    def test_float_y_bitwise_equal(self, k, y):
        x = _XS[k]
        assert _bits(xlogy(x, y)) == _bits(_scipy_xlogy(x, y))

    @pytest.mark.parametrize("y", [0.0, 0.2, 1.0, 3.5])
    @pytest.mark.parametrize("x", [0, 0.0, 2, 1.5, -0.5])
    def test_scalar_x_bitwise_equal(self, x, y):
        assert _bits(xlogy(x, y)) == _bits(_scipy_xlogy(x, y))

    def test_float_y_keeps_the_zero_rule(self):
        x = np.array([0.0, 2.0, -2.0])
        np.testing.assert_array_equal(xlogy(x, 0.0), [0.0, -math.inf, math.inf])
        assert not np.signbit(xlogy(x, 0.25)[0])  # +0.0, not 0 * log(1/4) = -0.0

    @pytest.mark.parametrize("y", [math.inf, math.nan, -1.0])
    def test_float_y_outside_the_domain_follows_scipy(self, y):
        x = _XS[1]
        np.testing.assert_array_equal(xlogy(x, y), _scipy_xlogy(x, y))

    def test_array_y_close_with_the_same_zero_rule(self):
        rng = np.random.default_rng(29)
        e = np.arange(0, 20.5, 0.5)
        for y in (rng.uniform(0, 2, size=(256, 1)),
                  np.linspace(0.0, 2.0, 256)[:, None],
                  np.array([[0.0], [1.0], [2.0], [math.inf], [math.nan]])):
            ours, theirs = xlogy(e, y), _scipy_xlogy(e, y)
            assert ours.shape == theirs.shape
            np.testing.assert_array_equal(np.isnan(ours), np.isnan(theirs))
            np.testing.assert_array_equal(ours[np.isinf(theirs)], theirs[np.isinf(theirs)])
            np.testing.assert_array_equal(ours[:, e == 0], theirs[:, e == 0])
            finite = np.isfinite(theirs)
            np.testing.assert_allclose(ours[finite], theirs[finite], rtol=1e-15, atol=0)


# ----------------------------------------------------------------------------
# the positivity test of a resource state
# ----------------------------------------------------------------------------

def _potrf_accepts(op: np.ndarray) -> bool:
    """The replaced test: LAPACK potrf on op + FILE_ATOL, read in Fortran
    order (the upper triangle of op)."""
    if not np.isfinite(op).all():
        return False
    shifted = np.array(op)
    shifted.flat[::len(shifted) + 1] += FILE_ATOL
    potrf, = get_lapack_funcs(("potrf",), (shifted,))
    return potrf(shifted.T, lower=True, overwrite_a=True, clean=False)[1] == 0


def _accepts(op: np.ndarray) -> bool:
    try:
        _check_state(op, "state", len(op))
    except ValueError as exc:
        assert "not positive semidefinite" in str(exc) or "nan or inf" in str(exc), exc
        return False
    return True


def _with_lowest_eigenvalue(dim: int, lowest: float, rng) -> np.ndarray:
    """A random state of unit trace whose smallest eigenvalue is ``lowest``."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    w = rng.uniform(0.1, 1.0, size=dim)
    w[1:] *= (1 - lowest) / w[1:].sum()
    w[0] = lowest
    op = (q * w) @ q.conj().T
    return (op + op.conj().T) / 2


def _seeded_states():
    rng = np.random.default_rng(2029)
    states = []
    for dim in (2, 4, 8, 16, 32, 64):
        states += [random_density(dim, rng) for _ in range(4)]
    pure = [np.outer(v, v.conj()) for v in
            (u / np.linalg.norm(u) for u in rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))]
    states += [np.kron(pure[0], pure[1]), kron_power(pure[2], 4), np.kron(pure[3], bell_port())]
    states += [kron_power(port, k) for port in (bell_port(), ad_choi_port(0.0), ad_choi_port(0.3),
                                               ad_choi_port(1.0), alternate_port(0.13))
               for k in (1, 2, 3)]
    for lowest in (-5e-9, -2e-8, -1e-6, 0.0, 1e-9):
        states += [_with_lowest_eigenvalue(dim, lowest, rng) for dim in (4, 16)]
    nan = random_density(4, rng)
    nan[1, 2] = math.nan
    return states + [nan]


class TestCheckState:
    def test_accepts_and_rejects_as_potrf(self):
        states = _seeded_states()
        ours = [_accepts(op) for op in states]
        assert ours == [_potrf_accepts(op) for op in states]
        assert 0 < sum(ours) < len(ours)

    @pytest.mark.parametrize("lowest, accepted", [(-5e-9, True), (-2e-8, False)])
    def test_tolerance_edge(self, lowest, accepted):
        rng = np.random.default_rng(7)
        for dim in (2, 4, 32):
            op = _with_lowest_eigenvalue(dim, lowest, rng)
            assert _accepts(op) is accepted
            assert _potrf_accepts(op) is accepted
