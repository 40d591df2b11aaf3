"""Channel models, distance measures, and the amplitude-damping simulation study.

Closed forms for the depolarising probability of the protocol with maximally
entangled ports, the output Choi matrices for the damping-Choi and alternate
port families, the two parameter points where the diamond norm collapses onto
the trace norm, and the diamond norm as one ``Diamond`` result, the maximum
of a concave function of the input marginal kept with its maximiser and
witness.  Where the analytic bounds meet, the trace norm is the value; for
X-shaped Choi differences, every damping-study pair, a diagonal marginal is
optimal and the maximum is a golden-section search over one closed-form
variable; any other pair is searched over the Bloch ball by Nelder-Mead.  That search is the package's only use of scipy,
imported on its first call (``minimize``); the known-point and trace-minimum
roots come from ``_brentq``, Brent's method as scipy runs it, and the
alternate sums' x log y terms from ``linalg.xlogy``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# no longer called here; kept as a module attribute, which the benchmark's
# tracer patches (bench/tracing.py)
from .kraus import choi_to_kraus  # noqa: F401
from .choi import CHOI_ATOL
from .linalg import X_PAIRS, dag, herm_defect, partial_trace_qubits, x_matrix, xlogy


# ----------------------------------------------------------------------------
# depolarising probability and channel models
# ----------------------------------------------------------------------------

XI_MAX = (6 - math.sqrt(3)) / 6  # two-port value; decreasing in n


def xi(n: int) -> float:
    """Depolarising probability of the n-port protocol with Bell ports."""
    if n < 2:
        raise ValueError("at least two ports are required")
    total = 0.0
    for t in range((1 if n % 2 else 2), n + 1, 2):  # t = 2s + 1
        den = (n + 2) ** 2 - t * t
        # the binomial over 2^(n-4) is an exact int/int true division, so no
        # term overflows a float at large n
        total += ((t * t - 1) / 4 * (math.comb(n, (n - t) // 2) / 2 ** (n - 4))
                  * ((n + 2) - math.sqrt(den)) / den)
    return total / 3 + (n + 2) / (3 * 2 ** (n - 1))


def depolarizing_choi(xi_val: float) -> np.ndarray:
    """Choi matrix of the depolarising channel with probability xi_val."""
    if not 0 <= xi_val <= 4 / 3:
        raise ValueError(f"depolarising probability out of range: {xi_val}")
    return x_matrix((0.5 - xi_val / 4, xi_val / 4, xi_val / 4, 0.5 - xi_val / 4),
                    c03=0.5 - xi_val / 2)


def _check_damping(p: float) -> None:
    if not 0 <= p <= 1:  # a nan fails too
        raise ValueError(f"damping probability out of [0,1]: {p}")


def ad_choi(p: float, convention: str = "plus") -> np.ndarray:
    """Choi matrix of amplitude damping with probability p, relative to
    (|00> + |11>)/sqrt(2), the protocol's output convention.

    ``convention`` accepts only 'plus'.  The singlet-referenced matrix, the
    per-port resource convention, is ``resources.ad_choi_port``; the two
    differ by Y on the idler.
    """
    _check_damping(p)
    if convention != "plus":
        raise ValueError(f"unknown convention {convention!r}")
    return x_matrix((0.5, 0, p / 2, (1 - p) / 2), c03=math.sqrt(1 - p) / 2)


def pbt_ad_choi(n: int, p1: float) -> np.ndarray:
    """Closed-form output Choi for n damping-Choi ports with probability p1."""
    _check_damping(p1)
    x = xi(n)
    return x_matrix((0.5 - x / 4 * (1 - p1), x / 4 * (1 - p1), p1 * (0.5 - x / 4) + x / 4,
                     (1 - p1) * (0.5 - x / 4)),
                    c03=(0.5 - x / 2) * math.sqrt(1 - p1))


# ----------------------------------------------------------------------------
# distance measures
# ----------------------------------------------------------------------------

def _difference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x - y for two finite 4 x 4 Choi matrices, Hermitian within CHOI_ATOL: the
    X route reads its upper triangle, ``eigh`` and ``eigvalsh`` its lower."""
    x, y = np.asarray(x), np.asarray(y)
    if x.shape != (4, 4) or y.shape != (4, 4):
        raise ValueError(f"expected two 4 x 4 Choi matrices, got {x.shape} and {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("Choi matrix has a non-finite entry")
    if herm_defect(j := x - y) > CHOI_ATOL:
        raise ValueError(f"Choi difference is not Hermitian (defect {herm_defect(j):.3g})")
    return j


def trace_norm(x: np.ndarray, y: np.ndarray) -> float:
    """Sum of absolute eigenvalues of x - y."""
    return float(np.abs(np.linalg.eigvalsh(_difference(x, y))).sum())


def diamond_bounds(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(lower, upper) bounds on the diamond norm between two qubit channels.

    Lower bound is the trace norm of the Choi difference, upper bound twice
    the largest eigenvalue of its output-traced modulus, both from one
    ``eigh``.  They coincide when that partial trace is scalar.
    """
    w, v = np.linalg.eigh(_difference(x, y))
    traced = partial_trace_qubits((v * np.abs(w)) @ dag(v), 2, [0])
    return float(np.abs(w).sum()), 2.0 * float(np.linalg.eigvalsh(traced).max())


def _fold(r: np.ndarray) -> np.ndarray:
    """Fold a radius above 1 back into [0, 1] as a triangle wave of period 2.

    The search space is all of R^3, and every point maps into the Bloch
    ball with the objective continuous and nowhere constant: clipping to the
    sphere would leave a plateau outside it, where a simplex stalls.
    """
    length = math.sqrt(float(r @ r))
    if length <= 1:
        return r
    return r * (1 - abs(length % 2 - 1)) / length


def _sqrt_marginal(r: np.ndarray) -> np.ndarray:
    """Square root of the qubit state rho with Bloch vector r in the unit ball:
    (rho + sqrt(det rho)) / sqrt(1 + 2 sqrt(det rho))."""
    x, y, z = (float(t) for t in r)
    root_det = 0.5 * math.sqrt(max(1 - (x * x + y * y + z * z), 0.0))
    scale = 2 * math.sqrt(1 + 2 * root_det)
    off = complex(x, -y) / scale
    return np.array([[(1 + z + 2 * root_det) / scale, off],
                     [off.conjugate(), (1 - z + 2 * root_det) / scale]])


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call: the Bloch-ball
    search is the only user of scipy, and no CLI command reaches it."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


# Nelder-Mead runs per diamond norm at most; sweep points need 2-3
MAX_SEARCH_RUNS = 10
_NELDER_MEAD = {"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000}
# bounds closer than this certify the trace norm as the diamond norm; an
# off-X part whose entries sum to at most half of it moves the norm by no more
CERTIFIED_GAP = 1e-12
# the entries of a 4 x 4 Choi matrix off its X, the diagonal and antidiagonal
_OFF_X = x_matrix((1, 1, 1, 1), 1, 1) == 0
_GOLDEN = (math.sqrt(5) - 1) / 2
# width of the final bracket of the golden-section search over p
_GOLDEN_XTOL = 1e-13


@dataclass(frozen=True, eq=False)  # by identity: == on its array fields has no truth value
class Diamond:
    """Diamond norm ``value`` of J = x - y, its bounds and ``route`` (``diamond``):
    2 ||K||_1 with K = (sqrt(rho) (x) 1) J (sqrt(rho) (x) 1) at the maximising
    input marginal rho, which is stored by its square root."""

    lower: float
    upper: float
    route: str
    value: float
    sqrt_rho: np.ndarray
    J: np.ndarray

    @property
    def rho(self) -> np.ndarray:
        return self.sqrt_rho @ self.sqrt_rho

    @cached_property
    def W(self) -> np.ndarray:
        """Watrous' witness (sqrt(rho) (x) 1) sign(K) (sqrt(rho) (x) 1): it lies
        between -rho (x) 1 and rho (x) 1, and 2 Tr[W J] = value."""
        s = np.kron(self.sqrt_rho, np.eye(2))
        w, v = np.linalg.eigh(s @ self.J @ s)
        witness = s @ (v * np.sign(w)) @ dag(v) @ s
        witness.flags.writeable = False
        return witness


def diamond(x: np.ndarray, y: np.ndarray) -> Diamond:
    """Diamond norm by maximising over the input marginal rho.

    The value 2 ||(sqrt(rho) (x) 1) J (sqrt(rho) (x) 1)||_1 of the Choi
    difference J is concave in rho (Watrous' SDP, arXiv:1207.5726), so a
    local search finds the global maximum.  Three routes, in this order:

    1. "bounds": at rho = 1/2 the objective is the trace-norm lower bound of
       ``diamond_bounds``, and the upper bound is the dual value of the same
       point, so when the two meet within CERTIFIED_GAP it is the value.
    2. "x": when J is X-shaped (nonzero only on the diagonal and at (0, 3),
       (1, 2) and their conjugates, as every damping-study pair is), J is
       invariant under conjugation by Z (x) Z, so the objective takes the
       same value at rho and Z rho Z, and by concavity their average
       diag(rho) does at least as well.  So a diagonal marginal
       diag(p, 1 - p) is optimal, where the objective is closed form
       (``_diamond_x_shaped``), maximised over p by golden section.  The
       X shape is decided by a bound: the off-X part E of J changes the
       objective by at most 2 ||E||_1 <= 2 sum |E_kl|, and the route is taken
       when that is at most CERTIFIED_GAP.
    3. "search": otherwise Nelder-Mead searches the Bloch ball
       (``_diamond_search``).
    """
    lower, upper = diamond_bounds(x, y)
    j = np.asarray(x) - np.asarray(y)
    if upper - lower <= CERTIFIED_GAP:
        route, value, sqrt_rho = "bounds", lower, np.eye(2) / math.sqrt(2)
    elif 2.0 * float(np.abs(j[_OFF_X]).sum()) <= CERTIFIED_GAP:
        route, (value, sqrt_rho) = "x", _diamond_x_shaped(j)
    else:
        route, (value, sqrt_rho) = "search", _diamond_search(j)
    # read-only, as the frozen result and the witness cached from them are
    j.flags.writeable = sqrt_rho.flags.writeable = False
    return Diamond(lower, upper, route, value, sqrt_rho, j)


def diamond_numeric(x: np.ndarray, y: np.ndarray, seed: int = 0, restarts: int = 64) -> float:
    """``diamond(x, y).value``.  ``seed`` and ``restarts`` are ignored: the
    benchmark's workloads pass them, and ROADMAP item 1 removes them."""
    return diamond(x, y).value


def _diamond_x_shaped(j: np.ndarray) -> tuple[float, np.ndarray]:
    """(maximum, sqrt(rho)) over diagonal marginals rho, from the X entries of j.

    At rho = diag(p, 1 - p) the weighted difference splits into the 2 x 2
    blocks {0, 3} and {1, 2}, each [[a, c], [c*, b]] with a = p j_kk,
    b = (1 - p) j_ll and |c|^2 = p (1 - p) |j_kl|^2, whose trace norm is
    max(|a + b|, 2 sqrt(((a - b)/2)^2 + |c|^2)).  The objective is concave in
    p; golden section in scalar arithmetic brackets its maximum, and the
    endpoints and p = 1/2 (the trace norm) are compared as well, so the
    value never falls below the trace-norm lower bound.
    """
    blocks = [(float(j[k, k].real), float(j[l, l].real), abs(complex(j[k, l])) ** 2)
              for k, l in X_PAIRS]

    def objective(p: float) -> float:
        q = 1.0 - p
        total = 0.0
        for jkk, jll, c2 in blocks:
            a, b = p * jkk, q * jll
            total += max(abs(a + b), 2.0 * math.sqrt(((a - b) / 2) ** 2 + p * q * c2))
        return 2.0 * total

    lo, hi, p1, p2 = 0.0, 1.0, 1.0 - _GOLDEN, _GOLDEN
    f1, f2 = objective(p1), objective(p2)
    while hi - lo > _GOLDEN_XTOL:
        if f1 < f2:
            lo, p1, f1 = p1, p2, f2
            p2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(p2)
        else:
            hi, p2, f2 = p2, p1, f1
            p1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(p1)
    value, p = max((f1, p1), (f2, p2), *((objective(p), p) for p in (0.0, 0.5, 1.0)))
    return value, np.diag(np.sqrt([p, 1 - p]))


def _diamond_search(j: np.ndarray) -> tuple[float, np.ndarray]:
    """(maximum, sqrt(rho)) over all marginals rho, for any 4 x 4 difference j.

    Nelder-Mead starts at the maximally mixed marginal, so the result never
    falls below the trace norm, over Bloch vectors folded into the ball
    (``_fold``); it then restarts from the folded incumbent with a fresh
    simplex until a run gains no more than 1e-15.
    """
    # rows: idler; columns: (output, idler', output')
    j = np.asarray(j).reshape(2, 8)

    def neg(r: np.ndarray) -> float:
        s = _sqrt_marginal(_fold(r))
        half = (s @ j).reshape(4, 4)  # (s (x) 1) J
        k = s @ half.conj().T.reshape(2, 8)  # (s (x) 1) J (s (x) 1), Hermitian
        return -2.0 * float(np.abs(np.linalg.eigvalsh(k.reshape(4, 4))).sum())

    best = minimize(neg, np.zeros(3), method="Nelder-Mead", options=_NELDER_MEAD)
    for _ in range(MAX_SEARCH_RUNS - 1):
        res = minimize(neg, _fold(best.x), method="Nelder-Mead", options=_NELDER_MEAD)
        gain = best.fun - res.fun
        if gain > 0:
            best = res
        if gain <= 1e-15:
            break
    return float(-best.fun), _sqrt_marginal(_fold(best.x))


# ----------------------------------------------------------------------------
# root finding
# ----------------------------------------------------------------------------

# scipy's default and least relative tolerance, and its default iteration cap
_BRENT_RTOL = 4 * math.ulp(1.0)
_BRENT_MAXITER = 100


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Root of f in [xa, xb] by Brent's method, with rtol = 4 eps.

    Step for step the C routine behind ``scipy.optimize.brentq`` (brentq.c),
    so it returns scipy's root to the bit: an endpoint where f is 0 (of
    either sign) is the root, ValueError when f has one sign at both ends or
    a nan value, RuntimeError after 100 iterations.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is nan")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1, fpre) == math.copysign(1, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1, fpre) != math.copysign(1, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.nan  # a nan step fails the test below: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic extrapolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's step is inf or nan
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # a good short step
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"no root to tolerance after {_BRENT_MAXITER} iterations; last x={xcur}")


# ----------------------------------------------------------------------------
# damping-Choi resource study
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class AdKnownPoints:
    """The two resource parameters with analytically known diamond norm."""

    p1_a: float        # p1 = p0
    d0: float
    p1_b: float | None  # p1 = (p0 - xi)/(1 - xi); absent when p0 < xi
    d1: float | None


def ad_known_points(n: int, p0: float) -> AdKnownPoints:
    _check_damping(p0)
    x = xi(n)
    d0 = x * ((1 - p0) / 2 + math.sqrt(1 - p0))
    if p0 < x:
        return AdKnownPoints(p1_a=p0, d0=d0, p1_b=None, d1=None)
    p1_b = (p0 - x) / (1 - x)
    d1 = 0.5 * (
        (1 - p0) * x / (1 - x)
        + math.sqrt(4 * (1 - p0) * (1 - math.sqrt(1 - x)) ** 2 + (1 - p0) ** 2 * x * x / (1 - x) ** 2)
    )
    return AdKnownPoints(p1_a=p0, d0=d0, p1_b=p1_b, d1=d1)


@dataclass(frozen=True)
class DifferenceSpectrum:
    """Eigenvalues of the Choi difference for the damping-Choi resource."""

    e1: float
    e2: float
    e3: float
    e4: float
    c: float


def difference_spectrum(n: int, p0: float, p1: float) -> DifferenceSpectrum:
    _check_damping(p0)
    _check_damping(p1)
    x = xi(n)
    e1 = x / 4 * (1 - p1)
    e2 = e1 - (p0 - p1) / 2
    c = 0.5 * (math.sqrt(1 - p0) - (1 - x) * math.sqrt(1 - p1))
    root = math.sqrt((e1 - e2) ** 2 + 4 * c * c)
    e3 = -0.5 * ((e1 + e2) + root)
    e4 = -0.5 * ((e1 + e2) - root)
    return DifferenceSpectrum(e1=e1, e2=e2, e3=e3, e4=e4, c=c)


def _choi_trace_norm(n: int, p0: float, p1: float) -> float:
    s = difference_spectrum(n, p0, p1)
    return abs(s.e1) + abs(s.e2) + abs(s.e3) + abs(s.e4)


def _edge_gradient(n: int, p0: float, p1: float) -> float:
    """d(|e3|+|e4|)/dp1 for the damping-Choi difference."""
    x = xi(n)
    num = p1 - p0 + 2 * (1 - x) * (math.sqrt((1 - p0) / (1 - p1)) - (1 - x))
    den = 4 * math.sqrt(
        ((p0 - p1) / 2) ** 2 + (math.sqrt(1 - p0) - (1 - x) * math.sqrt(1 - p1)) ** 2
    )
    return num / den


def trace_min_location(n: int, p0: float) -> float | None:
    """Location in p1 of the trace-norm minimum for the damping-Choi resource.

    Returns the discontinuity point (2 p0 - xi)/(2 - xi) while the trace-norm
    gradient stays negative up to it; otherwise the pre-discontinuity
    stationary point found by bracketed root finding.  None when p0 < xi/2
    (the candidate would need a negative p1).
    """
    _check_damping(p0)
    x = xi(n)
    if p0 < x / 2:
        return None
    p_disc = min((2 * p0 - x) / (2 - x), 1.0)
    eps = 1e-9

    def grad_pre(p1: float) -> float:
        return _edge_gradient(n, p0, p1) - 0.5

    if p_disc <= eps or grad_pre(p_disc - eps) <= 0:
        return p_disc
    if grad_pre(0.0) >= 0:
        return 0.0
    p_star = _brentq(grad_pre, 0.0, p_disc - eps, xtol=1e-14)
    if _choi_trace_norm(n, p0, p_star) <= _choi_trace_norm(n, p0, p_disc):
        return p_star
    return p_disc


def p0_cross(xi_val: float) -> float:
    """Target damping where the trace-norm minimum crosses p1 = (p0-xi)/(1-xi)."""
    if not 0 <= xi_val <= XI_MAX + 1e-12:
        raise ValueError(f"xi out of [0, {XI_MAX:.6f}]: {xi_val}")
    num = (
        1 + 4 * xi_val - 8 * xi_val ** 2 + 5 * xi_val ** 3
        + (1 - xi_val) ** 3.5 - xi_val ** 4
    )
    return num / (3 - 3 * xi_val + xi_val ** 2)


# ----------------------------------------------------------------------------
# alternate (rank-1 tensor) resource study
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class AlternateXYZ:
    """x, y, z: floats for a scalar parameter, arrays for an array of them."""

    x: float | np.ndarray
    y: float | np.ndarray
    z: float | np.ndarray


def _log_binomial_over_power_of_two(n: int, k: int) -> float:
    """log(C(n, k) / 2^n), from the exact integer: its leading bits and the
    power of two it falls short of 2^n by."""
    c = math.comb(n, k)
    bits = c.bit_length()
    return math.log(c / (1 << bits)) + (bits - n) * math.log(2)


@lru_cache(maxsize=64)
def _alternate_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x, y and z sums as sum_e c_e (2a)^e (2(1-a))^(n-e), e = 0, 1/2, .., n.

    Returns the exponents e, a scale per exponent, and one row of mantissas
    per sum, with c_e = mantissa exp(scale).  Every term of the three sums has
    exponents adding up to n, so like terms merge into one column, whose
    scale is the largest log magnitude among its terms.  The binomial weights
    enter as log(C(n, k) / 2^n), so nothing overflows at any n, and at
    a = 1/2 each term is exp(scale) times a mantissa; zero terms are left out.
    Every alternate function reads this table, so it rejects n < 2 for all.
    """
    if n < 2:
        raise ValueError("at least two ports are required")
    # bulk strata: spin ss of the n - 1 unkept ports, projection mm
    spins = np.arange(1 - n % 2, n, 2)
    log_binom = np.array([_log_binomial_over_power_of_two(n, (n - 1 - x) // 2)
                          for x in spins.tolist()])
    ss, mm = np.meshgrid(spins, np.arange(-n, n + 1), indexing="ij")
    keep = (abs(mm) <= ss) & ((ss - mm) % 2 == 0)
    ss, mm = ss[keep], mm[keep]
    log_common = log_binom[ss // 2] - np.log(2.0 * (ss + 1))
    s, m = ss / 2.0, mm / 2.0
    wa = (n + 1) / 2.0 - s
    wb = (n + 3) / 2.0 + s
    # kernel sector
    mk = np.arange(-(n + 1), n + 2, 2)
    k, half, norm = mk / 2.0, (n + 1) / 2.0, 2.0 * n * (n + 1)
    log_kernel = -n * math.log(2)
    terms = [  # (sum, doubled exponent, log of a positive factor, the other factor)
        (0, n + 1 + mm, log_common, (wa ** -0.5 * (s - m) + wb ** -0.5 * (s + m + 1)) ** 2),
        (1, n - 1 + mm, log_common, (s + m) * (s - m + 1) * (wa ** -0.5 - wb ** -0.5) ** 2),
        (2, n + mm, log_common, (s * s - m * m) / wa + 2 * (wa * wb) ** -0.5 * (s * s + m * m + s)
         + ((s + 1) ** 2 - m * m) / wb),
        (0, n + 1 + mk, log_kernel, (half + k) * (half - k) / norm),
        (2, n + mk, log_kernel, -(half + k) * (half - k) / norm),
        (1, n - 1 + mk, log_kernel, ((n - 1) / 2.0 + k) * (half + k) / norm),
    ]
    width = 2 * n + 1
    row, col, log_abs, value = (np.concatenate([np.broadcast_to(t[i], t[1].shape) for t in terms])
                                for i in range(4))
    keep = value != 0
    row, col, value = row[keep], col[keep], value[keep]
    log_abs = log_abs[keep] + np.log(np.abs(value))
    scale = np.full(width, -np.inf)
    np.maximum.at(scale, col, log_abs)
    mantissa = np.bincount(row * width + col, np.sign(value) * np.exp(log_abs - scale[col]),
                           3 * width).reshape(3, width)
    table = np.arange(width) / 2.0, scale, mantissa
    for x in table:
        x.setflags(write=False)
    return table


def _alternate_sums(n: int, a, order: int = 0) -> np.ndarray:
    """x, y, z (last axis) at a, or their first or second derivative in a.

    d/da a^e (1-a)^f = a^e (1-a)^f g with g = e/a - f/(1-a), and the second
    derivative has the factor g^2 + g' with g' = -e/a^2 - f/(1-a)^2.
    A scalar a stays a float, for which ``xlogy`` takes libm's log.
    """
    e, scale, mantissa = _alternate_table(n)
    f = n - e
    a = np.asarray(a, dtype=float)
    a = float(a) if a.ndim == 0 else a[..., None]
    terms = np.exp(scale + xlogy(e, 2 * a) + xlogy(f, 2 * (1 - a)))
    if order:
        g = e / a - f / (1 - a)
        terms = terms * (g if order == 1 else g * g - e / (a * a) - f / ((1 - a) * (1 - a)))
    return terms @ mantissa.T


def alternate_xyz(n: int, a) -> AlternateXYZ:
    """The three independent Choi entries for n alternate ports, at a scalar
    parameter a or elementwise over an array of them."""
    if not np.all((np.asarray(a) >= 0) & (np.asarray(a) <= 1)):
        raise ValueError(f"parameter out of [0,1]: {a}")
    v = _alternate_sums(n, a)
    if v.ndim == 1:
        return AlternateXYZ(x=float(v[0]), y=float(v[1]), z=float(v[2]))
    return AlternateXYZ(x=v[..., 0], y=v[..., 1], z=v[..., 2])


def alternate_choi(n: int, a: float) -> np.ndarray:
    """Output Choi matrix for n alternate ports, assembled from x, y, z."""
    v = alternate_xyz(n, a)
    return x_matrix((v.x, 0.5 - v.x, v.y, 0.5 - v.y), c03=v.z)


def _bracketed_root(fn, lo: float, hi: float) -> float | None:
    """First sign change of fn over 256 samples of [lo, hi], refined by
    Brent's method (``_brentq``); a sample within 1e-13 of 0 is the root.

    fn takes the whole sample grid in one call, and floats for ``_brentq``.
    """
    zero_tol = 1e-13
    grid = np.linspace(lo, hi, 256)
    vals = fn(grid)
    hits = np.flatnonzero((np.abs(vals[:-1]) <= zero_tol) | (vals[:-1] * vals[1:] < 0))
    if hits.size:
        k = hits[0]
        if abs(vals[k]) <= zero_tol:
            return float(grid[k])
        return _brentq(fn, grid[k], grid[k + 1], xtol=1e-12)
    if abs(vals[-1]) <= zero_tol:
        return float(grid[-1])
    return None


def alternate_known_point(n: int, p0: float) -> tuple[float, float] | None:
    """(a, diamond norm) at the alternate-resource point with scalar bounds.

    Solves x(a) - 1/2 = y(a) - p0/2 on a in [1/2, 1]; there the output-traced
    modulus of the Choi difference is scalar, so the diamond norm equals the
    trace norm and has the closed form used here.  None when p0 is not
    reachable (the reachable set starts at p0 = xi(n), at a = 1/2).
    """
    _check_damping(p0)

    def gap(a):
        v = alternate_xyz(n, a)
        return (v.x - 0.5) - (v.y - p0 / 2)

    a_known = _bracketed_root(gap, 0.5, 1.0 - 1e-9)
    if a_known is None:
        return None
    v = alternate_xyz(n, a_known)
    d2 = (p0 - 2 * v.y) + math.sqrt(
        (p0 - 2 * v.y) ** 2 + (math.sqrt(1 - p0) - 2 * v.z) ** 2
    )
    return a_known, d2


def alternate_trace_min_a(n: int, p0: float) -> float | None:
    """a with y(a) = p0/2 on [1/2, 1], near-optimal for the diamond norm."""
    _check_damping(p0)

    def gap(a):
        return alternate_xyz(n, a).y - p0 / 2

    return _bracketed_root(gap, 0.5, 1.0 - 1e-9)


@dataclass(frozen=True)
class AlternateDerivatives:
    dy_da: float
    dz_da: float
    dp0_da: float
    d2_sum_da2_at_half: float


def symmetric_sum_curvature(n: int) -> float:
    """Second derivative of y[a] + y[1-a] at a = 1/2, exact: 2 y''(1/2)."""
    return 2.0 * float(_alternate_sums(n, 0.5, order=2)[1])


def alternate_derivatives(n: int, a: float) -> AlternateDerivatives:
    """Analytic derivatives of the alternate-resource sums at (n, a)."""
    if not 0 < a < 1:
        raise ValueError(f"derivatives are singular at a in {{0, 1}}: a={a}")
    _, dy, dz = (float(v) for v in _alternate_sums(n, a, order=1))
    dp0 = 2 * (dy - float(_alternate_sums(n, 1 - a, order=1)[1]))
    return AlternateDerivatives(
        dy_da=dy, dz_da=dz, dp0_da=dp0, d2_sum_da2_at_half=symmetric_sum_curvature(n)
    )
