"""The benchmark's four workloads: inputs made from a seed, operations, checks.

Each workload yields passes: fixed, interleaved lists of operations.  An
operation's ``run`` is the timed call into pbtsim, written the way the CLI
command it stands for makes its calls, and looked up through module
attributes so the tracer can wrap them.  Its ``check`` runs afterwards,
untimed, against the independent computations in ``reference``.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference as ref
from pbtsim import analysis, choi, cli, kraus, oracle, resources
from reference import CheckError, check_close, require

# the CLI's defaults for the numerical diamond norm
DIAMOND_SEED = 0
DIAMOND_RESTARTS = 64

DIAMOND_ATOL = 1e-9   # numeric diamond norm against the exact 1-D maximum
CLOSED_ATOL = 1e-12   # assembled Choi against basis-free closed forms
ORACLE_ATOL = 1e-10   # assembled Choi against the dense oracle (as `pbtsim verify`)
PROPERTY_ATOL = 1e-11  # Hermiticity, positivity, trace, idler marginal


@dataclass
class Op:
    """One timed operation and the check of its output."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # the asymmetric PBTRES file: check_choi rejects its channel until
    # load_resource handles port asymmetry, so a ValueError counts as failed
    may_fail: bool = False


@dataclass
class OpResult:
    kind: str
    seconds: float
    failed: bool
    problem: str | None  # a wrong output, or a failure that was not allowed


class CpuRotation:
    """Moves the process to the next allowed CPU after each second of operation time.

    On a shared host each CPU's speed drifts on its own (one CPU ran the same
    call 1.6x slower than the other, then the roles swapped).  Spreading a
    run over all allowed CPUs averages that drift instead of sampling the CPU
    the scheduler happened to pick.
    """

    PERIOD_S = 1.0

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.index = 0
        self.since = 0.0
        os.sched_setaffinity(0, {self.cpus[0]})

    def advance(self, seconds: float) -> None:
        self.since += seconds
        if self.since >= self.PERIOD_S:
            self.index = (self.index + 1) % len(self.cpus)
            os.sched_setaffinity(0, {self.cpus[self.index]})
            self.since = 0.0


def run_ops(ops: list[Op], tracer=None, first_id: int = 0,
            cpus: CpuRotation | None = None) -> list[OpResult]:
    """Run operations back to back, timing each call and checking it afterwards."""
    results = []
    for i, op in enumerate(ops):
        if cpus is not None and results:
            cpus.advance(results[-1].seconds)
        call = op.run if tracer is None else (lambda: tracer.run_op(first_id + i, op.run))
        started = time.perf_counter()
        try:
            out = call()
        except ValueError as exc:
            seconds = time.perf_counter() - started
            problem = None if op.may_fail else f"{op.kind}: {exc!r}"
            results.append(OpResult(op.kind, seconds, True, problem))
            continue
        except Exception:  # report the traceback and keep measuring the other operations
            seconds = time.perf_counter() - started
            results.append(OpResult(op.kind, seconds, True, f"{op.kind}: {traceback.format_exc()}"))
            continue
        seconds = time.perf_counter() - started
        try:
            op.check(out)
            problem = None
        except CheckError as exc:
            problem = str(exc)
        results.append(OpResult(op.kind, seconds, False, problem))
    return results


class Workload:
    def warmup_ops(self) -> list[Op]:
        """One call of each operation kind on fixed, seed-independent inputs."""
        raise NotImplementedError

    def pass_ops(self, k: int) -> list[Op]:
        """The operations of pass k: the same kinds in the same order on every pass
        and seed; only the inputs drawn from the seed change."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------------
# study: rows of the damping study, dominated by the numerical diamond norm
# ----------------------------------------------------------------------------

def _output_choi(n: int, family: str, param: float) -> np.ndarray:
    if family == "choi":
        return analysis.pbt_ad_choi(n, param)
    return analysis.alternate_choi(n, param)


def _check_row(n: int, p0: float, family: str, row, known: float | None = None) -> None:
    param, _, lower, upper, numeric = row
    exact = ref.diamond_x_shaped(_output_choi(n, family, param) - ref.ad_target(p0))
    where = f"n={n} {family} p0={p0:.6f} param={param:.6f}"
    require(lower - DIAMOND_ATOL <= numeric <= upper + DIAMOND_ATOL,
            f"{where}: diamond_numeric {numeric!r} outside bounds [{lower!r}, {upper!r}]")
    require(abs(numeric - exact) <= DIAMOND_ATOL,
            f"{where}: diamond_numeric {numeric!r} differs from exact {exact!r}")
    if known is not None:
        require(abs(numeric - known) <= DIAMOND_ATOL,
                f"{where}: diamond_numeric {numeric!r} differs from closed form {known!r}")


def _sweep_row_op(n: int, p0: float, family: str, choose, known=None) -> Op:
    """A row as `pbtsim ad-sweep` computes it, through cli.sweep_rows."""

    def run():
        param = choose()
        return cli.sweep_rows(n, p0, family, np.array([param]), DIAMOND_SEED, DIAMOND_RESTARTS)[0]

    return Op("row", run, lambda row: _check_row(n, p0, family, row, known() if known else None))


def _comparison_op(n: int, p0: float, family: str, choose, known=None) -> Op:
    """One resource's half of a `pbtsim figure --id 4` comparison row."""

    def run():
        param = choose()
        target = analysis.ad_choi(p0, "plus")
        out = _output_choi(n, family, param)
        lower, upper = analysis.diamond_bounds(out, target)
        numeric = analysis.diamond_numeric(out, target, seed=DIAMOND_SEED,
                                           restarts=DIAMOND_RESTARTS)
        return [param, lower, lower, upper, numeric]

    return Op("row", run, lambda row: _check_row(n, p0, family, row, known() if known else None))


class Study(Workload):
    """Twelve study rows per pass, each with exactly one numerical diamond norm.

    Two seeded draws of six row types.  n = 4 rows go through
    cli.sweep_rows: the alternate resource at a seeded (p0, a), the
    damping-Choi resource at the known point p1 = p0 (d0) and at the
    trace-norm minimiser.  n = 6 rows are figure-4 entries whose parameter
    comes from root finding: the damping-Choi known point (d1), the
    alternate known point (d2) and the alternate trace-norm choice.
    """

    DRAWS = 2

    def __init__(self, seed: int, short: bool = False):
        self.seed = seed
        self.short = short

    def warmup_ops(self) -> list[Op]:
        return [_sweep_row_op(4, 0.5, "choi", lambda: 0.4)]

    def pass_ops(self, k: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, k])
        ops = []
        for _ in range(self.DRAWS):
            ops += self._draw(rng)
        return ops[:2] if self.short else ops

    @staticmethod
    def _draw(rng: np.random.Generator) -> list[Op]:
        # p0 ranges keep every known point and root inside its bracket
        p_alt, a, p_d0, p_tmin, p_d1, p_d2, p_amin = (
            float(rng.uniform(lo, hi)) for lo, hi in
            ((0.05, 0.95), (0.5, 0.99), (0.05, 0.95), (0.2, 0.95),
             (0.25, 0.95), (0.25, 0.95), (0.15, 0.95)))
        x6 = analysis.xi(6)
        return [
            _sweep_row_op(4, p_alt, "alternate", lambda: a),
            _comparison_op(6, p_d2, "alternate",
                           lambda: analysis.alternate_known_point(6, p_d2)[0],
                           known=lambda: analysis.alternate_known_point(6, p_d2)[1]),
            _sweep_row_op(4, p_d0, "choi", lambda: p_d0,
                          known=lambda: analysis.ad_known_points(4, p_d0).d0),
            _comparison_op(6, p_d1, "choi", lambda: (p_d1 - x6) / (1 - x6),
                           known=lambda: analysis.ad_known_points(6, p_d1).d1),
            _sweep_row_op(4, p_tmin, "choi",
                          lambda: analysis.trace_min_location(4, p_tmin)),
            _comparison_op(6, p_amin, "alternate",
                           lambda: analysis.alternate_trace_min_a(6, p_amin)),
        ]


# ----------------------------------------------------------------------------
# channel: product resources to checked Choi matrices, as `pbtsim choi` does
# ----------------------------------------------------------------------------

def _closed_form(family, n: int) -> np.ndarray:
    if isinstance(family, resources.Bell):
        return analysis.depolarizing_choi(analysis.xi(n))
    if isinstance(family, resources.AdChoi):
        return analysis.pbt_ad_choi(n, family.p)
    return analysis.alternate_choi(n, family.a)


def _channel_op(n: int, family) -> Op:
    def run():
        reduced = resources.make_family(family, n)
        c = choi.choi_from_reduced(reduced)
        choi.check_choi(c)
        return c

    def check(c):
        ref.check_choi_properties(c, PROPERTY_ATOL)
        check_close(c, _closed_form(family, n), CLOSED_ATOL, f"n={n} {family}")

    return Op(f"n={n}", run, check)


CHANNEL_PORTS = (10, 2, 9, 3, 8, 4, 7, 5, 6)


class Channel(Workload):
    """Bell, ad:p and alternate:a products at n = 2..10, 27 operations per pass."""

    def __init__(self, seed: int, short: bool = False):
        self.seed = seed
        self.ports = tuple(n for n in CHANNEL_PORTS if n <= 7) if short else CHANNEL_PORTS

    def warmup_ops(self) -> list[Op]:
        return [_channel_op(n, resources.Bell()) for n in sorted(self.ports)]

    def pass_ops(self, k: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, k])
        ops = []
        for n in self.ports:
            p, a = (float(x) for x in rng.uniform(0, 1, size=2))
            for family in (resources.Bell(), resources.AdChoi(p), resources.Alternate(a)):
                ops.append(_channel_op(n, family))
        return ops


# ----------------------------------------------------------------------------
# resource-file: PBTRES writes and reads
# ----------------------------------------------------------------------------

# the asymmetric file does not depend on the seed, so it fails on every run
ASYMMETRIC_SEED = 20191223


def _family_ports(rng: np.random.Generator):
    """Bell, ad:p and alternate:a with seeded parameters, with their port states."""
    p, a = (float(x) for x in rng.uniform(0, 1, size=2))
    return [(resources.Bell(), ref.bell_port()), (resources.AdChoi(p), ref.ad_port(p)),
            (resources.Alternate(a), ref.alternate_port(a))]


@dataclass
class _File:
    """One PBTRES file slot: what is written, and what reading it must give."""

    label: str
    n: int
    obj: Any                 # FullResource or ReducedResource handed to save_resource
    blocks: np.ndarray       # its conditional blocks, by the reference reduction
    exact_blocks: bool       # REDUCED files must read back bit for bit
    expected: list[tuple[str, np.ndarray, float]]  # (what, Choi, tolerance)
    may_fail: bool = False


def _mixture(rng: np.random.Generator, n: int, full: bool):
    """Seeded mixture of the three family products; returns (state, closed-form Choi).

    Every mixture holds all three families, so a file's zero pattern, and
    with it its size, does not depend on the seed.
    """
    state = 0
    closed = np.zeros((4, 4), dtype=complex)
    for w, (family, port) in zip(rng.dirichlet(np.ones(3)), _family_ports(rng)):
        state = state + w * (ref.product_full(port, n) if full else ref.product_blocks(port, n))
        closed += w * _closed_form(family, n)
    return state, closed


def _oracle_expected(n: int, blocks: np.ndarray) -> list[tuple[str, np.ndarray, float]]:
    if n > oracle.MAX_ORACLE_PORTS:
        return []
    reduced = resources.ReducedResource(n, *blocks)
    return [("dense oracle", oracle.oracle_choi(reduced), ORACLE_ATOL)]


def _full_file(label: str, n: int, rho: np.ndarray, closed=None, may_fail=False) -> _File:
    blocks = ref.reduced_blocks(rho, n)
    expected = _oracle_expected(n, blocks)
    if closed is not None:
        expected.append(("mixture of closed forms", closed, CLOSED_ATOL))
    return _File(label, n, resources.FullResource(n, rho), blocks, False, expected, may_fail)


def _reduced_file(label: str, n: int, blocks: np.ndarray, closed) -> _File:
    expected = _oracle_expected(n, blocks) + [("mixture of closed forms", closed, CLOSED_ATOL)]
    return _File(label, n, resources.ReducedResource(n, *blocks), blocks, True, expected)


def _write_op(f: _File, path: str) -> Op:
    form = "FORM=FULL" if isinstance(f.obj, resources.FullResource) else "FORM=REDUCED"

    def run():
        resources.save_resource(path, f.obj)
        return path

    def check(written):
        with open(written, encoding="utf-8") as fh:
            head = [fh.readline().strip() for _ in range(3)]
        require(head == ["PBTRES 1", f"N={f.n}", form], f"{f.label}: header {head}")

    return Op(f"write {form[5:]}", run, check)


def _check_read(f: _File, reduced, c) -> None:
    blocks = np.stack([reduced.r11, reduced.r12, reduced.r21, reduced.r22])
    if f.exact_blocks:
        require(np.array_equal(blocks, f.blocks), f"{f.label}: blocks read back differ")
    else:
        check_close(blocks, f.blocks, 1e-14, f"{f.label}: reduced blocks")
    ref.check_choi_properties(c, PROPERTY_ATOL)
    for what, want, atol in f.expected:
        check_close(c, want, atol, f"{f.label}: Choi against {what}")


def _read_op(f: _File, path: str) -> Op:
    def run():
        reduced = resources.load_resource(path)
        c = choi.choi_from_reduced(reduced)
        choi.check_choi(c)
        return reduced, c

    return Op(f"read n={f.n}", run, lambda out: _check_read(f, *out), f.may_fail)


def _bell_reduced(n: int) -> _File:
    blocks = ref.product_blocks(ref.bell_port(), n)
    return _reduced_file(f"bell REDUCED n={n}", n, blocks, _closed_form(resources.Bell(), n))


class ResourceFile(Workload):
    """Ten PBTRES files, each written then read back.

    FULL: random port-symmetric states at n = 3, 4 (symmetrised Ginibre) and
    n = 5 (mixture of i.i.d. random port products), family mixtures at
    n = 3, 4, and one fixed asymmetric state at n = 3.  REDUCED: family
    mixtures at n = 6..9.  A pass writes and reads each file once: twenty
    operations, of which the read of the asymmetric file fails.
    """

    def __init__(self, seed: int, workdir: str, short: bool = False):
        self.seed = seed
        self.short = short
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self._files: list[_File] | None = None

    def _path(self, label: str) -> str:
        return os.path.join(self.workdir, label.replace(" ", "_").replace("=", "") + ".pbtres")

    def warmup_ops(self) -> list[Op]:
        full = ref.product_full(ref.bell_port(), 3)
        files = [_full_file("warm-up bell FULL n=3", 3, full), _bell_reduced(3)]
        ops = []
        for f in files:
            ops += [_write_op(f, self._path(f.label)), _read_op(f, self._path(f.label))]
        # one read per further port count fills the spin-basis caches
        for n in range(4, 8 if self.short else 10):
            f = _bell_reduced(n)
            ref.write_pbtres(self._path(f.label), n, "REDUCED", f.blocks)
            ops.append(_read_op(f, self._path(f.label)))
        return ops

    def _make_files(self) -> list[_File]:
        rng = np.random.default_rng(self.seed)
        sym = {}
        for n in (3, 4):
            rho = ref.symmetrised(ref.random_density(4 ** n, rng), n)
            sym[n] = _full_file(f"random symmetric FULL n={n}", n, rho)
        mix = {}
        for n in (3, 4):
            rho, closed = _mixture(rng, n, full=True)
            mix[n] = _full_file(f"family mixture FULL n={n}", n, rho, closed)
        for n in (6, 7, 8, 9):
            blocks, closed = _mixture(rng, n, full=False)
            mix[n] = _reduced_file(f"family mixture REDUCED n={n}", n, blocks, closed)
        asym = ref.random_density(64, np.random.default_rng(ASYMMETRIC_SEED))
        sym_blocks = ref.reduced_blocks(ref.symmetrised(asym, 3), 3)
        asym_file = _full_file("asymmetric FULL n=3", 3, asym, may_fail=True)
        # PBT's measurement is port-covariant: the channel is the outcome
        # average, i.e. the oracle's Choi of the port-symmetrised state
        asym_file.expected = [("oracle of the symmetrised state",
                               oracle.oracle_choi(resources.ReducedResource(3, *sym_blocks)),
                               ORACLE_ATOL)]
        if self.short:
            return [sym[3], mix[6], sym[4], mix[3], mix[7], mix[4], asym_file]
        rho = 0
        for w in rng.dirichlet(np.ones(3)):
            rho = rho + w * ref.product_full(ref.random_density(4, rng), 5)
        full5 = _full_file("random symmetric FULL n=5", 5, rho)
        # large and small files alternate
        return [full5, sym[3], mix[9], mix[6], sym[4], mix[3], mix[8], mix[7], mix[4], asym_file]

    def pass_ops(self, k: int) -> list[Op]:
        if self._files is None:
            self._files = self._make_files()
        ops = []
        for f in self._files:
            path = self._path(f.label)
            ops += [_write_op(f, path), _read_op(f, path)]
        return ops

    def close(self) -> None:
        for name in os.listdir(self.workdir):
            if name.endswith(".pbtres"):
                os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)


# ----------------------------------------------------------------------------
# verify: one port count of `pbtsim verify --max-ports 8`
# ----------------------------------------------------------------------------

VERIFY_FAMILIES = [
    resources.Bell(),
    resources.AdChoi(0.0), resources.AdChoi(0.3), resources.AdChoi(0.7), resources.AdChoi(1.0),
    resources.Alternate(0.1), resources.Alternate(0.5), resources.Alternate(0.9),
]
VERIFY_PORTS = (8, 2, 7, 3, 6, 4, 5)
VERIFY_ATOL = 1e-10


def _verify_op(n: int, families) -> Op:
    """One port count of `pbtsim verify`: the protocol Kraus map, then each
    family's closed-form Choi against the dense oracle and against that map."""

    def run():
        pk = kraus.protocol_kraus(n)
        worst = 0.0
        for family in families:
            reduced = resources.make_family(family, n)
            closed = choi.choi_from_reduced(reduced)
            dev = float(np.max(np.abs(closed - oracle.oracle_choi(reduced))))
            via_kraus = kraus.apply_protocol(pk, resources.reduced_port_state(family, n))
            worst = max(worst, dev, float(np.max(np.abs(closed - via_kraus))))
        return worst

    def check(worst):
        require(worst <= VERIFY_ATOL, f"n={n}: worst deviation {worst:.3e} above {VERIFY_ATOL:.0e}")

    return Op(f"n={n}", run, check)


class Verify(Workload):
    """Port counts 2..8, eight fixed families each; the inputs do not use the seed.

    A pass goes through the port counts twice: 14 operations.
    """

    def __init__(self, seed: int, short: bool = False):
        self.ports = tuple(n for n in VERIFY_PORTS if n <= 6) if short else VERIFY_PORTS
        self.rounds = 1 if short else 2

    def warmup_ops(self) -> list[Op]:
        return [_verify_op(n, VERIFY_FAMILIES[:1]) for n in sorted(self.ports)]

    def pass_ops(self, k: int) -> list[Op]:
        return [_verify_op(n, VERIFY_FAMILIES) for n in self.ports * self.rounds]


WORKLOADS = ("study", "channel", "resource-file", "verify")


def make(name: str, seed: int, workdir: str, short: bool = False) -> Workload:
    if name == "study":
        return Study(seed, short)
    if name == "channel":
        return Channel(seed, short)
    if name == "resource-file":
        return ResourceFile(seed, workdir, short)
    if name == "verify":
        return Verify(seed, short)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
