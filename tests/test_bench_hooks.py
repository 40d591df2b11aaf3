"""The benchmark's tracer patches pbtsim attributes by name; each must exist.
Its workloads call pbtsim functions with fixed arguments; each call must work.

``bench/tracing.py`` is loaded read-only from its file (it imports only the
standard library), so a rename in ``src/`` that would break a traced
benchmark run fails here, in the default test run, and so does a signature
change that would break an untraced one.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import pbtsim

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

HOOKS = sorted(
    {point for points in tracing.LAYERS.values() for point in points}
    | {point for points, _ in tracing.COUNTERS.values() for point in points}
)


def test_hooks_listed():
    assert ("choi", "g_sum") in HOOKS
    assert ("choi", "assemble_choi") in HOOKS


@pytest.mark.parametrize("owner, attr", HOOKS)
def test_hook_resolves(owner, attr):
    # the benchmark imports these submodules itself; pbtsim/__init__ skips cli
    importlib.import_module(f"pbtsim.{owner.split('.')[0]}")
    obj = tracing._owner(pbtsim, owner)
    assert callable(getattr(obj, attr))


def test_calls_as_the_workloads_make_them():
    # bench/workloads.py passes a seed and a restart count to the diamond norm
    # (by keyword) and to sweep_rows (positionally), and the "plus" convention
    # to ad_choi; a signature change here would break a benchmark run
    from pbtsim import analysis, cli

    target = analysis.ad_choi(0.5, "plus")
    out = analysis.pbt_ad_choi(4, 0.4)
    value = analysis.diamond_numeric(out, target, seed=0, restarts=64)
    row = cli.sweep_rows(4, 0.5, "choi", np.array([0.4]), 0, 64)[0]
    lower, upper = analysis.diamond_bounds(out, target)
    assert row == [0.4, lower, lower, upper, value]
