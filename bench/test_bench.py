"""Tests of the benchmark itself: short passes of every workload with the full
checks, and planted errors that each check must catch.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pbtsim import analysis, resources  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path / "files")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_short_pass_is_correct(name, workdir):
    wl = workloads.make(name, seed=7, workdir=workdir, short=True)
    try:
        warm = workloads.run_ops(wl.warmup_ops())
        ops = wl.pass_ops(0)
        first = workloads.run_ops(ops)
        again = workloads.run_ops(wl.pass_ops(1))
    finally:
        wl.close()
    assert [r.problem for r in warm + first + again if r.problem] == []
    assert not any(r.failed for r in warm)
    # reads of the asymmetric PBTRES file are the only operations allowed to fail
    assert sum(op.may_fail for op in ops) == (1 if name == "resource-file" else 0)
    assert [r.failed for r in first] == [op.may_fail for op in ops]
    assert [(r.kind, r.failed) for r in first] == [(r.kind, r.failed) for r in again]


def test_study_check_catches_shifted_diamond_value():
    op = workloads.Study(seed=3).pass_ops(0)[0]
    row = op.run()
    op.check(row)
    shifted = list(row)
    shifted[4] += 1e-6
    with pytest.raises(ref.CheckError, match="differs from exact"):
        op.check(shifted)


def test_channel_check_catches_perturbed_choi_entry():
    ops = workloads.Channel(seed=3, short=True).pass_ops(0)
    for op in ops[:6]:
        c = op.run()
        op.check(c)
        bad = c.copy()
        bad[0, 3] += 1e-9
        with pytest.raises(ref.CheckError):
            op.check(bad)


def test_resource_file_checks_catch_changed_blocks_and_choi(workdir):
    wl = workloads.ResourceFile(seed=3, workdir=workdir, short=True)
    try:
        ops = wl.pass_ops(0)
        pairs = [(ops[i], ops[i + 1]) for i in range(0, len(ops), 2)]
        checked = 0
        for write, read in pairs:
            if read.may_fail:
                continue
            write.check(write.run())
            reduced, c = read.run()
            read.check((reduced, c))
            changed = resources.ReducedResource(reduced.n, reduced.r11.copy(), reduced.r12,
                                                reduced.r21, reduced.r22)
            changed.r11[1, 1] += 1e-12
            with pytest.raises(ref.CheckError, match="blocks"):
                read.check((changed, c))
            bad = c.copy()
            bad[1, 1] += 1e-9
            with pytest.raises(ref.CheckError):
                read.check((reduced, bad))
            checked += 1
        assert checked == sum(not read.may_fail for _, read in pairs) > 0
    finally:
        wl.close()


def test_asymmetric_file_fails_with_value_error(workdir):
    wl = workloads.ResourceFile(seed=3, workdir=workdir, short=True)
    try:
        ops = wl.pass_ops(0)
        write, read = [(ops[i], ops[i + 1]) for i in range(0, len(ops), 2) if ops[i + 1].may_fail][0]
        write.run()
        [result] = workloads.run_ops([read])
        assert result.failed and result.problem is None
    finally:
        wl.close()


def test_verify_check_catches_deviation():
    op = workloads.Verify(seed=0, short=True).pass_ops(0)[1]
    worst = op.run()
    op.check(worst)
    with pytest.raises(ref.CheckError):
        op.check(worst + 1e-9)


# ----------------------------------------------------------------------------
# the references agree with the package's closed forms and with each other
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("p0", [0.1, 0.36, 0.7, 0.93])
def test_exact_diamond_matches_known_point(p0):
    j = analysis.pbt_ad_choi(4, p0) - ref.ad_target(p0)
    assert abs(ref.diamond_x_shaped(j) - analysis.ad_known_points(4, p0).d0) < 1e-12


@pytest.mark.parametrize("port", [ref.bell_port(), ref.ad_port(0.3), ref.alternate_port(0.8)])
def test_reference_blocks_match_package(port):
    for n in (2, 3, 4):
        blocks = ref.product_blocks(port, n)
        pkg = resources.reduced_from_port(port, n)
        assert np.allclose(blocks, np.stack([pkg.r11, pkg.r12, pkg.r21, pkg.r22]), atol=1e-15)
        assert np.allclose(ref.reduced_blocks(ref.product_full(port, n), n), blocks, atol=1e-15)


def test_reference_port_states_match_package():
    assert np.allclose(ref.ad_port(0.37), resources.ad_choi_port(0.37))
    assert np.allclose(ref.alternate_port(0.2), resources.alternate_port(0.2))
    assert np.allclose(ref.ad_target(0.37), analysis.ad_choi(0.37, "plus"))


def test_sparse_writer_reads_back(workdir):
    os.makedirs(workdir)
    blocks = ref.product_blocks(ref.ad_port(0.3), 4)
    path = os.path.join(workdir, "w.pbtres")
    ref.write_pbtres(path, 4, "REDUCED", blocks)
    got = resources.load_resource(path)
    assert np.array_equal(np.stack([got.r11, got.r12, got.r21, got.r22]), blocks)


# ----------------------------------------------------------------------------
# tracing and the command
# ----------------------------------------------------------------------------

def test_traced_run_reports_the_listed_metrics_and_restores_attributes():
    import pbtsim
    from pbtsim import choi

    import run as bench_run

    before = choi.assemble_choi
    tracer = tracing.Tracer(pbtsim)
    ops = workloads.Channel(seed=1, short=True).pass_ops(0)[:6]
    plain = workloads.run_ops(ops)
    tracer.install()
    assert choi.assemble_choi is not before
    traced = workloads.run_ops(ops, tracer)
    tracer.uninstall()
    assert choi.assemble_choi is before
    ids = range(len(ops))
    self_s = tracer.self_times(ids)
    op_s = tracer.inclusive_times(ids)["op"]
    assert abs(sum(self_s.values()) - op_s) < 1e-9
    assert sum(r.seconds for r in traced) >= op_s
    assert tracer.count_totals(ids)["choi.g_sum_calls"] > 0

    metrics = bench_run._per_layer(tracer, ids, [], plain, traced)
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == {
        (name, v["unit"]) for name, v in metrics.items()}


def test_command_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "channel", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_the_workloads_and_end_to_end_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"ops_per_s", "setup_s", "peak_rss_mb"}
