#!/usr/bin/env python3
"""pbtsim benchmark: one workload per invocation, from the repository root.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \\
        python3 bench/run.py --workload channel --seed 1 --seconds 3 --trace 0

Workloads: study, channel, resource-file, verify (see bench/README.md).
Each runs in fresh single-threaded processes as a closed loop: one client,
each operation starting when the previous one has finished, in whole passes
over a fixed list of operations until at least --seconds of operation time
has been measured.

--trace 0 prints the end-to-end metrics (ops_per_s, setup_s, peak_rss_mb);
--trace 1 makes a separate traced run and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Results go to bench/out/result-*.json and
spans to bench/out/trace-*.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import tracing  # standard library only; numpy and pbtsim load in the child

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("study", "channel", "resource-file", "verify")
SETUP_REPEATS = 3      # setup_s is the median over this many fresh processes
DEADLINE_S = 170.0     # every process of one invocation ends within this
# the command in BENCHMARK.json pins these to 1; every result records them
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="operation time to measure; runs end on a whole pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("measure", "setup", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------------
# parent: spawns the workload processes and prints the result
# ----------------------------------------------------------------------------

def _spawn(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--child", mode]
    # CLOCK_MONOTONIC is shared by all processes, so the child can measure
    # its own set-up from this instant
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def parent_main(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "pbtsim", "__init__.py")):
        print("bench: src/pbtsim not found; run from the root of a pbtsim checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            measured = _spawn(args, "trace", deadline)
            setups = [measured["setup_s"]]
        else:
            measured = _spawn(args, "measure", deadline)
            setups = [measured["setup_s"]]
            for _ in range(SETUP_REPEATS - 1):
                extra = _spawn(args, "setup", deadline)
                setups.append(extra["setup_s"])
                measured["problems"] += extra["problems"]
    except subprocess.TimeoutExpired:
        print(f"bench: {args.workload} did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 3
    except (RuntimeError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = measured["per_layer"]
    else:
        metrics = {
            "ops_per_s": {"value": (measured["attempted"] - measured["failed"]) / measured["busy_s"],
                          "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        }
    for problem in measured["problems"]:
        print(f"bench: CHECK FAILED: {problem}", file=sys.stderr)
    result = {"correct": not measured["problems"], "attempted": measured["attempted"],
              "failed": measured["failed"], "metrics": metrics}
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  passes=measured["passes"], setup_runs_s=setups, environment=measured["environment"],
                  by_kind=measured["by_kind"])
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("# environment " + json.dumps(measured["environment"], sort_keys=True))
    print(f"# {args.workload}: {measured['passes']} passes, setup runs {setups}")
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------------
# child: one fresh process that imports pbtsim, warms up and measures
# ----------------------------------------------------------------------------

def _blas_threads() -> list[dict]:
    """Thread count and build of each OpenBLAS the process has loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        info = {"library": os.path.basename(lib)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(handle, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and "threads" not in info:
                    get_threads.restype = ctypes.c_int
                    info["threads"] = get_threads()
                if get_config is not None and "config" not in info:
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode()
        found.append(info)
    return found


def _environment(seed: int, cpus: list[int]) -> dict:
    import platform

    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_rotated_over": cpus,
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "blas": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _kind_medians(results) -> dict:
    kinds: dict[str, list[float]] = {}
    for r in results:
        if not r.failed:
            kinds.setdefault(r.kind, []).append(r.seconds)
    return {kind: {"ops": len(v), "median_ms": 1e3 * statistics.median(v)}
            for kind, v in kinds.items()}


def _per_layer(tracer, ids, warm_ids, untraced, traced) -> dict:
    ops = len(ids)
    self_s = tracer.self_times(ids)
    inclusive_s = tracer.inclusive_times(ids)
    counts = tracer.count_totals(ids)
    warm_self_s = tracer.self_times(warm_ids)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in tracing.LAYERS:
        suffix = "_self_ms" if layer == "cli.sweep_rows" else "_ms"
        put(layer + suffix, 1e3 * self_s.get(layer, 0.0) / ops, "ms")
    for io in ("load_resource", "save_resource"):
        seconds = inclusive_s.get(f"resources.{io}", 0.0)
        nbytes = counts.get(f"resources.{io}_bytes", 0.0)
        put(f"resources.{io}_mb_per_s", nbytes / 1e6 / seconds if seconds else 0.0, "MB/s")
    for name in ("choi.g_sum_calls", "kraus.protocol_kraus_ops",
                 "analysis.diamond_numeric_nfev", "analysis.alternate_xyz_calls"):
        put(name, counts.get(name, 0.0) / ops, "count")
    put("setup.build_spin_basis_ms", 1e3 * warm_self_s.get("spin.build_spin_basis", 0.0), "ms")
    put("setup.build_povm_ms", 1e3 * warm_self_s.get("oracle.build_povm", 0.0), "ms")
    traced_s = sum(r.seconds for r in traced)
    untraced_s = sum(r.seconds for r in untraced)
    put("trace.op_ms", 1e3 * traced_s / ops, "ms")
    put("trace.untraced_op_ms", 1e3 * untraced_s / ops, "ms")
    put("trace.layer_self_sum_ms", 1e3 * sum(v for k, v in self_s.items() if k != "op") / ops, "ms")
    put("trace.unattributed_ms", 1e3 * self_s.get("op", 0.0) / ops, "ms")
    put("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0), "%")
    return metrics


def child_main(args) -> int:
    sys.path.insert(0, SRC)
    import pbtsim

    imported_at = time.monotonic()
    if os.path.dirname(os.path.dirname(os.path.abspath(pbtsim.__file__))) != SRC:
        print(f"bench: imported pbtsim from {pbtsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = os.path.join(OUT_DIR, f"files-{os.getpid()}")
    wl = workloads.make(args.workload, args.seed, workdir)
    tracer = tracing.Tracer(pbtsim) if args.child == "trace" else None
    try:
        warm_ops = wl.warmup_ops()   # input generation is not set-up time
        if tracer:
            tracer.install()
        cpus = workloads.CpuRotation()
        started = time.monotonic()
        warm = workloads.run_ops(warm_ops, tracer, first_id=-len(warm_ops), cpus=cpus)
        setup_s = (imported_at - args.spawned_at) + (time.monotonic() - started)
        if tracer:
            tracer.uninstall()
        out = {"setup_s": setup_s, "problems": [r.problem for r in warm if r.problem]}
        if args.child == "setup":
            print(json.dumps(out))
            return 0

        results, untraced, traced = [], [], []
        passes, busy = 0, 0.0
        while busy < args.seconds:
            ops = wl.pass_ops(passes)
            res = workloads.run_ops(ops, cpus=cpus)
            if tracer:
                # the same operations again, traced: the pair gives the overhead
                untraced += res
                tracer.install()
                again = workloads.run_ops(ops, tracer, first_id=len(traced), cpus=cpus)
                tracer.uninstall()
                traced += again
                res = res + again
            results += res
            busy += sum(r.seconds for r in res)
            passes += 1
    finally:
        wl.close()

    out["problems"] += [r.problem for r in results if r.problem]
    out.update(
        passes=passes,
        attempted=len(results),
        failed=sum(r.failed for r in results),
        busy_s=sum(r.seconds for r in results),
        by_kind=_kind_medians(results),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        environment=_environment(args.seed, cpus.cpus),
    )
    if tracer:
        out["per_layer"] = _per_layer(tracer, range(len(traced)), range(-len(warm_ops), 0),
                                      untraced, traced)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(out))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return child_main(args) if args.child else parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
