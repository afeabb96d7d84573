#!/usr/bin/env python3
"""videograph benchmark: desk training, order-perturbation eval, gradient suite.

Run from the repository root:

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # each workload in its own process
    python3 perfbench/run.py --write-spec                   # regenerate BENCHMARK.json

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer metrics
of a traced run. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full result (environment,
checks, computed counts, every operation's time) goes to
`<out>/<workload>-seed<seed>-trace<0|1>.json`, and a traced run's spans to
`<out>/spans-<workload>-seed<seed>.jsonl`. Exit code 0 means a result was
printed (its "correct" field says whether every check passed); 2 means the
benchmark could not run at all (for example, no `src/videograph` next to this
directory); any other failure raises and exits 1 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

RUN_SECONDS = 30
# set-up is repeated at least this often and for at least this long, and
# setup_s is the median: a single cheap set-up reads machine noise as signal
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPEATS = 50
PINNED_ENV = {"VIDEOGRAPH_THREADS": "2", "OPENBLAS_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("train_desk", "eval_grid", "gradcheck")

# name, unit, better, bound (share of the parent's median a later change may
# worsen the metric by). One list for all workloads; per workload:
#   items_per_s  train videos / s of epoch wall time (train_desk),
#                eval videos / s over all passes of both models (eval_grid),
#                gradient checks / s, 18 per suite (gradcheck);
#   op_ms.p50    median epoch (train_desk), graph-model evaluate pass
#                (eval_grid), gradient suite (gradcheck).
END_TO_END = [
    ("items_per_s", "1/s", "higher", 0.25),
    ("op_ms.p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# per-workload names of the shared end-to-end metrics, printed alongside them
ALIASES = {
    "train_desk": {"items_per_s": "train_videos_per_s", "op_ms": "epoch_ms"},
    "eval_grid": {"items_per_s": "eval_videos_per_s", "op_ms": "eval_pass_ms"},
    "gradcheck": {"items_per_s": "checks_per_s", "op_ms": "suite_ms"},
}


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    from layers import per_layer_names
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WORKLOADS[n].why} for n in WORKLOAD_NAMES],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_names()],
    }


# ---------------------------------------------------------------------------
# Environment


def _openblas_threads():
    """Threads OpenBLAS reports at run time, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    return int(fn())
    except OSError:
        pass
    return None


def _l2_cache():
    index = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for entry in sorted(index.glob("index*")):
            if (entry / "level").read_text().strip() == "2":
                return (entry / "size").read_text().strip()
    except OSError:
        pass
    return None


def _git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                capture_output=True, text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"], check=True,
                                capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return commit, bool(status.strip())


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit, dirty = _git_state()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_runtime": _openblas_threads(),
        "videograph_threads": os.environ.get("VIDEOGRAPH_THREADS"),
        "l2_cache": _l2_cache(),
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Measurement


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples no percentile qualifies; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def closed_loop(workload, seconds: float, tracer=None) -> list:
    """Run operations back to back for `seconds` (and at least min_ops).

    Returns [(seconds, OpOutcome)]. An operation that raises ends the loop
    and counts as failed.
    """
    from layers import OP_SPAN
    from workloads import OpOutcome

    ops = []
    start = perf_counter()
    while len(ops) < workload.min_ops() or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.op = f"op{len(ops)}"
            span = tracer.open(OP_SPAN)
        t0 = perf_counter()
        try:
            outcome = workload.run_op(len(ops))
        except Exception as exc:   # the loop's boundary: report the failure, stop
            outcome = OpOutcome(items=0, failed=1, messages=[f"{type(exc).__name__}: {exc}"])
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
        ops.append((elapsed, outcome))
        if outcome.items == 0:
            break
    return ops


def loop_summary(ops: list) -> dict:
    primary = [t for t, o in ops if o.primary]
    value, pct, n = tail(primary)
    return {
        "items_per_s": sum(o.items for _, o in ops) / sum(t for t, _ in ops),
        "op_ms.p50": statistics.median(primary) * 1e3,
        "op_ms.tail": value * 1e3,
        "op_ms.tail_pct": pct,
        "op_ms.tail_n": n,
        "ops": len(ops),
        "attempted": sum(o.attempted for _, o in ops),
        "failed": sum(o.failed for _, o in ops),
        "messages": [m for _, o in ops for m in o.messages],
        "op_seconds": [t for t, _ in ops],
    }


def computed_counts() -> dict:
    from counts import report
    from videograph.model import full_scale_config
    from workloads import EvalGrid, TrainDesk

    return report({
        "train_desk": TrainDesk(0, Path()).config.model_config(),
        "eval_grid": EvalGrid(0, Path()).config.model_config(),
        "full_scale": full_scale_config(),
    })


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    from layers import layer_metrics
    from tracer import Tracer
    from workloads import WORKLOADS

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        tracer = Tracer() if trace else None
        if tracer is not None:
            workload = WORKLOADS[name](seed, workdir / "setup")
            t0 = perf_counter()
            with tracer:
                workload.setup()
            setup_times = [perf_counter() - t0]
        else:
            setup_times = []
            while len(setup_times) < SETUP_MIN_REPEATS or (
                    sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS):
                shutil.rmtree(workdir / "setup", ignore_errors=True)
                workload = WORKLOADS[name](seed, workdir / "setup")
                t0 = perf_counter()
                workload.setup()
                setup_times.append(perf_counter() - t0)
        workload.warm_up()

        plain = loop_summary(closed_loop(workload, seconds / 2 if trace else seconds))
        traced = None
        if tracer is not None:
            with tracer:
                traced = loop_summary(closed_loop(workload, seconds / 2, tracer))
        checks, info = workload.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass   # another run is still using it

    loops = [plain] + ([traced] if traced else [])
    attempted = sum(loop["attempted"] for loop in loops)
    failed = sum(loop["failed"] for loop in loops) + sum(not ok for ok in checks.values())
    result = {
        "workload": name,
        "unit": WORKLOADS[name].unit,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "checks": checks,
        "info": info,
        "messages": [m for loop in loops for m in loop["messages"]],
        "setup_seconds": setup_times,
        "plain": plain,
        "error_rate": failed / max(1, attempted),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "computed_counts": computed_counts(),
    }
    if trace:
        per_layer = layer_metrics(tracer.spans, name)
        per_layer.update({k: plain[k] for k in ("op_ms.tail", "op_ms.tail_pct", "op_ms.tail_n")})
        per_layer["trace.overhead_pct"] = 100.0 * (traced["op_ms.p50"] / plain["op_ms.p50"] - 1.0)
        result["traced"] = traced
        result["metrics"] = per_layer
        tracer.write(out_dir / f"spans-{name}-seed{seed}.jsonl")
    else:
        result["metrics"] = {
            "items_per_s": plain["items_per_s"],
            "op_ms.p50": plain["op_ms.p50"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
    return result


def print_report(result: dict, units: dict) -> None:
    name = result["workload"]
    env = result["environment"]
    print(f"== {name}  seed {result['seed']}  {result['seconds']:g} s  trace {result['trace']}  "
          f"(op = {result['unit']})")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    plain = result["plain"]
    alias = ALIASES[name]
    lines = [
        (alias["items_per_s"], plain["items_per_s"], "1/s"),
        (f"{alias['op_ms']}.p50", plain["op_ms.p50"], "ms"),
        (f"{alias['op_ms']}.tail (p{plain['op_ms.tail_pct']:.1f}, n={plain['op_ms.tail_n']})",
         plain["op_ms.tail"], "ms"),
        ("error_rate", result["error_rate"], "failed/attempted"),
    ]
    if name == "gradcheck":
        lines.append(("suite_s", plain["op_ms.p50"] / 1e3, "s"))
    for label, value, unit in lines:
        print(f"  {label:44s} {value:14.6g} {unit}")
    for metric, value in result["metrics"].items():
        print(f"  {metric:44s} {value:14.6g} {units.get(metric, '')}")
    for check, ok in result["checks"].items():
        print(f"  check {check}: {'PASS' if ok else 'FAIL'}")
    for message in result["messages"]:
        print(f"  failure: {message}")
    for config, counts in result["computed_counts"].items():
        if config == "label":
            continue
        shares = ", ".join(f"{k} {100 * v:.1f}%" for k, v in counts["kernel_share"].items())
        print(f"  computed {config}: {counts['total_mflop']:.4g} MFLOP/video forward, "
              f"largest stage {counts['peak_stage_mb']:.4g} MB; {shares}")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        proc = subprocess.run(cmd, text=True, capture_output=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out",
                        help="directory for result and span files")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)

    if not (SRC / "videograph" / "__init__.py").is_file():
        print(f"error: no videograph sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # pinned before numpy loads OpenBLAS: one BLAS thread, two videograph threads
    os.environ.update(PINNED_ENV)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload == "all":
        return run_all(args)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    bench = spec()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print_report(result, units)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
