"""Benchmark of the loewner package: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload weld --seed 1 --seconds 20 --trace 0

Load model: a closed loop with a single client.  One process runs the
workload's batch of tasks in order through the public library API with
jobs=1, and starts a task only when the previous one has returned and been
checked.  The batch is repeated floor(seconds / nominal batch time) times, at
least once.  Every task output is checked against an oracle that does not
use the code it checks (see workloads.py).

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
runs one untraced and one traced batch and reports the per-layer metrics
(tracer.py), the tracing overhead and the time the task spans leave
uncovered.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it are a
human-readable report.  The full record, with the environment, is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
MAX_MEASURE_S = 150.0  # stop repeating batches past this, to exit within 180 s

END_TO_END = {
    "wall_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# ROADMAP baseline rows, read from task times of the untraced batch
BASELINE_TASKS = {
    "hull.trace.n1k_s": "brownian-trace-k2-n1000",
    "hull.trace.n4k_s": "brownian-trace-k2-n4000",
    "hull.simplicity.n1k_s": "brownian-simplicity-k2-n1000",
    "hull.simplicity.n4k_s": "brownian-simplicity-k2-n4000",
    "real_line.capture_scan.c5_s": "scan-c5-reference",
}


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "loewner" / "__init__.py").is_file():
        _fail(f"no loewner package under {SRC}; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import loewner

    if Path(loewner.__file__).resolve().parent != (SRC / "loewner").resolve():
        _fail(f"imported loewner from {loewner.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# running batches
# ---------------------------------------------------------------------------


def _run_task(task, tr):
    from workloads import TaskResult

    clock = time.perf_counter
    frame = tr.enter("bench.task") if tr else None
    t0 = clock()
    out, failures = None, None
    try:
        out = task.run()
    except Exception as exc:  # a raising task is a failed task; keep measuring
        failures = [f"raised {type(exc).__name__}: {exc}"]
    t1 = clock()
    if tr:
        tr.exit(frame, attrs={"task": task.name})
    frame = tr.enter("bench.check") if tr else None
    if failures is None:
        try:
            failures = task.check(out)
        except Exception as exc:
            failures = [f"check raised {type(exc).__name__}: {exc}"]
    t2 = clock()
    if tr:
        tr.exit(frame)
    return TaskResult(task.name, t1 - t0, t2 - t1, failures, dict(task.info))


def _run_verify(tr):
    from loewner import acceptance
    from workloads import TaskResult, check_criteria

    names = [f"c{n:02d}-{name}" for n, name, _ in acceptance.CRITERIA]
    try:
        results = acceptance.run_all()
    except Exception as exc:
        return [TaskResult(n, 0.0, 0.0, [f"run_all raised {type(exc).__name__}: {exc}"]) for n in names]
    frame = tr.enter("bench.check") if tr else None
    t0 = time.perf_counter()
    failures = check_criteria(results)
    check_s = (time.perf_counter() - t0) / len(names)
    if tr:
        tr.exit(frame)
    seconds = {r.number: r.seconds for r in results}
    return [
        TaskResult(name, float(seconds.get(n, 0.0)), check_s, f, {"criterion": n})
        for (n, _, _), name, f in zip(acceptance.CRITERIA, names, failures)
    ]


def run_batch(workload, tasks, tr=None):
    """Run one batch; returns (wall seconds, task results)."""
    frame = tr.enter("bench.batch") if tr else None
    t0 = time.perf_counter()
    if workload == "verify":
        results = _run_verify(tr)
    else:
        results = [_run_task(task, tr) for task in tasks]
    wall = time.perf_counter() - t0
    if tr:
        tr.exit(frame)
    return wall, results


def setup_times(workload: str, seed: int) -> list:
    """Set-up seconds of SETUP_PROBES fresh processes, run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# statistics and environment
# ---------------------------------------------------------------------------


def tail(samples):
    """(value, label): the sample with exactly ten samples beyond it.

    That is the highest percentile with at least ten samples beyond it.  With
    ten samples or fewer no such percentile exists and the maximum is used.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], f"max of {n} (fewer than 11 samples)"
    k = n - 10
    return xs[k - 1], f"p{100.0 * k / n:.0f} of {n} (rank {k}, 10 beyond)"


def git_commit(root: Path):
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas = "unknown"
    threads = {v: os.environ.get(v, "unset") for v in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "workload": workload,
        "seed": seed,
        "commit": git_commit(ROOT),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def batch_time(batches):
    """Wall time of one batch: the sum over its tasks of each task's median
    time (run plus check) over the repetitions of the batch.

    The machine has slow spells of a few seconds.  One stretches the tasks it
    falls on in one repetition; the per-task median drops it, where the median
    of whole batch walls would keep every spell shorter than a batch.
    """
    return sum(
        statistics.median(r.seconds + r.check_seconds for r in runs)
        for runs in zip(*batches)
    )


def end_to_end(batches, setups):
    times = [r.seconds for b in batches for r in b]
    tail_value, _ = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "wall_s": batch_time(batches),
        "task_p50_s": statistics.median(times),
        "task_tail_s": tail_value,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups),
    }
    return {k: (values[k], unit) for k, unit in END_TO_END.items()}


def per_layer(tracer, untraced_wall, traced_wall, untraced):
    from loewner import acceptance
    from tracer import layer_metrics

    m = layer_metrics(tracer)
    by_name = {r.name: r for r in untraced}
    for n, name, _ in acceptance.CRITERIA:
        r = by_name.get(f"c{n:02d}-{name}")
        m[f"acceptance.c{n:02d}_s"] = (r.seconds if r else 0.0, "s")
    for metric, task in BASELINE_TASKS.items():
        m[metric] = (by_name[task].seconds if task in by_name else 0.0, "s")
    m["bench.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    _import_program()
    import workloads
    from tracer import Tracer, instrument

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    tasks = workloads.build(args.workload, args.seed)
    inproc_setup = time.perf_counter() - start

    reps = max(1, int(args.seconds // workloads.NOMINAL_BATCH_S[args.workload]))
    walls, results = [], []
    spans_path = None
    if args.trace:
        untraced_wall, untraced = run_batch(args.workload, tasks)
        tracer = Tracer()
        inst = instrument(tracer)
        try:
            traced_wall, traced = run_batch(args.workload, tasks, tracer)
        finally:
            inst.undo()
        walls, results = [untraced_wall, traced_wall], untraced + traced
        metrics = per_layer(tracer, untraced_wall, traced_wall, untraced)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        tracer.write(spans_path)
    else:
        setups = setup_times(args.workload, args.seed)
        batches = []
        for _ in range(reps):
            wall, res = run_batch(args.workload, tasks)
            walls.append(wall)
            batches.append(res)
            if time.perf_counter() - start > MAX_MEASURE_S:
                break
        results = [r for b in batches for r in b]
        metrics = end_to_end(batches, setups)

    attempted = len(results)
    failed = sum(1 for r in results if r.failures)
    env = environment(args.workload, args.seed)
    env["setup_in_process_s"] = inproc_setup
    times = [r.seconds for r in results]
    uncovered = sum(walls) - sum(times) - sum(r.check_seconds for r in results)

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"batches={len(walls)} tasks/batch={attempted // max(1, len(walls))}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# fail_frac = {failed / attempted} fraction ({failed} of {attempted} tasks)")
    if not args.trace:
        print(f"# task_p50_s over {len(times)} samples; task_tail_s = {tail(times)[1]}")
        print(f"# setup_s median of {SETUP_PROBES} fresh processes: "
              + ", ".join(f"{s:.4f}" for s in setups))
    print("# batch walls: " + ", ".join(f"{w:.4f}" for w in walls) + " s")
    print(f"# batch time not covered by task or check spans: {uncovered:.6f} s "
          f"of {sum(walls):.6f} s")
    for r in results:
        if r.failures:
            print(f"# FAILED {r.name} {r.info}: {'; '.join(r.failures)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}.{name} = {value} {unit}")

    record = {
        "env": env,
        "settings": {"seconds": args.seconds, "trace": args.trace, "repetitions": reps},
        "batch_walls_s": walls,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "tasks": [vars(r) for r in results],
        "spans_file": None if spans_path is None else str(spans_path.relative_to(ROOT)),
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
