"""lingualchemy benchmark: training runs, scaling sweeps and run analysis.

One workload per invocation, run from the root of a lingualchemy checkout:

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 30 --trace 0

All three workloads in turn, each in its own process, with a summary table:

    python3 perfbench/run.py --all --seed 1 --seconds 30 --trace 0

The load is closed-loop with one client: the next iteration starts when the
last one finishes, while the run is expected to end at most half an
iteration past ``--seconds`` (at least one iteration).
With ``--trace 0`` the run sets up several times, then iterates, and reports
end-to-end metrics; with ``--trace 1`` it traces one set-up, then runs
untraced and traced iterations in turn and reports per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object.

Run artifacts (temporary run directories, span files, the digest record)
go under ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"
WORKLOAD_NAMES = ("train_default", "sweep_scale", "analyze_run")
POOLED = ("sweep_scale",)
# Set-up runs at least this often and for at least this long; its median
# is reported.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
IMPORT_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    return args


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def code_digest() -> str:
    """Digest of the program's and the benchmark's own sources."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "lingualchemy").glob("*.py"),
                        *Path(__file__).resolve().parent.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (the
    sweep's pool workers), as ``getrusage`` reports them."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def keep_going(times, start: float, seconds: float) -> bool:
    """Start another iteration while the run is expected to end at most half
    an iteration past ``seconds``; always run at least one."""
    if not times:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * statistics.median(times) < seconds


def timed_loop(workload, seconds: float):
    """Closed loop: one client, the next iteration after the last one."""
    iterations, times = [], []
    start = time.perf_counter()
    while keep_going(times, start, seconds):
        t0 = time.perf_counter()
        iterations.append(workload.iteration())
        times.append(time.perf_counter() - t0)
    return iterations, times


def check_determinism(iterations, record_path: Path, key: str) -> int:
    """Every operation must reproduce the digest of the same operation in
    the first iteration and in earlier runs of this workload and seed on the
    same code. A mismatch fails the operation; returns the count."""
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = {}
    expected = dict(record.get(key, {}))
    mismatches = 0
    for it in iterations:
        for j, op in enumerate(it.ops):
            if op.digest is None:
                continue
            want = expected.setdefault(f"{j}:{op.name}", op.digest)
            if op.digest != want:
                mismatches += 1
                note = f"output digest {op.digest} differs from {want}"
                op.problem = f"{op.problem}; {note}" if op.problem else note
    if not mismatches and expected != record.get(key):
        record[key] = expected
        tmp = record_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
        os.replace(tmp, record_path)
    return mismatches


def describe(name, samples, unit, what) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    line = (f"{name:<20} {statistics.median(samples):12.6g} {unit:<4} "
            f"median of {len(samples)} {what}")
    for p in TAIL_PERCENTILES:
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return line + f", p{p:g} {tracing.percentile(samples, p):.6g}"
    return line + "; no percentile has 10 samples beyond it"


def report_failures(iterations) -> list[str]:
    counts = Counter(f"{op.name}: {op.error or op.problem}"
                     for it in iterations for op in it.ops if op.failed)
    return [f"  failed x{n}  {what}" for what, n in counts.items()]


def import_times() -> list[float]:
    """Wall time of a fresh interpreter importing numpy and lingualchemy,
    as a user's ``lingualchemy`` command pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, lingualchemy.cli"],
                       env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def measure_untraced(workload, seconds: float):
    setup_times = []
    begin = time.perf_counter()
    while (len(setup_times) < SETUP_MIN_REPEATS
           or time.perf_counter() - begin < SETUP_MIN_SECONDS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    iterations, times = timed_loop(workload, seconds)
    return iterations, times, setup_times


def measure_traced(workload, seconds: float, package):
    """One traced set-up, then untraced and traced iterations in turn for
    about ``seconds``, at least one of each. The untraced iterations are the
    baseline of the tracing overhead."""
    tracer = tracing.Tracer()
    tracer.install(package)
    workload.setup(tracer)
    tracer.uninstall()
    iterations, plain, traced = [], [], []
    start = time.perf_counter()
    while not traced or keep_going(plain + traced, start, seconds):
        trace_this = len(plain) > len(traced)
        if trace_this:
            tracer.run_id = f"iteration{len(traced) + 1}"
            tracer.install(package)
        t0 = time.perf_counter()
        try:
            iterations.append(workload.iteration(tracer if trace_this else None))
        finally:
            tracer.uninstall()
        (traced if trace_this else plain).append(time.perf_counter() - t0)
    return iterations, plain, traced, tracer


def print_end_to_end(iterations, times, setup_times, imports, rss) -> dict:
    steps = sum(it.train_steps for it in iterations)
    accs = [it.unseen_acc for it in iterations if it.unseen_acc is not None]
    import_s = statistics.median(imports)
    values = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "run_s": (statistics.median(times), "s"),
        "unseen_acc": (statistics.median(accs) if accs else 0.0, "fraction"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(describe("setup_s", [import_s + s for s in setup_times], "s",
                   f"set-ups, each plus the median import {import_s:.4g} s "
                   f"of {len(imports)} fresh interpreters"))
    print(describe("run_s", times, "s", "iterations"))
    if steps:
        print(f"{'train_steps_per_s':<20} {steps / sum(times):12.6g} 1/s  "
              f"{steps} AdamW steps in {sum(times):.4g} s")
    print(f"{'unseen_acc':<20} {values['unseen_acc'][0]:12.6g} fraction "
          f"median of {len(accs)} iterations")
    print(f"{'peak_rss_mb':<20} {values['peak_rss_mb'][0]:12.6g} MB   "
          "this process plus its largest child")
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def print_layers(args, tracer, plain, traced) -> dict:
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics = {}
    for name, value, unit, listed in tracing.layer_metrics(
            tracer, len(traced), overhead):
        print(f"{name:<46} {value:14.6g} {unit}"
              + ("" if listed else "   (printed only)"))
        if listed:
            metrics[name] = {"value": value, "unit": unit}
    print(f"iterations: {len(traced)} traced, median {statistics.median(traced):.6g}"
          f" s; {len(plain)} untraced, median {statistics.median(plain):.6g} s")
    if args.workload in POOLED:
        print("note: traced at pool width 1, because spans in worker "
              "processes are not collected")
    span_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write(span_path)
    print(f"spans: {len(tracer.spans)} written to {span_path}")
    return metrics


def run_workload(args) -> int:
    nproc = len(os.sched_getaffinity(0))
    width = nproc if args.workload in POOLED else 1
    # width x BLAS threads stays within nproc. One BLAS thread everywhere:
    # the encoder's matrices are at most 32x128, too small for a second
    # thread to help, and an idle OpenBLAS thread spins on a core.
    blas_threads = 1
    for var in BLAS_ENV:
        os.environ[var] = str(blas_threads)
    if not (SRC / "lingualchemy" / "__init__.py").is_file():
        print(f"perfbench: no lingualchemy sources under {SRC}; run it from "
              "the root of a lingualchemy checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import lingualchemy
    import lingualchemy.cli  # noqa: F401  (the analyze_run entry point)

    from workloads import WORKLOADS, training_seed

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    traced = bool(args.trace)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, nproc, traced)
        if traced:
            iterations, plain, traced_times, tracer = measure_traced(
                workload, args.seconds, lingualchemy)
        else:
            iterations, times, setup_times = measure_untraced(workload,
                                                              args.seconds)
            rss = peak_rss_mb()   # before the import probes add children
            imports = import_times()
    except Exception as exc:
        print(f"perfbench: {args.workload} could not run: {exc!r}",
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    key = (f"{args.workload}|seed={args.seed}|code={code_digest()}"
           f"|numpy={np.__version__}")
    mismatches = check_determinism(iterations, OUT / "digests.json", key)
    ops = [op for it in iterations for op in it.ops]
    failed = sum(op.failed for op in ops)
    correct = mismatches == 0 and not any(op.error for op in ops)

    print(f"workload {args.workload}  seed {args.seed} (training seed "
          f"{training_seed(args.seed)})  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"env: python {platform.python_version()}, numpy {np.__version__}, "
          f"BLAS {blas_name(np)}, BLAS threads {blas_threads}, nproc {nproc}, "
          f"pool width {1 if traced else width}, start method "
          f"{multiprocessing.get_start_method()}, commit {commit()}, "
          f"code digest {code_digest()}")
    print("load: closed loop, one client")
    if traced:
        metrics = print_layers(args, tracer, plain, traced_times)
    else:
        metrics = print_end_to_end(iterations, times, setup_times, imports,
                                   rss)
    print(f"ops_attempted {len(ops)}  ops_failed {failed}  "
          f"digest mismatches {mismatches}")
    for line in report_failures(iterations):
        print(line)
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (BLAS threads are fixed at import)."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        rows.append((name, result))
    print("summary")
    for name, result in rows:
        print(f"  {name}: correct {result['correct']}, ops_attempted "
              f"{result['attempted']}, ops_failed {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"    {metric:<46} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
