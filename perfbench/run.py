"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload gap-oracle --seed 1 --seconds 15 --trace 0

Workloads: gap-oracle, br-dynamics, bat-seed, cw-eval (see README.md).
With --trace 0 the run measures end-to-end metrics for --seconds seconds of
whole rounds. With --trace 1 it wraps the package's layer functions, runs a
fixed number of rounds (so its counts repeat) and reports per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the cores this process may use, one by default.

    Runs before numpy loads. The nets here are 24 units wide: a second
    OpenBLAS thread only spins, doubling CPU time and slowing the op as soon
    as another process holds a core (README.md, "Run hygiene").
    """
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            cur = int(os.environ.get(var, 1))
        except ValueError:
            cur = 1
        os.environ[var] = str(max(1, min(cur, ncpu)))
    return ncpu


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(values_ms):
    """Highest percentile with at least ten ops beyond it, or None under 40 ops."""
    n = len(values_ms)
    if n < 40:
        return None
    return 100.0 * (n - 10) / n, sorted(values_ms)[n - 11]


@contextlib.contextmanager
def paused(tracer):
    """Keep the benchmark's own checks out of the per-layer figures."""
    if tracer is not None:
        tracer.active = False
    try:
        yield
    finally:
        if tracer is not None:
            tracer.active = True


def main(argv=None) -> int:
    args = parse_args(argv)
    ncpu = cap_threads()
    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.isdir(os.path.join(src, "advgame")):
        print(f"no program to benchmark: {src}/advgame is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy
    import scipy

    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - T0

    tracer = None
    if args.trace:
        tracer = Tracer()
        for fn, (_, work) in workloads.LAYER_METRICS.items():
            tracer.install(*fn.split("."), work)

    problems: list[str] = []
    attempted = failed = 0
    digest = hashlib.sha256()
    fault_messages: list[str] = []

    def run_op(state, item, counted=True):
        """One op plus its check; returns (wall s, cpu s), or None if it failed.

        The warm-up op (counted=False) is checked but not counted, so that
        failed/attempted is the same share in every run.
        """
        nonlocal attempted, failed
        attempted += counted
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            result = wl.op(state, item)
        except Exception:
            if not counted:
                raise
            failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        w1, c1 = time.perf_counter(), time.process_time()
        with paused(tracer):
            fault = wl.known_fault(state, item, result)
            if fault is not None:
                failed += counted
                if fault not in fault_messages:
                    fault_messages.append(fault)
                return None
            problems.extend(wl.check(state, item, result))
        digest.update(repr([float(v) for v in wl.numbers(result)]).encode())
        return w1 - w0, c1 - c0

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        state = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t)
    t = time.perf_counter()
    run_op(state, wl.round(state, 0)[0], counted=False)  # untimed warm-up op
    warm_s = time.perf_counter() - t
    setup_s = import_s + statistics.median(setup_times) + warm_s

    walls, cpus = [], []
    rounds = 0
    start = time.perf_counter()
    while True:
        for item in wl.round(state, rounds):
            if tracer is not None:
                tracer.op = attempted
            got = run_op(state, item)
            if got is not None:
                walls.append(got[0])
                cpus.append(got[1])
        rounds += 1
        if tracer is not None:
            if rounds >= wl.traced_rounds:
                break
        elif time.perf_counter() - start >= args.seconds:
            break
    with paused(tracer):
        problems.extend(wl.check_run(state))

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ms = [1e3 * w for w in walls]
    e2e = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(walls) / sum(walls) if walls else 0.0, "op/s"),
        "op_p50_ms": (statistics.median(ms) if ms else 0.0, "ms"),
        "op_cpu_ms": (1e3 * statistics.median(cpus) if cpus else 0.0, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "attempted": attempted, "failed": failed,
        "ops_timed": len(walls), "import_s": import_s, "setup_repeats_s": setup_times,
        "warmup_s": warm_s, "machine": platform.machine(), "cpus": ncpu,
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "digest": digest.hexdigest(), "problems": problems,
        "known_faults": fault_messages,
    }
    tail_ms = tail(ms)
    if tail_ms is not None:
        record["op_tail_ms"] = {"percentile": tail_ms[0], "ops": len(ms), "value": tail_ms[1]}
    for name, (value, unit) in e2e.items():
        print(f"{name} {value:.6g} {unit}")
    if tail_ms is not None:
        print(f"op_tail_ms {tail_ms[1]:.6g} ms (p{tail_ms[0]:.1f} of {len(ms)} ops)")

    if tracer is not None:
        record["end_to_end_traced"] = {k: v for k, (v, _) in e2e.items()}
        metrics = workloads.per_layer(tracer.stats())
        record["per_layer"] = {k: v for k, (v, _) in metrics.items()}
    else:
        metrics = e2e
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.csv")

    print(f"run {wl.name} seed {args.seed}: {rounds} rounds, attempted {attempted}, "
          f"failed {failed}, python {record['python']}, numpy {record['numpy']}, "
          f"scipy {record['scipy']}, {ncpu} cpus, {record['machine']}")
    print(f"digest {record['digest']}")
    for f in fault_messages:
        print(f"KNOWN FAULT (counted in failed): {f}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
