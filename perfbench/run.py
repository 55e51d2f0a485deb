"""degjc benchmark.

    python3 perfbench/run.py --workload validate|detuned|sweeps --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; degjc is imported from ``src/``.
The run sets the BLAS thread count, times several fresh set-ups, then
repeats whole rounds of the workload's operations for about S seconds
(at least one round), checks every output and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Times are in seconds at
reference speed (``speed.py``).  With ``--trace 1`` rounds alternate between
untraced and traced with per-layer spans (at least one of each), and the
metrics are the per-layer ones.  Outputs, the trace and a report go to
``perfbench/out/<workload>/``.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_STARTS = 7
MAX_THREADS = 1  # one BLAS thread leaves the second core to the rest of the machine
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 120
ERROR_FLOOR = 1e-17  # keeps accuracy_digits finite when every sampled error is 0


def blas_threads():
    return max(1, min(MAX_THREADS, len(os.sched_getaffinity(0))))


def time_setups(out_dir, calibration):
    """Fresh interpreters that import degjc and warm up, each timed between
    two kernel samples; returns (seconds at reference speed, raw seconds)."""
    scaled, raw = [], []
    before = calibration.sample()
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(out_dir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        raw.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}:\n{proc.stderr}")
        after = calibration.sample()
        scaled.append(calibration.scaled(raw[-1], before, after))
        before = after
    return scaled, raw


def blas_info(np):
    """numpy and OpenBLAS versions and the thread count OpenBLAS reports."""
    import ctypes

    info = {"numpy": np.__version__, "openblas": None, "openblas_threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                info["openblas"] = get_config().decode()
                info["openblas_threads"] = get_threads()
                return info
    return info


class Tally:
    """Attempts, failures and wrong outputs over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.max_error = 0.0
        self.messages = {}

    def note(self, kind, name, message):
        if kind == "failed":
            self.failed += 1
        else:
            self.wrong += 1
        self.messages.setdefault(f"{kind} {name}", message)


def run_round(workload, out_dir, rng, tally, checks, pacer):
    """Every operation once, then its check.  Returns op name -> latency in
    seconds at reference speed."""
    latencies, raws = {}, {}
    before = pacer.calibration.sample()
    for op in workload.ops:
        tally.attempted += 1
        failure = None
        pacer.begin(before)
        try:
            raw = op.run(out_dir)
        except Exception as exc:  # the program's fault: count it, keep running
            failure = "".join(traceback.format_exception_only(exc)).strip()
        latencies[op.name], before = pacer.end()
        if failure is not None:
            tally.note("failed", op.name, failure)
            continue
        try:
            err = op.check(raw, rng)
        except checks.OpFailed as exc:
            tally.note("failed", op.name, str(exc))
            continue
        except checks.WrongOutput as exc:
            tally.note("wrong", op.name, str(exc))
            continue
        if err is not None:
            tally.max_error = max(tally.max_error, err)
        raws[op.name] = raw
    for label, names, check in workload.group_checks:
        if all(n in raws for n in names):
            try:
                check([raws[n] for n in names])
            except (checks.OpFailed, checks.WrongOutput) as exc:
                tally.note("wrong", label, str(exc))
    return latencies


def end_to_end(rounds, setup_s, tally):
    """The user-visible metrics.  Each operation's latency is its median
    over the rounds; ``wall_s`` is the work of one round, the sum of those
    medians."""
    per_op = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    q50, q90 = _percentiles(sorted(per_op.values()), (50, 90))
    digits = -math.log10(max(tally.max_error, ERROR_FLOOR))
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": sum(per_op.values()), "unit": "s"},
        "op_p50_ms": {"value": 1e3 * q50, "unit": "ms"},
        "op_p90_ms": {"value": 1e3 * q90, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "accuracy_digits": {"value": digits, "unit": "digits"},
    }, per_op


def _percentiles(values, qs):
    """Linear-interpolation percentiles of sorted values."""
    out = []
    for q in qs:
        pos = (len(values) - 1) * q / 100.0
        lo = math.floor(pos)
        hi = min(lo + 1, len(values) - 1)
        out.append(values[lo] + (values[hi] - values[lo]) * (pos - lo))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("validate", "detuned", "sweeps"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "degjc" / "__init__.py").is_file():
        print(f"error: no degjc sources under {SRC}", file=sys.stderr)
        return 2
    threads = blas_threads()
    for var in THREAD_VARS:
        os.environ[var] = str(threads)  # before numpy is imported, here and in the probes
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    import numpy as np

    import speed

    calibration = speed.Calibration(np)
    setups, setups_raw = time_setups(out_dir, calibration)

    sys.path.insert(0, str(SRC))
    import degjc

    if Path(degjc.__file__).resolve().parent != (SRC / "degjc").resolve():
        print(f"error: degjc imported from {degjc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from setup_probe import warm_up

    warm_up(out_dir)

    import checks
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    rng = np.random.default_rng(args.seed)
    tally = Tally()
    rounds, traced, walls = [], [], []
    tracer = tracing.Tracer() if args.trace else None
    pacer = speed.Pacer(calibration)
    pacer.install()
    start = time.perf_counter()
    while True:
        # With tracing, rounds alternate untraced / traced, so that both
        # sides see the same share of first-round and machine effects.
        traced_round = tracer is not None and len(rounds) > len(traced)
        if traced_round:
            tracer.install()
        t0 = time.perf_counter()
        latencies = run_round(workload, out_dir, rng, tally, checks, pacer)
        walls.append(time.perf_counter() - t0)
        if traced_round:
            tracer.uninstall()
        (traced if traced_round else rounds).append(latencies)
        if tracer is not None and not traced:
            continue
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break
    pacer.uninstall()
    scale = calibration.scale()

    env = blas_info(np)
    env.update(threads_set=threads, nproc=os.cpu_count(), python=sys.version.split()[0],
               kernel_backend=getattr(degjc, "KERNEL_BACKEND", None))
    metrics, per_op = end_to_end(rounds, statistics.median(setups), tally)
    if tracer is not None:
        untraced = statistics.median(sum(r.values()) for r in rounds)
        with_trace = statistics.median(sum(r.values()) for r in traced)
        layer = tracer.metrics(len(traced), scale)
        layer["trace.overhead_pct"] = {"value": 100.0 * (with_trace / untraced - 1.0), "unit": "%"}
        (out_dir / "trace.json").write_text(json.dumps(tracer.dump()))
        metrics = layer
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": len(rounds), "traced_rounds": len(traced), "round_s": walls,
        "calibration_s": calibration.samples, "scale": scale,
        "setup_starts_raw_s": setups_raw,
        "op_latency_s": per_op, "environment": env, "problems": tally.messages,
        "metrics": metrics,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=1))
    print(f"# {args.workload}: {len(rounds)} rounds, {len(traced)} traced; "
          f"BLAS threads {env['openblas_threads']} (set {threads}), nproc {env['nproc']}, "
          f"numpy {env['numpy']}, {env['openblas']}", file=sys.stderr)
    for key, message in tally.messages.items():
        print(f"# {key}: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
