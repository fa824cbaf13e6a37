"""merosolve benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one caller in a closed loop: the next operation starts only
after the previous one returns.  The workload's seeded inputs are cycled for
``--seconds`` seconds; every output is checked, and repeats of an input must
give identical bytes.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` spends half the time untraced and half traced and reports the
per-layer metrics.  ``--workload all`` runs every workload in turn, each in
its own process.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record goes to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported, here and in every
# child process, so the load stays one busy thread.
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import math  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("width-deep", "cli-mix", "probe-atlas")
SETUP_REPEATS = 5
CAL_INTERVAL_S = 0.25
CAL_REPEATS = 3
# Time of the calibration kernel at reference speed: a 2-CPU Intel Xeon
# virtual machine with CPython 3.11.7, the kind ROADMAP.md's baseline table
# was measured on, in its fast state.  Operation times are rescaled to it.
CAL_REFERENCE_S = 0.0025
TAIL_BEYOND = 10
MAX_LISTED_FAILURES = 20

# Child for setup_s: a fresh interpreter imports merosolve, generates the
# workload's inputs and reports that it is ready for the first operation.
SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import merosolve, workloads; "
    "workloads.make(sys.argv[3], int(sys.argv[4])); print('ready', flush=True)"
)

# Scale of ROADMAP.md's baseline table (2-CPU machine, CPython 3.11.7).
BASELINE_SCALE = {
    "width-deep": ("op_p50_s", 2.44, "in-process analyze_payload at K = 48 took about 2 s"),
    "probe-atlas": ("numeric.steps_per_s", 18500.0, "DP5 ran at 16-21k accepted steps/s"),
}

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", "per_family", ".coverage")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def _kernel():
    acc = Fraction(0)
    for i in range(1, 160):
        acc = acc * Fraction(i, i + 1) + Fraction(1, i * i + 1)
    z = 0.3 + 0.1j
    for _ in range(6000):
        z = z * (0.999 + 0.001j) + 1e-3 / (z + 1.0)
    counts = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    ",".join(format(i * 0.1, ".17g") for i in range(500))


def speed_scale() -> float:
    """Factor that rescales a wall time measured now to reference speed.

    On a shared 2-CPU virtual machine the CPU speed drifts by up to 2x over
    minutes, which moves every wall time alike.  A fixed pure-Python kernel (Fraction, complex
    float, dict and formatting work, as in merosolve) is timed next to the
    operations; its best of CAL_REPEATS runs gives the current speed.
    """
    best = math.inf
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return CAL_REFERENCE_S / best


@dataclass
class OpRecord:
    op_id: int
    cycle: int
    wall_s: float
    scale: float = None   # mean speed scale of the calibrations around the op

    @property
    def seconds(self) -> float:
        return self.wall_s * self.scale


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0          # operations with a problem that is no known defect
    known_defects: int = 0   # operations whose only problems are known defects
    examples: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)   # input key -> digest of first output
    checked: dict = field(default_factory=dict)   # digest -> problems found in it

    def record(self, key, problems):
        """Count one operation; ``problems`` holds (message, known_defect) pairs.

        An operation whose output shows only a defect recorded in ROADMAP.md
        is counted in ``known_defects``, not in ``failed``: it completed and
        gave the output the program is known to give.  Any other problem,
        alone or next to a known defect, fails the operation.
        """
        self.attempted += 1
        if not problems:
            return
        if all(known for _, known in problems):
            self.known_defects += 1
        else:
            self.failed += 1
        for message, known in problems:
            example = {"input": key, "problem": message, "known_defect": known}
            if len(self.examples) < MAX_LISTED_FAILURES and example not in self.examples:
                self.examples.append(example)


def run_op(workload, inp, outcome, tracer=None, op_id=0) -> float:
    """Run one operation and check it; only the operation itself is timed.

    Repeats of an input must reproduce the first output's bytes, and each
    distinct output is checked once.
    """
    if tracer is not None:
        tracer.begin_op(op_id)
    t0 = time.perf_counter()
    try:
        body = workload.run(inp)
    except Exception as exc:  # a failed operation is counted, not fatal
        body = None
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    if body is None:
        outcome.record(inp.key, [(error, False)])
        return elapsed
    digest = hashlib.sha256(body.encode()).hexdigest()
    if outcome.digests.setdefault(inp.key, digest) != digest:
        problems = [("output bytes differ from an earlier repeat", False)]
    else:
        if digest not in outcome.checked:
            try:
                found = [(p.message, p.known_defect) for p in workload.check(inp, body)]
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                found = [(f"output not readable by the check: {exc!r}", False)]
            outcome.checked[digest] = found
        problems = outcome.checked[digest]
    outcome.record(inp.key, problems)
    return elapsed


def run_loop(workload, seconds, outcome, tracer=None, first_op=0):
    """Cycle the inputs until ``seconds`` of wall time have passed.

    Returns the records of the operations in complete cycles (of all
    operations when no cycle completed) and the next free operation id.
    """
    inputs = workload.inputs
    records = []
    deadline = time.perf_counter() + seconds
    op_id = first_op
    # The speed is sampled at least every CAL_INTERVAL_S between operations;
    # an operation takes the mean of the samples just before and after it.
    scales, pending = [], []
    calibrated_at = -math.inf
    while not records or time.perf_counter() < deadline:
        if time.perf_counter() - calibrated_at >= CAL_INTERVAL_S:
            scales.append(speed_scale())
            calibrated_at = time.perf_counter()
            for r in pending:
                r.scale = (r.scale + scales[-1]) / 2
            pending = []
        cycle, pos = divmod(op_id - first_op, len(inputs))
        elapsed = run_op(workload, inputs[pos], outcome, tracer, op_id)
        records.append(OpRecord(op_id, cycle, elapsed, scales[-1]))
        pending.append(records[-1])
        op_id += 1
    scales.append(speed_scale())
    for r in pending:
        r.scale = (r.scale + scales[-1]) / 2
    last_cycle = (op_id - first_op) // len(inputs)
    complete = [r for r in records if r.cycle < last_cycle]
    return complete or records, op_id


def timing_metrics(records):
    """Timing metrics at reference speed, and details for the record.

    The tail is the highest percentile with TAIL_BEYOND samples beyond it.
    With fewer than 2 * TAIL_BEYOND + 1 samples that percentile would lie
    below the median, so the tail is the median there.
    """
    times = sorted(r.seconds for r in records)
    n = len(times)
    median = statistics.median(times)
    if n > 2 * TAIL_BEYOND:
        tail, beyond = times[n - TAIL_BEYOND - 1], TAIL_BEYOND
    else:
        tail, beyond = median, n // 2
    return {
        "op_p50_s": median,
        "op_tail_s": tail,
        "ops_per_s": n / sum(times),
    }, {
        "samples": n,
        "op_wall_s": [r.wall_s for r in records],
        "speed_scale": [r.scale for r in records],
        "wall_op_p50_s": statistics.median(r.wall_s for r in records),
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_samples_beyond": beyond,
        "cycles": len({r.cycle for r in records}),
    }


def measure_setup(workload: str, seed: int) -> list:
    """Wall times of SETUP_REPEATS fresh set-ups, each with its speed scale.

    The parent and the child are pinned to one CPU meanwhile, so that the
    calibration before and after each child sees the CPU the child ran on.
    """
    env = {**os.environ, **BLAS_ENV}
    argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH), workload, str(seed)]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    times = []
    try:
        for _ in range(SETUP_REPEATS):
            before = speed_scale()
            t0 = time.perf_counter()
            with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  text=True) as child:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - t0
                child.stdout.read()
                code = child.wait(timeout=60)
            if line.strip() != "ready" or code != 0:
                raise RuntimeError(f"set-up child failed with exit code {code}")
            times.append((elapsed, (before + speed_scale()) / 2))
    finally:
        os.sched_setaffinity(0, allowed)
    return times


def environment(seed: int) -> dict:
    import numpy
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None   # the benchmark may run from an export, not a clone
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "seed": seed,
    }


def scale_note(workload: str, metrics: dict):
    if workload not in BASELINE_SCALE or BASELINE_SCALE[workload][0] not in metrics:
        return None
    name, baseline, text = BASELINE_SCALE[workload]
    ratio = metrics[name] / baseline
    return {
        "metric": name, "measured": metrics[name], "baseline": baseline,
        "ratio": ratio, "within_2x": 0.5 <= ratio <= 2.0,
        "note": f"ROADMAP.md baseline: {text}",
    }


def run_workload(args) -> int:
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads
    setup_times = None if args.trace else measure_setup(args.workload, args.seed)
    workload = workloads.make(args.workload, args.seed)
    outcome = Outcome()
    gc.collect()
    run_op(workload, workload.inputs[0], outcome)   # warm-up, checked but not timed
    first_op = 1
    extra = {}
    if not args.trace:
        records, _ = run_loop(workload, args.seconds, outcome, first_op=first_op)
        metrics, extra["timing"] = timing_metrics(records)
        metrics["setup_s"] = statistics.median(wall * scale for wall, scale in setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        extra["setup_wall_s"] = [wall for wall, _ in setup_times]
        extra["setup_speed_scale"] = [scale for _, scale in setup_times]
        units = END_TO_END_UNITS
    else:
        import spans
        untraced, first_op = run_loop(workload, args.seconds / 2, outcome, first_op=first_op)
        before = (outcome.attempted, outcome.known_defects)
        tracer = spans.Tracer().install()
        t0 = time.perf_counter()
        try:
            traced, _ = run_loop(workload, args.seconds / 2, outcome, tracer, first_op)
        finally:
            tracer.uninstall()
        untraced_p50 = timing_metrics(untraced)[0]["op_p50_s"]
        traced_p50 = timing_metrics(traced)[0]["op_p50_s"]
        metrics, layer_self = spans.layer_metrics(
            tracer, {r.op_id: r.scale for r in traced}, untraced_p50, traced_p50)
        # The only known defect the checks recognise is a resonance that
        # balance.compute_resonances drops (ROADMAP item 4).
        metrics["balance.dropped_resonance_frac"] = (
            (outcome.known_defects - before[1]) / (outcome.attempted - before[0]))
        extra["layer_self_s_per_op"] = layer_self
        extra["largest_self_time_layer"] = max(layer_self, key=layer_self.get)
        extra["untraced_op_p50_s"] = untraced_p50
        extra["traced_op_p50_s"] = traced_p50
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write_spans(spans_path, t0)
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
        units = {name: per_layer_unit(name) for name in metrics}

    failed = outcome.failed
    correct = failed == 0
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "inputs": [inp.key for inp in workload.inputs],
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "failed_frac": failed / outcome.attempted,
        "known_defects": outcome.known_defects,
        "failure_examples": outcome.examples,
        "output_digests": outcome.digests,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "scale_check": scale_note(args.workload, metrics),
        **extra,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, value in metrics.items():
        print(f"{args.workload:12s} {name:36s} {value:.6g} {units[name]}")
    if not args.trace:
        t = extra["timing"]
        print(f"{args.workload:12s} op_tail_s is p{t['tail_percentile']:.1f} of "
              f"{t['samples']} ops ({t['tail_samples_beyond']} beyond)")
    print(f"{args.workload:12s} failed_frac {record['failed_frac']:.4g} ratio "
          f"({failed} of {outcome.attempted}); known defects in "
          f"{outcome.known_defects} ops; record in {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {done.returncode}",
                  file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="merosolve benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "merosolve" / "__init__.py").is_file():
        print(f"merosolve sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
