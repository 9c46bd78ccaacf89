"""Layer benchmark for cosetalg.

    python3 perfbench/run.py --workload {catalog,ladder,solve} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all ...   # each workload in turn

Run from the root of a checkout: the package is imported from ./src, never
from an installed copy, and the run fails (exit 2) when ./src is missing.

--trace 0 sets up (median of five set-ups), then cycles through the steps
of the workload for about --seconds and reports, per metric, the sum over
steps of each step's median. Times are scaled to a fixed reference speed of
the host (see Speedometer); the detail line also gives them unscaled.
--trace 1 runs one untraced pass, then one pass with every public cosetalg
function wrapped in a span (see tracer.py), reports per-layer metrics and
writes the spans to .perfbench/. Span times are not scaled; the tracing
overhead is the difference of the two passes at reference speed.

Standard output: one JSON line with every metric that applies to the
workload, stamped with the host and library versions, then, as the last
line, the result {"correct", "attempted", "failed", "metrics"} whose metrics
are those BENCHMARK.json lists for the run's trace mode.
"""

from __future__ import annotations

import os

# Single-threaded numpy: must be set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import itertools
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS, Tally

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
SETUPS = 5

UNITS = {
    "setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio",
    "suite_float_s": "s", "suite_exact_s": "s", "build_s": "s",
    "qconv_per_s": "1/s", "gconv_per_s": "1/s",
    "identity_solve_s": "s", "mhg_solve_s": "s",
}
# The metrics of the result line (BENCHMARK.json end_to_end), shared by all
# workloads; the others above appear in the detail line.
END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")

CHECK_IDS = (
    "C13_UNIQUE_ID", "C14_INVOLUTION", "D6_CONV", "L11_RIGHT_ID", "L17_COMPAT",
    "P15_NORMALITY", "P16_EMBED", "P19_LP", "P1_MHG", "P2_DENSITY", "P3_LIFT",
    "P4_ISOMETRY", "T18_IDEAL", "T8_ALGEBRA", "W0_WEIL",
)


def import_package():
    """Import cosetalg afresh from ./src (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "cosetalg" or n.startswith("cosetalg.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ca = importlib.import_module("cosetalg")
    importlib.import_module("cosetalg.cli")
    if Path(ca.__file__).resolve().parent != (SRC / "cosetalg").resolve():
        raise SystemExit(f"error: cosetalg imported from {ca.__file__}, not {SRC}")
    return ca


def setup(workload: str, sizes, seed: int, tally: Tally):
    """Import, generate the seeded inputs, warm up on S3/<(12)>."""
    cls = WORKLOADS[workload][0]
    ca = import_package()
    bench = cls(sizes["full"], seed)
    one_pass(cls(sizes["warmup"], seed), ca, tally)
    return ca, bench


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def stamp(ca) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "backend": ca.BACKEND}


class Speedometer:
    """Samples the host's speed while the workload runs.

    The host's speed drifts by tens of percent within seconds, as other
    tenants load its cores and caches. While `running`, a timer signal
    interrupts the workload every PERIOD_S and times a fixed reference job
    that calls nothing in cosetalg. A timed interval, with those pauses left
    out, is scaled by the job's reference time over its mean time during the
    interval: the interval's length at one fixed speed, which is what the
    end-to-end times report.

    The job is interpreter loops and Fraction arithmetic, the work that
    dominates the catalog and the solves; array scans tracked the host's
    speed worse in trials on this host.
    """

    PERIOD_S = 0.5
    REFERENCE_S = 0.02      # job time at reference speed
    RECENT = 3

    def __init__(self):
        self.jobs: list[float] = []
        self.paused = 0.0

    @staticmethod
    def job() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        x = Fraction(1, 3)
        for _ in range(1_000):
            x = x * Fraction(3, 4) + Fraction(1, 7)
            x = Fraction(x.numerator % 10007, x.denominator % 10007 or 1)
        return time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.jobs.append(self.job())
        self.paused += time.perf_counter() - start

    def clock(self) -> float:
        """Seconds, not counting the reference jobs."""
        return time.perf_counter() - self.paused

    def factor(self, first_job: int) -> float:
        """Scale for an interval during which jobs[first_job:] ran; a short
        interval without a job of its own uses the latest RECENT jobs."""
        during = self.jobs[first_job:] or self.jobs[-self.RECENT:]
        return self.REFERENCE_S / statistics.mean(during)

    @contextlib.contextmanager
    def running(self):
        self.jobs += [self.job() for _ in range(self.RECENT)]
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def scaled(out: dict, factor: float) -> dict:
    return {k: v * factor if k.endswith("_s") else v for k, v in out.items()}


def run_step(step, ca, tally: Tally) -> dict:
    """A step that raises counts as one failed operation and reports nothing."""
    try:
        return step(ca, tally)
    except Exception:
        tally.gate(False, traceback.format_exc())
        return {}


def one_pass(bench, ca, tally: Tally) -> dict:
    """Every step once; the step metrics plus pass_s."""
    start = tally.clock()
    sums: dict[str, float] = {}
    for step in bench.steps():
        for name, value in run_step(step, ca, tally).items():
            sums[name] = sums.get(name, 0) + value
    out = bench.summarize(sums)
    out["pass_s"] = tally.clock() - start
    return out


def measure(bench, ca, tally: Tally, seconds: float,
            speed: Speedometer) -> tuple[dict, float, int]:
    """Cycle through the steps while the next one is expected to end within
    `seconds`, after at least `min_passes` full passes. Each step's metrics
    are the medians of its repeats; a pass is the sum over steps. Returns the
    metrics at reference speed, the unscaled pass_s, and the least number of
    repeats of any step."""
    steps = bench.steps()
    samples: list[list[dict]] = [[] for _ in steps]
    walls: list[list[float]] = [[] for _ in steps]
    start = time.perf_counter()
    for i in itertools.count():
        j = i % len(steps)
        if i >= len(steps) * bench.min_passes:
            expected = statistics.median(walls[j])
            if time.perf_counter() - start + expected > seconds:
                break
        first_job, step_start = len(speed.jobs), speed.clock()
        out = run_step(steps[j], ca, tally)
        out["pass_s"] = speed.clock() - step_start
        walls[j].append(out["pass_s"])
        samples[j].append(scaled(out, speed.factor(first_job)))
    sums: dict[str, float] = {}
    for runs in samples:
        for name in {name for r in runs for name in r}:
            sums[name] = sums.get(name, 0) + statistics.median(
                r[name] for r in runs if name in r)
    out = bench.summarize(sums)
    out["pass_s"] = sums["pass_s"]
    wall = sum(statistics.median(w) for w in walls)
    return out, wall, min(len(runs) for runs in samples)


# --- per-layer metrics --------------------------------------------------------

def _hooks() -> dict:
    def table_mb(tr, args, kwargs, G):
        tr.peak("groups.table_mb", G.mul.nbytes / 1e6)

    def tensor_mb(tr, args, kwargs, T):
        tr.peak("quotient_algebra.tensor_mb", (T.counts.nbytes + T.c.nbytes) / 1e6)

    def identity_rows(sides):
        def observe(tr, args, kwargs, result):
            k = args[0].coset_count
            tr.count("quotient_algebra.identity_rows", sides * k * k * k)
        return observe

    def rref_cells(tr, args, kwargs, result):
        m = args[0]
        tr.count("exact.rref_cells", len(m) * (len(m[0]) if m else 0))

    return {
        "groups.build_from_cayley_table": {"observe": table_mb},
        "quotient_algebra.structure_table": {"observe": tensor_mb},
        "quotient_algebra.find_left_identity": {"observe": identity_rows(1)},
        "quotient_algebra.find_two_sided_identity": {"observe": identity_rows(2)},
        "exact.rref": {"observe": rref_cells},
        "verifier.run_check": {"suffix": lambda args, kwargs: args[0].id},
    }


def layer_metrics(agg: dict, counters: dict) -> dict:
    def get(field, *names):
        return sum(agg.get(n, {}).get(field, 0) for n in names)

    def total(*names):
        return get("total", *names)

    def own(*names):
        return get("self", *names)

    def calls(*names):
        return get("calls", *names)

    g, k, m, qo, qa, ex, v = ("groups.", "_kernels.", "measures.", "quotient_ops.",
                              "quotient_algebra.", "exact.", "verifier.")
    mirrors = [ex + f for f in ("group_convolve_exact", "quotient_convolve_exact",
                                "lift_exact", "pushforward_exact")]
    draws = [v + f for f in ("draw_measure", "draw_density", "draw_rho",
                             "draw_rational_weights")]
    ops = [qo + "lift_to_invariant", qo + "pushforward_rh", qo + "quasi_invariant_lambda"]
    out = {
        "groups.closure_s": (own(g + "build_from_permutation_generators"), "s"),
        "groups.validate_s": (total(g + "build_from_cayley_table"), "s"),
        "groups.coset_space_s": (total(g + "build_coset_space"), "s"),
        "groups.coset_space_calls": (calls(g + "build_coset_space"), "count"),
        "groups.normality_s": (total(g + "test_normality"), "s"),
        "groups.table_mb": (counters.get("groups.table_mb", 0.0), "MB"),
        "kernels.structure_counts_s": (total(k + "structure_counts"), "s"),
        "kernels.structure_counts_calls": (calls(k + "structure_counts"), "count"),
        "kernels.quotient_convolve_s": (total(k + "quotient_convolve_weights"), "s"),
        "kernels.quotient_convolve_calls": (calls(k + "quotient_convolve_weights"), "count"),
        "kernels.group_convolve_s": (total(k + "group_convolve_weights"), "s"),
        "kernels.group_convolve_calls": (calls(k + "group_convolve_weights"), "count"),
        "quotient_algebra.structure_table_s": (own(qa + "structure_table"), "s"),
        "quotient_algebra.tensor_mb": (counters.get(qa + "tensor_mb", 0.0), "MB"),
        "quotient_algebra.quotient_convolve_s": (own(qa + "quotient_convolve"), "s"),
        "quotient_algebra.quotient_convolve_calls": (calls(qa + "quotient_convolve"), "count"),
        "quotient_algebra.identity_solve_s": (
            own(qa + "find_left_identity", qa + "find_two_sided_identity"), "s"),
        "quotient_algebra.identity_rows": (counters.get(qa + "identity_rows", 0), "count"),
        "quotient_algebra.lp_action_s": (total(qa + "lp_action"), "s"),
        "quotient_algebra.l1_convolve_s": (total(qa + "l1_convolve"), "s"),
        "quotient_ops.lift_s": (total(ops[0]), "s"),
        "quotient_ops.pushforward_s": (total(ops[1]), "s"),
        "quotient_ops.lambda_s": (total(ops[2]), "s"),
        "quotient_ops.calls": (calls(*ops), "count"),
        "quotient_ops.solve_mhg_s": (own(qo + "solve_mhg_space"), "s"),
        "measures.carrier_calls": (calls(m + "group_carrier", m + "quotient_carrier"), "count"),
        "measures.measure_calls": (counters.get(m + "ComplexMeasure", 0)
                                   + counters.get(m + "DensityFunction", 0), "count"),
        "measures.group_convolve_s": (own(m + "group_convolve"), "s"),
        "exact.rref_s": (total(ex + "rref"), "s"),
        "exact.rref_calls": (calls(ex + "rref"), "count"),
        "exact.rref_cells": (counters.get(ex + "rref_cells", 0), "count"),
        "exact.mirror_s": (total(*mirrors), "s"),
        "exact.mirror_calls": (calls(*mirrors), "count"),
        "verifier.context_builds": (calls(v + "make_context"), "count"),
        "verifier.context_s": (total(v + "make_context"), "s"),
        "verifier.draw_s": (total(*draws), "s"),
    }
    for cid in CHECK_IDS:
        out[f"verifier.check_s.{cid}"] = (total(f"{v}run_check.{cid}"), "s")
    out["cli.self_s"] = (total("cli.main") - total("verifier.run_suite"), "s")
    return out


# --- runs ---------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """One benchmark run; returns the detail record and prints both lines."""
    sizes = sizes or WORKLOADS[workload][1]
    speed = Speedometer()
    tally = Tally(clock=speed.clock)
    if trace:
        with speed.running():
            ca, bench = setup(workload, sizes, seed, tally)
            first_job = len(speed.jobs)
            plain = one_pass(bench, ca, tally)
            plain_s = plain["pass_s"] * speed.factor(first_job)
            tracer = Tracer(clock=speed.clock)
            first_job = len(speed.jobs)
            with tracer.install(_hooks()):
                traced = one_pass(bench, ca, tally)
            traced_s = traced["pass_s"] * speed.factor(first_job)
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write(SPAN_DIR / f"spans-{workload}-{seed}.npz")
        layers = layer_metrics(tracer.aggregate(), tracer.counters)
        layers["trace.overhead_s"] = (traced_s - plain_s, "s")
        layers["trace.spans"] = (len(tracer.spans), "count")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
        detail = {"workload": workload, "seed": seed, "trace": 1, "stamp": stamp(ca),
                  "untraced": plain, "traced": traced}
        shown = metrics
    else:
        setups, walls = [], []
        with speed.running():
            for _ in range(SETUPS):
                first_job, start = len(speed.jobs), speed.clock()
                ca, bench = setup(workload, sizes, seed, tally)
                walls.append(speed.clock() - start)
                setups.append(walls[-1] * speed.factor(first_job))
            values, wall_pass, passes = measure(bench, ca, tally, seconds, speed)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = peak_rss_mb()
        values["fail_ratio"] = tally.failed / tally.attempted
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in values.items()}
        detail = {"workload": workload, "seed": seed, "trace": 0, "stamp": stamp(ca),
                  "passes": passes,
                  "wall": {"pass_s": wall_pass, "setup_s": statistics.median(walls)},
                  "reference_job_s": statistics.median(speed.jobs)}
        shown = {name: metrics[name] for name in END_TO_END}

    detail.update(attempted=tally.attempted, failed=tally.failed, metrics=metrics)
    print(json.dumps(detail))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": shown}))
    return detail


def run_all(args) -> int:
    """Each workload in its own process, then a table of every metric."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        detail = json.loads(lines[-2])
        status = status or int(detail["failed"] > 0)
        rows += [(workload, name, m["value"], m["unit"])
                 for name, m in detail["metrics"].items()]
    for workload, name, value, unit in rows:
        print(f"{workload:8s} {name:42s} {value:14.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cosetalg" / "__init__.py").is_file():
        print(f"error: no cosetalg package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
