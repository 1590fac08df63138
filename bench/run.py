#!/usr/bin/env python3
"""fairedge benchmark.

Run from the repository root:

    python3 bench/run.py --workload exhaustive-assign --seed 1 --seconds 25 --trace 0

One workload runs in a closed loop in this process: scenarios are solved one
after another, each only after the previous one finished, with numpy/BLAS
pinned to one thread.  Scenarios come from the workload's fixed pool in an
order drawn from --seed, and the loop stops once about --seconds of timed
work is done.  Every solve is checked, outside the timed region, against the
pool's golden record, for plan feasibility and for objective <= upper bound.

--trace 0 prints the end-to-end metrics.  It times a fixed reference task
(reference.py) before and after every timed step and gives step times in
multiples of it, so that they do not follow the shared host's changing
speed.  --trace 1 solves each scenario once untraced and once traced and
prints the per-layer metrics.  Each metric is
printed by name with its unit; the last line of standard output is one JSON
object.  The exit code is 0 when every solve passed its checks, 1 when one
failed, 2 when the benchmark could not run.  Results and spans are written
to bench/out/.  Why the workloads and metrics are what they are: NOTES.md.
"""

import os

# Pin numpy/BLAS pools before numpy is imported, here and in set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(SRC))
try:
    import numpy as np

    import workloads
    from reference import reference_task
    from tracer import TARGETS, Tracer
except ModuleNotFoundError as err:
    workloads = None
    IMPORT_ERROR = err

# Fresh processes that each import fairedge and materialise one scenario,
# spread over the run: their times drift with the host over tens of seconds.
SETUP_PROBES = 16

# A run stops early once this many passes failed; its verdict is already known.
MAX_FAILED_PASSES = 10

PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, {src!r})\n"
    "import fairedge\n"
    "_ = {expression}\n"
    "print(repr(time.perf_counter() - start))\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_ref_p50": "ref",
    "pipeline_ref_p50": "ref",
    "peak_rss_mb": "MB",
}

# Printed in the table and stored in the results file, but not in the JSON
# line: plain wall times follow the load of other tenants on a shared host
# (NOTES.md, Steadiness).
INFO_UNITS = {
    "solve_s_p50": "s",
    "pipeline_s_p50": "s",
    "solves_per_s": "1/s",
    "reference_s_p50": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for target in TARGETS:
        units[f"{target}.calls"] = "calls/solve"
        units[f"{target}.self_s"] = "s/solve"
    units.update({
        "exitpolicy.utility_curve.event_layers_per_s": "1/s",
        "trace.load_stream.events_per_s": "1/s",
        "scenario.write_bundle.bytes": "B/call",
        "fairopt.allocate_compute_dp.distinct_frac": "ratio",
        "link.min_bandwidth_for_deadline.calls_per_user": "calls/user",
        "trace_overhead_frac": "ratio",
        "trace_self_sum_frac": "ratio",
    })
    return units


class Pass:
    """One timed pass over one scenario, with the gate's verdict."""

    def __init__(self, k: int, durations: dict[str, float], problems: list[str],
                 refs: list[float] = ()):
        self.k = k
        self.durations = durations
        self.problems = problems
        self.refs = list(refs)  # reference task times around the steps, if taken

    @property
    def total(self) -> float:
        return sum(self.durations.values())

    def in_refs(self) -> dict[str, float]:
        """Each step's wall time divided by the mean of the reference task
        times taken just before and just after it."""
        return {name: seconds * 2.0 / (self.refs[i] + self.refs[i + 1])
                for i, (name, seconds) in enumerate(self.durations.items())}


class Runner:
    def __init__(self, workload, golden: list[dict], work_dir: Path):
        self.workload = workload
        self.golden = golden
        self.work_dir = work_dir
        self._loaded = None

    def scenario(self, k: int):
        """Scenario k, materialised untimed; only the latest one is kept so
        that peak memory does not grow with the number of passes."""
        if self._loaded is None or self._loaded[0] != k:
            self._loaded = None
            self._loaded = (k, self.workload.load(k, self.work_dir))
        return self._loaded[1]

    def attempt(self, k: int, tracer=None, reference=None) -> Pass:
        """Solve scenario k once; only ``execute`` is timed and traced.
        ``reference`` is timed around each step, outside the step's time."""
        scenario = self.scenario(k)
        gc.collect()
        start = perf_counter()
        try:
            if tracer is not None:
                tracer.scenario = k
                tracer.recording = True
            try:
                durations, refs, result = self.workload.execute(
                    k, scenario, self.work_dir, reference
                )
            finally:
                if tracer is not None:
                    tracer.recording = False
            outcome, problems = self.workload.check(k, scenario, result, self.work_dir)
        except Exception:  # a failing solve is counted with its traceback, the run goes on
            return Pass(k, {"failed": perf_counter() - start}, [traceback.format_exc().strip()])
        problems += workloads.compare_outcome(outcome, self.golden[k])
        return Pass(k, durations, problems, refs)


def closed_loop(order: list[int], seconds: float, step) -> list[Pass]:
    """Call step(k) over `order`, cycling, until about `seconds` of timed work.

    `step` returns the passes it made.  A new step starts only while the work
    done plus half a typical step stays under `seconds`, so runs end as close
    to `seconds` as steps allow.  At least one step always runs.  The loop
    also ends after MAX_FAILED_PASSES failed passes, so a program that fails
    at once cannot spin through thousands of passes.
    """
    passes: list[Pass] = []
    spent, totals, failed = 0.0, [], 0
    for position in itertools.count():
        if totals and (spent + statistics.median(totals) / 2 >= seconds
                       or failed >= MAX_FAILED_PASSES):
            return passes
        made = step(order[position % len(order)])
        passes += made
        totals.append(sum(p.total for p in made))
        spent += totals[-1]
        failed += sum(1 for p in made if p.problems)


def measure_setup(workload, k: int, work_dir: Path) -> float:
    """Set-up time of scenario k, measured in a fresh interpreter."""
    code = PROBE.format(src=str(SRC), expression=workload.setup_expression(k, work_dir))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_end_to_end(runner: Runner, order: list[int], seconds: float, setup_probe):
    """Closed loop with the reference task around every step.  One set-up probe
    runs before the loop and one more each time another 1/SETUP_PROBES of
    `seconds` of timed work is done, between passes; a run that ends early
    makes the rest after the loop."""
    setup = [setup_probe()]
    timed = 0.0

    def step(k: int) -> list[Pass]:
        nonlocal timed
        made = runner.attempt(k, reference=reference_task)
        timed += made.total
        while len(setup) < SETUP_PROBES and timed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(setup_probe())
        return [made]

    reference_task()  # warm-up
    passes = closed_loop(order, seconds, step)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe())
    done = [p for p in passes if "failed" not in p.durations]
    metrics = {
        "setup_s": statistics.median(setup),
        "solve_ref_p50": median(p.in_refs()["solve"] for p in done),
        "pipeline_ref_p50": median(sum(p.in_refs().values()) for p in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solve_s_p50": median(p.durations["solve"] for p in done),
        "pipeline_s_p50": median(p.total for p in done),
        "solves_per_s": len(done) / sum(p.total for p in passes),
        "reference_s_p50": median(t for p in done for t in p.refs),
    }
    samples = {"setup": len(setup), "solve": len(done), "pipeline": len(done),
               "reference": sum(len(p.refs) for p in done)}
    return metrics, passes, samples, {}


def run_traced(runner: Runner, order: list[int], seconds: float, spans_path: Path):
    """Solve each scenario untraced, then traced; per-layer metrics from the spans."""
    tracer = Tracer()
    tracer.install()
    try:
        passes = closed_loop(order, seconds, lambda k: [runner.attempt(k), runner.attempt(k, tracer)])
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    plain_time = sum(p.total for p in passes[0::2])
    traced_time = sum(p.total for p in passes[1::2])

    totals = tracer.layer_totals()
    solves = max(tracer.solves, 1)
    metrics = {}
    for target in TARGETS:
        calls, self_s = totals[target]
        metrics[f"{target}.calls"] = calls / solves
        metrics[f"{target}.self_s"] = self_s / solves

    def rate(amount, target):
        self_s = totals[target][1]
        return amount / self_s if self_s > 0 else 0.0

    dp_calls = totals["fairopt.allocate_compute_dp"][0]
    bundle_calls = totals["scenario.write_bundle"][0]
    metrics.update({
        "exitpolicy.utility_curve.event_layers_per_s":
            rate(tracer.event_layers, "exitpolicy.utility_curve"),
        "trace.load_stream.events_per_s": rate(tracer.events_loaded, "trace.load_stream"),
        "scenario.write_bundle.bytes": tracer.bytes_written / bundle_calls if bundle_calls else 0.0,
        "fairopt.allocate_compute_dp.distinct_frac":
            len(tracer.dp_inputs) / dp_calls if dp_calls else 0.0,
        "link.min_bandwidth_for_deadline.calls_per_user":
            totals["link.min_bandwidth_for_deadline"][0] / max(tracer.users_solved, 1),
        "trace_overhead_frac": traced_time / plain_time - 1.0 if plain_time > 0 else 0.0,
        "trace_self_sum_frac": sum(s for _, s in totals.values()) / traced_time
        if traced_time > 0 else 0.0,
    })
    samples = {"traced_passes": len(passes) // 2, "traced_solves": tracer.solves,
               "spans": len(tracer.spans)}
    extra = {"traced_s": traced_time, "untraced_s": plain_time}
    return metrics, passes, samples, extra


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout at `root`, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fairedge").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "git_commit": git_commit(ROOT),
        "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, golden=None) -> int:
    """Run one workload; `golden` overrides the stored records (self-test)."""
    args = parse_args(argv)
    if not (SRC / "fairedge" / "__init__.py").is_file():
        print(f"error: no fairedge sources under {SRC}; the benchmark runs from a checkout",
              file=sys.stderr)
        return 2
    if workloads is None:
        print(f"error: cannot import the benchmark's modules: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    try:
        golden = golden if golden is not None else workloads.load_golden(workload)
    except (OSError, ValueError, RuntimeError) as err:
        print(f"error: golden record: {err}", file=sys.stderr)
        return 2

    order = [int(k) for k in np.random.default_rng(args.seed).permutation(workload.pool_size)]
    work_dir = OUT_DIR / "work" / workload.name
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    runner = Runner(workload, golden, work_dir)
    runner.scenario(order[0])  # writes the first scenario's input files, if any
    if args.trace:
        units = per_layer_units()
        metrics, passes, samples, extra = run_traced(
            runner, order, args.seconds, results_dir / f"{stem}_spans.csv.gz"
        )
    else:
        units = END_TO_END_UNITS
        metrics, passes, samples, extra = run_end_to_end(
            runner, order, args.seconds,
            lambda: measure_setup(workload, order[0], work_dir),
        )

    attempted = len(passes)
    failed = sum(1 for p in passes if p.problems)
    problems = [f"scenario {p.k}: {msg}" for p in passes for msg in p.problems]
    for msg in problems:
        print(f"FAIL {msg}", file=sys.stderr)

    print(f"# workload {workload.name}, seed {args.seed}, trace {args.trace}; "
          f"samples {json.dumps(samples)}")
    print(f"{'failed_frac':<50} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    for name, unit in units.items():
        print(f"{name:<50} {metrics[name]:>16.6g} {unit}")
    info = {name: {"value": metrics[name], "unit": unit}
            for name, unit in INFO_UNITS.items() if name in metrics}
    for name, metric in info.items():
        print(f"{name:<50} {metric['value']:>16.6g} {metric['unit']} (not gated)")

    reported = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    (results_dir / f"{stem}.json").write_text(json.dumps({
        "workload": workload.name,
        "definition": workload.describe(),
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "metrics": reported,
        "not_gated": info,
        "passes": [{"scenario": p.k, "durations": p.durations, "reference_s": p.refs,
                    "ok": not p.problems} for p in passes],
        **extra,
    }, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
