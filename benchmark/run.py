"""kccdyn benchmark: seeded workloads driven through `kccdyn.cli.main`.

    python3 benchmark/run.py --workload deviate-lcdm --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from src/.
One process runs the ops one after another (closed loop, no threads, no
pool); each op is one CLI invocation, checked against the benchmark's own
closed-form reference. Whole cycles of the workload run until the ops have
taken --seconds. With --trace 0 the last stdout line holds the end-to-end
metrics, with op times scaled to a reference machine speed (see
machine_time). With --trace 1 every op runs once plainly and once with
spans around each module's public functions, and the line holds the
per-layer metrics instead. README.md in this directory describes the
workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from typing import NamedTuple

import numpy as np

import reference
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_tmp")

HELD_OUT_SEED = 7919     # never used while tuning; later claims must hold on it too
SETUP_REPEATS = 7        # timed fresh-interpreter set-ups per run, after one warm-up
FAIL_FLOOR = 1e-6        # fail_frac never reads 0; `failed` carries the exact count
REFERENCE_S = 0.005      # machine_time() at the reference speed times are scaled to


class _CurrentStderr:
    """Log stream that follows sys.stderr, so records land in each op's capture."""

    def write(self, text: str) -> int:
        return sys.stderr.write(text)

    def flush(self) -> None:
        sys.stderr.flush()


def run_op(cli, op: workloads.Op, tracer: tracing.Tracer | None = None):
    """One CLI invocation in this process: (exit code, stdout, stderr, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(op.argv)
            else:
                code = tracer.call(tracing.ROOT, cli.main, (op.argv,), {})
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception fails the op, not the run
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), wall


def machine_time() -> float:
    """Seconds that a fixed mix of interpreter and small-array work takes now.

    The machine is shared and its speed drifts by tens of percent over
    seconds to minutes. Measured next to an op, this tells how fast the
    machine was while the op ran."""
    start = time.perf_counter()
    total = 0.0
    for i in range(1500):
        a = np.full(3, float(i))
        total += float((a * 2.0 + 1.0)[1]) ** 0.5
    return time.perf_counter() - start


def scaled(wall: float, before: float, after: float) -> float:
    """A wall time as it would read on a machine where machine_time() takes
    REFERENCE_S, given machine_time() right before and right after it."""
    return wall * 2.0 * REFERENCE_S / (before + after)


def judge(op: workloads.Op, code, stdout: str, stderr: str) -> tuple[int, str | None, bool]:
    """(work done, failure reason or None, True if the output was wrong)."""
    where = f"{op.verb} {op.system.name}"
    if code != 0:
        return 0, f"{where}: exit {code}", False
    try:
        return reference.check(op, stdout, stderr), None, False
    except reference.ReportedFailure as err:
        return 0, f"{where}: {err}", False
    except (reference.Mismatch, ValueError, KeyError, IndexError) as err:
        return 0, f"{where}: wrong output: {err}", True


class Record(NamedTuple):
    cycle: int
    verb: str
    wall: float
    scaled: float
    work: int
    reason: str | None
    wrong: bool


class Tally:
    """Every op's outcome, by cycle."""

    def __init__(self):
        self.ops: list[Record] = []

    def add(self, cycle: int, op, wall: float, scaled_wall: float, work: int,
            reason: str | None, wrong: bool) -> None:
        self.ops.append(Record(cycle, op.verb, wall, scaled_wall, work, reason, wrong))

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(r.reason is not None for r in self.ops)

    @property
    def wrong(self) -> int:
        return sum(r.wrong for r in self.ops)

    def reasons(self) -> Counter:
        return Counter(r.reason for r in self.ops if r.reason is not None)

    def rate(self, verb: str) -> float:
        """Median over cycles of the work of correct ops per scaled second of
        all ops."""
        seconds, work = Counter(), Counter()
        for r in self.ops:
            if r.verb == verb:
                seconds[r.cycle] += r.scaled
                work[r.cycle] += r.work
        return statistics.median(work[c] / seconds[c] for c in seconds)

    def summary(self) -> dict:
        out = {}
        for r in self.ops:
            entry = out.setdefault(r.verb, {"attempted": 0, "failed": 0, "wall_s": 0.0,
                                            "scaled_s": 0.0, "work": 0})
            entry["attempted"] += 1
            entry["failed"] += r.reason is not None
            entry["wall_s"] += r.wall
            entry["scaled_s"] += r.scaled
            entry["work"] += r.work
        return out


def drive(workload: workloads.Workload, seconds: float, run_one) -> int:
    """Whole cycles of the deck until run_one(op, cycle) has reported
    `seconds` of op time (at least one cycle); returns the cycle count."""
    spent, count = 0.0, 0
    while count == 0 or spent < seconds:
        for op in workload.deck[count % len(workload.deck)]:
            spent += run_one(op, count)
        count += 1
    return count


def setup_seconds(targets: list[str]) -> float:
    """Median scaled set-up time of fresh interpreters, after one warm-up.

    This process and the interpreters it starts are pinned to one core, so
    that machine_time() samples the core each set-up ran on. numpy's BLAS
    then starts one thread."""
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, *targets]
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        samples = []
        for repeat in range(SETUP_REPEATS + 1):
            before = statistics.median(machine_time() for _ in range(3))
            done = subprocess.run(command, capture_output=True, text=True, timeout=150,
                                  check=True)
            after = statistics.median(machine_time() for _ in range(3))
            if repeat:
                samples.append(scaled(float(done.stdout.split()[-1]), before, after))
    finally:
        os.sched_setaffinity(0, cores)
    return statistics.median(samples)


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": {k: os.environ.get(k) for k in threads}}


def plain_run(cli, workload, seconds: float):
    tally = Tally()

    def run_one(op, cycle):
        before = machine_time()
        code, stdout, stderr, wall = run_op(cli, op)
        after = machine_time()
        tally.add(cycle, op, wall, scaled(wall, before, after),
                  *judge(op, code, stdout, stderr))
        return wall

    count = drive(workload, seconds, run_one)
    metrics = {
        "setup_s": (setup_seconds(workload.setup_targets), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "rk4_steps_per_s": (tally.rate("deviate"), "steps/s"),
        "fixed_points_per_s": (tally.rate("analyze"), "1/s"),
        "fail_frac": (max(tally.failed / tally.attempted, FAIL_FLOOR), "ratio"),
    }
    return tally, count, metrics, []


def coverage_problems(op, tracer: tracing.Tracer, code, wall: float, work: int,
                      passed: bool) -> list[str]:
    """Exact counts the spans must show if every call went through a wrapper."""
    stats, counts = tracer.stats, tracer.counts
    n = op.system.dimension
    where = f"{op.verb} {op.system.name}"

    def calls(name: str) -> int:
        return stats[name].calls if name in stats else 0

    problems = []
    self_total = sum(stat.self_s for stat in stats.values())
    if abs(self_total - wall) > 2e-3 * wall + 2e-4:
        problems.append(f"{where}: self times sum to {self_total:.6f} s, op took {wall:.6f} s")
    for inner, outer in (("exprdsl.evaluate", "odesys.eval_field"),
                         ("exprdsl.with_derivatives", "odesys.field_derivatives")):
        if calls(inner) and calls(inner) != n * calls(outer):
            problems.append(f"{where}: {calls(inner)} {inner} calls for "
                            f"{calls(outer)} {outer} calls in dimension {n}")
    if op.verb == "deviate" and code == 0 and calls("kcc.motion_terms") and \
            calls("kcc.motion_terms") != 4 * op.steps:
        problems.append(f"{where}: {calls('kcc.motion_terms')} motion_terms calls "
                        f"for {op.steps} RK4 steps")
    if op.verb == "analyze":
        if counts["stability.seeds"] != op.system.seed_count:
            problems.append(f"{where}: search ran {counts['stability.seeds']} seeds, "
                            f"generated {op.system.seed_count}")
        analyses = stats.get("stability.analyze_fixed_point") or tracing.Stat()
        analysed = analyses.calls - analyses.fail
        if passed and analysed != work:
            problems.append(f"{where}: {analysed} analyses succeeded, {work} reports printed")
    return problems


def _layer_table(stats, counts, cycles: int, overhead: float):
    """(metric, unit, value) for every per-layer metric, from run totals."""
    def st(name):
        return stats.get(name) or tracing.Stat()

    per = 1.0 / cycles
    wd = st("exprdsl.with_derivatives")
    converged = counts["stability.converged"]
    return [
        ("exprdsl.with_derivatives.calls", "calls/cycle", wd.calls * per),
        ("exprdsl.with_derivatives.s", "s/cycle", wd.s * per),
        ("exprdsl.with_derivatives.us_per_call", "us", 1e6 * wd.s / wd.calls if wd.calls else 0.0),
        ("kcc.motion_terms.calls", "calls/cycle", st("kcc.motion_terms").calls * per),
        ("kcc.motion_terms.s", "s/cycle", st("kcc.motion_terms").s * per),
        ("kcc.motion_terms.self_s", "s/cycle", st("kcc.motion_terms").self_s * per),
        ("deviation.integrate.self_s", "s/cycle", st("deviation.integrate").self_s * per),
        ("stability.polynomial_roots.calls", "calls/cycle", st("stability.polynomial_roots").calls * per),
        ("stability.polynomial_roots.s", "s/cycle", st("stability.polynomial_roots").s * per),
        ("stability.characteristic_polynomial.s", "s/cycle",
         st("stability.characteristic_polynomial").s * per),
        ("stability.hurwitz_determinants.s", "s/cycle", st("stability.hurwitz_determinants").s * per),
        ("stability.analyze_fixed_point.calls", "calls/cycle",
         st("stability.analyze_fixed_point").calls * per),
        ("stability.analyze_fixed_point.s", "s/cycle", st("stability.analyze_fixed_point").s * per),
        ("stability.analyze_fixed_point.fail", "count/cycle",
         st("stability.analyze_fixed_point").fail * per),
        ("stability.find_fixed_points.s", "s/cycle", st("stability.find_fixed_points").s * per),
        ("stability.seeds", "count/cycle", counts["stability.seeds"] * per),
        ("stability.newton_iterations", "count/cycle", counts["stability.newton_iterations"] * per),
        ("stability.residual_evals", "count/cycle", counts["stability.residual_evals"] * per),
        ("stability.seed_failures", "count/cycle", counts["stability.seed_failures"] * per),
        ("stability.distinct_per_converged", "ratio",
         counts["stability.distinct"] / converged if converged else 0.0),
        ("odesys.field_derivatives.calls", "calls/cycle", st("odesys.field_derivatives").calls * per),
        ("odesys.field_derivatives.s", "s/cycle", st("odesys.field_derivatives").s * per),
        ("odesys.field_derivatives.self_s", "s/cycle", st("odesys.field_derivatives").self_s * per),
        ("odesys.eval_field.calls", "calls/cycle", st("odesys.eval_field").calls * per),
        ("odesys.eval_field.s", "s/cycle", st("odesys.eval_field").s * per),
        ("exprdsl.evaluate.calls", "calls/cycle", st("exprdsl.evaluate").calls * per),
        ("exprdsl.evaluate.s", "s/cycle", st("exprdsl.evaluate").s * per),
        ("deviation.to_csv.s", "s/cycle", st("deviation.to_csv").s * per),
        ("deviation.to_csv.bytes", "B/cycle", counts["deviation.to_csv.bytes"] * per),
        ("cli.self_s", "s/cycle", st(tracing.ROOT).self_s * per),
        ("cli.load_definition.s", "s/cycle", st("cli.load_definition").s * per),
        ("models.read_graph.s", "s/cycle", st("models.read_graph").s * per),
        ("models.network_system.s", "s/cycle", st("models.network_system").s * per),
        ("exprdsl.parse.calls", "calls/cycle", st("exprdsl.parse").calls * per),
        ("exprdsl.parse.s", "s/cycle", st("exprdsl.parse").s * per),
        ("trace_overhead_frac", "ratio", overhead),
    ]


def traced_run(cli, workload, seconds: float):
    tally, total, problems = Tally(), tracing.Tracer(), []
    walls = Counter()

    def run_one(op, cycle):
        *_, plain_wall = run_op(cli, op)
        tracer = tracing.Tracer()
        installation = tracing.Installation(tracer)
        try:
            problems.extend(f"unwrapped binding {b}" for b in installation.uncovered())
            code, stdout, stderr, wall = run_op(cli, op, tracer)
        finally:
            installation.restore()
        work, reason, wrong = judge(op, code, stdout, stderr)
        tally.add(cycle, op, wall, wall, work, reason, wrong)
        problems.extend(coverage_problems(op, tracer, code, wall, work, reason is None))
        total.merge(tracer)
        walls["plain"] += plain_wall
        walls["traced"] += wall
        return plain_wall + wall

    count = drive(workload, seconds, run_one)
    overhead = walls["traced"] / walls["plain"] - 1.0
    metrics = {name: (value, unit) for name, unit, value
               in _layer_table(total.stats, total.counts, count, overhead)}
    return tally, count, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kccdyn", "cli.py")):
        print(f"error: no kccdyn sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from kccdyn import cli

    # Installed before the first op, so the CLI's own basicConfig is a no-op
    # and its warnings go to the op's captured stderr at the default level.
    logging.basicConfig(level=logging.WARNING, stream=_CurrentStderr(),
                        format="%(levelname)s %(name)s: %(message)s")
    os.makedirs(SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        workload = workloads.build(args.workload, args.seed, scratch)
        run = traced_run if args.trace else plain_run
        tally, count, metrics, problems = run(cli, workload, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)

    for problem in problems:
        print(f"coverage: {problem}", file=sys.stderr)
    for reason, times in sorted(tally.reasons().items()):
        print(f"failed x{times}: {reason}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
                      "seconds": args.seconds, "cycles": count, "ops": tally.summary(),
                      "environment": environment()}))
    print(json.dumps({
        "correct": tally.wrong == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
