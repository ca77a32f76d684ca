#!/usr/bin/env python3
"""Benchmark threefold on one workload, or on all of them.

    python3 perfbench/run.py --workload models-batch --seed 1 --seconds 10 --trace 0

Run from a source checkout: the program is imported from ./src, and child
processes get the same path.  With --trace 0 the run prints every
end-to-end metric; with --trace 1 it prints the per-layer metrics of a
traced run.  Either way the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.tracer import FINDING_KINDS, LAYERS, Installed, Tracer  # noqa: E402

WORKLOADS = tuple(workload.name for workload in workloads.ALL)
SETUP_REPEATS = 9
IMPORT_PROBE = ("import time; t = time.perf_counter(); import threefold.cli; "
                "print(time.perf_counter() - t)")
WARM_UP = ["--format", "json", "terminal", "--type", "1/7(1,6,3)"]
CHILD_TIMEOUT_S = 120
REFERENCE_LOOP = 300_000
TRACE_PASSES = 1  # passes a traced run traces, on a fresh copy of the workload
PASS_PERCENTILE = 2


def nearest_rank(samples: list[float], p: int) -> float:
    """The p-th percentile by nearest rank: the ceil(p*n/100)-th smallest."""
    ordered = sorted(samples)
    return ordered[max(1, -(-p * len(ordered) // 100)) - 1]


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest whole percentile with at least ten samples beyond it.

    The p-th percentile of n samples leaves n - ceil(p*n/100) samples beyond
    it, so the highest such p is floor(100*(n-10)/n).  Below twenty samples
    that p is under 50, no tail at all, so the maximum is reported as "max".
    """
    n = len(samples)
    if n < 20:
        return max(samples), "max"
    p = 100 * (n - 10) // n
    return nearest_rank(samples, p), f"p{p}"


def pass_seconds(phase: "Phase") -> float:
    """Time of one pass with every kind of job at its PASS_PERCENTILE.

    Each pass holds the same jobs of each label, so this is the sum over
    labels of (jobs per pass) * (that label's percentile).  On a machine
    shared with other tenants their load slows jobs in bursts; the fast end
    of each kind's times moves far less between runs than its median or
    mean, and it still moves with every kind of job the program speeds up
    or slows down.
    """
    by_label = defaultdict(list)
    for label, seconds in phase.samples:
        by_label[label].append(seconds)
    return sum(len(times) / phase.passes * nearest_rank(times, PASS_PERCENTILE)
               for times in by_label.values())


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for module, qualname, key, _ in LAYERS:
        names += [(f"{module}.{qualname}.calls", "count"), (f"{module}.{qualname}.self_s", "s")]
        if key is not None:
            names.append((f"{module}.{qualname}.distinct_ratio", "ratio"))
    names += [(f"blowup.findings.{kind}", "count") for kind in FINDING_KINDS]
    names += [(f"dimensions.suite_s.r{r}", "s") for r in workloads.R_VALUES]
    names += [("cli.interpreter_s", "s"), ("cli.import_s", "s")]
    names += [(f"cli.command_s.{command}", "s") for command in workloads.CliCommands.COMMANDS]
    names.append(("trace.overhead_ratio", "ratio"))
    return names


# -- environment -----------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def describe_environment() -> dict[str, str]:
    commit = "unknown"  # the checkout need not be a git repository
    with contextlib.suppress(OSError, ValueError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            commit = head
        elif (ROOT / ".git" / head[5:]).is_file():
            commit = (ROOT / ".git" / head[5:]).read_text().strip()
        else:
            packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
            commit = next(line.split()[0] for line in packed if line.endswith(" " + head[5:]))
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "threefold").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": str(os.cpu_count()),
            "THREEFOLD_THREADS": "unset"}


# -- measuring ---------------------------------------------------------------------


@dataclass
class Setup:
    seconds: list[float] = field(default_factory=list)    # fresh import + prepare
    import_s: list[float] = field(default_factory=list)   # import inside the child
    interpreter_s: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)  # machine speed, no threefold

    def probe(self, prepare, env: dict[str, str]) -> None:
        """Time a fresh interpreter until threefold.cli is imported, plus the
        workload's untimed preparation, a bare interpreter start and a fixed
        loop that shows how fast the machine ran at that moment."""
        start = time.perf_counter()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                               capture_output=True, text=True, check=True,
                               timeout=CHILD_TIMEOUT_S)
        spawned = time.perf_counter() - start
        start = time.perf_counter()
        prepare()
        self.seconds.append(spawned + time.perf_counter() - start)
        self.import_s.append(float(probe.stdout))
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True,
                       timeout=CHILD_TIMEOUT_S)
        self.interpreter_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        sum(i * i % 7 for i in range(REFERENCE_LOOP))
        self.reference_s.append(time.perf_counter() - start)


@dataclass
class Phase:
    samples: list[tuple[str, float]] = field(default_factory=list)
    failed: int = 0
    busy: float = 0.0
    passes: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    def seconds(self, label: str | None = None) -> list[float]:
        return [s for l, s in self.samples if label is None or l == label]


def run_passes(workload, *, seconds: float | None = None, passes: int | None = None,
               tracing=None, after_job=lambda busy: None) -> Phase:
    """Run whole passes until the jobs' busy time reaches `seconds`, or for
    a given number of passes.  Only job bodies are timed and traced; the
    oracle checks and after_job(busy time so far) run after the clock
    stops."""
    phase = Phase()
    while (phase.busy < seconds) if passes is None else (phase.passes < passes):
        for job in workload.next_pass():
            error = None
            with tracing or contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    result = job.run()
                except Exception as exc:  # a job that raises counts as failed
                    error = f"{job.label}: raised {exc!r}"
                elapsed = time.perf_counter() - start
            if error is None:
                try:
                    error = job.check(result)
                except Exception as exc:  # so does a result the oracle cannot read
                    error = f"{job.label}: result unreadable by the oracle: {exc!r}"
            phase.samples.append((job.label, elapsed))
            phase.busy += elapsed
            if error is not None:
                phase.failed += 1
                phase.errors.append(error)
            after_job(phase.busy)
        phase.passes += 1
    return phase


def traced_passes(make) -> tuple[Phase, Tracer]:
    """Trace TRACE_PASSES passes of a freshly made and prepared workload.

    The traced passes are the seed's first ones, whatever the untraced
    phase ran before them, so the per-layer totals depend on the seed and
    the program alone: a faster program does not get more calls counted.
    """
    workload = make()
    workload.prepare()
    tracer = Tracer()
    return run_passes(workload, passes=TRACE_PASSES, tracing=Installed(tracer)), tracer


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(workload, setup: Setup, phase: Phase) -> tuple[dict, list[str]]:
    """The metrics of BENCHMARK.json, then the job statistics printed beside them."""
    seconds = phase.seconds()
    worst, percentile = tail(seconds)
    n = len(seconds)
    kinds = sorted({label for label, _ in phase.samples})
    per_kind = sorted(len(phase.seconds(label)) for label in kinds)
    metrics = {
        "setup_s": (statistics.median(setup.seconds), "s",
                    f"median of {len(setup.seconds)} set-ups"),
        "pass_s_p2": (pass_seconds(phase), "s",
                      f"{len(kinds)} job kinds at their p{PASS_PERCENTILE}, "
                      f"{per_kind[0]}-{per_kind[-1]} samples per kind"),
        "peak_rss_mib": (peak_rss_mib(), "MiB", "this process's peak"),
    }
    printed = {
        "jobs_per_s": (n / phase.busy, "1/s",
                       f"{n} jobs in {phase.busy:.3f} s busy, {phase.passes} passes"),
        "job_ms_p50": (statistics.median(seconds) * 1000, "ms", f"median of {n} jobs"),
        "job_ms_tail": (worst * 1000, "ms", f"{percentile} of {n} jobs"),
    }
    lines = [f"{name:<14} {value:12.4f} {unit:<4} ({note})"
             for name, (value, unit, note) in {**metrics, **printed}.items()]
    lines.append(f"{'fail_ratio':<14} {phase.failed}/{n} failed/attempted")
    return {name: value[:2] for name, value in metrics.items()}, lines


def per_layer(workload, setup: Setup, plain: Phase, traced: Phase,
              tracer: Tracer) -> tuple[dict, list[str]]:
    metrics, lines = {}, []
    units = dict(per_layer_names())
    for module, qualname, key, _ in LAYERS:
        name = f"{module}.{qualname}"
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_s"] = tracer.self_s[name]
        if key is not None:
            calls, distinct = tracer.calls[name], tracer.distinct(name)
            metrics[f"{name}.distinct_ratio"] = distinct / calls if calls else 0.0
            lines.append(f"{name}.distinct_ratio = {distinct}/{calls} distinct/calls")
    for kind in FINDING_KINDS:
        metrics[f"blowup.findings.{kind}"] = tracer.findings[kind]
    for r in workloads.R_VALUES:
        runs = plain.seconds(f"r{r}") if isinstance(workload, workloads.DimsGrowth) else []
        metrics[f"dimensions.suite_s.r{r}"] = statistics.median(runs) if runs else 0.0
    metrics["cli.interpreter_s"] = statistics.median(setup.interpreter_s)
    metrics["cli.import_s"] = statistics.median(setup.import_s)
    for command in workloads.CliCommands.COMMANDS:
        runs = plain.seconds(command)
        metrics[f"cli.command_s.{command}"] = statistics.median(runs) if runs else 0.0
    traced_pass, plain_pass = traced.busy / traced.passes, plain.busy / plain.passes
    metrics["trace.overhead_ratio"] = traced_pass / plain_pass
    lines.append(f"trace.overhead_ratio = {traced_pass:.3f} s per traced pass / "
                 f"{plain_pass:.3f} s per untraced pass ({traced.passes} traced, "
                 f"{plain.passes} untraced passes)")
    lines += [f"{name:<48} {value:14.6f} {units[name]}" if isinstance(value, float)
              else f"{name:<48} {value:14d} {units[name]}" for name, value in metrics.items()]
    return {name: (value, units[name]) for name, value in metrics.items()}, lines


def make_workload(name: str, seed: int, scratch: Path):
    kind = next(workload for workload in workloads.ALL if workload.name == name)
    return kind(seed, scratch) if kind is workloads.CliCommands else kind(seed)


def run_one(args) -> int:
    os.environ.pop("THREEFOLD_THREADS", None)  # measure the serial path, here and in children
    env = child_env()
    import threefold
    if Path(threefold.__file__).resolve().parent != ROOT / "src" / "threefold":
        print(f"error: imported threefold from {threefold.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        # untimed: writes the bytecode caches the set-up probes then read
        subprocess.run([sys.executable, "-m", "threefold", *WARM_UP], cwd=ROOT, env=env,
                       capture_output=True, check=True, timeout=CHILD_TIMEOUT_S)

        def make():
            return make_workload(args.workload, args.seed, scratch)

        # The set-up is repeated at even steps of the measured busy time, so
        # that its median spans the run rather than one moment of it.
        workload = make()
        setup = Setup()
        setup.probe(workload.prepare, env)
        measured = args.seconds / 2 if args.trace else args.seconds

        def probe_due(busy: float) -> None:
            while (len(setup.seconds) < SETUP_REPEATS
                   and busy >= measured * len(setup.seconds) / SETUP_REPEATS):
                setup.probe(make().prepare, env)

        plain = run_passes(workload, seconds=measured, after_job=probe_due)
        while len(setup.seconds) < SETUP_REPEATS:
            setup.probe(make().prepare, env)
        if args.trace:
            traced, tracer = traced_passes(make)
            metrics, lines = per_layer(workload, setup, plain, traced, tracer)
            phases = (plain, traced)
        else:
            metrics, lines = end_to_end(workload, setup, plain)
            phases = (plain,)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()

    environment = describe_environment()
    environment["machine_ref_ms"] = f"{statistics.median(setup.reference_s) * 1000:.2f}"
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in environment.items()))
    errors = [e for phase in phases for e in phase.errors]
    for error in errors[:20]:
        print(f"# FAILED {error}")
    for line in lines:
        print(line)
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"# {name}: exit {done.returncode}")
            status = done.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{metric}": value
                                    for metric, value in result["metrics"].items()})
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="busy time to measure; whole passes are run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "threefold" / "__init__.py").is_file():
        print(f"error: no threefold sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
