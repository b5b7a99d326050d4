"""Command line of the journey benchmark.

Driver form (the ``BENCHMARK.json`` contract)::

    python3 benchmarks/journey/run.py --workload tour_small --seed 1 --seconds 15 --trace 0

prints that run's metrics by name and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Without ``--workload``
it runs all five (``--trace`` adds the traced pass of each, ``--repeat``
more seeds) and ``--out`` keeps the set for ``compare``.

Every run happens in a child interpreter with ``PYTHONHASHSEED`` pinned,
so dict/set orders inside the space do not differ between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Run as a script, sys.path[0] is this directory, where trace.py would
# shadow the standard library's; the package is imported from the root.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.journey import stats  # noqa: E402
from benchmarks.journey.space import Space  # noqa: E402
from benchmarks.journey.trace import Tracer, layer_metrics  # noqa: E402
from benchmarks.journey.workloads import WORKLOADS, Sample, Workload, drive  # noqa: E402

__all__ = ["END_TO_END", "main", "run_workload"]

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p10": "ms",
    "wire_bytes_per_op": "bytes",
    "peak_rss_mib": "MiB",
}
SETUPS = 7  # set up this often per run; setup_s is their lower quartile
CHILD_TIMEOUT = 170.0  # the contract gives a run 180 s
OUT_DIR = HERE / "out"


# --------------------------------------------------------------------- #
# One run, in this process
# --------------------------------------------------------------------- #


def set_up(name: str, seed: int, tracer: Tracer | None = None) -> tuple[Workload, float]:
    """Boot a space and warm it by a fixed count; returns (workload, seconds)."""
    started = time.perf_counter()
    space = Space()
    if tracer is not None:
        tracer.install(space)
    workload = WORKLOADS[name](space, seed)
    warm = drive(workload, count=workload.warmup_samples)
    if not all(sample.ok for sample in warm):
        raise RuntimeError(f"{name}: an op failed during warm-up")
    return workload, time.perf_counter() - started


def tear_down(workload: Workload, tracer: Tracer | None = None) -> bool:
    try:
        return workload.finish()
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.space.close()


class Window:
    """What measured stretches of the closed loop saw, from the client's side."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.per_sample = workload.ops_per_sample
        self.samples: list[Sample] = []
        self.start = 0.0  # set when the first stretch begins
        self.cpu_s = 0.0
        self.wire_bytes = 0.0
        self.peak_rss_mib = 0.0

    def measure(self, seconds: float, tracer: Tracer | None = None) -> "Window":
        """Drive the loop for *seconds* more, ending on a sample boundary."""
        space = self.workload.space
        wire = space.wire_bytes()
        cpu = time.process_time()
        began = time.perf_counter()
        if not self.samples:
            # Memory is read at a stated amount of work, not at whatever count
            # this run's speed reached: the space keeps a few KiB per op for good.
            self.start = began
            self.samples += drive(
                self.workload, count=self.workload.rss_samples, seconds=seconds, tracer=tracer
            )
            self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        left = seconds - (time.perf_counter() - began)
        self.samples += drive(self.workload, seconds=left, tracer=tracer)
        self.cpu_s += time.process_time() - cpu
        self.wire_bytes += space.wire_bytes() - wire
        return self

    @property
    def good(self) -> list[Sample]:
        return [s for s in self.samples if s.ok]

    @property
    def attempted(self) -> int:
        return len(self.samples) * self.per_sample

    @property
    def failed(self) -> int:
        return (len(self.samples) - len(self.good)) * self.per_sample

    def op_ms(self) -> list[float]:
        """Per-op latency of each good sample (a journey's time / its hops)."""
        return [s.seconds / self.per_sample * 1e3 for s in self.good]

    def cpu_ms_per_op(self) -> float:
        return self.cpu_s / self.attempted * 1e3


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    setups = []
    for nth in range(SETUPS):
        workload, took = set_up(name, seed)
        setups.append(took)
        if nth < SETUPS - 1 and not tear_down(workload):
            raise RuntimeError(f"{name}: end-of-run check failed after warm-up")
    window = Window(workload).measure(seconds)
    settled = tear_down(workload)
    values = {
        # Like the other timings: slow set-ups are the host's doing, so the
        # fast end of the seven is what a set-up costs.
        "setup_s": stats.percentile(setups, 25),
        "ops_per_s": stats.best_batch_rate(
            window.start, [s.end for s in window.good], window.per_sample
        ),
        "op_ms_p10": stats.percentile(window.op_ms(), 10),
        "wire_bytes_per_op": window.wire_bytes / window.attempted,
        "peak_rss_mib": window.peak_rss_mib,
    }
    print(
        f"{name}: {len(window.good)} samples x {window.per_sample} ops, untraced; for information "
        f"(they follow the host's load): median op {stats.percentile(window.op_ms(), 50):.4f} ms, "
        f"cpu {window.cpu_ms_per_op():.4f} ms/op"
    )
    return {
        "correct": settled and window.failed == 0,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
    }


def run_traced(name: str, seed: int, seconds: float) -> dict:
    """One wrapped space: a sixth of the time unrecorded, two thirds recorded, a sixth unrecorded.

    The unrecorded stretches on either side are the reference for
    ``trace.overhead_share``; on another space they would differ by more
    than the tracing does (allocator state, the host's mood).
    """
    tracer = Tracer()
    workload, _ = set_up(name, seed, tracer)
    plain = Window(workload).measure(seconds / 6.0, tracer)
    tracer.start_window(workload.space)
    traced = Window(workload).measure(seconds * 2.0 / 3.0, tracer)
    grown = tracer.end_window(workload.space)
    plain.measure(seconds / 6.0, tracer)
    values = layer_metrics(tracer, grown, traced, plain)
    settled = tear_down(workload, tracer)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{name}.json", workload=name, seed=seed)
    print(f"{name}: {len(traced.good)} samples x {traced.per_sample} ops, traced")
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return {
        "correct": settled and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()},
    }


def pin_to_one_cpu() -> None:
    """Keep every thread of the space on one core.

    The in-process space is GIL-bound, so a second core adds no capacity;
    left alone, the scheduler spreads its threads over both vCPUs after a
    second or two, and from then on every hand-off between threads pays a
    cross-vCPU wake-up (measured here with a bare socket ping-pong: 9 us
    per round trip before, 50 us after).  That is the hypervisor's cost,
    not this code's, and it made unpinned runs 1.5x slower and far noisier.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    result = (run_traced if trace else run_untraced)(name, seed, seconds)
    for metric, cell in result["metrics"].items():
        print(f"{name:15s} {metric:38s} {cell['value']:14.4f} {cell['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{name:15s} {'failed_share':38s} {share:14.4f} ({result['failed']}/{result['attempted']})")
    return result


# --------------------------------------------------------------------- #
# Child interpreters
# --------------------------------------------------------------------- #


def run_child(name: str, seed: int, seconds: float, trace: bool) -> tuple[int, dict | None]:
    """Run one workload in a fresh interpreter; relay its output, parse its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:  # run() has already killed and reaped it
        print(f"{name}: no result within {CHILD_TIMEOUT:.0f} s", file=sys.stderr)
        return 1, None
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        return done.returncode or 1, None
    print("\n".join(lines[:-1]))
    return done.returncode, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.journey", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1, help="run seeds SEED..SEED+REPEAT-1")
    parser.add_argument("--out", type=Path, help="write the set of runs here, for compare")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])

    if args.workload and os.environ.get("PYTHONHASHSEED") == "0":
        pin_to_one_cpu()
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    if args.workload:  # the driver's form: one run, its JSON as the last line
        code, result = run_child(args.workload, args.seed, seconds, bool(args.trace))
        if result is not None:
            print(json.dumps(result))
        return code

    worst = 0
    runs: dict[str, dict[str, list[float]]] = {}
    for seed in range(args.seed, args.seed + args.repeat):
        for name in WORKLOADS:
            for trace in (False, True) if args.trace else (False,):
                code, result = run_child(name, seed, seconds, trace)
                worst = max(worst, code)
                if result is None:
                    continue
                cells = runs.setdefault(name, {})
                for metric, cell in result["metrics"].items():
                    cells.setdefault(metric, []).append(cell["value"])
                cells.setdefault("failed_share", []).append(
                    result["failed"] / result["attempted"]
                )
    if args.out is not None:
        from repro.perf.bench import git_sha, machine_fingerprint

        provenance = {
            "git_sha": git_sha(ROOT), "machine": machine_fingerprint(),
            "seeds": [args.seed, args.seed + args.repeat - 1], "seconds": seconds,
        }
        args.out.write_text(json.dumps({"provenance": provenance, "runs": runs}, indent=1))
    return worst


if __name__ == "__main__":
    sys.exit(main())
