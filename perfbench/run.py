"""bayespol benchmark: four seeded workloads driven through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-cells --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

One client runs a closed loop in one single-threaded process per workload.
With ``--trace 0`` the run times every public call in whole passes over the
inputs for ``--seconds`` and prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes over a fixed prefix of
the tasks and prints the per-layer metrics.  Every output is checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units come from BENCHMARK.json at the root.  ``--workload all`` runs the four
workloads one after another, each in its own process, and prints a table.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, DRAWS, WORKLOADS  # noqa: E402

SETUP_PROBES = 15
# Enough passes for each call's minimum to reach a quiet stretch of the host.
MIN_PASSES = 4
# Calls that must lie beyond the tail timing.
TAIL_BEYOND = 10
PROBLEMS_SHOWN = 5


@dataclass
class Outcome:
    value: object
    error: Optional[Exception]


class Recorder:
    """Times public calls and settles each one as completed or failed.

    A call fails when it raises and its check did not expect that, or when
    its output is rejected by the check; completed calls add their items.
    """

    def __init__(self, tracer: Optional[tracing.Tracer] = None, golden=()) -> None:
        self.tracer = tracer
        self.golden = list(golden)
        self.digests: dict[int, str] = {}
        self.latencies: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.bytes_out = 0
        self.problems: list[str] = []
        self._open: list[Outcome] = []

    def call(self, fn, *args, **kwargs) -> Outcome:
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.call_id += 1
            tracer.active = True
        start = time.perf_counter()
        try:
            out = Outcome(fn(*args, **kwargs), None)
        except Exception as exc:  # the task's check decides whether it was expected
            out = Outcome(None, exc)
        self.latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        self._open.append(out)
        return out

    def settle(self, out: Outcome, items: int, problem: Optional[str]) -> None:
        self._open.remove(out)
        if problem is None:
            self.items += items
        else:
            self.failed += 1
            if len(self.problems) < PROBLEMS_SHOWN:
                self.problems.append(problem)

    def run_task(self, workload, task) -> None:
        try:
            workload.run(task, self)
        except Exception as exc:  # a check that crashes on malformed output
            while self._open:
                self.settle(self._open[0], 0, f"check raised {exc!r}")
        while self._open:
            self.settle(self._open[0], 0, "call left unchecked")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_rank(n: int) -> int:
    """1-based rank of the tail timing among ``n`` sorted calls: p99, or the
    highest rank with ``TAIL_BEYOND`` calls beyond it where p99 has fewer."""
    return max(1, min(-(-n * 99 // 100), n - TAIL_BEYOND))


def import_bayespol(root: Path):
    """Import bayespol from the checkout's own sources, never from elsewhere."""
    src = root / "src"
    if not (src / "bayespol" / "__init__.py").is_file():
        raise SystemExit(f"bench: no bayespol sources under {src}")
    sys.path.insert(0, str(src))
    import bayespol

    if Path(bayespol.__file__).resolve().parent != (src / "bayespol").resolve():
        raise SystemExit(f"bench: imported bayespol from {bayespol.__file__}")
    return bayespol


def load_pinned() -> dict:
    with open(HERE / "pinned.json", encoding="utf-8") as fh:
        return json.load(fh)


def input_digest(tasks: list) -> str:
    return hashlib.sha256(json.dumps(tasks).encode()).hexdigest()[:16]


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "bayespol").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision(root: Path) -> Optional[str]:
    """HEAD's commit from the .git directory, or None outside a git checkout."""
    git = root / ".git"
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
    return None


def setup_probe(workload) -> float:
    """Import bayespol and warm every grid and order; runs in a fresh process."""
    start = time.perf_counter()
    import_bayespol(Path.cwd())
    workload.warm_up(load_pinned())
    return time.perf_counter() - start


def measure_setup(workload_name: str) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def timed_phase(workload, tasks, seconds: float, golden) -> tuple[Recorder, int]:
    """Whole passes over ``tasks`` until ``seconds`` have passed and at least
    ``MIN_PASSES`` were made; returns the recorder and the pass count.

    Every pass replays the same inputs from the first task and so makes the
    same calls in the same order.
    """
    rec = Recorder(golden=golden)
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        for task in tasks:
            rec.run_task(workload, task)
        passes += 1
    return rec, passes


def call_minima(latencies: list[float], passes: int) -> list[float]:
    """Each call's shortest latency over the passes that replayed it."""
    per_pass, rest = divmod(len(latencies), passes)
    if rest:
        raise ValueError(f"{len(latencies)} calls do not split into {passes} equal passes")
    return [min(latencies[j::per_pass]) for j in range(per_pass)]


def end_to_end(rec: Recorder, passes: int, setup: list[float]) -> tuple[dict, dict]:
    """Metric values of the timed phase, and their sample counts.

    Timings are taken over each call's minimum across the passes.  The
    shared host runs this code at two speeds about 1.8x apart and switches
    between them every few seconds, in a different mix in every run; over
    ten passes or so each call meets the fast speed at least once, so its
    minimum follows the program rather than the mix.
    """
    minima = call_minima(rec.latencies, passes)
    calls = len(minima)
    rank = tail_rank(calls)
    values = {
        "items_per_s": rec.items / passes / sum(minima),
        "call_p50_ms": percentile(minima, 50) * 1e3,
        "call_tail_ms": sorted(minima)[rank - 1] * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "failed_frac": rec.failed / max(rec.attempted, 1),
    }
    per = f"minimum over {passes} passes of each of {calls} calls"
    samples = {
        "items_per_s": f"{rec.items // passes} items a pass, {per}",
        "call_p50_ms": per,
        "call_tail_ms": f"{per}, p{100 * rank / calls:.1f} with {calls - rank} beyond",
        "setup_s": f"median of {len(setup)} fresh processes",
        "peak_rss_mb": "1 process",
        "failed_frac": f"{rec.failed} of {rec.attempted} calls",
    }
    return values, samples


def traced_phase(workload, tasks, seconds: float, golden, build_s: float):
    """Alternate untraced and traced passes over the first ``trace_tasks`` tasks."""
    prefix = tasks[: workload.trace_tasks]
    tracer = tracing.Tracer()
    passes: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        plain = Recorder(golden=golden)
        for task in prefix:
            plain.run_task(workload, task)
        tracer.reset()
        traced = Recorder(tracer, golden)
        tracer.install()
        try:
            for task in prefix:
                traced.run_task(workload, task)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.spans, tracer.counters)
        wall = sum(traced.latencies)
        metrics["trace.wall_s"] = wall
        metrics["trace.overhead_frac"] = wall / sum(plain.latencies) - 1
        metrics["cli.bytes_out"] = traced.bytes_out
        metrics["orders.event_family.build_s"] = build_s
        passes.append(metrics)
        for rec in (plain, traced):
            attempted += rec.attempted
            failed += rec.failed
            problems += rec.problems
    values = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    return values, len(passes), tracer.spans, attempted, failed, problems[:PROBLEMS_SHOWN]


def run_one(args, root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    bayespol = import_bayespol(root)
    pinned = load_pinned()
    tasks = workload.inputs(args.seed, pinned)
    digest = input_digest(tasks)
    golden = pinned["trial_digests"].get(workload.name, []) if args.seed == DEFAULT_SEED else []
    build_s = workload.warm_up(pinned)
    prepared = workload.prepare(tasks)
    DRAWS.install()

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": digest,
        "tasks_in_input": len(tasks),
        "grids": [dims for dims, _ in workload.grids],
        "family_sizes": workload.family_sizes(),
        "trials_per_call": workload.trials_per_call or None,
        "git_revision": git_revision(root),
        "source_digest": source_digest(root),
        "bayespol_version": bayespol.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if args.trace:
        values, passes, spans, attempted, failed, problems = traced_phase(
            workload, prepared, args.seconds, golden, build_s
        )
        names = spec["per_layer"]
        samples = {m["name"]: f"median of {passes} passes" for m in names}
        info["passes"] = passes
        info["trace_tasks_per_pass"] = workload.trace_tasks
        spans_path = HERE / "out" / f"spans-{workload.name}.tsv"
        spans.write(spans_path)
        info["spans_file"] = str(spans_path)
    else:
        setup = measure_setup(workload.name)
        rec, passes = timed_phase(workload, prepared, args.seconds, golden)
        values, samples = end_to_end(rec, passes, setup)
        info["setup_samples_s"] = setup
        info["passes"] = passes
        attempted, failed, problems = rec.attempted, rec.failed, rec.problems
        info["calls"] = rec.attempted
        info["items"] = rec.items
        names = spec["end_to_end"] + [{"name": "failed_frac", "unit": "ratio"}]
        info["samples"] = samples
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    for m in names:
        print(f"metric {m['name']} = {values[m['name']]} {m['unit']} ({samples[m['name']]})")
    print("info: " + json.dumps(info))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in (spec["per_layer"] if args.trace else spec["end_to_end"])
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another, then a table."""
    rows = []
    ok = True
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=True,
        )
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        info = json.loads(next(l for l in lines if l.startswith("info: "))[6:])
        ok = ok and result["correct"]
        metrics = dict(result["metrics"])
        if not args.trace:
            metrics["failed_frac"] = {
                "value": result["failed"] / result["attempted"], "unit": "ratio"
            }
        for metric, m in metrics.items():
            n = info["samples"][metric] if "samples" in info else f"median of {info['passes']} passes"
            rows.append((name, metric, m["value"], m["unit"], n))
        sys.stderr.write(done.stderr)
    width = max(len(r[1]) for r in rows)
    for name, metric, value, unit, n in rows:
        print(f"{name:<17} {metric:<{width}} {value:>14.6g} {unit:<6} {n}")
    print(json.dumps({"correct": ok, "workloads": list(WORKLOADS)}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # The CLI reads BAYESPOL_* defaults from the environment; the inputs must
    # come from the seed alone.
    for key in [k for k in os.environ if k.startswith("BAYESPOL_")]:
        del os.environ[key]
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(WORKLOADS[args.workload])}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args, Path.cwd())


if __name__ == "__main__":
    sys.exit(main())
