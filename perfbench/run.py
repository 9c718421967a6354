"""coprime-lab benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload theorems --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; the program is imported from its
``src`` directory.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` reports the per-layer metrics from plain,
traced and counting rounds plus the ``Perm`` micro-benchmark.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Progress and gate problems go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
MIN_ROUNDS = 5
# a fixed constant near the Reference job's time on the baseline machine,
# so that scaled times read as seconds there
REFERENCE_NOMINAL_S = 0.010
TRACE_PAIRS = 2


class ProgramMissing(RuntimeError):
    pass


def load_program(root: Path = ROOT):
    """Import coprime_lab from ``root/src`` and nowhere else."""
    package = root / "src" / "coprime_lab"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no coprime_lab sources at {package}")
    sys.path.insert(0, str(root / "src"))
    import coprime_lab

    if Path(coprime_lab.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"coprime_lab was imported from {coprime_lab.__file__}, not {package}")
    return coprime_lab


class Tally:
    """Gate results summed over every pass of a run."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def add(self, outcome) -> None:
        from workloads import gate

        attempted, failed, problems = gate(self.expected, outcome)
        self.attempted += attempted
        self.failed += failed
        for problem in problems:
            print(f"gate: {problem}", file=sys.stderr)


def _fastest(runs: list[dict[str, float]], ids: list[str]) -> list[float]:
    """Each instance's fastest time over the runs."""
    return [min(r.get(i, math.inf) for r in runs) for i in ids]


class Reference:
    """A fixed job of the program's kind, timed between instances.

    The job closes a permutation group under stored generators by breadth-
    first search over plain tuples and a set: interpreter work like the
    program's, in none of the program's code, so no change to the program
    moves it.  The cyclic collector is off while it runs, so that the
    program's heap does not add to its time.  ``runs`` collects the time of
    each call since the caller last emptied it.
    """

    ELEMENTS = 1000

    def __init__(self, inputs_path: Path):
        self.generators = [tuple(g) for g in json.loads(inputs_path.read_text())["d27"]]
        self.runs: list[float] = []

    def __call__(self, _instance_id: str = "") -> float:
        gens = self.generators
        gc.disable()
        try:
            t0 = time.perf_counter()
            seen, frontier = {gens[0]}, [gens[0]]
            while len(seen) < self.ELEMENTS:
                grown = []
                for p in frontier:
                    for g in gens:
                        q = tuple([p[i] for i in g])
                        if q not in seen:
                            seen.add(q)
                            grown.append(q)
                frontier = grown
            seconds = time.perf_counter() - t0
        finally:
            gc.enable()
        self.runs.append(seconds)
        return seconds


def _scaled(seconds: dict[str, float], ids: list[str], ref_runs: list[float]) -> list[float]:
    """Each instance's seconds at the reference's nominal speed.

    ``ref_runs`` holds the reference time taken just before each instance and
    one taken after the last.  An instance's time is scaled by the nominal
    reference time over the mean of the two reference runs around it.
    """
    return [
        seconds[iid] * REFERENCE_NOMINAL_S * 2 / (ref_runs[n] + ref_runs[n + 1])
        for n, iid in enumerate(ids)
    ]


def measure(workload, seed: int, seconds: float, workdir: Path, tally: Tally) -> dict:
    """End-to-end metrics, tracing off.

    A round sets up every instance and runs one check pass on them.  Rounds
    repeat until the next one would end after ``seconds``, and at least
    ``MIN_ROUNDS`` run.  Other tenants of a shared machine slow the same
    work by up to 2x, in phases of under a second to minutes, and process
    CPU time slows with it.  So the ``Reference`` job runs just before each
    instance's set-up and check and once after each pass, and every time is
    scaled to the reference's nominal speed (``_scaled``).  Times are the
    medians over the rounds.

    The suite seed picks the random invariant subgroups of fg1/fg2 and the
    Lie cross-check pairs, and with them how long those checks take.  Each
    round gets its own suite seed, drawn from ``seed``, so that a run's
    median is taken over many draws rather than resting on one.
    """
    ids = workload.instance_ids
    reference = Reference(HERE / "compose_inputs.json")
    suite_seeds = random.Random(seed)
    start = time.perf_counter()
    setup_rounds, check_rounds, instance_rounds, raw_check, ref_runs = [], [], [], [], []
    while True:
        round_start = time.perf_counter()
        built, setup_seconds = workload.setup(workdir, before=reference)
        reference()
        setup_refs, reference.runs = reference.runs, []
        t0 = time.perf_counter()
        outcome = workload.check(built, suite_seeds.randrange(2**31), before=reference)
        pass_s = time.perf_counter() - t0
        reference()
        check_refs, reference.runs = reference.runs, []
        del built
        tally.add(outcome)
        ref_runs += setup_refs + check_refs

        setup_rounds.append(sum(_scaled(setup_seconds, ids, setup_refs)))
        per_instance = _scaled(outcome.instance_s, ids, check_refs)
        instance_rounds.append(per_instance)
        outside = pass_s - sum(outcome.instance_s.values()) - sum(check_refs[:-1])
        check_rounds.append(sum(per_instance) + outside * REFERENCE_NOMINAL_S / statistics.mean(check_refs))
        raw_check.append(pass_s - sum(check_refs[:-1]))
        now = time.perf_counter()
        if len(check_rounds) >= MIN_ROUNDS and now - start + (now - round_start) > seconds:
            break
    per_instance = [statistics.median(r[n] for r in instance_rounds) for n in range(len(ids))]
    print(f"{workload.name}: {len(check_rounds)} rounds of {len(ids)} instances "
          f"in {time.perf_counter() - start:.1f} s; check pass {statistics.median(raw_check):.3f} s "
          f"unscaled, reference {1000 * statistics.median(ref_runs):.2f} ms", file=sys.stderr)
    return {
        "setup_s": statistics.median(setup_rounds),
        "check_s": statistics.median(check_rounds),
        "instance_s.p50": statistics.median(per_instance),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(workload, seed: int, workdir: Path, tally: Tally) -> dict:
    """Per-layer metrics from plain, traced and counting rounds.

    Plain and traced rounds alternate, ``TRACE_PAIRS`` of each.  Times are
    the fastest over the rounds of their kind; calls and counts are the same
    in every round.  Machine noise swamps the tracer's few percent in a
    comparison of plain and traced rounds, so ``trace_overhead_frac`` is the
    cost of a span, timed on an empty function, times the spans a check pass
    opens, over the plain check time.
    """
    from layers import Counters, Tracer, compose_ns, span_cost_s

    plain_runs, plain, traced = [], [], []
    for n in range(TRACE_PAIRS):
        built, _ = workload.setup(workdir)
        t0 = time.perf_counter()
        outcome = workload.check(built, seed)
        pass_s = time.perf_counter() - t0
        del built
        tally.add(outcome)
        plain_runs.append(outcome.instance_s)
        covered = {}
        for report in outcome.reports.values():
            for name, check in report.get("checks", {}).items():
                key = f"harness.check.{name}.s"
                covered[key] = covered.get(key, 0.0) + check["wall_ms"] / 1000.0
        covered["harness.unattributed_s"] = pass_s - sum(covered.values())
        plain.append(covered)

        tracer = Tracer()
        with tracer:
            built, _ = workload.setup(workdir)
            outcome = workload.check(built, seed, tracer)
            del built
        tally.add(outcome)
        traced.append(tracer.rollup())
        check_spans = tracer.instance_span_count()
        tracer.write(STATE / f"trace-{workload.name}-seed{seed}-{n}.jsonl")
        print(f"{workload.name}: {tracer.span_count()} spans", file=sys.stderr)
        del tracer

    metrics = {k: min(r[k] for r in plain) for k in plain[0]}
    metrics.update({k: min(r[k] for r in traced) for k in traced[0]})
    plain_s = sum(_fastest(plain_runs, workload.instance_ids))
    metrics["trace_overhead_frac"] = check_spans * span_cost_s() / plain_s

    counters = Counters()
    with counters:
        built, _ = workload.setup(workdir)
        counted = workload.check(built, seed)
        del built
    tally.add(counted)
    metrics.update(counters.metrics())
    metrics.update(compose_ns(HERE / "compose_inputs.json"))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    expected = json.loads((HERE / "expected.json").read_text())[workload.name]
    tally = Tally(expected)
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        if args.trace:
            values = trace(workload, args.seed, workdir, tally)
        else:
            values = measure(workload, args.seed, args.seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
