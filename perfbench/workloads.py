"""The benchmark's workloads and the gate on their output.

A workload builds each of its instances in ``setup`` and runs a check battery
on them in ``check``.  Built instances carry the program's caches, so every
check pass gets instances from its own set-up.  The program is called
through module attributes (``harness.verify_gamma_theorem``), so that a traced
round's patches apply to these calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from coprime_lab import cli, harness, instances


@dataclass
class Outcome:
    """One check pass: reports keyed ``instance:mode`` and seconds per instance."""

    reports: dict[str, dict] = field(default_factory=dict)
    errors: int = 0
    instance_s: dict[str, float] = field(default_factory=dict)


class InstanceClock:
    """Times each instance of a pass and tells an attached tracer which one runs.

    ``before``, if given, is called with the instance id just before the
    instance's timer starts.
    """

    def __init__(self, outcome: Outcome, tracer=None, before=None):
        self.outcome = outcome
        self.tracer = tracer
        self.before = before

    @contextlib.contextmanager
    def instance(self, instance_id: str):
        if self.tracer is not None:
            self.tracer.set_instance(instance_id)
        if self.before is not None:
            self.before(instance_id)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.outcome.instance_s[instance_id] = time.perf_counter() - t0


def specs_for(names: list[str]) -> list[tuple[str, object, int]]:
    """(instance id, FamilySpec, preset d) for each named preset instance."""
    table = {}
    for info in instances.PRESETS.values():
        for instance_id, spec in info.entries:
            table[instance_id] = (instance_id, spec, info.d)
    return [table[n] for n in names]


def _run_report(outcome: Outcome, call) -> None:
    try:
        report = call()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        outcome.errors += 1
        return
    data = report.to_dict()
    outcome.reports[f"{data['instance']}:{data['mode']}"] = data


class Workload:
    name = ""
    INSTANCES: list[str] = []

    def __init__(self, names=None):
        self.specs = specs_for(names or self.INSTANCES)

    @property
    def instance_ids(self) -> list[str]:
        return [iid for iid, _, _ in self.specs]

    def setup(self, workdir: Path, before=None) -> tuple[list, dict[str, float]]:
        """Every instance built, and the seconds each took.

        ``before``, if given, is called with the instance id just before the
        instance's timer starts.
        """
        built, seconds = [], {}
        for entry in self.specs:
            if before is not None:
                before(entry[0])
            t0 = time.perf_counter()
            built.append(self.build(entry, workdir))
            seconds[entry[0]] = time.perf_counter() - t0
        return built, seconds

    def build(self, entry, workdir: Path):
        iid, spec, d = entry
        return iid, instances.build_setup(spec), d


class Theorems(Workload):
    """Both theorem suites on eight presets of order 81 to 2079; no lemma suite.

    A round of set-up and checks must be short, so that a run holds well
    over a dozen rounds: an instance's fastest of a dozen varies far less
    than its fastest of five.  So the heaviest presets are left out, and most
    small ones, which ``cli-small`` runs; p2k4-01 stays for its k=4 subspaces.
    """

    name = "theorems"
    INSTANCES = [
        "p2k3-06-c3swap-heis-c5", "p2k3-10-extrasp243-c5", "p2k3-15-heis-c7-c11",
        "p2k4-01-gl-q3n4", "p2k4-03-heis-diag-c5-c7", "p2k4-09-gl-q5n4",
        "p3k3-03-gl-q7n3-alt", "p3k3-08-c7-mixed",
    ]

    def check(self, built, seed: int, tracer=None, before=None) -> Outcome:
        outcome = Outcome()
        clock = InstanceClock(outcome, tracer, before)
        for iid, setup, d in built:
            with clock.instance(iid):
                ctx = harness.InstanceContext(setup, iid, seed=seed)
                _run_report(outcome, lambda: harness.verify_derived_theorem(setup, d, ctx=ctx))
                _run_report(outcome, lambda: harness.verify_gamma_theorem(setup, ctx=ctx))
        return outcome


class Lemmas(Workload):
    """The lemma suite on four presets of order 637 to 1215; no theorem suite.

    fg1/fg2, ``fastset``, ``abelian_section`` and ``lie`` do most of the
    work here, and ``special`` almost none.  Presets of order 2000 and more
    take 2-4 s each, too long for a round that a run repeats many times.  Of
    the mid-sized ones, these four vary least in time with the suite seed,
    which picks fg1/fg2's random subgroups; two are p=3.
    """

    name = "lemmas"
    INSTANCES = [
        "p2k3-06-c3swap-heis-c5", "p2k4-07-frob21-c5-c11", "p3k3-07-c7-c7-c13", "p3k3-08-c7-mixed",
    ]

    def check(self, built, seed: int, tracer=None, before=None) -> Outcome:
        outcome = Outcome()
        clock = InstanceClock(outcome, tracer, before)
        for iid, setup, _ in built:
            with clock.instance(iid):
                ctx = harness.InstanceContext(setup, iid, seed=seed)
                _run_report(outcome, lambda: harness.lemma_report(ctx))
        return outcome


class CliSmall(Workload):
    """``coprime-lab check`` over instance files that set-up writes as ``gen`` does."""

    name = "cli-small"
    INSTANCES = [
        "smoke-01-gl-q3n3", "smoke-02-heis-diag-c5", "smoke-03-c3-c5-c7",
        "p2k3-01-gl-q3n3", "p2k3-02-gl-q3n4", "p2k3-04-gl-q7n3", "p2k3-08-wreath-c5",
        "p2k3-11-frob21-c5-c5", "p2k3-14-c3-c5-c7", "p2k4-01-gl-q3n4", "p3k3-01-gl-q7n3",
    ]

    def build(self, entry, workdir: Path):
        # one entry of `coprime-lab gen`: build the instance and write its file
        iid, spec, _ = entry
        out = workdir / "instances"
        out.mkdir(exist_ok=True)
        return str(instances.save_instance(instances.build_setup(spec), out / f"{iid}.json"))

    def check(self, paths, seed: int, tracer=None, before=None) -> Outcome:
        outcome = Outcome()
        clock = InstanceClock(outcome, tracer, before)
        out = Path(paths[0]).parent.parent / f"reports-{time.monotonic_ns()}"
        run_payload = harness._run_payload_safe

        def timed(payload):
            with clock.instance(payload["instance_id"]):
                return run_payload(payload)

        argv = ["check", "--instances", *paths, "--d", "0", "--jobs", "1",
                "--out", str(out), "--format", "both", "--seed", str(seed)]
        harness._run_payload_safe = timed
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outcome.errors += 1
            return outcome
        finally:
            harness._run_payload_safe = run_payload
        if code != 0:
            outcome.errors += 1
        for path in sorted(out.glob("*.report.json")):
            data = json.loads(path.read_text())
            outcome.reports[f"{data['instance']}:{data['mode']}"] = data
        return outcome


WORKLOADS = {w.name: w for w in (Lemmas, Theorems, CliSmall)}


def normalize(report: dict) -> str:
    """A report as canonical JSON without its wall-clock fields."""
    data = json.loads(json.dumps(report))
    for check in data.get("checks", {}).values():
        check.pop("wall_ms", None)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def fingerprint(report: dict) -> dict:
    return {
        "status": report.get("status"),
        "sha256": hashlib.sha256(normalize(report).encode()).hexdigest(),
    }


def gate(expected: dict[str, dict], outcome: Outcome) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one pass against the expected reports.

    A report fails when it is missing or unexpected, has any ``fail`` check,
    or differs from its expected fingerprint; an exception that lost reports
    counts through the reports it lost.
    """
    problems = []
    keys = sorted(set(expected) | set(outcome.reports))
    for key in keys:
        exp, got = expected.get(key), outcome.reports.get(key)
        if got is None:
            problems.append(f"{key}: no report")
        elif exp is None:
            problems.append(f"{key}: unexpected report")
        elif any(c.get("status") == "fail" for c in got.get("checks", {}).values()):
            problems.append(f"{key}: a check failed")
        elif fingerprint(got) != exp:
            problems.append(f"{key}: report differs from the expected one")
    failed = len(problems)
    if outcome.errors and not failed:
        problems.append(f"{outcome.errors} error(s) outside any report")
        failed = 1
    return max(len(keys), 1), failed, problems
