"""Verification harness: runs the lemma and theorem checks on instances.

Each instance yields up to three reports (lemma suite, derived-theorem suite,
gamma-theorem suite).  A report carries the instance parameters, the
hypothesis class bound c, the conclusion class when established, and a
per-check status map; any ``fail`` status marks the whole report failed.
A check that hits a resource limit or crashes is an ``error``, not a
failure.  Hypothesis failures (some centralizer term not nilpotent) classify
the report as hypothesis-not-met, never as a failure.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

from .action import (
    ASubgroupDescriptor,
    ActionSetup,
    fixed_subgroup,
    check_fg1_quotient,
    check_fg2_generation,
    invariant_sylow,
    maximal_subgroups,
    validate_setup,
)
from .errors import CapacityError, CoprimeLabError, GenerationError, PreconditionError
from .groups import Group, generated_in, normal_closure
from .instances import FamilySpec, build_setup, load_instance
from .lie import (
    check_centralizer_transfer,
    check_class_transfer,
    check_span_lemma,
    induced_a_action,
    lie_ring_of,
    lie_subring_of_subgroup,
)
from .series import (
    _prime_factors,
    derived_series,
    derived_term,
    lcs_term,
    lower_central_series,
    nilpotency_class,
)
from .special import (
    a_special_lattice,
    check_aspecial_containment,
    check_aspecial_degree_bound,
    check_aspecial_generation,
    check_key_commutator_relation,
    check_sylow_generation,
    family_at,
    gamma_a_special_lattice,
)
from .status import CheckStatus

SCHEMA_VERSION = 1


@dataclass
class CheckResult:
    status: CheckStatus
    detail: str = ""
    wall_ms: float = 0.0

    def to_dict(self) -> dict:
        return {"status": self.status.value, "detail": self.detail, "wall_ms": self.wall_ms}


@dataclass
class CheckReport:
    instance: str
    mode: str  # "lemmas" | "derived" | "gamma"
    params: dict
    hypothesis_c: int | None = None
    conclusion_class: int | None = None
    checks: dict[str, CheckResult] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return any(c.status is CheckStatus.FAIL for c in self.checks.values())

    @property
    def errored(self) -> bool:
        return any(c.status is CheckStatus.ERROR for c in self.checks.values())

    @property
    def hypothesis_met(self) -> bool:
        return not any(c.status is CheckStatus.HYPOTHESIS_NOT_MET for c in self.checks.values())

    @property
    def status(self) -> str:
        if self.failed:
            return "fail"
        if self.errored:
            return "error"
        if not self.hypothesis_met:
            return "hypothesis-not-met"
        return "pass"

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "instance": self.instance,
            "mode": self.mode,
            "params": self.params,
            "hypothesis_c": self.hypothesis_c,
            "conclusion_class": self.conclusion_class,
            "status": self.status,
            "checks": {name: c.to_dict() for name, c in sorted(self.checks.items())},
        }


class _Recorder:
    """Runs one named check, timing it and capturing what it raises.

    ``PreconditionError`` makes it not-applicable; ``CapacityError``,
    ``GenerationError`` and exceptions from outside the package make it an
    error; any other package error is a failure.
    """

    def __init__(self, report: CheckReport):
        self.report = report

    def run(self, name: str, thunk) -> CheckResult:
        start = time.perf_counter()
        try:
            value = thunk()
        except PreconditionError as exc:
            result = CheckResult(CheckStatus.NOT_APPLICABLE, detail=str(exc))
        except Exception as exc:
            failure = isinstance(exc, CoprimeLabError) and not isinstance(exc, (CapacityError, GenerationError))
            status = CheckStatus.FAIL if failure else CheckStatus.ERROR
            result = CheckResult(status, detail=f"{type(exc).__name__}: {exc}")
        else:
            result = _coerce(value)
        result.wall_ms = round((time.perf_counter() - start) * 1000.0, 3)
        self.report.checks[name] = result
        return result

    def record(
        self, name: str, status: CheckStatus, detail: str = "", since: float | None = None
    ) -> CheckResult:
        """Stores a step decided outside ``run``, timed from ``since`` (a perf_counter value)."""
        result = CheckResult(status, detail=detail)
        if since is not None:
            result.wall_ms = round((time.perf_counter() - since) * 1000.0, 3)
        self.report.checks[name] = result
        return result


def _coerce(value) -> CheckResult:
    if isinstance(value, CheckResult):
        return value
    if isinstance(value, CheckStatus):
        return CheckResult(value)
    if isinstance(value, bool):
        return CheckResult(CheckStatus.PASS if value else CheckStatus.FAIL)
    if hasattr(value, "status") and hasattr(value, "detail"):
        return CheckResult(value.status, detail=value.detail)
    raise TypeError(f"cannot interpret check result {value!r}")


class InstanceContext:
    """Shared, lazily computed per-instance objects used by several reports."""

    def __init__(self, setup: ActionSetup, instance_id: str, seed: int = 0):
        self.setup = setup
        self.instance_id = instance_id
        self.seed = seed
        self._families: dict = {}

    @cached_property
    def nilpotent(self) -> bool:
        return nilpotency_class(self.setup.G) is not None

    @cached_property
    def lie_ring(self):
        return lie_ring_of(self.setup.G, seed=self.seed)

    @cached_property
    def lie_action(self):
        return induced_a_action(self.lie_ring, self.setup)

    def families(self, build, max_degree: int):
        """``build(setup, max_degree)`` for a special-lattice builder, once per builder and degree."""
        key = (build, max_degree)
        if key not in self._families:
            self._families[key] = build(self.setup, max_degree)
        return self._families[key]

    def base_params(self) -> dict:
        return {"p": self.setup.p, "k": self.setup.k, "order": self.setup.G.order}


# ----------------------------------------------------------- subgroup search


def find_invariant_normal_subgroups(setup: ActionSetup, seed: int = 0, limit: int = 10) -> list[Group]:
    """A-invariant normal subgroups: series terms plus seeded normal closures."""
    G = setup.G
    candidates: list[Group] = [generated_in(G, ()), G]
    candidates.extend(lower_central_series(G).terms)
    candidates.extend(derived_series(G).terms)
    rng = random.Random(seed)
    elements = G.sorted_elements()
    for _ in range(4):
        x = rng.choice(elements)
        orbit = setup.orbit_of_element(x)
        candidates.append(normal_closure(orbit, G))
    out: list[Group] = []
    seen: set[bytes] = set()
    for N in candidates:
        key = N.mask_over(G).tobytes()
        if key in seen:
            continue
        seen.add(key)
        out.append(N)
        if len(out) >= limit:
            break
    return out


def random_invariant_subgroups(setup: ActionSetup, seed: int = 0, count: int = 5) -> list[Group]:
    """Subgroups generated by A-orbits of random elements (hence A-invariant)."""
    rng = random.Random(seed)
    elements = setup.G.sorted_elements()
    out = []
    for _ in range(count):
        gens: set = set()
        for _ in range(rng.randint(1, 2)):
            gens |= setup.orbit_of_element(rng.choice(elements))
        out.append(generated_in(setup.G, sorted(gens)))
    return out


# ------------------------------------------------------------- lemma report


def lemma_report(ctx: InstanceContext) -> CheckReport:
    setup = ctx.setup
    report = CheckReport(instance=ctx.instance_id, mode="lemmas", params=ctx.base_params())
    rec = _Recorder(report)

    rec.run("setup-valid", lambda: validate_setup(setup).ok)

    maximals = maximal_subgroups(setup)
    full = ASubgroupDescriptor.full(setup.p, setup.k)

    def fg1():
        subgroups_of_a = maximals + [full]
        for N in find_invariant_normal_subgroups(setup, seed=ctx.seed):
            for B in subgroups_of_a:
                if not check_fg1_quotient(setup, N, B):
                    return False
        return True

    rec.run("fg1-quotient", fg1)

    def fg2():
        if not check_fg2_generation(setup, setup.G):
            return False
        for H in random_invariant_subgroups(setup, seed=ctx.seed):
            if not check_fg2_generation(setup, H):
                return False
        return True

    rec.run("fg2-generation", fg2)

    def sylow_invariance():
        primes = _prime_factors(setup.G.order)
        for r in primes:
            R = invariant_sylow(setup, setup.G, r)
            if not setup.is_invariant_subgroup(R):
                return False
        return True

    rec.run("invariant-sylow", sylow_invariance)

    if ctx.nilpotent:
        rec.run("lie-axioms", lambda: ctx.lie_ring is not None)  # construction verifies
        rec.run("class-transfer", lambda: check_class_transfer(ctx.lie_ring, setup.G))

        def transfer():
            for B in maximals + [full]:
                if not check_centralizer_transfer(ctx.lie_ring, setup, B, action=ctx.lie_action):
                    return False
            return True

        rec.run("centralizer-transfer", transfer)

        def span(mode):
            build, degree = (a_special_lattice, 0) if mode == "pairwise" else (gamma_a_special_lattice, 1)
            members = family_at(ctx.families(build, degree), degree).members
            subspaces = [
                lie_subring_of_subgroup(ctx.lie_ring, setup.G, H) for H in members
            ]
            return check_span_lemma(ctx.lie_ring, setup, subspaces, mode, action=ctx.lie_action)

        rec.run("span-lemma-pairwise", lambda: span("pairwise"))
        rec.run("span-lemma-gamma", lambda: span("gamma"))
    else:
        for name in (
            "lie-axioms",
            "class-transfer",
            "centralizer-transfer",
            "span-lemma-pairwise",
            "span-lemma-gamma",
        ):
            rec.record(name, CheckStatus.NOT_APPLICABLE, "G is not nilpotent")
    return report


# ------------------------------------------------------------ theorem suites


def _hypothesis_and_conclusion(ctx: InstanceContext, rec: _Recorder, term, name: str):
    """Records the centralizer hypothesis on ``term`` and the conclusion for ``term(G)``.

    The hypothesis holds with c = max class of term(C_G(a)) over a in A^#
    (at least 1) when every such term is nilpotent; the conclusion holds when
    term(G), called ``name`` in the report, is nilpotent.  Returns (c,
    term(G)), or None when either does not hold and the suite stops.
    """
    setup = ctx.setup
    start = time.perf_counter()
    worst = 0
    for a in setup.nonzero_vectors():
        C = fixed_subgroup(setup, ASubgroupDescriptor.generated_by(setup.p, setup.k, a))
        cls = nilpotency_class(term(C))
        if cls is None:
            detail = f"centralizer term at a={a} is not nilpotent"
            rec.record("hypothesis-centralizers", CheckStatus.HYPOTHESIS_NOT_MET, detail, since=start)
            return None
        worst = max(worst, cls)
    c = rec.report.hypothesis_c = max(worst, 1)
    rec.record("hypothesis-centralizers", CheckStatus.PASS, f"c = {c}", since=start)

    start = time.perf_counter()
    target = term(setup.G)
    cls = nilpotency_class(target)
    if cls is None:
        rec.record("conclusion-nilpotent", CheckStatus.FAIL, f"{name} is not nilpotent", since=start)
        return None
    rec.report.conclusion_class = cls
    rec.record("conclusion-nilpotent", CheckStatus.PASS, f"class {cls}", since=start)
    return c, target


def verify_derived_theorem(
    setup: ActionSetup, d: int, instance_id: str = "", ctx: InstanceContext | None = None
) -> CheckReport:
    """Hypothesis: C_G(a)^(d) nilpotent of class <= c for all a in A^#.

    Conclusion: G^(d) nilpotent; the report records its class and runs the
    special-family, Sylow-generation, and iterated-commutator sub-checks.
    """
    if setup.k < 3:
        raise PreconditionError("the derived theorem needs k >= 3")
    if 2**d + 2 > setup.k:
        raise PreconditionError(f"hypothesis 2^d + 2 <= k fails for d = {d}, k = {setup.k}")
    ctx = ctx or InstanceContext(setup, instance_id)
    report = CheckReport(
        instance=ctx.instance_id,
        mode="derived",
        params={**ctx.base_params(), "d": d},
    )
    rec = _Recorder(report)
    established = _hypothesis_and_conclusion(ctx, rec, lambda H: derived_term(H, d), "G^(d)")
    if established is None:
        return report
    c, Gd = established

    families = ctx.families(a_special_lattice, max(d, 1))
    report.params["family-members"] = family_at(families, d).member_count()

    rec.run("aspecial-containment", lambda: check_aspecial_containment(families))
    rec.run("aspecial-generation", lambda: check_aspecial_generation(setup, families))
    rec.run("aspecial-degree-bound", lambda: check_aspecial_degree_bound(setup, families))

    def sylow():
        if Gd.is_trivial:
            return True
        for r in _prime_factors(Gd.order):
            if not check_sylow_generation(setup, d, r, families=families):
                return False
        return True

    rec.run("sylow-generation", sylow)
    rec.run(
        "key-commutator-relation",
        lambda: check_key_commutator_relation(setup, families, c, "derived", d=d),
    )
    return report


def verify_gamma_theorem(
    setup: ActionSetup, instance_id: str = "", ctx: InstanceContext | None = None
) -> CheckReport:
    """Hypothesis: gamma_{k-2}(C_G(a)) nilpotent of class <= c for all a in A^#.

    Conclusion: gamma_{k-2}(G) nilpotent; runs the gamma-family sub-checks
    and the iterated-commutator relation.
    """
    if setup.k < 3:
        raise PreconditionError("the gamma theorem needs k >= 3")
    ctx = ctx or InstanceContext(setup, instance_id)
    depth = setup.k - 2
    report = CheckReport(
        instance=ctx.instance_id,
        mode="gamma",
        params={**ctx.base_params(), "gamma-degree": depth},
    )
    rec = _Recorder(report)
    established = _hypothesis_and_conclusion(ctx, rec, lambda H: lcs_term(H, depth), "gamma_{k-2}(G)")
    if established is None:
        return report
    c, _ = established

    families = ctx.families(gamma_a_special_lattice, max(depth, 1))
    report.params["family-members"] = family_at(families, depth).member_count()

    def degree1_matches():
        gamma_deg1 = {m.mask_over(setup.G).tobytes() for m in family_at(families, 1).members}
        a_deg0 = family_at(ctx.families(a_special_lattice, 0), 0).members
        return gamma_deg1 == {m.mask_over(setup.G).tobytes() for m in a_deg0}

    rec.run("gamma-degree1-matches-aspecial0", degree1_matches)
    rec.run("gamma-containment", lambda: check_aspecial_containment(families))
    rec.run("gamma-generation", lambda: check_aspecial_generation(setup, families))
    rec.run("gamma-degree-bound", lambda: check_aspecial_degree_bound(setup, families))
    rec.run(
        "key-commutator-relation",
        lambda: check_key_commutator_relation(setup, families, c, "gamma"),
    )
    return report


# ---------------------------------------------------------------- the suite


@dataclass
class SuiteOptions:
    mode: str = "both"  # "derived" | "gamma" | "both"
    d: int | None = None
    seed: int = 0
    cap: int | None = None
    jobs: int = 1


@dataclass
class SuiteResult:
    reports: list[CheckReport]

    @property
    def exit_code(self) -> int:
        """1 if any report failed, else 2 if any errored, else 0."""
        if any(r.failed for r in self.reports):
            return 1
        return 2 if any(r.errored for r in self.reports) else 0

    def summary_rows(self) -> list[dict]:
        rows = []
        for r in self.reports:
            rows.append(
                {
                    "instance": r.instance,
                    "mode": r.mode,
                    "p": r.params.get("p", ""),
                    "k": r.params.get("k", ""),
                    "order": r.params.get("order", ""),
                    "degree": r.params.get("d", r.params.get("gamma-degree", "")),
                    "c": "" if r.hypothesis_c is None else r.hypothesis_c,
                    "conclusion_class": "" if r.conclusion_class is None else r.conclusion_class,
                    "status": r.status,
                }
            )
        return rows


SUMMARY_FIELDS = [
    "instance",
    "mode",
    "p",
    "k",
    "order",
    "degree",
    "c",
    "conclusion_class",
    "status",
]


def run_instance(
    instance_id: str, setup: ActionSetup, options: SuiteOptions
) -> list[CheckReport]:
    """All reports for one instance: lemmas plus the applicable theorem suites."""
    ctx = InstanceContext(setup, instance_id, seed=options.seed)
    reports = [lemma_report(ctx)]
    if setup.k >= 3 and options.mode in ("derived", "both"):
        d = options.d if options.d is not None else 0
        if 2**d + 2 <= setup.k:
            reports.append(verify_derived_theorem(setup, d, ctx=ctx))
    if setup.k >= 3 and options.mode in ("gamma", "both"):
        reports.append(verify_gamma_theorem(setup, ctx=ctx))
    return reports


def _run_payload(payload: dict) -> list[CheckReport]:
    options = SuiteOptions(**payload["options"])
    if payload["kind"] == "spec":
        spec = FamilySpec.from_dict(payload["spec"])
        setup = build_setup(spec, cap=options.cap)
    else:
        setup = load_instance(payload["path"], cap=options.cap)
    return run_instance(payload["instance_id"], setup, options)


def run_suite(entries: list[tuple[str, object]], options: SuiteOptions | None = None) -> SuiteResult:
    """Run every instance; an instance that cannot run gets an error report, never aborts.

    ``entries`` pairs an instance id with either a FamilySpec or a file path.
    """
    options = options or SuiteOptions()
    payloads = []
    for instance_id, source in entries:
        payload = {"instance_id": instance_id, "options": options.__dict__}
        if isinstance(source, FamilySpec):
            payload.update(kind="spec", spec=source.to_dict())
        else:
            payload.update(kind="file", path=str(source))
        payloads.append(payload)
    reports: list[CheckReport] = []
    workers = _worker_count(options.jobs, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(_run_payload_safe, payloads):
                reports.extend(result)
    else:
        for payload in payloads:
            reports.extend(_run_payload_safe(payload))
    reports.sort(key=lambda r: (r.instance, r.mode))
    return SuiteResult(reports=reports)


def _worker_count(jobs: int, payloads: int) -> int:
    """Worker processes for a suite: no more than the jobs asked, the CPUs or the payloads."""
    return max(1, min(jobs, os.cpu_count() or 1, payloads))


def _run_payload_safe(payload: dict) -> list[CheckReport]:
    try:
        return _run_payload(payload)
    except Exception as exc:  # captured per spec: errors never abort the suite
        report = CheckReport(
            instance=payload["instance_id"], mode="error", params={}
        )
        report.checks["instance-run"] = CheckResult(
            CheckStatus.ERROR, detail=f"{type(exc).__name__}: {exc}"
        )
        return [report]


# ------------------------------------------------------------------ output


def summary_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SUMMARY_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def aggregate_rows(rows: list[dict]) -> list[dict]:
    """Max conclusion class observed per (mode, c, k, p) cell."""
    cells: dict[tuple, dict] = {}
    for row in rows:
        if row["mode"] not in ("derived", "gamma") or row["c"] == "":
            continue
        key = (row["mode"], row["c"], row["k"], row["p"])
        cell = cells.setdefault(
            key,
            {
                "mode": row["mode"],
                "c": row["c"],
                "k": row["k"],
                "p": row["p"],
                "max_conclusion_class": 0,
                "instances": 0,
            },
        )
        cell["instances"] += 1
        if row["conclusion_class"] != "":
            cell["max_conclusion_class"] = max(
                cell["max_conclusion_class"], int(row["conclusion_class"])
            )
    return [cells[k] for k in sorted(cells, key=lambda t: tuple(str(x) for x in t))]


def aggregate_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    fields = ["mode", "c", "k", "p", "max_conclusion_class", "instances"]
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in aggregate_rows(rows):
        writer.writerow(row)
    return buf.getvalue()


def report_json(report: CheckReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
