"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the empirical (mode, c, k, p) class table.
"""

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from coprime_lab.action import (
    ASubgroupDescriptor,
    fixed_subgroup,
    maximal_subgroups,
)
from coprime_lab.cli import main as cli_main
from coprime_lab.groups import commutator_subgroup
from coprime_lab.harness import SuiteOptions, run_instance
from coprime_lab.instances import PRESETS, build_setup, preset_entries
from coprime_lab.lie import axiom_report, check_class_transfer, lie_ring_of
from coprime_lab.series import derived_series, lower_central_series
from coprime_lab.status import CheckStatus

from bruteforce import CayleyTable, brute_automorphism_table
from support import nilpotent_zoo, with_corrupted_constant

ACCEPTANCE_PRESETS = ("p2k3", "p2k4", "p3k3")
ORACLE_ORDER_LIMIT = 5_000


def _announce(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def suite_data():
    """Build every preset instance once and run the full per-instance pipeline."""
    items = []
    for preset in ACCEPTANCE_PRESETS:
        d = PRESETS[preset].d
        for instance_id, spec in preset_entries(preset):
            setup = build_setup(spec)
            reports = run_instance(instance_id, setup, SuiteOptions(mode="both", d=d, seed=0))
            items.append(
                SimpleNamespace(
                    preset=preset,
                    id=instance_id,
                    setup=setup,
                    d=d,
                    reports={r.mode: r for r in reports},
                )
            )
    return items


def _report_digest(report) -> str:
    """SHA-256 of a report as canonical JSON without its wall-clock fields."""
    data = report.to_dict()
    for check in data["checks"].values():
        check.pop("wall_ms", None)
    return hashlib.sha256(json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def test_reports_match_pinned_hashes(suite_data):
    """Every report of the acceptance presets, without ``wall_ms``, hashes to the digest
    pinned in data/report_sha256.json, so a refactor that changes a verdict, a detail or a
    parameter shows here."""
    pinned = json.loads((Path(__file__).parent / "data" / "report_sha256.json").read_text())
    digests = {
        f"{item.id}:{mode}": _report_digest(report)
        for item in suite_data
        for mode, report in item.reports.items()
    }
    assert len(digests) == 105
    assert digests == pinned


def test_criterion_1_axiom_suite():
    """Ring axioms hold exhaustively and the class transfers, on >= 20 groups."""
    zoo = nilpotent_zoo()
    assert len(zoo) >= 20
    for name, G in zoo:
        assert 27 <= G.order <= 2187, name
        ring = lie_ring_of(G)  # construction verifies axioms and cross-checks
        report = axiom_report(ring)
        assert all(report.values()), (name, report)
        assert check_class_transfer(ring, G), name
    _announce(1, True, f"axioms and class transfer exact on {len(zoo)} nilpotent groups")


def test_criterion_2_coprime_lemma_suite(suite_data):
    """FG1, FG2, and centralizer transfer: zero failures on >= 30 setups."""
    assert len(suite_data) >= 30
    assert {item.setup.p for item in suite_data} == {2, 3}
    assert {(item.setup.p, item.setup.k) for item in suite_data} >= {(2, 3), (2, 4), (3, 3)}
    transfer_count = 0
    for item in suite_data:
        checks = item.reports["lemmas"].checks
        assert checks["setup-valid"].status is CheckStatus.PASS, item.id
        assert checks["fg1-quotient"].status is CheckStatus.PASS, item.id
        assert checks["fg2-generation"].status is CheckStatus.PASS, item.id
        status = checks["centralizer-transfer"].status
        assert status in (CheckStatus.PASS, CheckStatus.NOT_APPLICABLE), item.id
        if status is CheckStatus.PASS:
            transfer_count += 1
    assert transfer_count >= 30
    _announce(
        2,
        True,
        f"FG1/FG2 exact on {len(suite_data)} setups; transfer exact on {transfer_count}",
    )


def test_criterion_3_special_subgroup_suite(suite_data):
    """Containment, generation, degree-bound witnesses, and Sylow generation."""
    a_checks = ("aspecial-containment", "aspecial-generation", "aspecial-degree-bound", "sylow-generation")
    g_checks = ("gamma-containment", "gamma-generation", "gamma-degree-bound")
    ran = 0
    for item in suite_data:
        for mode, names in (("derived", a_checks), ("gamma", g_checks)):
            report = item.reports.get(mode)
            if report is None or not report.hypothesis_met:
                continue
            for name in names:
                assert report.checks[name].status is CheckStatus.PASS, (item.id, name, report.checks[name].detail)
            ran += 1
    assert ran >= 50
    _announce(3, True, f"special-family checks exact across {ran} theorem reports")


def test_criterion_4_theorem_conclusions(suite_data):
    """Conclusion subgroups nilpotent with recorded class; sanity class ceiling."""
    cells = {}
    concluded = 0
    for item in suite_data:
        for mode in ("derived", "gamma"):
            report = item.reports.get(mode)
            if report is None:
                continue
            assert not report.failed, (item.id, mode)
            if not report.hypothesis_met:
                continue
            assert report.checks["conclusion-nilpotent"].status is CheckStatus.PASS
            assert report.conclusion_class is not None
            assert report.checks["key-commutator-relation"].status is CheckStatus.PASS
            c = report.hypothesis_c
            members = report.params["family-members"]
            ceiling = 2 * (c + 1) * members
            assert report.conclusion_class <= ceiling, (item.id, mode, report.conclusion_class, ceiling)
            key = (mode, c, item.setup.k, item.setup.p)
            cells[key] = max(cells.get(key, 0), report.conclusion_class)
            concluded += 1
    assert concluded >= 50
    print("[acceptance] empirical class table (mode, c, k, p) -> max conclusion class:")
    for key in sorted(cells):
        print(f"    {key} -> {cells[key]}")
    _announce(4, True, f"{concluded} theorem conclusions verified, class ceiling respected")


def test_criterion_5_oracle_equivalence(suite_data):
    """Main paths agree exactly with brute force on every |G| <= 5000 instance."""
    checked = 0
    for item in suite_data:
        G = item.setup.G
        if G.order > ORACLE_ORDER_LIMIT:
            continue
        elements = G.elements()
        # the table's BFS from the raw generator rows is the closure of the generators
        table = CayleyTable(list(G.generators))
        every = np.arange(table.order)
        assert table.perms(every) == elements, item.id

        # commutator subgroup: normal-closure path vs all element pairs
        derived2 = table.commutator_subgroup(every, every)
        assert commutator_subgroup(G, G, G).elements() == table.perms(derived2)

        # series: iterate brute commutators from the shared first step
        lcs = lower_central_series(G).terms
        current = derived2
        for term in lcs[1:]:
            assert term.elements() == table.perms(current), item.id
            if len(current) == 1:
                break
            current = table.commutator_subgroup(current, every)
        ds = derived_series(G).terms
        current = derived2
        for term in ds[1:]:
            assert term.elements() == table.perms(current), item.id
            if len(current) == 1:
                break
            current = table.commutator_subgroup(current, current)

        # centralizers: independently tabulated automorphisms
        setup = item.setup
        basis_tables = [brute_automorphism_table(G, auto.images) for auto in setup.basis]
        for j, u in enumerate(setup.basis_vectors()):
            fixed = {x for x in elements if basis_tables[j][x] == x}
            B = ASubgroupDescriptor.generated_by(setup.p, setup.k, u)
            assert fixed_subgroup(setup, B).elements() == frozenset(fixed), item.id
        B = maximal_subgroups(setup)[0]
        tables = []
        for vec in B.vectors:
            table = {x: x for x in elements}
            for j, exp in enumerate(vec):
                for _ in range(exp):
                    table = {x: basis_tables[j][y] for x, y in table.items()}
            tables.append(table)
        fixed = {x for x in elements if all(t[x] == x for t in tables)}
        assert fixed_subgroup(setup, B).elements() == frozenset(fixed), item.id
        checked += 1
    assert checked >= 25
    _announce(5, True, f"brute-force oracle agrees exactly on {checked} instances <= {ORACLE_ORDER_LIMIT}")


def _normalized_reports(directory):
    out = {}
    for path in sorted(directory.glob("*.report.json")):
        data = json.loads(path.read_text())
        for check in data["checks"].values():
            check.pop("wall_ms", None)
        out[path.name] = json.dumps(data, sort_keys=True)
    return out


def test_criterion_6_determinism_roundtrip(tmp_path):
    """gen -> file -> check -> report is byte-identical across two seeded runs."""
    outputs = []
    for run in ("one", "two"):
        base = tmp_path / run
        gen_dir, check_dir, report_dir = base / "gen", base / "check", base / "report"
        assert cli_main(["gen", "--preset", "smoke", "--seed", "7", "--out", str(gen_dir)]) == 0
        files = sorted(gen_dir.glob("*.json"))
        assert cli_main(
            ["check", "--instances", *[str(f) for f in files], "--seed", "7", "--jobs", "1",
             "--d", "0", "--out", str(check_dir)]
        ) == 0
        assert cli_main(["report", str(check_dir / "summary.csv"), "--out", str(report_dir)]) == 0
        outputs.append(
            {
                "instances": {f.name: f.read_bytes() for f in files},
                "reports": _normalized_reports(check_dir),
                "summary": (check_dir / "summary.csv").read_bytes(),
                "merged": (report_dir / "merged.csv").read_bytes(),
                "aggregate": (report_dir / "aggregate.csv").read_bytes(),
            }
        )
    assert outputs[0] == outputs[1]

    # instance files round-trip through load_instance and re-export
    from coprime_lab.instances import load_instance, save_instance

    gen_dir = tmp_path / "one" / "gen"
    for path in sorted(gen_dir.glob("*.json")):
        original = path.read_text()
        setup = load_instance(path)
        copy = tmp_path / "copy.json"
        save_instance(setup, copy)
        assert copy.read_text() == original
    _announce(6, True, "two seeded gen/check/report runs byte-identical; files round-trip")


def test_criterion_7_mutation_sensitivity():
    """A corrupted structure constant must trip the criterion 1-4 checks."""
    name, G = next((n, g) for n, g in nilpotent_zoo() if n == "wreath81")
    ring = lie_ring_of(G)
    corrupted = with_corrupted_constant(ring)
    assert corrupted.constants.keys() == ring.constants.keys()
    assert not all(np.array_equal(corrupted.constants[key], C) for key, C in ring.constants.items())
    report = axiom_report(corrupted)
    axioms_broken = not all(report.values())
    class_broken = not check_class_transfer(corrupted, G)
    assert axioms_broken or class_broken
    broken = [k for k, v in report.items() if not v] + (["class-transfer"] if class_broken else [])
    _announce(7, True, f"corrupted constant detected by: {', '.join(broken)}")
