"""Tests for the harness reports, the suite runner, and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coprime_lab
from coprime_lab.action import ActionSetup, Automorphism
from coprime_lab.cli import main as cli_main
from coprime_lab.errors import (
    CapacityError,
    ContainmentError,
    GenerationError,
    InternalCheckError,
    PreconditionError,
)
from coprime_lab.fastset import RowIndex
from coprime_lab.groups import group_from_generators
from coprime_lab.harness import (
    CheckReport,
    CheckResult,
    SuiteOptions,
    SuiteResult,
    _Recorder,
    _worker_count,
    aggregate_rows,
    find_invariant_normal_subgroups,
    random_invariant_subgroups,
    run_instance,
    run_suite,
    summary_csv,
    verify_derived_theorem,
    verify_gamma_theorem,
)
from coprime_lab.instances import build_setup, preset_entries, save_instance
from coprime_lab.perms import Perm
from coprime_lab.status import CheckStatus


def heis_setup_k3():
    t = Perm.from_cycles(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))
    v = Perm.from_cycles(9, (0, 1, 2), (3, 5, 4))
    G = group_from_generators(9, [t, v])
    a1 = Automorphism(G, {t: t.inverse(), v: v})
    a2 = Automorphism(G, {t: t, v: v.inverse()})
    return ActionSetup(G, 2, 3, [a1, a2, Automorphism.identity(G)])


def trivial_setup_k3():
    G = group_from_generators(6, [Perm.from_cycles(6, (0, 1, 2)), Perm.from_cycles(6, (3, 4, 5))])
    return ActionSetup(G, 2, 3, [Automorphism.identity(G)] * 3)


def test_verify_derived_trivial_action_abelian():
    report = verify_derived_theorem(trivial_setup_k3(), 0, instance_id="abelian")
    assert report.status == "pass"
    assert report.hypothesis_c == 1
    assert report.conclusion_class == 1


def test_verify_derived_trivial_action_class_matches():
    setup = heis_setup_k3()
    report = verify_derived_theorem(setup, 0)
    assert report.status == "pass"
    assert report.hypothesis_c == 2
    assert report.conclusion_class == 2
    assert set(report.checks) >= {
        "hypothesis-centralizers",
        "conclusion-nilpotent",
        "aspecial-containment",
        "aspecial-generation",
        "aspecial-degree-bound",
        "sylow-generation",
        "key-commutator-relation",
    }
    # the steps stored by record() are timed as well as those run by run()
    assert all(report.checks[name].wall_ms > 0 for name in ("hypothesis-centralizers", "conclusion-nilpotent"))


def test_verify_derived_preconditions():
    setup = heis_setup_k3()
    with pytest.raises(PreconditionError):
        verify_derived_theorem(setup, 1)  # 2^1 + 2 > 3


def test_verify_gamma_trivial_action():
    report = verify_gamma_theorem(trivial_setup_k3())
    # k = 3: gamma_1(C_G(a)) = C_G(a) = G, abelian
    assert report.status == "pass"
    assert report.conclusion_class == 1
    assert all(report.checks[name].wall_ms > 0 for name in ("hypothesis-centralizers", "conclusion-nilpotent"))


def test_verify_gamma_requires_k3():
    G = group_from_generators(3, [Perm.from_cycles(3, (0, 1, 2))])
    setup = ActionSetup(G, 2, 2, [Automorphism.identity(G)] * 2)
    with pytest.raises(PreconditionError):
        verify_gamma_theorem(setup)


def test_hypothesis_not_met_classification():
    setup = build_setup(preset_entries("p2k3")[10][1])  # frob21 instance
    report = verify_derived_theorem(setup, 0)
    assert report.status == "hypothesis-not-met"
    assert not report.failed
    assert report.conclusion_class is None


def test_invariant_subgroup_search_properties():
    setup = heis_setup_k3()
    for N in find_invariant_normal_subgroups(setup, seed=1):
        assert N.is_normal_in(setup.G)
        assert setup.is_invariant_subgroup(N)
    for H in random_invariant_subgroups(setup, seed=1):
        assert setup.is_invariant_subgroup(H)


def test_run_suite_empty():
    result = run_suite([])
    assert result.reports == []
    assert result.exit_code == 0


def test_run_suite_smoke_preset_passes():
    result = run_suite(preset_entries("smoke"), SuiteOptions(mode="both", d=0, seed=0))
    assert result.exit_code == 0
    assert len(result.reports) == 9  # 3 instances x (lemmas, derived, gamma)
    assert all(r.status == "pass" for r in result.reports)


def _without_wall_ms(report: CheckReport) -> dict:
    data = report.to_dict()
    for check in data["checks"].values():
        del check["wall_ms"]
    return data


def test_run_suite_process_pool_matches_serial(monkeypatch):
    # two workers even on a one-CPU machine, so that the pool path runs
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    entries = preset_entries("smoke")
    serial = run_suite(entries, SuiteOptions(jobs=1, d=0))
    pooled = run_suite(entries, SuiteOptions(jobs=2, d=0))
    assert all(isinstance(r, CheckReport) for r in pooled.reports)
    assert pooled.exit_code == serial.exit_code
    assert [_without_wall_ms(r) for r in pooled.reports] == [_without_wall_ms(r) for r in serial.reports]


def test_failed_report_drives_exit_code():
    report = CheckReport(instance="x", mode="derived", params={})
    report.checks["boom"] = CheckResult(CheckStatus.FAIL, detail="injected")
    assert SuiteResult(reports=[report]).exit_code == 1
    assert report.status == "fail"


def test_suite_captures_instance_errors():
    # an instance that cannot run gives no verdict: an error, not a failure
    result = run_suite([("broken", "/nonexistent/path.json")])
    assert result.exit_code == 2
    assert result.reports[0].mode == "error"
    assert result.reports[0].status == "error"
    assert not result.reports[0].failed


@pytest.mark.parametrize(
    "raised, status",
    [
        (CapacityError("over the cap"), CheckStatus.ERROR),
        (GenerationError("no such family"), CheckStatus.ERROR),
        (ZeroDivisionError("crash"), CheckStatus.ERROR),
        (InternalCheckError("a bug"), CheckStatus.FAIL),
        (ContainmentError("outside G"), CheckStatus.FAIL),
        (PreconditionError("not this k"), CheckStatus.NOT_APPLICABLE),
    ],
)
def test_recorder_maps_each_exception_to_a_status(raised, status):
    report = CheckReport(instance="x", mode="lemmas", params={})

    def check():
        raise raised

    _Recorder(report).run("boom", check)
    _Recorder(report).run("fine", lambda: True)  # one check's exception does not stop the next
    assert report.checks["boom"].status is status
    assert report.checks["fine"].status is CheckStatus.PASS


def test_report_status_and_exit_code_precedence():
    def report_with(*statuses):
        report = CheckReport(instance="x", mode="derived", params={})
        for n, status in enumerate(statuses):
            report.checks[f"c{n}"] = CheckResult(status)
        return report

    S = CheckStatus
    cases = [
        ((S.PASS, S.HYPOTHESIS_NOT_MET, S.ERROR, S.FAIL), "fail", 1),
        ((S.PASS, S.HYPOTHESIS_NOT_MET, S.ERROR), "error", 2),
        ((S.PASS, S.HYPOTHESIS_NOT_MET, S.NOT_APPLICABLE), "hypothesis-not-met", 0),
        ((S.PASS, S.NOT_APPLICABLE), "pass", 0),
    ]
    for statuses, status, code in cases:
        report = report_with(*statuses)
        assert report.status == status
        assert SuiteResult(reports=[report]).exit_code == code
    # one failed report outranks an errored one in the suite's exit code
    assert SuiteResult(reports=[report_with(S.ERROR), report_with(S.FAIL)]).exit_code == 1


def test_cli_check_capacity_limit_is_an_error_not_a_failure(capsys):
    rc = cli_main(["check", "--preset", "smoke", "--cap", "100", "--jobs", "1", "--seed", "0", "--d", "0"])
    assert rc == 2
    lines = capsys.readouterr().out.splitlines()
    statuses = {line.split()[0]: line.split("status=")[1].split()[0] for line in lines if "status=" in line}
    assert statuses["smoke-02-heis-diag-c5"] == statuses["smoke-03-c3-c5-c7"] == "error"
    assert statuses["smoke-01-gl-q3n3"] == "pass"
    assert "fail" not in statuses.values()
    assert lines[-1] == "5 reports, 0 failed, 2 errored"


def test_cli_check_instance_file_over_the_cap_is_one_error(tmp_path, capsys):
    """A file whose group has more elements than --cap cannot be loaded: one error report."""
    spec = dict(preset_entries("smoke"))["smoke-02-heis-diag-c5"]
    path = save_instance(build_setup(spec), tmp_path / "heis.json")
    rc = cli_main(["check", "--instances", str(path), "--cap", "20", "--out", str(tmp_path / "out"), "--jobs", "1"])
    assert rc == 2
    assert capsys.readouterr().out.splitlines()[-1] == "1 reports, 0 failed, 1 errored"
    (report,) = (tmp_path / "out").glob("*.report.json")
    data = json.loads(report.read_text())
    assert data["status"] == "error"
    assert [check["detail"] for check in data["checks"].values()] == [
        "CapacityError: group order exceeds the enumeration cap 20"
    ]


def test_cli_check_instance_file_whose_group_has_no_generators_passes(tmp_path, capsys):
    """The trivial group given by no generators: every basis automorphism is its one-entry
    table, and the lemma, derived and gamma suites all pass."""
    path = tmp_path / "trivial.json"
    action = {"1,0,0": {}, "0,1,0": {}, "0,0,1": {}}
    path.write_text(json.dumps({"schema": 1, "p": 2, "k": 3, "group": {"degree": 3, "generators": []}, "action": action}))
    rc = cli_main(["check", "--instances", str(path), "--d", "0", "--out", str(tmp_path / "out"), "--jobs", "1"])
    assert capsys.readouterr().out.splitlines()[-1] == "3 reports, 0 failed, 0 errored"
    assert rc == 0
    reports = [json.loads(report.read_text()) for report in sorted((tmp_path / "out").glob("*.report.json"))]
    assert [(report["mode"], report["status"]) for report in reports] == [
        ("derived", "pass"), ("gamma", "pass"), ("lemmas", "pass")
    ]


def test_summary_and_aggregate_rows():
    result = run_suite(preset_entries("smoke"), SuiteOptions(mode="both", d=0, seed=0))
    rows = result.summary_rows()
    text = summary_csv(rows)
    assert text.splitlines()[0].startswith("instance,mode,")
    agg = aggregate_rows(rows)
    assert agg, "theorem rows must aggregate into (mode, c, k, p) cells"
    for cell in agg:
        assert cell["max_conclusion_class"] >= 1


def test_report_json_sorted_and_versioned():
    result = run_suite(preset_entries("smoke")[:1], SuiteOptions(mode="derived", d=0))
    data = result.reports[0].to_dict()
    assert data["schema"] == 1
    text = json.dumps(data, sort_keys=True)
    assert json.loads(text) == data


# ------------------------------------------------------------------- CLI


def test_cli_gen_check_report(tmp_path, capsys):
    gen_dir = tmp_path / "instances"
    rc = cli_main(
        ["gen", "--preset", "smoke", "--out", str(gen_dir), "--seed", "0"]
    )
    assert rc == 0
    files = sorted(gen_dir.glob("*.json"))
    assert len(files) == 3

    out_dir = tmp_path / "reports"
    rc = cli_main(
        [
            "check",
            "--instances",
            *[str(f) for f in files],
            "--out",
            str(out_dir),
            "--jobs",
            "1",
            "--seed",
            "0",
            "--d",
            "0",
        ]
    )
    assert rc == 0
    assert (out_dir / "summary.csv").exists()
    report_files = sorted(out_dir.glob("*.report.json"))
    assert len(report_files) == 9

    merged_dir = tmp_path / "merged"
    rc = cli_main(["report", str(out_dir / "summary.csv"), "--out", str(merged_dir)])
    assert rc == 0
    assert (merged_dir / "merged.csv").exists()
    assert (merged_dir / "aggregate.csv").exists()
    capsys.readouterr()


def test_cli_check_preset_exit_zero(tmp_path, capsys):
    rc = cli_main(["check", "--preset", "smoke", "--jobs", "1", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 failed" in out


def test_cli_check_smoke_does_not_import_numpy_ma(tmp_path):
    """``numpy.ma`` (imported by ``np.unique``) adds about 1 MB to peak RSS; a fresh
    ``check --preset smoke`` process must end without it."""
    code = (
        "import sys; from coprime_lab.cli import main; "
        "rc = main(['check', '--preset', 'smoke', '--jobs', '1', '--out', 'out']); "
        "print(rc, 'numpy.ma' in sys.modules)"
    )
    src = str(Path(coprime_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 False"


def test_cli_check_rejects_duplicate_instance_ids(tmp_path, capsys):
    name, spec = preset_entries("smoke")[0]
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        paths.append(str(save_instance(build_setup(spec), tmp_path / sub / "x.json")))
    preset_file = str(save_instance(build_setup(spec), tmp_path / f"{name}.json"))
    out = tmp_path / "reports"
    for argv, dup in (
        (["--instances", *paths], "x"),
        (["--preset", "smoke", "--instances", preset_file], name),
    ):
        rc = cli_main(["check", *argv, "--jobs", "1", "--d", "0", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "duplicate instance ids" in err and repr(dup) in err
    assert not out.exists()


def test_worker_count_is_clamped():
    cpus = os.cpu_count() or 1
    assert _worker_count(10_000, 3) == min(3, cpus)
    assert _worker_count(10_000, 10_000) == cpus
    assert _worker_count(1, 10_000) == 1
    assert _worker_count(4, 0) == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_jobs_below_one(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["check", "--preset", "smoke", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_check_defaults_d_per_instance_to_the_largest_with_two_to_the_d_plus_two_at_most_k(tmp_path):
    out = tmp_path / "out"
    rc = cli_main(["check", "--preset", "p2k3", "--preset", "p2k4", "--jobs", "1", "--out", str(out), "--format", "json"])
    assert rc == 0
    ds: dict[str, list[int]] = {"p2k3": [], "p2k4": []}
    for path in sorted(out.glob("*.derived.report.json")):
        report = json.loads(path.read_text())
        ds[report["instance"].split("-")[0]].append(report["params"]["d"])
    assert ds == {name: [d] * len(preset_entries(name)) for name, d in (("p2k3", 0), ("p2k4", 1))}


def test_reports_make_no_perm_product_inverse_or_power_once_set_up(monkeypatch):
    """Perm objects stay at the boundary: every report on every preset instance, once its
    set-up is built, runs on row indices and masks alone, and makes no Perm from rows."""
    entries = [entry for name in ("smoke", "p2k3", "p2k4", "p3k3") for entry in preset_entries(name)]
    setups = [(iid, build_setup(spec)) for iid, spec in entries]
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)
        return lambda *args: calls.append(name) or original(*args)

    for name in ("__mul__", "inverse", "__pow__"):
        monkeypatch.setattr(Perm, name, counting(Perm, name))
    monkeypatch.setattr(RowIndex, "perms", counting(RowIndex, "perms"))
    for iid, setup in setups:
        reports = run_instance(iid, setup, SuiteOptions())
        assert [r.mode for r in reports] == ["lemmas", "derived", "gamma"]
        assert not any(r.failed or r.errored for r in reports), iid
    assert len(setups) == 38 and calls == []
    x = Perm.from_cycles(3, (0, 1, 2))
    assert x * x.inverse() == x ** 3 and set(calls) == {"inverse", "__mul__", "__pow__"}
    assert group_from_generators(3, [x]).sorted_elements()[1] == x and calls[-1] == "perms"


@pytest.mark.parametrize("flag, value", [("--d", "-1"), ("--cap", "0")])
def test_cli_rejects_a_negative_d_and_a_cap_below_one_before_any_report(flag, value, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli_main(["check", "--preset", "smoke", "--jobs", "1", flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"{flag}: must be at least" in capsys.readouterr().err
    assert not out.exists()
