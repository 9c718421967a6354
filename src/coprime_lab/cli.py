"""Command-line front end: generate instances, run the check suite, merge reports."""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections import Counter
from pathlib import Path

from .harness import (
    SuiteOptions,
    aggregate_csv,
    report_json,
    run_suite,
    summary_csv,
)
from .instances import build_setup, preset_entries, save_instance


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--instances", nargs="*", default=[], help="instance JSON files")
    parser.add_argument("--preset", action="append", default=[], help="named preset (repeatable)")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized sub-checks")
    parser.add_argument("--cap", type=int, default=None, help="enumeration cap override")
    parser.add_argument("--mode", choices=["derived", "gamma", "both"], default="both")
    parser.add_argument("--d", type=int, default=None, help="derived depth d (default: largest with 2^d + 2 <= k)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1, help="worker processes")
    parser.add_argument("--format", choices=["json", "csv", "both"], default="both")


def _collect_entries(args) -> list[tuple[str, object]]:
    entries: list[tuple[str, object]] = []
    for preset in args.preset:
        entries.extend(preset_entries(preset))
    for path in args.instances:
        entries.append((Path(path).stem, path))
    return entries


def _cmd_gen(args) -> int:
    if not args.preset:
        print("gen: at least one --preset is required", file=sys.stderr)
        return 2
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    for preset in args.preset:
        for instance_id, spec in preset_entries(preset):
            setup = build_setup(spec, cap=args.cap)
            path = save_instance(setup, out / f"{instance_id}.json")
            print(path)
    return 0


def _cmd_check(args) -> int:
    entries = _collect_entries(args)
    duplicates = sorted(i for i, n in Counter(i for i, _ in entries).items() if n > 1)
    if duplicates:
        print(f"check: duplicate instance ids {duplicates} would overwrite each other's reports", file=sys.stderr)
        return 2
    options = SuiteOptions(mode=args.mode, d=args.d, seed=args.seed, cap=args.cap, jobs=args.jobs)
    result = run_suite(entries, options)
    rows = result.summary_rows()
    for row in rows:
        print(
            f"{row['instance']:40s} {row['mode']:8s} status={row['status']}"
            + (f" c={row['c']}" if row["c"] != "" else "")
            + (f" class={row['conclusion_class']}" if row["conclusion_class"] != "" else "")
        )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.format in ("json", "both"):
            for report in result.reports:
                (out / f"{report.instance}.{report.mode}.report.json").write_text(
                    report_json(report)
                )
        if args.format in ("csv", "both"):
            (out / "summary.csv").write_text(summary_csv(rows))
    failed = sum(r.failed for r in result.reports)
    errored = sum(r.status == "error" for r in result.reports)
    print(f"{len(result.reports)} reports, {failed} failed, {errored} errored")
    return result.exit_code


def _cmd_report(args) -> int:
    rows: list[dict] = []
    for path in args.csvs:
        with open(path, newline="") as handle:
            rows.extend(csv.DictReader(handle))
    merged = summary_csv(rows)
    aggregated = aggregate_csv(rows)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "merged.csv").write_text(merged)
        (out / "aggregate.csv").write_text(aggregated)
        print(out / "merged.csv")
        print(out / "aggregate.csv")
    else:
        sys.stdout.write(aggregated)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coprime-lab",
        description="Verify centralizer-lattice and graded-ring properties of coprime actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit instance files from family presets")
    _add_common_flags(gen)

    check = sub.add_parser("check", help="run the verification suite on files or presets")
    _add_common_flags(check)

    report = sub.add_parser("report", help="merge summary CSVs and aggregate by (mode, c, k, p)")
    report.add_argument("csvs", nargs="+", help="summary CSV files to merge")
    report.add_argument("--out", default=None, help="output directory")

    args = parser.parse_args(argv)
    if args.command != "report":
        for flag, least in (("jobs", 1), ("cap", 1), ("d", 0)):
            value = getattr(args, flag)
            if value is not None and value < least:
                parser.error(f"argument --{flag}: must be at least {least}, got {value}")
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "check":
        return _cmd_check(args)
    return _cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
