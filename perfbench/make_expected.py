"""Regenerate the benchmark's fixed data from the program at this checkout.

    python3 perfbench/make_expected.py

Writes ``expected.json`` (status and fingerprint of every report each
workload produces, at seed 0) and ``compose_inputs.json`` (the generators
the ``Perm`` micro-benchmark composes).  Run it only when reports are meant
to change; the gate exists to catch changes nobody meant.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, STATE, load_program

COMPOSE_SOURCES = {
    "d27": "p2k4-05-c3swap-heis-c5-c7",
    "d62": "p3k3-04-extrasp343-c13",
    "d169": "p3k3-05-extrasp2197",
}


def main() -> int:
    load_program()
    from workloads import WORKLOADS, specs_for, fingerprint
    from coprime_lab import instances

    expected = {}
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="expected-", dir=STATE))
    try:
        for name, cls in WORKLOADS.items():
            workload = cls()
            outcome = workload.check(workload.setup(workdir)[0], seed=0)
            if outcome.errors:
                print(f"{name}: {outcome.errors} error(s); not writing", file=sys.stderr)
                return 1
            expected[name] = {k: fingerprint(r) for k, r in sorted(outcome.reports.items())}
            print(f"{name}: {len(outcome.reports)} reports", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")

    compose = {}
    for degree, iid in COMPOSE_SOURCES.items():
        [(_, spec, _)] = specs_for([iid])
        G = instances.build_setup(spec).G
        compose[degree] = [list(g.images) for g in G.generators]
    (HERE / "compose_inputs.json").write_text(json.dumps(compose) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
