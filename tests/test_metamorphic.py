"""Metamorphic tests: verdicts do not depend on how the instance is written down.

Two changes leave an instance the same up to isomorphism:

* relabelling the points by a permutation s, which conjugates every
  generator and every automorphism image by s;
* replacing the basis e_1..e_k of A by the rows of a matrix in GL(k, p),
  which keeps phi(A) and every subgroup of A.

Either one reorders ``sorted(Perm)`` and with it every element index, every
generator choice and every seeded subgroup pick, so these tests catch code
whose verdicts lean on that order.  Statuses, the hypothesis bound c, the
conclusion class and the family member counts must not change.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprime_lab.action import ActionSetup, ASubgroupDescriptor, Automorphism
from coprime_lab.groups import Group
from coprime_lab.harness import SuiteOptions, run_instance
from coprime_lab.instances import PRESETS, build_setup, preset_entries
from coprime_lab.perms import Perm

INSTANCES = (
    ("smoke", "smoke-01-gl-q3n3"),
    ("smoke", "smoke-02-heis-diag-c5"),
    ("smoke", "smoke-03-c3-c5-c7"),
    ("p2k3", "p2k3-01-gl-q3n3"),
    ("p2k3", "p2k3-08-wreath-c5"),
    ("p3k3", "p3k3-01-gl-q7n3"),
)

EXAMPLES = settings(max_examples=3, deadline=None, derandomize=True)


@lru_cache(maxsize=None)
def _spec(preset: str, instance_id: str):
    return dict(preset_entries(preset))[instance_id]


def _verdicts(preset: str, instance_id: str, setup: ActionSetup) -> dict:
    reports = run_instance(instance_id, setup, SuiteOptions(mode="both", d=PRESETS[preset].d, seed=0))
    return {
        report.mode: (
            report.status,
            {name: check.status.value for name, check in report.checks.items()},
            report.hypothesis_c,
            report.conclusion_class,
            report.params.get("family-members"),
        )
        for report in reports
    }


@lru_cache(maxsize=None)
def _baseline(preset: str, instance_id: str) -> dict:
    return _verdicts(preset, instance_id, build_setup(_spec(preset, instance_id)))


def _relabelled(setup: ActionSetup, sigma: Perm) -> ActionSetup:
    sigma_inv = sigma.inverse()

    def conj(x: Perm) -> Perm:
        return sigma_inv * x * sigma

    G = Group(setup.G.degree, [conj(g) for g in setup.G.generators], cap=setup.G.cap)
    basis = [Automorphism(G, {conj(g): conj(img) for g, img in base.images.items()}) for base in setup.basis]
    return ActionSetup(G, setup.p, setup.k, basis)


def _rebased(setup: ActionSetup, rows: list[tuple[int, ...]]) -> ActionSetup:
    G = Group(setup.G.degree, setup.G.generators, cap=setup.G.cap)
    basis = [Automorphism(G, dict(setup.phi(row).images)) for row in rows]
    return ActionSetup(G, setup.p, setup.k, basis)


@pytest.mark.parametrize("preset,instance_id", INSTANCES)
@EXAMPLES
@given(data=st.data())
def test_relabelling_points_keeps_verdicts(preset, instance_id, data):
    setup = build_setup(_spec(preset, instance_id))
    images = data.draw(st.permutations(range(setup.G.degree)), label="sigma")
    moved = _relabelled(setup, Perm(images))
    assert _verdicts(preset, instance_id, moved) == _baseline(preset, instance_id)


@pytest.mark.parametrize("preset,instance_id", INSTANCES)
@EXAMPLES
@given(data=st.data())
def test_changing_the_basis_of_a_keeps_verdicts(preset, instance_id, data):
    setup = build_setup(_spec(preset, instance_id))
    p, k = setup.p, setup.k
    row = st.tuples(*[st.integers(0, p - 1)] * k)
    rows = data.draw(
        st.lists(row, min_size=k, max_size=k).filter(
            lambda rs: ASubgroupDescriptor.from_vectors(p, k, rs).codim == 0
        ),
        label="matrix",
    )
    moved = _rebased(setup, rows)
    assert _verdicts(preset, instance_id, moved) == _baseline(preset, instance_id)
