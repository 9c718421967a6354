"""Subgroups of an enumerated group as masks over its index: no chains, same generators."""

import numpy as np
import pytest

from coprime_lab import groups
from coprime_lab.action import all_subspaces, fixed_subgroup, maximal_subgroups, validate_setup
from coprime_lab.errors import ContainmentError, ValidationError
from coprime_lab.groups import Group, generated_in, group_from_generators
from coprime_lab.harness import verify_derived_theorem, verify_gamma_theorem
from coprime_lab.instances import PRESETS, build_setup, preset_entries
from coprime_lab.perms import Perm

from bruteforce import mulclose

SMOKE = ["smoke-01-gl-q3n3", "smoke-02-heis-diag-c5", "smoke-03-c3-c5-c7"]


def preset_setup(instance_id):
    return build_setup(dict(preset_entries(instance_id.split("-")[0]))[instance_id])


def test_theorem_suites_build_no_chain_once_g_and_its_tables_exist(monkeypatch):
    setup = preset_setup("p2k3-08-wreath-c5")
    assert validate_setup(setup).ok  # enumerates G and builds every basis table
    builds = []
    original = groups._Chain.__init__

    def counted(self, degree):
        builds.append(degree)
        original(self, degree)

    monkeypatch.setattr(groups._Chain, "__init__", counted)
    derived = verify_derived_theorem(setup, PRESETS["p2k3"].d)
    gamma = verify_gamma_theorem(setup)
    assert derived.status == gamma.status == "pass"
    assert builds == []


def greedy_generators(elements):
    """Each element in sort order that the earlier picks do not generate."""
    picks, span = [], {Perm.identity(next(iter(elements)).degree)}
    for x in sorted(elements):
        if x not in span:
            picks.append(x)
            span = mulclose(picks)
    return tuple(picks)


@pytest.mark.parametrize("instance_id", SMOKE)
def test_generators_follow_the_greedy_rule_on_every_centralizer(instance_id):
    setup = preset_setup(instance_id)
    for B in all_subspaces(setup.p, setup.k):
        C = fixed_subgroup(setup, B)
        expected = greedy_generators(C.elements())
        assert C.generators == expected, B
        assert Group.from_elements(setup.G.degree, C.elements()).generators == expected, B


def test_generated_in_keeps_to_the_ambient_group():
    setup = preset_setup("smoke-02-heis-diag-c5")
    C = fixed_subgroup(setup, maximal_subgroups(setup)[0])
    outside = next(x for x in setup.G.sorted_elements() if not C.contains(x))
    with pytest.raises(ContainmentError):
        generated_in(C, [outside])
    H = generated_in(setup.G, [outside, outside, Perm.identity(setup.G.degree)])
    assert H.generators == (outside,) and H.contains(outside) and H.is_subgroup_of(setup.G)


def test_a_set_that_is_not_closed_raises():
    s3 = group_from_generators(3, [Perm.from_cycles(3, (0, 1)), Perm.from_cycles(3, (0, 1, 2))])
    ident, flip, rotate = Perm.identity(3), Perm.from_cycles(3, (0, 1)), Perm.from_cycles(3, (0, 1, 2))
    for elements in ([ident, rotate], [flip, rotate], [ident, flip, rotate], []):
        with pytest.raises(ValidationError, match="not closed"):
            Group.from_elements(3, elements)
    index = s3.row_index()
    mask = np.zeros(len(index), dtype=bool)
    mask[index.index_of([ident, rotate])] = True
    with pytest.raises(ValidationError, match="not closed"):
        Group.from_mask(s3, mask)
    mask[index.index_of([rotate * rotate])] = True
    assert Group.from_mask(s3, mask).order == 3
