"""Tests for the recursive centralizer-commutator subgroup families."""

import dataclasses
import re

import numpy as np
import pytest

from coprime_lab import special
from coprime_lab.action import ActionSetup, Automorphism, fixed_subgroup, maximal_subgroups
from coprime_lab.errors import CapacityError, PreconditionError
from coprime_lab.groups import commutator_subgroup, group_from_generators
from coprime_lab.harness import CheckReport, _Recorder
from coprime_lab.instances import PRESETS, build_setup, preset_entries
from coprime_lab.perms import Perm
from coprime_lab.series import derived_term, lcs_term
from coprime_lab.special import (
    CheckStatus,
    _packed_keys,
    a_special_lattice,
    check_aspecial_containment,
    check_aspecial_degree_bound,
    check_aspecial_generation,
    check_key_commutator_relation,
    check_sylow_generation,
    family_at,
    gamma_a_special_lattice,
)

from bruteforce import brute_action_tables, brute_fixed_elements, brute_span, brute_special_lattice
from support import center


def heisenberg27():
    t = Perm.from_cycles(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))
    v = Perm.from_cycles(9, (0, 1, 2), (3, 5, 4))
    return group_from_generators(9, [t, v])


def trivial_setup(G, p=2, k=2):
    return ActionSetup(G, p, k, [Automorphism.identity(G) for _ in range(k)])


def heis_diag_setup(k=2):
    G = heisenberg27()
    t, v = G.generators
    a1 = Automorphism(G, {t: t.inverse(), v: v})
    a2 = Automorphism(G, {t: t, v: v.inverse()})
    basis = [a1, a2] + [Automorphism.identity(G) for _ in range(k - 2)]
    return ActionSetup(G, 2, k, basis)


def abelian_setup():
    a = Perm.from_cycles(6, (0, 1, 2))
    b = Perm.from_cycles(6, (3, 4, 5))
    G = group_from_generators(6, [a, b])
    inv_a = Automorphism(G, {a: a.inverse(), b: b})
    inv_b = Automorphism(G, {a: a, b: b.inverse()})
    return ActionSetup(G, 2, 2, [inv_a, inv_b])


def test_trivial_action_families_are_series_terms():
    setup = trivial_setup(heisenberg27())
    fams = a_special_lattice(setup, 1)
    assert [m.order for m in fams[0].members] == [27]
    assert [m.order for m in fams[1].members] == [3]
    assert fams[1].members[0].same_subgroup(derived_term(setup.G, 1))
    gfams = gamma_a_special_lattice(setup, 3)
    for family in gfams:
        assert len(family.members) == 1
        assert family.members[0].same_subgroup(lcs_term(setup.G, family.degree))


def test_abelian_action_higher_degrees_trivial():
    setup = abelian_setup()
    fams = a_special_lattice(setup, 2)
    assert all(m.is_trivial for m in fams[1].members)
    assert all(m.is_trivial for m in fams[2].members)
    gfams = gamma_a_special_lattice(setup, 2)
    assert all(m.is_trivial for m in gfams[1].members)


def test_requires_rank_two():
    G = heisenberg27()
    setup = ActionSetup(G, 2, 1, [Automorphism.identity(G)])
    with pytest.raises(PreconditionError):
        a_special_lattice(setup, 1)


def test_heis_degree_one_members_in_center():
    setup = heis_diag_setup()
    fams = a_special_lattice(setup, 1)
    Z = center(setup.G)
    assert all(m.is_subgroup_of(Z) for m in family_at(fams, 1).members)


def test_members_are_invariant_and_deduplicated():
    setup = heis_diag_setup()
    fams = a_special_lattice(setup, 2)
    for family in fams:
        keys = [m.elements() for m in family.members]
        assert len(set(keys)) == len(keys)
        for member in family.members:
            assert setup.is_invariant_subgroup(member)
        assert len(family.provenance) == len(family.members)


def test_family_size_bounds_and_generated_normality():
    from coprime_lab.groups import generated_subgroup

    setup = heis_diag_setup()
    s = len(maximal_subgroups(setup))
    fams = a_special_lattice(setup, 2)
    assert len(fams[0].members) <= s
    for prev, family in zip(fams, fams[1:]):
        n = len(prev.members)
        assert len(family.members) <= s * n * n
        generated = generated_subgroup(setup.G, family.members)
        assert generated.is_normal_in(setup.G)
        assert setup.is_invariant_subgroup(generated)
    gfams = gamma_a_special_lattice(setup, 2)
    for prev, family in zip(gfams, gfams[1:]):
        assert len(family.members) <= s * s * len(prev.members)


def test_containment_generation_degree_bound():
    for setup in (heis_diag_setup(), abelian_setup()):
        fams = a_special_lattice(setup, 2)
        assert check_aspecial_containment(fams)
        assert check_aspecial_generation(setup, fams)
        assert check_aspecial_degree_bound(setup, fams) is CheckStatus.PASS
        gfams = gamma_a_special_lattice(setup, 2)
        assert check_aspecial_containment(gfams)
        assert check_aspecial_generation(setup, gfams)
        assert check_aspecial_degree_bound(setup, gfams) is CheckStatus.PASS


def test_gamma_degree_one_equals_a_special_degree_zero():
    setup = heis_diag_setup()
    a0 = {m.elements() for m in family_at(a_special_lattice(setup, 0), 0).members}
    g1 = {m.elements() for m in family_at(gamma_a_special_lattice(setup, 1), 1).members}
    assert a0 == g1


def test_sylow_generation():
    setup = heis_diag_setup()
    fams = a_special_lattice(setup, 1)
    assert check_sylow_generation(setup, 0, 3, fams)
    assert check_sylow_generation(setup, 1, 3, fams)
    # prime not dividing the order: vacuous
    assert check_sylow_generation(setup, 0, 5, fams)


def test_key_commutator_relation_preconditions():
    setup = heis_diag_setup(k=2)
    fams = a_special_lattice(setup, 1)
    with pytest.raises(PreconditionError):
        check_key_commutator_relation(setup, fams, 1, "derived", d=0)  # 2^0+2 > 2
    setup3 = heis_diag_setup(k=3)
    fams3 = a_special_lattice(setup3, 1)
    assert check_key_commutator_relation(setup3, fams3, 2, "derived", d=0)
    gfams3 = gamma_a_special_lattice(setup3, 1)
    assert check_key_commutator_relation(setup3, gfams3, 2, "gamma")


def test_relation_trivial_cases():
    # abelian G: every iterated commutator dies at the first step
    setup = abelian_setup()
    fams = a_special_lattice(setup, 0)
    # k = 2 < 3 so use gamma precondition path via direct derived d check
    with pytest.raises(PreconditionError):
        check_key_commutator_relation(setup, fams, 1, "gamma")


def test_degree1_family_has_a_recipe_per_member():
    setup = heis_diag_setup()
    fams = a_special_lattice(setup, 1)
    assert fams[1].degree == 1
    assert fams[1].member_count() == len(fams[1].members) == len(fams[1].provenance) > 0


# ------------------------------------------------ both lattices against brute force

# the last two have non-trivial members at every computed degree
ORACLE_INSTANCES = [
    "smoke-01-gl-q3n3", "smoke-02-heis-diag-c5", "smoke-03-c3-c5-c7", "p2k3-01-gl-q3n3", "p3k3-01-gl-q7n3",
    "p2k3-08-wreath-c5", "p2k3-11-frob21-c5-c5",
]


@pytest.fixture(scope="module", params=ORACLE_INSTANCES)
def oracle_lattice_case(request):
    """A preset setup and its C_G(A_j), computed from dict tables of phi(u)."""
    setup = build_setup(dict(preset_entries(request.param.split("-")[0]))[request.param])
    tables = brute_action_tables(setup.G, [auto.images for auto in setup.basis], setup.p)
    cents = [
        brute_fixed_elements(setup.G, [tables[u] for u in brute_span(setup.p, setup.k, A_j.vectors)])
        for A_j in maximal_subgroups(setup)
    ]
    return setup, cents


@pytest.mark.parametrize(
    "kind, build, max_degree",
    [("a-special", a_special_lattice, 2), ("gamma-a-special", gamma_a_special_lattice, 3)],
)
def test_lattice_matches_brute(oracle_lattice_case, kind, build, max_degree):
    setup, cents = oracle_lattice_case
    families = build(setup, max_degree)
    oracle = brute_special_lattice(cents, kind, max_degree)
    first = 0 if kind == "a-special" else 1
    assert [f.degree for f in families] == list(range(first, max_degree + 1))
    assert len(oracle) == len(families)
    for family, expected in zip(families, oracle):
        assert family.kind == kind
        assert [m.elements() for m in family.members] == [elements for elements, _ in expected], family.degree
        assert list(family.provenance) == [recipe for _, recipe in expected], family.degree


@pytest.mark.parametrize(
    "build, degree, kind",
    [(a_special_lattice, 1, "a-special"), (gamma_a_special_lattice, 2, "gamma-a-special")],
)
def test_lattice_member_ceiling_is_an_error(build, degree, kind):
    # p2k3-08's family of this degree has 3 members: a ceiling of 3 holds them, 2 does not
    setup = build_setup(dict(preset_entries("p2k3"))["p2k3-08-wreath-c5"])
    assert family_at(build(setup, degree, member_ceiling=3), degree).member_count() == 3
    message = f"{kind} degree {degree} would have 3 members (ceiling 2)"
    with pytest.raises(CapacityError, match=re.escape(message)):
        build(setup, degree, member_ceiling=2)
    report = CheckReport(instance="p2k3-08-wreath-c5", mode="derived", params={})
    result = _Recorder(report).run("lattice", lambda: build(setup, degree, member_ceiling=2))
    assert result.status is CheckStatus.ERROR
    assert result.detail == f"CapacityError: {message}"
    assert report.status == "error"


def test_containment_fails_on_a_member_outside_every_parent():
    setup = build_setup(dict(preset_entries("smoke"))["smoke-02-heis-diag-c5"])
    families = a_special_lattice(setup, 1)
    assert check_aspecial_containment(families)
    # G lies in no proper centralizer, and C_G(A_1) not in C_G(A_0)
    broken = dataclasses.replace(families[1], members=(setup.G,))
    assert not check_aspecial_containment([families[0], broken])
    C0, C1 = (fixed_subgroup(setup, A_j) for A_j in maximal_subgroups(setup)[:2])
    parent = dataclasses.replace(families[0], members=(C0,), provenance=(("cent", 0),))
    child = dataclasses.replace(families[1], members=(C1,), provenance=(("cent", 1),))
    assert not check_aspecial_containment([parent, child])
    assert check_aspecial_containment([parent, dataclasses.replace(child, members=(C0,))])


@pytest.mark.parametrize("size", [1, 7, 8, 9, 16, 135])
def test_packed_keys_tell_apart_masks_that_differ_in_one_element(size):
    """Lattice meets are deduplicated by these keys, so no bit may be dropped, the last
    ones included: the empty mask and each one-element mask all get distinct keys."""
    masks = np.vstack([np.zeros(size, dtype=bool), np.eye(size, dtype=bool)])
    keys = _packed_keys(masks)
    assert len(set(keys)) == size + 1
    assert _packed_keys(masks[::-1].copy()) == keys[::-1]


@pytest.mark.parametrize(
    "build, max_degree", [(a_special_lattice, 2), (gamma_a_special_lattice, 3)], ids=["a-special", "gamma"]
)
def test_each_distinct_commutator_subgroup_of_a_degree_meets_the_packed_centralizers_once(
    monkeypatch, build, max_degree
):
    """Every packed block keyed is the centralizers' (once), or packbits(M & C_n) over all n,
    whole, for each distinct M of a degree in the order the steps first give it."""
    setup = build_setup(dict(preset_entries("p2k3"))["p2k3-08-wreath-c5"])
    keyed, row_keys = [], special.row_keys

    def recorded(rows):
        keyed.append(rows.copy())
        return row_keys(rows)

    monkeypatch.setattr(special, "row_keys", recorded)
    families = build(setup, max_degree)
    monkeypatch.undo()
    G = setup.G
    cents = [fixed_subgroup(setup, A_j) for A_j in maximal_subgroups(setup)]
    cent_masks = np.stack([C.mask_over(G) for C in cents])
    expected, steps = [np.packbits(cent_masks, axis=1)], 0
    for family in families[:-1]:
        prev = family.members
        if build is a_special_lattice:
            pairs = [(prev[a], prev[b]) for a in range(len(prev)) for b in range(a, len(prev))]
        else:
            pairs = [(J, C) for J in prev for C in cents]
        distinct = {}
        for H, K in pairs:
            M = commutator_subgroup(H, K, G).mask_over(G)
            distinct.setdefault(M.tobytes(), M)
        steps += len(pairs)
        expected += [np.packbits(M & cent_masks, axis=1) for M in distinct.values()]
    assert steps > len(expected) - 1  # some M repeats within a degree
    assert len(keyed) == len(expected)
    for block, want in zip(keyed, expected):
        assert block.shape == want.shape and (block == want).all()


@pytest.mark.parametrize("instance_id", ["p2k3-08-wreath-c5", "p2k4-03-heis-diag-c5-c7"])
def test_a_set_up_packs_its_centralizers_once_and_builds_each_family_once(monkeypatch, instance_id):
    """The builders, called in the order the lemma, derived and gamma suites call them, pack
    the centralizer block once and run each (kind, degree) family's steps once; every call
    returns the families a fresh set-up builds straight to the top degree, up to its own."""
    preset = instance_id.split("-")[0]
    spec = dict(preset_entries(preset))[instance_id]
    setup = build_setup(spec)
    d, top = max(PRESETS[preset].d, 1), max(setup.k - 2, 1)
    packs, steps = [], []
    packed_keys, commutator = special._packed_keys, special.commutator_subgroup

    def counted(H, K, ambient):
        steps[-1] += 1
        return commutator(H, K, ambient)

    monkeypatch.setattr(special, "_packed_keys", lambda masks: packs.append(len(masks)) or packed_keys(masks))
    monkeypatch.setattr(special, "commutator_subgroup", counted)
    calls = [(a_special_lattice, 0), (gamma_a_special_lattice, 1), (a_special_lattice, d),
             (gamma_a_special_lattice, top), (a_special_lattice, 0)]
    returned = []
    for build, degree in calls:
        steps.append(0)
        returned.append(build(setup, degree))
    monkeypatch.undo()
    assert packs == [len(maximal_subgroups(setup))]

    fresh = build_setup(spec)
    straight = {a_special_lattice: a_special_lattice(fresh, d)}
    straight[gamma_a_special_lattice] = gamma_a_special_lattice(fresh, top)

    def shape(families, G):
        return [(f.kind, f.degree, [m.mask_over(G).tobytes() for m in f.members], f.provenance) for f in families]

    for (build, degree), families in zip(calls, returned):
        first = 0 if build is a_special_lattice else 1
        assert shape(families, setup.G) == shape(straight[build][: degree - first + 1], fresh.G)
    # each degree above the base runs its steps once: n(n+1)/2 pairs, or n times every C_G(A_j)
    cents = len(maximal_subgroups(setup))
    a_steps = [f.member_count() * (f.member_count() + 1) // 2 for f in straight[a_special_lattice][:-1]]
    gamma_steps = [f.member_count() * cents for f in straight[gamma_a_special_lattice][:-1]]
    assert steps == [0, 0, sum(a_steps), sum(gamma_steps), 0]
    assert sum(steps) > 0
    # both kinds start from one base, and the families live on the set-up
    assert returned[0][0].members == returned[1][0].members
    assert all(x is y for x, y in zip(returned[0][0].members, returned[1][0].members))
    assert setup._lattices["a-special"] == returned[2] and setup._lattices["gamma-a-special"] == returned[3]
