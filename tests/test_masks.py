"""Subgroups of an enumerated group as masks over its index, with the same generators, and
the index as the group's one element store."""

import random
import tracemalloc

import numpy as np
import pytest

from coprime_lab import groups, harness
from coprime_lab.action import Automorphism, all_subspaces, fixed_subgroup, maximal_subgroups, validate_setup
from coprime_lab.errors import ContainmentError, InternalCheckError, ValidationError
from coprime_lab.groups import (
    Group, commutator_subgroup, generated_in, generated_subgroup, group_from_generators, normal_closure, sylow_subgroup,
)
from coprime_lab.harness import InstanceContext, lemma_report, verify_derived_theorem, verify_gamma_theorem
from coprime_lab.instances import PRESETS, build_setup, preset_entries
from coprime_lab.perms import Perm
from coprime_lab.series import derived_series, lower_central_series

from bruteforce import (
    CayleyTable, brute_action_tables, brute_commutator_subgroup, brute_fixed_elements, brute_span, mulclose,
)
from support import block_group, product_group

SMOKE = ["smoke-01-gl-q3n3", "smoke-02-heis-diag-c5", "smoke-03-c3-c5-c7"]
LEMMA_PRESETS = [
    "p2k3-06-c3swap-heis-c5", "p2k4-07-frob21-c5-c11", "p3k3-07-c7-c7-c13", "p3k3-08-c7-mixed",
]


def preset_setup(instance_id):
    return build_setup(dict(preset_entries(instance_id.split("-")[0]))[instance_id])


def test_theorem_suites_enumerate_no_group_once_g_and_its_tables_exist(monkeypatch):
    setup = preset_setup("p2k3-08-wreath-c5")
    assert validate_setup(setup).ok  # enumerates G and builds every basis table
    builds = []
    original = groups._enumerate

    def counted(degree, generators, cap):
        builds.append(degree)
        return original(degree, generators, cap)

    monkeypatch.setattr(groups, "_enumerate", counted)
    derived = verify_derived_theorem(setup, PRESETS["p2k3"].d)
    gamma = verify_gamma_theorem(setup)
    assert derived.status == gamma.status == "pass"
    assert builds == []


def test_an_enumerated_root_holds_its_rows_and_few_perms(monkeypatch):
    """heisenberg27 x c5 x c7 x c11, |G| = 10,395: enumeration makes no Perm per element, and
    the root then holds its rows (0.6 MB), its generators' translates and its tree (1.1 MB in
    all); it made 12,829 Perms and held 4.5 MB while a sorted Perm list was kept beside the rows."""
    product = product_group([block_group(name) for name in ("heisenberg27", "c5", "c7", "c11")])
    made = []
    raw, init = Perm._raw.__func__, Perm.__init__

    def counted_raw(cls, images):
        made.append(1)
        return raw(cls, images)

    def counted_init(self, images):
        made.append(1)
        init(self, images)

    monkeypatch.setattr(Perm, "_raw", classmethod(counted_raw))
    monkeypatch.setattr(Perm, "__init__", counted_init)
    tracemalloc.start()
    try:
        G = Group(product.degree, product.generators)
        index = G.row_index()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(index) == 10_395 and index.rows.nbytes < 0.7 * 2**20
    assert len(made) < 100
    assert held < 1.5 * 2**20


@pytest.mark.parametrize("instance_id", SMOKE)
def test_set_up_and_every_suite_keep_one_element_store(instance_id, monkeypatch):
    """Set-up, the lemma suite and both theorem suites never build an element set: the root's
    row index is the one element store."""
    asked, original = [], groups.Group.elements

    def elements(group):
        asked.append(group)
        return original(group)

    monkeypatch.setattr(groups.Group, "elements", elements)
    setup = preset_setup(instance_id)
    assert validate_setup(setup).ok
    assert setup.G._root is None and setup.G._rows is not None
    assert lemma_report(InstanceContext(setup, instance_id)).status == "pass"
    assert verify_derived_theorem(setup, PRESETS["smoke"].d).status == "pass"
    assert verify_gamma_theorem(setup).status == "pass"
    assert asked == []


def strangers(G, count, seed):
    """Permutations of G's degree that lie outside G."""
    rng, members, out = random.Random(seed), set(G.sorted_elements()), []
    while len(out) < count:
        images = list(range(G.degree))
        rng.shuffle(images)
        if Perm(images) not in members:
            out.append(Perm(images))
    return out


def assert_contains_matches(H, expected, G):
    """H.contains agrees with the element set ``expected`` on all of G and on permutations outside G."""
    for x in G.sorted_elements() + strangers(G, 20, H.order):
        assert H.contains(x) == (x in expected), x
    with pytest.raises(ValidationError):
        H.contains(Perm.identity(G.degree + 1))


@pytest.mark.parametrize("instance_id", SMOKE)
def test_contains_on_mask_subgroups_matches_brute_element_sets(instance_id):
    setup = preset_setup(instance_id)
    G = setup.G
    tables = brute_action_tables(G, [auto.images for auto in setup.basis], setup.p)
    fixed = []
    for B in all_subspaces(setup.p, setup.k):
        expected = brute_fixed_elements(G, [tables[u] for u in brute_span(setup.p, setup.k, B.vectors)])
        C = fixed_subgroup(setup, B)
        assert C._mask is not None and C._root is G
        assert_contains_matches(C, expected, G)
        fixed.append((C, expected))
    every = set(G.sorted_elements())
    pairs = [(G, every, G, every)] + [(*fixed[i], *fixed[-1 - i]) for i in range(min(3, len(fixed)))]
    for H, h_elements, K, k_elements in pairs:
        assert_contains_matches(commutator_subgroup(H, K, G), brute_commutator_subgroup(h_elements, k_elements), G)


def test_normal_closure_raises_when_a_grown_span_misses_its_generator(monkeypatch):
    """An _extend that returns its mask unchanged would re-queue the same conjugates forever."""
    G = group_from_generators(9, [
        Perm.from_cycles(9, (0, 3, 6), (1, 4, 7), (2, 5, 8)), Perm.from_cycles(9, (0, 1, 2), (3, 5, 4)),
    ])
    monkeypatch.setattr(groups, "_extend", lambda index, mask, at, g: mask)
    with pytest.raises(InternalCheckError, match="new generator"):
        normal_closure([G.generators[0]], G)


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
    """Each centralizer's generators are the greedy picks, both as ``fixed_subgroup`` finds
    them and from the brute fixed elements' mask over a fresh root, with an empty memo."""
    setup = preset_setup(instance_id)
    tables = brute_action_tables(setup.G, [auto.images for auto in setup.basis], setup.p)
    fresh = group_from_generators(setup.G.degree, setup.G.generators)
    for B in all_subspaces(setup.p, setup.k):
        C = fixed_subgroup(setup, B)
        expected = greedy_generators(C.elements())
        assert C.generators == expected, B
        brute = brute_fixed_elements(setup.G, [tables[u] for u in brute_span(setup.p, setup.k, B.vectors)])
        assert Group.from_mask(fresh, mask_of(fresh.row_index(), brute)).generators == expected, B


def test_generated_in_keeps_to_the_ambient_group():
    setup = preset_setup("smoke-02-heis-diag-c5")
    C = fixed_subgroup(setup, maximal_subgroups(setup)[0])
    outside = next(x for x in setup.G.sorted_elements() if not C.contains(x))
    with pytest.raises(ContainmentError):
        generated_in(C, [outside])
    H = generated_in(setup.G, [outside, outside, Perm.identity(setup.G.degree)])
    assert H.generators == (outside,) and H.contains(outside) and H.is_subgroup_of(setup.G)


def test_a_perm_of_another_degree_lies_outside_the_group_at_every_entry_point():
    """positions gives -1 for a Perm of another degree, so generated_in, normal_closure and
    Automorphism.apply refuse it, like an element of the right degree outside the group,
    with ContainmentError."""
    rotate, flip = Perm([1, 2, 0]), Perm([1, 0, 2])
    C3 = group_from_generators(3, [rotate])
    index = C3.row_index()
    longer, shorter = Perm([1, 0, 2, 3]), Perm([1, 0])
    at = int(index.gens[0])
    assert index.positions([rotate, longer, flip, shorter, rotate]).tolist() == [at, -1, -1, -1, at]
    assert index.positions([]).tolist() == []
    square = Automorphism(C3, {rotate: rotate * rotate})
    assert square.apply(rotate) == rotate * rotate
    for stranger in (longer, shorter, flip):
        with pytest.raises(ContainmentError):
            generated_in(C3, [rotate, stranger])
        with pytest.raises(ContainmentError):
            normal_closure([stranger], C3)
        with pytest.raises(ContainmentError):
            square.apply(stranger)


@pytest.mark.parametrize("instance_id", SMOKE + LEMMA_PRESETS)
def test_generated_in_keeps_an_irredundant_subsequence_of_orbit_unions(instance_id, monkeypatch):
    """The unions of A-orbits that random_invariant_subgroups hands, as sorted indices,
    to the index-level routine behind generated_in, redundant elements and all: the
    subgroup is the brute closure of every given element, and each kept generator lies
    outside the closure of those before it."""
    setup = preset_setup(instance_id)
    calls = []

    def recorded(ambient, at):
        calls.append((ambient.row_index().perms(at), groups._generated(ambient, at)))
        return calls[-1][1]

    monkeypatch.setattr(harness, "_generated", recorded)
    for seed in range(4):
        harness.random_invariant_subgroups(setup, seed=seed)
    table = CayleyTable(list(setup.G.generators))
    for gens, H in calls:
        assert H.elements() == table.perms(table.closure(table.indices(gens)))
        remaining = iter(gens)
        assert all(any(x == g for x in remaining) for g in H.generators)
        before = {Perm.identity(setup.G.degree)}
        for i, g in enumerate(H.generators):
            assert g not in before
            before = table.perms(table.closure(table.indices(H.generators[: i + 1])))
        assert 2 ** len(H.generators) <= H.order
    assert max(len(gens) for gens, _ in calls) > max(len(H.generators) for _, H in calls)


def test_a_set_that_is_not_closed_raises():
    s3 = group_from_generators(3, [Perm.from_cycles(3, (0, 1)), Perm.from_cycles(3, (0, 1, 2))])
    ident, flip, rotate = Perm.identity(3), Perm.from_cycles(3, (0, 1)), Perm.from_cycles(3, (0, 1, 2))
    index = s3.row_index()
    for elements in ([ident, rotate], [flip, rotate], [ident, flip, rotate], [rotate * rotate], []):
        with pytest.raises(ValidationError, match="not closed"):
            Group.from_mask(s3, mask_of(index, elements))
    assert Group.from_mask(s3, mask_of(index, [ident, rotate, rotate * rotate])).order == 3


def mask_of(index, elements):
    mask = np.zeros(len(index), dtype=bool)
    mask[index.positions(list(elements))] = True
    return mask


@pytest.mark.parametrize("instance_id", SMOKE + LEMMA_PRESETS)
def test_extend_matches_the_brute_closure_on_every_prefix_of_the_picks(instance_id):
    """For each prefix of G's picks, with S its brute span, <S, g> grown coset by coset
    equals the brute closure of the prefix and g, for sampled g inside and outside S."""
    G = preset_setup(instance_id).G
    index = G.row_index()
    table = CayleyTable(list(G.generators))
    picks = groups._picks(index, np.ones(len(index), dtype=bool))
    elements = G.sorted_elements()
    rng = np.random.default_rng(12)
    for n in range(len(picks) + 1):
        at = picks[:n]
        S = mask_of(index, table.perms(table.closure(table.indices([elements[i] for i in [index.identity] + at]))))
        inside, outside = np.flatnonzero(S), np.flatnonzero(~S)
        sample = [index.identity, int(rng.choice(inside))]
        sample += rng.choice(outside, size=min(4, outside.size), replace=False).tolist()
        for g in sample:
            gens = [elements[i] for i in at + [g]]
            expected = mask_of(index, table.perms(table.closure(table.indices(gens))))
            assert np.array_equal(groups._extend(index, S, at, g), expected), (at, g)


def test_extend_from_the_trivial_subgroup_is_the_cyclic_subgroup():
    G = preset_setup("p3k3-07-c7-c7-c13").G
    index = G.row_index()
    for x in G.sorted_elements():
        if x.order() >= 7:
            cyclic = mask_of(index, mulclose([x]))
            assert np.array_equal(groups._extend(index, index.unit(), [], int(index.positions([x])[0])), cyclic)
    assert max(x.order() for x in G.sorted_elements()) == 91


def test_extend_over_many_cosets_of_a_small_subgroup():
    """heisenberg27 x c5 x c7 x c11, S = <t> of order 3 and g = v * (the cyclic generators):
    <S, g> is the whole group, 3,465 cosets of S, three times the 1,159 breadth-first
    rounds that reach every element from the identity under t and g."""
    t = Perm.from_cycles(32, (0, 3, 6), (1, 4, 7), (2, 5, 8))
    v = Perm.from_cycles(32, (0, 1, 2), (3, 5, 4))
    cyclic = Perm.from_cycles(32, tuple(range(9, 14)), tuple(range(14, 21)), tuple(range(21, 32)))
    G = group_from_generators(32, [t, v, cyclic])
    index = G.row_index()
    S = mask_of(index, mulclose([t]))
    g = v * cyclic
    expected = mask_of(index, mulclose([t, g]))
    assert np.count_nonzero(expected) == len(index) == 27 * 5 * 7 * 11
    assert np.array_equal(groups._extend(index, S, index.positions([t]).tolist(), int(index.positions([g])[0])), expected)


def test_is_subgroup_of_reads_the_masks_unless_the_other_group_is_the_root():
    setup = preset_setup("smoke-02-heis-diag-c5")
    G = setup.G
    C = [fixed_subgroup(setup, A_j) for A_j in maximal_subgroups(setup)]
    assert [H.order for H in C[:3]] == [5, 3, 1]
    assert not C[0].is_subgroup_of(C[1]) and not C[1].is_subgroup_of(C[0])
    assert C[2].is_subgroup_of(C[0]) and C[2].is_subgroup_of(C[1])
    assert all(H.is_subgroup_of(G) for H in C) and G.is_subgroup_of(G)
    assert not G.is_subgroup_of(C[0])
    # groups of their own roots are compared through generators, both ways
    own_c0, own_g = Group(G.degree, C[0].generators), Group(G.degree, G.generators)
    assert own_c0.is_subgroup_of(G) and own_c0.is_subgroup_of(C[0]) and not own_c0.is_subgroup_of(C[1])
    assert own_g.is_subgroup_of(G) and not own_g.is_subgroup_of(C[0])
    assert C[0].is_subgroup_of(own_c0) and not C[1].is_subgroup_of(own_c0) and G.is_subgroup_of(own_g)


def test_a_commutator_subgroup_refuses_a_factor_outside_its_ambient_subgroup():
    setup = preset_setup("smoke-02-heis-diag-c5")
    C0, C1 = [fixed_subgroup(setup, A_j) for A_j in maximal_subgroups(setup)[:2]]
    with pytest.raises(ContainmentError, match="H is not a subgroup"):
        commutator_subgroup(C1, C0, C0)
    with pytest.raises(ContainmentError, match="K is not a subgroup"):
        commutator_subgroup(C0, setup.G, C0)
    assert commutator_subgroup(C0, C0, C0).is_trivial


def relation_groups():
    """p2k3-11's root G and its distinct centralizers, series terms and Sylow subgroups, all
    over G's index, followed by each of them rebuilt as its own root."""
    setup = preset_setup("p2k3-11-frob21-c5-c5")
    G = setup.G
    found = [G, *(fixed_subgroup(setup, B) for B in all_subspaces(setup.p, setup.k))]
    found += [*derived_series(G).terms, *lower_central_series(G).terms, *(sylow_subgroup(G, r) for r in (3, 5, 7))]
    distinct = list({H.mask_over(G).tobytes(): H for H in found}.values())
    return G, distinct + [Group(G.degree, H.generators) for H in distinct]


def closure(H: Group) -> frozenset:
    return frozenset(mulclose(list(H.generators))) or frozenset({Perm.identity(H.degree)})


def test_relations_within_and_across_roots_agree_with_element_sets():
    """|G| = 525, with the normal Sylow 7-subgroup of frob21 and non-normal centralizers and
    Sylow 3-subgroups: each relation read over one root's index, for every pair of groups of
    the same or of different roots, against the brute element sets.  A group that the other
    normalizes but that does not lie in it is not normal in it."""
    G, found = relation_groups()
    n = len(found) // 2
    sets = [closure(H) for H in found[:n]]
    normalizes = {
        (i, j): all(g.inverse() * x * g in sets[i] for g in found[j].generators for x in sets[i])
        for i in range(n) for j in range(n)
    }
    cases = {"normal": 0, "subgroup, not normal": 0, "normalized, not a subgroup": 0}
    for a, H in enumerate(found):
        for b, K in enumerate(found):
            h, k, normalized = sets[a % n], sets[b % n], normalizes[a % n, b % n]
            assert H.is_subgroup_of(K) == (h <= k), (a, b)
            assert H.same_subgroup(K) == (h == k), (a, b)
            assert H.is_normal_in(K) == (h <= k and normalized), (a, b)
            if h <= k:
                cases["normal" if normalized else "subgroup, not normal"] += 1
            elif normalized:
                cases["normalized, not a subgroup"] += 1
    assert n >= 10 and all(cases.values()), cases


def test_generated_subgroup_grows_its_parts_over_the_ambient_root_and_refuses_one_outside():
    G, found = relation_groups()
    n = len(found) // 2
    for ambient in (G, found[n], found[1]):
        trivial = generated_subgroup(ambient, [])
        assert trivial.is_trivial and trivial._root is ambient._frame()[0] and trivial.is_subgroup_of(ambient)
    sylows = {H.order: H for H in found[:n] if H.order in (3, 25, 7)}
    for parts in ([sylows[3], sylows[7]], [found[n + 1], sylows[25]], [sylows[25], found[-1]]):
        generated = generated_subgroup(G, parts)
        assert generated._root is G
        assert generated.elements() == closure(Group(G.degree, [g for part in parts for g in part.generators]))
    own_s3 = Group(G.degree, sylows[3].generators)
    other_degree = Group(G.degree + 1, [Perm.from_cycles(G.degree + 1, (0, G.degree))])
    for outside in (sylows[3], own_s3, G, other_degree):
        with pytest.raises(ContainmentError, match="outside the ambient group"):
            generated_subgroup(sylows[7], [sylows[7], outside])
    assert generated_subgroup(own_s3, [sylows[3]]).same_subgroup(own_s3)


def test_a_built_group_mask_is_read_only_and_its_order_is_counted_once(monkeypatch):
    setup = preset_setup("smoke-02-heis-diag-c5")
    G = setup.G
    C0 = fixed_subgroup(setup, maximal_subgroups(setup)[0])
    built = [
        G, C0, Group(G.degree, C0.generators), generated_in(G, C0.generators), sylow_subgroup(G, 3),
        commutator_subgroup(G, G, G), generated_subgroup(G, [C0]), normal_closure(C0.generators, G),
        Group.from_mask(G, C0.mask_over(G).copy()),
    ]
    for H in built:
        mask = H._frame()[1]
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0] = not mask[0]
        assert H.order == len(H.sorted_elements())
    counted = []
    count_nonzero = np.count_nonzero
    monkeypatch.setattr(np, "count_nonzero", lambda a: counted.append(1) or count_nonzero(a))
    assert [H.order for H in built] == [135, 5, 5, 5, 27, 3, 5, 5, 5] and counted == []
