"""Tests for permutations, groups, subgroup operations, and abelian sections."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprime_lab.errors import (
    CapacityError,
    ContainmentError,
    InternalCheckError,
    PreconditionError,
    ValidationError,
)
from coprime_lab import groups
from coprime_lab.fastset import RowIndex, rows_of
from coprime_lab.groups import (
    Group,
    abelian_section,
    commutator_subgroup,
    group_from_generators,
    intersection,
    is_member,
    normal_closure,
    sylow_subgroup,
)
from coprime_lab.instances import build_setup, preset_entries
from coprime_lab.perms import Perm

from bruteforce import (
    brute_center,
    brute_commutator_subgroup,
    mulclose,
)
from support import center


def heisenberg27_gens():
    t = Perm.from_cycles(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))
    v = Perm.from_cycles(9, (0, 1, 2), (3, 5, 4))
    return [t, v]


def wreath81_gens():
    t = Perm.from_cycles(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))
    u0 = Perm.from_cycles(9, (0, 1, 2))
    return [t, u0]


# ---------------------------------------------------------------- perms


def test_perm_validation_rejects_repeats():
    with pytest.raises(ValidationError):
        Perm([0, 0, 2])


def test_perm_composition_order():
    p = Perm([1, 0, 2])
    q = Perm([0, 2, 1])
    assert (p * q).images == (2, 0, 1)  # apply p, then q


@st.composite
def perms(draw, degree=6):
    images = draw(st.permutations(range(degree)))
    return Perm(images)


@given(perms(), perms(), perms())
@settings(max_examples=60, deadline=None)
def test_perm_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(perms())
@settings(max_examples=60, deadline=None)
def test_perm_inverse_roundtrip(p):
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()
    assert p ** p.order() == Perm.identity(p.degree)


def test_from_cycles_rejects_overlap():
    with pytest.raises(ValidationError):
        Perm.from_cycles(4, (0, 1), (1, 2))


# ---------------------------------------------------------------- groups


def test_trivial_group_from_empty_gens():
    G = group_from_generators(3, [])
    assert G.order == 1
    assert is_member(G, Perm.identity(3))


def test_cyclic_group_of_order_three():
    G = group_from_generators(3, [Perm([1, 2, 0])])
    assert G.order == 3
    assert not is_member(G, Perm([1, 0, 2]))


def test_degree_zero_rejected():
    with pytest.raises(ValidationError):
        Group(0, [])


def test_heisenberg27_order_matches_brute_closure():
    gens = heisenberg27_gens()
    G = group_from_generators(9, gens)
    closure = mulclose(gens)
    assert G.order == len(closure) == 27
    assert G.elements() == frozenset(closure)


def test_wreath81_order():
    gens = wreath81_gens()
    G = group_from_generators(9, gens)
    assert G.order == len(mulclose(gens)) == 81


def test_membership_agrees_with_enumeration_on_random_words():
    gens = wreath81_gens()
    G = group_from_generators(9, gens)
    els = G.elements()
    rng = random.Random(7)
    for _ in range(1000):
        w = Perm.identity(9)
        for _ in range(rng.randint(1, 6)):
            w = w * rng.choice(gens)
        assert G.contains(w) and (w in els)
    # and a non-member
    odd = Perm([1, 0, 2, 3, 4, 5, 6, 7, 8])
    assert not G.contains(odd)


def test_degree_mismatch_membership_raises():
    G = group_from_generators(3, [Perm([1, 2, 0])])
    with pytest.raises(ValidationError):
        is_member(G, Perm.identity(4))


def _random_generating_sets():
    """25 seeded (degree, generators) pairs of degree 2..7 with 1..3 generators."""
    rng = random.Random(11)
    for _ in range(25):
        deg = rng.randint(2, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(deg))
            rng.shuffle(images)
            gens.append(Perm(images))
        yield deg, gens


def test_enumeration_orders_on_random_groups():
    # A4 from (0 1 2) and (1 2 3): neither generator alone reaches every point
    a4 = group_from_generators(4, [Perm.from_cycles(4, (0, 1, 2)), Perm.from_cycles(4, (1, 2, 3))])
    assert a4.order == 12
    for deg, gens in _random_generating_sets():
        G = group_from_generators(deg, gens)
        assert G.order == len(mulclose(gens)) if gens else G.order == 1
        assert G.elements() == frozenset(mulclose(gens))


def _enumeration_cases():
    cases = [(4, [Perm.from_cycles(4, (0, 1, 2)), Perm.from_cycles(4, (1, 2, 3))])]
    cases += list(_random_generating_sets())
    cases += [(G.degree, list(G.generators)) for G in (build_setup(s).G for _, s in preset_entries("smoke"))]
    return cases


def test_enumeration_matches_closure_oracle():
    """Enumeration from generators against plain closure: order, sorted elements, membership
    both ways on random permutations, and deterministic random elements."""
    rng = random.Random(5)
    non_members = 0
    for degree, gens in _enumeration_cases():
        closure = mulclose(gens)
        G = group_from_generators(degree, gens)
        assert G.order == len(closure) == len(G.row_index())
        assert G.sorted_elements() == sorted(closure)
        assert all(G.contains(x) for x in closure)
        for _ in range(50):
            images = list(range(degree))
            rng.shuffle(images)
            x = Perm(images)
            assert G.contains(x) == (x in closure)
            non_members += x not in closure
        draws = [G.random_element(random.Random(3)) for _ in range(2)]
        stream, again = random.Random(8), random.Random(8)
        xs = [G.random_element(stream) for _ in range(10)]
        assert draws[0] == draws[1] and xs == [G.random_element(again) for _ in range(10)]
        assert all(x in closure for x in xs)
    assert non_members > 0


def test_enumerated_rows_do_not_depend_on_the_generating_set():
    """Reordered generators, and the identity or a redundant product added, give the same rows."""
    for degree, gens in _enumeration_cases():
        rows = group_from_generators(degree, gens).row_index().rows
        product = gens[0] * gens[-1] if gens else Perm.identity(degree)
        for variant in (gens[::-1], [Perm.identity(degree), *gens], [*gens, product], [product, *gens[1:], *gens]):
            assert np.array_equal(group_from_generators(degree, variant).row_index().rows, rows)


def test_random_element_is_member_and_deterministic():
    G = group_from_generators(9, wreath81_gens())
    rng = random.Random(3)
    xs = [G.random_element(rng) for _ in range(20)]
    assert all(G.contains(x) for x in xs)
    rng2 = random.Random(3)
    assert xs == [G.random_element(rng2) for _ in range(20)]


def test_an_enumeration_that_repeats_an_element_raises(monkeypatch):
    """Sorted rows that list one element twice, and so miss another, are refused when the
    index over them is built, given directly or enumerated from generators."""
    G = group_from_generators(9, heisenberg27_gens())
    index = G.row_index()
    rows = index.rows.copy()
    rows[-1] = rows[-2]
    translates = np.stack([index.right(g) for g in index.gens.tolist()])
    with pytest.raises(InternalCheckError, match="twice"):
        RowIndex(rows, rows_of(G.generators, 9), translates, index.tree)
    enumerate_ = groups._enumerate

    def repeating(*args):
        rows, translates, tree = enumerate_(*args)
        rows[-1] = rows[-2]
        return rows, translates, tree

    monkeypatch.setattr(groups, "_enumerate", repeating)
    with pytest.raises(InternalCheckError, match="twice"):
        group_from_generators(9, heisenberg27_gens()).row_index()


def test_a_recorded_translate_that_is_not_its_generators_raises(monkeypatch):
    """The index confirms every recorded generator translate row for row: one with two
    entries swapped, in the last of several blocks of rows, or one filed under the next
    generator, is refused, given directly or recorded by enumeration."""
    degree = 2048
    G = group_from_generators(degree, [Perm.from_cycles(degree, tuple(range(degree)))])
    index = G.row_index()
    swapped = index.right(int(index.gens[0]))[None, :].copy()
    swapped[0, [-1, -2]] = swapped[0, [-2, -1]]
    with pytest.raises(InternalCheckError, match="recorded translate"):
        RowIndex(index.rows, rows_of(G.generators, degree), swapped, index.tree)
    enumerate_ = groups._enumerate

    def rolled(*args):
        rows, translates, tree = enumerate_(*args)
        return rows, np.roll(translates, 1, axis=0), tree

    monkeypatch.setattr(groups, "_enumerate", rolled)
    with pytest.raises(InternalCheckError, match="recorded translate"):
        group_from_generators(9, heisenberg27_gens()).row_index()


def test_root_answers_from_its_index():
    G = group_from_generators(9, wreath81_gens())
    outside = Perm([1, 0, 2, 3, 4, 5, 6, 7, 8])
    assert G._rows is None and not G.contains(outside)
    index = G.row_index()
    assert G.order == len(index) == 81 and G._mask.all()
    assert all(G.contains(x) for x in G.sorted_elements()) and not G.contains(outside)
    assert G.sorted_elements() is not G.sorted_elements()
    assert G.elements() == frozenset(G.sorted_elements()) and G.elements() is not G.elements()


def test_enumeration_cap_enforced():
    G = group_from_generators(9, wreath81_gens(), cap=50)
    with pytest.raises(CapacityError, match="^group order exceeds the enumeration cap 50$"):
        G.elements()


def test_enumeration_cap_is_the_largest_order_allowed():
    assert group_from_generators(9, wreath81_gens(), cap=81).order == 81
    with pytest.raises(CapacityError, match="cap 80$"):
        group_from_generators(9, wreath81_gens(), cap=80).order
    assert group_from_generators(3, [], cap=1).order == 1
    with pytest.raises(CapacityError, match="cap 2$"):
        group_from_generators(3, [Perm([1, 2, 0])], cap=2).order


def test_enumeration_cap_env_override(monkeypatch):
    monkeypatch.setenv("COPRIME_LAB_CAP", "40")
    G = group_from_generators(9, wreath81_gens())
    assert G.cap == 40
    with pytest.raises(CapacityError):
        G.elements()


def test_symmetric_group_over_the_default_cap_is_refused_in_bounded_memory(monkeypatch):
    """S_12 from a transposition and a 12-cycle: the cap is checked as rows are found, so
    the refusal holds at most the cap's worth of rows and one batch of candidates."""
    monkeypatch.delenv("COPRIME_LAB_CAP", raising=False)
    G = group_from_generators(12, [Perm.from_cycles(12, (0, 1)), Perm.from_cycles(12, tuple(range(12)))])
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="cap 200000$"):
            G.row_index()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# ------------------------------------------------- commutators / closures


def test_commutator_subgroup_abelian_trivial():
    G = group_from_generators(6, [Perm.from_cycles(6, (0, 1, 2)), Perm.from_cycles(6, (3, 4, 5))])
    D = commutator_subgroup(G, G, G)
    assert D.is_trivial


def test_commutator_subgroup_heisenberg_is_center():
    G = group_from_generators(9, heisenberg27_gens())
    D = commutator_subgroup(G, G, G)
    oracle = brute_commutator_subgroup(G.elements(), G.elements())
    assert D.elements() == frozenset(oracle)
    assert D.order == 3
    assert D.same_subgroup(center(G))
    # central subgroup commutes with everything
    assert commutator_subgroup(G, D, G).is_trivial


def test_commutator_subgroup_symmetric_in_arguments():
    G = group_from_generators(9, wreath81_gens())
    H = group_from_generators(9, [wreath81_gens()[0]])
    left = commutator_subgroup(H, G, G)
    right = commutator_subgroup(G, H, G)
    assert left.same_subgroup(right)


def test_commutator_subgroup_containment_error():
    G = group_from_generators(3, [Perm([1, 2, 0])])
    H = group_from_generators(3, [Perm([1, 0, 2])])
    with pytest.raises(ContainmentError):
        commutator_subgroup(H, G, G)


def test_normal_closure_three_cycle_in_a4():
    a4 = group_from_generators(4, [Perm.from_cycles(4, (0, 1, 2)), Perm.from_cycles(4, (1, 2, 3))])
    assert a4.order == 12
    N = normal_closure([Perm.from_cycles(4, (0, 1, 2))], a4)
    # conjugation orbit of a 3-cycle generates all of A4
    oracle = mulclose(sorted({x.inverse() * Perm.from_cycles(4, (0, 1, 2)) * x for x in a4.elements()}))
    assert N.order == len(oracle) == 12


def test_normal_closure_of_identity_trivial():
    G = group_from_generators(9, heisenberg27_gens())
    assert normal_closure([Perm.identity(9)], G).is_trivial


def test_normal_closure_of_central_generator_is_center():
    G = group_from_generators(9, heisenberg27_gens())
    z = next(iter(center(G).generators))
    N = normal_closure([z], G)
    assert N.same_subgroup(center(G))


def test_derived_quotient_is_abelian():
    G = group_from_generators(9, wreath81_gens())
    D = commutator_subgroup(G, G, G)
    assert D.is_normal_in(G)
    section = abelian_section(G, D)  # must not raise
    assert section.quotient_order == G.order // D.order


def test_intersection_and_center_against_brute():
    G = group_from_generators(9, heisenberg27_gens())
    Z = center(G)
    assert Z.elements() == frozenset(brute_center(G.elements()))
    t = heisenberg27_gens()[0]
    H = group_from_generators(9, [t])
    assert intersection(G, H).same_subgroup(H)


def test_intersection_across_roots_matches_brute_element_sets():
    """Groups of different roots where neither contains the other: the meet, either way
    round, is the brute intersection and lies in both."""
    def on(degree, *cycles):
        return [Perm.from_cycles(degree, *c) for c in cycles]

    groups_ = [
        on(5, [(0, 1, 2, 3)], [(0, 2)]),  # D4
        on(5, [(0, 1, 2)], [(0, 1)]),  # S3 on 0..2, meets D4 in <(0 2)>
        on(5, [(0, 1), (2, 3, 4)]),  # C6, meets S3 in <(0 1)>
        on(5, [(0, 1, 2, 3, 4)]),  # C5
        on(5, [(0, 1), (2, 3)], [(0, 2), (1, 3)]),  # V4, inside D4
    ]
    rng = random.Random(11)
    points = list(range(6))
    for _ in range(8):
        gens = []
        for _ in range(2):
            rng.shuffle(points)
            gens.append(Perm.from_cycles(6, tuple(points[:rng.choice([2, 3])])))
        groups_.append(gens)
    crossed = 0
    for hg, kg in itertools.combinations(groups_, 2):
        if hg[0].degree != kg[0].degree:
            continue
        expected = mulclose(hg) & mulclose(kg)
        if expected in (mulclose(hg), mulclose(kg)):
            continue
        H, K = group_from_generators(hg[0].degree, hg), group_from_generators(kg[0].degree, kg)
        for meet in (intersection(H, K), intersection(K, H)):
            assert meet.elements() == expected
            assert meet.is_subgroup_of(H) and meet.is_subgroup_of(K)
        crossed += len(expected) > 1
    assert crossed


def test_sylow_subgroup_orders():
    # S3 x C5 on 8 points: order 30
    gens = [Perm.from_cycles(8, (0, 1, 2)), Perm.from_cycles(8, (0, 1)), Perm.from_cycles(8, (3, 4, 5, 6, 7))]
    G = group_from_generators(8, gens)
    assert G.order == 30
    assert sylow_subgroup(G, 2).order == 2
    assert sylow_subgroup(G, 3).order == 3
    assert sylow_subgroup(G, 5).order == 5
    assert sylow_subgroup(G, 7).order == 1
    # C9 x C2 on 11 points: the Sylow 3-subgroup is cyclic of order 9, so
    # the elements of order 3 alone do not generate it
    C = group_from_generators(11, [Perm.from_cycles(11, tuple(range(9))), Perm.from_cycles(11, (9, 10))])
    assert sylow_subgroup(C, 3).order == 9


# ---------------------------------------------------------------- sections


def test_abelian_section_numerator_equals_denominator():
    G = group_from_generators(9, heisenberg27_gens())
    section = abelian_section(G, G)
    assert section.rank == 0
    assert section.quotient_order == 1


def test_abelian_section_cyclic_nine():
    G = group_from_generators(9, [Perm.from_cycles(9, tuple(range(9)))])
    section = abelian_section(G, Group.trivial(9))
    assert section.orders == (9,)


def test_abelian_section_heisenberg_over_center():
    G = group_from_generators(9, heisenberg27_gens())
    section = abelian_section(G, center(G))
    assert sorted(section.orders) == [3, 3]


def test_abelian_section_roundtrip():
    G = group_from_generators(9, wreath81_gens())
    D = commutator_subgroup(G, G, G)
    section = abelian_section(G, D)
    den = D.elements()
    for x in sorted(G.elements())[::7]:
        vec = section.decompose(x)
        rep = section.compose(vec)
        assert (rep.inverse() * x) in den


def test_abelian_section_rejects_nonabelian_quotient():
    G = group_from_generators(9, heisenberg27_gens())
    with pytest.raises(PreconditionError):
        abelian_section(G, Group.trivial(9))


def test_abelian_section_mixed_orders():
    # C6 x C2 as permutation group
    gens = [Perm.from_cycles(8, tuple(range(6))), Perm.from_cycles(8, (6, 7))]
    G = group_from_generators(8, gens)
    section = abelian_section(G, Group.trivial(8))
    assert section.quotient_order == 12
    assert sorted(section.orders) in ([2, 6], [6, 2])
