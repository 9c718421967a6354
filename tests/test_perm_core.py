"""Tests for permutations, groups, subgroup operations, and abelian sections."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprime_lab.errors import (
    CapacityError,
    ContainmentError,
    PreconditionError,
    ValidationError,
)
from coprime_lab.groups import (
    Group,
    _Chain,
    abelian_section,
    center,
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


def test_chain_orders_on_random_groups():
    # late generators that fix earlier base points must still grow the
    # shallower orbits (regression: A4 from (0 1 2) and (1 2 3))
    a4 = group_from_generators(4, [Perm.from_cycles(4, (0, 1, 2)), Perm.from_cycles(4, (1, 2, 3))])
    assert a4.order == 12
    for deg, gens in _random_generating_sets():
        G = group_from_generators(deg, gens)
        assert G.order == len(mulclose(gens)) if gens else G.order == 1
        assert G.elements() == frozenset(mulclose(gens))


def test_chain_matches_closure_oracle():
    """A bare chain against plain closure: order, levels, membership both ways, enumeration, random elements."""
    cases = [(4, [Perm.from_cycles(4, (0, 1, 2)), Perm.from_cycles(4, (1, 2, 3))])]
    cases += list(_random_generating_sets())
    cases += [(G.degree, list(G.generators)) for G in (build_setup(s).G for _, s in preset_entries("smoke"))]
    rng = random.Random(5)
    non_members = 0
    for degree, gens in cases:
        chain = _Chain(degree)
        for g in gens:
            chain.extend(g)
        closure = mulclose(gens)
        listed = chain.iter_elements()
        assert chain.order() == len(closure) == len(listed)
        assert set(listed) == closure
        for i, point in enumerate(chain.base):
            assert all(g.images[b] == b for g in chain.gens[i] for b in chain.base[:i])
            for delta, u in chain.transversals[i].items():
                assert u.images[point] == delta
                assert (u * chain.inverses[i][delta]).is_identity()
        assert all(chain.contains(x) for x in closure)
        for _ in range(50):
            images = list(range(degree))
            rng.shuffle(images)
            x = Perm(images)
            assert chain.contains(x) == (x in closure)
            non_members += x not in closure
        draws = [chain.random_element(random.Random(3)) for _ in range(2)]
        stream, again = random.Random(8), random.Random(8)
        xs = [chain.random_element(stream) for _ in range(10)]
        assert draws[0] == draws[1] and xs == [chain.random_element(again) for _ in range(10)]
        assert all(x in closure for x in xs)
    assert non_members > 0


def test_random_element_is_member_and_deterministic():
    G = group_from_generators(9, wreath81_gens())
    rng = random.Random(3)
    xs = [G.random_element(rng) for _ in range(20)]
    assert all(G.contains(x) for x in xs)
    rng2 = random.Random(3)
    assert xs == [G.random_element(rng2) for _ in range(20)]


def test_enumeration_cap_enforced():
    G = group_from_generators(9, wreath81_gens(), cap=50)
    with pytest.raises(CapacityError):
        G.elements()


def test_enumeration_cap_env_override(monkeypatch):
    monkeypatch.setenv("COPRIME_LAB_CAP", "40")
    G = group_from_generators(9, wreath81_gens())
    assert G.cap == 40
    with pytest.raises(CapacityError):
        G.elements()


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
