"""Tests for the coprime action machinery."""

import numpy as np
import pytest

from coprime_lab.action import (
    ASubgroupDescriptor,
    ActionSetup,
    Automorphism,
    _coset_index_map,
    _reduced_basis,
    all_subspaces,
    check_fg1_quotient,
    check_fg2_generation,
    fixed_subgroup,
    induced_action_on_quotient,
    invariant_sylow,
    maximal_subgroups,
    validate_setup,
)
from coprime_lab.errors import PreconditionError, ValidationError
from coprime_lab.groups import Group, group_from_generators
from coprime_lab.harness import find_invariant_normal_subgroups
from coprime_lab.instances import build_setup, preset_entries
from coprime_lab.perms import Perm
from coprime_lab.series import nilpotency_class

from bruteforce import (
    brute_action_tables,
    brute_all_subspaces,
    brute_automorphism_table,
    brute_fixed_elements,
    brute_span,
)

ORACLE_INSTANCES = [
    "smoke-01-gl-q3n3", "smoke-02-heis-diag-c5", "smoke-03-c3-c5-c7", "p2k3-01-gl-q3n3", "p3k3-01-gl-q7n3",
]


def heisenberg27():
    t = Perm.from_cycles(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))
    v = Perm.from_cycles(9, (0, 1, 2), (3, 5, 4))
    return group_from_generators(9, [t, v])


def c3_squared():
    a = Perm.from_cycles(6, (0, 1, 2))
    b = Perm.from_cycles(6, (3, 4, 5))
    return group_from_generators(6, [a, b])


def trivial_action(G, p, k):
    return ActionSetup(G, p, k, [Automorphism.identity(G) for _ in range(k)])


def inversion_setup(G, k=1, p=2):
    """x -> x^-1 on an abelian group, on the first basis vector only."""
    inv = Automorphism(G, {g: g.inverse() for g in G.generators})
    basis = [inv] + [Automorphism.identity(G) for _ in range(k - 1)]
    return ActionSetup(G, p, k, basis)


def swap_setup():
    """(Z/2) acting on C3 x C3 by swapping the two coordinates."""
    G = c3_squared()
    a, b = G.generators
    swap = Automorphism(G, {a: b, b: a})
    return ActionSetup(G, 2, 1, [swap])


def preset_setup(instance_id):
    return build_setup(dict(preset_entries(instance_id.split("-")[0]))[instance_id])


def swap_and_invert_setup():
    """(Z/2)^2 on C3 x C3: e1 inverts the first factor, e2 the second."""
    G = c3_squared()
    a, b = G.generators
    inv_a = Automorphism(G, {a: a.inverse(), b: b})
    inv_b = Automorphism(G, {a: a, b: b.inverse()})
    return ActionSetup(G, 2, 2, [inv_a, inv_b])


# ------------------------------------------------------------ validation


def test_trivial_action_valid():
    setup = trivial_action(heisenberg27(), 2, 3)
    report = validate_setup(setup)
    assert report.ok, report.problems


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9])
def test_non_prime_p_rejected(p):
    G = heisenberg27()
    with pytest.raises(ValidationError, match="prime"):
        trivial_action(G, p, 2)


def test_coprimality_violation_flagged():
    setup = trivial_action(heisenberg27(), 3, 1)
    report = validate_setup(setup)
    assert not report.ok
    assert any("divisible" in p for p in report.problems)


def test_basis_of_the_wrong_order_flagged():
    G = c3_squared()
    a, b = G.generators
    setup = ActionSetup(G, 5, 1, [Automorphism(G, {a: a.inverse(), b: b})])
    assert validate_setup(setup).problems == ["basis automorphism 0 has order not dividing p = 5"]


def test_basis_that_does_not_commute_flagged():
    G = c3_squared()
    a, b = G.generators
    swap, inv_a = Automorphism(G, {a: b, b: a}), Automorphism(G, {a: a.inverse(), b: b})
    assert validate_setup(ActionSetup(G, 2, 2, [swap, inv_a])).problems == [
        "basis automorphisms 0 and 1 do not commute"
    ]
    assert swap.images == {a: b, b: a} and inv_a.then(inv_a).is_identity()
    assert not swap.then(inv_a).agrees_with(inv_a.then(swap)) and swap.agrees_with(swap.power(3))


def test_inversion_is_valid_order_two():
    G = c3_squared()
    setup = inversion_setup(G)
    assert validate_setup(setup).ok


def test_non_homomorphism_rejected():
    G = heisenberg27()
    t, v = G.generators
    # Heisenberg-27 is the free Burnside group B(2, 3), so every map of its
    # two generators extends to an endomorphism; t -> v, v -> v has image <v>
    # and is rejected as non-bijective, not as a non-homomorphism (the S3
    # edge-check test below covers that case)
    with pytest.raises(ValidationError, match="non-bijective"):
        Automorphism(G, {t: v, v: v}).table


def test_non_homomorphism_rejected_by_the_edge_check():
    flip = Perm.from_cycles(3, (0, 1))
    rotate = Perm.from_cycles(3, (0, 1, 2))
    G = group_from_generators(3, [flip, rotate])
    # an element of order 3 cannot map to one of order 2
    images = {flip: flip, rotate: Perm.from_cycles(3, (1, 2))}
    with pytest.raises(ValidationError, match="do not define a homomorphism"):
        Automorphism(G, images).table
    with pytest.raises(AssertionError, match="not a homomorphism"):
        brute_automorphism_table(G, images)


def test_image_outside_group_rejected():
    G = heisenberg27()
    t, v = G.generators
    with pytest.raises(ValidationError, match="outside the source group"):
        # a transposition lies outside the odd-order group
        Automorphism(G, {t: Perm.from_cycles(9, (0, 1)), v: v}).table


def test_image_of_another_degree_rejected():
    G = heisenberg27()
    t, v = G.generators
    with pytest.raises(ValidationError, match="outside the source group"):
        Automorphism(G, {t: Perm.from_cycles(10, (0, 1, 2)), v: v}).table


def test_non_bijective_endomorphism_rejected():
    G = heisenberg27()
    ident = Perm.identity(9)
    with pytest.raises(ValidationError, match="non-bijective"):
        Automorphism(G, {g: ident for g in G.generators}).table


def test_automorphism_table_against_brute():
    G = heisenberg27()
    t, v = G.generators
    alpha = Automorphism(G, {t: t.inverse(), v: v.inverse()})
    brute = brute_automorphism_table(G, alpha.images)
    assert len(brute) == G.order
    assert all(alpha.apply(x) == brute[x] for x in G.elements())


def test_power_matches_repeated_then():
    setup = preset_setup("smoke-02-heis-diag-c5")
    c7 = group_from_generators(7, [Perm.from_cycles(7, tuple(range(7)))])
    (r,) = c7.generators
    cases = [(setup.phi(u), setup.p) for u in setup.nonzero_vectors()]
    cases.append((Automorphism(c7, {r: r**3}), 7))  # order 6
    for alpha, p in cases:
        acc = Automorphism.identity(alpha.source)
        for n in range(2 * p + 2):
            assert np.array_equal(alpha.power(n).table, acc.table), n
            acc = acc.then(alpha)


# ------------------------------------------------------------ subgroups of A


def test_maximal_subgroup_counts():
    assert len(maximal_subgroups(trivial_action(c3_squared(), 2, 3))) == 7
    assert len(maximal_subgroups(trivial_action(c3_squared(), 2, 4))) == 15
    G5 = group_from_generators(5, [Perm.from_cycles(5, (0, 1, 2, 3, 4))])
    assert len(maximal_subgroups(trivial_action(G5, 3, 2))) == 4


def gaussian_binomial(k, d, p):
    num = den = 1
    for i in range(d):
        num *= p ** (k - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def test_all_subspaces_counts():
    # subspace counts of F_2^3: 1 + 7 + 7 + 1
    assert len(all_subspaces(2, 3)) == 16
    # F_3^2: 1 + 4 + 1
    assert len(all_subspaces(3, 2)) == 6
    for p, k in [(2, 5), (2, 6), (3, 4), (5, 3)]:
        codims = [B.codim for B in all_subspaces(p, k)]
        assert codims == sorted(codims)
        for codim in range(k + 1):
            assert codims.count(codim) == gaussian_binomial(k, k - codim, p)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_all_subspaces_matches_brute(p, k):
    assert [(B.vectors, B.codim) for B in all_subspaces(p, k)] == brute_all_subspaces(p, k)


@pytest.mark.parametrize("p,k", [(2, 5), (2, 6), (3, 4), (5, 3)])
def test_all_subspaces_canonical_and_distinct(p, k):
    subspaces = all_subspaces(p, k)
    spans = [brute_span(p, k, B.vectors) for B in subspaces]
    for B, span in zip(subspaces, spans):
        assert len(span) == p ** (k - B.codim)
        assert _reduced_basis(p, k, sorted(span)) == B.vectors
        assert ASubgroupDescriptor.from_vectors(p, k, span) == B
    assert len(set(spans)) == len(subspaces)


# ------------------------------------------------------------ fixed points


def test_fixed_subgroup_trivial_action_is_whole_group():
    setup = trivial_action(heisenberg27(), 2, 2)
    B = ASubgroupDescriptor.full(2, 2)
    assert fixed_subgroup(setup, B).same_subgroup(setup.G)


def test_fixed_subgroup_inversion_is_identity_only():
    G = c3_squared()
    setup = inversion_setup(G)
    B = ASubgroupDescriptor.full(2, 1)
    assert fixed_subgroup(setup, B).is_trivial


def test_fixed_subgroup_swap_is_diagonal():
    setup = swap_setup()
    B = ASubgroupDescriptor.full(2, 1)
    fixed = fixed_subgroup(setup, B)
    assert fixed.order == 3
    oracle = brute_fixed_elements(setup.G, [brute_automorphism_table(setup.G, setup.basis[0].images)])
    assert fixed.elements() == frozenset(oracle)


def test_fixed_subgroup_contravariant():
    setup = swap_and_invert_setup()
    full = fixed_subgroup(setup, ASubgroupDescriptor.full(2, 2))
    for a in setup.nonzero_vectors():
        single = fixed_subgroup(setup, ASubgroupDescriptor.generated_by(2, 2, a))
        assert full.is_subgroup_of(single)


# ------------------------------------------------------------ FG1 / FG2


def test_fg1_trivial_and_full_quotients():
    setup = swap_setup()
    B = ASubgroupDescriptor.full(2, 1)
    assert check_fg1_quotient(setup, Group.trivial(6), B)
    assert check_fg1_quotient(setup, setup.G, B)


def test_fg1_swap_diagonal_quotient():
    setup = swap_setup()
    a, b = setup.G.generators
    diagonal = group_from_generators(6, [a * b])
    B = ASubgroupDescriptor.full(2, 1)
    assert check_fg1_quotient(setup, diagonal, B)


def test_fg1_requires_invariance():
    setup = swap_setup()
    a, _ = setup.G.generators
    factor = group_from_generators(6, [a])  # swapped by the action
    with pytest.raises(PreconditionError):
        check_fg1_quotient(setup, factor, ASubgroupDescriptor.full(2, 1))


def s3_trivial_action():
    """S3 under the trivial action of Z/5."""
    G = group_from_generators(3, [Perm.from_cycles(3, (0, 1)), Perm.from_cycles(3, (0, 1, 2))])
    return trivial_action(G, 5, 1)


@pytest.mark.parametrize("case,message", [
    ("not-normal", "N is not normal in G"),
    ("not-invariant", "N is not A-invariant"),
    ("outside", "N is not a subgroup of G"),
])
def test_fg1_precondition_fails_on_every_call(case, message):
    if case == "not-normal":
        setup = s3_trivial_action()
        N = group_from_generators(3, [Perm.from_cycles(3, (0, 1))])
    elif case == "not-invariant":
        setup = swap_setup()
        N = group_from_generators(6, [setup.G.generators[0]])  # swapped with the other factor
    else:
        setup = swap_setup()
        N = group_from_generators(6, [Perm.from_cycles(6, (0, 3))])
    full = ASubgroupDescriptor.full(setup.p, setup.k)
    for _ in range(3):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            check_fg1_quotient(setup, N, full)
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            induced_action_on_quotient(setup, N)
    assert check_fg1_quotient(setup, Group.trivial(setup.G.degree), full)  # the setup still works


def test_fg1_checks_normality_and_invariance_once_per_subgroup(monkeypatch):
    setup = preset_setup("smoke-02-heis-diag-c5")
    normal_checks, invariant_checks = [], []
    is_normal_in, is_invariant = Group.is_normal_in, ActionSetup.is_invariant_subgroup
    monkeypatch.setattr(Group, "is_normal_in", lambda H, G: normal_checks.append(H) or is_normal_in(H, G))
    monkeypatch.setattr(
        ActionSetup, "is_invariant_subgroup", lambda s, H: invariant_checks.append(H) or is_invariant(s, H)
    )
    subgroups = find_invariant_normal_subgroups(setup, seed=0)
    normal_checks.clear(), invariant_checks.clear()
    masks = {N.mask_over(setup.G).tobytes() for N in subgroups}
    for _ in range(2):
        for N in subgroups:
            for B in maximal_subgroups(setup):
                check_fg1_quotient(setup, N, B)
    assert len(normal_checks) == len(invariant_checks) == len(masks) > 1


def test_fg2_trivial_action():
    setup = trivial_action(heisenberg27(), 2, 2)
    assert check_fg2_generation(setup, setup.G)


def test_fg2_factorwise_inversion():
    setup = swap_and_invert_setup()
    assert check_fg2_generation(setup, setup.G)


def test_fg2_requires_rank_two():
    G = c3_squared()
    setup = inversion_setup(G, k=1)
    with pytest.raises(PreconditionError):
        check_fg2_generation(setup, G)


# ------------------------------------------------------------ Sylow


def frobenius21_setup():
    r = Perm.from_cycles(7, tuple(range(7)))
    s = Perm([(2 * i) % 7 for i in range(7)])
    G = group_from_generators(7, [r, s])
    alpha = Automorphism(G, {r: r.inverse(), s: s})
    return ActionSetup(G, 2, 1, [alpha])


def test_invariant_sylow_on_r_group():
    G = heisenberg27()
    setup = trivial_action(G, 2, 2)
    assert invariant_sylow(setup, G, 3).same_subgroup(G)


def test_invariant_sylow_frobenius():
    setup = frobenius21_setup()
    assert validate_setup(setup).ok
    R7 = invariant_sylow(setup, setup.G, 7)
    assert R7.order == 7
    assert setup.is_invariant_subgroup(R7)
    R3 = invariant_sylow(setup, setup.G, 3)
    assert R3.order == 3
    assert setup.is_invariant_subgroup(R3)


def test_invariant_sylow_nilpotent_is_r_elements():
    # Heisenberg x C5, r = 5
    t = Perm.from_cycles(14, (0, 3, 6), (1, 4, 7), (2, 5, 8))
    v = Perm.from_cycles(14, (0, 1, 2), (3, 5, 4))
    c5 = Perm.from_cycles(14, (9, 10, 11, 12, 13))
    G = group_from_generators(14, [t, v, c5])
    setup = trivial_action(G, 2, 2)
    R = invariant_sylow(setup, G, 5)
    assert R.order == 5
    assert all(x.order() in (1, 5) for x in R.elements())


# ------------------------------------------------------------ quotients


def test_induced_action_trivial_n():
    setup = swap_setup()
    q = induced_action_on_quotient(setup, Group.trivial(6))
    assert q.G.order == setup.G.order
    assert validate_setup(q).ok


def test_induced_action_full_n():
    setup = swap_setup()
    q = induced_action_on_quotient(setup, setup.G)
    assert q.G.order == 1


def test_induced_action_heisenberg_mod_center():
    G = heisenberg27()
    t, v = G.generators
    alpha = Automorphism(G, {t: t.inverse(), v: v.inverse()})
    setup = ActionSetup(G, 2, 1, [alpha])
    assert validate_setup(setup).ok
    from support import center

    q = induced_action_on_quotient(setup, center(G))
    assert q.G.order == 9
    assert nilpotency_class(q.G) == 1
    assert validate_setup(q).ok
    # inversion on the quotient: fixed points are trivial
    assert fixed_subgroup(q, ASubgroupDescriptor.full(2, 1)).is_trivial


def test_induced_action_quotient_by_factor():
    setup = swap_and_invert_setup()
    a, _ = setup.G.generators
    N = group_from_generators(6, [a])  # inverted into itself by e1, fixed by e2
    assert setup.is_invariant_subgroup(N)
    q = induced_action_on_quotient(setup, N)
    assert validate_setup(q).ok
    assert q.G.order == 3
    # downstairs, e1 acts trivially and e2 still inverts
    assert fixed_subgroup(q, ASubgroupDescriptor.generated_by(2, 2, (1, 0))).order == 3
    assert fixed_subgroup(q, ASubgroupDescriptor.generated_by(2, 2, (0, 1))).is_trivial
    assert check_fg1_quotient(setup, N, ASubgroupDescriptor.generated_by(2, 2, (0, 1)))


# ------------------------------------------ index kernel against brute force


@pytest.fixture(scope="module", params=ORACLE_INSTANCES)
def oracle_case(request):
    """A preset setup and phi(u) for every u, tabulated independently as dicts."""
    setup = preset_setup(request.param)
    tables = brute_action_tables(setup.G, [auto.images for auto in setup.basis], setup.p)
    return setup, tables


def span_tables(setup, tables, B):
    return [tables[u] for u in brute_span(setup.p, setup.k, B.vectors)]


def test_phi_apply_matches_brute(oracle_case):
    setup, tables = oracle_case
    elements = setup.G.elements()
    for u, table in tables.items():
        assert len(table) == setup.G.order
        auto = setup.phi(u)
        assert all(auto.apply(x) == table[x] for x in elements), u


def test_fixed_subgroup_matches_brute(oracle_case):
    setup, tables = oracle_case
    for B in all_subspaces(setup.p, setup.k):
        oracle = brute_fixed_elements(setup.G, span_tables(setup, tables, B))
        assert fixed_subgroup(setup, B).elements() == frozenset(oracle), B


def test_fg1_matches_brute_coset_check(oracle_case):
    setup, tables = oracle_case
    G = setup.G
    ordered = G.sorted_elements()
    for N in find_invariant_normal_subgroups(setup, seed=0):
        coset_of = {x: frozenset(x * n for n in N.elements()) for x in G.elements()}
        cosets = set(coset_of.values())
        labels, reps = _coset_index_map(setup, N)
        assert [ordered[i] for i in reps] == sorted(min(c) for c in cosets)
        assert all(coset_of[x] == coset_of[ordered[reps[labels[i]]]] for i, x in enumerate(ordered))
        for B in maximal_subgroups(setup):
            autos = span_tables(setup, tables, B)
            fixed = {c for c in cosets if all(frozenset(t[x] for x in c) == c for t in autos)}
            image = {coset_of[x] for x in brute_fixed_elements(G, autos)}
            assert check_fg1_quotient(setup, N, B) == (fixed == image)


@pytest.mark.parametrize("family", ["p2k3", "p2k4", "p3k3"])
def test_orbit_of_element_matches_the_image_under_every_phi(family):
    """The orbit read from the basis tables, power by power, is {phi(u)(x) : u in A}."""
    for instance_id, entry in preset_entries(family):
        setup = build_setup(entry)
        rng = np.random.default_rng(len(instance_id))
        for at in rng.choice(setup.G.order, size=5).tolist():
            expected = {int(setup.phi(u).table[at]) for u in setup.all_vectors()}
            assert setup.orbit_of_element(at) == expected, (instance_id, at)


def test_phi_looks_up_a_reduced_tuple_and_reduces_any_other_vector():
    setup = preset_setup("p3k3-01-gl-q7n3")
    auto = setup.phi((1, 2, 0))
    assert setup.phi((1, 2, 0)) is auto
    assert setup.phi([4, -1, 3]) is auto
    assert setup.phi((4, 2, 0)) is auto
    assert setup.phi(np.array([1, 2, 0])) is auto
