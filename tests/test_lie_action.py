"""The induced A-action on the graded Lie ring, and Lie subspaces, against brute force."""

import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest

from coprime_lab.action import ASubgroupDescriptor, ActionSetup, Automorphism, maximal_subgroups
from coprime_lab.errors import InternalCheckError, ValidationError
from coprime_lab.groups import group_from_generators
from coprime_lab.harness import InstanceContext, lemma_report
from coprime_lab.instances import PRESETS, build_setup, preset_entries
from coprime_lab.lie import (
    GradedLieRing,
    LieAction,
    LieSubspace,
    axiom_report,
    check_span_lemma,
    induced_a_action,
    lie_ring_of,
    lie_subring_of_subgroup,
)
from coprime_lab.series import nilpotency_class
from coprime_lab.status import CheckStatus

from bruteforce import (
    brute_abelian_section,
    brute_action_tables,
    brute_additive_closure,
    brute_axiom_report,
    brute_bracket,
    brute_fixed_cosets,
    brute_greedy_generators,
    brute_lower_central_series,
    brute_span,
)
from support import nilpotent_zoo, with_corrupted_constant
from test_lie import heis_setup, heisenberg27

# every one of them is nilpotent: class 2 for smoke-02 and p2k3-06, class 1 for the rest
ORACLE_INSTANCES = [
    "smoke-01-gl-q3n3", "smoke-02-heis-diag-c5", "smoke-03-c3-c5-c7",
    "p2k3-06-c3swap-heis-c5", "p3k3-07-c7-c7-c13", "p3k3-08-c7-mixed",
]


def preset_setup(instance_id):
    return build_setup(dict(preset_entries(instance_id.split("-")[0]))[instance_id])


@pytest.fixture(scope="module", params=ORACLE_INSTANCES)
def lie_case(request):
    """A preset setup, its ring and induced action, and phi(u) for every u tabulated as dicts."""
    setup = preset_setup(request.param)
    ring = lie_ring_of(setup.G)
    tables = brute_action_tables(setup.G, [auto.images for auto in setup.basis], setup.p)
    return setup, ring, induced_a_action(ring, setup), tables


def test_fixed_subspace_matches_brute_fixed_cosets(lie_case):
    setup, ring, action, tables = lie_case
    for B in maximal_subgroups(setup) + [ASubgroupDescriptor.full(setup.p, setup.k)]:
        autos = [tables[u] for u in brute_span(setup.p, setup.k, B.vectors)]
        expected = brute_fixed_cosets(setup.G.elements(), autos)
        fixed = action.fixed_subspace(B)
        assert len(expected) == ring.class_
        for w, cosets in enumerate(expected, start=1):
            section = ring.component(w)
            lower = section.denominator.elements()
            got = {frozenset(section.compose(v) * d for d in lower) for v in fixed.weight_set(w)}
            assert got == cosets, (B.vectors, w)


@pytest.mark.parametrize(
    "instance_id", ["smoke-02-heis-diag-c5", "p2k3-06-c3swap-heis-c5", "p3k3-07-c7-c7-c13", "p3k3-08-c7-mixed"]
)
def test_matrices_are_the_brute_decompositions_of_basis_images(instance_id):
    """Row a of the weight-w matrix of phi(e_j) is the exponent vector of phi(e_j)(b_a), with
    phi(e_j) and the section decompositions both computed by brute force.  (The fourth
    lemmas preset, p2k4-07, is not nilpotent and has no ring.)"""
    setup = preset_setup(instance_id)
    ring = lie_ring_of(setup.G)
    action = LieAction(ring, setup)
    tables = brute_action_tables(setup.G, [auto.images for auto in setup.basis], setup.p)
    terms = brute_lower_central_series(setup.G.elements())
    assert len(terms) == ring.class_ + 1
    for w, (upper, lower) in enumerate(zip(terms, terms[1:]), start=1):
        basis, orders, vector_of = brute_abelian_section(upper, lower)
        assert ring.component(w).basis == tuple(basis) and ring.orders[w - 1] == tuple(orders)
        for u in setup.basis_vectors():
            expected = [vector_of[tables[u][b]] for b in basis]
            assert action._matrices(u)[w - 1].tolist() == [list(row) for row in expected], (u, w)


def test_matrices_reject_a_ring_over_another_index():
    G, setup = heis_setup()
    twin, _ = heis_setup()
    assert twin.same_subgroup(G) and twin is not G
    with pytest.raises(InternalCheckError, match="setup's group"):
        LieAction(lie_ring_of(twin), setup)._matrices(setup.basis_vectors()[0])


def test_from_vectors_matches_brute_closure(lie_case):
    """The span and the greedy generators, from seeds and from a whole span."""
    ring = lie_case[1]
    rng = random.Random(0)
    full = LieSubspace.full(ring)
    for w in range(1, ring.class_ + 1):
        orders = ring.orders[w - 1]
        every = list(itertools.product(*(range(m) for m in orders)))
        for count in (0, 1, 2, 3, 4):
            for _ in range(4):
                seeds = [rng.choice(every) for _ in range(count)]
                per_weight = [[] for _ in range(ring.class_)]
                per_weight[w - 1] = seeds
                sub = LieSubspace.from_vectors(ring, per_weight)
                span = brute_additive_closure(orders, seeds)
                assert sub.weight_set(w) == span
                assert sub.gens[w - 1] == brute_greedy_generators(orders, seeds)
                # a subspace given by its elements alone picks its generators from them
                assert sub.intersect(full).gens[w - 1] == brute_greedy_generators(orders, span)
                others = [v for v in range(1, ring.class_ + 1) if v != w]
                assert all(sub.weight_set(v) == {(0,) * len(ring.orders[v - 1])} for v in others)


def smoke02():
    setup = preset_setup("smoke-02-heis-diag-c5")
    return setup, lie_ring_of(setup.G)


def test_apply_rejects_a_vector_of_the_wrong_rank():
    setup, ring = smoke02()
    action = LieAction(ring, setup)
    u = setup.basis_vectors()[0]
    rank = len(ring.orders[0])
    assert len(action.apply(u, 1, (1,) * rank)) == rank
    for vec in [(1,) * (rank - 1), (1,) * (rank + 1)]:
        with pytest.raises(ValidationError, match="rank"):
            action.apply(u, 1, vec)


def test_action_caches_are_keyed_by_the_vector_mod_p():
    setup, ring = smoke02()
    assert setup.p == 2
    action = LieAction(ring, setup)
    vec = (1,) * len(ring.orders[0])
    images = {action.apply(u, 1, vec) for u in [(1, 0, 0), (3, 0, 0), (1, 2, 4), (-1, 0, 2)]}
    assert len(images) == 1
    assert len(action._maps) == 1
    B, C = ASubgroupDescriptor.generated_by(2, 3, (1, 0, 0)), ASubgroupDescriptor(2, 3, ((3, 0, 0),), 2)
    assert action.fixed_subspace(B) == action.fixed_subspace(C)
    assert len(action._fixed_by_vector) == 1


def test_verify_rejects_a_component_map_that_is_not_bijective():
    setup, ring = smoke02()
    action = LieAction(ring, setup)
    action.verify()
    u = setup.basis_vectors()[0]
    action._maps[u] = tuple(np.zeros_like(M) for M in action._maps[u])
    with pytest.raises(InternalCheckError, match="not bijective"):
        action.verify()


def test_verify_rejects_a_component_map_that_does_not_commute_with_the_bracket():
    """phi(u) negated on weight 2 alone is still bijective on each component, but it maps each
    nonzero bracket [x, y] of the odd-order ring to -[phi(x), phi(y)]."""
    setup, ring = smoke02()
    action = LieAction(ring, setup)
    action.verify()
    u = setup.basis_vectors()[0]
    maps = action._maps[u]
    action._maps[u] = (maps[0], -maps[1] % ring._moduli[1])
    with pytest.raises(InternalCheckError, match="does not commute with the bracket"):
        action.verify()


def inverting_setup():
    """Heis27 with a1 inverting t and v, and a2 trivial: all of A fixes [t, v]."""
    G, _ = heis_setup()
    t, v = G.generators
    inversion = Automorphism(G, {t: t.inverse(), v: v.inverse()})
    return G, ActionSetup(G, 2, 2, [inversion, Automorphism.identity(G)])


@pytest.mark.parametrize(
    "make_setup, mode, detail",
    [
        (heis_setup, "pairwise", "[R0,R1] ^ C(A_2)"),
        (heis_setup, "gamma", "[R0,C0] ^ C(A_2)"),
        (inverting_setup, "pairwise", "[R0,R1] ^ C(A_0)"),
        (inverting_setup, "gamma", "[R0,C1] ^ C(A_0)"),
    ],
)
def test_span_lemma_names_the_first_centralizer_that_breaks_the_hypothesis(make_setup, mode, detail):
    """R0 = <t> and R1 = <v> generate L, but [t, v] spans weight 2, which neither holds.

    In heis_setup, C(A_0) = <v> in weight 1 and only A_2 = <a1 a2> fixes [t, v];
    in inverting_setup every A_k fixes it, so the first one is named.
    """
    G, setup = make_setup()
    t, v = G.generators
    L = lie_ring_of(G)
    assert [B.vectors for B in maximal_subgroups(setup)] == [((1, 0),), ((0, 1),), ((1, 1),)]
    subspaces = [lie_subring_of_subgroup(L, G, group_from_generators(9, [x])) for x in (t, v)]
    out = check_span_lemma(L, setup, subspaces, mode, action=induced_a_action(L, setup))
    assert out.status is CheckStatus.HYPOTHESIS_NOT_MET
    assert out.detail == f"{detail} is not inside any input subspace"


@pytest.fixture(scope="module")
def preset_rings():
    """The ring of every nilpotent preset instance."""
    setups = (build_setup(spec) for info in PRESETS.values() for _, spec in info.entries)
    return [lie_ring_of(setup.G) for setup in setups if nilpotency_class(setup.G) is not None]


def test_batched_brackets_match_the_bracket_on_every_nilpotent_preset(preset_rings):
    """``brackets`` against the scalar expansion ``brute_bracket`` on every pair of basis
    units, and on 200 random vector pairs per weight pair, for the ring of every nilpotent
    preset instance."""
    rng = np.random.default_rng(0)
    pairs = 0
    for ring in preset_rings:
        for wi, wj in itertools.product(range(1, ring.class_), repeat=2):
            if wi + wj > ring.class_:
                continue
            ranks = len(ring.orders[wi - 1]), len(ring.orders[wj - 1])
            a, b = np.divmod(np.arange(ranks[0] * ranks[1]), ranks[1])  # every pair of basis units
            units = np.eye(ranks[0], dtype=np.int64)[a], np.eye(ranks[1], dtype=np.int64)[b]
            drawn = [ring.vectors(w)[rng.integers(ring.component_order(w), size=200)] for w in (wi, wj)]
            for va, vb in (units, drawn):
                got = ring.brackets(wi, va, wj, vb).tolist()
                expected = [brute_bracket(ring.orders, ring.constants, wi, x, wj, y) for x, y in zip(va.tolist(), vb.tolist())]
                assert got == [list(vec) for vec in expected]
            pairs += 1
    assert len(preset_rings) == 35 and pairs > 0


def test_axiom_report_matches_the_brute_report_on_every_ring(preset_rings):
    """``axiom_report``'s array tests against the scalar loops of ``brute_axiom_report``, key by
    key: every nilpotent preset and zoo ring, each also with a constant corrupted by 1 and by 2,
    the Heisenberg ring with doubled constants and with one constant out of range, and a ring
    with one one-sided constant, whose left argument's order kills it and whose right
    argument's does not."""
    base = preset_rings + [lie_ring_of(G) for _, G in nilpotent_zoo()]
    rings = list(base)
    for ring in base:
        if ring.constants:  # a class-1 ring has no constant to corrupt
            rings += [with_corrupted_constant(ring, 1), with_corrupted_constant(ring, 2)]
    heis = lie_ring_of(heisenberg27())
    doubled = {key: 2 * C % heis._moduli[sum(key) - 1] for key, C in heis.constants.items()}
    out_of_range = heis.constants[(1, 1)] + np.array([[[0], [3]], [[0], [0]]])
    rings.append(GradedLieRing(heis.group, heis.components, doubled))
    rings.append(GradedLieRing(heis.group, heis.components, {(1, 1): out_of_range}))
    one_sided = np.zeros((2, 2, 1), dtype=np.int64)
    one_sided[1, 0] = 1  # [e_1, e_0] with |e_1| = 9 and |e_0| = 3 in a component of order 9
    components = [SimpleNamespace(orders=(3, 9)), SimpleNamespace(orders=(9,))]
    rings.append(GradedLieRing(None, components, {(1, 1): one_sided}))
    reports = [(axiom_report(ring), brute_axiom_report(ring.orders, ring.constants)) for ring in rings]
    assert len(rings) >= 100
    for got, expected in reports:
        assert got.keys() == expected.keys()
        for key in expected:
            assert got[key] == expected[key], key
    # the corrupted rings fail some axiom, and each axiom fails on some ring
    assert all(not all(got.values()) for got, _ in reports[len(base):-3])
    assert all(any(not got[key] for got, _ in reports) for key in reports[0][0])


@pytest.mark.parametrize("instance_id", ["p2k3-06-c3swap-heis-c5", "p3k3-07-c7-c7-c13", "p3k3-08-c7-mixed"])
def test_span_memo_after_the_lemma_suite_matches_brute_closure(instance_id):
    """Every span the lemma suite kept, against the brute closure and greedy picks of its
    candidates.  (The fourth ``lemmas`` preset, p2k4-07, is not nilpotent and has no ring.)"""
    ctx = InstanceContext(preset_setup(instance_id), instance_id, seed=1)
    lemma_report(ctx)
    ring = ctx.lie_ring
    assert ring._spans
    for (w, raw), (span, picked) in ring._spans.items():
        orders = ring.orders[w - 1]
        seeds = map(tuple, ring.vectors(w)[np.frombuffer(raw, dtype=bool)].tolist())
        assert picked == brute_greedy_generators(orders, seeds)
        assert set(map(tuple, ring.vectors(w)[span].tolist())) == brute_additive_closure(orders, picked)
        assert not span.flags.writeable
    if ring.constants:  # a class-1 ring has no constant to corrupt
        assert with_corrupted_constant(ring)._spans == {}
