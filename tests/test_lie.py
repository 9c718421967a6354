"""Tests for the graded Lie ring construction and its checks."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from coprime_lab.action import ASubgroupDescriptor, ActionSetup, Automorphism, fixed_subgroup, maximal_subgroups
from coprime_lab.errors import ContainmentError, InternalCheckError, PreconditionError
from coprime_lab.groups import Group, group_from_generators
from coprime_lab.harness import InstanceContext, lemma_report
from coprime_lab.instances import FamilySpec, _aut_zone_spec, build_setup
from coprime_lab.lie import (
    GradedLieRing,
    LieSubspace,
    _cross_check_brackets,
    _span_and_gens,
    axiom_report,
    check_centralizer_transfer,
    check_class_transfer,
    check_span_lemma,
    induced_a_action,
    lie_ring_of,
    lie_series,
    lie_subring_of_subgroup,
)
from coprime_lab.perms import Perm
from coprime_lab.series import nilpotency_class
from coprime_lab.status import CheckStatus

from support import center, with_corrupted_constant


def heisenberg27():
    t = Perm.from_cycles(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))
    v = Perm.from_cycles(9, (0, 1, 2), (3, 5, 4))
    return group_from_generators(9, [t, v])


def wreath81():
    t = Perm.from_cycles(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))
    u0 = Perm.from_cycles(9, (0, 1, 2))
    return group_from_generators(9, [t, u0])


def abelian():
    return group_from_generators(6, [Perm.from_cycles(6, (0, 1, 2)), Perm.from_cycles(6, (3, 4, 5))])


def heis_setup(k=2):
    G = heisenberg27()
    t, v = G.generators
    a1 = Automorphism(G, {t: t.inverse(), v: v})
    a2 = Automorphism(G, {t: t, v: v.inverse()})
    basis = [a1, a2] + [Automorphism.identity(G) for _ in range(k - 2)]
    return G, ActionSetup(G, 2, k, basis)


def test_abelian_ring_single_component():
    L = lie_ring_of(abelian())
    assert L.class_ == 1
    assert L.constants == {}
    assert all(axiom_report(L).values())


def test_heisenberg_ring_components_and_bracket():
    G = heisenberg27()
    L = lie_ring_of(G)
    assert [L.component_order(w) for w in (1, 2)] == [9, 3]
    # bracket of the two weight-1 basis vectors spans component 2
    e0, e1 = np.eye(2, dtype=np.int64)
    out = L.brackets(1, e0[None], 1, e1[None])
    assert out.shape == (1, 1) and out.any()


def test_heisenberg_ring_orders_class_and_constant_shapes():
    L = lie_ring_of(heisenberg27())
    assert L.orders == ((3, 3), (3,)) and L.class_ == 2
    # one weight pair, and each bracket of basis vectors has one coordinate
    assert L.constants.keys() == {(1, 1)} and L.constants[(1, 1)].shape == (2, 2, 1)


def test_wreath_ring_class_three():
    W = wreath81()
    L = lie_ring_of(W)
    assert L.class_ == 3 == nilpotency_class(W)
    assert check_class_transfer(L, W)


def test_non_nilpotent_rejected():
    r = Perm.from_cycles(7, tuple(range(7)))
    s = Perm([(2 * i) % 7 for i in range(7)])
    F = group_from_generators(7, [r, s])
    with pytest.raises(PreconditionError):
        lie_ring_of(F)


def test_lie_series_values():
    L = lie_ring_of(heisenberg27())
    derived = lie_series(L, "derived")
    assert [s.size() for s in derived] == [27, 3, 1]
    W = lie_ring_of(wreath81())
    lower = lie_series(W, "lower-central")
    assert [s.size() for s in lower] == [81, 9, 3, 1]
    # gamma_2(L) covers components 2 and 3 exactly
    gamma2 = lower[1]
    assert len(gamma2.weight_set(1)) == 1
    assert len(gamma2.weight_set(2)) == W.component_order(2)
    assert len(gamma2.weight_set(3)) == W.component_order(3)


def test_subring_of_subgroup():
    G = heisenberg27()
    L = lie_ring_of(G)
    full = lie_subring_of_subgroup(L, G, G)
    assert full.is_full()
    zero = lie_subring_of_subgroup(L, G, Group.trivial(9))
    assert zero.is_zero
    Z = center(G)
    zc = lie_subring_of_subgroup(L, G, Z)
    assert len(zc.weight_set(1)) == 1  # center maps to 0 in weight 1
    assert len(zc.weight_set(2)) == 3  # and covers all of weight 2
    assert zc.contains_subspace(zc.bracket_with(zc))


def test_induced_action_and_transfer():
    G, setup = heis_setup()
    L = lie_ring_of(G)
    action = induced_a_action(L, setup)
    for B in maximal_subgroups(setup) + [ASubgroupDescriptor.full(2, 2)]:
        assert check_centralizer_transfer(L, setup, B, action=action)


def test_transfer_rejects_a_ring_of_another_group():
    G, setup = heis_setup()
    action = induced_a_action(lie_ring_of(G), setup)
    with pytest.raises(ContainmentError, match="not built from the given ambient group"):
        check_centralizer_transfer(lie_ring_of(wreath81()), setup, maximal_subgroups(setup)[0], action=action)


def test_trivial_action_fixes_everything():
    G = heisenberg27()
    setup = ActionSetup(G, 2, 2, [Automorphism.identity(G)] * 2)
    L = lie_ring_of(G)
    action = induced_a_action(L, setup)
    fixed = action.fixed_subspace(ASubgroupDescriptor.full(2, 2))
    assert fixed.is_full()


def test_inversion_negates_weight_one():
    G = abelian()
    a, b = G.generators
    inv = Automorphism(G, {a: a.inverse(), b: b.inverse()})
    setup = ActionSetup(G, 2, 1, [inv])
    L = lie_ring_of(G)
    action = induced_a_action(L, setup)
    vec = (1, 0)
    out = action.apply((1,), 1, vec)
    assert out == (2, 0)  # negation mod 3


def test_span_lemma_single_full_subspace():
    G, setup = heis_setup()
    L = lie_ring_of(G)
    action = induced_a_action(L, setup)
    out = check_span_lemma(L, setup, [LieSubspace.full(L)], "pairwise", action=action)
    assert out.status is CheckStatus.PASS


def test_span_lemma_centralizer_images():
    G, setup = heis_setup()
    L = lie_ring_of(G)
    action = induced_a_action(L, setup)
    subs = [
        lie_subring_of_subgroup(L, G, fixed_subgroup(setup, A_j))
        for A_j in maximal_subgroups(setup)
    ]
    for mode in ("pairwise", "gamma"):
        out = check_span_lemma(L, setup, subs, mode, action=action)
        assert out.status is CheckStatus.PASS, out.detail


def test_span_lemma_proper_subalgebra_reported():
    G, setup = heis_setup()
    L = lie_ring_of(G)
    action = induced_a_action(L, setup)
    out = check_span_lemma(L, setup, [LieSubspace.zero(L)], "pairwise", action=action)
    assert out.status is CheckStatus.NOT_APPLICABLE
    assert "generate" in out.detail


def test_corrupted_constant_breaks_axioms():
    L = lie_ring_of(heisenberg27())
    bad = with_corrupted_constant(L)
    report = axiom_report(bad)
    assert not all(report.values())


def test_cross_check_catches_corruption():
    # class transfer also reacts to a corrupted table on this ring
    W = lie_ring_of(wreath81())
    bad = with_corrupted_constant(W)
    assert not all(axiom_report(bad).values()) or not check_class_transfer(bad, wreath81())


def test_cross_check_rejects_doubled_constants_that_satisfy_every_axiom():
    """2[x, y] is a Lie bracket too, so only the group commutators can tell it from [x, y]."""
    L = lie_ring_of(heisenberg27())
    constants = {(wi, wj): 2 * C % L._moduli[wi + wj - 1] for (wi, wj), C in L.constants.items()}
    bad = GradedLieRing(L.group, L.components, constants)
    assert not np.array_equal(bad.constants[(1, 1)], L.constants[(1, 1)])
    assert all(axiom_report(bad).values())
    # each seed draws other pairs; on some, the first pair commutes
    for seed in range(10):
        with pytest.raises(InternalCheckError, match="disagrees with the group commutator"):
            _cross_check_brackets(bad, seed)
    _cross_check_brackets(L, 0)


def test_span_memo_keeps_apart_weights_of_one_order():
    """C9 and C3 x C3 share the codes 0..8, yet code 1 spans all of C9 and only (0, *) of
    C3 x C3, so a span is keyed by its weight as well as its candidates."""
    ring = GradedLieRing(None, [SimpleNamespace(orders=(9,)), SimpleNamespace(orders=(3, 3))], {})
    one = np.arange(9) == 1
    assert _span_and_gens(ring, 1, one)[0].all()
    assert _span_and_gens(ring, 2, one)[0].tolist() == [True] * 3 + [False] * 6
    assert _span_and_gens(ring, 1, one)[1] == ((1,),) and _span_and_gens(ring, 2, one)[1] == ((0, 1),)


def test_pl_equals_l_guard():
    # every component order is coprime to p for a p'-group: verified via span lemma path
    G, setup = heis_setup()
    L = lie_ring_of(G)
    for orders in L.orders:
        assert all(m % setup.p for m in orders)


def test_k5_lie_ring_is_built_in_bounded_memory_and_the_lemmas_pass():
    """heisenberg27 x c5 x c7 x c11 under a rank-5 action, |G| = 10,395: the section bases
    read the root's power columns at the divisors of |G|, so building the ring keeps no
    table of every power of every element (185 MB under tracemalloc when it did)."""
    zones = [
        _aut_zone_spec("heisenberg27", {0: "invert-first", 1: "invert-second"}),
        _aut_zone_spec("c5", {2: "pow4"}), _aut_zone_spec("c7", {3: "pow6"}), _aut_zone_spec("c11", {4: "pow10"}),
    ]
    setup = build_setup(FamilySpec(family="zones", params={"p": 2, "k": 5, "zones": zones}))
    assert setup.G.order == 10_395
    tracemalloc.start()
    try:
        ring = lie_ring_of(setup.G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.prod(ring.component_order(w) for w in range(1, ring.class_ + 1)) == setup.G.order
    assert peak < 32 * 2**20
    report = lemma_report(InstanceContext(setup, "k5-heis-diag-c5-c7-c11"))
    assert report.status == "pass", {name: check.status.value for name, check in report.checks.items()}
