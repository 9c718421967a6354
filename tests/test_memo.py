"""Subgroup algebra kept in the root index's memo: the same subgroups on a first call and on a
hit, one commutator closure per pair of masks, read-only cached masks, and no reference cycle."""

import gc
import itertools
import sys
import weakref

import pytest

from coprime_lab import fastset, groups
from coprime_lab.action import ASubgroupDescriptor, all_subspaces, fixed_subgroup, maximal_subgroups
from coprime_lab.errors import ContainmentError
from coprime_lab.groups import commutator_subgroup, generated_in, group_from_generators
from coprime_lab.harness import verify_derived_theorem, verify_gamma_theorem
from coprime_lab.instances import PRESETS, build_setup, preset_entries
from coprime_lab.series import derived_series, derived_term, lower_central_series

from bruteforce import CayleyTable, brute_derived_series, brute_lower_central_series

SMOKE = ["smoke-01-gl-q3n3", "smoke-02-heis-diag-c5", "smoke-03-c3-c5-c7"]
LEMMA_PRESETS = [
    "p2k3-06-c3swap-heis-c5", "p2k4-07-frob21-c5-c11", "p3k3-07-c7-c7-c13", "p3k3-08-c7-mixed",
]


def preset_setup(instance_id):
    return build_setup(dict(preset_entries(instance_id.split("-")[0]))[instance_id])


def twin(H, ambient):
    """H again, generated from its elements in reverse sort order, so with other generators."""
    return generated_in(ambient, reversed(H.sorted_elements()))


def subgroups_under_test(setup):
    """G and its distinct centralizers C_G(A_j), one group per mask."""
    found = {}
    for H in [setup.G] + [fixed_subgroup(setup, A_j) for A_j in maximal_subgroups(setup)]:
        found.setdefault(H.mask_over(setup.G).tobytes(), H)
    return list(found.values())


@pytest.mark.parametrize("instance_id", SMOKE + LEMMA_PRESETS)
def test_series_match_brute_on_a_first_call_a_hit_and_a_twin(instance_id):
    setup = preset_setup(instance_id)
    memo = setup.G.row_index().memo
    for H in subgroups_under_test(setup):
        key = H.mask_over(setup.G).tobytes()
        for series, brute, kind in (
            (lower_central_series, brute_lower_central_series, "lower-central"),
            (derived_series, brute_derived_series, "derived"),
        ):
            expected = [set(term) for term in brute(H.elements())]
            first = series(H)
            assert (kind, key) in memo
            size = len(memo)
            again, other = series(H), series(twin(H, setup.G))
            assert len(memo) == size  # both answered from the memo
            for result, G in ((first, H), (again, H), (other, other.terms[0])):
                assert result.terms[0] is G
                assert [set(term.elements()) for term in result.terms] == expected
                assert result.class_or_length == (len(expected) - 1 if len(expected[-1]) == 1 else None)
                for term in result.terms[1:]:
                    assert generated_in(setup.G, term.generators).same_subgroup(term)


@pytest.mark.parametrize("instance_id", SMOKE + LEMMA_PRESETS)
def test_commutator_subgroups_match_brute_on_a_first_call_a_hit_and_twins(instance_id):
    setup = preset_setup(instance_id)
    G, memo = setup.G, setup.G.row_index().memo
    table = CayleyTable(list(G.generators))
    subgroups = subgroups_under_test(setup)
    for a, H in enumerate(subgroups):
        for K in subgroups[a:]:
            xs, ys = table.indices(H.elements()), table.indices(K.elements())
            expected = table.perms(table.commutator_subgroup(xs, ys))
            first = commutator_subgroup(H, K, G)
            size = len(memo)
            again, other = commutator_subgroup(H, K, G), commutator_subgroup(twin(H, G), twin(K, G), G)
            assert len(memo) == size  # both answered from the memo
            for result in (first, again, other):
                assert result.elements() == expected
                assert generated_in(G, result.generators).same_subgroup(result)


def test_a_setup_is_freed_without_the_cycle_collector():
    """The memo holds arrays, never groups, so nothing it keeps refers back to G."""
    gc.collect()
    gc.disable()
    try:
        setup = preset_setup("p2k3-08-wreath-c5")
        assert verify_derived_theorem(setup, PRESETS["p2k3"].d).status == "pass"
        assert verify_gamma_theorem(setup).status == "pass"
        assert setup.G.row_index().memo
        G = weakref.ref(setup.G)
        del setup
        assert G() is None
    finally:
        gc.enable()


def test_each_commutator_closure_is_computed_once_per_root(monkeypatch):
    setup = preset_setup("p2k3-08-wreath-c5")
    pairs, computed = [], []
    original = groups.commutator_subgroup

    def recorded(H, K, ambient):
        root = ambient._frame()[0]
        pairs.append((id(root), H.mask_over(root).tobytes(), K.mask_over(root).tobytes()))
        return original(H, K, ambient)

    for name, module in list(sys.modules.items()):
        if name.startswith("coprime_lab") and getattr(module, "commutator_subgroup", None) is original:
            monkeypatch.setattr(module, "commutator_subgroup", recorded)
    closure = groups._normal_closure

    def counted(index, seeds, conjugators):
        computed.append(pairs[-1])
        return closure(index, seeds, conjugators)

    monkeypatch.setattr(groups, "_normal_closure", counted)
    assert verify_derived_theorem(setup, PRESETS["p2k3"].d).status == "pass"
    assert verify_gamma_theorem(setup).status == "pass"
    assert len(computed) == len(set(computed)) == len(set(pairs)) < len(pairs)


@pytest.mark.parametrize("instance_id", ["smoke-02-heis-diag-c5", "p2k3-08-wreath-c5"])
def test_pairs_with_equal_commutator_subgroups_share_one_mask_and_keep_their_own_generators(instance_id):
    setup = preset_setup(instance_id)
    G, memo = setup.G, setup.G.row_index().memo
    subgroups = subgroups_under_test(setup)
    by_mask = {}
    for a, H in enumerate(subgroups):
        for K in subgroups[a:]:
            by_mask.setdefault(commutator_subgroup(H, K, G).mask_over(G).tobytes(), []).append((H, K))
    pairs = max(by_mask.values(), key=len)
    assert len(pairs) > 1
    results = [commutator_subgroup(H, K, G) for H, K in pairs]
    for result in results:
        assert result._mask is results[0]._mask
        assert generated_in(G, result.generators).same_subgroup(result)
    assert len({id(result._at) for result in results}) == len(results)
    # and over both theorem suites: one array per distinct mask, one generator array per pair
    assert verify_derived_theorem(setup, PRESETS[instance_id.split("-")[0]].d).status == "pass"
    assert verify_gamma_theorem(setup).status == "pass"
    closed = [entry for key, entry in memo.items() if key[0] == "comm"]
    assert len({id(mask) for mask, _, _ in closed}) == len({mask.tobytes() for mask, _, _ in closed}) < len(closed)
    assert len({id(at) for _, at, _ in closed}) == len(closed)


def test_every_commutator_call_checks_containment_a_memo_hit_too():
    setup = preset_setup("smoke-02-heis-diag-c5")
    G = setup.G
    C = fixed_subgroup(setup, maximal_subgroups(setup)[0])
    fresh = group_from_generators(G.degree, G.generators)  # G again, as a root of its own
    assert not G.is_subgroup_of(C)
    for H, K in ((G, C), (C, G), (G, G), (fresh, fresh)):
        for _ in range(2):  # a first call, then a hit
            commutator_subgroup(H, K, G)
        with pytest.raises(ContainmentError, match="H is not" if H is not C else "K is not"):
            commutator_subgroup(H, K, C)


def test_commutator_memo_hits_make_no_mask_key_and_every_key_is_the_mask_bytes(monkeypatch):
    """A group keeps its mask's memo key once made, and a memo hit hands its result's key out
    with it, so a second round of commutators over the same groups serializes no mask."""
    setup = preset_setup("p2k3-08-wreath-c5")
    G = setup.G
    cents = [fixed_subgroup(setup, A_j) for A_j in maximal_subgroups(setup)]

    def commutators():
        firsts = [commutator_subgroup(H, K, G) for H in cents for K in cents]
        return firsts + [commutator_subgroup(M, C, G) for M in firsts for C in cents]

    for group in commutators() + cents + [G]:
        assert group._mask_key() == group.mask_over(G).tobytes()
    made, mask_key = [], fastset.RowIndex.mask_key

    def counted(index, mask):
        made.append(len(mask))
        return mask_key(index, mask)

    monkeypatch.setattr(fastset.RowIndex, "mask_key", counted)
    commutators()
    assert made == []


def test_cached_masks_are_read_only():
    setup = preset_setup("smoke-02-heis-diag-c5")
    A_j = maximal_subgroups(setup)[0]
    C = fixed_subgroup(setup, A_j)
    assert fixed_subgroup(setup, A_j) is C
    comm = commutator_subgroup(setup.G, setup.G, setup.G)
    for mask in (C.mask_over(setup.G), comm.mask_over(setup.G)):
        with pytest.raises(ValueError):
            mask[0] = not mask[0]


def test_maximal_subgroups_hand_out_a_new_list_each_call():
    setup = preset_setup("smoke-02-heis-diag-c5")
    first = maximal_subgroups(setup)
    first.clear()
    assert len(maximal_subgroups(setup)) == (setup.p**setup.k - 1) // (setup.p - 1)
    assert maximal_subgroups(setup) == maximal_subgroups(setup)


def test_derived_term_zero_is_the_group_itself_and_builds_no_series():
    setup = preset_setup("p2k3-07-heis-diag-c5")
    C = fixed_subgroup(setup, maximal_subgroups(setup)[0])
    memo = setup.G.row_index().memo

    def derived_keys():
        return [key for key in memo if key[0] == "derived"]

    assert not derived_keys()
    for H in (setup.G, C):
        assert derived_term(H, 0) is H
    assert not derived_keys()
    assert derived_term(setup.G, 1).same_subgroup(derived_series(setup.G).terms[1])
    assert len(derived_keys()) == 1


def test_the_lists_built_once_per_p_and_k_are_handed_out_as_new_lists():
    subspaces = all_subspaces(2, 3)
    subspaces[0] = subspaces.pop()
    assert all_subspaces(2, 3) == sorted(all_subspaces(2, 3), key=lambda B: (B.codim, B.vectors))
    assert len(all_subspaces(2, 3)) == 16
    # two set-ups with the same (p, k) = (2, 3), over different groups
    first, second = preset_setup("smoke-02-heis-diag-c5"), preset_setup("p2k3-11-frob21-c5-c5")
    maximals = maximal_subgroups(first)
    maximals.reverse()
    assert maximal_subgroups(first) == maximal_subgroups(second) == maximals[::-1]
    assert maximal_subgroups(first) is not maximal_subgroups(second)


@pytest.mark.parametrize("p, k", [(2, 3), (2, 4), (3, 3)])
def test_generated_by_equals_from_vectors_for_every_vector_in_any_form(p, k):
    for v in itertools.product(range(p), repeat=k):
        expected = ASubgroupDescriptor.from_vectors(p, k, [v])
        for given in (v, list(v), (*v[:-1], v[-1] + p)):
            assert ASubgroupDescriptor.generated_by(p, k, given) == expected, given
