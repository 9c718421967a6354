"""Right translates and automorphism tables composed along one spanning tree of each root's
Cayley graph."""

import itertools
import random

import numpy as np
import pytest

from coprime_lab import groups
from coprime_lab.action import Automorphism
from coprime_lab.errors import ValidationError
from coprime_lab.fastset import RowIndex
from coprime_lab.harness import InstanceContext, lemma_report, verify_derived_theorem, verify_gamma_theorem
from coprime_lab.groups import commutator_subgroup, generated_in, group_from_generators
from coprime_lab.instances import PRESETS, build_setup, load_instance, preset_entries, save_instance
from coprime_lab.perms import Perm

from bruteforce import brute_automorphism_table, brute_spanning_tree

SMOKE = ["smoke-01-gl-q3n3", "smoke-02-heis-diag-c5", "smoke-03-c3-c5-c7"]
LEMMA_PRESETS = [
    "p2k3-06-c3swap-heis-c5", "p2k4-07-frob21-c5-c11", "p3k3-07-c7-c7-c13", "p3k3-08-c7-mixed",
]
ALL_PRESET_ENTRIES = [entry for name in sorted(PRESETS) for entry in preset_entries(name)]
S3_D4 = [
    [Perm.from_cycles(3, (0, 1)), Perm.from_cycles(3, (0, 1, 2))],
    [Perm.from_cycles(3, (0, 1, 2)), Perm.from_cycles(3, (0, 1))],
    [Perm.from_cycles(4, (0, 1, 2, 3)), Perm.from_cycles(4, (0, 2))],
    [Perm.from_cycles(4, (0, 2)), Perm.from_cycles(4, (0, 1, 2, 3))],
]


def preset_setup(instance_id):
    return build_setup(dict(preset_entries(instance_id.split("-")[0]))[instance_id])


def translate_by_lookup(index, i):
    return index.lookup(index.rows[i][index.rows])


@pytest.mark.parametrize("instance_id,spec", ALL_PRESET_ENTRIES, ids=[iid for iid, _ in ALL_PRESET_ENTRIES])
def test_every_preset_basis_table_matches_the_brute_table(instance_id, spec):
    setup = build_setup(spec)
    G = setup.G
    ordered = G.sorted_elements()
    position = {x: i for i, x in enumerate(ordered)}
    for auto in setup.basis:
        brute = brute_automorphism_table(G, auto.images)
        assert auto.table.tolist() == [position[brute[x]] for x in ordered]


def assert_records_the_oracle_graph(index, generators):
    """The Cayley graph that enumeration recorded for ``index``: each generator's translate
    equals the whole-row lookup; parent, generator and round offsets equal the whole-row
    breadth-first oracle's; and the row of parent * g is the row of x on every tree edge."""
    assert index.perms(index.gens) == list(generators)
    for g in index.gens.tolist():
        assert np.array_equal(index.right(g), translate_by_lookup(index, g))
    edge, rounds = brute_spanning_tree(index.rows.shape[1], list(generators))
    elements = index.perms(range(len(index)))
    position = {x: i for i, x in enumerate(elements)}
    assert len(edge) == len(index) and edge[elements[index.identity]] is None
    tree, found = index.tree, [position[x] for x in edge]
    assert tree.rounds.tolist() == rounds and tree.order[0] == index.identity
    for start, stop in zip(rounds[:-1], rounds[1:]):
        assert sorted(tree.order[start:stop].tolist()) == sorted(found[start:stop])
    children, edges = found[1:], list(edge.values())[1:]
    assert tree.parent[children].tolist() == [position[parent] for parent, _ in edges]
    assert tree.gen[children].tolist() == [j for _, j in edges]
    moves = index.rows[index.gens]
    products = moves[tree.gen[children][:, None], index.rows[tree.parent[children]]]
    assert np.array_equal(products, index.rows[children])


def assert_records_the_oracle_graph_on_masked_subgroups(G):
    """G's graph, and the graph of the index that a subgroup masked over G's index
    enumerates from its own generators: its rows are G's rows under the mask."""
    assert_records_the_oracle_graph(G.row_index(), G.generators)
    for H in (generated_in(G, G.generators[1:]), commutator_subgroup(G, G, G)):
        assert H._root is G and H._rows is None
        index = H.row_index()
        assert index is not G.row_index() and np.array_equal(index.rows, G.row_index().rows[H._mask])
        assert_records_the_oracle_graph(index, H.generators)


@pytest.mark.parametrize("instance_id,spec", ALL_PRESET_ENTRIES, ids=[iid for iid, _ in ALL_PRESET_ENTRIES])
def test_every_preset_records_the_breadth_first_oracle_graph(instance_id, spec):
    assert_records_the_oracle_graph_on_masked_subgroups(build_setup(spec).G)


@pytest.mark.parametrize(
    "generators", S3_D4 + [[]],
    ids=["s3-flip-rotate", "s3-rotate-flip", "d4-rotate-flip", "d4-flip-rotate", "no-generators"],
)
def test_small_groups_record_the_breadth_first_oracle_graph(generators):
    degree = generators[0].degree if generators else 3
    assert_records_the_oracle_graph_on_masked_subgroups(group_from_generators(degree, generators))


def test_the_tree_spans_the_group_round_by_round():
    setup = preset_setup("smoke-02-heis-diag-c5")
    index, gens = setup.G.row_index(), setup.G._at.tolist()
    tree = index.tree
    assert index.tree is tree and index.gens.tolist() == gens
    assert sorted(tree.order.tolist()) == list(range(len(index)))
    assert tree.order[0] == index.identity and tree.rounds[0] == 0 and tree.rounds[-1] == len(index)
    depth = np.zeros(len(index), dtype=int)
    for r, (start, stop) in enumerate(zip(tree.rounds[:-1], tree.rounds[1:])):
        depth[tree.order[start:stop]] = r
    for x in tree.order[1:].tolist():
        parent, g = int(tree.parent[x]), gens[tree.gen[x]]
        assert index.right(g)[parent] == x and depth[parent] == depth[x] - 1
    # breadth first: no element could have been reached a round earlier
    for g in gens:
        assert (depth[index.right(g)] <= depth + 1).all()


@pytest.mark.parametrize("instance_id", SMOKE + LEMMA_PRESETS)
def test_image_translates_composed_along_the_tree_match_the_lookup(instance_id):
    setup = preset_setup(instance_id)
    index = setup.G.row_index()
    at = setup.G._at
    for auto in setup.basis:
        for i in auto.table[at].tolist():
            cached = index._right[i]
            assert index.right(i) is cached
            assert np.array_equal(cached, translate_by_lookup(index, i))
    # a fresh index: the identity (empty path), a generator, then every element in random order
    G = group_from_generators(setup.G.degree, setup.G.generators)
    index = G.row_index()
    assert index.right(index.identity).tolist() == list(range(len(index)))
    g = int(G._at[-1])
    assert np.array_equal(index.right(g), translate_by_lookup(index, g))
    elements = list(range(len(index)))
    random.Random(instance_id).shuffle(elements)
    for i in elements[:200]:
        assert np.array_equal(index.right(i), translate_by_lookup(index, i)), i


def test_building_every_basis_table_of_a_set_up_builds_the_tree_once(monkeypatch, tmp_path):
    """The tree is recorded by the one enumeration of G, which the tables then read."""
    built = []
    original = groups._enumerate

    def counted(degree, generators, cap):
        rows, translates, tree = original(degree, generators, cap)
        built.append((tree, tuple(generators)))
        return rows, translates, tree

    monkeypatch.setattr(groups, "_enumerate", counted)
    setup = preset_setup("p2k4-07-frob21-c5-c11")
    assert all(auto.table is not None for auto in setup.basis)
    tree = setup.G.row_index().tree
    assert [gens for at, gens in built if at is tree] == [setup.G.generators]
    built.clear()
    path = save_instance(setup, tmp_path / "frob.json")
    loaded = load_instance(path)
    assert all(auto.table is not None for auto in loaded.basis)
    assert [gens for _, gens in built] == [loaded.G.generators]
    assert built[0][0] is loaded.G.row_index().tree


def _count_lookups(monkeypatch):
    """Wrap ``RowIndex.right`` and ``RowIndex._find``: returns the translates asked for and,
    for every lookup, (index, the translate being built or None, number of rows)."""
    asked, translating, found = [], [], []
    find, right = RowIndex._find, RowIndex.right

    def counted_right(self, i):
        asked.append(i)
        translating.append(i)
        try:
            return right(self, i)
        finally:
            translating.pop()

    def counted_find(self, rows):
        found.append((self, translating[-1] if translating else None, len(rows)))
        return find(self, rows)

    monkeypatch.setattr(RowIndex, "right", counted_right)
    monkeypatch.setattr(RowIndex, "_find", counted_find)
    return asked, found


@pytest.mark.parametrize("instance_id", SMOKE + LEMMA_PRESETS)
def test_set_up_looks_up_only_generator_translates_and_positions(instance_id, monkeypatch, tmp_path):
    """Loading an instance looks up no translate by whole rows, not even a generator's, whose
    translate is recorded by enumeration; it looks up only rows of given elements, while
    the translates of the generators' images are composed along the tree."""
    path = save_instance(preset_setup(instance_id), tmp_path / "instance.json")
    asked, found = _count_lookups(monkeypatch)
    setup = load_instance(path)
    index = setup.G.row_index()
    assert {at for at, _, _ in found} == {index}
    assert [i for _, i, _ in found if i is not None] == []
    images = {i for auto in setup.basis for i in auto.table[setup.G._at].tolist()}
    assert images <= set(asked) and images - set(setup.G._at.tolist())
    # the rows looked up are positions of given elements: the identity, the generators and their images
    assert max(rows for _, _, rows in found) <= 2 * len(setup.G.generators)


@pytest.mark.parametrize("instance_id", SMOKE + LEMMA_PRESETS)
def test_every_suite_looks_up_only_generator_translates(instance_id, monkeypatch):
    """Through set-up, the lemma suite and both theorem suites, ``right`` looks up no
    translate by whole rows on any index; afterwards every translate that G's index keeps,
    recorded or composed, equals the whole-row lookup."""
    asked, found = _count_lookups(monkeypatch)
    setup = preset_setup(instance_id)
    ctx = InstanceContext(setup, instance_id)
    assert lemma_report(ctx).status == "pass"
    assert verify_derived_theorem(setup, PRESETS[instance_id.split("-")[0]].d, ctx=ctx).status == "pass"
    assert verify_gamma_theorem(setup, ctx=ctx).status == "pass"
    assert [i for _, i, _ in found if i is not None] == []
    monkeypatch.undo()
    index = setup.G.row_index()
    assert set(asked) - set(index.gens.tolist()) and len(index._right) > 2 * len(setup.G._at)
    for i, t in index._right.items():
        assert np.array_equal(t, translate_by_lookup(index, i)), i


def test_a_group_with_no_generators_has_the_one_entry_table():
    G = group_from_generators(3, [])
    assert Automorphism(G, {}).table.tolist() == [0]
    assert G.row_index().tree.order.tolist() == [0]


@pytest.mark.parametrize("generators", S3_D4)
def test_every_map_of_the_generators_is_tabulated_or_rejected_as_brute_force_says(generators):
    """Every assignment of images in G to the generators of S3 or D4, in both generator
    orders: a homomorphism gets the brute table or is non-bijective, any other map fails
    the edge check, some of them on the last generator's edges alone."""
    G = group_from_generators(generators[0].degree, generators)
    ordered = G.sorted_elements()
    position = {x: i for i, x in enumerate(ordered)}
    for images in itertools.product(ordered, repeat=len(G.generators)):
        given = dict(zip(G.generators, images))
        try:
            brute = brute_automorphism_table(G, given)
        except AssertionError:
            with pytest.raises(ValidationError, match="do not define a homomorphism"):
                Automorphism(G, given).table
            continue
        if len(set(brute.values())) < len(ordered):
            with pytest.raises(ValidationError, match="non-bijective"):
                Automorphism(G, given).table
        else:
            assert Automorphism(G, given).table.tolist() == [position[brute[x]] for x in ordered]

