"""Right translates and automorphism tables composed along one spanning tree of each root's
Cayley graph."""

import itertools
import random

import numpy as np
import pytest

from coprime_lab import fastset
from coprime_lab.action import Automorphism
from coprime_lab.errors import ValidationError
from coprime_lab.fastset import RowIndex
from coprime_lab.harness import InstanceContext, lemma_report, verify_derived_theorem, verify_gamma_theorem
from coprime_lab.groups import group_from_generators
from coprime_lab.instances import PRESETS, build_setup, load_instance, preset_entries, save_instance
from coprime_lab.perms import Perm

from bruteforce import brute_automorphism_table

SMOKE = ["smoke-01-gl-q3n3", "smoke-02-heis-diag-c5", "smoke-03-c3-c5-c7"]
LEMMA_PRESETS = [
    "p2k3-06-c3swap-heis-c5", "p2k4-07-frob21-c5-c11", "p3k3-07-c7-c7-c13", "p3k3-08-c7-mixed",
]
ALL_PRESET_ENTRIES = [entry for name in sorted(PRESETS) for entry in preset_entries(name)]


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
    built = []
    original = fastset._spanning_tree

    def counted(index):
        built.append((index, tuple(index.gens.tolist())))
        return original(index)

    monkeypatch.setattr(fastset, "_spanning_tree", counted)
    setup = preset_setup("p2k4-07-frob21-c5-c11")
    index = setup.G.row_index()
    assert [gens for at, gens in built if at is index] == [tuple(setup.G._at.tolist())]
    built.clear()
    path = save_instance(setup, tmp_path / "frob.json")
    loaded = load_instance(path)
    assert [gens for _, gens in built] == [tuple(loaded.G._at.tolist())]
    assert built[0][0] is loaded.G.row_index()


@pytest.mark.parametrize("instance_id", SMOKE + LEMMA_PRESETS)
def test_set_up_looks_up_only_generator_translates_and_positions(instance_id, monkeypatch, tmp_path):
    """Loading an instance looks up the translates of G's generators, each once, and rows of
    given elements, but never the translate of a generator image."""
    path = save_instance(preset_setup(instance_id), tmp_path / "instance.json")
    translating, found = [], []
    find, right = RowIndex._find, RowIndex.right

    def counted_right(self, i):
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
    setup = load_instance(path)
    index = setup.G.row_index()
    assert {at for at, _, _ in found} == {index}
    translated = [i for _, i, _ in found if i is not None]
    assert sorted(translated) == sorted(setup.G._at.tolist())
    images = {i for auto in setup.basis for i in auto.table[setup.G._at].tolist()}
    assert images - set(translated)
    # the rest are positions of given elements: the identity, the generators and their images
    assert max(rows for _, i, rows in found if i is None) <= 2 * len(setup.G.generators)


@pytest.mark.parametrize("instance_id", SMOKE + LEMMA_PRESETS)
def test_every_suite_looks_up_only_generator_translates(instance_id, monkeypatch):
    """Through set-up, the lemma suite and both theorem suites, every translate that ``right``
    looks up by whole rows is a generator's, on every index; afterwards every translate
    that G's index keeps, composed or looked up, equals the whole-row lookup."""
    translating, looked_up = [], []
    find, right = RowIndex._find, RowIndex.right

    def counted_right(self, i):
        translating.append(i)
        try:
            return right(self, i)
        finally:
            translating.pop()

    def counted_find(self, rows):
        if translating:
            looked_up.append((self, translating[-1]))
        return find(self, rows)

    monkeypatch.setattr(RowIndex, "right", counted_right)
    monkeypatch.setattr(RowIndex, "_find", counted_find)
    setup = preset_setup(instance_id)
    ctx = InstanceContext(setup, instance_id)
    assert lemma_report(ctx).status == "pass"
    assert verify_derived_theorem(setup, PRESETS[instance_id.split("-")[0]].d, ctx=ctx).status == "pass"
    assert verify_gamma_theorem(setup, ctx=ctx).status == "pass"
    index = setup.G.row_index()
    assert {i for at, i in looked_up if at is index} == set(setup.G._at.tolist())
    assert all(i in at.gens for at, i in looked_up)
    monkeypatch.undo()
    assert len(index._right) > 2 * len(setup.G._at)
    for i, t in index._right.items():
        assert np.array_equal(t, translate_by_lookup(index, i)), i


def test_a_group_with_no_generators_has_the_one_entry_table():
    G = group_from_generators(3, [])
    assert Automorphism(G, {}).table.tolist() == [0]
    assert G.row_index().tree.order.tolist() == [0]


@pytest.mark.parametrize("generators", [
    [Perm.from_cycles(3, (0, 1)), Perm.from_cycles(3, (0, 1, 2))],
    [Perm.from_cycles(3, (0, 1, 2)), Perm.from_cycles(3, (0, 1))],
    [Perm.from_cycles(4, (0, 1, 2, 3)), Perm.from_cycles(4, (0, 2))],
    [Perm.from_cycles(4, (0, 2)), Perm.from_cycles(4, (0, 1, 2, 3))],
])
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

