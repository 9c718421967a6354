"""Tests for the instance families and the instance file format."""

import hashlib
import json
from pathlib import Path

import pytest

from coprime_lab.action import (
    ASubgroupDescriptor,
    ActionSetup,
    Automorphism,
    all_subspaces,
    fixed_subgroup,
    maximal_subgroups,
    validate_setup,
)
from coprime_lab.errors import CapacityError, GenerationError, InstanceFormatError, ValidationError
from coprime_lab.groups import group_from_generators
from coprime_lab.instances import (
    MAX_SUBSPACES,
    FamilySpec,
    _subspace_count,
    build_setup,
    extraspecial_group,
    gen_coordinate_permutation,
    gen_direct_sum,
    gen_extraspecial,
    gen_gl_module,
    get_block,
    load_instance,
    preset_entries,
    save_instance,
    setup_to_dict,
)
from coprime_lab.perms import Perm
from coprime_lab.series import is_nilpotent, nilpotency_class

from bruteforce import mulclose
from support import block_group, nilpotent_zoo


# ------------------------------------------------------------------ blocks


def test_blocks_have_verified_automorphisms():
    for name in ("heisenberg27", "wreath81", "frob21", "d7", "c7"):
        block = get_block(name)
        G = block_group(name)
        for aut_name, images in block.auts.items():
            from coprime_lab.action import Automorphism

            auto = Automorphism(G, dict(zip(block.gens, images)))
            auto.table  # builds and verifies


def test_block_orders():
    assert block_group("heisenberg27").order == 27
    assert block_group("wreath81").order == 81
    assert block_group("frob21").order == 21
    assert block_group("d7").order == 14
    # the literal order that refuses an over-cap direct sum before any enumeration
    for name in ("heisenberg27", "wreath81", "frob21", "d7", "c3", "c5", "c7", "c11", "c13", "c27", "c81"):
        assert get_block(name).order == block_group(name).order, name


@pytest.mark.parametrize("name", ["c0", "c", "nope"])
def test_unknown_blocks_are_refused(name):
    with pytest.raises(GenerationError, match="unknown block"):
        get_block(name)


def test_extraspecial_groups():
    for q, m in ((3, 1), (3, 2), (5, 1), (7, 1)):
        G = extraspecial_group(q, m)
        assert G.order == q ** (2 * m + 1)
        assert nilpotency_class(G) == 2
        # exponent q
        assert all(x.order() in (1, q) for x in G.elements())


# ---------------------------------------------------------------- gl module


def test_gl_module_inversion_on_c3():
    setup = gen_gl_module(3, 1, 2, 1)
    assert setup.G.order == 3
    assert fixed_subgroup(setup, ASubgroupDescriptor.full(2, 1)).is_trivial


def test_gl_module_diag_signs():
    setup = gen_gl_module(7, 3, 2, 3)
    assert setup.G.order == 343
    assert validate_setup(setup).ok
    # rank exactly k: all nonzero vectors act nontrivially here
    for a in setup.nonzero_vectors():
        assert not setup.phi(a).is_identity()


def test_gl_module_rank_limit():
    with pytest.raises(GenerationError):
        gen_gl_module(3, 2, 2, 3)  # rank 3 needs 3 blocks in GL(2, 3)


def test_gl_module_coprimality_guard():
    with pytest.raises(GenerationError):
        gen_gl_module(3, 2, 3, 1)  # q == p


def test_gl_module_block_size_two():
    # ord_3(5) = 2: order-3 matrices in GL(2, 5) via the cyclotomic companion
    setup = gen_gl_module(5, 2, 3, 1)
    assert setup.G.order == 25
    assert validate_setup(setup).ok
    assert not setup.basis[0].is_identity()


def test_gl_module_seed_determinism():
    a = gen_gl_module(3, 4, 2, 4, seed=5)
    b = gen_gl_module(3, 4, 2, 4, seed=5)
    assert setup_to_dict(a) == setup_to_dict(b)


# ------------------------------------------------------------- coordinate


def test_coordinate_swap_fixed_points():
    setup = gen_coordinate_permutation("c3", 2, 1, cycles=1)
    assert setup.G.order == 9
    fixed = fixed_subgroup(setup, ASubgroupDescriptor.full(2, 1))
    assert fixed.order == 3  # the diagonal


def test_cycle_zone_moves_each_copy_to_the_next():
    setup = gen_coordinate_permutation("c5", 3, 1, cycles=1)
    gens = setup.G.generators
    assert setup.basis[0].images == {gens[0]: gens[1], gens[1]: gens[2], gens[2]: gens[0]}


def test_coordinate_heisenberg_aut_zone():
    setup = gen_coordinate_permutation("heisenberg27", 2, 1, cycles=0, aut="invert-both")
    assert setup.G.order == 27
    assert validate_setup(setup).ok


def test_coordinate_mixed_zones():
    setup = gen_coordinate_permutation("c3", 2, 3, cycles=1, aut="pow2")
    # one swap zone (C3^2) and two inversion zones (C3 each)
    assert setup.G.order == 9 * 3 * 3
    assert validate_setup(setup).ok


# ------------------------------------------------------------- direct sum


def test_direct_sum_single_summand_identity_transform():
    base = gen_gl_module(3, 2, 2, 2)
    total = gen_direct_sum([base])
    assert total.G.order == base.G.order
    assert total.k == base.k


def test_direct_sum_fixed_points_factor():
    inv_c3 = gen_gl_module(3, 1, 2, 1)
    triv_c5 = gen_coordinate_permutation("c5", 2, 1, cycles=0, aut="pow4")
    # replace the c5 action by trivial: build via zones family instead
    spec = FamilySpec(family="zones", params={"p": 2, "k": 1, "zones": [
        {"block": "c5", "assignments": {}},
    ]})
    triv_c5 = build_setup(spec)
    combined = gen_direct_sum([inv_c3, triv_c5])
    fixed = fixed_subgroup(combined, ASubgroupDescriptor.full(2, 1))
    assert fixed.order == 5  # the C5 summand survives


def test_direct_sum_p_mismatch():
    a = gen_gl_module(3, 1, 2, 1)
    b = gen_gl_module(7, 1, 3, 1)
    with pytest.raises(ValidationError):
        gen_direct_sum([a, b])


def test_direct_sum_padding_to_common_k():
    a = gen_extraspecial(7, 1, 3, 1)
    combined = gen_direct_sum([a], k=3)
    assert combined.k == 3
    assert validate_setup(combined).ok
    # padded basis vectors fix everything
    fixed = fixed_subgroup(combined, ASubgroupDescriptor.generated_by(3, 3, (0, 0, 1)))
    assert fixed.order == combined.G.order


def test_direct_sum_structural_oracle():
    """Fixed subgroups, classes, and family members factor across a direct sum."""
    from coprime_lab.groups import Group
    from coprime_lab.special import a_special_lattice

    left = build_setup(FamilySpec(family="zones", params={"p": 2, "k": 2, "zones": [
        {"block": "heisenberg27", "assignments": {"0": "invert-first", "1": "invert-second"}},
    ]}))
    right = build_setup(FamilySpec(family="zones", params={"p": 2, "k": 2, "zones": [
        {"block": "c5", "assignments": {"0": "pow4"}},
    ]}))
    total = gen_direct_sum([left, right])

    # fixed subgroups factor across the summands
    for B in maximal_subgroups(total) + [ASubgroupDescriptor.full(2, 2)]:
        combined = fixed_subgroup(total, B)
        expect = fixed_subgroup(left, B).order * fixed_subgroup(right, B).order
        assert combined.order == expect

    # nilpotency class of the product is the max of the factor classes
    assert nilpotency_class(total.G) == max(
        nilpotency_class(left.G), nilpotency_class(right.G)
    )

    # degree-1 members project into degree-1 members of each factor
    def project(member, offset, degree):
        gens = [
            [img - offset for img in g.images[offset : offset + degree]]
            for g in member.generators
        ]
        return Group(max(degree, 1), gens)

    total_fams = a_special_lattice(total, 1)
    factor_fams = [a_special_lattice(left, 1), a_special_lattice(right, 1)]
    offsets = [0, left.G.degree]
    degrees = [left.G.degree, right.G.degree]
    for member in total_fams[1].members:
        for fams, off, deg in zip(factor_fams, offsets, degrees):
            image = project(member, off, deg)
            assert any(image.is_subgroup_of(m) for m in fams[1].members)


# ------------------------------------------------------------------ zones


@pytest.mark.parametrize("zone", [
    {"block": "c5", "assignments": {"7": "pow4"}},
    {"block": "c5", "assignments": {"-1": "pow4"}},
    {"block": "c5", "cycle_basis": 9},
])
def test_zone_basis_vector_outside_rank_is_refused(zone):
    spec = FamilySpec(family="zones", params={"p": 2, "k": 3, "zones": [zone]})
    with pytest.raises(GenerationError, match="zone basis vector -?[0-9]+ lies outside 0..2"):
        build_setup(spec)


@pytest.fixture
def work(monkeypatch):
    """Counts of groups enumerated and automorphism tables built."""
    from coprime_lab import groups

    counts = {"enumerations": 0, "tables": 0}
    enumerate_, build_table = groups._enumerate, Automorphism._build_table

    def counting_enumerate(*args):
        counts["enumerations"] += 1
        return enumerate_(*args)

    def counting_build_table(self):
        counts["tables"] += 1
        return build_table(self)

    monkeypatch.setattr(groups, "_enumerate", counting_enumerate)
    monkeypatch.setattr(Automorphism, "_build_table", counting_build_table)
    return counts


ZONES_ENTRIES = [
    (name, spec) for preset in ("p2k3", "p2k4", "p3k3", "smoke")
    for name, spec in preset_entries(preset) if spec.family == "zones"
]


@pytest.mark.parametrize("name, spec", ZONES_ENTRIES, ids=[name for name, _ in ZONES_ENTRIES])
def test_zones_preset_builds_one_group_and_k_tables(work, name, spec):
    setup = build_setup(spec)
    assert work == {"enumerations": 1, "tables": setup.k}


def test_over_cap_zones_are_refused_without_enumeration(work):
    spec = FamilySpec(family="zones", params={"p": 2, "k": 3, "zones": [
        {"block": "heisenberg27", "assignments": {"0": "invert-both"}},
        {"block": "wreath81", "assignments": {"1": "invert-base"}},
        {"block": "c7", "assignments": {"2": "pow6"}},
        {"block": "c11", "assignments": {}},
        {"block": "c13", "assignments": {}},
    ]})
    with pytest.raises(CapacityError, match="^direct product order 2189187 exceeds the cap 200000$"):
        build_setup(spec, cap=200_000)
    assert work == {"enumerations": 0, "tables": 0}


# ------------------------------------------------------------ extraspecial


def test_extraspecial_negate_pair():
    setup = gen_extraspecial(3, 1, 2, 1)
    assert setup.G.order == 27
    assert validate_setup(setup).ok
    C = fixed_subgroup(setup, ASubgroupDescriptor.full(2, 1))
    assert C.order == 3  # the center survives the sign flip


def test_extraspecial_scale_pair():
    setup = gen_extraspecial(7, 1, 3, 1)
    assert setup.G.order == 343
    assert validate_setup(setup).ok
    C = fixed_subgroup(setup, ASubgroupDescriptor.full(3, 1))
    assert C.order == 7


def test_extraspecial_two_pairs():
    setup = gen_extraspecial(3, 2, 2, 2)
    assert setup.G.order == 243
    assert validate_setup(setup).ok


def test_extraspecial_unrealizable_k():
    with pytest.raises(GenerationError):
        gen_extraspecial(3, 1, 2, 2)
    with pytest.raises(GenerationError):
        gen_extraspecial(7, 1, 5, 1)  # 5 divides neither 2 nor 6


# ----------------------------------------------------------------- presets


def test_presets_build_and_validate():
    seen = set()
    for preset in ("p2k3", "p2k4", "p3k3", "smoke"):
        for name, spec in preset_entries(preset):
            assert name not in seen
            seen.add(name)
    # spot-build one from each preset
    for preset in ("p2k3", "p2k4", "p3k3"):
        name, spec = preset_entries(preset)[0]
        setup = build_setup(spec)
        assert validate_setup(setup).ok


def test_nilpotent_zoo_contract():
    zoo = nilpotent_zoo()
    assert len(zoo) >= 20
    for name, G in zoo:
        assert 27 <= G.order <= 2187, name
        assert is_nilpotent(G), name


def test_closure_matches_brute_on_a_generated_instance():
    setup = build_setup(preset_entries("p2k3")[6][1])  # heis-diag-c5
    brute = mulclose(list(setup.G.generators))
    assert setup.G.order == len(brute)


# ------------------------------------------------------------ file format


def test_generated_instances_match_pinned_hashes(tmp_path):
    """Every preset entry saves to the bytes pinned in data/instance_sha256.json."""
    pinned = json.loads((Path(__file__).parent / "data" / "instance_sha256.json").read_text())
    saved = {}
    for preset in ("p2k3", "p2k4", "p3k3", "smoke"):
        for name, spec in preset_entries(preset):
            path = save_instance(build_setup(spec), tmp_path / f"{name}.json")
            saved[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert len(saved) == 38
    assert saved == pinned


def test_load_rejects_identity_or_repeated_generator(tmp_path):
    """The action is keyed by the file's generator positions, so a generator list that
    the group would shorten must not load with its images shifted onto other generators."""
    rotation = [1, 2, 3, 4, 0]
    for generators, action in (
        ([[0, 1, 2, 3, 4], rotation], {"1": {"0": [4, 0, 1, 2, 3]}}),
        ([rotation, rotation], {"1": {"0": [4, 0, 1, 2, 3], "1": [4, 0, 1, 2, 3]}}),
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 1, "p": 2, "k": 1, "group": {"degree": 5, "generators": generators},
                                    "action": action}))
        with pytest.raises(InstanceFormatError, match=": group.generators: lists the identity or a permutation twice"):
            load_instance(path)


def test_save_load_roundtrip(tmp_path):
    name, spec = preset_entries("smoke")[1]
    setup = build_setup(spec)
    path = tmp_path / f"{name}.json"
    save_instance(setup, path)
    reloaded = load_instance(path)
    assert reloaded.G.order == setup.G.order
    for B in maximal_subgroups(setup):
        assert fixed_subgroup(reloaded, B).order == fixed_subgroup(setup, B).order
    # byte-stable re-export
    text = path.read_text()
    save_instance(reloaded, path)
    assert path.read_text() == text


def test_load_rejects_coprimality_violation(tmp_path):
    setup = build_setup(preset_entries("smoke")[0][1])
    data = setup_to_dict(setup)
    data["p"] = 3  # |G| = 27
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceFormatError):
        load_instance(path)


def test_load_rejects_non_prime_p(tmp_path):
    setup = build_setup(preset_entries("smoke")[0][1])
    data = setup_to_dict(setup)
    data["p"] = 4  # coprime to |G| = 27, and every basis automorphism has order dividing 4
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceFormatError, match=": p: must be a prime"):
        load_instance(path)


@pytest.mark.parametrize("k", [0, -1])
def test_load_rejects_k_below_one(tmp_path, k):
    data = setup_to_dict(build_setup(preset_entries("smoke")[0][1]))
    data["k"] = k
    data["action"] = {}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceFormatError, match=": k: must be at least 1"):
        load_instance(path)


def test_subspace_count_matches_enumeration():
    for p, k in [(2, 1), (2, 4), (2, 5), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]:
        assert _subspace_count(p, k) == len(all_subspaces(p, k)), (p, k)
    assert [_subspace_count(2, k) for k in range(9)] == [1, 2, 5, 16, 67, 374, 2825, 29212, 417199]


def trivial_action_file(tmp_path, p, k):
    """A rank-k trivial action on C_11, saved as an instance file."""
    G = group_from_generators(11, [Perm.from_cycles(11, tuple(range(11)))])
    return save_instance(ActionSetup(G, p, k, [Automorphism.identity(G)] * k), tmp_path / f"p{p}k{k}.json")


@pytest.mark.parametrize("p, k", [(2, 7), (3, 6), (5, 5)])
def test_load_accepts_subspace_lattices_under_the_bound(tmp_path, p, k):
    assert _subspace_count(p, k) <= MAX_SUBSPACES
    assert load_instance(trivial_action_file(tmp_path, p, k)).k == k


@pytest.mark.parametrize("p, k", [(2, 8), (3, 7), (7, 5)])
def test_load_rejects_too_many_subspaces(tmp_path, p, k):
    with pytest.raises(InstanceFormatError, match=rf": k: \(Z/{p}\)\^{k} has {_subspace_count(p, k)} subspaces"):
        load_instance(trivial_action_file(tmp_path, p, k))


def test_load_rejects_large_prime_p_by_order(tmp_path):
    # a prime far above every automorphism order: the order check squares
    # the table rather than composing it p times
    setup = build_setup(preset_entries("smoke")[0][1])
    data = setup_to_dict(setup)
    data["p"] = 1_000_003
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceFormatError, match="order not dividing p = 1000003"):
        load_instance(path)


def test_load_rejects_non_homomorphism(tmp_path):
    setup = build_setup(preset_entries("smoke")[1][1])
    data = setup_to_dict(setup)
    # corrupt one basis image into a non-homomorphism
    key = "1,0,0"
    gen_images = data["action"][key]
    arr = gen_images["0"]
    arr[0], arr[1] = arr[1], arr[0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceFormatError):
        load_instance(path)


def test_load_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 2}))
    with pytest.raises(InstanceFormatError):
        load_instance(path)
    path.write_text("{not json")
    with pytest.raises(InstanceFormatError):
        load_instance(path)
