"""The row index of an enumerated group, and what is built on it, against brute force."""

import itertools
import tracemalloc

import numpy as np
import pytest

from coprime_lab import fastset, groups, lie
from coprime_lab.action import maximal_subgroups
from coprime_lab.errors import ContainmentError, InternalCheckError, ValidationError
from coprime_lab.fastset import coset_labels, setwise_product_covers
from coprime_lab.groups import (
    Group, _section_basis, abelian_section, generated_in, group_from_generators,
    sylow_subgroup,
)
from coprime_lab.harness import (
    InstanceContext, lemma_report, random_invariant_subgroups, verify_derived_theorem, verify_gamma_theorem,
)
from coprime_lab.instances import PRESETS, build_setup, preset_entries
from coprime_lab.perms import Perm
from coprime_lab.series import lower_central_series

from bruteforce import (
    brute_abelian_section, brute_action_tables, brute_fixed_elements, brute_lower_central_series, brute_span,
    mulclose,
)
from support import center

SMOKE = ["smoke-01-gl-q3n3", "smoke-02-heis-diag-c5", "smoke-03-c3-c5-c7"]
LEMMA_PRESETS = [
    "p2k3-06-c3swap-heis-c5", "p2k4-07-frob21-c5-c11", "p3k3-07-c7-c7-c13", "p3k3-08-c7-mixed",
]


def preset_setup(instance_id):
    return build_setup(dict(preset_entries(instance_id.split("-")[0]))[instance_id])


def s3():
    return group_from_generators(3, [Perm.from_cycles(3, (0, 1)), Perm.from_cycles(3, (0, 1, 2))])


def heisenberg27():
    t = Perm.from_cycles(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))
    v = Perm.from_cycles(9, (0, 1, 2), (3, 5, 4))
    return group_from_generators(9, [t, v])


@pytest.fixture(scope="module", params=SMOKE)
def smoke_setup(request):
    return preset_setup(request.param)


def brute_product(factors):
    """The setwise product of element sets, left to right, one pair at a time."""
    acc = set(factors[0])
    for factor in factors[1:]:
        acc = {a * f for a in acc for f in factor}
    return acc


def test_lookup_finds_every_element_at_its_sorted_position(smoke_setup):
    for G in (s3(), heisenberg27(), smoke_setup.G):
        ordered = sorted(mulclose(list(G.generators)))
        index = G.row_index()
        rows = np.array([x.images for x in ordered], dtype=np.int32)
        assert np.array_equal(index.rows, rows)
        assert index.lookup(rows).tolist() == list(range(len(ordered)))
        shuffled = np.random.default_rng(0).permutation(len(ordered))
        assert np.array_equal(index.lookup(rows[shuffled]), shuffled)
        assert ordered[index.identity].is_identity()


def test_lookup_rejects_rows_outside_the_group():
    G = heisenberg27()
    index = G.row_index()
    outside = [
        Perm.from_cycles(9, (0, 1)),  # inside the sorted range, not an element
        Perm(list(range(8, -1, -1))),  # past the last key
    ]
    for x in outside:
        assert not G.contains(x)
        with pytest.raises(InternalCheckError):
            index.lookup(np.array([x.images], dtype=np.int32))
        with pytest.raises(InternalCheckError):  # the translate of every element by x
            index.lookup(np.array(x.images, dtype=np.int32)[index.rows])
    mixed = np.array([G.generators[0].images, outside[0].images], dtype=np.int32)
    with pytest.raises(InternalCheckError):
        index.lookup(mixed)
    with pytest.raises(InternalCheckError):
        index.lookup(np.zeros((1, 8), dtype=np.int32))


def test_rows_widen_past_degree_65536():
    degree = (1 << 16) + 2
    swap = Perm.from_cycles(degree, (0, degree - 1))
    index = group_from_generators(degree, [swap]).row_index()
    assert index.rows.dtype.itemsize == 4
    assert index.rows[1, 0] == degree - 1
    assert index.right(1).tolist() == [1, 0]
    assert index.positions([swap, Perm.identity(degree)]).tolist() == [1, 0]


def test_translate_matches_products(smoke_setup):
    G = smoke_setup.G
    ordered = G.sorted_elements()
    position = {x: i for i, x in enumerate(ordered)}
    index = G.row_index()
    for f in list(G.generators) + ordered[:: max(1, len(ordered) // 7)]:
        assert index.right(position[f]).tolist() == [position[x * f] for x in ordered]


def test_coset_labels_match_brute_cosets(smoke_setup):
    setup = smoke_setup
    G = setup.G
    ordered = G.sorted_elements()
    position = {x: i for i, x in enumerate(ordered)}
    subgroups = [Group.trivial(G.degree), G] + random_invariant_subgroups(setup, seed=0)
    subgroups += [group_from_generators(G.degree, [x]) for x in ordered[1:: max(1, len(ordered) // 5)]]
    for F in subgroups:
        elements = mulclose(list(F.generators)) or {Perm.identity(G.degree)}
        least = [min(position[x * f] for f in elements) for x in ordered]
        assert coset_labels(G.row_index(), G.row_index().positions(F.generators)).tolist() == least


def test_setwise_product_does_not_cover_s3():
    G = s3()
    a, b, c = Perm.from_cycles(3, (0, 1)), Perm.from_cycles(3, (0, 2)), Perm.from_cycles(3, (1, 2))
    ident = Perm.identity(3)
    whole = np.ones(G.order, dtype=bool)
    index = G.row_index()
    at_a, at_b, at_c = index.positions([a, b, c]).reshape(3, 1)
    assert len(brute_product([{ident, a}, {ident, b}])) == 4
    assert not setwise_product_covers(index, [at_a, at_b], whole)
    assert len(brute_product([{ident, a}, {ident, b}, {ident, c}])) == 6
    assert setwise_product_covers(index, [at_a, at_b, at_c], whole)
    assert setwise_product_covers(index, [index.positions(G.generators)], whole)
    assert not setwise_product_covers(index, [], whole)
    assert setwise_product_covers(Group.trivial(3).row_index(), [], np.ones(1, dtype=bool))


def test_setwise_product_matches_brute_on_centralizer_factors(smoke_setup):
    """fg2's factors: the C_H(A_j), largest first, on random invariant subgroups H, each
    from the brute fixed points of the span of A_j over independently tabulated phi(u)."""
    setup = smoke_setup
    tables = brute_action_tables(setup.G, [auto.images for auto in setup.basis], setup.p)
    index = setup.G.row_index()
    checked = 0
    for H in [setup.G] + random_invariant_subgroups(setup, seed=1):
        parts = []
        for A_j in maximal_subgroups(setup):
            autos = [tables[u] for u in brute_span(setup.p, setup.k, A_j.vectors)]
            fixed = np.zeros(len(index), dtype=bool)
            fixed[index.positions(brute_fixed_elements(setup.G, autos) & H.elements())] = True
            parts.append(Group.from_mask(setup.G, fixed))
        parts.sort(key=lambda part: part.order, reverse=True)
        for count in range(1, len(parts) + 1):
            factors = parts[:count]
            covers = brute_product([part.elements() for part in factors]) == set(H.elements())
            product_is_h = setwise_product_covers(
                index, [index.positions(part.generators) for part in factors], H.mask_over(setup.G)
            )
            assert product_is_h == covers
            checked += not covers
    assert checked  # some prefix of factors falls short of H


def assert_section_matches_brute_greedy(numerator, denominator):
    section = abelian_section(numerator, denominator)
    basis, orders, vector_of = brute_abelian_section(numerator.elements(), denominator.elements())
    assert section.basis == tuple(basis)
    assert section.orders == tuple(orders)
    assert all(section.decompose(x) == v for x, v in vector_of.items())
    position = {v: i for i, v in enumerate(itertools.product(*(range(m) for m in orders)))}
    assert section.codes.tolist() == [position[vector_of[x]] for x in numerator.sorted_elements()]


@pytest.mark.parametrize("instance_id", SMOKE + LEMMA_PRESETS)
def test_abelian_section_matches_brute_greedy(instance_id):
    terms = lower_central_series(preset_setup(instance_id).G).terms
    for numerator, denominator in zip(terms, terms[1:]):
        assert_section_matches_brute_greedy(numerator, denominator)


@pytest.mark.parametrize("instance_id", SMOKE + LEMMA_PRESETS)
def test_section_membership_outside_the_numerator(instance_id):
    """contains is False and decompose raises ContainmentError for every element of G
    outside the numerator, for permutations outside G, and for permutations of another
    degree, including a multiple of G's degree; both answer for every element inside."""
    G = preset_setup(instance_id).G
    terms = lower_central_series(G).terms
    brute = brute_lower_central_series(G.elements())
    assert [len(term) for term in brute] == [term.order for term in terms]
    members = set(G.sorted_elements())
    strangers = [Perm(images) for images in itertools.islice(itertools.permutations(range(G.degree)), 200)]
    strangers = [x for x in strangers if x not in members]
    strangers += [Perm.identity(G.degree + 1), Perm.identity(2 * G.degree), Perm.identity(1)]
    assert len(strangers) > 3
    for numerator, denominator, inside in zip(terms, terms[1:], brute):
        section = abelian_section(numerator, denominator)
        for x in G.sorted_elements() + strangers:
            assert section.contains(x) == (x in inside)
            if x in inside:
                assert len(section.decompose(x)) == section.rank
            else:
                with pytest.raises(ContainmentError):
                    section.decompose(x)


def cycles(*lengths):
    """The product of disjoint cycles of the given lengths, one generator each."""
    degree, gens = sum(lengths), []
    for start, n in zip(itertools.accumulate((0,) + lengths), lengths):
        gens.append(Perm.from_cycles(degree, tuple(range(start, start + n))))
    return group_from_generators(degree, gens)


@pytest.mark.parametrize("lengths", [(2, 3, 5, 7), (9, 2), (27,)], ids=["c2c3c5c7", "c9c2", "c27"])
def test_abelian_section_powers_match_brute_greedy_on_cyclic_products(lengths):
    """Exponents 210, 18 and 27: the power columns run through many primes,
    prime powers and products of both, over the trivial denominator and over
    the subgroup of the first generator's cube."""
    G = cycles(*lengths)
    assert_section_matches_brute_greedy(G, Group.trivial(G.degree))
    cube = G.generators[0] ** 3
    assert_section_matches_brute_greedy(G, group_from_generators(G.degree, [cube]))


def test_abelian_section_correction_step_matches_brute_greedy():
    """Z4 x Z2, regular on 8 points: the first element outside <b_1> in sort
    order has order 4, so the second basis element comes from the correction
    step, as a product with an element of <b_1>."""
    G = group_from_generators(8, [
        Perm.from_cycles(8, (0, 4, 2, 1), (3, 7, 5, 6)),
        Perm.from_cycles(8, (0, 6), (1, 5), (2, 7), (3, 4)),
    ])
    trivial = Group.trivial(8)
    section = abelian_section(G, trivial)
    basis, orders, vector_of = brute_abelian_section(G.elements(), trivial.elements())
    assert section.orders == tuple(orders) == (4, 2)
    assert section.basis == tuple(basis)
    assert all(section.decompose(x) == v for x, v in vector_of.items())
    first_pick = section.basis[0]
    cyclic = {first_pick**i for i in range(4)}
    naive = next(x for x in G.sorted_elements() if x not in cyclic)
    assert naive.order() == 4 and section.basis[1] != naive


def test_abelian_section_correction_step_multiplies_as_brute_greedy():
    """Z4 x| Z4, b inverting a, over its commutator subgroup <a^2>: the second basis element
    comes from the correction step, as a product with an element that does not commute with
    the pick, so the basis rests on the order of that product."""
    G = group_from_generators(8, [Perm.from_cycles(8, (0, 1, 2, 3)), Perm.from_cycles(8, (1, 3), (4, 5, 6, 7))])
    terms = lower_central_series(G).terms
    assert [term.order for term in terms] == [16, 2, 1]
    assert_section_matches_brute_greedy(terms[0], terms[1])


def test_section_basis_raises_when_a_representative_adds_nothing():
    """Power columns that send every element to the identity make each element's relative
    order 1, so the chosen representative adds no element: the basis loop must raise, not
    pick it again forever."""
    G = heisenberg27()
    index = G.row_index()
    whole = np.ones(len(index), dtype=bool)
    with pytest.raises(InternalCheckError, match="adds no element"):
        _section_basis(index, whole, index.unit(), lambda d: np.full(len(index), index.identity))


def test_section_basis_raises_when_a_power_leaves_the_numerator():
    """A faulty column that sends the powers of the centre's elements to an element outside
    the centre must raise, not decompose the centre over it."""
    G = heisenberg27()
    index = G.row_index()
    centre = center(G).mask_over(G)
    outside = int(np.flatnonzero(~centre)[0])
    with pytest.raises(InternalCheckError, match="outside the numerator"):
        _section_basis(index, centre, index.unit(), lambda d: np.full(len(index), outside))


def test_section_basis_raises_when_a_product_leaves_the_numerator():
    """The union of four cyclic subgroups of order 3 of the Heisenberg group holds every
    power of its elements but is not a subgroup: the second representative's products with
    the first leave it, and the basis loop must raise, not return a section."""
    G = heisenberg27()
    index = G.row_index()
    t, v = G.generators
    num = index.unit()
    for x in index.positions([t, v, t * v, t * v * v]).tolist():
        num[[x, index.power(2)[x]]] = True
    assert np.count_nonzero(num) == 9
    with pytest.raises(InternalCheckError, match="product of numerator elements lies outside"):
        _section_basis(index, num, index.unit())


POWER_GROUPS = {name: lambda name=name: preset_setup(name).G for name in SMOKE + ["p2k4-07-frob21-c5-c11"]}
POWER_GROUPS.update({"c2c3c5c7": lambda: cycles(2, 3, 5, 7), "c9c2": lambda: cycles(9, 2), "c27": lambda: cycles(27)})
# S4's Sylow 2-subgroups, of order 8, are not normal: two of its 2-elements can generate S3 or S4
POWER_GROUPS["s4"] = lambda: group_from_generators(4, [Perm.from_cycles(4, (0, 1, 2, 3)), Perm.from_cycles(4, (0, 1))])


def prime_parts(n):
    """{r: |n|_r} for every prime r dividing n."""
    parts, r = {}, 2
    while n > 1:
        while n % r == 0:
            parts[r] = parts.get(r, 1) * r
            n //= r
        r += 1
    return parts


@pytest.mark.parametrize("name", list(POWER_GROUPS))
def test_power_columns_match_perm_powers(name, monkeypatch):
    """Every column, at every divisor of |G| and a few other exponents, is x -> x^d and
    read-only, and each prime column built costs one row product."""
    G = POWER_GROUPS[name]()
    ordered = G.sorted_elements()
    position = {x: i for i, x in enumerate(ordered)}
    index = G.row_index()
    products, take = [], np.take_along_axis
    monkeypatch.setattr(np, "take_along_axis", lambda *args, **kw: products.append(1) or take(*args, **kw))
    divisors = {d for d in range(1, G.order + 1) if G.order % d == 0}
    for d in sorted({0, 1, 2, 3, 4, 6, 8, 9, 12, 27} | divisors):
        column = index.power(d)
        assert column.tolist() == [position[x**d] for x in ordered], d
        assert index.power(d) is column
        with pytest.raises(ValueError):
            column[0] = column[-1]
    assert len(products) == sum(all(d % q for q in range(2, d)) for d in index._powers if d > 1)


@pytest.mark.parametrize("name", list(POWER_GROUPS))
def test_sylow_subgroups_take_the_elements_of_order_dividing_the_r_part(name):
    G = POWER_GROUPS[name]()
    ordered = G.sorted_elements()
    index = G.row_index()
    for r, part in prime_parts(G.order).items():
        r_elements = {x for x in ordered if part % x.order() == 0}
        column = index.power(part)
        assert {ordered[i] for i in np.flatnonzero(column == index.identity).tolist()} == r_elements
        P = sylow_subgroup(G, r)
        assert P.order == part and P.elements() <= r_elements
        if name.startswith("c"):  # abelian: the Sylow subgroup is every r-element
            assert P.elements() == r_elements


def test_from_mask_keeps_the_generators_of_each_closed_mask_once(monkeypatch):
    G = heisenberg27()
    index = G.row_index()
    cyclic = generated_in(G, [G.generators[0]])
    mask = cyclic.mask_over(G)
    size, picked = len(index.memo), []
    picks = groups._picks
    monkeypatch.setattr(groups, "_picks", lambda index, mask: picked.append(1) or picks(index, mask))
    first, second = Group.from_mask(G, mask.copy()), Group.from_mask(G, mask.copy())
    assert len(index.memo) == size + 1 and len(picked) == 1
    kept = index.memo[("picks", mask.tobytes())]
    assert first.generators == second.generators == tuple(G.sorted_elements()[i] for i in kept.tolist())
    assert first.elements() == second.elements() == cyclic.elements()
    with pytest.raises(ValueError):
        kept[0] = 0
    not_closed = mask.copy()
    not_closed[index.positions([G.generators[1]])] = True
    for _ in range(2):
        with pytest.raises(ValidationError, match="not closed"):
            Group.from_mask(G, not_closed)
    assert len(index.memo) == size + 1 and len(picked) == 3


def full_row_power(index, d):
    """x -> x^d for every x, by square-and-multiply on whole rows and the whole-row lookup."""
    rows = index.rows.astype(np.intp)
    acc, step = np.broadcast_to(np.arange(rows.shape[1]), rows.shape), rows
    while d:
        if d & 1:
            acc = np.take_along_axis(step, acc, axis=1)
        step, d = np.take_along_axis(step, step, axis=1), d >> 1
    return index.lookup(acc)


def full_row_codes(index, section):
    """``root_codes`` of ``section`` from its basis and orders, by whole-row products and the
    whole-row lookup: rep * d for the representative rep of every exponent vector, in
    ``itertools.product`` order, and every d in the denominator."""
    rows, degree = index.rows.astype(np.intp), index.rows.shape[1]
    reps = rows[[index.identity]]
    for b, m in zip(section.basis_at, section.orders):
        chain = [rows[index.identity]]
        for _ in range(m - 1):
            chain.append(rows[b][chain[-1]])
        reps = np.array(chain)[:, reps].transpose(1, 0, 2).reshape(-1, degree)
    den = np.flatnonzero(section.denominator.mask_over(section.numerator))
    keys = index.lookup(rows[den][:, reps].transpose(1, 0, 2).reshape(-1, degree))
    codes = np.full(len(index), -1, dtype=np.int64)
    codes[keys] = np.arange(len(keys)) // len(den)
    return codes


def assert_base_lookups_match_whole_rows(index, sections):
    assert np.array_equal(index.inverse, index.lookup(np.argsort(index.rows, axis=1)))
    for d, column in index._powers.items():
        assert np.array_equal(column, full_row_power(index, d)), d
    for section in sections:
        assert np.array_equal(section.root_codes, full_row_codes(index, section))


@pytest.mark.parametrize("instance_id", SMOKE + LEMMA_PRESETS)
def test_base_lookups_match_the_whole_row_lookup_through_every_suite(instance_id, monkeypatch):
    """After the lemma suite and both theorem suites, the inverse, every power column that
    was built and every abelian section (those of the Lie ring, built for a nilpotent G, and
    those of G's lower central series) equal what whole rows give."""
    sections, section = [], lie.abelian_section
    monkeypatch.setattr(lie, "abelian_section", lambda *args: sections.append(section(*args)) or sections[-1])
    setup = preset_setup(instance_id)
    ctx = InstanceContext(setup, instance_id)
    assert lemma_report(ctx).status == "pass"
    assert verify_derived_theorem(setup, PRESETS[instance_id.split("-")[0]].d, ctx=ctx).status == "pass"
    assert verify_gamma_theorem(setup, ctx=ctx).status == "pass"
    terms = lower_central_series(setup.G).terms
    sections += [abelian_section(num, den) for num, den in zip(terms, terms[1:])]
    index = setup.G.row_index()
    assert sections and len(index._powers) > 2
    assert_base_lookups_match_whole_rows(index, sections)


def test_base_keys_past_int64_are_row_bytes_and_match_whole_rows():
    """(C2)^14 on 28 points, by the transpositions (2i, 2i+1): the base is the 14 even points
    and 28^14 >= 2^63, so the keys are the base columns' bytes.  The inverse, a square and a
    section agree with whole rows, and the inverse's tracemalloc peak stays under 2.7 MB, where
    a whole-row argsort and lookup peak at 5.4 MB."""
    G = group_from_generators(28, [Perm.from_cycles(28, (2 * i, 2 * i + 1)) for i in range(14)])
    index = G.row_index()
    assert index._base is None
    tracemalloc.start()
    index.inverse
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert index.base.tolist() == list(range(0, 28, 2)) and index._base_keys.dtype.kind == "V"
    assert peak < 2.7e6, peak
    index.power(2)
    half = generated_in(G, G.generators[:7])
    assert_base_lookups_match_whole_rows(index, [abelian_section(G, half)])


def test_base_lookup_trusts_the_base_images_and_raises_for_no_element():
    """A row with an element's base images gets that element's index, even off the group,
    where the whole-row lookup raises; base images that no element has raise."""
    G = heisenberg27()
    index = G.row_index()
    base, x = index.base, len(index) // 2
    off = [p for p in range(G.degree) if p not in base.tolist()][:2]
    assert len(off) == 2
    row = index.rows[x].copy()
    row[off] = row[off[::-1]]
    assert index.lookup_base(row[None, base]).tolist() == [x]
    with pytest.raises(InternalCheckError, match="not an element"):
        index.lookup(row[None, :])
    with pytest.raises(InternalCheckError, match="no element has these base images"):
        index.lookup_base(np.zeros((1, len(base)), dtype=np.intp))


@pytest.mark.parametrize("build", [heisenberg27, s3, lambda: cycles(2, 3, 5, 7)], ids=["heis27", "s3", "c2c3c5c7"])
def test_a_base_that_misses_a_point_is_refused(build, monkeypatch):
    """Without any one of its points the base no longer orders the rows: the keys stop
    increasing strictly and the first base lookup raises."""
    points = fastset._base_points
    full = points(build().row_index().rows)
    assert len(full) > 1
    for drop in range(len(full)):
        monkeypatch.setattr(fastset, "_base_points", lambda rows: np.delete(points(rows), drop))
        with pytest.raises(InternalCheckError, match="base images do not strictly increase"):
            build().row_index().inverse


@pytest.mark.parametrize("instance_id", SMOKE)
def test_set_up_builds_no_base(instance_id):
    index = preset_setup(instance_id).G.row_index()
    assert index._base is None
    index.power(2)
    assert index._base is not None and not index.base.flags.writeable
