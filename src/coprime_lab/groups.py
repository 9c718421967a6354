"""Finite permutation groups: enumeration, subgroup masks, abelian sections.

A group built from generators is enumerated into the sorted rows of its
``fastset.RowIndex``, which knows those generators, and the rows are its only
per-element store; ``Perm`` objects stay at the boundary (generators, element
lists, and what membership and the abelian sections take or give).  Every subgroup built
inside an enumerated group, from centralizers to commutator subgroups, series
terms and Sylow subgroups, is a bool mask over that index; each of its
generators lies outside the subgroup generated by the ones before it.  A
subgroup grows one generator at a time, and by one right coset of the
subgroup generated so far at a time, so each mask it grows from must be the
subgroup that its generators generate.  The generators of a subgroup given
by its mask, and a commutator subgroup [H, K], are computed once per mask,
or pair of masks, and kept in the index's memo.  A relation between two groups
(containment, equality, normality, the subgroup that several generate) is decided
from generators (Seress 2003, ch. 3) over one root's index: K contains H when K's
mask holds H's generators, mapped by ``Group._gens_over``, the one place that maps
a group onto another root.  Sylow subgroups and abelian sections read the index's
power columns, x -> x^d at divisors d of the root's order, so an abelian section
runs over the root's index, restricted to its numerator's mask, and keeps one code
per element of that index.  A section's products (a representative's powers, its
corrected choice, the cosets it adds and the decomposition of every element) are
gathered at the index's base points alone and found by ``RowIndex.lookup_base``:
they are products of elements, so their base images name them.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .config import enumeration_cap
from .errors import (
    CapacityError,
    ContainmentError,
    InternalCheckError,
    PreconditionError,
    ValidationError,
)
from .fastset import RowIndex, SpanningTree, row_keys, rows_of
from .perms import Perm


def _enumerate(degree: int, generators: Sequence[Perm], cap: int) -> tuple[np.ndarray, np.ndarray, SpanningTree]:
    """The sorted rows of the group that ``generators`` generate, the right translate by
    each generator (row j for generator j), and the spanning tree of the Cayley graph over
    them, all in sorted indices.

    Breadth first from the identity over x -> x g, where the row of x g is g's row gathered
    at x's.  Each round translates the elements found in the round before by one generator
    at a time.  Every product gets a slot, in the order formed, and ``dict.setdefault``
    files it under the slot of the first product with its key, so a product that keeps its
    own slot is a new element: its factor and generator are its parent and generator in
    the tree, and the first generator to reach an element wins.  At the end the keys are
    joined into the rows once, the slots are renumbered in the order the elements were
    found, and all is gathered into sort order.  Raises CapacityError as soon as a batch
    takes the elements found past ``cap``, so it holds at most ``cap`` keys and one batch
    of at most as many products.
    """
    moves = rows_of(generators, degree)
    frontier = np.arange(degree, dtype=moves.dtype)[None, :]
    slot_of, filed, rounds = {frontier.tobytes(): 0}, [np.zeros(1, dtype=np.intp)], [0]
    while len(frontier):
        rounds.append(rounds[-1] + len(frontier))
        reached = [frontier[:0]]  # so that a group with no generators concatenates too
        for j, g in enumerate(moves):
            products, made = g[frontier], 1 + len(moves) * rounds[-2] + j * len(frontier)
            slots = np.fromiter(
                map(slot_of.setdefault, row_keys(products).tolist(), range(made, made + len(products))),
                dtype=np.intp, count=len(products),
            )
            if len(slot_of) > cap:
                raise CapacityError(f"group order exceeds the enumeration cap {cap}")
            filed.append(slots)
            # x -> x g is injective, so a slot of this batch is the product's own
            reached.append(products[slots >= made])
        # one-row pieces can concatenate to Fortran order, and row keys need C-ordered rows
        frontier = np.ascontiguousarray(np.concatenate(reached))
    rows = np.frombuffer(b"".join(slot_of), dtype=moves.dtype).reshape(-1, degree)
    del slot_of
    n, filed = len(rows), np.concatenate(filed)
    # x * g_j, for x in a round that starts at ``start`` and is ``width`` long, has the slot
    # ``made`` + (x - start) = 1 + len(moves) * start + j * width + (x - start)
    sizes = np.diff(rounds)
    start, width = np.repeat(rounds[:-1], sizes), np.repeat(sizes, sizes)
    own = 1 + (len(moves) - 1) * start + np.arange(n) + np.arange(len(moves))[:, None] * width
    # a slot is an element's own if its product was filed under it, and elements are
    # numbered in the order of their own slots, which is the order they were found in
    kept = filed == np.arange(len(filed))
    translates = (np.cumsum(kept) - 1)[filed[own]]
    by, factor = np.nonzero(kept[own])
    child = translates[by, factor]
    order = np.argsort(row_keys(rows))
    rows = rows[order]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    parents = np.zeros(n, dtype=np.int32)
    parents[rank[child]] = rank[factor]
    gens = np.zeros(n, dtype=np.min_scalar_type(max(len(moves) - 1, 0)))
    gens[rank[child]] = by
    tree = SpanningTree(rank.astype(np.int32), parents, gens, np.array(rounds))
    return rows, rank[translates[:, order]], tree


class Group:
    """A finite permutation group with generator set and membership structure.

    A group built from generators is enumerated on first use, by ``_enumerate``,
    and is then the root of its own row index.  A subgroup built inside an
    enumerated group is a bool mask over its root's index, with its
    generators' indices; its generators are made as ``Perm`` objects only
    when asked for.  Its mask is read-only, and its order and memo key are
    made once.  A relation with another group reads that group's generator
    indices over this group's root (``_gens_over``) and composes no ``Perm``.
    """

    __slots__ = ("degree", "_generators", "cap", "_rows", "_root", "_mask", "_at", "_order", "_key", "__weakref__")

    def __init__(self, degree: int, generators: Iterable = (), cap: int | None = None):
        if not isinstance(degree, int) or degree < 1:
            raise ValidationError(f"group degree must be a positive integer, got {degree!r}")
        cap = enumeration_cap(cap)
        gens: list[Perm] = []
        seen: set[Perm] = set()
        for g in generators:
            if not isinstance(g, Perm):
                g = Perm(g)
            if g.degree != degree:
                raise ValidationError(f"generator degree {g.degree} != group degree {degree}")
            if g.is_identity() or g in seen:
                continue
            seen.add(g)
            gens.append(g)
        self._fill(degree, cap, gens)

    def _fill(self, degree: int, cap: int, generators, root=None, mask=None, at=None, key=None) -> "Group":
        """Sets every slot; the one place that does.  ``_mask`` and ``_at`` mark the elements and
        generators over the index of ``_root``, or of the group itself when it is a root, and
        ``_key`` is the mask's memo key, if known; with ``generators`` None, the generators
        are made from ``_at`` when first asked for."""
        self.degree = degree
        self.cap = cap
        self._generators = None if generators is None else tuple(generators)
        self._rows: RowIndex | None = None
        self._root: Group | None = root
        self._mask: np.ndarray | None = mask
        self._at: np.ndarray | None = at
        self._order: int | None = None
        self._key: bytes | None = key
        if mask is not None:
            mask.setflags(write=False)
        return self

    @classmethod
    def _in(cls, root: "Group", mask: np.ndarray, at, key: bytes | None = None) -> "Group":
        return cls.__new__(cls)._fill(root.degree, root.cap, None, root, mask, np.asarray(at, dtype=np.intp), key)

    @classmethod
    def trivial(cls, degree: int, cap: int | None = None) -> "Group":
        return cls(degree, (), cap=cap)

    @classmethod
    def from_mask(cls, ambient: "Group", mask: np.ndarray) -> "Group":
        """The subgroup whose elements ``mask`` marks over the index of ambient's root (must be
        closed).  Its generators are found once per mask and kept in the index's memo."""
        root = ambient._frame()[0]
        index = root.row_index()
        key = index.mask_key(mask)
        at = index.memo.get(("picks", key))
        if at is None:
            at = np.asarray(_picks(index, mask), dtype=np.intp)
            at.flags.writeable = False
            index.memo[("picks", key)] = at
        return cls._in(root, mask, at, key)

    @property
    def generators(self) -> tuple[Perm, ...]:
        if self._generators is None:
            self._generators = tuple((self._root or self).row_index().perms(self._at))
        return self._generators

    def _frame(self) -> tuple["Group", np.ndarray, np.ndarray]:
        """(root, mask, generator indices) over the root's index; enumerates a group with neither."""
        if self._mask is None:
            self.row_index()
        return self._root or self, self._mask, self._at

    def _gens_over(self, root: "Group") -> np.ndarray:
        """Generator indices over ``root``'s index, -1 for a generator outside it: the one
        mapping between roots.  A group of ``root`` gives its own; any other group's
        generators are looked up by position."""
        if (self._root or self) is root:
            return self._frame()[2]
        return root.row_index().positions(self.generators)

    def _over(self, root: "Group") -> "Group":
        """This group over ``root``'s index: itself, or regenerated there for a group of another root."""
        return self if (self._root or self) is root else generated_subgroup(root, [self])

    def _mask_key(self) -> bytes:
        """Its mask's key in its root's index memo (``RowIndex.mask_key``), kept once made or given."""
        if self._key is None:
            root, mask, _ = self._frame()
            self._key = root.row_index().mask_key(mask)
        return self._key

    def mask_over(self, ambient: "Group") -> np.ndarray:
        """This group's elements as a bool mask over the index of ambient's root."""
        return self._over(ambient._frame()[0])._frame()[1]

    @property
    def order(self) -> int:
        if self._order is None:
            self._order = int(np.count_nonzero(self._frame()[1]))
        return self._order

    def contains(self, x: Perm) -> bool:
        """Whether x lies in the group; a Perm of another degree does not."""
        if not isinstance(x, Perm):
            raise ValidationError(f"expected a Perm, got {type(x).__name__}")
        root, mask, _ = self._frame()
        at = int(root.row_index().positions([x])[0])
        return at >= 0 and bool(mask[at])

    def elements(self) -> frozenset[Perm]:
        """Every element, as a new frozenset on each call; the group keeps no set of them."""
        return frozenset(self.sorted_elements())

    def sorted_elements(self) -> list[Perm]:
        """Every element in sort order, as a new list on each call."""
        root, mask, _ = self._frame()
        return root.row_index().perms(np.flatnonzero(mask))

    def row_index(self) -> RowIndex:
        """The index over this group's sorted rows, enumerated from its generators; a group
        that is not a mask over another becomes the root of this index."""
        if self._rows is None:
            rows, translates, tree = _enumerate(self.degree, self.generators, self.cap)
            self._rows = RowIndex(rows, rows_of(self.generators, self.degree), translates, tree)
            if self._root is None:
                self._mask = np.ones(len(rows), dtype=bool)
                self._mask.setflags(write=False)
                self._at = self._rows.gens
        return self._rows

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def is_subgroup_of(self, other: "Group") -> bool:
        """Whether ``other``'s mask holds every generator; a group of root R lies in R."""
        if (self._root or self) is other:
            return True
        root, mask, _ = other._frame()
        at = self._gens_over(root)
        return self.degree == other.degree and all(i >= 0 and mask[i] for i in at.tolist())

    def same_subgroup(self, other: "Group") -> bool:
        return self.order == other.order and self.is_subgroup_of(other)

    def is_normal_in(self, ambient: "Group") -> bool:
        """Whether this is a subgroup of ``ambient`` that each generator of ``ambient`` conjugates into itself."""
        if not self.is_subgroup_of(ambient):
            return False
        root, _, conjugators = ambient._frame()
        mask, at = self._over(root)._frame()[1:]
        index = root.row_index()
        return all(mask[index.conjugates(at, g)].all() for g in conjugators.tolist())

    def random_element(self, rng) -> Perm:
        root, mask, _ = self._frame()
        return root.row_index().perms([rng.choice(np.flatnonzero(mask))])[0]

    def __repr__(self) -> str:
        return f"Group(degree={self.degree}, order={self.order}, ngens={len(self.generators)})"


def _extend(index: RowIndex, mask: np.ndarray, at: list[int], g: int) -> np.ndarray:
    """Mask of <S, g> for the subgroup S = ``mask``, which must be the subgroup generated
    by the elements at ``at``.

    <S, g> is grown one right coset of S at a time (Dimino): a coset S r found so far is
    translated by each generator t, and S r t is a whole right coset, so it lies in the
    span or is disjoint from it, and one element decides which.  A new coset is one
    gather of a coset already found.
    """
    translates = [index.right(i) for i in at + [g]]
    coset = translates[-1][np.flatnonzero(mask)]
    span = mask.copy()
    span[coset] = True
    queue = [coset]
    while queue:
        coset = queue.pop()
        for t in translates:
            if not span[t[coset[0]]]:
                new = t[coset]
                span[new] = True
                queue.append(new)
    return span


def _grow(index: RowIndex, span: np.ndarray, at: list[int], candidates) -> tuple[np.ndarray, list[int]]:
    """Extend the subgroup ``span``, which must be the one generated by the elements at
    ``at``, coset by coset (``_extend``) by the first candidate it does not yet contain,
    until it contains every candidate.  Returns the new span and the picks, in candidate
    order: each lies outside the span of the ones before it, so a subgroup of order n
    gets at most log2(n) of them.  Raises InternalCheckError, never loops, when a grown
    span misses its pick."""
    candidates, picks = np.asarray(candidates, dtype=np.intp), []
    while (missing := np.flatnonzero(~span[candidates])).size:
        x = int(candidates[missing[0]])
        span = _extend(index, span, at + picks, x)
        if not span[x]:
            raise InternalCheckError("a generated subgroup does not contain its new generator")
        picks.append(x)
        candidates = candidates[missing[0] + 1:]
    return span, picks


def _picks(index: RowIndex, mask: np.ndarray) -> list[int]:
    """Generators of the subgroup ``mask``: the picks of ``_grow`` over its elements in
    sort order.  Raises ValidationError if ``mask`` is not closed."""
    span, at = _grow(index, index.unit(), [], np.flatnonzero(mask))
    if not np.array_equal(span, mask):
        raise ValidationError(f"element set of size {np.count_nonzero(mask)} is not closed")
    return at


def _normal_closure(index: RowIndex, seeds, conjugators) -> tuple[np.ndarray, list[int]]:
    """Mask and generators of the normal closure of ``seeds`` under ``conjugators``: the
    picks of ``_grow`` over the seeds in sort order, then over the conjugates g^-1 x g of
    each picked x, the latest picked first."""
    mask, at = _grow(index, index.unit(), [], sorted(set(seeds)))
    queue = list(at)
    while queue:
        x = queue.pop()
        mask, picks = _grow(index, mask, at, [int(index.conjugates(x, g)) for g in conjugators])
        at += picks
        queue += picks
    return mask, at


def group_from_generators(degree: int, gens: Iterable, cap: int | None = None) -> Group:
    """Group generated by ``gens`` on {0..degree-1}."""
    return Group(degree, gens, cap=cap)


def generated_in(ambient: Group, gens: Iterable[Perm]) -> Group:
    """The subgroup of ``ambient`` generated by ``gens``, as a mask over its root's index."""
    return _generated(ambient, ambient._frame()[0].row_index().positions(gens))


def is_member(G: Group, x: Perm) -> bool:
    """Membership test; agrees with exhaustive enumeration when cached."""
    return G.contains(x)


def normal_closure(generators: Iterable[Perm], ambient: Group) -> Group:
    """Smallest normal subgroup of ``ambient`` containing ``generators``."""
    return _normally_generated(ambient, ambient._frame()[0].row_index().positions(generators))


def _normally_generated(ambient: Group, seeds: np.ndarray) -> Group:
    """The normal closure in ``ambient`` of the elements at ``seeds`` over its root's index;
    ContainmentError for one outside."""
    root, inside, conjugators = ambient._frame()
    if (seeds < 0).any() or not inside[seeds].all():
        raise ContainmentError("normal closure seed lies outside the ambient group")
    return Group._in(root, *_normal_closure(root.row_index(), seeds.tolist(), conjugators.tolist()))


def commutator_subgroup(H: Group, K: Group, ambient: Group) -> Group:
    """The subgroup [H, K] generated by all commutators between H and K.

    Computed as the normal closure, inside <H, K>, of the generator-pair
    commutators; that closure equals the full commutator subgroup.  It is
    computed once per pair of masks over the root's index and kept in the
    index's memo as read-only arrays, one array per distinct mask.  Every
    call checks that H and K lie in ``ambient``, a memo hit too; H's check,
    mask and key serve K when K is H.
    """
    for name, part in (("H", H),) if K is H else (("H", H), ("K", K)):
        if not part.is_subgroup_of(ambient):
            raise ContainmentError(f"{name} is not a subgroup of the ambient group")
    root = ambient._frame()[0]
    index = root.row_index()
    h = H._over(root)
    k = h if K is H else K._over(root)
    key = ("comm", h._mask_key(), k._mask_key())
    closed = index.memo.get(key)
    if closed is None:
        hs, ks = h._at.tolist(), k._at.tolist()
        comms = {index.commutator(x, y) for x in hs for y in ks} - {index.identity}
        mask, at = _normal_closure(index, comms, list(dict.fromkeys(hs + ks)))
        at = np.asarray(at, dtype=np.intp)
        mask.flags.writeable = at.flags.writeable = False
        m_key = index.mask_key(mask)
        # equal masks share one array; each pair keeps its own generators
        mask = index.memo.setdefault(("mask", m_key), mask)
        closed = index.memo[key] = (mask, at, m_key)
    return Group._in(root, *closed)


def intersection(H: Group, K: Group) -> Group:
    """H intersect K: the meet of their masks, over H's root when the roots differ."""
    if H.degree != K.degree:
        raise ValidationError("cannot intersect groups of different degree")
    (h_root, h_mask, _), (k_root, k_mask, _) = H._frame(), K._frame()
    if h_root is k_root:
        return Group.from_mask(H, h_mask & k_mask)
    inside = np.flatnonzero(h_mask)
    found = k_root.row_index()._find(h_root.row_index().rows[inside])
    meet = np.zeros_like(h_mask)
    meet[inside[(found >= 0) & k_mask[found]]] = True
    return Group.from_mask(H, meet)


def generated_subgroup(ambient: Group, parts: Iterable[Group]) -> Group:
    """The subgroup of ``ambient`` generated by the union of ``parts``, over its root's index."""
    root = ambient._frame()[0]
    return _generated(ambient, np.concatenate([np.zeros(0, dtype=np.intp)] + [part._gens_over(root) for part in parts]))


def _generated(ambient: Group, at: np.ndarray) -> Group:
    """The subgroup of ``ambient`` generated by the elements at ``at``, over its root's index, with
    those not generated by the ones before as its generators; ContainmentError for one outside."""
    root, inside, _ = ambient._frame()
    if (at < 0).any() or not inside[at].all():
        raise ContainmentError("a generator lies outside the ambient group")
    index = root.row_index()
    return Group._in(root, *_grow(index, index.unit(), [], at))


def _conjugation_maps(G: Group) -> tuple[RowIndex, np.ndarray, list[np.ndarray]]:
    """G's root index, G's mask, and x -> g^-1 x g over that index for each generator g of G."""
    root, mask, at = G._frame()
    index = root.row_index()
    return index, mask, [index.conjugates(np.arange(len(index)), g) for g in at.tolist()]


def _r_part(n: int, r: int) -> int:
    m = 1
    while n % r == 0:
        n //= r
        m *= r
    return m


def sylow_subgroup(G: Group, r: int) -> Group:
    """Some Sylow r-subgroup of G."""
    root, mask, _ = G._frame()
    index = root.row_index()
    target = _r_part(G.order, r)
    if G.order == target:
        return G
    # the r-elements are those whose order divides |G|_r
    r_elements = mask & (index.power(target) == index.identity)
    current, at = index.unit(), []
    while np.count_nonzero(current) < target:
        for y in np.flatnonzero(r_elements & ~current).tolist():
            candidate = _extend(index, current, at, y)
            n = int(np.count_nonzero(candidate))
            if n == _r_part(n, r):
                current, at = candidate, at + [y]
                break
        else:
            raise InternalCheckError(f"could not extend an r-subgroup to Sylow order {target}")
    return Group._in(root, current, at)


def subgroup_conjugate_sets(G: Group, P: Group) -> list[np.ndarray]:
    """Masks, over the index of G's root, of all G-conjugates of P (its orbit under conjugation)."""
    _, _, maps = _conjugation_maps(G)
    out = [P.mask_over(G)]
    seen = {out[0].tobytes()}
    queue = [out[0]]
    while queue:
        current = queue.pop()
        for conj in maps:
            image = np.zeros_like(current)
            image[conj[current]] = True
            if image.tobytes() not in seen:
                seen.add(image.tobytes())
                queue.append(image)
                out.append(image)
    return out


class AbelianSection:
    """An abelian quotient numerator/denominator written additively.

    ``basis`` holds coset representatives, made on first use from their
    indices ``basis_at`` in the numerator's root index, whose classes
    decompose the quotient as a direct sum of cyclic groups with the given
    ``orders``.  An element's code is the position of
    its exponent vector in ``itertools.product`` order over the orders, and
    ``root_codes``, the one per-element map, holds the code of every element
    of the root index, -1 off the numerator.
    """

    __slots__ = ("numerator", "denominator", "_basis", "basis_at", "orders", "root_codes")

    def __init__(self, numerator: Group, denominator: Group, basis_at, orders, root_codes):
        self.numerator = numerator
        self.denominator = denominator
        self.basis_at = tuple(basis_at)
        self.orders = tuple(orders)
        self.root_codes = root_codes
        self._basis: tuple[Perm, ...] | None = None

    @property
    def basis(self) -> tuple[Perm, ...]:
        if self._basis is None:
            self._basis = tuple(self.numerator._frame()[0].row_index().perms(self.basis_at))
        return self._basis

    @property
    def quotient_order(self) -> int:
        return math.prod(self.orders)

    @property
    def rank(self) -> int:
        return len(self.basis_at)

    @property
    def codes(self) -> np.ndarray:
        """The code of the numerator's i-th sorted element, which sits at its i-th position in the root index."""
        return self.root_codes[self.root_codes >= 0]

    def vector(self, code: int) -> tuple[int, ...]:
        """The exponent vector with the given code."""
        return tuple(int(e) for e in np.unravel_index(code, self.orders))

    def _code(self, x: Perm) -> int:
        """The code of the coset of x, or -1 for an x outside the numerator."""
        at = int(self.numerator._frame()[0].row_index().positions([x])[0])
        return -1 if at < 0 else int(self.root_codes[at])

    def decompose(self, x: Perm) -> tuple[int, ...]:
        """Exponent vector of the coset of x; x must lie in the numerator."""
        code = self._code(x)
        if code < 0:
            raise ContainmentError("element is not in the numerator of the section")
        return self.vector(code)

    def compose(self, vector) -> Perm:
        """A coset representative for the given exponent vector."""
        if len(vector) != self.rank:
            raise ValidationError("exponent vector length does not match the basis")
        rep = Perm.identity(self.numerator.degree)
        for b, e, m in zip(self.basis, vector, self.orders):
            rep = rep * (b ** (e % m))
        return rep

    def contains(self, x: Perm) -> bool:
        return self._code(x) >= 0


def _divisors(n: int) -> list[int]:
    """Every divisor of n, ascending."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _powers_of(index: RowIndex, x: int, m: int) -> np.ndarray:
    """Index of x^j for j < m.  The base images of x^0 ... x^(k-1) and the row of x^k give those
    of x^k ... x^(2k-1) in one gather, so the chain doubles until it is m long and is looked up
    at once by its base images."""
    chain, step = index.base[None, :], index.rows[x]
    while len(chain) < m:
        chain, step = np.concatenate([chain, step[chain]]), step[step]
    return index.lookup_base(chain[:m])


def _section_basis(index: RowIndex, num: np.ndarray, in_den: np.ndarray, power=None) -> list[np.ndarray]:
    """Greedy basis of numerator/denominator over the root's ``index``, where ``num`` and
    ``in_den`` are their masks: for each representative b, of order m, the indices of b^j
    for j < m, so b is at position 1.  ``power(d)`` is the column of x^d, ``index.power``
    unless given.  Raises InternalCheckError, never loops on or returns a section, when a
    power or a product leaves the numerator or a chosen representative adds no element."""
    power = power or index.power
    rows, base = index.rows, index.base
    total = int(np.count_nonzero(num))
    current = in_den.copy()
    chains: list[np.ndarray] = []
    while (size := int(np.count_nonzero(current))) < total:
        # relative order: the least m >= 1 with x^m in current.  current contains den, so
        # it is normal in num, and those m are the multiples of the order of x current in
        # num / current: m is the least divisor of |num : current| that reaches current
        candidates = np.flatnonzero(num & ~current)
        if not candidates.size:
            raise InternalCheckError("ran out of candidates before filling the quotient")
        rel = np.zeros(len(candidates), dtype=np.int64)
        open_ = np.arange(len(candidates))
        for d in _divisors(total // size):
            reached = power(d)[candidates[open_]]
            if not num[reached].all():
                raise InternalCheckError("a power of a numerator element lies outside the numerator")
            hit = current[reached]
            rel[open_[hit]] = d
            open_ = open_[~hit]
            if not open_.size:
                break
        if open_.size:
            raise InternalCheckError("an element's relative order does not divide the quotient's order")
        best = int(candidates[np.argmax(rel)])
        best_m = int(rel.max())
        # correct the representative so its class has the same order in the
        # full quotient: (best * d)^m must fall into the denominator, for the
        # first d of current in sort order; products are gathered at the base alone
        at = np.flatnonzero(current)[:, None]
        if in_den[power(best_m)[best]]:
            chosen = best
        else:
            corrected = index.lookup_base(rows[at, rows[best, base]])
            ok = np.flatnonzero(in_den[power(best_m)[corrected]])
            if not ok.size:
                raise InternalCheckError("direct-sum correction step found no representative")
            chosen = int(corrected[ok[0]])
        chain = _powers_of(index, chosen, best_m)
        # current * <chosen>: x * chosen^j for x in current and j < m
        products = index.lookup_base(rows[chain[:, None, None], rows[at, base]].reshape(-1, len(base)))
        if not num[products].all():
            raise InternalCheckError("a product of numerator elements lies outside the numerator")
        grown = np.zeros(len(index), dtype=bool)
        grown[products] = True
        if np.count_nonzero(grown) == size:
            raise InternalCheckError("a basis representative adds no element to the quotient")
        chains.append(chain)
        current = grown
    return chains


def abelian_section(numerator: Group, denominator: Group) -> AbelianSection:
    """Decompose the abelian quotient numerator/denominator into cyclic factors.

    Uses greedy order-maximal picks with a correction step so that the chosen
    representatives give an honest direct-sum decomposition; the construction
    ends with an exhaustive bijection check.  It runs over the index of the
    numerator's root, on that index's power columns, and finds every product
    by its base images.
    """
    if not denominator.is_subgroup_of(numerator):
        raise PreconditionError("denominator is not a subgroup of the numerator")
    if not denominator.is_normal_in(numerator):
        raise PreconditionError("denominator is not normal in the numerator")
    root, num, at = numerator._frame()
    index = root.row_index()
    in_den = denominator.mask_over(numerator)
    at = at.tolist()
    for i, a in enumerate(at):
        for b in at[i:]:
            if not in_den[index.commutator(a, b)]:
                raise PreconditionError("quotient is not abelian")

    rows, base = index.rows, index.base
    chains = _section_basis(index, num, in_den)
    orders = [len(chain) for chain in chains]

    # the base images of the representative b_1^e_1 ... b_r^e_r of every exponent
    # vector, in itertools.product order, then of rep * d for every d in the denominator
    reps = base[None, :]
    for chain in chains:
        reps = rows[chain[:, None, None], reps].transpose(1, 0, 2).reshape(-1, len(base))
    den_idx = np.flatnonzero(in_den)
    keys = index.lookup_base(rows[den_idx[:, None, None], reps].transpose(1, 0, 2).reshape(-1, len(base)))
    if not num[keys].all():
        raise InternalCheckError("a decomposed element lies outside the numerator")
    if np.bincount(keys).max() > 1:
        raise InternalCheckError("exponent vectors do not decompose the quotient uniquely")
    if len(keys) != numerator.order:
        raise InternalCheckError("section decomposition does not cover the numerator")
    root_codes = np.full(len(index), -1, dtype=np.int64)
    root_codes[keys] = np.arange(len(keys)) // len(den_idx)
    root_codes.flags.writeable = False
    return AbelianSection(numerator, denominator, [int(chain[1]) for chain in chains], orders, root_codes)
