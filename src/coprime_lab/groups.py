"""Finite permutation groups: membership chains, subgroup masks, abelian sections.

A group built from generators holds a Schreier-Sims chain until it is
enumerated.  Every subgroup built inside an enumerated group, from
centralizers to commutator subgroups, series terms and Sylow subgroups, is a
bool mask over that group's ``fastset.RowIndex``, with no chain.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

import numpy as np

from . import fastset
from .config import enumeration_cap
from .errors import (
    CapacityError,
    ContainmentError,
    InternalCheckError,
    PreconditionError,
    ValidationError,
)
from .fastset import RowIndex
from .perms import Perm, commutator


class _Chain:
    """A deterministic Schreier-Sims stabilizer chain, held as per-level lists.

    Level i fixes ``base[:i]`` pointwise; its group is generated by the
    strong generators ``gens[i:]``.  ``transversals[i]`` maps each point
    delta of the orbit of ``base[i]`` to a representative u with
    u(base[i]) = delta, and ``inverses[i]`` maps delta to u^-1.
    """

    __slots__ = ("degree", "base", "gens", "transversals", "inverses")

    def __init__(self, degree: int):
        self.degree = degree
        self.base: list[int] = []
        self.gens: list[list[Perm]] = []
        self.transversals: list[dict[int, Perm]] = []
        self.inverses: list[dict[int, Perm]] = []

    def order(self) -> int:
        return math.prod(map(len, self.transversals))

    def sift(self, p: Perm, level: int = 0) -> Perm:
        base, inverses = self.base, self.inverses
        for i in range(level, len(base)):
            point = base[i]
            target = p.images[point]
            if target != point:
                u_inv = inverses[i].get(target)
                if u_inv is None:
                    return p
                p = p * u_inv
        return p

    def contains(self, p: Perm) -> bool:
        return self.sift(p).is_identity()

    def extend(self, g: Perm, level: int = 0) -> bool:
        """Add g to the group of ``level``; return True when that group grew.

        The residue of g becomes a strong generator of the first level whose
        base point it moves, or of a new last level based at its least moved
        point; that level and every level above it, down to ``level``, is
        then rebuilt and Schreier-processed, deepest first.
        """
        residue = self.sift(g, level)
        if residue.is_identity():
            return False
        landed = level
        while landed < len(self.base) and residue.images[self.base[landed]] == self.base[landed]:
            landed += 1
        if landed == len(self.base):
            self.base.append(min(i for i, j in enumerate(residue.images) if i != j))
            self.gens.append([])
            self.transversals.append({})
            self.inverses.append({})
        self.gens[landed].append(residue)
        for i in range(landed, level - 1, -1):
            self._rebuild_tree(i)
            self._process_schreier(i)
        return True

    def _rebuild_tree(self, level: int) -> None:
        root = self.base[level]
        ident = Perm.identity(self.degree)
        gens = [h for hs in self.gens[level:] for h in hs]
        transversal = {root: ident}
        inverses = {root: ident}
        frontier = [root]
        while frontier:
            next_frontier = []
            for point in frontier:
                u = transversal[point]
                for h in gens:
                    target = h.images[point]
                    if target not in transversal:
                        rep = u * h
                        transversal[target] = rep
                        inverses[target] = rep.inverse()
                        next_frontier.append(target)
            frontier = next_frontier
        self.transversals[level] = transversal
        self.inverses[level] = inverses

    def _process_schreier(self, level: int) -> None:
        # Schreier's lemma over a snapshot of the generators: every Schreier
        # generator of this level must land in the next level's group.
        gens = [h for hs in self.gens[level:] for h in hs]
        transversal, inverses = self.transversals[level], self.inverses[level]
        for point in sorted(transversal):
            u = transversal[point]
            for h in gens:
                s = u * h * inverses[h.images[point]]
                if not s.is_identity():
                    self.extend(s, level + 1)

    def iter_elements(self) -> list[Perm]:
        """Every element, in the order deeper rest x this level's transversal."""
        elements = [Perm.identity(self.degree)]
        for transversal in reversed(self.transversals):
            elements = [rest * u for rest in elements for u in transversal.values()]
        return elements

    def random_element(self, rng) -> Perm:
        p = Perm.identity(self.degree)
        for transversal in reversed(self.transversals):
            p = p * transversal[rng.choice(sorted(transversal))]
        return p


class Group:
    """A finite permutation group with generator set and membership structure.

    A group built from generators keeps a Schreier-Sims chain for its order,
    the cap check and membership until it is enumerated, and is then the root
    of its own row index.  A subgroup built inside an enumerated group is a
    bool mask over its root's index, with its generators' indices and no chain.
    """

    __slots__ = (
        "degree", "generators", "cap", "_chain", "_elements", "_sorted", "_rows", "_root", "_mask", "_at",
    )

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
        chain = _Chain(degree)
        for g in gens:
            chain.extend(g)
        self._fill(degree, cap, gens, chain)

    def _fill(
        self, degree: int, cap: int, generators, chain: _Chain | None, root=None, mask=None, at=None
    ) -> "Group":
        """Sets every slot; the one place that does.  ``_mask`` and ``_at`` mark the elements and
        generators over the index of ``_root``, or of the group itself when it is a root."""
        self.degree = degree
        self.cap = cap
        self.generators = tuple(generators)
        self._chain = chain
        self._elements: frozenset[Perm] | None = None
        self._sorted: list[Perm] | None = None
        self._rows: RowIndex | None = None
        self._root: Group | None = root
        self._mask: np.ndarray | None = mask
        self._at: np.ndarray | None = at
        return self

    @classmethod
    def _in(cls, root: "Group", mask: np.ndarray, at) -> "Group":
        elements = root.sorted_elements()
        return cls.__new__(cls)._fill(
            root.degree, root.cap, [elements[i] for i in at], None, root, mask, np.asarray(at, dtype=np.intp)
        )

    @classmethod
    def trivial(cls, degree: int, cap: int | None = None) -> "Group":
        return cls(degree, (), cap=cap)

    @classmethod
    def from_elements(cls, degree: int, elements: Iterable[Perm], cap: int | None = None) -> "Group":
        """Build a group from its full element set (must be closed), as the root of its own index."""
        group = cls.__new__(cls)._fill(degree, enumeration_cap(cap), (), None)
        group._sorted = sorted(set(elements))
        if not group._sorted or not group._sorted[0].is_identity():
            raise ValidationError(f"element set of size {len(group._sorted)} is not closed")
        at = _picks(group.row_index(), group._mask)
        group.generators, group._at = tuple(group._sorted[i] for i in at), np.asarray(at, dtype=np.intp)
        return group

    @classmethod
    def from_mask(cls, ambient: "Group", mask: np.ndarray) -> "Group":
        """The subgroup whose elements ``mask`` marks over the index of ambient's root (must be closed)."""
        root = ambient._frame()[0]
        return cls._in(root, mask, _picks(root.row_index(), mask))

    def _frame(self) -> tuple["Group", np.ndarray, np.ndarray]:
        """(root, mask, generator indices) over the root's index; enumerates a group with neither."""
        if self._mask is None:
            self.row_index()
        return self._root or self, self._mask, self._at

    def _over(self, root: "Group") -> tuple[np.ndarray, np.ndarray]:
        """Mask and generator indices over ``root``'s index, regenerated there for a group of another root."""
        if self._mask is not None and (self._root or self) is root:
            return self._mask, self._at
        at = root.row_index().positions(self.generators)
        if (at < 0).any():
            raise ContainmentError("a generator lies outside the enumerated group")
        return _generated(root.row_index(), at), at

    def mask_over(self, ambient: "Group") -> np.ndarray:
        """This group's elements as a bool mask over the index of ambient's root."""
        return self._over(ambient._frame()[0])[0]

    @property
    def order(self) -> int:
        if self._chain is not None:
            return self._chain.order()
        return int(np.count_nonzero(self._mask))

    def contains(self, x: Perm) -> bool:
        if not isinstance(x, Perm):
            raise ValidationError(f"expected a Perm, got {type(x).__name__}")
        if x.degree != self.degree:
            raise ValidationError(f"element degree {x.degree} != group degree {self.degree}")
        if self._chain is not None and self._elements is None:
            return self._chain.contains(x)
        return x in self.elements()

    def elements(self) -> frozenset[Perm]:
        if self._elements is None:
            if self._chain is not None and self.order > self.cap:
                raise CapacityError(
                    f"group order {self.order} exceeds the enumeration cap {self.cap}"
                )
            listed = self.sorted_elements() if self._chain is None else self._chain.iter_elements()
            self._elements = frozenset(listed)
            if len(self._elements) != self.order:
                raise InternalCheckError("element enumeration disagrees with chain order")
        return self._elements

    def sorted_elements(self) -> list[Perm]:
        if self._sorted is None:
            if self._chain is None:
                every = self._root.sorted_elements()
                self._sorted = [every[i] for i in np.flatnonzero(self._mask).tolist()]
            else:
                self._sorted = sorted(self.elements())
        return self._sorted

    def row_index(self) -> RowIndex:
        """The rows of ``sorted_elements()`` with a vectorized row -> index lookup; a group that
        is not a mask over another becomes the root of this index."""
        if self._rows is None:
            self._rows = RowIndex(self.sorted_elements())
            if self._mask is None:
                self._mask = np.ones(len(self._rows), dtype=bool)
                self._at = self._rows.index_of(self.generators)
        return self._rows

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def _shares_root(self, other: "Group") -> bool:
        both = self._mask is not None and other._mask is not None
        return both and (self._root or self) is (other._root or other)

    def is_subgroup_of(self, other: "Group") -> bool:
        if self.degree != other.degree:
            return False
        if self._shares_root(other):
            return not (self._mask & ~other._mask).any()
        return all(other.contains(g) for g in self.generators)

    def same_subgroup(self, other: "Group") -> bool:
        if self._shares_root(other):
            return np.array_equal(self._mask, other._mask)
        return (
            self.degree == other.degree
            and self.order == other.order
            and all(self.contains(g) for g in other.generators)
        )

    def is_normal_in(self, ambient: "Group") -> bool:
        if self._shares_root(ambient):
            index = (self._root or self).row_index()
            return all(self._mask[index.conjugates(self._at, g)].all() for g in ambient._at.tolist())
        for g in ambient.generators:
            g_inv = g.inverse()
            for x in self.generators:
                if not self.contains(g_inv * x * g):
                    return False
        return True

    def random_element(self, rng) -> Perm:
        if self._chain is None:
            return rng.choice(self.sorted_elements())
        return self._chain.random_element(rng)

    def __repr__(self) -> str:
        return f"Group(degree={self.degree}, order={self.order}, ngens={len(self.generators)})"


def _generated(index: RowIndex, at) -> np.ndarray:
    """Mask of the subgroup generated by the elements at ``at``."""
    return fastset.close(index.unit(), [index.right(i) for i in at], np.array([index.identity]))


def _extend(index: RowIndex, mask: np.ndarray, at: list[int], g: int) -> np.ndarray:
    """Mask of <S, g> for the subgroup S = ``mask`` generated by the elements at ``at``."""
    moved = index.right(g)[mask]
    return fastset.close(mask, [index.right(i) for i in at + [g]], moved[~mask[moved]])


def _picks(index: RowIndex, mask: np.ndarray) -> list[int]:
    """Generators of the subgroup ``mask``: in sort order, each element that the
    earlier picks do not generate.  Raises ValidationError if ``mask`` is not closed."""
    at, span = [], index.unit()
    try:
        while (missing := np.flatnonzero(mask & ~span)).size:
            span = _extend(index, span, at, int(missing[0]))
            at.append(int(missing[0]))
    except InternalCheckError:  # a product left an element set that is its own index
        span = None
    if span is None or not np.array_equal(span, mask):
        raise ValidationError(f"element set of size {np.count_nonzero(mask)} is not closed")
    return at


def _normal_closure(index: RowIndex, seeds, conjugators) -> tuple[np.ndarray, list[int]]:
    """Mask and generators of the normal closure of ``seeds`` under ``conjugators``: each
    seed in sort order, then each conjugate g^-1 x g of a generator x, the latest found
    first, that lies outside the subgroup generated so far."""
    mask, at, queue = index.unit(), [], []

    def add(x: int) -> None:
        nonlocal mask
        if not mask[x]:
            mask = _extend(index, mask, at, x)
            at.append(x)
            queue.append(x)

    for x in sorted(set(seeds)):
        add(x)
    while queue:
        x = queue.pop()
        for g in conjugators:
            add(int(index.conjugates(x, g)))
    return mask, at


def group_from_generators(degree: int, gens: Iterable, cap: int | None = None) -> Group:
    """Group generated by ``gens`` on {0..degree-1}."""
    return Group(degree, gens, cap=cap)


def generated_in(ambient: Group, gens: Iterable[Perm]) -> Group:
    """The subgroup of ``ambient`` generated by ``gens``, as a mask over its root's index;
    its generators are ``gens`` without the identity and repeats."""
    root, inside, _ = ambient._frame()
    index = root.row_index()
    at = index.positions(list(gens))
    if (at < 0).any() or not inside[at].all():
        raise ContainmentError("a generator lies outside the ambient group")
    at = list(dict.fromkeys(i for i in at.tolist() if i != index.identity))
    return Group._in(root, _generated(index, at), at)


def is_member(G: Group, x: Perm) -> bool:
    """Membership test; agrees with exhaustive enumeration when cached."""
    return G.contains(x)


def _require_subgroup(H: Group, ambient: Group, name: str) -> None:
    if H.degree != ambient.degree or not H.is_subgroup_of(ambient):
        raise ContainmentError(f"{name} is not a subgroup of the ambient group")


def normal_closure(generators: Iterable[Perm], ambient: Group) -> Group:
    """Smallest normal subgroup of ``ambient`` containing ``generators``."""
    root, inside, conjugators = ambient._frame()
    seeds = root.row_index().positions(list(generators))
    if (seeds < 0).any() or not inside[seeds].all():
        raise ContainmentError("normal closure seed lies outside the ambient group")
    return Group._in(root, *_normal_closure(root.row_index(), seeds.tolist(), conjugators.tolist()))


def commutator_subgroup(H: Group, K: Group, ambient: Group) -> Group:
    """The subgroup [H, K] generated by all commutators between H and K.

    Computed as the normal closure, inside <H, K>, of the generator-pair
    commutators; that closure equals the full commutator subgroup.
    """
    _require_subgroup(H, ambient, "H")
    _require_subgroup(K, ambient, "K")
    root = ambient._frame()[0]
    index = root.row_index()
    hs, ks = H._over(root)[1].tolist(), K._over(root)[1].tolist()
    comms = {index.commutator(x, y) for x in hs for y in ks} - {index.identity}
    return Group._in(root, *_normal_closure(index, comms, list(dict.fromkeys(hs + ks))))


def intersection(H: Group, K: Group) -> Group:
    """H intersect K: the meet of their masks, or of their element sets across roots."""
    if H.degree != K.degree:
        raise ValidationError("cannot intersect groups of different degree")
    if H._shares_root(K):
        return Group.from_mask(H, H._mask & K._mask)
    if H.order > K.order:
        H, K = K, H
    common = H.elements() & K.elements()
    return Group.from_elements(H.degree, common, cap=H.cap)


def generated_subgroup(degree: int, parts: Iterable[Group], cap: int | None = None) -> Group:
    """Subgroup generated by the union of the given subgroups."""
    parts = list(parts)
    gens = [g for part in parts for g in part.generators]
    if parts and all(part._shares_root(parts[0]) for part in parts):
        return generated_in(parts[0]._frame()[0], gens)
    return Group(degree, gens, cap=cap)


def _conjugation_maps(G: Group) -> tuple[RowIndex, np.ndarray, list[np.ndarray]]:
    """G's root index, G's mask, and x -> g^-1 x g over that index for each generator g of G."""
    root, mask, at = G._frame()
    index = root.row_index()
    return index, mask, [index.conjugates(np.arange(len(index)), g) for g in at.tolist()]


def center(G: Group) -> Group:
    index, central, maps = _conjugation_maps(G)
    for conj in maps:
        central = central & (conj == np.arange(len(index)))
    return Group.from_mask(G, central)


def _r_part(n: int, r: int) -> int:
    m = 1
    while n % r == 0:
        n //= r
        m *= r
    return m


def _power_is_identity(index: RowIndex, m: int) -> np.ndarray:
    """Mask of the elements x with x^m = 1, by repeated squaring of the rows."""
    rows, identity = index.rows, np.arange(index.rows.shape[1])
    power = np.broadcast_to(identity, rows.shape)
    while m:
        if m & 1:
            power = np.take_along_axis(rows, power, axis=1)
        rows = np.take_along_axis(rows, rows, axis=1)
        m >>= 1
    return (power == identity).all(axis=1)


def sylow_subgroup(G: Group, r: int) -> Group:
    """Some Sylow r-subgroup of G."""
    root, mask, _ = G._frame()
    index = root.row_index()
    target = _r_part(G.order, r)
    if G.order == target:
        return G
    # the r-elements are those whose order divides |G|_r
    r_elements = mask & _power_is_identity(index, target)
    # unique-Sylow fast path: all r-elements form the subgroup
    if np.count_nonzero(r_elements) == target:
        try:
            return Group.from_mask(root, r_elements)
        except ValidationError:
            pass
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

    ``basis`` holds coset representatives whose classes decompose the quotient
    as a direct sum of cyclic groups with the given ``orders``; every element
    of the numerator has a unique exponent vector.
    """

    __slots__ = ("numerator", "denominator", "basis", "orders", "_vector_of")

    def __init__(self, numerator: Group, denominator: Group, basis, orders, vector_of):
        self.numerator = numerator
        self.denominator = denominator
        self.basis = tuple(basis)
        self.orders = tuple(orders)
        self._vector_of = vector_of

    @property
    def quotient_order(self) -> int:
        n = 1
        for m in self.orders:
            n *= m
        return n

    @property
    def rank(self) -> int:
        return len(self.basis)

    def decompose(self, x: Perm) -> tuple[int, ...]:
        """Exponent vector of the coset of x; x must lie in the numerator."""
        try:
            return self._vector_of[x]
        except KeyError:
            raise ContainmentError("element is not in the numerator of the section") from None

    def compose(self, vector) -> Perm:
        """A coset representative for the given exponent vector."""
        if len(vector) != len(self.basis):
            raise ValidationError("exponent vector length does not match the basis")
        rep = Perm.identity(self.numerator.degree)
        for b, e, m in zip(self.basis, vector, self.orders):
            rep = rep * (b ** (e % m))
        return rep

    def contains(self, x: Perm) -> bool:
        return x in self._vector_of


def abelian_section(numerator: Group, denominator: Group) -> AbelianSection:
    """Decompose the abelian quotient numerator/denominator into cyclic factors.

    Uses greedy order-maximal picks with a correction step so that the chosen
    representatives give an honest direct-sum decomposition; the construction
    ends with an exhaustive bijection check.
    """
    if denominator.degree != numerator.degree or not denominator.is_subgroup_of(numerator):
        raise PreconditionError("denominator is not a subgroup of the numerator")
    if not denominator.is_normal_in(numerator):
        raise PreconditionError("denominator is not normal in the numerator")
    for i, a in enumerate(numerator.generators):
        for b in numerator.generators[i:]:
            if not denominator.contains(commutator(a, b)):
                raise PreconditionError("quotient is not abelian")

    den_elements = denominator.elements()
    index = numerator.row_index()
    rows, n, degree = index.rows, len(index), numerator.degree
    den_idx = np.sort(index.index_of(den_elements))
    in_den = np.zeros(n, dtype=bool)
    in_den[den_idx] = True

    # column j of powers: the index of x^j, for every x, until every x has
    # come back to the identity
    powers = [np.full(n, index.identity), np.arange(n)]
    power_rows = rows
    returned = powers[-1] == index.identity
    while not returned.all():
        power_rows = np.take_along_axis(rows, power_rows, axis=1)
        powers.append(index.lookup(power_rows))
        returned |= powers[-1] == index.identity
    powers = np.stack(powers, axis=1)

    current = in_den.copy()
    basis: list[int] = []
    orders: list[int] = []
    while not current.all():
        # relative order: the least m >= 1 with x^m in current
        rel = np.argmax(current[powers[:, 1:]], axis=1) + 1
        rel[current] = 0
        best = int(np.argmax(rel))
        best_m = int(rel[best])
        if best_m == 0:
            raise InternalCheckError("ran out of candidates before filling the quotient")
        # correct the representative so its class has the same order in the
        # full quotient: (best * d)^m must fall into the denominator, for the
        # first d of current in sort order
        if in_den[powers[best, best_m]]:
            chosen = best
        else:
            candidates = index.lookup(rows[current][:, rows[best]])
            ok = np.flatnonzero(in_den[powers[candidates, best_m]])
            if not ok.size:
                raise InternalCheckError("direct-sum correction step found no representative")
            chosen = int(candidates[ok[0]])
        basis.append(chosen)
        orders.append(best_m)
        # current * <chosen>: x * chosen^j for x in current and j < m
        products = rows[powers[chosen, :best_m]][:, rows[current]]
        current = np.zeros(n, dtype=bool)
        current[index.lookup(products.reshape(-1, degree))] = True

    # the representative b_1^e_1 ... b_r^e_r of every exponent vector, in
    # itertools.product order, then rep * d for every d in the denominator
    reps = rows[[index.identity]]
    for b, m in zip(basis, orders):
        reps = rows[powers[b, :m]][:, reps].transpose(1, 0, 2).reshape(-1, degree)
    keys = index.lookup(rows[den_idx][:, reps].transpose(1, 0, 2).reshape(-1, degree))
    if np.bincount(keys).max() > 1:
        raise InternalCheckError("exponent vectors do not decompose the quotient uniquely")
    if len(keys) != numerator.order:
        raise InternalCheckError("section decomposition does not cover the numerator")
    elements = numerator.sorted_elements()
    vectors = list(itertools.product(*(range(m) for m in orders)))
    per_vector = len(den_idx)
    vector_of = {elements[i]: vectors[j // per_vector] for j, i in enumerate(keys.tolist())}
    return AbelianSection(numerator, denominator, [elements[b] for b in basis], orders, vector_of)
