"""Finite permutation groups: membership chains, subgroup operations, abelian sections."""

from __future__ import annotations

import itertools
import math
from typing import Iterable

import numpy as np

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

    Immutable after construction; the full element set is cached lazily and
    only when the order fits under the enumeration cap.
    """

    __slots__ = ("degree", "generators", "cap", "_chain", "_elements", "_sorted", "_index", "_rows")

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

    def _fill(self, degree: int, cap: int, generators, chain: _Chain, elements=None) -> "Group":
        """Sets every slot; the one place that does, for each way a group is built."""
        self.degree = degree
        self.cap = cap
        self.generators = tuple(generators)
        self._chain = chain
        self._elements: frozenset[Perm] | None = elements
        self._sorted: list[Perm] | None = None
        self._index: dict[Perm, int] | None = None
        self._rows: RowIndex | None = None
        return self

    @classmethod
    def trivial(cls, degree: int, cap: int | None = None) -> "Group":
        return cls(degree, (), cap=cap)

    @classmethod
    def from_elements(cls, degree: int, elements: Iterable[Perm], cap: int | None = None) -> "Group":
        """Build a group from its full element set (must be closed)."""
        elements = frozenset(elements)
        target = len(elements)
        chain = _Chain(degree)
        gens: list[Perm] = []
        for x in sorted(elements):
            if chain.extend(x):
                gens.append(x)
        if chain.order() != target:
            raise ValidationError(
                f"element set of size {target} is not closed (generated order {chain.order()})"
            )
        return cls.__new__(cls)._fill(degree, enumeration_cap(cap), gens, chain, elements)

    @property
    def order(self) -> int:
        return self._chain.order()

    def contains(self, x: Perm) -> bool:
        if not isinstance(x, Perm):
            raise ValidationError(f"expected a Perm, got {type(x).__name__}")
        if x.degree != self.degree:
            raise ValidationError(f"element degree {x.degree} != group degree {self.degree}")
        if self._elements is not None:
            return x in self._elements
        return self._chain.contains(x)

    def elements(self) -> frozenset[Perm]:
        if self._elements is None:
            if self.order > self.cap:
                raise CapacityError(
                    f"group order {self.order} exceeds the enumeration cap {self.cap}"
                )
            self._elements = frozenset(self._chain.iter_elements())
            if len(self._elements) != self.order:
                raise InternalCheckError("element enumeration disagrees with chain order")
        return self._elements

    def sorted_elements(self) -> list[Perm]:
        if self._sorted is None:
            self._sorted = sorted(self.elements())
        return self._sorted

    def element_index(self) -> dict[Perm, int]:
        """Each element's position in ``sorted_elements()``: index order is sort order."""
        if self._index is None:
            self._index = {x: i for i, x in enumerate(self.sorted_elements())}
        return self._index

    def row_index(self) -> RowIndex:
        """The rows of ``sorted_elements()`` with a vectorized row -> index lookup."""
        if self._rows is None:
            self._rows = RowIndex(self.sorted_elements())
        return self._rows

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def is_subgroup_of(self, other: "Group") -> bool:
        if self.degree != other.degree:
            return False
        return all(other.contains(g) for g in self.generators)

    def same_subgroup(self, other: "Group") -> bool:
        return (
            self.degree == other.degree
            and self.order == other.order
            and all(self.contains(g) for g in other.generators)
        )

    def is_normal_in(self, ambient: "Group") -> bool:
        for g in ambient.generators:
            g_inv = g.inverse()
            for x in self.generators:
                if not self.contains(g_inv * x * g):
                    return False
        return True

    def random_element(self, rng) -> Perm:
        return self._chain.random_element(rng)

    def __repr__(self) -> str:
        return f"Group(degree={self.degree}, order={self.order}, ngens={len(self.generators)})"


def group_from_generators(degree: int, gens: Iterable, cap: int | None = None) -> Group:
    """Group generated by ``gens`` on {0..degree-1}."""
    return Group(degree, gens, cap=cap)


def is_member(G: Group, x: Perm) -> bool:
    """Membership test; agrees with exhaustive enumeration when cached."""
    return G.contains(x)


def _require_subgroup(H: Group, ambient: Group, name: str) -> None:
    if H.degree != ambient.degree or not H.is_subgroup_of(ambient):
        raise ContainmentError(f"{name} is not a subgroup of the ambient group")


def normal_closure(generators: Iterable[Perm], ambient: Group) -> Group:
    """Smallest normal subgroup of ``ambient`` containing ``generators``."""
    seeds = []
    for x in generators:
        if not ambient.contains(x):
            raise ContainmentError("normal closure seed lies outside the ambient group")
        if not x.is_identity():
            seeds.append(x)
    chain = _Chain(ambient.degree)
    gens: list[Perm] = []
    queue: list[Perm] = []
    for x in sorted(set(seeds)):
        if chain.extend(x):
            gens.append(x)
            queue.append(x)
    conjugators = [(g, g.inverse()) for g in ambient.generators]
    while queue:
        x = queue.pop()
        for g, g_inv in conjugators:
            c = g_inv * x * g
            if chain.extend(c):
                gens.append(c)
                queue.append(c)
    return Group.__new__(Group)._fill(ambient.degree, ambient.cap, gens, chain)


def commutator_subgroup(H: Group, K: Group, ambient: Group) -> Group:
    """The subgroup [H, K] generated by all commutators between H and K.

    Computed as the normal closure, inside <H, K>, of the generator-pair
    commutators; that closure equals the full commutator subgroup.
    """
    _require_subgroup(H, ambient, "H")
    _require_subgroup(K, ambient, "K")
    pair_comms = {
        commutator(x, y) for x in H.generators for y in K.generators
    }
    pair_comms.discard(Perm.identity(ambient.degree))
    if not pair_comms:
        return Group.trivial(ambient.degree, cap=ambient.cap)
    joined = Group(ambient.degree, H.generators + K.generators, cap=ambient.cap)
    return normal_closure(pair_comms, joined)


def intersection(H: Group, K: Group) -> Group:
    """H intersect K via the cached element sets."""
    if H.degree != K.degree:
        raise ValidationError("cannot intersect groups of different degree")
    if H.order > K.order:
        H, K = K, H
    common = H.elements() & K.elements()
    return Group.from_elements(H.degree, common, cap=H.cap)


def generated_subgroup(degree: int, parts: Iterable[Group], cap: int | None = None) -> Group:
    """Subgroup generated by the union of the given subgroups."""
    gens: list[Perm] = []
    for part in parts:
        gens.extend(part.generators)
    return Group(degree, gens, cap=cap)


def center(G: Group) -> Group:
    gens = G.generators
    central = [x for x in G.sorted_elements() if all(x * g == g * x for g in gens)]
    return Group.from_elements(G.degree, central, cap=G.cap)


def _r_part(n: int, r: int) -> int:
    m = 1
    while n % r == 0:
        n //= r
        m *= r
    return m


def sylow_subgroup(G: Group, r: int) -> Group:
    """Some Sylow r-subgroup of G."""
    target = _r_part(G.order, r)
    if target == 1:
        return Group.trivial(G.degree, cap=G.cap)
    if G.order == target:
        return G
    r_elements = [x for x in G.sorted_elements() if _r_part(n := x.order(), r) == n]
    # unique-Sylow fast path: all r-elements form the subgroup
    if len(r_elements) == target:
        try:
            return Group.from_elements(G.degree, r_elements, cap=G.cap)
        except ValidationError:
            pass
    current = Group.trivial(G.degree, cap=G.cap)
    while current.order < target:
        extended = None
        for y in r_elements:
            if current.contains(y):
                continue
            candidate = Group(G.degree, current.generators + (y,), cap=G.cap)
            if candidate.order == _r_part(candidate.order, r):
                extended = candidate
                break
        if extended is None:
            raise InternalCheckError(f"could not extend an r-subgroup to Sylow order {target}")
        current = extended
    return current


def subgroup_conjugate_sets(G: Group, P: Group) -> list[frozenset[Perm]]:
    """Element sets of all G-conjugates of P (orbit under conjugation)."""
    start = P.elements()
    seen = {start}
    queue = [start]
    out = [start]
    while queue:
        current = queue.pop()
        for g in G.generators:
            g_inv = g.inverse()
            image = frozenset(g_inv * x * g for x in current)
            if image not in seen:
                seen.add(image)
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
