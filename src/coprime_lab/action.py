"""Coprime actions: an elementary abelian p-group A acting on a p'-group G.

A is never represented as a permutation group; it lives as exponent vectors
in (Z/p)^k together with a homomorphism into Aut(G) given by k commuting
basis automorphisms of order dividing p.

G is indexed once by ``G.sorted_elements()``, so index order is sort order.
Every automorphism is an index array over it, and every subgroup of G is a
bool mask over it: centralizers, fixed points and fixed cosets are found by
masking arrays of indices, and the caches are keyed by mask bytes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from . import fastset
from .errors import (
    ContainmentError,
    InternalCheckError,
    PreconditionError,
    ValidationError,
)
from .groups import Group, generated_in, generated_subgroup, subgroup_conjugate_sets, sylow_subgroup
from .perms import Perm
from .series import _is_prime, is_nilpotent


class Automorphism:
    """A group automorphism given by images of the generators.

    The full map is tabulated on first use as an int32 index array ``T``
    over ``E = source.sorted_elements()``: ``E[T[i]]`` is the image of
    ``E[i]``, and index order is sort order, so composing is a gather.  The
    table is extended over the Cayley graph; the extension verifies the
    homomorphism property on every (element, generator) edge and
    bijectivity, so a malformed image map is rejected with a ValidationError.
    """

    __slots__ = ("source", "images", "_table")

    def __init__(self, source: Group, images: Mapping[Perm, Perm]):
        self.source = source
        img = {}
        for g in source.generators:
            if g not in images:
                raise ValidationError("images must cover every generator of the source group")
            img[g] = images[g]
        self.images = img
        self._table: np.ndarray | None = None

    @classmethod
    def identity(cls, source: Group) -> "Automorphism":
        return cls._from_table(source, np.arange(source.order, dtype=np.int32))

    @classmethod
    def _from_table(cls, source: Group, table: np.ndarray) -> "Automorphism":
        auto = cls.__new__(cls)
        auto.source = source
        gens, elements = source.generators, source.sorted_elements()
        auto.images = {g: elements[table[i]] for g, i in zip(gens, source.row_index().index_of(gens))}
        auto._table = table
        return auto

    @property
    def table(self) -> np.ndarray:
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def _build_table(self) -> np.ndarray:
        source = self.source
        for g, img in self.images.items():
            if not source.contains(img):
                raise ValidationError("a generator image lies outside the source group")
        index = source.row_index()
        pairs = [(index.translate(g), index.translate(img)) for g, img in self.images.items()]
        table = np.full(len(index), -1, dtype=np.int32)
        table[index.identity] = index.identity
        frontier = np.array([index.identity])
        while frontier.size:
            reached = []
            for t_g, t_img in pairs:
                y, ty = t_g[frontier], t_img[table[frontier]]
                known = table[y]
                fresh = known < 0
                if not np.array_equal(known[~fresh], ty[~fresh]):
                    raise ValidationError("generator images do not define a homomorphism")
                table[y[fresh]] = ty[fresh]
                reached.append(y[fresh])
            frontier = np.concatenate(reached)
        if (table < 0).any():
            raise InternalCheckError("automorphism table does not cover the group")
        hit = np.zeros(len(table), dtype=bool)
        hit[table] = True
        if not hit.all():
            raise ValidationError("generator images define a non-bijective endomorphism")
        return table

    def apply(self, x: Perm) -> Perm:
        source = self.source
        return source.sorted_elements()[self.table[source.row_index().index_of([x])[0]]]

    def then(self, other: "Automorphism") -> "Automorphism":
        """Composite: apply self, then other."""
        return Automorphism._from_table(self.source, other.table[self.table])

    def power(self, n: int) -> "Automorphism":
        """The n-fold composite, by repeated squaring of the table."""
        base = self.table
        table = np.arange(len(base), dtype=np.int32)
        while n:
            if n & 1:
                table = base[table]
            base = base[base]
            n >>= 1
        return Automorphism._from_table(self.source, table)

    def is_identity(self) -> bool:
        return all(g == img for g, img in self.images.items())

    def agrees_with(self, other: "Automorphism") -> bool:
        return all(other.images[g] == img for g, img in self.images.items())


@dataclass(frozen=True)
class ASubgroupDescriptor:
    """A subgroup B <= A described by its reduced row-echelon basis."""

    p: int
    k: int
    vectors: tuple[tuple[int, ...], ...]
    codim: int

    @classmethod
    def from_vectors(cls, p: int, k: int, vectors: Iterable) -> "ASubgroupDescriptor":
        basis = _reduced_basis(p, k, [tuple(int(c) % p for c in v) for v in vectors])
        return cls(p=p, k=k, vectors=basis, codim=k - len(basis))

    @classmethod
    def full(cls, p: int, k: int) -> "ASubgroupDescriptor":
        basis = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
        return cls.from_vectors(p, k, basis)

    @classmethod
    def generated_by(cls, p: int, k: int, vector) -> "ASubgroupDescriptor":
        return cls.from_vectors(p, k, [vector])

    @cached_property
    def _elements(self) -> frozenset[tuple[int, ...]]:
        return _span(self.p, self.k, self.vectors)

    def key(self) -> frozenset[tuple[int, ...]]:
        return self._elements


def _span(p: int, k: int, basis) -> frozenset[tuple[int, ...]]:
    """All p^dim linear combinations of the basis vectors."""
    span = [tuple(0 for _ in range(k))]
    for b in basis:
        span = [tuple((x + c * y) % p for x, y in zip(v, b)) for c in range(p) for v in span]
    return frozenset(span)


def _reduced_basis(p: int, k: int, vectors) -> tuple[tuple[int, ...], ...]:
    """Row-reduced echelon basis of the subspace spanned by the given vectors."""
    rows = [list(v) for v in vectors if any(v)]
    basis: list[list[int]] = []
    pivot_cols: list[int] = []
    for col in range(k):
        cand = None
        for row in rows:
            if row[col] % p != 0 and all(row[c] % p == 0 for c in range(col)):
                cand = row
                break
        if cand is None:
            continue
        inv = pow(cand[col], -1, p)
        cand = [(c * inv) % p for c in cand]
        for row in rows:
            f = row[col] % p
            if f and row is not cand:
                for j in range(k):
                    row[j] = (row[j] - f * cand[j]) % p
        for prev, pcol in zip(basis, pivot_cols):
            f = prev[col] % p
            if f:
                for j in range(k):
                    prev[j] = (prev[j] - f * cand[j]) % p
        basis.append(cand)
        pivot_cols.append(col)
        rows = [row for row in rows if any(row)]
    return tuple(tuple(b) for b in basis)


def all_subspaces(p: int, k: int) -> list[ASubgroupDescriptor]:
    """Every subspace of (Z/p)^k, p prime, each once in its canonical basis.

    Subspaces are enumerated directly as reduced row-echelon matrices: a
    pivot set of each size d, then every value in Z/p for the entries right
    of a pivot and outside the pivot columns.  ``vectors`` is therefore the
    basis that ``from_vectors`` would produce.  The list is sorted by
    (codim, vectors): ascending codimension, ties broken by the basis rows.
    """
    out = []
    for d in range(k + 1):
        for pivots in itertools.combinations(range(k), d):
            free = [(r, c) for r, pc in enumerate(pivots) for c in range(pc + 1, k) if c not in pivots]
            for values in itertools.product(range(p), repeat=len(free)):
                rows = [[1 if c == pc else 0 for c in range(k)] for pc in pivots]
                for (r, c), x in zip(free, values):
                    rows[r][c] = x
                basis = tuple(tuple(row) for row in rows)
                out.append(ASubgroupDescriptor(p=p, k=k, vectors=basis, codim=k - d))
    return sorted(out, key=lambda d: (d.codim, d.vectors))


class ActionSetup:
    """The triple (G, A, phi): A = (Z/p)^k acting on the p'-group G.

    ``basis`` lists the automorphisms phi(e_1), ..., phi(e_k); general phi(u)
    values are composed (and cached) on demand.  G must be a root, a group
    built from generators or elements, so that masks of its subgroups and
    the automorphism tables share one index.
    """

    __slots__ = ("G", "p", "k", "basis", "_phi_cache", "_fixed_cache", "_coset_cache")

    def __init__(self, G: Group, p: int, k: int, basis: Iterable[Automorphism]):
        basis = tuple(basis)
        if k < 1 or len(basis) != k:
            raise ValidationError(f"need exactly k={k} basis automorphisms, got {len(basis)}")
        if not _is_prime(p):
            raise ValidationError(f"p must be a prime, got {p}")
        for auto in basis:
            if auto.source is not G:
                raise ValidationError("basis automorphisms must act on the setup's group")
        if G._root is not None:
            raise ValidationError("the setup's group must be built from generators or elements")
        self.G = G
        self.p = p
        self.k = k
        self.basis = basis
        self._phi_cache: dict[tuple[int, ...], Automorphism] = {}
        self._fixed_cache: dict[bytes, Group] = {}
        self._coset_cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def zero_vector(self) -> tuple[int, ...]:
        return tuple(0 for _ in range(self.k))

    def basis_vectors(self) -> list[tuple[int, ...]]:
        return [tuple(1 if i == j else 0 for i in range(self.k)) for j in range(self.k)]

    def all_vectors(self) -> list[tuple[int, ...]]:
        return [v for v in itertools.product(range(self.p), repeat=self.k)]

    def nonzero_vectors(self) -> list[tuple[int, ...]]:
        return [v for v in self.all_vectors() if any(v)]

    def phi(self, vector) -> Automorphism:
        vector = tuple(int(c) % self.p for c in vector)
        if len(vector) != self.k:
            raise ValidationError("exponent vector length does not match k")
        cached = self._phi_cache.get(vector)
        if cached is not None:
            return cached
        table = np.arange(self.G.order, dtype=np.int32)
        for exp, base in zip(vector, self.basis):
            for _ in range(exp):
                table = base.table[table]
        auto = Automorphism._from_table(self.G, table)
        self._phi_cache[vector] = auto
        return auto

    def is_invariant_mask(self, mask: np.ndarray) -> bool:
        """Whether every basis automorphism maps the element mask into itself."""
        return all(mask[base.table[mask]].all() for base in self.basis)

    def is_invariant_subgroup(self, H: Group) -> bool:
        if H.degree != self.G.degree:
            return False
        try:
            mask = H.mask_over(self.G)
        except ContainmentError:
            return False
        return self.is_invariant_mask(mask)

    def orbit_of_element(self, x: Perm) -> frozenset[Perm]:
        at, ordered = self.G.row_index().index_of([x])[0], self.G.sorted_elements()
        return frozenset(ordered[self.phi(u).table[at]] for u in self.all_vectors())


@dataclass
class SetupReport:
    """Outcome of validate_setup: ok plus a list of human-readable problems."""

    ok: bool
    problems: list[str] = field(default_factory=list)


def validate_setup(setup: ActionSetup) -> SetupReport:
    """Confirm coprimality and that phi is a homomorphism into Aut(G)."""
    problems: list[str] = []
    if math.gcd(setup.G.order, setup.p) != 1:
        problems.append(f"|G| = {setup.G.order} is divisible by p = {setup.p}")
    valid = []
    for j, base in enumerate(setup.basis):
        try:
            base.table
            valid.append((j, base))
        except ValidationError as exc:
            problems.append(f"basis automorphism {j}: {exc}")
    for j, base in valid:
        if not base.power(setup.p).is_identity():
            problems.append(f"basis automorphism {j} has order not dividing p = {setup.p}")
    for (i, a), (j, b) in itertools.combinations(valid, 2):
        if not a.then(b).agrees_with(b.then(a)):
            problems.append(f"basis automorphisms {i} and {j} do not commute")
    if not setup.phi(setup.zero_vector()).is_identity():
        problems.append("phi(0) is not the identity automorphism")
    return SetupReport(ok=not problems, problems=problems)


def maximal_subgroups(setup: ActionSetup) -> list[ASubgroupDescriptor]:
    """All index-p subgroups of A, exactly (p^k - 1)/(p - 1) of them."""
    p, k = setup.p, setup.k
    functionals = []
    for v in itertools.product(range(p), repeat=k):
        if not any(v):
            continue
        lead = next(c for c in v if c)
        if lead == 1:
            functionals.append(v)
    out = []
    for f in sorted(functionals):
        pivot = next(i for i, c in enumerate(f) if c)
        basis = []
        for j in range(k):
            if j == pivot:
                continue
            vec = [0] * k
            vec[j] = 1
            vec[pivot] = (-f[j] * pow(f[pivot], -1, p)) % p
            basis.append(tuple(vec))
        out.append(ASubgroupDescriptor.from_vectors(p, k, basis))
    expected = (p**k - 1) // (p - 1)
    if len(out) != expected:
        raise InternalCheckError(f"found {len(out)} maximal subgroups, expected {expected}")
    return out


def _fixed_mask(setup: ActionSetup, B: ASubgroupDescriptor) -> np.ndarray:
    """The mask of the elements fixed by every phi(u), u in B."""
    every = np.arange(setup.G.order)
    fixed = np.ones(len(every), dtype=bool)
    for u in B.vectors:
        fixed &= setup.phi(u).table == every
    return fixed


def fixed_subgroup(setup: ActionSetup, B: ASubgroupDescriptor) -> Group:
    """C_G(B): the elements fixed by every automorphism phi(u), u in B.

    One group per fixed mask, so subgroups B with the same centralizer share it.
    """
    fixed = _fixed_mask(setup, B)
    key = fixed.tobytes()
    cached = setup._fixed_cache.get(key)
    if cached is None:
        cached = setup._fixed_cache[key] = Group.from_mask(setup.G, fixed)
    return cached


def fixed_elements_in(setup: ActionSetup, B: ASubgroupDescriptor, elements: Iterable[Perm]) -> list[Perm]:
    """Elements of the given collection fixed by every phi(u), u in B, sorted (index order is sort order)."""
    idx = np.sort(setup.G.row_index().index_of(list(elements)))
    ordered = setup.G.sorted_elements()
    return [ordered[i] for i in idx[_fixed_mask(setup, B)[idx]]]


def _require_invariant_normal(setup: ActionSetup, N: Group) -> None:
    if not N.is_subgroup_of(setup.G):
        raise PreconditionError("N is not a subgroup of G")
    if not N.is_normal_in(setup.G):
        raise PreconditionError("N is not normal in G")
    if not setup.is_invariant_subgroup(N):
        raise PreconditionError("N is not A-invariant")


def _coset_index_map(setup: ActionSetup, N: Group) -> tuple[np.ndarray, np.ndarray]:
    """Coset labels over G's index, and the index of each coset's least element.

    Cosets are numbered in the order of their least elements.
    """
    key = N.mask_over(setup.G).tobytes()
    cached = setup._coset_cache.get(key)
    if cached is not None:
        return cached
    least = fastset.coset_labels(setup.G.row_index(), N.generators)
    reps = np.flatnonzero(least == np.arange(len(least)))
    result = (np.searchsorted(reps, least), reps)
    setup._coset_cache[key] = result
    return result


def check_fg1_quotient(setup: ActionSetup, N: Group, B: ASubgroupDescriptor) -> bool:
    """Fixed points in G/N equal the image of C_G(B): C_{G/N}(B) = C_G(B)N/N."""
    _require_invariant_normal(setup, N)
    labels, reps = _coset_index_map(setup, N)
    fixed_below = np.arange(len(reps))
    for u in B.vectors:
        fixed_below = fixed_below[labels[setup.phi(u).table[reps[fixed_below]]] == fixed_below]
    image = np.unique(labels[fixed_subgroup(setup, B).mask_over(setup.G)])
    return np.array_equal(fixed_below, image)


def check_fg2_generation(setup: ActionSetup, H: Group) -> bool:
    """H = <C_H(A_1), ..., C_H(A_s)>; for nilpotent H also the setwise product."""
    if setup.k < 2:
        raise PreconditionError("the generation lemma needs rank k >= 2")
    if not setup.is_invariant_subgroup(H):
        raise PreconditionError("H is not A-invariant")
    h_mask = H.mask_over(setup.G)
    parts = [Group.from_mask(setup.G, h_mask & _fixed_mask(setup, A_j)) for A_j in maximal_subgroups(setup)]
    generated = generated_subgroup(setup.G.degree, parts, cap=setup.G.cap)
    if generated.order != H.order:
        return False
    if is_nilpotent(H):
        factors = [part.generators for part in sorted(parts, key=lambda part: part.order, reverse=True)]
        if not fastset.setwise_product_covers(H.row_index(), factors):
            return False
    return True


def invariant_sylow(setup: ActionSetup, H: Group, r: int) -> Group:
    """An A-invariant Sylow r-subgroup of the A-invariant subgroup H."""
    if not setup.is_invariant_subgroup(H):
        raise PreconditionError("H is not A-invariant")
    H = generated_in(setup.G, H.generators)  # H's masks over G's index, which the tables use
    P = sylow_subgroup(H, r)
    if P.is_trivial or P.order == H.order:
        return P
    if setup.is_invariant_subgroup(P):
        return P
    for candidate in subgroup_conjugate_sets(H, P):
        if setup.is_invariant_mask(candidate):
            return Group.from_mask(setup.G, candidate)
    raise InternalCheckError(
        "no A-invariant Sylow subgroup among the conjugates; coprime theory guarantees one"
    )


def induced_action_on_quotient(setup: ActionSetup, N: Group) -> ActionSetup:
    """The induced setup on a faithful permutation representation of G/N."""
    _require_invariant_normal(setup, N)
    labels, reps = _coset_index_map(setup, N)
    index = setup.G.row_index()
    degree = max(len(reps), 1)

    def coset_perm(i: int) -> Perm:
        """The permutation of the cosets x N by right multiplication with element i."""
        return Perm._raw(tuple(labels[index.right(i)[reps]].tolist()))

    at = index.index_of(setup.G.generators).tolist()
    gen_images = {g: coset_perm(i) for g, i in zip(setup.G.generators, at)}
    quotient = Group(degree, list(gen_images.values()), cap=setup.G.cap)
    if quotient.order != setup.G.order // N.order:
        raise InternalCheckError("coset action has the wrong order for the quotient")
    kept = set(quotient.generators)
    new_basis = []
    for base in setup.basis:
        images: dict[Perm, Perm] = {}
        for (g, q), i in zip(gen_images.items(), at):
            if q not in kept:
                continue
            img = coset_perm(int(base.table[i]))
            if q in images and images[q] != img:
                raise InternalCheckError("induced automorphism is not well-defined on cosets")
            images[q] = img
        new_basis.append(Automorphism(quotient, images))
    return ActionSetup(quotient, setup.p, setup.k, new_basis)
