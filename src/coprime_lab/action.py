"""Coprime actions: an elementary abelian p-group A acting on a p'-group G.

A is never represented as a permutation group; it lives as exponent vectors
in (Z/p)^k together with a homomorphism into Aut(G) given by k commuting
basis automorphisms of order dividing p.

G is enumerated once into the sorted rows of its index, so index order is
sort order.  Every automorphism is an index array over it, evaluated from
the generators' images along the one spanning tree of G's Cayley graph that
the index keeps, and every subgroup of G is a bool mask over it:
centralizers, fixed points and fixed cosets are found by masking arrays of
indices.  Each ``ActionSetup`` computes the centralizer of a subgroup B <= A,
with its fixed mask, once, keyed by B's reduced row-echelon basis; its other
caches are keyed by mask bytes, among them the coset map of each normal
subgroup N, built once N is checked to be A-invariant and normal.  What depends on A alone, its
subspaces, its maximal subgroups and the subgroup each vector generates, is
built once per (p, k) and shared by every setup.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import fastset
from .errors import (
    ContainmentError,
    InternalCheckError,
    PreconditionError,
    ValidationError,
)
from .groups import Group, generated_subgroup, subgroup_conjugate_sets, sylow_subgroup
from .perms import Perm
from .series import _is_prime, is_nilpotent


class Automorphism:
    """A group automorphism, stored as its table once it is built.

    The full map is an int32 index array ``T`` over the source's index:
    element ``T[i]`` is the image of element i, and index order is sort
    order, so composing is a gather.  An automorphism given by the images of
    the generators keeps them only until its table is built, on first use:
    the table is evaluated along the spanning tree of the source's Cayley
    graph over its generators that its index keeps (``RowIndex.tree``), one
    gather per round, then checked for the homomorphism property on every
    (element, generator) edge and for bijectivity, so a malformed image map
    is rejected with a ValidationError.
    ``images`` reads the generators' images back from the table.
    """

    __slots__ = ("source", "_given", "_table")

    def __init__(self, source: Group, images: Mapping[Perm, Perm]):
        self.source = source
        img = {}
        for g in source.generators:
            if g not in images:
                raise ValidationError("images must cover every generator of the source group")
            img[g] = images[g]
        self._given: dict[Perm, Perm] | None = img
        self._table: np.ndarray | None = None

    @classmethod
    def identity(cls, source: Group) -> "Automorphism":
        return cls._from_table(source, np.arange(source.order, dtype=np.int32))

    @classmethod
    def _from_table(cls, source: Group, table: np.ndarray) -> "Automorphism":
        auto = cls.__new__(cls)
        auto.source, auto._given, auto._table = source, None, table
        return auto

    @property
    def table(self) -> np.ndarray:
        if self._table is None:
            self._table = self._build_table()
            self._given = None
        return self._table

    @property
    def images(self) -> dict[Perm, Perm]:
        """The image of every generator of the source, read from the table as a new dict."""
        index = self.source.row_index()
        return dict(zip(self.source.generators, index.perms(self.table[index.gens])))

    def _build_table(self) -> np.ndarray:
        source = self.source
        index = source.row_index()
        images = list(self._given.values())
        if not all(isinstance(img, Perm) for img in images):
            raise ValidationError("a generator image lies outside the source group")
        imgs = index.positions(images)
        if (imgs < 0).any():
            raise ValidationError("a generator image lies outside the source group")
        # the given generators are the index's, in order; x = parent * g maps to T(parent) * T(g)
        tree = index.tree
        img_t = [index.right(i) for i in imgs.tolist()]
        table = np.empty(len(index), dtype=np.int32)
        table[index.identity] = index.identity
        if img_t:
            stacked = np.stack(img_t)
            for start, stop in zip(tree.rounds[1:-1], tree.rounds[2:]):
                children = tree.order[start:stop]
                table[children] = stacked[tree.gen[children], table[tree.parent[children]]]
        for g, t_img in zip(index.gens.tolist(), img_t):
            if not np.array_equal(table[index.right(g)], t_img[table]):
                raise ValidationError("generator images do not define a homomorphism")
        hit = np.zeros(len(table), dtype=bool)
        hit[table] = True
        if not hit.all():
            raise ValidationError("generator images define a non-bijective endomorphism")
        return table

    def apply(self, x: Perm) -> Perm:
        index = self.source.row_index()
        at = index.positions([x])
        if at[0] < 0:
            raise ContainmentError("element is not in the automorphism's source group")
        return index.perms(self.table[at])[0]

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
        return np.array_equal(self.table, np.arange(len(self.table)))

    def agrees_with(self, other: "Automorphism") -> bool:
        return np.array_equal(self.table, other.table)


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
        """<vector>, row-reduced once per (p, k, vector)."""
        return _generated_by(p, k, tuple(vector))


@functools.lru_cache(maxsize=None)
def _generated_by(p: int, k: int, vector: tuple) -> ASubgroupDescriptor:
    return ASubgroupDescriptor.from_vectors(p, k, [vector])


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
    It is built once per (p, k) and handed out as a new list on each call.
    """
    return list(_all_subspaces(p, k))


@functools.lru_cache(maxsize=None)
def _all_subspaces(p: int, k: int) -> tuple[ASubgroupDescriptor, ...]:
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
    return tuple(sorted(out, key=lambda d: (d.codim, d.vectors)))


class ActionSetup:
    """The triple (G, A, phi): A = (Z/p)^k acting on the p'-group G.

    ``basis`` lists the automorphisms phi(e_1), ..., phi(e_k); general phi(u)
    values are composed (and cached) on demand.  G must be a root, a group
    built from generators, so that masks of its subgroups and the
    automorphism tables share one index.  The centralizer of each B <= A, with
    its fixed mask, is computed once per setup, keyed by B's basis; the maximal
    subgroups of A, once per (p, k).
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
            raise ValidationError("the setup's group must be built from generators")
        self.G = G
        self.p = p
        self.k = k
        self.basis = basis
        self._phi_cache: dict[tuple[int, ...], Automorphism] = {}
        self._fixed_cache: dict[tuple[tuple[int, ...], ...], Group] = {}
        self._coset_cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def basis_vectors(self) -> list[tuple[int, ...]]:
        return [tuple(1 if i == j else 0 for i in range(self.k)) for j in range(self.k)]

    def all_vectors(self) -> list[tuple[int, ...]]:
        return [v for v in itertools.product(range(self.p), repeat=self.k)]

    def nonzero_vectors(self) -> list[tuple[int, ...]]:
        return [v for v in self.all_vectors() if any(v)]

    def phi(self, vector) -> Automorphism:
        """phi(u), composed once per u; a given tuple is looked up before it is reduced mod p."""
        if isinstance(vector, tuple) and vector in self._phi_cache:
            return self._phi_cache[vector]
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

    def orbit_of_element(self, at: int) -> frozenset[int]:
        """The A-orbit of element ``at`` of G's index, as indices: k(p - 1) gathers in the basis tables."""
        orbit = np.array([at])
        for base in self.basis:
            powers = [orbit]
            for _ in range(self.p - 1):
                powers.append(base.table[powers[-1]])
            orbit = np.concatenate(powers)
        return frozenset(orbit.tolist())


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
    return SetupReport(ok=not problems, problems=problems)


def maximal_subgroups(setup: ActionSetup) -> list[ASubgroupDescriptor]:
    """All index-p subgroups of A, exactly (p^k - 1)/(p - 1) of them, in a new list
    each call; they are built once per (p, k), for every setup with that A."""
    return list(_maximal_subgroups(setup.p, setup.k))


@functools.lru_cache(maxsize=None)
def _maximal_subgroups(p: int, k: int) -> tuple[ASubgroupDescriptor, ...]:
    """The kernel of each functional on (Z/p)^k whose first nonzero coefficient is 1."""
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
    return tuple(out)


def fixed_subgroup(setup: ActionSetup, B: ASubgroupDescriptor) -> Group:
    """C_G(B): the elements fixed by every automorphism phi(u), u in B.

    One group per basis of B, with a read-only mask; groups of equal masks share
    their generators through ``Group.from_mask``'s memo.
    """
    cached = setup._fixed_cache.get(B.vectors)
    if cached is None:
        every = np.arange(setup.G.order)
        fixed = np.ones(len(every), dtype=bool)
        for u in B.vectors:
            fixed &= setup.phi(u).table == every
        cached = setup._fixed_cache[B.vectors] = Group.from_mask(setup.G, fixed)
    return cached


def _coset_index_map(setup: ActionSetup, N: Group) -> tuple[np.ndarray, np.ndarray]:
    """Coset labels over G's index, and the index of each coset's least element.

    Cosets are numbered in the order of their least elements.  N must be an
    A-invariant normal subgroup of G, else PreconditionError: normality and
    invariance are checked once per mask of N, when its map is first built,
    and a failing N is checked, and raises, on every call.
    """
    if not N.is_subgroup_of(setup.G):
        raise PreconditionError("N is not a subgroup of G")
    mask, at = N._over(setup.G)._frame()[1:]
    key = mask.tobytes()
    cached = setup._coset_cache.get(key)
    if cached is not None:
        return cached
    if not N.is_normal_in(setup.G):
        raise PreconditionError("N is not normal in G")
    if not setup.is_invariant_subgroup(N):
        raise PreconditionError("N is not A-invariant")
    least = fastset.coset_labels(setup.G.row_index(), at)
    reps = np.flatnonzero(least == np.arange(len(least)))
    result = (np.searchsorted(reps, least), reps)
    setup._coset_cache[key] = result
    return result


def check_fg1_quotient(setup: ActionSetup, N: Group, B: ASubgroupDescriptor) -> bool:
    """Fixed points in G/N equal the image of C_G(B): C_{G/N}(B) = C_G(B)N/N."""
    labels, reps = _coset_index_map(setup, N)
    fixed_below = np.arange(len(reps))
    for u in B.vectors:
        fixed_below = fixed_below[labels[setup.phi(u).table[reps[fixed_below]]] == fixed_below]
    image = np.zeros(len(reps), dtype=bool)
    image[labels[fixed_subgroup(setup, B).mask_over(setup.G)]] = True
    return np.array_equal(fixed_below, np.flatnonzero(image))


def check_fg2_generation(setup: ActionSetup, H: Group) -> bool:
    """H = <C_H(A_1), ..., C_H(A_s)>; for nilpotent H also the setwise product."""
    if setup.k < 2:
        raise PreconditionError("the generation lemma needs rank k >= 2")
    if not setup.is_invariant_subgroup(H):
        raise PreconditionError("H is not A-invariant")
    h_mask = H.mask_over(setup.G)
    centralizers = [fixed_subgroup(setup, A_j) for A_j in maximal_subgroups(setup)]
    parts = [Group.from_mask(setup.G, h_mask & C.mask_over(setup.G)) for C in centralizers]
    generated = generated_subgroup(setup.G, parts)
    if generated.order != H.order:
        return False
    if is_nilpotent(H):
        factors = [part._at for part in sorted(parts, key=lambda part: part.order, reverse=True)]
        if not fastset.setwise_product_covers(setup.G.row_index(), factors, h_mask):
            return False
    return True


def invariant_sylow(setup: ActionSetup, H: Group, r: int) -> Group:
    """An A-invariant Sylow r-subgroup of the A-invariant subgroup H."""
    if not setup.is_invariant_subgroup(H):
        raise PreconditionError("H is not A-invariant")
    H = H._over(setup.G)  # H over G's index, which the tables use
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
    labels, reps = _coset_index_map(setup, N)
    index = setup.G.row_index()
    degree = max(len(reps), 1)

    def coset_perm(i: int) -> Perm:
        """The permutation of the cosets x N by right multiplication with element i."""
        return Perm._raw(tuple(labels[index.right(i)[reps]].tolist()))

    at = setup.G._at.tolist()
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
