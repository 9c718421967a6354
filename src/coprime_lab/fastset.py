"""An enumerated group as a row array with an exact, vectorized row -> index lookup.

``RowIndex`` holds the sorted image rows of a group's elements, so index order
is sort order and every subgroup built inside the group is a bool mask over
it.  The rows are the group's one per-element store; ``perms`` makes ``Perm``
objects from them on request.  The index knows the group's generators, and
``RowIndex.tree`` is the one breadth-first spanning tree of the Cayley graph
over them: each element's parent and generator, round by round, as the
enumeration recorded it.  The right translate x -> x e_i by element i is kept
per element and follows one rule: a generator's translate is recorded by the
enumeration and confirmed row-equal to the generator applied to every row,
and every other translate is composed from the generators' translates along
the tree, by gathers alone.  Conjugates and commutators are
gathers in those translates, left cosets and setwise products of subgroups
follow from them as masks, and automorphism tables are evaluated along the
tree one round at a time.  ``RowIndex.power(d)`` is the column x -> x^d,
built once per d: a composite d is a gather of two smaller columns and a
prime d is one row product, x^(d-1) x.

Every element the index builds from others, a power, an inverse or a product
in an abelian section, is found by its images of a base, a set of points whose
images determine each element (Seress 2003, ch. 4): the points at which two
neighbouring sorted rows first differ, found on the first such lookup.  Their
images sort in index order, so one ``searchsorted`` of an integer key finds
the element, and a product gathers only the base columns of its factors.  That
lookup cannot give a wrong index for a product that is computed correctly, but
it trusts that the images are an element's: a row outside the group is refused
only when no element has its base images.  Rows given from outside (element
positions, the identity and generators at set-up, another root's rows) are
still looked up and confirmed whole.  ``RowIndex.memo`` keeps the subgroup
algebra done over the index, such as generators, commutator subgroups and
series terms, keyed by the masks it was computed from; its values are
arrays, never groups, so the index holds no reference back to a group and a
set-up is freed as soon as it is dropped.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InternalCheckError
from .perms import Perm


def rows_of(elements: Iterable[Perm], degree: int) -> np.ndarray:
    """The image rows of ``elements``: big-endian unsigned integers, 16-bit up to degree
    65,536 and 32-bit past it, so that a row's bytes compare like its image tuple."""
    dtype = np.dtype(">u2") if degree <= 1 << 16 else np.dtype(">u4")
    return np.array([x.images for x in elements], dtype=dtype).reshape(-1, degree)


class SpanningTree(NamedTuple):
    """A breadth-first spanning tree of the Cayley graph x -- x g over an index's generators.

    ``order`` lists the elements, the identity first and then round by round, round r
    being ``order[rounds[r]:rounds[r + 1]]``.  Every element x of a round after the first
    is parent[x] * g for the generator g at ``gens[gen[x]]`` of the index, with parent[x]
    in the round before; the identity's entries mean nothing.
    """

    order: np.ndarray
    parent: np.ndarray
    gen: np.ndarray
    rounds: np.ndarray


def row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row's bytes as one void scalar, a view of ``rows``: its sort and lookup key."""
    return rows.view(f"V{rows.dtype.itemsize * rows.shape[1]}").ravel()


def _base_points(rows: np.ndarray) -> np.ndarray:
    """The points at which two neighbouring ``rows`` first differ, ascending.  Two rows i < j
    first differ where some neighbours between them first differ, at the least such point,
    so for sorted rows the images of these points sort as the rows do."""
    on = np.zeros(rows.shape[1], dtype=bool)
    block = max(1, (1 << 20) // rows.shape[1])
    for at in range(0, len(rows) - 1, block):
        chunk = rows[at:at + block + 1]
        on[(chunk[1:] != chunk[:-1]).argmax(axis=1)] = True
    return np.flatnonzero(on)


class RowIndex:
    """Row i of ``rows`` is element i of a sorted element list, generated by the
    elements whose rows are ``generators``.

    ``rows`` come in ``rows_of``'s row type, in the order of their keys
    (``row_keys``), and each key is unique: two equal neighbours raise
    InternalCheckError.
    ``searchsorted`` finds a row among the keys, and the row is then
    confirmed equal.  The keys are a view of ``rows``, so the elements are
    stored once.  ``gens`` holds the generators' indices, in the given order.
    ``translates`` and ``tree`` are what the enumeration recorded (row j of
    ``translates`` is the translate by generator j), so right translates
    follow one rule: a generator's translate is confirmed, for every row, to
    be the row of the generator gathered at it, or InternalCheckError is
    raised, and every other translate is composed from the generators'
    along ``tree`` by gathers alone.  Other translates, inverses and power
    columns are built on first use and kept; the columns are read-only.
    ``base`` is built on the first lookup by base images (``lookup_base``),
    with each row's key over it; the keys must strictly increase with the
    index, or InternalCheckError is raised.  Such a lookup confirms only the
    base images, so it is for elements the index composes, while ``lookup``
    and ``positions`` confirm whole rows.
    ``memo`` maps a key built from subgroup masks (``mask_key``) to the
    arrays computed from them, for whoever computes over this index.
    """

    __slots__ = (
        "rows", "_keys", "identity", "gens", "tree", "_right", "_inverse", "_powers", "memo", "_mask_keys",
        "_base", "_base_keys",
    )

    def __init__(self, rows: np.ndarray, generators: np.ndarray, translates: np.ndarray, tree: SpanningTree):
        self.rows = rows
        self._keys = row_keys(rows)
        if (self._keys[1:] == self._keys[:-1]).any():
            raise InternalCheckError("the sorted rows list an element twice")
        # np.take widens a block's indices at once, faster than indexing and bounded by the block
        block = max(1, (1 << 20) // rows.shape[1])
        for g, t in zip(generators, translates):
            for at in range(0, len(rows), block):
                if not np.array_equal(rows[t[at:at + block]], np.take(g, rows[at:at + block])):
                    raise InternalCheckError("a recorded translate is not the right translate by its generator")
        self.tree = tree
        self._inverse: np.ndarray | None = None
        self._base: np.ndarray | None = None
        self._base_keys: np.ndarray | None = None
        self._powers: dict[int, np.ndarray] = {}
        self.memo: dict[tuple, object] = {}
        self._mask_keys: dict[bytes, bytes] = {}
        self.identity = int(self.lookup(np.arange(rows.shape[1])[None, :])[0])
        self.gens = self.lookup(generators)
        self.gens.flags.writeable = False
        self._right: dict[int, np.ndarray] = dict(zip(self.gens.tolist(), translates))

    def __len__(self) -> int:
        return len(self.rows)

    def _find(self, rows: np.ndarray) -> np.ndarray:
        """Index of every row, or -1 for a row that is not an element."""
        if rows.ndim != 2 or rows.shape[1] != self.rows.shape[1]:
            raise InternalCheckError("rows do not have the indexed group's degree")
        keys = np.ascontiguousarray(rows, dtype=self.rows.dtype).view(self._keys.dtype).ravel()
        found = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return np.where(self._keys[found] == keys, found, -1)

    def lookup(self, rows: np.ndarray) -> np.ndarray:
        """Index of every row; a row that is not an element raises, never a wrong index."""
        found = self._find(rows)
        if (found < 0).any():
            raise InternalCheckError("a row is not an element of the indexed group")
        return found

    @property
    def base(self) -> np.ndarray:
        """The base points (``_base_points`` of the rows), read-only, with every row's key
        over them; InternalCheckError if the keys do not strictly increase."""
        if self._base is None:
            base = _base_points(self.rows)
            keys = self._base_key(self.rows[:, base])
            ordered = keys if keys.dtype.kind == "i" else keys.view(f"S{keys.dtype.itemsize}")
            if not (ordered[1:] > ordered[:-1]).all():
                raise InternalCheckError("the sorted rows' base images do not strictly increase")
            base.flags.writeable = False
            self._base, self._base_keys = base, keys
        return self._base

    def _base_key(self, images: np.ndarray) -> np.ndarray:
        """One key per row of base images, ordered as the images: the images as digits of a
        base-degree int64 while degree^|base| < 2^63, else their big-endian bytes."""
        degree, width = self.rows.shape[1], images.shape[1]
        if degree ** width >= 1 << 63:
            return row_keys(np.ascontiguousarray(images, dtype=self.rows.dtype))
        key = np.zeros(len(images), dtype=np.int64)
        for column in images.T:
            key *= degree
            key += column
        return key

    def lookup_base(self, images: np.ndarray) -> np.ndarray:
        """Index of the element with each row of ``images`` as its images of ``base``, in
        order; raises if no element has them, but a row outside the group that has an
        element's base images gets that element's index."""
        self.base  # built with every row's key on first use
        keys, key = self._base_keys, self._base_key(images)
        found = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        if (keys[found] != key).any():
            raise InternalCheckError("no element has these base images")
        return found

    def positions(self, elements: Iterable[Perm]) -> np.ndarray:
        """Index of every given element, in the given order, or -1 for one outside the group,
        among them one of another degree."""
        elements, degree = list(elements), self.rows.shape[1]
        same = np.array([x.degree == degree for x in elements], dtype=bool)
        found = np.full(len(elements), -1, dtype=np.intp)
        found[same] = self._find(rows_of(itertools.compress(elements, same), degree))
        return found

    def perms(self, at) -> list[Perm]:
        """The elements at the indices ``at``, in that order, as new ``Perm`` objects."""
        return [Perm._raw(tuple(row)) for row in self.rows[np.asarray(at, dtype=np.intp)].tolist()]

    def right(self, i: int) -> np.ndarray:
        """Index of x * e_i for every x: the translate by element i, built once.

        A generator's translate is recorded by enumeration.  Any other e_i is
        c g_1 ... g_m, for the nearest ancestor c of i on the tree whose translate is
        kept (or the identity) and the generators g_1 ... g_m on the path from c down
        to i, so x e_i is composed from their translates by gathers alone.
        """
        t = self._right.get(i)
        if t is None:
            path, at = [], i
            while at not in self._right and at != self.identity:
                path.append(int(self.gens[self.tree.gen[at]]))
                at = int(self.tree.parent[at])
            t = self._right.get(at)
            if t is None:
                t = np.arange(len(self.rows))
            for g in reversed(path):
                t = self._right[g][t]
            self._right[i] = t
        return t

    @property
    def inverse(self) -> np.ndarray:
        """Index of the inverse of every element: x^-1 takes each base point to its position
        in x's row, found a block of rows at a time."""
        if self._inverse is None:
            rows, base = self.rows, self.base
            images = np.empty((len(rows), len(base)), dtype=rows.dtype)
            block = max(1, (1 << 20) // rows.shape[1])
            for at in range(0, len(rows), block):
                for j, b in enumerate(base.tolist()):
                    images[at:at + block, j] = (rows[at:at + block] == b).argmax(axis=1)
            self._inverse = self.lookup_base(images)
        return self._inverse

    def power(self, d: int) -> np.ndarray:
        """Index of x^d for every x, as a read-only column of the narrowest unsigned type
        that holds every index, built once per d.

        (x^a)^b = x^(ab), so a composite d gathers the column of d / q at the
        column of its least prime factor q.  A prime d takes one row product,
        x^d = x^(d-1) x, where d - 1 is 1 or composite, at the base points alone.
        """
        column = self._powers.get(d)
        if column is None:
            if d < 0:
                raise ValueError(f"power columns are built for d >= 0, not {d}")
            if d < 2:
                column = np.arange(len(self.rows)) if d else np.full(len(self.rows), self.identity)
            else:
                q = next((q for q in range(2, math.isqrt(d) + 1) if d % q == 0), d)
                if q < d:
                    column = self.power(d // q)[self.power(q)]
                else:
                    at = self.rows[self.power(d - 1)[:, None], self.base]
                    column = self.lookup_base(np.take_along_axis(self.rows, at, axis=1))
            column = column.astype(np.min_scalar_type(len(self.rows) - 1), copy=False)
            column.flags.writeable = False
            self._powers[d] = column
        return column

    def conjugates(self, xs, g: int):
        """Index of g^-1 x g, the inverse of (x g)^-1 g, for every x in ``xs``."""
        t, inv = self.right(g), self.inverse
        return inv[t[inv[t[xs]]]]

    def commutator(self, x: int, y: int) -> int:
        """Index of [x, y] = x^-1 y^-1 x y, the inverse of (y^-1 x^-1 y) x."""
        return int(self.inverse[self.right(x)[self.conjugates(self.inverse[x], y)]])

    def mask_key(self, mask: np.ndarray) -> bytes:
        """The bytes of ``mask``, as one object per distinct mask, so that memo keys share them."""
        key = mask.tobytes()
        return self._mask_keys.setdefault(key, key)

    def unit(self) -> np.ndarray:
        """The mask of the trivial subgroup."""
        mask = np.zeros(len(self.rows), dtype=bool)
        mask[self.identity] = True
        return mask


def coset_labels(index: RowIndex, gens: Sequence[int]) -> np.ndarray:
    """The least index of the left coset xF of F = <gens>, for every x, where ``gens``
    are indices over the index.

    Min-label propagation over the translates x -> x * g: a label only ever
    moves to a smaller index of the same coset, and once no translate or
    jump lowers any label, every label is its coset's least index.
    """
    translates = [index.right(int(i)) for i in gens]
    label = np.arange(len(index))
    while True:
        new = label
        for t in translates:
            new = np.minimum(new, new[t])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def setwise_product_covers(index: RowIndex, factors: Sequence[Sequence[int]], target: np.ndarray) -> bool:
    """Whether the ordered product F_1 F_2 ... of subgroups, each given by its
    generators' indices, is the subgroup that the mask ``target`` marks over the index.

    Every factor must lie in the target.  S * F is the union of the left
    cosets of F that S meets, so the product is grown as a mask from the
    identity, one factor at a time, and stops early once it is the target.
    """
    acc = index.unit()
    for gens in factors:
        if np.array_equal(acc, target):
            break
        if len(gens):
            label = coset_labels(index, gens)
            met = np.zeros(len(index), dtype=bool)
            met[label[acc]] = True
            acc = met[label]
    return np.array_equal(acc, target)
