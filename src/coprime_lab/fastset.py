"""An enumerated group as a row array with an exact, vectorized row -> index lookup.

``RowIndex`` holds the sorted image rows of a group's elements, so index order
is sort order and every subgroup built inside the group is a bool mask over
it.  The rows are the group's one per-element store; ``perms`` makes ``Perm``
objects from them on request.  Right-translating every element by element i
is one gather and one lookup, kept per element; conjugates and commutators
are gathers in those translates, and left cosets and setwise products of
subgroups follow from them as masks.  ``RowIndex.tree`` is a breadth-first
spanning tree of the Cayley graph of a generator tuple, built once per tuple
from the generators' translates: each element's parent and generator, round
by round.  Along it, the translate by any element is composed from generator
translates by gathers alone (``right_along``), and automorphism tables are
evaluated one round at a time.  ``RowIndex.power(d)`` is the column
x -> x^d, built once per d: a composite d is a gather of two smaller columns
and a prime d is one row product, x^(d-1) x.  ``RowIndex.memo`` keeps the
subgroup algebra done over the index, such as generators, commutator
subgroups and series terms, keyed by the masks it was computed from; its
values are arrays, never groups, so the index holds no reference back to a
group and a set-up is freed as soon as it is dropped.
"""

from __future__ import annotations

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
    """A breadth-first spanning tree of the Cayley graph x -- x g over the generators at
    the indices ``gens``.

    ``order`` lists the elements reached, the identity first and then round by round,
    round r being ``order[rounds[r]:rounds[r + 1]]``.  Every element x of a round after
    the first is parent[x] * gens[gen[x]], with parent[x] in the round before; the
    identity's entries, and those of an element not reached, mean nothing.
    """

    gens: tuple[int, ...]
    order: np.ndarray
    parent: np.ndarray
    gen: np.ndarray
    rounds: np.ndarray


def row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row's bytes as one void scalar, a view of ``rows``: its sort and lookup key."""
    return rows.view(f"V{rows.dtype.itemsize * rows.shape[1]}").ravel()


def sort_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` in key order, which is the order of the image tuples."""
    return rows[np.argsort(row_keys(rows))]


class RowIndex:
    """Row i of ``rows`` is element i of a sorted element list.

    ``rows`` come in ``rows_of``'s row type, sorted by ``sort_rows``, and each
    row's key (``row_keys``) is unique: two equal neighbours raise
    InternalCheckError.
    ``searchsorted`` finds a row among the keys, and the row is then
    confirmed equal.  The keys are a view of ``rows``, so the elements are
    stored once.  Right translates, inverses, power columns and spanning
    trees are built on first use and kept; the columns are read-only.
    ``memo`` maps a key built from subgroup masks (``mask_key``) to the
    arrays computed from them, for whoever computes over this index.
    """

    __slots__ = ("rows", "_keys", "identity", "_right", "_inverse", "_powers", "_trees", "memo", "_mask_keys")

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self._keys = row_keys(rows)
        if (self._keys[1:] == self._keys[:-1]).any():
            raise InternalCheckError("the sorted rows list an element twice")
        self._right: dict[int, np.ndarray] = {}
        self._inverse: np.ndarray | None = None
        self._powers: dict[int, np.ndarray] = {}
        self._trees: dict[tuple[int, ...], SpanningTree] = {}
        self.memo: dict[tuple, object] = {}
        self._mask_keys: dict[bytes, bytes] = {}
        self.identity = int(self.lookup(np.arange(rows.shape[1])[None, :])[0])

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

    def positions(self, elements: Iterable[Perm]) -> np.ndarray:
        """Index of every given element, in the given order, or -1 for one outside the group."""
        return self._find(rows_of(elements, self.rows.shape[1]))

    def index_of(self, elements: Iterable[Perm]) -> np.ndarray:
        """Index of every given element, in the given order."""
        return self.lookup(rows_of(elements, self.rows.shape[1]))

    def perms(self, at) -> list[Perm]:
        """The elements at the indices ``at``, in that order, as new ``Perm`` objects."""
        return [Perm._raw(tuple(row)) for row in self.rows[np.asarray(at, dtype=np.intp)].tolist()]

    def right(self, i: int) -> np.ndarray:
        """Index of x * e_i for every x: the translate by element i, built once."""
        t = self._right.get(i)
        if t is None:
            t = self._right[i] = self.lookup(self.rows[i][self.rows])
        return t

    def tree(self, gens: Sequence[int]) -> SpanningTree:
        """The spanning tree over the generators at the indices ``gens``, built once per tuple."""
        gens = tuple(int(g) for g in gens)
        tree = self._trees.get(gens)
        if tree is None:
            tree = self._trees[gens] = _spanning_tree(self, gens)
        return tree

    def right_along(self, tree: SpanningTree, i: int) -> np.ndarray:
        """``right(i)`` for an element i that ``tree`` reaches, composed by gathers alone.

        x e_i is x c g_1 ... g_m for the nearest ancestor c of i whose translate is kept (or
        the identity) and the generators g_1 ... g_m on the tree path from c down to i; the
        composite is kept as i's translate.
        """
        path, at = [], i
        while at not in self._right and at != self.identity:
            path.append(int(tree.gen[at]))
            at = int(tree.parent[at])
        t = self._right.get(at)
        if t is None:
            t = np.arange(len(self.rows))
        for j in reversed(path):
            t = self.right(tree.gens[j])[t]
        self._right[i] = t
        return t

    @property
    def inverse(self) -> np.ndarray:
        """Index of the inverse of every element."""
        if self._inverse is None:
            self._inverse = self.lookup(np.argsort(self.rows, axis=1))
        return self._inverse

    def power(self, d: int) -> np.ndarray:
        """Index of x^d for every x, as a read-only column of the narrowest unsigned type
        that holds every index, built once per d.

        (x^a)^b = x^(ab), so a composite d gathers the column of d / q at the
        column of its least prime factor q.  A prime d takes one row product,
        x^d = x^(d-1) x, where d - 1 is 1 or composite.
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
                    column = self.lookup(np.take_along_axis(self.rows, self.rows[self.power(d - 1)], axis=1))
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


def _spanning_tree(index: RowIndex, gens: tuple[int, ...]) -> SpanningTree:
    """Breadth first from the identity over x -> x g, one gather of g's translate per
    generator and round; an element joins the tree from the first edge that reaches it."""
    n = len(index)
    seen = np.zeros(n, dtype=bool)
    seen[index.identity] = True
    parent = np.zeros(n, dtype=np.int32)
    gen = np.zeros(n, dtype=np.min_scalar_type(max(len(gens) - 1, 0)))
    frontier = np.array([index.identity], dtype=np.int32)
    found, rounds = [frontier], [0, 1]
    translates = [index.right(g) for g in gens]
    while len(frontier):
        reached = []
        for j, t in enumerate(translates):
            y = t[frontier]
            fresh = ~seen[y]
            y = y[fresh]
            seen[y] = True
            parent[y] = frontier[fresh]
            gen[y] = j
            reached.append(y)
        frontier = np.concatenate(reached, dtype=np.int32) if reached else frontier[:0]
        found.append(frontier)
        rounds.append(rounds[-1] + len(frontier))
    order = np.concatenate(found)
    return SpanningTree(gens, order, parent, gen, np.array(rounds[:-1]))


def coset_labels(index: RowIndex, gens: Iterable[Perm]) -> np.ndarray:
    """The least index of the left coset xF of F = <gens>, for every x.

    Min-label propagation over the translates x -> x * g: a label only ever
    moves to a smaller index of the same coset, and once no translate or
    jump lowers any label, every label is its coset's least index.
    """
    translates = [index.right(i) for i in index.index_of(gens).tolist()]
    label = np.arange(len(index))
    while True:
        new = label
        for t in translates:
            new = np.minimum(new, new[t])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def setwise_product_covers(index: RowIndex, factors: Sequence[Sequence[Perm]], target: np.ndarray) -> bool:
    """Whether the ordered product F_1 F_2 ... of subgroups, each given by its
    generators, is the subgroup that the mask ``target`` marks over the index.

    Every factor must lie in the target.  S * F is the union of the left
    cosets of F that S meets, so the product is grown as a mask from the
    identity, one factor at a time, and stops early once it is the target.
    """
    acc = index.unit()
    for gens in factors:
        if np.array_equal(acc, target):
            break
        if gens:
            label = coset_labels(index, gens)
            met = np.zeros(len(index), dtype=bool)
            met[label[acc]] = True
            acc = met[label]
    return np.array_equal(acc, target)
