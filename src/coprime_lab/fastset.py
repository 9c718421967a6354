"""An enumerated group as a row array with an exact, vectorized row -> index lookup.

``RowIndex`` holds the image rows of ``group.sorted_elements()``, so index
order is sort order, and every subgroup built inside the group is a bool mask
over it.  Right-translating every element by f is one gather and one lookup,
kept per element; conjugates and commutators are gathers in those translates.
``close`` grows a mask under index maps, visiting only the frontier, and left
cosets and setwise products of subgroups follow from the translates as masks.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import InternalCheckError
from .perms import Perm


class RowIndex:
    """Row i of ``rows`` is element i of a sorted element list.

    ``rows`` holds big-endian unsigned integers, 16-bit up to degree 65,536
    and 32-bit past it, and each row's bytes, viewed as one void scalar, are
    its key.  That byte order compares like the image tuples, so the keys
    are sorted and ``searchsorted`` finds a row, which is then confirmed
    equal.  The keys are a view of ``rows``, so the elements are stored once.
    """

    __slots__ = ("rows", "_keys", "identity", "_right", "_inverse")

    def __init__(self, elements: Sequence[Perm]):
        degree = elements[0].degree
        dtype = np.dtype(">u2") if degree <= 1 << 16 else np.dtype(">u4")
        self.rows = np.array([x.images for x in elements], dtype=dtype).reshape(len(elements), degree)
        self._keys = self.rows.view(f"V{dtype.itemsize * degree}").ravel()
        self._right: dict[int, np.ndarray] = {}
        self._inverse: np.ndarray | None = None
        self.identity = int(self.lookup(np.arange(degree)[None, :])[0])

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
        rows = np.array([x.images for x in elements], dtype=self.rows.dtype)
        return self._find(rows.reshape(-1, self.rows.shape[1]))

    def index_of(self, elements: Iterable[Perm]) -> np.ndarray:
        """Index of every given element, in the given order."""
        rows = np.array([x.images for x in elements], dtype=self.rows.dtype)
        return self.lookup(rows.reshape(-1, self.rows.shape[1]))

    def translate(self, f: Perm) -> np.ndarray:
        """Index of x * f for every x, in index order."""
        return self.lookup(np.asarray(f.images, dtype=self.rows.dtype)[self.rows])

    def right(self, i: int) -> np.ndarray:
        """Index of x * e_i for every x: the translate by element i, built once."""
        t = self._right.get(i)
        if t is None:
            t = self._right[i] = self.lookup(self.rows[i][self.rows])
        return t

    @property
    def inverse(self) -> np.ndarray:
        """Index of the inverse of every element."""
        if self._inverse is None:
            self._inverse = self.lookup(np.argsort(self.rows, axis=1))
        return self._inverse

    def conjugates(self, xs, g: int):
        """Index of g^-1 x g, the inverse of (x g)^-1 g, for every x in ``xs``."""
        t, inv = self.right(g), self.inverse
        return inv[t[inv[t[xs]]]]

    def commutator(self, x: int, y: int) -> int:
        """Index of [x, y] = x^-1 y^-1 x y, the inverse of (y^-1 x^-1 y) x."""
        return int(self.inverse[self.right(x)[self.conjugates(self.inverse[x], y)]])

    def unit(self) -> np.ndarray:
        """The mask of the trivial subgroup."""
        mask = np.zeros(len(self.rows), dtype=bool)
        mask[self.identity] = True
        return mask


def close(mask: np.ndarray, maps: Sequence[np.ndarray], frontier: np.ndarray) -> np.ndarray:
    """The least superset of ``mask`` and ``frontier`` closed under every index map.

    Only the elements of ``frontier`` may have an image outside ``mask``, so
    each round maps just the elements found in the round before.  Under right
    translates by some elements, the closure of the identity is the subgroup
    they generate.
    """
    mask = mask.copy()
    mask[frontier] = True
    while frontier.size and maps:
        reached = np.concatenate([m[frontier] for m in maps])
        frontier = np.unique(reached[~mask[reached]])
        mask[frontier] = True
    return mask


def coset_labels(index: RowIndex, gens: Iterable[Perm]) -> np.ndarray:
    """The least index of the left coset xF of F = <gens>, for every x.

    Min-label propagation over the translates x -> x * g: a label only ever
    moves to a smaller index of the same coset, and once no translate or
    jump lowers any label, every label is its coset's least index.
    """
    translates = [index.translate(g) for g in gens]
    label = np.arange(len(index))
    while True:
        new = label
        for t in translates:
            new = np.minimum(new, new[t])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def setwise_product_covers(index: RowIndex, factors: Sequence[Sequence[Perm]]) -> bool:
    """Whether the ordered product F_1 F_2 ... of subgroups, each given by its
    generators, is the whole indexed group.

    S * F is the union of the left cosets of F that S meets, so the product
    is grown as a mask from the identity, one factor at a time, and stops
    early once it covers the group.
    """
    acc = np.zeros(len(index), dtype=bool)
    acc[index.identity] = True
    for gens in factors:
        if acc.all():
            break
        if gens:
            label = coset_labels(index, gens)
            met = np.zeros(len(index), dtype=bool)
            met[label[acc]] = True
            acc = met[label]
    return bool(acc.all())
