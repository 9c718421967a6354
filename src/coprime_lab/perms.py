"""Permutations of {0..n-1}, the carrier for every group element."""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Sequence

from .errors import ValidationError


class Perm:
    """An immutable bijection of {0..n-1} stored as its image tuple.

    ``p * q`` means "apply p, then q", so ``(p * q)(i) == q(p(i))``.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValidationError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        self.images = images
        self._hash = hash(images)

    @classmethod
    def _raw(cls, images: tuple[int, ...]) -> "Perm":
        # internal fast path: caller guarantees images is a valid permutation
        p = object.__new__(cls)
        p.images = images
        p._hash = hash(images)
        return p

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls._raw(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, *cycles: Sequence[int]) -> "Perm":
        """Build a permutation from disjoint cycles."""
        images = list(range(degree))
        seen: set[int] = set()
        for cycle in cycles:
            for point in cycle:
                if point in seen:
                    raise ValidationError(f"cycles are not disjoint at point {point}")
                seen.add(point)
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        if len(self.images) < 2:  # itemgetter of one index returns a scalar
            return Perm._raw(tuple(other.images[i] for i in self.images))
        return Perm._raw(itemgetter(*self.images)(other.images))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm._raw(tuple(inv))

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return self.inverse() ** (-n)
        result = Perm.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def order(self) -> int:
        n = 1
        for cycle in self.cycles():
            n = math.lcm(n, len(cycle))
        return n

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point."""
        seen: set[int] = set()
        out = []
        for start in range(len(self.images)):
            if start in seen or self.images[start] == start:
                continue
            cycle = [start]
            point = self.images[start]
            while point != start:
                seen.add(point)
                cycle.append(point)
                point = self.images[point]
            out.append(tuple(cycle))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __le__(self, other: "Perm") -> bool:
        return self.images <= other.images

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return f"Perm.identity({self.degree})"
        text = "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
        return f"Perm[{text}]"
