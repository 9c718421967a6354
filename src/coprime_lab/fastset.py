"""Bulk operations on sets of permutations, vectorized with numpy.

Only used where pure-Python pair loops would be too slow at desk scale
(setwise products of subgroup element sets).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .perms import Perm

_CHUNK_ROWS = 250_000


def rows_from_perms(perms: Iterable[Perm], degree: int) -> np.ndarray:
    arr = np.array([p.images for p in sorted(perms)], dtype=np.int32)
    if arr.size == 0:
        arr = arr.reshape(0, degree)
    return arr


def setwise_product_covers(
    target: frozenset[Perm], factor_sets: list[frozenset[Perm]], degree: int
) -> bool:
    """Whether the ordered setwise product of the factors equals the target set.

    Factors are multiplied left to right; the accumulator is deduplicated
    chunkwise and the loop exits early once it covers the target.
    """
    if not factor_sets:
        return len(target) == 1
    target_size = len(target)
    acc = rows_from_perms(factor_sets[0], degree)
    for factor in factor_sets[1:]:
        if acc.shape[0] == target_size:
            break
        rows = rows_from_perms(factor, degree)
        if rows.shape[0] == 1:
            continue
        pieces = [acc]
        # product row_acc * row_factor applies the accumulator element first
        chunk = max(1, _CHUNK_ROWS // max(acc.shape[0], 1))
        for start in range(0, rows.shape[0], chunk):
            block = rows[start : start + chunk]
            prod = block[:, acc].reshape(-1, degree)
            pieces.append(prod)
            merged = np.unique(np.concatenate(pieces, axis=0), axis=0)
            pieces = [merged]
            if merged.shape[0] >= target_size:
                break
        acc = pieces[0]
    if acc.shape[0] != target_size:
        return False
    got = {Perm._raw(tuple(int(c) for c in row)) for row in acc}
    return got == target
