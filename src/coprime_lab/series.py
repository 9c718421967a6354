"""Lower central, derived, and upper central series; nilpotency; Fitting subgroup."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError
from .fastset import coset_labels
from .groups import (
    Group,
    _conjugation_maps,
    commutator_subgroup,
    generated_subgroup,
    subgroup_conjugate_sets,
    sylow_subgroup,
)

MAX_SERIES_LENGTH = 64


@dataclass(frozen=True)
class SeriesResult:
    """A subgroup series together with its stabilization data."""

    kind: str
    terms: tuple[Group, ...]
    stabilized: bool
    class_or_length: int | None


def _descending_series(G: Group, kind: str, step) -> SeriesResult:
    terms = [G]
    while True:
        if len(terms) > MAX_SERIES_LENGTH:
            raise InternalCheckError(f"{kind} series exceeded {MAX_SERIES_LENGTH} terms")
        current = terms[-1]
        if current.is_trivial:
            break
        nxt = step(current)
        if nxt.order == current.order:
            break
        terms.append(nxt)
    last = terms[-1]
    return SeriesResult(
        kind=kind,
        terms=tuple(terms),
        stabilized=True,
        class_or_length=len(terms) - 1 if last.is_trivial else None,
    )


def lower_central_series(G: Group) -> SeriesResult:
    """terms[0] = G and terms[i] = [terms[i-1], G]; stops when stable."""
    return _descending_series(G, "lower-central", lambda H: commutator_subgroup(H, G, G))


def derived_series(G: Group) -> SeriesResult:
    """terms[0] = G and terms[i] = [terms[i-1], terms[i-1]]; stops when stable."""
    return _descending_series(G, "derived", lambda H: commutator_subgroup(H, H, G))


def upper_central_series(G: Group) -> SeriesResult:
    """Z_0 = 1 and Z_{i+1}/Z_i = center of G/Z_i; ascending, stabilizes.

    x lies in Z_{i+1} when [x, g] = x^-1 (g^-1 x g) lies in Z_i for every
    generator g, that is, when x and g^-1 x g share a left coset of Z_i.
    """
    index, mask, maps = _conjugation_maps(G)
    terms = [Group.from_mask(G, index.unit())]
    while True:
        if len(terms) > MAX_SERIES_LENGTH:
            raise InternalCheckError(f"upper central series exceeded {MAX_SERIES_LENGTH} terms")
        prev = terms[-1]
        label = coset_labels(index, prev.generators)
        lifted = mask.copy()
        for conj in maps:
            lifted &= label[conj] == label
        nxt = Group.from_mask(G, lifted)
        if nxt.order == prev.order:
            break
        terms.append(nxt)
        if nxt.order == G.order:
            break
    reached = terms[-1].order == G.order
    return SeriesResult(
        kind="upper-central",
        terms=tuple(terms),
        stabilized=True,
        class_or_length=len(terms) - 1 if reached else None,
    )


def nilpotency_class(G: Group) -> int | None:
    """Nilpotency class from the lower central series, or None."""
    return lower_central_series(G).class_or_length


def is_nilpotent(G: Group) -> bool:
    return nilpotency_class(G) is not None


def lcs_term(G: Group, i: int) -> Group:
    """The term gamma_i (1-indexed: gamma_1 = G)."""
    if i < 1:
        raise ValueError("lower central series terms are 1-indexed")
    series = lower_central_series(G)
    idx = min(i - 1, len(series.terms) - 1)
    return series.terms[idx]


def derived_term(G: Group, d: int) -> Group:
    """The d-th derived group (0-indexed: G^(0) = G)."""
    if d < 0:
        raise ValueError("derived series terms are 0-indexed")
    series = derived_series(G)
    idx = min(d, len(series.terms) - 1)
    return series.terms[idx]


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return n > 1 and _prime_factors(n) == [n]


def o_r(G: Group, r: int) -> Group:
    """The largest normal r-subgroup: intersection of all Sylow r-subgroups."""
    P = sylow_subgroup(G, r)
    if P.is_trivial:
        return P
    common = None
    for conj in subgroup_conjugate_sets(G, P):
        common = conj if common is None else common & conj
        if np.count_nonzero(common) == 1:
            break
    return Group.from_mask(G, common)


def fitting_subgroup(G: Group) -> Group:
    """Largest nilpotent normal subgroup, the product of the O_r(G)."""
    parts = [o_r(G, r) for r in _prime_factors(G.order)]
    return generated_subgroup(G.degree, parts, cap=G.cap)
