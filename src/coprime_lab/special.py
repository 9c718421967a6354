"""Recursive centralizer-commutator subgroup families and their property checks.

Two recursive families are built over an action setup:

* kind "a-special": degree 0 members are the C_G(A_j); a degree-i member is
  [J1, J2] intersect C_G(A_j) for degree-(i-1) members J1, J2.
* kind "gamma-a-special": degree 1 members are the C_G(A_j); a degree-i
  member is [J, C_G(A_j)] intersect C_G(A_n) for a degree-(i-1) member J.

Members are deduplicated by their element masks over G's index, and each
keeps the first recipe that produced it.  Both kinds share one base, the
distinct C_G(A_j), and one block of their masks packed into bits, built once
per set-up; each kind's families are kept on the set-up and grown degree by
degree as calls ask for more.  Each distinct M of a degree meets the block
once, in one AND of packed bits that keys the meets, and a later step with
the same M is skipped, since it can add no member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import (
    ASubgroupDescriptor,
    ActionSetup,
    all_subspaces,
    fixed_subgroup,
    invariant_sylow,
    maximal_subgroups,
)
from .errors import CapacityError, PreconditionError
from .fastset import row_keys
from .groups import Group, commutator_subgroup, generated_subgroup, intersection
from .series import derived_term, lcs_term
from .status import CheckStatus

DEFAULT_MEMBER_CEILING = 512

# each kind's series term w(H, i), and the largest codim of a witness B <= A at degree i
_KIND_TERM_AND_CODIM = {
    "a-special": (derived_term, lambda i: 2**i),
    "gamma-a-special": (lcs_term, lambda i: i),
}


@dataclass(frozen=True)
class SpecialFamily:
    """All members of one kind and degree, deduplicated, with provenance."""

    kind: str
    degree: int
    members: tuple[Group, ...]
    provenance: tuple[tuple, ...]

    def member_count(self) -> int:
        return len(self.members)


def _lattice(setup: ActionSetup, kind: str, base_degree: int, max_degree: int, member_ceiling: int, steps):
    """Families of degrees base_degree..max_degree of one recursion, kept on ``setup``.

    The base family is the deduplicated C_G(A_j) of ``_centralizers``.  Each
    kind's families live in ``setup._lattices`` and grow degree by degree
    when a call asks for more; a call returns them up to ``max_degree`` and
    checks ``member_ceiling`` on every degree above the base, built earlier
    or now.  At a new degree, ``steps(prev, cents)`` yields (M, recipe) pairs
    built from the previous members ``prev`` and the centralizers ``cents``.
    Each distinct M meets every C_G(A_n) once, keyed by its mask's memo key
    (``Group._mask_key``, which the commutator memo hands out with M):
    packbits(M) AND the packed centralizer block is packbits(M & C_n) row by
    row, since the padding bits are zero.  Each new element set, keyed by
    those packed bits, keeps the first recipe, with n appended, and only then
    is its bool mask M & C_n formed.  A repeated M is skipped: each of its
    meets already has a recipe.
    """
    if setup.k < 2:
        raise PreconditionError("special families need rank k >= 2")
    G = setup.G
    cents, cent_masks, packed, members, recipes = _centralizers(setup)
    families = setup._lattices.setdefault(kind, [SpecialFamily(kind, base_degree, members, recipes)])
    top = max(max_degree - base_degree, 0) + 1
    for family in families[1:top]:
        _check_ceiling(kind, family.degree, family.member_count(), member_ceiling)
    for degree in range(base_degree + len(families), max_degree + 1):
        candidates: dict[bytes, tuple] = {}
        met: set[bytes] = set()
        for M, recipe in steps(families[-1].members, cents):
            if (m_key := M._mask_key()) in met:
                continue
            met.add(m_key)
            mask = M.mask_over(G)
            for n, key in enumerate(row_keys(np.packbits(mask) & packed).tolist()):
                if key not in candidates:
                    candidates[key] = (mask & cent_masks[n], (*recipe, n))
        _check_ceiling(kind, degree, len(candidates), member_ceiling)
        members = tuple(Group.from_mask(G, meet) for meet, _ in candidates.values())
        recipes = tuple(recipe for _, recipe in candidates.values())
        families.append(SpecialFamily(kind, degree, members, recipes))
    return families[:top]


def _centralizers(setup: ActionSetup):
    """The C_G(A_j), their masks, those packed into bits, and the base: the distinct
    C_G(A_j) and each one's first recipe.  Built once per set-up, for both kinds."""
    block = setup._lattices.get("centralizers")
    if block is None:
        cents = [fixed_subgroup(setup, A_j) for A_j in maximal_subgroups(setup)]
        cent_masks = [C.mask_over(setup.G) for C in cents]  # the groups' own arrays, no copy
        cent_keys = _packed_keys(np.stack(cent_masks))  # the block is packed once, and read back from its keys
        packed = np.frombuffer(b"".join(cent_keys), dtype=np.uint8).reshape(len(cents), -1)
        base: dict[bytes, tuple[Group, tuple]] = {}
        for j, key in enumerate(cent_keys):
            base.setdefault(key, (cents[j], ("cent", j)))
        block = setup._lattices["centralizers"] = (cents, cent_masks, packed, *zip(*base.values()))
    return block


def _check_ceiling(kind: str, degree: int, count: int, member_ceiling: int) -> None:
    if count > member_ceiling:
        raise CapacityError(f"{kind} degree {degree} would have {count} members (ceiling {member_ceiling})")


def _packed_keys(masks: np.ndarray) -> list[bytes]:
    """One key per row of ``masks``: its bits packed into bytes."""
    return row_keys(np.packbits(masks, axis=1)).tolist()


def a_special_lattice(
    setup: ActionSetup, max_degree: int, member_ceiling: int = DEFAULT_MEMBER_CEILING
) -> list[SpecialFamily]:
    """Families of degrees 0..max_degree for the pairwise-commutator recursion."""

    def steps(prev, cents):
        for a in range(len(prev)):
            for b in range(a, len(prev)):
                yield commutator_subgroup(prev[a], prev[b], setup.G), ("comm-cent", a, b)

    return _lattice(setup, "a-special", 0, max_degree, member_ceiling, steps)


def gamma_a_special_lattice(
    setup: ActionSetup, max_degree: int, member_ceiling: int = DEFAULT_MEMBER_CEILING
) -> list[SpecialFamily]:
    """Families of degrees 1..max_degree for the centralizer-bracket recursion."""

    def steps(prev, cents):
        for a in range(len(prev)):
            for j, C in enumerate(cents):
                yield commutator_subgroup(prev[a], C, setup.G), ("comm-cent-cent", a, j)

    return _lattice(setup, "gamma-a-special", 1, max_degree, member_ceiling, steps)


def family_at(families: list[SpecialFamily], degree: int) -> SpecialFamily:
    for family in families:
        if family.degree == degree:
            return family
    raise PreconditionError(f"no family of degree {degree} was computed")


def check_aspecial_containment(families: list[SpecialFamily]) -> bool:
    """Every member of degree i sits inside some member of degree i-1."""
    for prev, family in zip(families, families[1:]):
        for member in family.members:
            if not any(member.is_subgroup_of(parent) for parent in prev.members):
                return False
    return True


def check_aspecial_generation(setup: ActionSetup, families: list[SpecialFamily]) -> bool:
    """<members of degree i> equals G^(i) (a-special) or gamma_i(G) (gamma)."""
    for family in families:
        generated = generated_subgroup(setup.G, family.members)
        term, _ = _KIND_TERM_AND_CODIM[family.kind]
        if not generated.same_subgroup(term(setup.G, family.degree)):
            return False
    return True


def check_aspecial_degree_bound(setup: ActionSetup, families: list[SpecialFamily]) -> CheckStatus:
    """Each member embeds into a derived/central term of C_G(B) for a small-index B.

    For an a-special member of degree i (with 2^i <= k-1) a witness B <= A
    with |A/B| <= p^(2^i) must satisfy H <= C_G(B)^(i); for a gamma member of
    degree i (with i <= k-1) the target is gamma_i(C_G(B)) with |A/B| <= p^i.
    Degrees outside the hypothesis are skipped.
    """
    subspaces = all_subspaces(setup.p, setup.k)
    term_cache: dict[tuple[tuple, str, int], Group] = {}
    any_applicable = False
    for family in families:
        i = family.degree
        _, codim_bound = _KIND_TERM_AND_CODIM[family.kind]
        max_codim = codim_bound(i)
        if max_codim > setup.k - 1:
            continue
        any_applicable = True
        for member in family.members:
            if not _degree_bound_witness(setup, member, family.kind, i, max_codim, subspaces, term_cache):
                return CheckStatus.FAIL
    return CheckStatus.PASS if any_applicable else CheckStatus.NOT_APPLICABLE


def _degree_bound_witness(
    setup: ActionSetup,
    member: Group,
    kind: str,
    degree: int,
    max_codim: int,
    subspaces: list[ASubgroupDescriptor],
    term_cache: dict,
) -> bool:
    for B in subspaces:
        if B.codim > max_codim:
            break
        cache_key = (B.vectors, kind, degree)
        target = term_cache.get(cache_key)
        if target is None:
            term, _ = _KIND_TERM_AND_CODIM[kind]
            target = term_cache[cache_key] = term(fixed_subgroup(setup, B), degree)
        if member.is_subgroup_of(target):
            return True
    return False


def check_sylow_generation(
    setup: ActionSetup, d: int, r: int, families: list[SpecialFamily] | None = None
) -> bool:
    """An A-invariant Sylow r-subgroup R of G^(d) satisfies R = <R cap H_i>."""
    if setup.k < 2:
        raise PreconditionError("Sylow generation needs rank k >= 2")
    Gd = derived_term(setup.G, d)
    if Gd.order % r != 0:
        return True
    R = invariant_sylow(setup, Gd, r)
    if R.is_trivial:
        return True
    if families is None:
        families = a_special_lattice(setup, d)
    members = family_at(families, d).members
    parts = [intersection(R, H) for H in members]
    generated = generated_subgroup(setup.G, parts)
    return generated.same_subgroup(R)


def check_key_commutator_relation(
    setup: ActionSetup,
    families: list[SpecialFamily],
    c: int,
    mode: str,
    d: int | None = None,
) -> bool:
    """[C_G(A_j), c+1 copies of H_i] = 1 for all maximal A_j and members H_i.

    ``mode`` selects the member family: "derived" uses the a-special family of
    degree d (requires 2^d + 2 <= k); "gamma" uses the gamma family of degree
    k - 2.
    """
    if c < 1:
        raise PreconditionError("the class bound c must be a positive integer")
    if mode == "derived":
        if d is None:
            raise PreconditionError("mode 'derived' needs the degree d")
        if 2**d + 2 > setup.k:
            raise PreconditionError(f"hypothesis 2^d + 2 <= k fails: 2^{d} + 2 > {setup.k}")
        members = family_at(families, d).members
    elif mode == "gamma":
        if setup.k < 3:
            raise PreconditionError("gamma relation needs k >= 3")
        members = family_at(families, setup.k - 2).members
    else:
        raise PreconditionError(f"unknown mode {mode!r}")
    for A_j in maximal_subgroups(setup):
        C = fixed_subgroup(setup, A_j)
        for H in members:
            if H.is_trivial:
                continue
            X = C
            for _ in range(c + 1):
                if X.is_trivial:
                    break
                X = commutator_subgroup(X, H, setup.G)
            if not X.is_trivial:
                return False
    return True

