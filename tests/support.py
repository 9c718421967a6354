"""Constructions that only the tests use: block groups, direct products, the
nilpotent zoo, the center, and a Lie ring with one wrong structure constant."""

from __future__ import annotations

import numpy as np

from coprime_lab.groups import Group, _conjugation_maps
from coprime_lab.instances import extraspecial_group, get_block
from coprime_lab.lie import GradedLieRing
from coprime_lab.perms import Perm


def block_group(name: str, cap=None) -> Group:
    """The named block's group, built from its generators."""
    block = get_block(name)
    return Group(block.degree, block.gens, cap=cap)


def product_group(factors: list[Group], cap=None) -> Group:
    """The direct product of ``factors`` on disjoint domains, in the given order."""
    degree = sum(f.degree for f in factors)
    gens, offset = [], 0
    for f in factors:
        for g in f.generators:
            images = list(range(degree))
            images[offset:offset + f.degree] = [offset + i for i in g.images]
            gens.append(Perm(images))
        offset += f.degree
    return Group(max(degree, 1), gens, cap=cap)


def nilpotent_zoo(cap=None) -> list[tuple[str, Group]]:
    """Named nilpotent groups of orders 27..2187 for the ring axiom suite."""

    def blk(name):
        return block_group(name, cap=cap)

    def prod(*names):
        return product_group([blk(n) for n in names], cap=cap)

    return [
        ("heisenberg27", blk("heisenberg27")),
        ("wreath81", blk("wreath81")),
        ("extraspecial-3-2", extraspecial_group(3, 2, cap=cap)),
        ("extraspecial-5-1", extraspecial_group(5, 1, cap=cap)),
        ("extraspecial-7-1", extraspecial_group(7, 1, cap=cap)),
        ("cyclic27", blk("c27")),
        ("cyclic81", blk("c81")),
        ("c3-cubed", prod("c3", "c3", "c3")),
        ("c3-fourth", prod("c3", "c3", "c3", "c3")),
        ("c5-cubed", prod("c5", "c5", "c5")),
        ("c7-cubed", prod("c7", "c7", "c7")),
        ("c9-c3", prod("c9", "c3")),
        ("c9-c9", prod("c9", "c9")),
        ("c13-c13", prod("c13", "c13")),
        ("heis-c3", prod("heisenberg27", "c3")),
        ("heis-c3-c3", prod("heisenberg27", "c3", "c3")),
        ("heis-c5", prod("heisenberg27", "c5")),
        ("heis-c7", prod("heisenberg27", "c7")),
        ("heis-heis", prod("heisenberg27", "heisenberg27")),
        ("wreath-c3", prod("wreath81", "c3")),
        ("wreath-c5", prod("wreath81", "c5")),
        ("wreath-heis", prod("wreath81", "heisenberg27")),
        ("extraspecial-3-2-c3", product_group([extraspecial_group(3, 2, cap=cap), blk("c3")], cap=cap)),
    ]


def center(G: Group) -> Group:
    """Z(G): the elements of G that every generator of G conjugates to themselves."""
    index, central, maps = _conjugation_maps(G)
    for conj in maps:
        central = central & (conj == np.arange(len(index)))
    return Group.from_mask(G, central)


def with_corrupted_constant(ring: GradedLieRing, delta: int = 1) -> GradedLieRing:
    """A copy of ``ring`` with one structure constant deliberately wrong, the first
    in (wi, wj, a, b, t) order that ``delta`` changes.

    The copy skips construction-time verification, so the corruption must be
    caught by the checks downstream.
    """
    for wi, wj in sorted(ring.constants):
        m = ring._moduli[wi + wj - 1]
        changed = np.flatnonzero((m > 1) & (delta % m != 0))
        if changed.size:
            t = changed[0]
            corrupted = ring.constants[(wi, wj)].copy()
            corrupted[0, 0, t] = (corrupted[0, 0, t] + delta) % m[t]
            corrupted.flags.writeable = False
            return GradedLieRing(ring.group, ring.components, {**ring.constants, (wi, wj): corrupted})
    raise ValueError("ring has no structure constants available to corrupt")
