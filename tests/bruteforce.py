"""Independent brute-force oracles used to cross-check the main code paths.

Everything here works over full element enumerations and deliberately avoids
the package's chain-based machinery: closures run over raw image tuples, and
commutator subgroups enumerate every element pair (vectorized with numpy so
that desk-scale orders stay fast).
"""

from __future__ import annotations

import itertools

import numpy as np

from coprime_lab.perms import Perm


def mulclose(gens: list[Perm], maxsize: int | None = None) -> set[Perm]:
    """Closure of a generating set under multiplication, plain BFS."""
    if not gens:
        return set()
    ident = Perm.identity(gens[0].degree)
    els = {ident}
    frontier = [ident]
    while frontier:
        new_frontier = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in els:
                    els.add(y)
                    new_frontier.append(y)
                    if maxsize is not None and len(els) > maxsize:
                        raise RuntimeError("closure exceeded maxsize")
        frontier = new_frontier
    return els


def _rows(elements: list[Perm]) -> np.ndarray:
    return np.array([p.images for p in elements], dtype=np.int32)


def _compose_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise composition: row i of the result applies a[i] then b[i]."""
    return np.take_along_axis(b, a, axis=1)


def _pack_matrix(degree: int) -> np.ndarray:
    """Weights for an exact injective packing of image rows into int64 words."""
    width = max(1, (degree - 1).bit_length())
    per_word = max(1, 63 // width)
    nwords = (degree + per_word - 1) // per_word
    W = np.zeros((degree, nwords), dtype=np.int64)
    for i in range(degree):
        W[i, i // per_word] = 1 << (width * (i % per_word))
    return W


def brute_commutator_elements(h_elements, k_elements) -> set[Perm]:
    """All commutators [x, y] with x in H, y in K, over every element pair.

    The inner loop over y is vectorized; rows are packed injectively into a
    few int64 words so per-block deduplication is a cheap integer sort.
    """
    hs = sorted(h_elements)
    ks = sorted(k_elements)
    degree = ks[0].degree
    K = _rows(ks)
    K_inv = np.empty_like(K)
    rows = np.arange(len(ks))[:, None]
    K_inv[rows, K] = np.arange(K.shape[1])[None, :]
    W = _pack_matrix(degree)
    seen: dict[tuple, tuple] = {}
    for x in hs:
        x_arr = np.array(x.images, dtype=np.int32)
        x_inv = np.array(x.inverse().images, dtype=np.int32)
        # x^-1 y^-1 x y, vectorized over all y
        step = K_inv[:, x_inv]
        step = x_arr[step]
        step = _compose_rows(step, K)
        packed = step.astype(np.int64) @ W
        uniq, first = np.unique(packed, axis=0, return_index=True)
        for key, idx in zip(map(tuple, uniq.tolist()), first.tolist()):
            if key not in seen:
                seen[key] = tuple(int(c) for c in step[idx])
    return {Perm._raw(t) for t in seen.values()}


def brute_commutator_subgroup(h_elements, k_elements) -> set[Perm]:
    comms = brute_commutator_elements(h_elements, k_elements)
    return mulclose(sorted(comms))


def brute_lower_central_series(g_elements) -> list[set[Perm]]:
    full = set(g_elements)
    terms = [full]
    while True:
        nxt = brute_commutator_subgroup(terms[-1], full)
        if len(nxt) == len(terms[-1]):
            break
        terms.append(nxt)
        if len(nxt) == 1:
            break
    return terms


def brute_derived_series(g_elements) -> list[set[Perm]]:
    terms = [set(g_elements)]
    while True:
        nxt = brute_commutator_subgroup(terms[-1], terms[-1])
        if len(nxt) == len(terms[-1]):
            break
        terms.append(nxt)
        if len(nxt) == 1:
            break
    return terms


def brute_nilpotency_class(g_elements) -> int | None:
    terms = brute_lower_central_series(g_elements)
    return len(terms) - 1 if len(terms[-1]) == 1 else None


def brute_center(g_elements) -> set[Perm]:
    els = set(g_elements)
    return {x for x in els if all(x * g == g * x for g in els)}


def brute_automorphism_table(group, gen_images: dict[Perm, Perm]) -> dict[Perm, Perm]:
    """Tabulate an automorphism by left-extension over the Cayley graph.

    The main path extends via x*g; this oracle extends via g*x, giving an
    independently ordered traversal of the same homomorphism.
    """
    ident = Perm.identity(group.degree)
    table = {ident: ident}
    frontier = [ident]
    while frontier:
        new_frontier = []
        for x in frontier:
            for g, img in gen_images.items():
                y = g * x
                if y not in table:
                    table[y] = img * table[x]
                    new_frontier.append(y)
                else:
                    if table[y] != img * table[x]:
                        raise AssertionError("generator images are not a homomorphism")
        frontier = new_frontier
    return table


def brute_action_tables(group, basis_images: list[dict[Perm, Perm]], p: int) -> dict[tuple, dict[Perm, Perm]]:
    """phi(u) for every exponent vector u, composed from left-extended basis tables."""
    basis = [brute_automorphism_table(group, images) for images in basis_images]
    out = {}
    for u in itertools.product(range(p), repeat=len(basis)):
        table = {x: x for x in basis[0]}
        for base, exp in zip(basis, u):
            for _ in range(exp):
                table = {x: base[y] for x, y in table.items()}
        out[u] = table
    return out


def brute_fixed_elements(group, autos: list[dict[Perm, Perm]]) -> set[Perm]:
    """Elements fixed by every tabulated automorphism."""
    els = group.elements()
    return {x for x in els if all(t[x] == x for t in autos)}


def brute_span(p: int, k: int, vectors) -> frozenset[tuple[int, ...]]:
    """Closure of {0} under adding the given vectors mod p, plain BFS."""
    zero = (0,) * k
    span = {zero}
    frontier = [zero]
    while frontier:
        new_frontier = []
        for u in frontier:
            for v in vectors:
                w = tuple((a + b) % p for a, b in zip(u, v))
                if w not in span:
                    span.add(w)
                    new_frontier.append(w)
        frontier = new_frontier
    return frozenset(span)


def brute_echelon_basis(span) -> tuple[tuple[int, ...], ...]:
    """Reduced row-echelon basis of a subspace, read off its element set.

    The pivots are the leading positions of the nonzero elements; the row of
    pivot c is the one element with a 1 at c and a 0 at every other pivot.
    """
    pivots = sorted({next(i for i, x in enumerate(v) if x) for v in span if any(v)})
    return tuple(
        next(v for v in span if v[c] == 1 and all(v[q] == 0 for q in pivots if q != c))
        for c in pivots
    )


def brute_all_subspaces(p: int, k: int) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """Every subspace of (Z/p)^k as (echelon basis, codim), sorted by (codim, basis).

    Span-closure BFS: from {0}, extend each subspace found by every vector
    outside it, and keep each new element set once.
    """
    all_vectors = list(itertools.product(range(p), repeat=k))
    trivial = frozenset({(0,) * k})
    seen = {trivial: ()}
    frontier = [trivial]
    while frontier:
        new_frontier = []
        for span in frontier:
            for v in all_vectors:
                if v in span:
                    continue
                gens = seen[span] + (v,)
                bigger = brute_span(p, k, gens)
                if bigger not in seen:
                    seen[bigger] = gens
                    new_frontier.append(bigger)
        frontier = new_frontier
    found = [(brute_echelon_basis(span), k - len(gens)) for span, gens in seen.items()]
    return sorted(found, key=lambda entry: (entry[1], entry[0]))


def brute_special_lattice(cents: list, kind: str, max_degree: int) -> list[list[tuple[frozenset, tuple]]]:
    """Both recursive centralizer-commutator families, over plain element sets.

    ``cents`` holds the element sets of the C_G(A_j), in the order of the
    maximal subgroups A_j.  Returns one list of (element set, recipe) pairs per
    degree: 0..max_degree for "a-special" and 1..max_degree for
    "gamma-a-special".  Each new element set keeps the first recipe found.
    """
    cents = [frozenset(C) for C in cents]
    base: dict[frozenset, tuple] = {}
    for j, C in enumerate(cents):
        base.setdefault(C, ("cent", j))
    families = [list(base.items())]
    first = 1 if kind == "a-special" else 2
    for _ in range(first, max_degree + 1):
        prev = [elements for elements, _ in families[-1]]
        found: dict[frozenset, tuple] = {}
        if kind == "a-special":
            brackets = [((a, b), prev[a], prev[b]) for a in range(len(prev)) for b in range(a, len(prev))]
        else:
            brackets = [((a, j), prev[a], C) for a in range(len(prev)) for j, C in enumerate(cents)]
        tag = "comm-cent" if kind == "a-special" else "comm-cent-cent"
        for pair, left, right in brackets:
            M = brute_commutator_subgroup(left, right)
            for n, C in enumerate(cents):
                found.setdefault(frozenset(M) & C, (tag, *pair, n))
        families.append(list(found.items()))
    return families
