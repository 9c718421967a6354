"""Independent brute-force oracles used to cross-check the main code paths.

Everything here works over full element enumerations and deliberately avoids
the package's chain-based machinery and its row index: closures run over raw
image tuples, and commutator subgroups and automorphism tables are gathers in
a Cayley table built by BFS from raw generator rows, so that desk-scale orders
stay fast.
"""

from __future__ import annotations

import itertools
from functools import cached_property

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


def _pack_matrix(degree: int) -> np.ndarray:
    """Weights for an exact injective packing of image rows into int64 words."""
    width = max(1, (degree - 1).bit_length())
    per_word = max(1, 63 // width)
    nwords = (degree + per_word - 1) // per_word
    W = np.zeros((degree, nwords), dtype=np.int64)
    for i in range(degree):
        W[i, i // per_word] = 1 << (width * (i % per_word))
    return W


_CHUNK = 1 << 20  # table entries gathered per block


class CayleyTable:
    """The multiplication table of the group generated by raw generator rows.

    Elements are numbered in BFS order from the identity (index 0) over right
    multiplication by each generator, and told apart by an exact int64
    packing of their image rows.  ``mul[i, j]`` is the index of element i
    times element j (apply i, then j), ``inv[i]`` the index of i's inverse.
    Every computation below runs on index arrays; ``mul`` and ``inv`` are
    built on first use.
    """

    def __init__(self, gens: list[Perm]):
        degree = gens[0].degree
        self._W = _pack_matrix(degree)
        gen_rows = _rows(gens)
        rows = [np.arange(degree, dtype=np.int32)]
        self._index = {self._keys(rows[0][None, :])[0]: 0}
        right: list[list[int]] = []  # right[i][g]: index of element i times generator g
        parent: list[tuple[int, int]] = []  # element j >= 1 is element i times generator g
        ngens = len(gens)
        done = 0
        while done < len(rows):
            # one BFS layer at a time, element-major as if one element at a time
            start, layer = done, np.array(rows[done:])
            done = len(rows)
            products = gen_rows[:, layer].transpose(1, 0, 2).reshape(-1, degree)
            targets = []
            for flat, key in enumerate(self._keys(products)):
                j = self._index.setdefault(key, len(rows))
                if j == len(rows):
                    rows.append(products[flat])
                    parent.append((start + flat // ngens, flat % ngens))
                targets.append(j)
            right.extend(targets[a : a + ngens] for a in range(0, len(targets), ngens))
        self.order = len(rows)
        self.rows = np.array(rows)
        self._right = np.array(right, dtype=np.int32)
        self._parent = parent

    @cached_property
    def _columns(self) -> np.ndarray:
        # column j of the table, built from its BFS parent: x * (y * g) = (x * y) * g
        n = self.order
        columns = np.empty((n, n), dtype=np.int32)
        columns[0] = np.arange(n)
        for j, (i, g) in enumerate(self._parent, start=1):
            columns[j] = self._right[columns[i], g]
        return columns

    @property
    def mul(self) -> np.ndarray:
        return self._columns.T

    @cached_property
    def inv(self) -> np.ndarray:
        return np.argmax(self._columns == 0, axis=0)

    def _keys(self, rows: np.ndarray) -> list[tuple]:
        return list(map(tuple, (rows.astype(np.int64) @ self._W).tolist()))

    def index_of(self, rows: np.ndarray) -> np.ndarray:
        """Table index of every image row; a row outside the group raises KeyError."""
        return np.array([self._index[k] for k in self._keys(rows)], dtype=np.intp)

    def indices(self, elements) -> np.ndarray:
        """Sorted table indices of the given elements of the group."""
        return np.sort(self.index_of(_rows(elements)))

    def perms(self, indices) -> frozenset[Perm]:
        return frozenset(Perm._raw(tuple(row)) for row in self.rows[indices].tolist())

    def commutators(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Indices of every commutator [x, y] = x^-1 y^-1 x y, x in xs, y in ys."""
        found = np.zeros(self.order, dtype=bool)
        inv_ys, ys = self.inv[ys][None, :], ys[None, :]
        step = max(1, _CHUNK // max(ys.size, 1))
        for start in range(0, len(xs), step):
            x = xs[start : start + step, None]
            found[self.mul[self.mul[self.mul[self.inv[x], inv_ys], x], ys]] = True
        return np.flatnonzero(found)

    def closure(self, seeds: np.ndarray) -> np.ndarray:
        """Indices of the subgroup generated by ``seeds``: BFS from the identity."""
        seeds = seeds[None, :]
        found = np.zeros(self.order, dtype=bool)
        found[0] = True
        frontier = np.zeros(1, dtype=np.intp)
        step = max(1, _CHUNK // max(seeds.size, 1))
        while frontier.size:
            reached = []
            for start in range(0, len(frontier), step):
                products = self.mul[frontier[start : start + step, None], seeds].ravel()
                new = np.unique(products[~found[products]])
                found[new] = True
                reached.append(new)
            frontier = np.concatenate(reached)
        return np.flatnonzero(found)

    def commutator_subgroup(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return self.closure(self.commutators(xs, ys))


def cayley_table_of(*element_sets) -> CayleyTable:
    """The table of the group generated by the union of the element sets.

    Its generators are picked greedily in sort order: each lies outside the
    closure of those picked before it.
    """
    gens: list[Perm] = []
    closure: set[Perm] = set()
    for x in sorted(set().union(*element_sets)):
        if x not in closure:
            gens.append(x)
            closure = mulclose(gens)
    return CayleyTable(gens)


def brute_commutator_subgroup(h_elements, k_elements) -> set[Perm]:
    """<[x, y] : x in H, y in K>, from every element pair."""
    table = cayley_table_of(h_elements, k_elements)
    xs, ys = table.indices(h_elements), table.indices(k_elements)
    return set(table.perms(table.commutator_subgroup(xs, ys)))


def _series(table: CayleyTable, lower_central: bool) -> list[set[Perm]]:
    every = np.arange(table.order)
    terms = [every]
    while True:
        nxt = table.commutator_subgroup(terms[-1], every if lower_central else terms[-1])
        if len(nxt) == len(terms[-1]):
            break
        terms.append(nxt)
        if len(nxt) == 1:
            break
    return [set(table.perms(t)) for t in terms]


def brute_lower_central_series(g_elements) -> list[set[Perm]]:
    return _series(cayley_table_of(g_elements), lower_central=True)


def brute_derived_series(g_elements) -> list[set[Perm]]:
    return _series(cayley_table_of(g_elements), lower_central=False)


def brute_nilpotency_class(g_elements) -> int | None:
    terms = brute_lower_central_series(g_elements)
    return len(terms) - 1 if len(terms[-1]) == 1 else None


def brute_center(g_elements) -> set[Perm]:
    els = set(g_elements)
    return {x for x in els if all(x * g == g * x for g in els)}


def _commutator_matrix(table: CayleyTable) -> np.ndarray:
    """Entry (x, g) is the index of [x, g] = x^-1 g^-1 x g, for every pair."""
    every = np.arange(table.order)
    mul, inv = table.mul, table.inv
    return mul[mul[mul[inv[:, None], inv[None, :]], every[:, None]], every[None, :]]


def brute_upper_central_series(g_elements) -> list[set[Perm]]:
    """Z_0 = 1 and Z_{i+1} = {x : [x, g] in Z_i for every g in G}, until it stops growing.

    Every commutator of every pair of elements is tabulated once; each term
    is read off that table, with no generators involved.
    """
    table = cayley_table_of(g_elements)
    comms = _commutator_matrix(table)
    term = np.zeros(table.order, dtype=bool)
    term[0] = True
    terms = [term]
    while not term.all():
        term = term[comms].all(axis=1)
        if term.sum() == terms[-1].sum():
            break
        terms.append(term)
    return [set(table.perms(np.flatnonzero(t))) for t in terms]


def _is_prime_power(n: int) -> bool:
    r = next(d for d in range(2, n + 1) if n % d == 0) if n > 1 else 1
    while n % r == 0 and n > 1:
        n //= r
    return n == 1


def brute_fitting_subgroup(g_elements) -> set[Perm]:
    """F(G), the product of the O_r(G), read off element by element.

    An element lies in some O_r(G) exactly when its normal closure is an
    r-group, so F(G) is generated by the conjugacy classes whose closure has
    prime-power order.
    """
    table = cayley_table_of(g_elements)
    every = np.arange(table.order)
    conjugates = table.mul[table.mul[table.inv[:, None], every[None, :]], every[:, None]]
    seen = np.zeros(table.order, dtype=bool)
    found = np.zeros(table.order, dtype=bool)
    for x in every:
        if seen[x]:
            continue
        cls = np.unique(conjugates[:, x])
        seen[cls] = True
        if _is_prime_power(len(table.closure(cls))):
            found[cls] = True
    return set(table.perms(table.closure(np.flatnonzero(found))))


def brute_automorphism_table(group, gen_images: dict[Perm, Perm]) -> dict[Perm, Perm]:
    """Tabulate an automorphism by left-extension over the Cayley graph.

    The main path extends via x*g over sorted indices; this oracle extends via
    g*x over the BFS numbering of a ``CayleyTable``, giving an independently
    ordered traversal of the same homomorphism.
    """
    table = CayleyTable(list(gen_images) or [Perm.identity(group.degree)])

    def left(g: Perm) -> np.ndarray:
        # g * x reads x's row at g's images
        return table.index_of(table.rows[:, g.images])

    edges = [(left(g), left(img)) for g, img in gen_images.items()]
    image = np.full(table.order, -1, dtype=np.intp)
    image[0] = 0
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        reached = []
        for left_g, left_img in edges:
            y, ty = left_g[frontier], left_img[image[frontier]]
            seen = image[y] >= 0
            if (image[y[seen]] != ty[seen]).any():
                raise AssertionError("generator images are not a homomorphism")
            image[y[~seen]] = ty[~seen]
            reached.append(y[~seen])
        frontier = np.concatenate(reached)
    elements = [Perm._raw(tuple(row)) for row in table.rows.tolist()]
    return {elements[i]: elements[j] for i, j in enumerate(image.tolist())}


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


def brute_abelian_section(num_elements, den_elements):
    """Greedy cyclic decomposition of the abelian quotient num/den, over Perm products.

    The choice rule of ``groups.abelian_section``, one element at a time: pick
    the first element in sort order of largest order relative to the
    subgroup covered so far, then, if its m-th power leaves the denominator,
    replace it by its product with the first covered element in sort order
    whose m-th power does not.  Returns (basis, orders, vector_of), where
    vector_of maps every element of num to its exponent vector.
    """
    den = set(den_elements)
    num_sorted = sorted(num_elements)
    current = set(den)
    basis, orders = [], []

    def rel_order(x: Perm) -> int:
        m, power = 1, x
        while power not in current:
            power, m = power * x, m + 1
        return m

    while len(current) < len(num_sorted):
        best, best_m = None, 0
        for x in num_sorted:
            if x not in current and (m := rel_order(x)) > best_m:
                best, best_m = x, m
        chosen = next(
            c for c in [best] + [best * d for d in sorted(current)] if c**best_m in den
        )
        basis.append(chosen)
        orders.append(best_m)
        power, grown = Perm.identity(chosen.degree), set()
        for _ in range(best_m):
            grown |= {x * power for x in current}
            power = power * chosen
        current = grown
    vector_of = {}
    for exponents in itertools.product(*(range(m) for m in orders)):
        rep = Perm.identity(num_sorted[0].degree)
        for b, e in zip(basis, exponents):
            rep = rep * b**e
        for d in den:
            assert rep * d not in vector_of, "exponent vectors are not unique"
            vector_of[rep * d] = exponents
    assert len(vector_of) == len(num_sorted), "exponent vectors do not cover the numerator"
    return basis, orders, vector_of


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
    table = cayley_table_of(*cents)
    cents = [frozenset(table.indices(C).tolist()) for C in cents]
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
            M = table.commutator_subgroup(np.array(sorted(left)), np.array(sorted(right)))
            for n, C in enumerate(cents):
                found.setdefault(frozenset(M.tolist()) & C, (tag, *pair, n))
        families.append(list(found.items()))
    return [[(table.perms(sorted(elements)), recipe) for elements, recipe in family] for family in families]
