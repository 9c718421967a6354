"""The graded Lie ring of a nilpotent group and its induced automorphism action.

The ring is the direct sum of the lower-central sections, written additively;
the bracket is induced by group commutation and stored once, as one array of
structure constants on the section bases per weight pair.  Every bracket (of
subspaces, in the axioms, in the action's compatibility check) is evaluated on
those arrays through ``GradedLieRing.brackets``.  The constants, like the
action's matrices, are read from each section's codes over the group's root
index, and are cross-checked at construction against commutators composed as
row products.  Each
component is enumerated once, as an int array of its exponent vectors in
``itertools.product`` order, so that a vector's mixed-radix code is its row
there. A homogeneous subspace is one bool mask per weight over those codes,
and A acts on each component through one integer matrix per element u, so
fixed points, spans (each computed once per ring), intersections and
containment are array operations.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

import numpy as np

from .action import ASubgroupDescriptor, ActionSetup, fixed_subgroup, maximal_subgroups
from .errors import ContainmentError, InternalCheckError, PreconditionError, ValidationError
from .groups import AbelianSection, Group, abelian_section
from .series import lower_central_series, nilpotency_class
from .status import CheckResult, CheckStatus

# random lifted pairs whose group commutator cross-checks the bracket at construction
CROSS_CHECK_PAIRS = 200


class GradedLieRing:
    """Sections of the lower central series with induced bracket constants.

    ``components[i]`` is the section of weight i+1.  ``constants[(wi, wj)]``, for each
    weight pair with wi + wj within the class, is a read-only int64 array of shape
    (rank_wi, rank_wj, rank_{wi+wj}): entry [a, b] is the exponent vector of the
    bracket of basis elements a and b.  It is the one store of the bracket, and
    ``brackets`` the one way to evaluate it.  The code of an
    exponent vector is its mixed-radix value, last coordinate fastest: its
    row in ``vectors(weight)``, so codes sort like the vectors' tuples.
    ``_spans`` memoizes ``_span_and_gens`` by weight and candidate mask, a complete
    key since a span depends only on the component's orders; its masks are read-only.
    """

    __slots__ = ("group", "components", "orders", "constants", "class_", "_moduli", "_radix", "_vectors", "_spans")

    def __init__(self, group: Group, components, constants):
        self.group = group
        self.components: tuple[AbelianSection, ...] = tuple(components)
        self.orders = tuple(section.orders for section in self.components)
        self.constants: dict[tuple[int, int], np.ndarray] = constants
        self.class_ = len(self.components)
        self._moduli = tuple(np.array(orders, dtype=np.int64) for orders in self.orders)
        self._radix = tuple(
            np.array([math.prod(orders[i + 1 :]) for i in range(len(orders))], dtype=np.int64)
            for orders in self.orders
        )
        self._vectors: list[np.ndarray | None] = [None] * self.class_
        self._spans: dict[tuple[int, bytes], tuple[np.ndarray, tuple]] = {}

    def component(self, weight: int) -> AbelianSection:
        return self.components[weight - 1]

    def component_order(self, weight: int) -> int:
        return math.prod(self.orders[weight - 1])

    def vectors(self, weight: int) -> np.ndarray:
        """Every exponent vector of the component, one row each; row i has code i."""
        vectors = self._vectors[weight - 1]
        if vectors is None:
            orders = self.orders[weight - 1]
            vectors = np.indices(orders, dtype=np.int64).reshape(len(orders), -1).T.copy()
            self._vectors[weight - 1] = vectors
        return vectors

    def codes(self, weight: int, vectors) -> np.ndarray:
        """The code of every exponent vector, one per row of ``vectors``, reduced mod the orders."""
        return (np.asarray(vectors, dtype=np.int64) % self._moduli[weight - 1]) @ self._radix[weight - 1]

    def brackets(self, wi: int, va: np.ndarray, wj: int, vb: np.ndarray) -> np.ndarray:
        """The bracket of each row of ``va`` with the same row of ``vb``, for wi + wj within the
        class: one ``einsum`` against ``constants[(wi, wj)]``, exact in int64 for |G| below
        10^8, as each term is below |G|^2 and there are log2(|G|)^2 at most."""
        return np.einsum("na,nb,abt->nt", va, vb, self.constants[(wi, wj)]) % self._moduli[wi + wj - 1]


def lie_ring_of(G: Group, seed: int = 0) -> GradedLieRing:
    """Build the graded ring of a nilpotent group from its lower central series.

    Construction verifies the ring axioms exhaustively and cross-checks the
    bi-additive bracket against the commutators of ``CROSS_CHECK_PAIRS``
    random lifted pairs, composed from their rows, which catches lifting
    errors that the axioms alone might miss.
    """
    series = lower_central_series(G)
    if series.class_or_length is None:
        raise PreconditionError("the graded ring is only defined for nilpotent groups")
    cls = series.class_or_length
    terms = series.terms
    components = [abelian_section(terms[i], terms[i + 1]) for i in range(cls)]
    index = G._frame()[0].row_index()
    constants: dict[tuple[int, int], np.ndarray] = {}
    for wi in range(1, cls + 1):
        for wj in range(1, cls + 1 - wi):
            target = components[wi + wj - 1]
            codes = np.array(
                [
                    [target.root_codes[index.commutator(u, v)] for v in components[wj - 1].basis_at]
                    for u in components[wi - 1].basis_at
                ],
                dtype=np.int64,
            )
            if (codes < 0).any():
                raise InternalCheckError("commutator of lifted basis elements left the expected section")
            vectors = np.stack(np.unravel_index(codes, target.orders), axis=-1).astype(np.int64)
            vectors.flags.writeable = False
            constants[(wi, wj)] = vectors
    ring = GradedLieRing(G, components, constants)
    report = axiom_report(ring)
    bad = [name for name, ok in report.items() if not ok]
    if bad:
        raise InternalCheckError(f"ring axioms failed at construction: {', '.join(bad)}")
    _cross_check_brackets(ring, seed)
    return ring


def _cross_check_brackets(ring: GradedLieRing, seed: int) -> None:
    """The bracket of random lifted pairs against their commutators, as row products of the pairs'
    rows alone: a row's argsort is its inverse's, and (p q) is q's row gathered at p's.  So it does
    not go through the index's translates, tree or inverse column, by which the constants were read."""
    cls = ring.class_
    weight_pairs = [(i, j) for i in range(1, cls + 1) for j in range(1, cls + 1) if i + j <= cls]
    if not weight_pairs:
        return
    index = ring.group._frame()[0].row_index()
    # each numerator's root indices, in its sort order
    positions = [np.flatnonzero(section.root_codes >= 0) for section in ring.components]
    rng = random.Random(seed)
    pairs = []
    for _ in range(CROSS_CHECK_PAIRS):
        wi, wj = rng.choice(weight_pairs)
        pairs.append((wi, wj, rng.choice(positions[wi - 1]), rng.choice(positions[wj - 1])))
    wis, wjs, xs, ys = (np.array(column) for column in zip(*pairs))
    x, y = index.rows[xs], index.rows[ys]
    factors = [np.argsort(x, axis=1), np.argsort(y, axis=1), x, y]  # x^-1 y^-1 x y
    found = index._find(functools.reduce(lambda p, q: np.take_along_axis(q, p, axis=1), factors))
    for wi, wj in weight_pairs:
        at = np.flatnonzero((wis == wi) & (wjs == wj))
        codes = ring.component(wi + wj).root_codes[found[at]]
        if (found[at] < 0).any() or (codes < 0).any():
            raise InternalCheckError("commutator of a lifted pair left the expected section")
        left = ring.vectors(wi)[ring.component(wi).root_codes[xs[at]]]
        right = ring.vectors(wj)[ring.component(wj).root_codes[ys[at]]]
        if not np.array_equal(ring.brackets(wi, left, wj, right), ring.vectors(wi + wj)[codes]):
            raise InternalCheckError("bracket of lifted pair disagrees with the group commutator")


def axiom_report(ring: GradedLieRing) -> dict[str, bool]:
    """Exhaustive check of grading, alternating, bilinearity, and Jacobi, on the constants' arrays."""
    report = {"grading": True, "alternating": True, "bilinear": True, "jacobi": True}
    cls, C = ring.class_, ring.constants
    for (wi, wj), Cij in C.items():
        w = wi + wj
        if w > cls or Cij.shape != tuple(len(ring.orders[v - 1]) for v in (wi, wj, w)):
            report["grading"] = False
            continue
        m = ring._moduli[w - 1]
        if ((Cij < 0) | (Cij >= m)).any():
            report["grading"] = False
        # the order of each argument's basis element kills its bracket
        left, right = ring._moduli[wi - 1][:, None, None], ring._moduli[wj - 1][None, :, None]
        if ((left * Cij) % m).any() or ((right * Cij) % m).any():
            report["bilinear"] = False
        mirror = C.get((wj, wi))
        if mirror is None or not np.array_equal(mirror, -Cij.transpose(1, 0, 2) % m):
            report["alternating"] = False
        if wi == wj and np.diagonal(Cij, axis1=0, axis2=1).any():
            report["alternating"] = False
    # Jacobi on all basis triples with total weight inside the grading:
    # [[a, b], c] + [[b, c], a] + [[c, a], b], each term indexed [a, b, c, t]
    for wi, wj, wk in itertools.product(range(1, cls + 1), repeat=3):
        if wi + wj + wk > cls:
            continue
        terms = (
            np.einsum("abs,sct->abct", C[(wi, wj)], C[(wi + wj, wk)])
            + np.einsum("bcs,sat->abct", C[(wj, wk)], C[(wj + wk, wi)])
            + np.einsum("cas,sbt->abct", C[(wk, wi)], C[(wk + wi, wj)])
        )
        if (terms % ring._moduli[wi + wj + wk - 1]).any():
            report["jacobi"] = False
    return report


class LieSubspace:
    """A homogeneous additive subspace: one bool mask per weight over the component's codes.

    The masks drive membership and comparisons; a small generating set per
    weight (computed lazily, or passed in by the constructors) drives sums,
    brackets, and invariance checks, which keeps those operations
    proportional to the rank rather than the subspace size.
    """

    __slots__ = ("ring", "masks", "_gens")

    def __init__(self, ring: GradedLieRing, masks, gens=None):
        self.ring = ring
        self.masks: tuple[np.ndarray, ...] = tuple(masks)
        self._gens = tuple(gens) if gens is not None else None

    def _key(self) -> tuple[bytes, ...]:
        return tuple(mask.tobytes() for mask in self.masks)

    def __eq__(self, other) -> bool:
        return isinstance(other, LieSubspace) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        sizes = [int(np.count_nonzero(mask)) for mask in self.masks]
        return f"LieSubspace(sizes={sizes})"

    @classmethod
    def zero(cls, ring: GradedLieRing) -> "LieSubspace":
        masks = [np.arange(ring.component_order(w)) == 0 for w in range(1, ring.class_ + 1)]
        return cls(ring, masks, gens=tuple(() for _ in range(ring.class_)))

    @classmethod
    def full(cls, ring: GradedLieRing) -> "LieSubspace":
        masks = [np.ones(ring.component_order(w), dtype=bool) for w in range(1, ring.class_ + 1)]
        gens = tuple(tuple(map(tuple, np.eye(len(orders), dtype=int).tolist())) for orders in ring.orders)
        return cls(ring, masks, gens=gens)

    @classmethod
    def from_vectors(cls, ring: GradedLieRing, per_weight) -> "LieSubspace":
        """Additive closure of the given homogeneous vectors."""
        masks = []
        gens = []
        for w in range(1, ring.class_ + 1):
            seeds = list(per_weight[w - 1]) if w - 1 < len(per_weight) else []
            candidates = np.zeros(ring.component_order(w), dtype=bool)
            if seeds:
                candidates[ring.codes(w, seeds)] = True
            span, picked = _span_and_gens(ring, w, candidates)
            masks.append(span)
            gens.append(picked)
        return cls(ring, masks, gens=gens)

    @property
    def gens(self) -> tuple[tuple, ...]:
        if self._gens is None:
            self._gens = tuple(
                _span_and_gens(self.ring, w, mask)[1] for w, mask in enumerate(self.masks, start=1)
            )
        return self._gens

    def weight_set(self, weight: int) -> frozenset:
        return frozenset(map(tuple, self.ring.vectors(weight)[self.masks[weight - 1]].tolist()))

    @property
    def is_zero(self) -> bool:
        return not any(mask[1:].any() for mask in self.masks)

    def is_full(self) -> bool:
        return all(mask.all() for mask in self.masks)

    def size(self) -> int:
        return math.prod(int(np.count_nonzero(mask)) for mask in self.masks)

    def contains_subspace(self, other: "LieSubspace") -> bool:
        return not any((o & ~s).any() for s, o in zip(self.masks, other.masks))

    def sum_with(self, other: "LieSubspace") -> "LieSubspace":
        return LieSubspace.from_vectors(
            self.ring, [a + b for a, b in zip(self.gens, other.gens)]
        )

    def intersect(self, other: "LieSubspace") -> "LieSubspace":
        return LieSubspace(self.ring, [s & o for s, o in zip(self.masks, other.masks)])

    def bracket_with(self, other: "LieSubspace") -> "LieSubspace":
        # bi-additivity: brackets of generators span the bracket subspace
        ring = self.ring
        per_weight: list[list] = [[] for _ in range(ring.class_)]
        for wi, wj in ring.constants:
            left, right = self.gens[wi - 1], other.gens[wj - 1]
            if left and right:
                va = np.repeat(np.array(left, dtype=np.int64), len(right), axis=0)
                vb = np.tile(np.array(right, dtype=np.int64), (len(left), 1))
                per_weight[wi + wj - 1].extend(ring.brackets(wi, va, wj, vb))
        return LieSubspace.from_vectors(ring, per_weight)


def _span_and_gens(ring: GradedLieRing, weight: int, candidates: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The additive span of the vectors whose codes ``candidates`` marks, and the
    generators picked from them greedily in code order: each is the least
    candidate outside the span of those picked before it.
    """
    key = (weight, candidates.tobytes())
    if key in ring._spans:
        return ring._spans[key]
    vectors, moduli = ring.vectors(weight), ring._moduli[weight - 1]
    exponent = math.lcm(*ring.orders[weight - 1])
    span = np.zeros(len(vectors), dtype=bool)
    span[0] = True
    picked: list[int] = []
    left = candidates & ~span
    while left.any():
        code = int(np.argmax(left))
        picked.append(code)
        # 0, v, ..., e v = 0 for the exponent e; with m the least m > 0 that has
        # m v in the span, span + <v> is span + {0, v, ..., (m - 1) v}, without repeats
        multiples = (np.arange(exponent + 1, dtype=np.int64)[:, None] * vectors[code]) % moduli
        m = 1 + int(np.argmax(span[ring.codes(weight, multiples[1:])]))
        sums = vectors[span][:, None, :] + multiples[None, :m, :]
        span = np.zeros(len(vectors), dtype=bool)
        span[ring.codes(weight, sums.reshape(-1, len(moduli)))] = True
        left &= ~span
    span.flags.writeable = False
    ring._spans[key] = span, tuple(map(tuple, vectors[picked].tolist()))
    return ring._spans[key]


def lie_subring_of_subgroup(L: GradedLieRing, G: Group, H: Group) -> LieSubspace:
    """The homogeneous subspace built from the images of H in each section."""
    if not G.same_subgroup(L.group):
        raise ContainmentError("the ring was not built from the given ambient group")
    if not H.is_subgroup_of(G):
        raise ContainmentError("H is not a subgroup of the ring's group")
    h_mask = H.mask_over(L.group)
    masks = []
    for w in range(1, L.class_ + 1):
        codes = L.component(w).root_codes[h_mask]  # the codes of H and the numerator's common elements
        mask = np.zeros(L.component_order(w), dtype=bool)
        mask[codes[codes >= 0]] = True
        masks.append(mask)
    subspace = LieSubspace(L, masks)
    if not subspace.contains_subspace(subspace.bracket_with(subspace)):
        raise InternalCheckError("subgroup image subspace is not bracket-closed")
    return subspace


class LieAction:
    """The action of A on a graded ring: per u and weight, one integer matrix over the section basis."""

    def __init__(self, ring: GradedLieRing, setup: ActionSetup):
        self.ring = ring
        self.setup = setup
        self._maps: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}
        self._fixed_by_vector: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}

    def _reduced(self, u) -> tuple[int, ...]:
        return tuple(int(c) % self.setup.p for c in u)

    def _matrices(self, u) -> tuple[np.ndarray, ...]:
        """Per weight, the matrix of phi(u) on the section: row a is the image of basis vector a."""
        u = self._reduced(u)
        cached = self._maps.get(u)
        if cached is not None:
            return cached
        if self.ring.group._frame()[0] is not self.setup.G:
            raise InternalCheckError("the ring is not built over the index of the setup's group")
        table = self.setup.phi(u).table
        out = []
        for w, section in enumerate(self.ring.components, start=1):
            codes = section.root_codes[table[list(section.basis_at)]]
            if (codes < 0).any():
                raise InternalCheckError("the action does not preserve the lower central sections")
            out.append(self.ring.vectors(w)[codes])
        self._maps[u] = tuple(out)
        return self._maps[u]

    def apply(self, u, weight: int, vec) -> tuple[int, ...]:
        matrix = self._matrices(u)[weight - 1]
        if len(vec) != len(matrix):
            raise ValidationError("exponent vector length does not match the component's rank")
        image = (np.asarray(vec, dtype=np.int64) @ matrix) % self.ring._moduli[weight - 1]
        return tuple(image.tolist())

    def is_invariant(self, subspace: LieSubspace) -> bool:
        # component maps are bijective, so invariance follows once the
        # generator images stay inside the subspace
        ring = self.ring
        for u in self.setup.basis_vectors():
            maps = zip(self._matrices(u), subspace.gens, subspace.masks)
            for w, (matrix, gs, mask) in enumerate(maps, start=1):
                if gs and not mask[ring.codes(w, np.array(gs, dtype=np.int64) @ matrix)].all():
                    return False
        return True

    def _fixed_of_vector(self, u) -> tuple[np.ndarray, ...]:
        u = self._reduced(u)
        cached = self._fixed_by_vector.get(u)
        if cached is None:
            ring = self.ring
            cached = tuple(
                ((ring.vectors(w) @ matrix) % ring._moduli[w - 1] == ring.vectors(w)).all(axis=1)
                for w, matrix in enumerate(self._matrices(u), start=1)
            )
            self._fixed_by_vector[u] = cached
        return cached

    def fixed_subspace(self, B: ASubgroupDescriptor) -> LieSubspace:
        if not B.vectors:
            return LieSubspace.full(self.ring)
        parts = [self._fixed_of_vector(u) for u in B.vectors]
        return LieSubspace(self.ring, [np.logical_and.reduce(masks) for masks in zip(*parts)])

    def verify(self) -> None:
        """Additive bijectivity per component and compatibility with the bracket."""
        ring = self.ring
        for u in self.setup.basis_vectors():
            matrices = self._matrices(u)
            for w, matrix in enumerate(matrices, start=1):
                vectors = ring.vectors(w)
                hits = np.bincount(ring.codes(w, vectors @ matrix), minlength=len(vectors))
                if np.count_nonzero(hits) != len(vectors):
                    raise InternalCheckError("induced component map is not bijective")
            # phi_u([e_a, e_b]) against [phi_u(e_a), phi_u(e_b)], over every pair (a, b) of each weight pair
            for (wi, wj), C in ring.constants.items():
                left, right = matrices[wi - 1], matrices[wj - 1]
                a, b = np.divmod(np.arange(len(left) * len(right)), len(right))
                images = (C.reshape(len(a), -1) @ matrices[wi + wj - 1]) % ring._moduli[wi + wj - 1]
                if not np.array_equal(images, ring.brackets(wi, left[a], wj, right[b])):
                    raise InternalCheckError("induced action does not commute with the bracket")


def induced_a_action(L: GradedLieRing, setup: ActionSetup) -> LieAction:
    """The grading-preserving action of A on L, verified at construction."""
    action = LieAction(L, setup)
    action.verify()
    return action


def check_centralizer_transfer(
    L: GradedLieRing, setup: ActionSetup, B: ASubgroupDescriptor, action: LieAction | None = None
) -> bool:
    """Fixed subspace of B on L equals the subspace built from C(B) in the group."""
    if action is None:
        action = induced_a_action(L, setup)
    left = action.fixed_subspace(B)
    right = lie_subring_of_subgroup(L, setup.G, fixed_subgroup(setup, B))
    return left == right


def lie_series(L: GradedLieRing, kind: str) -> list[LieSubspace]:
    """Lower-central or derived chain of L computed by iterated bracket spans."""
    if kind not in ("lower-central", "derived"):
        raise PreconditionError(f"unknown Lie series kind {kind!r}")
    full = LieSubspace.full(L)
    terms = [full]
    while True:
        prev = terms[-1]
        nxt = prev.bracket_with(prev if kind == "derived" else full)
        if nxt == prev:
            break
        terms.append(nxt)
        if nxt.is_zero:
            break
    return terms


def check_class_transfer(L: GradedLieRing, G: Group) -> bool:
    """The Lie lower central series terminates with the group's class."""
    terms = lie_series(L, "lower-central")
    lie_class = len(terms) - 1 if terms[-1].is_zero else None
    return lie_class == nilpotency_class(G)


def check_span_lemma(
    L: GradedLieRing,
    setup: ActionSetup,
    subspaces: list[LieSubspace],
    mode: str,
    action: LieAction | None = None,
) -> CheckResult:
    """Closure hypothesis plus additive-span conclusion for a subspace family.

    Mode "pairwise" checks [R_i, R_j] ^ C(A_k) <= R_m; mode "gamma" checks
    [R_i, C(A_j)] ^ C(A_k) <= R_m. When the hypothesis holds, the additive
    span of the family must be the whole ring.
    """
    if mode not in ("pairwise", "gamma"):
        raise PreconditionError(f"unknown span-lemma mode {mode!r}")
    if not subspaces:
        return CheckResult(CheckStatus.NOT_APPLICABLE, "no input subspaces")
    for orders in L.orders:
        if any(m % setup.p == 0 for m in orders):
            raise InternalCheckError("pL = L fails: a section order is divisible by p")
    if action is None:
        action = induced_a_action(L, setup)
    for idx, R in enumerate(subspaces):
        if not action.is_invariant(R):
            raise PreconditionError(f"input subspace {idx} is not A-invariant")

    # precondition: the family must generate L as a subalgebra
    generated = subspaces[0]
    for R in subspaces[1:]:
        generated = generated.sum_with(R)
    while True:
        bigger = generated.sum_with(generated.bracket_with(generated))
        if bigger == generated:
            break
        generated = bigger
    if not generated.is_full():
        return CheckResult(
            CheckStatus.NOT_APPLICABLE, "input subspaces do not generate the ring"
        )

    centralizers = [action.fixed_subspace(A_j) for A_j in maximal_subgroups(setup)]
    if mode == "pairwise":
        pairs = [
            (subspaces[i], subspaces[j], f"[R{i},R{j}]")
            for i in range(len(subspaces))
            for j in range(i, len(subspaces))
        ]
    else:
        pairs = [
            (subspaces[i], centralizers[j], f"[R{i},C{j}]")
            for i in range(len(subspaces))
            for j in range(len(centralizers))
        ]
    # per weight, one row per centralizer C_k and one column per input subspace R_r marking what
    # it misses.  Their count product is exact in float32: no count exceeds the component order,
    # at most |G| < 2^24 under the default cap of 200,000; a larger component counts in float64.
    cents, misses = [], []
    for w in range(1, L.class_ + 1):
        order = L.component_order(w)
        cents.append(np.array([C.masks[w - 1] for C in centralizers], dtype=bool).reshape(-1, order))
        missed = ~np.array([R.masks[w - 1] for R in subspaces], dtype=bool).reshape(-1, order)
        misses.append(missed.T.astype(np.float32 if order < 1 << 24 else np.float64))
    for left, right, label in pairs:
        product = left.bracket_with(right)
        # escapes[k, r]: product ^ C_k has a vector outside R_r
        escapes = np.zeros((len(centralizers), len(subspaces)), dtype=bool)
        for w, mask in enumerate(product.masks):
            escapes |= (cents[w] & mask).astype(misses[w].dtype) @ misses[w] > 0
        outside = np.flatnonzero(escapes.all(axis=1))
        if outside.size:
            return CheckResult(
                CheckStatus.HYPOTHESIS_NOT_MET,
                f"{label} ^ C(A_{outside[0]}) is not inside any input subspace",
            )

    span = subspaces[0]
    for R in subspaces[1:]:
        span = span.sum_with(R)
    if span.is_full():
        return CheckResult(CheckStatus.PASS)
    return CheckResult(CheckStatus.FAIL, "additive span of the family is proper")
