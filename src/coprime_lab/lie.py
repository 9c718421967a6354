"""The graded Lie ring of a nilpotent group and its induced automorphism action.

The ring is the direct sum of the lower-central sections, written additively;
the bracket is induced by group commutation and stored as structure constants
on the section bases. Homogeneous subspaces are kept as explicit per-weight
sets of exponent vectors (section orders are tiny at desk scale), so spans,
intersections and bracket spans are exact set computations.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .action import ASubgroupDescriptor, ActionSetup, fixed_subgroup, maximal_subgroups
from .errors import ContainmentError, InternalCheckError, PreconditionError
from .groups import AbelianSection, Group, abelian_section
from .perms import commutator
from .series import lower_central_series, nilpotency_class
from .status import CheckStatus

# random lifted pairs whose group commutator cross-checks the bracket at construction
CROSS_CHECK_PAIRS = 200


def _vadd(u, v, orders):
    return tuple((a + b) % m for a, b, m in zip(u, v, orders))


def _vneg(u, orders):
    return tuple((-a) % m for a, m in zip(u, orders))


def _vzero(orders):
    return tuple(0 for _ in orders)


class GradedLieRing:
    """Sections of the lower central series with induced bracket constants.

    ``components[i]`` is the section of weight i+1; ``table[(wi, wj, a, b)]``
    is the exponent vector (in the weight wi+wj component) of the bracket of
    basis elements a and b, stored for both argument orders.
    """

    __slots__ = ("group", "components", "orders", "table", "class_")

    def __init__(self, group: Group, components, table):
        self.group = group
        self.components: tuple[AbelianSection, ...] = tuple(components)
        self.orders = tuple(section.orders for section in self.components)
        self.table: dict[tuple[int, int, int, int], tuple[int, ...]] = table
        self.class_ = len(self.components)

    def component(self, weight: int) -> AbelianSection:
        return self.components[weight - 1]

    def zero(self, weight: int) -> tuple[int, ...]:
        return _vzero(self.orders[weight - 1])

    def component_vectors(self, weight: int):
        return itertools.product(*(range(m) for m in self.orders[weight - 1]))

    def component_order(self, weight: int) -> int:
        n = 1
        for m in self.orders[weight - 1]:
            n *= m
        return n

    def bracket(self, wi: int, va, wj: int, vb) -> tuple[int, ...] | None:
        """Bi-additive extension of the structure constants; None past the class."""
        w = wi + wj
        if w > self.class_:
            return None
        target_orders = self.orders[w - 1]
        out = [0] * len(target_orders)
        for a, ca in enumerate(va):
            if not ca:
                continue
            for b, cb in enumerate(vb):
                if not cb:
                    continue
                sc = self.table.get((wi, wj, a, b))
                if sc is None:
                    continue
                f = ca * cb
                for t, s in enumerate(sc):
                    if s:
                        out[t] = (out[t] + f * s) % target_orders[t]
        return tuple(out)

    def basis_unit(self, weight: int, index: int) -> tuple[int, ...]:
        orders = self.orders[weight - 1]
        return tuple(1 if i == index else 0 for i in range(len(orders)))


def lie_ring_of(G: Group, seed: int = 0) -> GradedLieRing:
    """Build the graded ring of a nilpotent group from its lower central series.

    Construction verifies the ring axioms exhaustively and cross-checks the
    bi-additive bracket against direct group commutators on
    ``CROSS_CHECK_PAIRS`` random lifted pairs, which catches lifting errors
    that the axioms alone might miss.
    """
    series = lower_central_series(G)
    if series.class_or_length is None:
        raise PreconditionError("the graded ring is only defined for nilpotent groups")
    cls = series.class_or_length
    terms = series.terms
    components = [abelian_section(terms[i], terms[i + 1]) for i in range(cls)]
    table: dict[tuple[int, int, int, int], tuple[int, ...]] = {}
    for wi in range(1, cls + 1):
        for wj in range(1, cls + 1):
            if wi + wj > cls:
                continue
            target = components[wi + wj - 1]
            for a, u in enumerate(components[wi - 1].basis):
                for b, v in enumerate(components[wj - 1].basis):
                    c = commutator(u, v)
                    try:
                        table[(wi, wj, a, b)] = target.decompose(c)
                    except ContainmentError:
                        raise InternalCheckError(
                            "commutator of lifted basis elements left the expected section"
                        ) from None
    ring = GradedLieRing(G, components, table)
    report = axiom_report(ring)
    bad = [name for name, ok in report.items() if not ok]
    if bad:
        raise InternalCheckError(f"ring axioms failed at construction: {', '.join(bad)}")
    _cross_check_brackets(ring, seed)
    return ring


def _cross_check_brackets(ring: GradedLieRing, seed: int) -> None:
    cls = ring.class_
    weight_pairs = [(i, j) for i in range(1, cls + 1) for j in range(1, cls + 1) if i + j <= cls]
    if not weight_pairs:
        return
    element_lists = [section.numerator.sorted_elements() for section in ring.components]
    rng = random.Random(seed)
    for _ in range(CROSS_CHECK_PAIRS):
        wi, wj = rng.choice(weight_pairs)
        x = rng.choice(element_lists[wi - 1])
        y = rng.choice(element_lists[wj - 1])
        expected = ring.component(wi + wj).decompose(commutator(x, y))
        got = ring.bracket(
            wi, ring.component(wi).decompose(x), wj, ring.component(wj).decompose(y)
        )
        if got != expected:
            raise InternalCheckError("bracket of lifted pair disagrees with the group commutator")


def axiom_report(ring: GradedLieRing) -> dict[str, bool]:
    """Exhaustive check of grading, alternating, bilinearity, and Jacobi."""
    report = {"grading": True, "alternating": True, "bilinear": True, "jacobi": True}
    cls = ring.class_
    for (wi, wj, a, b), sc in ring.table.items():
        w = wi + wj
        if w > cls or len(sc) != len(ring.orders[w - 1]):
            report["grading"] = False
            continue
        target_orders = ring.orders[w - 1]
        if any(not (0 <= s < m) for s, m in zip(sc, target_orders)):
            report["grading"] = False
        oa = ring.orders[wi - 1][a]
        ob = ring.orders[wj - 1][b]
        if any((oa * s) % m for s, m in zip(sc, target_orders)) or any(
            (ob * s) % m for s, m in zip(sc, target_orders)
        ):
            report["bilinear"] = False
        mirror = ring.table.get((wj, wi, b, a))
        if mirror is None or mirror != _vneg(sc, target_orders):
            report["alternating"] = False
        if wi == wj and a == b and any(sc):
            report["alternating"] = False
    # Jacobi on all basis triples with total weight inside the grading
    for wi in range(1, cls + 1):
        for wj in range(1, cls + 1):
            for wk in range(1, cls + 1):
                w = wi + wj + wk
                if w > cls:
                    continue
                orders_t = ring.orders[w - 1]
                for a in range(len(ring.orders[wi - 1])):
                    ea = ring.basis_unit(wi, a)
                    for b in range(len(ring.orders[wj - 1])):
                        eb = ring.basis_unit(wj, b)
                        ab = ring.bracket(wi, ea, wj, eb)
                        for c in range(len(ring.orders[wk - 1])):
                            ec = ring.basis_unit(wk, c)
                            bc = ring.bracket(wj, eb, wk, ec)
                            ca = ring.bracket(wk, ec, wi, ea)
                            t1 = ring.bracket(wi + wj, ab, wk, ec)
                            t2 = ring.bracket(wj + wk, bc, wi, ea)
                            t3 = ring.bracket(wk + wi, ca, wj, eb)
                            total = _vadd(_vadd(t1, t2, orders_t), t3, orders_t)
                            if any(total):
                                report["jacobi"] = False
    return report


def with_corrupted_constant(ring: GradedLieRing, delta: int = 1) -> GradedLieRing:
    """Mutation hook: a copy with one structure constant deliberately wrong.

    Used by the suite-sensitivity check; the copy skips construction-time
    verification so the corruption must be caught by the downstream checks.
    """
    for key in sorted(ring.table):
        wi, wj, _, _ = key
        target_orders = ring.orders[wi + wj - 1]
        for t, m in enumerate(target_orders):
            if m > 1 and delta % m != 0:
                table = dict(ring.table)
                vec = list(table[key])
                vec[t] = (vec[t] + delta) % m
                table[key] = tuple(vec)
                return GradedLieRing(ring.group, ring.components, table)
    raise ValueError("ring has no structure constants available to corrupt")


class LieSubspace:
    """A homogeneous additive subspace: one vector set per weight.

    The full per-weight element sets drive membership and comparisons; a
    small generating set per weight (computed lazily, or passed in by the
    constructors) drives sums, brackets, and invariance checks, which keeps
    those operations proportional to the rank rather than the subspace size.
    """

    __slots__ = ("ring", "vectors", "bracket_closed", "_gens")

    def __init__(self, ring: GradedLieRing, vectors, bracket_closed=None, gens=None):
        self.ring = ring
        self.vectors: tuple[frozenset, ...] = tuple(vectors)
        self.bracket_closed = bracket_closed
        self._gens = tuple(gens) if gens is not None else None

    def __eq__(self, other) -> bool:
        return isinstance(other, LieSubspace) and self.vectors == other.vectors

    def __hash__(self) -> int:
        return hash(self.vectors)

    def __repr__(self) -> str:
        sizes = [len(s) for s in self.vectors]
        return f"LieSubspace(sizes={sizes})"

    @classmethod
    def zero(cls, ring: GradedLieRing) -> "LieSubspace":
        return cls(
            ring,
            tuple(frozenset({ring.zero(w)}) for w in range(1, ring.class_ + 1)),
            gens=tuple(() for _ in range(ring.class_)),
        )

    @classmethod
    def full(cls, ring: GradedLieRing) -> "LieSubspace":
        vectors = tuple(frozenset(ring.component_vectors(w)) for w in range(1, ring.class_ + 1))
        gens = tuple(
            tuple(ring.basis_unit(w, a) for a in range(len(ring.orders[w - 1])))
            for w in range(1, ring.class_ + 1)
        )
        return cls(ring, vectors, gens=gens)

    @classmethod
    def from_vectors(cls, ring: GradedLieRing, per_weight) -> "LieSubspace":
        """Additive closure of the given homogeneous vectors."""
        vectors = []
        gens = []
        for w in range(1, ring.class_ + 1):
            seeds = list(per_weight[w - 1]) if w - 1 < len(per_weight) else []
            span, reduced = _closure_and_gens(ring.orders[w - 1], seeds)
            vectors.append(span)
            gens.append(reduced)
        return cls(ring, tuple(vectors), gens=tuple(gens))

    @property
    def gens(self) -> tuple[tuple, ...]:
        if self._gens is None:
            out = []
            for w, span in enumerate(self.vectors, start=1):
                _, reduced = _closure_and_gens(self.ring.orders[w - 1], sorted(span))
                out.append(reduced)
            self._gens = tuple(out)
        return self._gens

    def weight_set(self, weight: int) -> frozenset:
        return self.vectors[weight - 1]

    @property
    def is_zero(self) -> bool:
        return all(len(s) == 1 for s in self.vectors)

    def is_full(self) -> bool:
        return all(
            len(s) == self.ring.component_order(w + 1) for w, s in enumerate(self.vectors)
        )

    def size(self) -> int:
        n = 1
        for s in self.vectors:
            n *= len(s)
        return n

    def contains_subspace(self, other: "LieSubspace") -> bool:
        return all(o <= s for s, o in zip(self.vectors, other.vectors))

    def sum_with(self, other: "LieSubspace") -> "LieSubspace":
        return LieSubspace.from_vectors(
            self.ring, [a + b for a, b in zip(self.gens, other.gens)]
        )

    def intersect(self, other: "LieSubspace") -> "LieSubspace":
        return LieSubspace(
            self.ring, tuple(s & o for s, o in zip(self.vectors, other.vectors))
        )

    def bracket_with(self, other: "LieSubspace") -> "LieSubspace":
        # bi-additivity: brackets of generators span the bracket subspace
        ring = self.ring
        per_weight: list[set] = [set() for _ in range(ring.class_)]
        for wi in range(1, ring.class_ + 1):
            gens_i = self.gens[wi - 1]
            if not gens_i:
                continue
            for wj in range(1, ring.class_ + 1):
                if wi + wj > ring.class_:
                    continue
                gens_j = other.gens[wj - 1]
                bucket = per_weight[wi + wj - 1]
                for va in gens_i:
                    for vb in gens_j:
                        bucket.add(ring.bracket(wi, va, wj, vb))
        return LieSubspace.from_vectors(ring, per_weight)


def _closure_and_gens(orders, seeds) -> tuple[frozenset, tuple]:
    """Additive closure plus a small generating subset of the seeds."""
    zero = _vzero(orders)
    span = {zero}
    gens: list[tuple] = []
    for v in sorted({tuple(s) for s in seeds}):
        if v in span:
            continue
        gens.append(v)
        shifts = []
        acc = v
        while acc != zero:
            shifts.append(acc)
            acc = _vadd(acc, v, orders)
        span |= {_vadd(s, sh, orders) for s in list(span) for sh in shifts}
    return frozenset(span), tuple(gens)


def lie_subring_of_subgroup(L: GradedLieRing, G: Group, H: Group) -> LieSubspace:
    """The homogeneous subspace built from the images of H in each section."""
    if not G.same_subgroup(L.group):
        raise ContainmentError("the ring was not built from the given ambient group")
    if not H.is_subgroup_of(G):
        raise ContainmentError("H is not a subgroup of the ring's group")
    h_elements = H.elements()
    per_weight = []
    for w in range(1, L.class_ + 1):
        section = L.component(w)
        common = h_elements & section.numerator.elements()
        per_weight.append(frozenset(section.decompose(x) for x in common))
    subspace = LieSubspace(ring=L, vectors=tuple(per_weight))
    if not subspace.contains_subspace(subspace.bracket_with(subspace)):
        raise InternalCheckError("subgroup image subspace is not bracket-closed")
    return LieSubspace(ring=L, vectors=subspace.vectors, bracket_closed=True)


class LieAction:
    """The action of A on a graded ring, tabulated on the section bases."""

    def __init__(self, ring: GradedLieRing, setup: ActionSetup):
        self.ring = ring
        self.setup = setup
        self._maps: dict[tuple[int, ...], list[list[tuple[int, ...]]]] = {}
        self._fixed_by_vector: dict[tuple[int, ...], tuple[frozenset, ...]] = {}

    def _basis_images(self, u: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
        cached = self._maps.get(u)
        if cached is not None:
            return cached
        table, G = self.setup.phi(u).table, self.setup.G
        ordered, index = G.sorted_elements(), G.row_index()
        out = []
        for w in range(1, self.ring.class_ + 1):
            section = self.ring.component(w)
            images = []
            for i in table[index.index_of(section.basis)].tolist():
                try:
                    images.append(section.decompose(ordered[i]))
                except ContainmentError:
                    raise InternalCheckError(
                        "the action does not preserve the lower central sections"
                    ) from None
            out.append(images)
        self._maps[u] = out
        return out

    def apply(self, u, weight: int, vec) -> tuple[int, ...]:
        images = self._basis_images(tuple(u))[weight - 1]
        orders = self.ring.orders[weight - 1]
        out = _vzero(orders)
        for coeff, img in zip(vec, images):
            if coeff:
                out = _vadd(out, tuple((coeff * c) % m for c, m in zip(img, orders)), orders)
        return out

    def is_invariant(self, subspace: LieSubspace) -> bool:
        # component maps are bijective, so invariance follows once the
        # generator images stay inside the subspace
        for u in self.setup.basis_vectors():
            for w, gs in enumerate(subspace.gens, start=1):
                target = subspace.vectors[w - 1]
                if any(self.apply(u, w, g) not in target for g in gs):
                    return False
        return True

    def _fixed_of_vector(self, u: tuple[int, ...]) -> tuple[frozenset, ...]:
        cached = self._fixed_by_vector.get(u)
        if cached is None:
            cached = tuple(
                frozenset(v for v in self.ring.component_vectors(w) if self.apply(u, w, v) == v)
                for w in range(1, self.ring.class_ + 1)
            )
            self._fixed_by_vector[u] = cached
        return cached

    def fixed_subspace(self, B: ASubgroupDescriptor) -> LieSubspace:
        spanning = [tuple(v) for v in B.vectors]
        if not spanning:
            return LieSubspace.full(self.ring)
        parts = [self._fixed_of_vector(u) for u in spanning]
        out = []
        for w in range(self.ring.class_):
            fixed = parts[0][w]
            for part in parts[1:]:
                fixed = fixed & part[w]
            out.append(fixed)
        return LieSubspace(self.ring, tuple(out))

    def verify(self) -> None:
        """Additive bijectivity per component and compatibility with the bracket."""
        ring = self.ring
        for u in self.setup.basis_vectors():
            for w in range(1, ring.class_ + 1):
                everything = set(ring.component_vectors(w))
                image = {self.apply(u, w, v) for v in everything}
                if image != everything:
                    raise InternalCheckError("induced component map is not bijective")
            for (wi, wj, a, b), sc in ring.table.items():
                left = self.apply(u, wi + wj, sc)
                right = ring.bracket(
                    wi,
                    self.apply(u, wi, ring.basis_unit(wi, a)),
                    wj,
                    self.apply(u, wj, ring.basis_unit(wj, b)),
                )
                if left != right:
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
    return left.vectors == right.vectors


def lie_series(L: GradedLieRing, kind: str) -> list[LieSubspace]:
    """Lower-central or derived chain of L computed by iterated bracket spans."""
    if kind not in ("lower-central", "derived"):
        raise PreconditionError(f"unknown Lie series kind {kind!r}")
    full = LieSubspace.full(L)
    terms = [full]
    while True:
        prev = terms[-1]
        nxt = prev.bracket_with(prev if kind == "derived" else full)
        if nxt.vectors == prev.vectors:
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


@dataclass(frozen=True)
class SpanLemmaOutcome:
    status: CheckStatus
    detail: str = ""


def check_span_lemma(
    L: GradedLieRing,
    setup: ActionSetup,
    subspaces: list[LieSubspace],
    mode: str,
    action: LieAction | None = None,
) -> SpanLemmaOutcome:
    """Closure hypothesis plus additive-span conclusion for a subspace family.

    Mode "pairwise" checks [R_i, R_j] ^ C(A_k) <= R_m; mode "gamma" checks
    [R_i, C(A_j)] ^ C(A_k) <= R_m. When the hypothesis holds, the additive
    span of the family must be the whole ring.
    """
    if mode not in ("pairwise", "gamma"):
        raise PreconditionError(f"unknown span-lemma mode {mode!r}")
    if not subspaces:
        return SpanLemmaOutcome(CheckStatus.NOT_APPLICABLE, "no input subspaces")
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
        if bigger.vectors == generated.vectors:
            break
        generated = bigger
    if not generated.is_full():
        return SpanLemmaOutcome(
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
    for left, right, label in pairs:
        product = left.bracket_with(right)
        for k, C_k in enumerate(centralizers):
            cut = product.intersect(C_k)
            if not any(R.contains_subspace(cut) for R in subspaces):
                return SpanLemmaOutcome(
                    CheckStatus.HYPOTHESIS_NOT_MET,
                    f"{label} ^ C(A_{k}) is not inside any input subspace",
                )

    span = subspaces[0]
    for R in subspaces[1:]:
        span = span.sum_with(R)
    if span.is_full():
        return SpanLemmaOutcome(CheckStatus.PASS)
    return SpanLemmaOutcome(CheckStatus.FAIL, "additive span of the family is proper")


def ring_to_json(L: GradedLieRing) -> dict:
    """JSON-exportable view: invariant factors per component, bracket table."""
    return {
        "class": L.class_,
        "components": [{"weight": w + 1, "orders": list(orders)} for w, orders in enumerate(L.orders)],
        "brackets": [
            {"weights": [wi, wj], "pair": [a, b], "value": list(vec)}
            for (wi, wj, a, b), vec in sorted(L.table.items())
        ],
    }
