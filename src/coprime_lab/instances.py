"""Instance families: coprime-action setups built from small named blocks.

A "zone" is one direct factor of G together with the assignment of which
basis vectors of A act on it (by a named block automorphism, or by cycling
p copies of the block).  A zone is data, not a setup: a direct-sum part
(degree, order, generators, images), where images[j] lists the generators'
images under basis vector j.  The zones of an instance are embedded as the
parts of one direct sum, which builds one group and one automorphism per
basis vector, refused up front when the parts' orders multiply past the cap.
GL-module and extraspecial families construct their factors directly.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .action import ActionSetup, Automorphism, validate_setup
from .config import enumeration_cap
from .errors import (
    CapacityError,
    GenerationError,
    InstanceFormatError,
    ValidationError,
)
from .groups import Group
from .perms import Perm
from .series import _is_prime

SCHEMA_VERSION = 1

# a loaded instance's A = (Z/p)^k may have at most this many subspaces, since
# the degree-bound checks enumerate them all; (2,7), (3,6) and (5,5) fit,
# (2,8) has 417,199
MAX_SUBSPACES = 100_000


# ------------------------------------------------------------------ blocks


@dataclass(frozen=True)
class Block:
    """A small named group plus its named automorphisms (as generator images)."""

    name: str
    degree: int
    order: int
    gens: tuple[Perm, ...]
    auts: dict[str, tuple[Perm, ...]] = field(default_factory=dict)


def _cyclic_block(q: int) -> Block:
    g = Perm.from_cycles(q, tuple(range(q)))
    auts = {}
    for t in range(2, q):
        if math.gcd(t, q) == 1:
            auts[f"pow{t}"] = (g**t,)
    return Block(name=f"c{q}", degree=q, order=q, gens=(g,), auts=auts)


def _heisenberg27_block() -> Block:
    t = Perm.from_cycles(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))
    v = Perm.from_cycles(9, (0, 1, 2), (3, 5, 4))
    return Block(
        name="heisenberg27",
        degree=9,
        order=27,
        gens=(t, v),
        auts={
            "invert-both": (t.inverse(), v.inverse()),
            "invert-first": (t.inverse(), v),
            "invert-second": (t, v.inverse()),
        },
    )


def _wreath81_block() -> Block:
    t = Perm.from_cycles(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))
    u0 = Perm.from_cycles(9, (0, 1, 2))
    return Block(
        name="wreath81",
        degree=9,
        order=81,
        gens=(t, u0),
        auts={
            "invert-base": (t, u0.inverse()),
            "invert-top": (t.inverse(), u0),
        },
    )


def _frobenius21_block() -> Block:
    r = Perm.from_cycles(7, tuple(range(7)))
    s = Perm([(2 * i) % 7 for i in range(7)])
    return Block(
        name="frob21",
        degree=7,
        order=21,
        gens=(r, s),
        auts={"invert-rotation": (r.inverse(), s)},
    )


def _dihedral7_block() -> Block:
    r = Perm.from_cycles(7, tuple(range(7)))
    s = Perm([(-i) % 7 for i in range(7)])
    return Block(
        name="d7",
        degree=7,
        order=14,
        gens=(r, s),
        auts={"square-rotation": (r**2, s)},
    )


_BLOCK_BUILDERS = {
    "heisenberg27": _heisenberg27_block,
    "wreath81": _wreath81_block,
    "frob21": _frobenius21_block,
    "d7": _dihedral7_block,
}

_BLOCK_CACHE: dict[str, Block] = {}


def get_block(name: str) -> Block:
    cached = _BLOCK_CACHE.get(name)
    if cached is not None:
        return cached
    if name in _BLOCK_BUILDERS:
        block = _BLOCK_BUILDERS[name]()
    elif name.startswith("c") and name[1:].isdigit() and int(name[1:]) > 0:
        block = _cyclic_block(int(name[1:]))
    else:
        raise GenerationError(f"unknown block {name!r}")
    _BLOCK_CACHE[name] = block
    return block


# --------------------------------------------------- products and embeddings


def _embed(p: Perm, offset: int, total: int) -> Perm:
    images = list(range(total))
    for i, j in enumerate(p.images):
        images[offset + i] = offset + j
    return Perm._raw(tuple(images))


def _direct_sum(p: int, k: int, parts, cap=None) -> ActionSetup:
    """The direct product of the parts on disjoint domains with the diagonal A-action:
    one group, and one automorphism per basis vector, verified when its table is built.

    A part is (degree, order, generators, images), where images[j] lists the
    generators' images under basis vector j.  The product is refused before any
    enumeration when the product of the parts' orders exceeds the cap.
    """
    cap = enumeration_cap(cap)
    order = math.prod(part[1] for part in parts)
    if order > cap:
        raise CapacityError(f"direct product order {order} exceeds the cap {cap}")
    offsets = list(itertools.accumulate((part[0] for part in parts), initial=0))
    total = offsets.pop()
    gens, images = [], [{} for _ in range(k)]
    for (_, _, part_gens, part_images), offset in zip(parts, offsets):
        embedded = [_embed(g, offset, total) for g in part_gens]
        gens += embedded
        for out, imgs in zip(images, part_images):
            out.update(zip(embedded, (_embed(img, offset, total) for img in imgs)))
    G = Group(max(total, 1), gens, cap=cap)
    return ActionSetup(G, p, k, [Automorphism(G, imgs) for imgs in images])


# ------------------------------------------------------------------ zones


def _aut_zone(block_name: str, k: int, assignments: dict[int, str]) -> tuple:
    """One copy of a block, as a direct-sum part; basis vector j acts by the named automorphism."""
    block = get_block(block_name)
    for j, aut_name in assignments.items():
        if not 0 <= j < k:
            raise GenerationError(f"zone basis vector {j} lies outside 0..{k - 1}")
        if aut_name not in block.auts:
            raise GenerationError(f"block {block_name!r} has no automorphism {aut_name!r}")
    images = [block.auts[assignments[j]] if j in assignments else block.gens for j in range(k)]
    return block.degree, block.order, block.gens, images


def _cycle_zone(block_name: str, p: int, k: int, cycle_basis: int) -> tuple:
    """p copies of a block, as a direct-sum part; the chosen basis vector cycles the copies."""
    if not 0 <= cycle_basis < k:
        raise GenerationError(f"zone basis vector {cycle_basis} lies outside 0..{k - 1}")
    block = get_block(block_name)
    degree = p * block.degree
    copies = [[_embed(g, c * block.degree, degree) for g in block.gens] for c in range(p)]
    gens = [g for copy in copies for g in copy]
    shifted = [g for copy in copies[1:] + copies[:1] for g in copy]
    return degree, block.order**p, gens, [shifted if j == cycle_basis else gens for j in range(k)]


# ------------------------------------------------------------- public ops


def gen_direct_sum(setups: list[ActionSetup], k: int | None = None, cap=None) -> ActionSetup:
    """Direct product of the groups with the diagonal A-action.

    Summands with smaller rank are padded with trivial action up to the
    common k; a mismatch in p is an error.
    """
    if not setups:
        raise ValidationError("direct sum needs at least one summand")
    p = setups[0].p
    if any(s.p != p for s in setups):
        raise ValidationError("direct sum requires all summands to share p")
    k = max([s.k for s in setups] + ([k] if k else []))
    parts = [
        (s.G.degree, s.G.order, s.G.generators,
         [s.basis[j].images.values() if j < s.k else s.G.generators for j in range(k)])
        for s in setups
    ]
    return _direct_sum(p, k, parts, cap=cap)


def gen_coordinate_permutation(
    h_spec: str, p: int, k: int, cycles: int = 0, aut: str | None = None, cap=None
) -> ActionSetup:
    """G = a direct power of the named block; A acts by coordinate p-cycles
    on ``cycles`` zones and by the named order-p automorphism on the rest."""
    if not 0 <= cycles <= k:
        raise GenerationError(f"cycles must lie in 0..k, got {cycles}")
    block = get_block(h_spec)
    if cycles < k:
        if aut is None:
            raise GenerationError("an automorphism name is needed for the non-cycle zones")
        if aut not in block.auts:
            raise GenerationError(f"block {h_spec!r} has no automorphism {aut!r}")
    parts = [_cycle_zone(h_spec, p, k, j) for j in range(cycles)]
    parts += [_aut_zone(h_spec, k, {j: aut}) for j in range(cycles, k)]
    return _direct_sum(p, k, parts, cap=cap)


# ------------------------------------------------------- GL-module family


def _mat_mult(A, B, q):
    n = len(A)
    return [[sum(A[i][t] * B[t][j] for t in range(n)) % q for j in range(n)] for i in range(n)]


def _mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_inverse(A, q):
    """Inverse of A over Z/q by Gauss-Jordan elimination, or None when A is singular."""
    n = len(A)
    M = [row[:] + ident_row[:] for row, ident_row in zip(A, _mat_identity(n))]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if M[r][col] % q:
                pivot = r
                break
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        inv = pow(M[col][col], -1, q)
        M[col] = [(c * inv) % q for c in M[col]]
        for r in range(n):
            if r != col and M[r][col] % q:
                f = M[r][col]
                M[r] = [(a - f * b) % q for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


def _order_p_scalar(p: int, q: int) -> int:
    for x in range(2, q):
        if pow(x, p, q) == 1:
            return x
    raise GenerationError(f"no element of order {p} in the multiplicative group mod {q}")


def gen_gl_module(q: int, n: int, p: int, k: int, seed: int = 0, cap=None) -> ActionSetup:
    """G elementary abelian of order q^n; A a rank-k p-subgroup of GL(n, q).

    G is carried on n disjoint q-cycles (a faithful compact representation of
    the translation group); the matrices act as abstract automorphisms via
    generator images.  The subgroup is randomized by a seeded conjugation.
    """
    import random

    if not (_is_prime(q) and _is_prime(p)):
        raise GenerationError("q and p must be prime")
    if q == p:
        raise GenerationError("q must differ from p (coprime action)")
    cap = enumeration_cap(cap)
    if q**n > cap:
        raise CapacityError(f"group order {q**n} exceeds the cap {cap}")
    # multiplicative order of q modulo p determines the smallest matrix block
    e = 1
    acc = q % p
    while acc != 1:
        acc = (acc * q) % p
        e += 1
    if e == 1:
        lam = _order_p_scalar(p, q)
        seed_block = [[lam]]
    elif e == 2 and p == 3:
        seed_block = [[0, q - 1], [1, q - 1]]  # companion of x^2 + x + 1
    else:
        raise GenerationError(
            f"rank-k elementary abelian p-subgroups need matrix blocks of size {e}; "
            f"only sizes 1 and 2 (p = 3) are realised, and ord_p(q) = {e}"
        )
    if k * e > n:
        raise GenerationError(
            f"rank {k} needs {k} disjoint blocks of size {e} but n = {n}: "
            f"no rank-{k} elementary abelian {p}-subgroup of GL({n},{q}) of this shape"
        )
    mats = []
    for slot in range(k):
        M = _mat_identity(n)
        base = slot * e
        for i in range(e):
            for j in range(e):
                M[base + i][base + j] = seed_block[i][j] % q
        mats.append(M)
    rng = random.Random(seed)
    while True:
        T = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        T_inv = _mat_inverse(T, q)
        if T_inv is not None:
            break
    mats = [_mat_mult(_mat_mult(T_inv, M, q), T, q) for M in mats]

    degree = n * q
    cycle_gens = [Perm.from_cycles(degree, tuple(range(i * q, (i + 1) * q))) for i in range(n)]
    G = Group(degree, cycle_gens, cap=cap)

    def translation(vector) -> Perm:
        out = Perm.identity(degree)
        for g, c in zip(cycle_gens, vector):
            if c % q:
                out = out * (g ** (c % q))
        return out

    basis = []
    for M in mats:
        images = {}
        for i, g in enumerate(cycle_gens):
            column = [M[row][i] % q for row in range(n)]
            images[g] = translation(column)
        basis.append(Automorphism(G, images))
    return ActionSetup(G, p, k, basis)


# ----------------------------------------------------- extraspecial family


def extraspecial_group(q: int, m: int, cap=None) -> Group:
    """Extraspecial group of order q^(2m+1) and exponent q (q odd prime).

    Carried on q^(m+1) points: pairs (x in F_q^m, c in F_q) acted on by
    X_i: x_i += 1 and Y_i: c += x_i, with the commutator [X_i, Y_i] central.
    """
    if not _is_prime(q) or q == 2:
        raise GenerationError("extraspecial family needs an odd prime q")
    cap = enumeration_cap(cap)
    if q ** (2 * m + 1) > cap:
        raise CapacityError(f"extraspecial order {q ** (2 * m + 1)} exceeds the cap {cap}")
    degree = q ** (m + 1)

    def index(x, c):
        out = 0
        for coord in x:
            out = out * q + coord
        return out * q + c

    points = list(itertools.product(*([range(q)] * m)))

    def make_perm(move):
        images = [0] * degree
        for x in points:
            for c in range(q):
                nx, nc = move(x, c)
                images[index(x, c)] = index(nx, nc)
        return Perm(images)

    gens = []
    for i in range(m):
        gens.append(
            make_perm(lambda x, c, i=i: (tuple((x[t] + (1 if t == i else 0)) % q for t in range(m)), c))
        )
    for i in range(m):
        gens.append(make_perm(lambda x, c, i=i: (x, (c + x[i]) % q)))
    G = Group(degree, gens, cap=cap)
    if G.order != q ** (2 * m + 1):
        raise GenerationError(f"extraspecial construction has order {G.order}")
    return G


def gen_extraspecial(q: int, m: int, p: int, k: int, seed: int = 0, cap=None) -> ActionSetup:
    """A acts on the extraspecial q^(2m+1) group by per-pair automorphisms.

    Basis vector j acts on its own symplectic pair: for p = 2 by negating it,
    otherwise (p | q-1) by scaling it with a unit of order p; k > m is
    unrealizable this way.
    """
    import random

    if k > m:
        raise GenerationError(
            f"only {m} symplectic pairs are available for independent basis actions, need {k}"
        )
    G = extraspecial_group(q, m, cap=cap)
    gens = list(G.generators)
    xs, ys = gens[:m], gens[m:]
    if p == 2:
        lam, mu = q - 1, q - 1
    elif (q - 1) % p == 0:
        lam = _order_p_scalar(p, q)
        mu = pow(lam, -1, q)
    else:
        raise GenerationError(
            f"p = {p} divides neither 2 nor q-1 = {q - 1}: no per-pair automorphism of order p"
        )
    rng = random.Random(seed)
    pair_order = list(range(m))
    rng.shuffle(pair_order)
    basis = []
    for j in range(k):
        pair = pair_order[j]
        images = {g: g for g in G.generators}
        images[xs[pair]] = xs[pair] ** lam
        images[ys[pair]] = ys[pair] ** mu
        basis.append(Automorphism(G, images))
    return ActionSetup(G, p, k, basis)


# ----------------------------------------------------------- serialization


def setup_to_dict(setup: ActionSetup) -> dict:
    action = {}
    for j, vec in enumerate(setup.basis_vectors()):
        key = ",".join(str(c) for c in vec)
        images = setup.basis[j].images
        action[key] = {
            str(i): list(images[g].images) for i, g in enumerate(setup.G.generators)
        }
    return {
        "schema": SCHEMA_VERSION,
        "p": setup.p,
        "k": setup.k,
        "group": {
            "degree": setup.G.degree,
            "generators": [list(g.images) for g in setup.G.generators],
        },
        "action": action,
    }


def save_instance(setup: ActionSetup, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(setup_to_dict(setup), sort_keys=True, indent=2) + "\n")
    return path


def _subspace_count(p: int, k: int) -> int:
    """Number of subspaces of (Z/p)^k: the sum over d of the Gaussian binomials [k, d]_p."""
    total, binomial = 0, 1
    for d in range(k + 1):
        total += binomial
        binomial = binomial * (p ** (k - d) - 1) // (p ** (d + 1) - 1)
    return total


def setup_from_dict(data: dict, cap=None, where: str = "instance") -> ActionSetup:
    def fail(location, message):
        raise InstanceFormatError(f"{where}: {location}: {message}")

    if not isinstance(data, dict):
        fail("$", "expected a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        fail("schema", f"expected {SCHEMA_VERSION}, got {data.get('schema')!r}")
    try:
        p = int(data["p"])
        k = int(data["k"])
    except (KeyError, TypeError, ValueError):
        fail("p/k", "missing or non-integer")
    if not _is_prime(p):
        fail("p", f"must be a prime, got {p}")
    if k < 1:
        fail("k", f"must be at least 1, got {k}")
    group = data.get("group")
    if not isinstance(group, dict) or "degree" not in group or "generators" not in group:
        fail("group", "expected an object with degree and generators")
    try:
        gens = [Perm(images) for images in group["generators"]]
        G = Group(int(group["degree"]), gens, cap=cap)
    except ValidationError as exc:
        fail("group.generators", str(exc))
    if len(G.generators) != len(gens):
        fail("group.generators", "lists the identity or a permutation twice")
    action = data.get("action")
    if not isinstance(action, dict):
        fail("action", "expected an object keyed by exponent vectors")
    parsed: dict[tuple[int, ...], dict[int, Perm]] = {}
    for key, images in action.items():
        try:
            vec = tuple(int(c) for c in key.split(","))
        except ValueError:
            fail(f"action[{key!r}]", "key is not a comma-joined exponent vector")
        if len(vec) != k:
            fail(f"action[{key!r}]", f"exponent vector length != k = {k}")
        if not isinstance(images, dict):
            fail(f"action[{key!r}]", "expected an object keyed by generator index")
        img_map: dict[int, Perm] = {}
        for idx_str, arr in images.items():
            try:
                idx = int(idx_str)
            except ValueError:
                fail(f"action[{key!r}][{idx_str!r}]", "generator index is not an integer")
            if not 0 <= idx < len(G.generators):
                fail(f"action[{key!r}][{idx_str!r}]", "generator index out of range")
            try:
                img_map[idx] = Perm(arr)
            except ValidationError as exc:
                fail(f"action[{key!r}][{idx_str!r}]", str(exc))
        parsed[vec] = img_map
    basis_autos = []
    for j in range(k):
        vec = tuple(1 if i == j else 0 for i in range(k))
        if vec not in parsed:
            fail("action", f"missing basis vector {','.join(map(str, vec))}")
        img_map = parsed[vec]
        if len(img_map) != len(G.generators):
            fail(
                f"action[{','.join(map(str, vec))}]",
                "images must cover every generator exactly once",
            )
        images = {G.generators[i]: img for i, img in img_map.items()}
        try:
            auto = Automorphism(G, images)
            auto.table  # force verification
        except ValidationError as exc:
            fail(f"action[{','.join(map(str, vec))}]", str(exc))
        basis_autos.append(auto)
    setup = ActionSetup(G, p, k, basis_autos)
    report = validate_setup(setup)
    if not report.ok:
        fail("action", "; ".join(report.problems))
    # checked after the action, so that a p that does not fit it is reported as such
    if _subspace_count(p, k) > MAX_SUBSPACES:
        fail("k", f"(Z/{p})^{k} has {_subspace_count(p, k)} subspaces, more than {MAX_SUBSPACES}")
    # any extra exponent-vector stanzas must agree with the composed action
    for vec, img_map in parsed.items():
        if sum(vec) == 0 or vec in {tuple(1 if i == j else 0 for i in range(k)) for j in range(k)}:
            continue
        images = setup.phi(vec).images
        for idx, img in img_map.items():
            if images[G.generators[idx]] != img:
                fail(
                    f"action[{','.join(map(str, vec))}]",
                    "stanza disagrees with the composition of the basis automorphisms",
                )
    return setup


def load_instance(path, cap=None) -> ActionSetup:
    """Parse and fully validate an instance file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: invalid JSON: {exc}") from None
    return setup_from_dict(data, cap=cap, where=str(path))


# ----------------------------------------------------------------- specs


@dataclass
class FamilySpec:
    """A reproducible recipe for one instance."""

    family: str
    params: dict
    seed: int = 0

    def to_dict(self) -> dict:
        return {"family": self.family, "params": self.params, "seed": self.seed}

    @classmethod
    def from_dict(cls, data: dict) -> "FamilySpec":
        return cls(family=data["family"], params=dict(data["params"]), seed=int(data.get("seed", 0)))


def _build_zones(params: dict, cap=None) -> ActionSetup:
    p, k = int(params["p"]), int(params["k"])
    parts = []
    for zone in params["zones"]:
        if "cycle_basis" in zone:
            parts.append(_cycle_zone(zone["block"], p, k, int(zone["cycle_basis"])))
        else:
            assignments = {int(j): name for j, name in zone["assignments"].items()}
            parts.append(_aut_zone(zone["block"], k, assignments))
    return _direct_sum(p, k, parts, cap=cap)


def build_setup(spec: FamilySpec, cap=None) -> ActionSetup:
    """Materialise a FamilySpec into a validated ActionSetup."""
    params = spec.params
    if spec.family == "gl-module":
        setup = gen_gl_module(
            int(params["q"]), int(params["n"]), int(params["p"]), int(params["k"]),
            seed=spec.seed, cap=cap,
        )
    elif spec.family == "coordinate-permutation":
        setup = gen_coordinate_permutation(
            params["h"], int(params["p"]), int(params["k"]),
            cycles=int(params.get("cycles", 0)), aut=params.get("aut"), cap=cap,
        )
    elif spec.family == "extraspecial":
        setup = gen_extraspecial(
            int(params["q"]), int(params["m"]), int(params["p"]), int(params["k"]),
            seed=spec.seed, cap=cap,
        )
    elif spec.family == "zones":
        setup = _build_zones(params, cap=cap)
    elif spec.family == "direct-sum":
        summands = [build_setup(FamilySpec.from_dict(d), cap=cap) for d in params["summands"]]
        setup = gen_direct_sum(summands, k=params.get("k"), cap=cap)
    elif spec.family == "file":
        setup = load_instance(params["path"], cap=cap)
    else:
        raise GenerationError(f"unknown family {spec.family!r}")
    report = validate_setup(setup)
    if not report.ok:
        raise GenerationError(f"generated setup is invalid: {'; '.join(report.problems)}")
    return setup


# ----------------------------------------------------------------- presets


@dataclass(frozen=True)
class Preset:
    name: str
    d: int
    entries: tuple[tuple[str, FamilySpec], ...]


def _aut_zone_spec(block: str, assignments: dict[int, str]) -> dict:
    return {"block": block, "assignments": {str(j): a for j, a in assignments.items()}}


def _cycle_zone_spec(block: str, basis: int) -> dict:
    return {"block": block, "cycle_basis": basis}


def _zones_spec(p: int, k: int, zones: list[dict], seed: int = 0) -> FamilySpec:
    return FamilySpec(family="zones", params={"p": p, "k": k, "zones": zones}, seed=seed)


def _gl(q, n, p, k, seed=0):
    return FamilySpec(family="gl-module", params={"q": q, "n": n, "p": p, "k": k}, seed=seed)


def _p2k3_entries():
    z = _zones_spec
    az, cz = _aut_zone_spec, _cycle_zone_spec
    return (
        ("p2k3-01-gl-q3n3", _gl(3, 3, 2, 3)),
        ("p2k3-02-gl-q3n4", _gl(3, 4, 2, 3, seed=1)),
        ("p2k3-03-gl-q5n3", _gl(5, 3, 2, 3)),
        ("p2k3-04-gl-q7n3", _gl(7, 3, 2, 3)),
        ("p2k3-05-gl-q13n3", _gl(13, 3, 2, 3)),
        ("p2k3-06-c3swap-heis-c5", z(2, 3, [
            cz("c3", 0), az("heisenberg27", {1: "invert-both"}), az("c5", {2: "pow4"}),
        ])),
        ("p2k3-07-heis-diag-c5", z(2, 3, [
            az("heisenberg27", {0: "invert-first", 1: "invert-second"}), az("c5", {2: "pow4"}),
        ])),
        ("p2k3-08-wreath-c5", z(2, 3, [
            az("wreath81", {0: "invert-base", 1: "invert-top"}), az("c5", {2: "pow4"}),
        ])),
        ("p2k3-09-heisswap-c5", z(2, 3, [
            cz("heisenberg27", 0), az("c5", {1: "pow4"}),
        ])),
        ("p2k3-10-extrasp243-c5", FamilySpec(family="direct-sum", params={"k": 3, "summands": [
            FamilySpec(family="extraspecial", params={"q": 3, "m": 2, "p": 2, "k": 2}).to_dict(),
            _zones_spec(2, 3, [_aut_zone_spec("c5", {2: "pow4"})]).to_dict(),
        ]})),
        ("p2k3-11-frob21-c5-c5", z(2, 3, [
            az("frob21", {0: "invert-rotation"}), az("c5", {1: "pow4"}), az("c5", {2: "pow4"}),
        ])),
        ("p2k3-12-three-c3", z(2, 3, [
            az("c3", {0: "pow2"}), az("c3", {1: "pow2"}), az("c3", {2: "pow2"}),
        ])),
        ("p2k3-13-gl-q5n4", _gl(5, 4, 2, 3, seed=3)),
        ("p2k3-14-c3-c5-c7", z(2, 3, [
            az("c3", {0: "pow2"}), az("c5", {1: "pow4"}), az("c7", {2: "pow6"}),
        ])),
        ("p2k3-15-heis-c7-c11", z(2, 3, [
            az("heisenberg27", {0: "invert-both"}), az("c7", {1: "pow6"}), az("c11", {2: "pow10"}),
        ])),
    )


def _p2k4_entries():
    z = _zones_spec
    az, cz = _aut_zone_spec, _cycle_zone_spec
    return (
        ("p2k4-01-gl-q3n4", _gl(3, 4, 2, 4)),
        ("p2k4-02-gl-q7n4", _gl(7, 4, 2, 4)),
        ("p2k4-03-heis-diag-c5-c7", z(2, 4, [
            az("heisenberg27", {0: "invert-first", 1: "invert-second"}),
            az("c5", {2: "pow4"}), az("c7", {3: "pow6"}),
        ])),
        ("p2k4-04-wreath-c5-c7", z(2, 4, [
            az("wreath81", {0: "invert-base", 1: "invert-top"}),
            az("c5", {2: "pow4"}), az("c7", {3: "pow6"}),
        ])),
        ("p2k4-05-c3swap-heis-c5-c7", z(2, 4, [
            cz("c3", 0), az("heisenberg27", {1: "invert-both"}),
            az("c5", {2: "pow4"}), az("c7", {3: "pow6"}),
        ])),
        ("p2k4-06-extrasp243-c5", FamilySpec(family="direct-sum", params={"k": 4, "summands": [
            FamilySpec(family="extraspecial", params={"q": 3, "m": 2, "p": 2, "k": 2}).to_dict(),
            _zones_spec(2, 4, [_aut_zone_spec("c5", {2: "pow4"})]).to_dict(),
        ]})),
        ("p2k4-07-frob21-c5-c11", z(2, 4, [
            az("frob21", {0: "invert-rotation"}), az("c5", {1: "pow4"}), az("c11", {2: "pow10"}),
        ])),
        ("p2k4-08-heis-c5-c5-c7", z(2, 4, [
            az("heisenberg27", {0: "invert-both"}), az("c5", {1: "pow4"}),
            az("c5", {2: "pow4"}), az("c7", {3: "pow6"}),
        ])),
        ("p2k4-09-gl-q5n4", _gl(5, 4, 2, 4, seed=1)),
        ("p2k4-10-two-swaps-c5-c7", z(2, 4, [
            cz("c3", 0), cz("c3", 1), az("c5", {2: "pow4"}), az("c7", {3: "pow6"}),
        ])),
    )


def _p3k3_entries():
    z = _zones_spec
    az = _aut_zone_spec
    return (
        ("p3k3-01-gl-q7n3", _gl(7, 3, 3, 3)),
        ("p3k3-02-gl-q13n3", _gl(13, 3, 3, 3)),
        ("p3k3-03-gl-q7n3-alt", _gl(7, 3, 3, 3, seed=2)),
        ("p3k3-04-extrasp343-c13", FamilySpec(family="direct-sum", params={"k": 3, "summands": [
            FamilySpec(family="extraspecial", params={"q": 7, "m": 1, "p": 3, "k": 1}).to_dict(),
            _zones_spec(3, 3, [_aut_zone_spec("c13", {1: "pow3"})]).to_dict(),
        ]})),
        ("p3k3-05-extrasp2197", FamilySpec(family="direct-sum", params={"k": 3, "summands": [
            FamilySpec(family="extraspecial", params={"q": 13, "m": 1, "p": 3, "k": 1}).to_dict(),
        ]})),
        ("p3k3-06-d7-c7-c13", z(3, 3, [
            az("d7", {0: "square-rotation"}), az("c7", {1: "pow2"}), az("c13", {2: "pow3"}),
        ])),
        ("p3k3-07-c7-c7-c13", z(3, 3, [
            az("c7", {0: "pow2"}), az("c7", {1: "pow2"}), az("c13", {2: "pow3"}),
        ])),
        ("p3k3-08-c7-mixed", z(3, 3, [
            az("c7", {0: "pow2", 1: "pow2"}), az("c13", {2: "pow3"}), az("c7", {1: "pow2"}),
        ])),
        ("p3k3-09-extrasp343-c7", FamilySpec(family="direct-sum", params={"k": 3, "summands": [
            FamilySpec(family="extraspecial", params={"q": 7, "m": 1, "p": 3, "k": 1}).to_dict(),
            _zones_spec(3, 3, [_aut_zone_spec("c7", {1: "pow2"})]).to_dict(),
        ]})),
        ("p3k3-10-gl-q7n4", _gl(7, 4, 3, 3)),
    )


PRESETS: dict[str, Preset] = {
    "p2k3": Preset(name="p2k3", d=0, entries=_p2k3_entries()),
    "p2k4": Preset(name="p2k4", d=1, entries=_p2k4_entries()),
    "p3k3": Preset(name="p3k3", d=0, entries=_p3k3_entries()),
    "smoke": Preset(
        name="smoke",
        d=0,
        entries=(
            ("smoke-01-gl-q3n3", _gl(3, 3, 2, 3)),
            ("smoke-02-heis-diag-c5", _zones_spec(2, 3, [
                _aut_zone_spec("heisenberg27", {0: "invert-first", 1: "invert-second"}),
                _aut_zone_spec("c5", {2: "pow4"}),
            ])),
            ("smoke-03-c3-c5-c7", _zones_spec(2, 3, [
                _aut_zone_spec("c3", {0: "pow2"}),
                _aut_zone_spec("c5", {1: "pow4"}),
                _aut_zone_spec("c7", {2: "pow6"}),
            ])),
        ),
    ),
}


def preset_entries(name: str) -> list[tuple[str, FamilySpec]]:
    if name not in PRESETS:
        raise GenerationError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return list(PRESETS[name].entries)
