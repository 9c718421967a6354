"""Per-layer measurement from outside the program.

Three instruments, each used in its own round of a traced run so that one's
overhead does not skew another's numbers:

* ``Tracer`` wraps every public function of each traced ``coprime_lab``
  module, plus a few coarse methods, in a span (name, start, end, parent,
  instance).  Spans are kept in flat arrays and rolled up into per-function
  call counts and self time (duration minus the time covered by child spans).
* ``Counters`` counts work: ``Perm`` compositions, inversions and
  comparisons, elements enumerated, automorphism tables and chains built,
  cache hits, and special-family members per commutator subgroup.
* ``compose_ns`` times ``Perm`` composition on fixed generators.

Patching replaces the function object in every ``coprime_lab`` namespace that
holds it, so names imported with ``from .x import f`` are wrapped too.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

TRACED_MODULES = (
    "groups", "action", "fastset", "series", "special", "lie", "instances", "harness", "cli",
)

# (module, class, attribute): methods coarse enough to span without drowning
# the trace; element-level methods (Perm.*, Group.contains) are only counted
COARSE_METHODS = (
    ("groups", "Group", "__init__"),
    ("groups", "Group", "from_elements"),
    ("groups", "Group", "elements"),
    ("action", "Automorphism", "table"),
    ("action", "ActionSetup", "phi"),
)

# span names whose top-level occurrences are the lazy builds InstanceContext
# runs on behalf of whichever check touches them first
LAZY_BUILDS = (
    "lie.lie_ring_of", "lie.induced_a_action",
    "special.a_special_lattice", "special.gamma_a_special_lattice",
)

COUNTED = (
    "perms.mul_calls", "perms.inverse_calls", "perms.lt_calls",
    "groups.elements_enumerated", "groups.chain_builds", "action.tables_built",
)

COMPOSE_DEGREES = ("d27", "d62", "d169")


def _namespaces() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "coprime_lab" or n.startswith("coprime_lab.")]


def _module(name: str):
    return sys.modules[f"coprime_lab.{name}"]


class Patcher:
    """Replaces program attributes for one round and puts them back afterwards."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module: str, name: str, make_wrapper) -> None:
        """Wrap a module-level function wherever a coprime_lab namespace holds it."""
        orig = getattr(_module(module), name)
        wrapper = make_wrapper(orig)
        for ns in _namespaces():
            for attr, value in list(vars(ns).items()):
                if value is orig:
                    self._set(ns, attr, wrapper)

    def method(self, module: str, cls_name: str, name: str, make_wrapper) -> None:
        """Wrap a method, classmethod or property; skip it when the class lacks it."""
        cls = getattr(_module(module), cls_name, None)
        raw = None if cls is None else cls.__dict__.get(name)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            new = classmethod(make_wrapper(raw.__func__))
        elif isinstance(raw, property):
            new = property(make_wrapper(raw.fget))
        else:
            new = make_wrapper(raw)
        self._set(cls, name, new)

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr) if not isinstance(obj, type) else obj.__dict__[attr]))
        setattr(obj, attr, value)

    def restore(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()


def public_functions(module_name: str) -> list[str]:
    module = _module(module_name)
    return sorted(
        n for n, v in vars(module).items()
        if inspect.isfunction(v) and v.__module__ == module.__name__ and not n.startswith("_")
    )


class Tracer:
    """In-memory spans around every public function of the traced modules."""

    def __init__(self):
        self.names: list[str] = []
        self.instances: list[str] = []
        self.current_instance = -1
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.instance = array("l")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patcher = Patcher()

    def set_instance(self, instance_id: str) -> None:
        self.instances.append(instance_id)
        self.current_instance = len(self.instances) - 1

    def _wrapper(self, span_name: str):
        nid = len(self.names)
        self.names.append(span_name)
        self.calls.append(0)
        self.self_s.append(0.0)
        starts, ends, parents, names, insts = self.start, self.end, self.parent, self.name, self.instance
        stack, child, calls, self_s = self._stack, self._child, self.calls, self.self_s
        clock = time.perf_counter
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(starts)
                parents.append(stack[-1] if stack else -1)
                names.append(nid)
                insts.append(tracer.current_instance)
                ends.append(0.0)
                stack.append(idx)
                child.append(0.0)
                t0 = clock()
                starts.append(t0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    ends[idx] = t1
                    stack.pop()
                    duration = t1 - t0
                    self_s[nid] += duration - child.pop()
                    calls[nid] += 1
                    if child:
                        child[-1] += duration

            return traced

        return make

    def __enter__(self):
        for module in TRACED_MODULES:
            for fname in public_functions(module):
                self._patcher.function(module, fname, self._wrapper(f"{module}.{fname}"))
        for module, cls_name, attr in COARSE_METHODS:
            self._patcher.method(module, cls_name, attr, self._wrapper(f"{module}.{cls_name}.{attr}"))
        return self

    def __exit__(self, *exc):
        self._patcher.restore()

    def span_count(self) -> int:
        return len(self.start)

    def instance_span_count(self) -> int:
        """Spans opened while an instance was being checked, not set up."""
        return sum(1 for inst in self.instance if inst >= 0)

    def rollup(self) -> dict[str, float]:
        """Calls and self time per span name, per-layer self time, lazy-build time."""
        out: dict[str, float] = {}
        by_layer = {m: 0.0 for m in TRACED_MODULES}
        for nid, span_name in enumerate(self.names):
            out[f"{span_name}.calls"] = self.calls[nid]
            out[f"{span_name}.self_s"] = self.self_s[nid]
            by_layer[span_name.split(".", 1)[0]] += self.self_s[nid]
        for module, total in by_layer.items():
            out[f"layer.{module}.self_s"] = total
        lazy = {nid for nid, n in enumerate(self.names) if n in LAZY_BUILDS}
        lazy_s = 0.0
        for idx in range(len(self.start)):
            if self.name[idx] not in lazy:
                continue
            up = self.parent[idx]
            while up >= 0 and self.name[up] not in lazy:
                up = self.parent[up]
            if up < 0:
                lazy_s += self.end[idx] - self.start[idx]
        out["harness.lazy_build_s"] = lazy_s
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON lines: name, start, end, parent index, instance."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for idx in range(len(self.start)):
                inst = self.instance[idx]
                handle.write(json.dumps([
                    self.names[self.name[idx]], round(self.start[idx], 7), round(self.end[idx], 7),
                    self.parent[idx], self.instances[inst] if inst >= 0 else None,
                ]) + "\n")


class Counters:
    """Deterministic work counts for one round; each wrapper only increments."""

    def __init__(self):
        self.n = {k: 0 for k in COUNTED}
        self.cache = {"phi": [0, 0], "fixed": [0, 0]}  # calls, hits
        self.members = 0
        self.lattice_commutators = 0
        self._lattice_depth = 0
        self._seen: dict[int, object] = {}
        self._patcher = Patcher()

    def __enter__(self):
        n = self.n
        p = self._patcher

        def count(key):
            def make(fn):
                @functools.wraps(fn)
                def counted(*args, **kwargs):
                    n[key] += 1
                    return fn(*args, **kwargs)
                return counted
            return make

        p.method("perms", "Perm", "__mul__", count("perms.mul_calls"))
        p.method("perms", "Perm", "inverse", count("perms.inverse_calls"))
        p.method("perms", "Perm", "__lt__", count("perms.lt_calls"))
        p.method("groups", "_Chain", "__init__", count("groups.chain_builds"))
        p.method("action", "Automorphism", "_build_table", count("action.tables_built"))
        p.method("action", "Automorphism", "_from_table", count("action.tables_built"))

        def enumerate_count(fn):
            @functools.wraps(fn)
            def elements(group):
                fresh = getattr(group, "_elements", None) is None
                result = fn(group)
                if fresh:
                    n["groups.elements_enumerated"] += len(result)
                return result
            return elements

        p.method("groups", "Group", "elements", enumerate_count)

        def hit_count(kind):
            # a hit returns an object this round has already seen returned
            def make(fn):
                @functools.wraps(fn)
                def cached(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    stats = self.cache[kind]
                    stats[0] += 1
                    stats[1] += id(result) in self._seen
                    self._seen[id(result)] = result
                    return result
                return cached
            return make

        p.method("action", "ActionSetup", "phi", hit_count("phi"))
        p.function("action", "fixed_subgroup", hit_count("fixed"))

        def lattice(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self._lattice_depth += 1
                try:
                    families = fn(*args, **kwargs)
                finally:
                    self._lattice_depth -= 1
                self.members += sum(f.member_count() for f in families)
                return families
            return counted

        def commutator(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self._lattice_depth:
                    self.lattice_commutators += 1
                return fn(*args, **kwargs)
            return counted

        p.function("special", "a_special_lattice", lattice)
        p.function("special", "gamma_a_special_lattice", lattice)
        p.function("groups", "commutator_subgroup", commutator)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        self._seen.clear()

    def metrics(self) -> dict[str, float]:
        out = dict(self.n)
        for kind, (calls, hits) in self.cache.items():
            out[f"action.{kind}_cache_hit_frac"] = hits / calls if calls else 0.0
        out["special.members_per_commutator"] = (
            self.members / self.lattice_commutators if self.lattice_commutators else 0.0
        )
        return out


def span_cost_s(calls: int = 20_000, repeats: int = 7) -> float:
    """Seconds a ``Tracer`` span adds to a call, timed on an empty function."""

    def empty():
        pass

    def loop(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    plain, traced = [], []
    for _ in range(repeats):
        plain.append(loop(empty))
        traced.append(loop(Tracer()._wrapper("probe")(empty)))
    return max(min(traced) - min(plain), 0.0) / calls


def compose_ns(inputs_path: Path, repeats: int = 5, target_s: float = 0.15) -> dict[str, float]:
    """Median nanoseconds per ``Perm`` composition on fixed real generators.

    Every ordered pair of the stored generators is composed; a warm-up loop
    runs first so that caches and the interpreter's specializations are warm.
    """
    perms = sys.modules["coprime_lab.perms"]
    data = json.loads(inputs_path.read_text())
    out = {}
    for degree in COMPOSE_DEGREES:
        gens = [perms.Perm(images) for images in data[degree]]
        pairs = [(x, y) for x in gens for y in gens]
        t0 = time.perf_counter()
        for x, y in pairs:
            x * y
        once = max(time.perf_counter() - t0, 1e-6)
        loops = max(1, int(target_s / once))
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(loops):
                for x, y in pairs:
                    x * y
            samples.append((time.perf_counter() - t0) / (loops * len(pairs)) * 1e9)
        out[f"perms.compose_ns.{degree}"] = statistics.median(samples)
    return out
