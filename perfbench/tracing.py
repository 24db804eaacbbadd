"""Per-layer tracing of liefusion, installed from outside the package.

``Tracer.install()`` replaces each function in ``TRACED``, wherever a
liefusion module binds it, with a wrapper that times the call. The wrapper is
found by identity, so ``verify``'s own ``from .highmod import realize_module``
and ``highmod``'s ``from .linalg import rref`` are patched along with the
defining module; methods are patched on their class.

Every call adds to its function's counts: calls, total time (outermost calls
only, so recursion is not counted twice) and self time (its own time minus
the time of traced calls made inside it). Functions in ``COUNT_ONLY`` are
called more than about 10^5 times in a run and keep only those counts; every
other call also records a span ``(id, parent id, name, start_ns, end_ns,
self_ns)`` in memory. A span's parent is the nearest enclosing call that
recorded a span. Times are integer nanoseconds, so a self time is never
negative.

lru-cached functions report ``misses`` and ``hits`` as the change of their
``cache_info()`` since ``install()``; ``CACHE_ONLY`` functions get no wrapper
at all.
"""
from __future__ import annotations

import importlib
import json
import sys
import time

CHECKS = (
    "check_e8_construction",
    "check_exceptional_pair",
    "check_branch_and_index",
    "check_spin_dimensions",
    "check_conformal_weights",
    "check_tensor_triple_agreement",
    "check_g2_graph",
    "check_fusion_theorems",
    "check_pairing_witnesses",
    "check_compression_preconditions",
    "check_lattice_cocycle",
    "check_heisenberg",
)

# (module, attribute); an attribute "Class.method" is patched on the class.
TRACED = (
    *(("verify", c) for c in CHECKS),
    ("highmod", "realize_module"),
    ("highmod", "dominant_character"),
    ("linalg", "rref"),
    ("linalg", "solve"),
    ("linalg", "rank"),
    ("linalg", "inverse"),
    ("linalg", "matmul"),
    ("tensor", "tensor_decomposition"),
    ("tensor", "_rank_route_core"),
    ("tensor", "_criterion_core"),
    ("heisenberg", "_mode_family"),
    ("heisenberg", "FockSpace.__init__"),
    ("heisenberg", "FockSpace.gram_block"),
    ("heisenberg", "_block_adjoint"),
    ("heisenberg", "ModeMatrix.float_matrix"),
    ("heisenberg", "_power_norm"),
    ("heisenberg", "heisenberg_mode"),
    ("affine", "closed_form_fusion"),
    ("affine", "kac_walton_fusion"),
    ("affine", "large_level_check"),
    ("affine", "fusion_decomposition"),
    ("affine", "generating_check"),
    ("rootsys", "to_dominant"),
    ("chevalley", "StructureAlgebra.bracket"),
    ("chevalley", "build_simply_laced"),
    ("chevalley", "dynkin_embedding_g2_f4"),
    ("chevalley", "branch"),
    ("lattice", "Cocycle.value"),
    ("lattice", "DualCocycle.exponent"),
    ("lattice", "lattice_fusion"),
)

CACHE_ONLY = (
    ("rootsys", "_reduce_to_dominant"),
    ("rootsys", "build_root_system"),
)

COUNT_ONLY = frozenset({
    "chevalley.StructureAlgebra.bracket",
    "lattice.Cocycle.value",
})


def _realized(extra, args, result):
    if id(result) not in extra["_realized"]:
        extra["_realized"].add(id(result))
        extra["highmod.realize_module.dim_sum"] += result.dim
        extra["highmod.realize_module.max_dim"] = max(
            extra["highmod.realize_module.max_dim"], result.dim)


def _inverted(extra, args, result):
    extra["linalg.inverse.max_n"] = max(extra["linalg.inverse.max_n"], len(args[0]))


def _criterion(extra, args, result):
    extra["_criterion_applicable"] += result is not None


def _fock_built(extra, args, result):
    extra["heisenberg.fock_states"] += sum(len(s) for s in args[0].levels.values())


# Called with (extra, args, result) after each call of the named function.
HOOKS = {
    "highmod.realize_module": _realized,
    "linalg.inverse": _inverted,
    "tensor._criterion_core": _criterion,
    "heisenberg.FockSpace.__init__": _fock_built,
}


def _liefusion_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "liefusion" or name.startswith("liefusion.")]


class _Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "active")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = self.active = 0


class Tracer:
    """Holds the counts and spans of one traced run."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple] = []
        self.extra = {
            "_realized": set(),
            "_criterion_applicable": 0,
            "highmod.realize_module.dim_sum": 0,
            "highmod.realize_module.max_dim": 0,
            "linalg.inverse.max_n": 0,
            "heisenberg.fock_states": 0,
        }
        self._stack: list[list] = []  # [child_ns, anchor span id]
        self._next_id = 0
        self._caches: dict[str, tuple] = {}  # name -> (cached fn, info at install)

    def install(self) -> "Tracer":
        for modname, attr in TRACED:
            module = importlib.import_module(f"liefusion.{modname}")
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, original))
            else:
                original = getattr(module, attr)
                wrapper = self.wrap(name, original)
                for m in _liefusion_modules():
                    for key, val in list(vars(m).items()):
                        if val is original:
                            setattr(m, key, wrapper)
            if hasattr(original, "cache_info"):
                self._caches[name] = (original, original.cache_info())
        for modname, attr in CACHE_ONLY:
            fn = getattr(importlib.import_module(f"liefusion.{modname}"), attr)
            self._caches[f"{modname}.{attr}"] = (fn, fn.cache_info())
        return self

    def wrap(self, name: str, fn):
        """A function that calls ``fn`` and records the call under ``name``."""
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        spans = self.spans
        hook = HOOKS.get(name)
        extra = self.extra
        record = name not in COUNT_ONLY
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if record:
                self._next_id += 1
                span_id = self._next_id
                frame = [0, span_id]
            else:
                frame = [0, parent]
            stack.append(frame)
            stat.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.active -= 1
                dur = end - start
                own = dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                stat.calls += 1
                stat.self_ns += own
                if not stat.active:
                    stat.total_ns += dur
                if record:
                    spans.append((span_id, parent, name, start, end, own))
            if hook is not None:
                hook(extra, args, result)
            return result

        return traced

    def metrics(self) -> dict:
        """Every per-layer number this run produced, by metric name."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_ns / 1e9
            out[f"{name}.total_s"] = st.total_ns / 1e9
        for name, (fn, before) in self._caches.items():
            now = fn.cache_info()
            out[f"{name}.misses"] = now.misses - before.misses
            out[f"{name}.hits"] = now.hits - before.hits
        for key, val in self.extra.items():
            if not key.startswith("_"):
                out[key] = val
        calls = out["tensor._criterion_core.calls"]
        out["tensor._criterion_core.applicable_ratio"] = (
            self.extra["_criterion_applicable"] / calls if calls else 0.0)
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "parent", "name", "start_ns", "end_ns", "self_ns"],
                "count_only": sorted(COUNT_ONLY),
                "spans": self.spans,
            }, fh)
