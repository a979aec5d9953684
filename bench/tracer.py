"""Per-layer tracing of the semihomology package, installed from outside.

The package itself has no trace hooks.  `Tracer.install` wraps the public
functions of every layer module (and the few methods the metrics need) and
puts each wrapper into every layer namespace that bound the original, so a
`from .exactlin import rank` copy is caught as well as calls that go through
a module's own globals.  Spans live in memory as a stack: a span's self time
is its duration minus the time of the spans it caused, and the self times of
a layer's spans add up to that layer's self time.

Install on a freshly imported set of modules; the wrappers stay until the
modules are dropped, which `run.py` does before every pass.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict

LAYERS = ("exactlin", "simplexcat", "diagmod", "chainkit", "transport", "oracle", "cli")

# Metric groups: which wrapped callables each per-layer metric covers.
GROUPS = {
    "exactlin.elim": ("exactlin.rref", "exactlin.rank", "exactlin.kernel_basis",
                      "exactlin.image_basis", "exactlin.solve", "exactlin.quotient_with_section"),
    "exactlin.matmul": ("exactlin.RatMatrix.__matmul__",),
    "simplexcat.hom_basis": ("simplexcat.hom_basis",),
    "simplexcat.compose": ("simplexcat.compose", "simplexcat.LinComb.compose",
                           "simplexcat.compose_word"),
    "simplexcat.apply_functor": ("simplexcat.apply_functor",),
    "diagmod.validate": ("diagmod.validate",),
    "diagmod.act": ("diagmod.act",),
    "diagmod.serde": ("diagmod.module_to_obj", "diagmod.module_from_obj",
                      "diagmod.module_to_json", "diagmod.module_from_json",
                      "diagmod.map_to_obj", "diagmod.map_from_obj",
                      "diagmod.map_to_json", "diagmod.map_from_json",
                      "diagmod.canonical_json"),
    "chainkit.homology": ("chainkit.homology",),
    "chainkit.homology_map": ("chainkit.homology_map",),
    "transport.induce": ("transport.induce", "transport.unit_map", "transport.counit_map"),
    "transport.resolution": ("transport.resolution_complex", "transport.tensor_resolution_complex"),
    "transport.restrict": ("transport.restrict", "transport.restrict_map",
                           "transport.restrict_v", "transport.restrict_v_map"),
    "oracle.corpus": ("oracle.generate_corpus",),
    "oracle.verdict": ("oracle.check_weak_equivalence", "oracle.check_fibration"),
}
GROUP_OF = {key: group for group, keys in GROUPS.items() for key in keys}

# (class, method) pairs wrapped besides the module-level functions.
METHODS = (("exactlin", "RatMatrix", "__matmul__"), ("simplexcat", "LinComb", "compose"))


def matrix_key(m) -> int:
    """Content hash of a matrix, read through its public row accessor."""
    return hash((m.rows, m.cols, tuple(tuple(m.row(i)) for i in range(m.rows))))


def complex_key(c) -> int:
    return hash((c.lower, c.truncation, tuple(sorted(c.dims.items())),
                 tuple((n, matrix_key(c.diff[n])) for n in sorted(c.diff))))


class PassCounters:
    """Work counters for one pass; distinct sets are per pass, so a pass
    reads as one fresh process would."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.elim_keys: set[int] = set()
        self.homology_keys: set[int] = set()

    def elim_input(self, shape: tuple[int, int], rows: list[tuple]) -> None:
        """Count one elimination of the matrix with this shape and these rows."""
        c = self.counts
        c["exactlin.elim.cells"] += shape[0] * shape[1]
        integer = True
        nnz = 0
        for row in rows:
            for e in row:
                if e:
                    nnz += 1
                    if integer and e.denominator != 1:
                        integer = False
        c["exactlin.elim.nnz"] += nnz
        c["exactlin.elim.integer"] += integer
        self.elim_keys.add(hash((shape, tuple(rows))))


class Tracer:
    def __init__(self):
        self.stack: list[list] = []          # [child seconds, layer]
        self.calls = defaultdict(int)        # wrapped key -> calls
        self.self_s = defaultdict(float)     # wrapped key -> self seconds
        self.layer_self = defaultdict(float)  # layer -> self seconds
        self.group_incl = defaultdict(float)  # group -> outermost-span seconds
        self.group_depth = defaultdict(int)
        self.probe_s = 0.0                   # time spent counting, in no layer
        self.counters = PassCounters()
        self.ops: list[dict] = []
        self._hom_basis_info = None
        self._hom_basis_before = None

    # -- installation --------------------------------------------------------

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        """Wrap every public function of the given layer modules in place."""
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    replaced[id(obj)] = self._wrap(obj, layer, f"{layer}.{name}")
        self._hom_basis_info = modules["simplexcat"].hom_basis.cache_info  # before it is wrapped
        self._hom_basis_before = self._hom_basis_info()
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                w = replaced.get(id(obj))
                if w is not None:
                    setattr(mod, name, w)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, meth, self._wrap(getattr(cls, meth), layer, f"{layer}.{cls_name}.{meth}"))
        self._count_constructions(getattr(modules["exactlin"], "RatMatrix"))

    def _count_constructions(self, cls) -> None:
        init = cls.__init__
        counts = self.counters.counts

        def __init__(obj, *args, **kwargs):
            counts["exactlin.matrix.constructed"] += 1
            init(obj, *args, **kwargs)

        cls.__init__ = __init__

    def _probe(self, key):
        """Extra work counters measured at the call boundary, or None."""
        group = GROUP_OF.get(key)
        if group == "exactlin.elim":
            def probe(args):
                if key == "exactlin.solve":
                    a, b = args[0], args[1]
                    self.counters.elim_input((a.rows, a.cols + b.cols),
                                             [a.row(i) + b.row(i) for i in range(a.rows)])
                elif key == "exactlin.quotient_with_section":
                    ambient, sub = args[0], args[1]
                    self.counters.elim_input((sub.cols, sub.rows),
                                             [sub.column(j) for j in range(sub.cols)])
                    if self.stack and self.stack[-1][1] == "transport":
                        self.counters.counts["transport.coend.labels"] += ambient
                        self.counters.counts["transport.coend.relations"] += sub.cols
                else:
                    m = args[0]
                    self.counters.elim_input((m.rows, m.cols), [m.row(i) for i in range(m.rows)])
            return probe
        if key == "chainkit.homology":
            return lambda args: self.counters.homology_keys.add(complex_key(args[0]))
        return None

    def _wrap(self, fn, layer: str, key: str):
        clock = time.perf_counter
        stack = self.stack
        calls, self_s, layer_self = self.calls, self.self_s, self.layer_self
        group = GROUP_OF.get(key, key)
        depth, incl = self.group_depth, self.group_incl
        probe = self._probe(key)
        bytes_in = key.endswith("_from_json")
        bytes_out = key == "diagmod.canonical_json"

        def traced(*args, **kwargs):
            if probe is not None:
                p0 = clock()
                probe(args)
                spent = clock() - p0
                self.probe_s += spent
                if stack:  # counting is not the caller's work
                    stack[-1][0] += spent
            if bytes_in:
                self.counters.counts["diagmod.serde.bytes"] += len(args[0])
            frame = [0.0, layer]
            stack.append(frame)
            depth[group] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[group] -= 1
                own = dt - frame[0]
                calls[key] += 1
                self_s[key] += own
                layer_self[layer] += own
                if not depth[group]:
                    incl[group] += dt
                if stack:
                    stack[-1][0] += dt
            if bytes_out:
                self.counters.counts["diagmod.serde.bytes"] += len(out)
            return out

        return traced

    # -- reading -------------------------------------------------------------

    def layer_snapshot(self) -> dict[str, float]:
        return {layer: self.layer_self[layer] for layer in LAYERS}

    def record_op(self, op_id: str, wall: float, before: dict[str, float]) -> None:
        """One op's span: its wall time and the self time of each layer in it."""
        after = self.layer_snapshot()
        self.ops.append({
            "op": op_id,
            "wall_s": wall,
            "self_s": {layer: after[layer] - before[layer] for layer in LAYERS},
        })

    def pass_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the pass traced so far."""
        c = self.counters.counts
        out: dict[str, float] = {}

        def group_calls(g):
            return sum(self.calls[k] for k in GROUPS[g])

        def group_self(g):
            return sum(self.self_s[k] for k in GROUPS[g])

        for g in GROUPS:
            out[f"{g}.calls"] = group_calls(g)
            out[f"{g}.self_s"] = group_self(g)
            out[f"{g}.incl_s"] = self.group_incl[g]
        elim_calls = group_calls("exactlin.elim")
        out["exactlin.elim.cells"] = c["exactlin.elim.cells"]
        out["exactlin.elim.nnz"] = c["exactlin.elim.nnz"]
        out["exactlin.elim.distinct"] = len(self.counters.elim_keys)
        out["exactlin.elim.distinct_ratio"] = _ratio(len(self.counters.elim_keys), elim_calls)
        out["exactlin.elim.integer_ratio"] = _ratio(c["exactlin.elim.integer"], elim_calls)
        out["exactlin.matrix.constructed"] = c["exactlin.matrix.constructed"]
        hom_calls = group_calls("chainkit.homology")
        out["chainkit.homology.distinct"] = len(self.counters.homology_keys)
        out["chainkit.homology.distinct_ratio"] = _ratio(len(self.counters.homology_keys), hom_calls)
        now, before = self._hom_basis_info(), self._hom_basis_before
        hits, misses = now.hits - before.hits, now.misses - before.misses
        out["simplexcat.hom_basis.hit_ratio"] = _ratio(hits, hits + misses)
        out["diagmod.serde.bytes"] = c["diagmod.serde.bytes"]
        out["transport.coend.labels"] = c["transport.coend.labels"]
        out["transport.coend.relations"] = c["transport.coend.relations"]
        out["cli.main.self_s"] = self.layer_self["cli"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer]
        out["unwrapped.self_s"] = wall - sum(self.layer_self.values()) - self.probe_s
        return out

    def span_table(self) -> list[dict]:
        return [
            {"span": k, "calls": self.calls[k], "self_s": self.self_s[k]}
            for k in sorted(self.calls, key=lambda k: -self.self_s[k])
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
