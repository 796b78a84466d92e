"""Span tracer installed from outside the program, and the per-layer figures.

The tracer wraps the public entry points of each layer of ``cartanconj``
(plus the Maxwell root caches and the J1 grid evaluators, which carry the
counters).  A wrapped call records one span: name, start, end, parent span,
request id and a work count.  Spans stay in flat in-memory arrays and are
written out once, when the run ends.

Modules bind names such as ``from .elliptic import jacobi_arrays`` at import
time, and ``verify.SUITES`` stores suite functions in a dict, so rebinding a
name in its home module alone would miss calls.  ``install`` therefore puts
the wrapper into every ``cartanconj`` module namespace, and into every
module-level dict, that holds the original object, and ``uninstall`` puts
the originals back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

PACKAGE = "cartanconj"

# layer -> group -> entry points.  "Class.method" names a method.  Layers and
# groups name the figures of summarize(); the elastica, config and errors
# modules are not traced (one exp_trajectory call, or no work at all).
LAYERS = {
    "elliptic": {
        "f64": ["jacobi_arrays", "jacobi", "am", "complete_K", "complete_E",
                "E2", "carlson_rf", "carlson_rd", "incomplete_F",
                "incomplete_E"],
        "mp": ["am_mp", "jacobi_mp", "incomplete_F_mp", "incomplete_E_mp"],
    },
    "maxwell": {
        "api": ["t_max1", "p1_z", "p1_V", "p1_V0", "u_v1", "critical_moduli",
                "f_z_C1", "f_V_C1", "f_z_C2", "f_V_C2", "f_V0"],
        "roots": ["_p1_z_cached", "_p1_v_c1_cached", "_p1_v_c2_cached",
                  "_p1_v0_cached"],
    },
    "conjugate": {
        "search": ["first_conjugate_time"],
        "j1": ["j1_path_c1", "j1_path_c2"],
        "api": ["two_sided_check", "j1_factors", "j1_C1", "j1_C2",
                "scan_start_time", "a01_C1", "a21_C1", "a01_C2", "a21_C2",
                "fz0", "a010", "a210", "certificate_x1", "certificate_x2"],
    },
    "flow": {
        "chart": ["classify", "to_elliptic", "from_elliptic",
                  "unwrapped_theta_c", "reflect3", "rotate_covector",
                  "dilate_covector", "pendulum_flow"],
        "exp": ["exp_map_dense", "exp_map", "exp_trajectory",
                "exp_jacobian_fd", "casimir_drift"],
        "variational": ["JacobianPath.__init__", "JacobianPath.__call__",
                        "JacobianPath.values", "exp_jacobian"],
    },
    "group": {
        "api": ["frame_field", "rotate", "dilate", "invariant_coords",
                "GroupPoint.from_array", "GroupPoint.identity"],
    },
    "cli": {
        "api": ["main", "parse_covector", "build_parser", "cmd_exp",
                "cmd_conj", "cmd_maxwell", "cmd_sweep", "cmd_elastica",
                "cmd_verify"],
    },
    "verify": {
        "suite": ["elliptic_suite", "flow_suite", "maxwell_suite",
                  "conjugate_suite"],
        "api": ["run_suites"],   # plus every check_* function, found at install
    },
}


# entry point -> index of the argument whose size is the span's work count
_WORK_ARG = {
    "elliptic.jacobi_arrays": 0,
    "conjugate.j1_path_c1": 1,
    "conjugate.j1_path_c2": 1,
    "flow.JacobianPath.values": 1,
    "flow.JacobianPath.__call__": 1,
}


def _work_counter(span, fn):
    """A function of (args, kwargs) giving the size of the counted argument."""
    i = _WORK_ARG.get(span)
    if i is None:
        return None
    import numpy as np     # here, so that importing this module leaves cli.import_s alone

    name = list(inspect.signature(fn).parameters)[i]
    return lambda a, kw: float(np.size(a[i] if len(a) > i else kw[name]))


class Tracer:
    """Records spans of wrapped calls into flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("i")
        self.work = array("d")
        self.err = array("b")
        self.request = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, cache=None):
        work = _work_counter(name, fn)
        nid = len(self.names)
        self.names.append(name)
        names, start, end, parent = self.name_id, self.start, self.end, self.parent
        req, work_arr, err, stack = self.req, self.work, self.err, self._stack
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            req.append(tracer.request)
            work_arr.append(work(args, kwargs) if work is not None else 0.0)
            err.append(0)
            end.append(0.0)
            misses = cache.cache_info().misses if cache is not None else 0
            stack.append(i)
            start.append(perf())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                err[i] = 1
                raise
            finally:
                end[i] = perf()
                stack.pop()
                if cache is not None:
                    # work = 1 marks a cold (computed, not cached) root
                    work_arr[i] = float(cache.cache_info().misses > misses)
        return wrapper

    def _replace_everywhere(self, modules, orig, wrapper):
        for mod in modules:
            ns = vars(mod)
            for key, val in list(ns.items()):
                if val is orig:
                    self._undo.append((ns, key, orig))
                    ns[key] = wrapper
                elif isinstance(val, dict) and not key.startswith("__"):
                    for k2, v2 in list(val.items()):
                        if v2 is orig:
                            self._undo.append((val, k2, orig))
                            val[k2] = wrapper

    def install(self):
        modules = _package_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for layer, groups in LAYERS.items():
            home = by_name.get(layer)
            entries = [e for g in groups.values() for e in g]
            if layer == "verify" and home is not None:
                entries += sorted(n for n in vars(home)
                                  if n.startswith("check_") and callable(vars(home)[n]))
            for entry in entries:
                span = f"{layer}.{entry}"
                cls_name, _, meth = entry.rpartition(".")
                if cls_name:
                    cls = vars(home).get(cls_name) if home else None
                    raw = vars(cls).get(meth) if cls is not None else None
                    if raw is None:
                        self.missing.append(span)
                        continue
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(span, raw.__func__))
                    else:
                        new = self._wrap(span, raw)
                    self._undo.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                orig = vars(home).get(entry) if home else None
                if orig is None:
                    self.missing.append(span)
                    continue
                cache = orig if hasattr(orig, "cache_info") else None
                self._replace_everywhere(modules, orig, self._wrap(span, orig, cache))

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._undo.clear()

    # -- output -----------------------------------------------------------

    def columns(self):
        """The spans as numpy columns (name ids index self.names)."""
        import numpy as np
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.req, dtype=np.int32).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
            "error": np.frombuffer(self.err, dtype=np.int8).copy(),
        }

    def save(self, path):
        import numpy as np
        np.savez(path, names=np.array(self.names), **self.columns())


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def _cache(val):
    """The functools cache that val is, or that a tracer wrapper val wraps; else None."""
    for f in (val, getattr(val, "__wrapped__", None)):
        if hasattr(f, "cache_info") and callable(getattr(f, "cache_clear", None)):
            return f
    return None


def clear_caches():
    """Empty every functools cache of the package (cold Maxwell roots)."""
    for mod in _package_modules():
        for val in vars(mod).values():
            cache = _cache(val)
            if cache is not None:
                cache.cache_clear()


def root_cache_stats():
    """(hits, misses) summed over the Maxwell root caches since they were last emptied."""
    mod = sys.modules.get(PACKAGE + ".maxwell")
    hits = misses = 0
    for name in LAYERS["maxwell"]["roots"]:
        cache = _cache(vars(mod).get(name)) if mod else None
        if cache is not None:
            ci = cache.cache_info()
            hits += ci.hits
            misses += ci.misses
    return hits, misses


def summarize(tracer: Tracer, cache_hits: int, cache_misses: int) -> dict:
    """Per-layer figures from the recorded spans (see perfbench/README.md)."""
    import numpy as np

    col = tracer.columns()
    n = len(col["start"])
    names = tracer.names
    layer_names = list(LAYERS)
    group_of = {}
    for layer, groups in LAYERS.items():
        for g, entries in groups.items():
            for e in entries:
                group_of[f"{layer}.{e}"] = g
    span_layer = np.array([layer_names.index(s.split(".", 1)[0]) for s in names], dtype=int)
    span_group = np.array([group_of.get(s, "api") for s in names], dtype=str)

    nid, parent = col["name_id"], col["parent"]
    dur = col["end"] - col["start"]
    has_parent = parent >= 0
    child = np.zeros(n)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    layer, group, name_of = span_layer[nid], span_group[nid], np.array(names, dtype=str)[nid]
    parent_layer = np.where(has_parent, layer[np.where(has_parent, parent, 0)], -1)
    parent_group = np.where(has_parent, group[np.where(has_parent, parent, 0)], "")
    entry = parent_layer != layer
    err = col["error"].astype(bool)

    def L(name):
        return layer == layer_names.index(name)

    def G(layer_name, g):
        return L(layer_name) & (group == g)

    def group_entry(layer_name, g):
        # outermost span of the group: its parent lies outside the group
        return G(layer_name, g) & ~((parent_layer == layer_names.index(layer_name))
                                    & (parent_group == g))

    m = {}
    f64, mp = G("elliptic", "f64"), G("elliptic", "mp")
    ja = name_of == "elliptic.jacobi_arrays"
    elements = float(col["work"][ja].sum())
    m["elliptic.f64_calls"] = int((f64 & entry).sum())
    m["elliptic.f64_elements"] = int(elements)
    m["elliptic.f64_self_s"] = float(self_t[f64].sum())
    m["elliptic.us_per_element"] = float(self_t[ja].sum() / elements * 1e6) if elements else 0.0
    m["elliptic.mp_calls"] = int((mp & entry).sum())
    m["elliptic.mp_self_s"] = float(self_t[mp].sum())

    mx = L("maxwell")
    roots = G("maxwell", "roots")
    cold = roots & (col["work"] > 0.5)
    m["maxwell.calls"] = int((mx & entry).sum())
    m["maxwell.self_s"] = float(self_t[mx].sum())
    m["maxwell.cold_roots"] = int(cache_misses)
    total = cache_hits + cache_misses
    m["maxwell.root_cache_hit_ratio"] = float(cache_hits / total) if total else 0.0
    m["maxwell.ms_per_cold_root"] = float(dur[cold].sum() / cold.sum() * 1e3) if cold.any() else 0.0
    m["maxwell.critical_moduli_s"] = float(dur[name_of == "maxwell.critical_moduli"].sum())

    cj = L("conjugate")
    requests = len(np.unique(col["request"][col["request"] >= 0]))
    searches = int((name_of == "conjugate.first_conjugate_time").sum())
    m["conjugate.searches"] = searches
    m["conjugate.searches_per_request"] = float(searches / requests) if requests else 0.0
    m["conjugate.self_s"] = float(self_t[cj].sum())
    m["conjugate.j1_points"] = int(col["work"][G("conjugate", "j1")].sum())
    # jacobi_mp calls whose nearest traced non-elliptic caller is conjugate
    owner = np.full(n, -1)
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        owner[i] = owner[p] if layer[p] == layer_names.index("elliptic") else layer[p]
    m["conjugate.mp_fallback_calls"] = int(
        ((name_of == "elliptic.jacobi_mp") & (owner == layer_names.index("conjugate"))).sum())

    var_e, exp_e, chart_e = (group_entry("flow", g) for g in ("variational", "exp", "chart"))
    m["flow.variational_calls"] = int((name_of == "flow.JacobianPath.__init__").sum())
    m["flow.variational_s"] = float(dur[var_e].sum())
    m["flow.jacobian_evals"] = int((name_of == "flow.JacobianPath.__call__").sum())
    m["flow.exp_calls"] = int(exp_e.sum())
    m["flow.exp_s"] = float(dur[exp_e].sum())
    m["flow.chart_s"] = float(dur[chart_e].sum())
    m["flow.self_s"] = float(self_t[L("flow")].sum())

    gr = L("group")
    m["group.calls"] = int((gr & entry).sum())
    m["group.self_s"] = float(self_t[gr].sum())

    m["cli.self_s"] = float(self_t[L("cli")].sum())
    for suite in ("elliptic", "flow", "maxwell", "conjugate"):
        m[f"verify.{suite}_s"] = float(dur[name_of == f"verify.{suite}_suite"].sum())
    m["verify.self_s"] = float(self_t[L("verify")].sum())

    for name in layer_names:
        m[f"{name}.errors"] = int((L(name) & entry & err).sum())
    m["trace.spans"] = n
    return m
