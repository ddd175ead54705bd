"""Per-layer tracing installed from outside the library.

``install`` wraps public functions of the hiddensym modules and
``sympy.lambdify`` (plus every callable it returns).  A wrapper replaces the
original in each module namespace that holds it, because modules import
names directly (``from .manifold import covariant_derivative``).

Spans (name, start, end, parent) stay in memory and are written out when the
pass ends.  Calls to lambdified callables (``eval``) and the tracer's own
bookkeeping (``trace``) are too frequent to store one by one: they are
aggregated per name and charged to the enclosing span, so self times stay
exact.  A span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import hashlib
import linecache
from time import perf_counter

# span names whose spans are not stored individually
_AGGREGATED = ("eval", "trace")
# every span name install() and the workers use, so absent layers read 0
SPAN_NAMES = ("run", "cli.main", "catalog.build", "exprkit.simplify", "exprkit.parse",
              "manifold.christoffel", "manifold.riemann", "manifold.inverse_metric",
              "manifold.covariant_derivative", "compile", "killing", "sasaki",
              "sasaki.build_cone", "spin.context", "spin.build_operator",
              "spin.compose", "spin.apply", "spin.report", "geodesic.integrate",
              "geodesic.monitor", "algebra.jacobi") + _AGGREGATED
COUNTERS = ("manifold.expr_ops", "compile.source_bytes", "killing.checks",
            "killing.points", "sasaki.checks", "sasaki.points", "geodesic.exits",
            "algebra.jacobi_cases", "cli.commands", "cli.emit_bytes")


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:16]


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, child seconds, eval calls in subtree]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.aggregated = {name: [0, 0.0] for name in _AGGREGATED}
        self.counts: dict[str, float] = {}
        self.keys: dict[str, list[str]] = {"compile": [], "manifold.covariant_derivative": []}
        self._op_counted: list = []   # outputs already op-counted, kept alive

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0, 0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        rec = self.spans[idx]
        rec[2] = perf_counter()
        self.stack.pop()
        if rec[3] >= 0:
            parent = self.spans[rec[3]]
            parent[4] += rec[2] - rec[1]
            parent[5] += rec[5]

    def charge(self, name: str, seconds: float) -> None:
        agg = self.aggregated[name]
        agg[0] += 1
        agg[1] += seconds
        if self.stack:
            rec = self.spans[self.stack[-1]]
            rec[4] += seconds
            if name == "eval":
                rec[5] += 1

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name: str, after=None):
        """Time fn as span `name`; after(result, args) may replace the result."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                t0 = perf_counter()
                result = after(result, args)
                self.charge("trace", perf_counter() - t0)
            return result
        return traced

    def timed_callable(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            self.charge("eval", perf_counter() - t0)
            return result
        return timed

    # -- counters --------------------------------------------------------------

    def count_ops(self, exprs) -> None:
        import sympy as sp
        if any(out is exprs for out in self._op_counted):
            return      # cached result handed out again
        self._op_counted.append(exprs)
        items = list(exprs) if isinstance(exprs, sp.MatrixBase) else exprs.flat
        self.count("manifold.expr_ops", sum(sp.count_ops(e) for e in items))

    def summary(self) -> dict:
        """Per span name: calls, outermost total seconds, self seconds and
        eval calls; plus counters, dedup keys and the raw spans."""
        names: dict[str, dict] = {}
        for rec in self.spans:
            name, start, end, parent, child_s, evals = rec
            s = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "evals": 0})
            s["calls"] += 1
            s["self_s"] += (end - start) - child_s
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:       # outermost span of this name
                s["s"] += end - start
                s["evals"] += evals
        for name, (calls, seconds) in self.aggregated.items():
            names[name] = {"calls": calls, "s": seconds, "self_s": seconds, "evals": 0}
        return {"spans": names, "counts": dict(self.counts), "keys": self.keys,
                "raw": [rec[:4] for rec in self.spans]}


def calibrate(calls: int = 20000, repeats: int = 5) -> dict[str, float]:
    """Extra seconds one traced call costs over a bare one: for a span
    wrapper and for a timed lambdified callable (best of `repeats`)."""
    def noop(*args):
        return None

    scratch = Tracer()
    scratch.open("parent")      # charges go to an open span, as in a pass
    args = (1.0, 2.0, 3.0, 4.0, 1.0)   # a Christoffel call: 4 coordinates, m

    def per_call(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                fn(*args)
            best = min(best, perf_counter() - t0)
            del scratch.spans[1:]
        return best / calls

    bare = per_call(noop)
    return {"span": per_call(scratch.wrap(noop, "calibrate")) - bare,
            "eval": per_call(scratch.timed_callable(noop)) - bare}


def overhead_s(summary: dict, cost: dict[str, float]) -> float:
    """Wall time tracing added to a pass: the after-hooks, timed directly,
    plus each wrapped call at its calibrated cost."""
    spans = summary["spans"]
    wrapped = sum(s["calls"] for name, s in spans.items() if name not in _AGGREGATED)
    evals = spans.get("eval", {"calls": 0})["calls"]
    hooks = spans.get("trace", {"s": 0.0})["s"]
    return hooks + wrapped * cost["span"] + evals * cost["eval"]


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer; call after importing
    hiddensym and before building any geometry."""
    import sympy
    from hiddensym import (algebra, catalog, cli, exprkit, geodesic, killing,
                           manifold, sasaki, spin)
    modules = (algebra, catalog, cli, exprkit, geodesic, killing, manifold, sasaki, spin)

    def function(module, attr, name, after=None):
        orig = getattr(module, attr)
        wrapped = tracer.wrap(orig, name, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
        setattr(module, attr, wrapped)

    def method(cls, attr, name, after=None):
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, after))

    def counting(layer, to_report=lambda r: r):
        """After-hook counting outermost checks of `layer` and their points."""
        def after(result, args):
            if not tracer.inside(layer):
                tracer.count(f"{layer}.checks")
                rep = to_report(result)
                tracer.count(f"{layer}.points", getattr(rep, "points", 0))
            return result
        return after

    def ops_counted(result, args):
        tracer.count_ops(result)
        return result

    def covariant_derivative_done(result, args):
        T, M = args[:2]
        tracer.keys["manifold.covariant_derivative"].append(_digest("|".join((
            M.name, ",".join(M.chart.coords), sympy.srepr(M.metric), T.variance,
            sympy.srepr(T.components.tolist())))))
        tracer.count_ops(result.components)
        return result

    def compiled(fn, args):
        source = "".join(linecache.getlines(fn.__code__.co_filename))
        tracer.count("compile.source_bytes", len(source.encode()))
        tracer.keys["compile"].append(_digest(source))
        return tracer.timed_callable(fn)

    def integrated(traj, args):
        tracer.count("geodesic.exits", int(bool(traj.exited_domain)))
        return traj

    def jacobi_done(rep, args):
        if not tracer.inside("algebra.jacobi"):
            tracer.count("algebra.jacobi_cases", rep.cases)
        return rep

    function(sympy, "lambdify", "compile", compiled)
    function(exprkit, "simplify", "exprkit.simplify")
    function(exprkit, "parse", "exprkit.parse")
    for attr in ("taub_nut", "pseudo_sphere_fixture", "flat", "sphere2", "get"):
        function(catalog, attr, "catalog.build")
    method(manifold.Manifold, "christoffel", "manifold.christoffel", ops_counted)
    method(manifold.Manifold, "riemann", "manifold.riemann", ops_counted)
    method(manifold.Manifold, "inverse_metric_matrix", "manifold.inverse_metric",
           ops_counted)
    function(manifold, "covariant_derivative", "manifold.covariant_derivative",
             covariant_derivative_done)
    for attr in ("killing_vector_residual", "sk_residual", "ky_residual",
                 "cky_residual", "covariant_constancy_residual", "unit_root_check",
                 "quaternion_relations_check"):
        function(killing, attr, "killing", counting("killing"))
    function(killing, "conformal_killing_factor", "killing",
             counting("killing", lambda r: r[1]))
    function(killing, "associated_sk", "killing")
    for attr in ("structure_identity_suite", "sasakian_residuals",
                 "killing_triple_check", "curvature_characterization",
                 "sectional_curvature_check", "einstein_check",
                 "para_hyperkahler_check", "cone_roundtrip_residual",
                 "phi_not_killing_witness", "conformal_to_killing_check",
                 "ky_odd_rank_check"):
        function(sasaki, attr, "sasaki", counting("sasaki"))
    function(sasaki, "build_cone", "sasaki.build_cone")
    method(spin.SpinContext, "__init__", "spin.context")
    function(spin, "build_operator", "spin.build_operator")
    method(spin.LinearOperator, "compose", "spin.compose")
    method(spin.LinearOperator, "apply", "spin.apply")
    method(spin.SecondOrderOperator, "apply", "spin.apply")
    for attr in ("anticommutator_residual", "commutator_residual", "square_compare"):
        function(spin, attr, "spin.report")
    function(geodesic, "integrate", "geodesic.integrate", integrated)
    function(geodesic, "monitor_invariant", "geodesic.monitor")
    function(geodesic, "energy_report", "geodesic.monitor")
    function(algebra, "jacobi_check", "algebra.jacobi", jacobi_done)


# -- per-layer metrics ---------------------------------------------------------

def merge(summaries: list[dict]) -> dict:
    """Combine the summaries of several traced processes of one pass."""
    out = {"spans": {}, "counts": {}, "keys": {}}
    for summ in summaries:
        for name, s in summ["spans"].items():
            acc = out["spans"].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                 "evals": 0})
            for k in acc:
                acc[k] += s[k]
        for k, v in summ["counts"].items():
            out["counts"][k] = out["counts"].get(k, 0) + v
        for k, v in summ["keys"].items():
            out["keys"].setdefault(k, []).extend(v)
    return out


def _dup_share(keys: list[str]) -> float:
    return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    """Every per-layer metric this tracer can give, by metric name.

    A span name with a dot gives ``<name>_s`` and ``<name>_calls``, one
    without gives ``<name>.s`` and ``<name>.calls``; every span name gives
    ``<name>.self_s``."""
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "evals": 0}
    spans = {name: summary["spans"].get(name, zero) for name in SPAN_NAMES}
    counts = {name: summary["counts"].get(name, 0) for name in COUNTERS}
    keys = summary["keys"]
    out: dict[str, float] = {}
    for name, s in spans.items():
        sep = "_" if "." in name else "."
        out[f"{name}{sep}s"] = s["s"]
        out[f"{name}{sep}calls"] = s["calls"]
        out[f"{name}.self_s"] = s["self_s"]
    out.update(counts)
    integrate = spans["geodesic.integrate"]
    # one RK4 step evaluates the compiled Christoffel symbols four times
    out["geodesic.steps"] = integrate["evals"] // 4
    out["geodesic.steps_per_s"] = (out["geodesic.steps"] / integrate["s"]
                                   if integrate["s"] else 0.0)
    jacobi_s = spans["algebra.jacobi"]["s"]
    out["algebra.cases_per_s"] = (counts["algebra.jacobi_cases"] / jacobi_s
                                  if jacobi_s else 0.0)
    out["spin.compositions"] = spans["spin.compose"]["calls"]
    out["compile.dup_share"] = _dup_share(keys.get("compile", []))
    out["manifold.covariant_derivative_dup_share"] = _dup_share(
        keys.get("manifold.covariant_derivative", []))
    return out
