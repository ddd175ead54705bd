"""Command-line front end: manifold-file ingestion, check execution,
geodesic runs, algebra table emission, and machine-readable reports.

Reports are emitted one JSON object per line (deterministic key order);
--pretty switches to an indented human-readable rendering.

Exit codes: 0 all requested checks meet their expectations (expected
failures count as success); 1 check failure; 2 file/parse/usage error;
3 internal error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np
import sympy as sp

from . import algebra, catalog, exprkit, geodesic, killing, sasaki, spin
from .catalog import CatalogEntry
from .manifold import (Chart, GeometryError, Manifold, TensorField, _perm_sign, vector,
                       one_form)


class FileFormatError(Exception):
    pass


# ---------------------------------------------------------------------------
# manifold file ingestion / export

def _read(src, shape: tuple, leaf, context: str):
    """src checked against shape, each entry read by leaf(entry, path); a fault
    raises FileFormatError naming the path, e.g. structures['phi'][0][2].  An
    item of shape is a list's length (None: any) or dict, for an object."""
    if not shape:
        return leaf(src, context)
    size, where = shape[0], context or "the document"
    if size is dict:
        if not isinstance(src, dict):
            raise FileFormatError(f"{where} must be an object")
        return {k: _field(src, k, shape[1:], leaf, context=context) for k in src}
    if not isinstance(src, list) or size not in (None, len(src)):
        raise FileFormatError(f"{where} must be a list" + (f" of {size}" if size else ""))
    return [_read(v, shape[1:], leaf, f"{context}[{i}]") for i, v in enumerate(src)]


def _field(obj: dict, key: str, shape: tuple, leaf, *default, context: str = ""):
    """_read of an object's field; a missing one reads as the default, if given."""
    path = f"{context}[{key!r}]" if context else key
    if key not in obj and not default:
        raise FileFormatError(f"missing required field {path}")
    return _read(obj.get(key, *default), shape, leaf, path)


def _leaf(ok, what: str, convert=None):
    """Leaf giving src, or convert(src), if ok(src) holds."""
    def read(src, context: str):
        try:
            if ok(src):
                return convert(src) if convert else src
        except (TypeError, ValueError, OverflowError):
            pass
        raise FileFormatError(f"{context} must be {what}, not {src!r}")
    return read


def _numeric(convert, allowed=None):
    """Leaf giving convert(src) of a finite number src, in allowed if given;
    a boolean, a fractional int, NaN and Infinity (json.load accepts them) fail."""
    return _leaf(lambda src: not isinstance(src, bool) and math.isfinite(float(src))
                 and convert(src) == float(src) and (allowed is None or convert(src) in allowed),
                 f"a finite {convert.__name__}{f' in {list(allowed)}' if allowed else ''}",
                 convert)


_keep = _leaf(lambda src: True, "anything")
_text = _leaf(lambda src: isinstance(src, str), "a string")
_name = _leaf(lambda src: isinstance(src, str) and src.isascii() and src.isidentifier()
              and src not in exprkit.FUNCTIONS, "a name that is not a function's")
_real = _numeric(float)


def _expression(names: set):
    """Leaf giving an expression (exprkit's grammar, or a finite number) in names."""
    def read(src, context: str) -> sp.Expr:
        if not isinstance(src, str):
            return sp.nsimplify(_real(src, context), rational=True)
        try:
            e = exprkit.parse(src)
        except exprkit.ExprError as exc:
            raise FileFormatError(f"bad expression in {context}: {exc}") from exc
        unbound = sorted({s.name for s in e.free_symbols} - names)
        if unbound:
            raise FileFormatError(f"unbound name(s) {unbound} in {context}")
        return e
    return read


def ingest(doc) -> CatalogEntry:
    """Build a catalog entry from a manifold-definition JSON document.  Every
    field is read by _read, so a fault raises FileFormatError naming it."""
    doc = _read(doc, (dict,), _keep, "")
    n = _field(doc, "dimension", (), _numeric(int))
    coords = tuple(_field(doc, "coordinates", (n,), _name))
    domain = _field(doc, "domain", (dict,), _keep)
    box = {c: tuple(_field(domain, c, (2,), _real, context="domain")) for c in coords}
    params = _field(doc, "parameters", (dict,), _real, {})
    clash = set(_read(list(params), (None,), _name, "parameter names")) & set(coords)
    if clash:
        raise FileFormatError(f"parameters {sorted(clash)} share a coordinate's name")
    signature = tuple(_field(doc, "signature", (n,), _numeric(int, (1, -1)), [1] * n))
    expr = _expression(set(coords) | set(params))
    try:    # the chart, the metric and the structure check their own geometry
        M = Manifold(Chart(coords, box), _field(doc, "metric", (n, n), expr), params=params,
                     signature=signature, name=_field(doc, "name", (), _text))
        entry = CatalogEntry(M.name, M, metadata=_field(doc, "metadata", (dict,), _keep, {}),
                             manifest=_field(doc, "manifest", (None, dict), _keep, []))
        if "structures" in doc:
            block = _field(doc, "structures", (dict,), _keep)
            phi, xi, eta = (_field(block, key, (3,) + (n,) * rank, expr, context="structures")
                            for key, rank in (("phi", 2), ("xi", 1), ("eta", 1)))
            entry.structure = sasaki.MixedThreeStructure(
                M, [TensorField(p, "ud") for p in phi], [vector(x) for x in xi],
                [one_form(e) for e in eta])
    except GeometryError as exc:
        raise FileFormatError(str(exc)) from exc
    _field(entry.metadata, "einstein_constant", (), _real, 0, context="metadata")
    for vname, comps in _field(doc, "vectors", (dict, n), expr, {}).items():
        entry.vectors[vname] = vector(comps)
    for fname, block in _field(doc, "forms", (dict, dict), _keep, {}).items():
        path = f"forms[{fname!r}]"
        rank = _field(block, "rank", (), _numeric(int, range(n + 1)), context=path)
        comp, filled = np.full((n,) * rank, sp.Integer(0), dtype=object), set()
        for key, e in _field(block, "components", (dict,), expr, context=path).items():
            where = f"key {key!r} of {path}"
            idx = tuple(_read(key.split(","), (rank,), _numeric(int, range(n)), where))
            if list(idx) != sorted(set(idx)) or idx in filled:
                raise FileFormatError(f"{where}: indices must increase strictly, once per form")
            filled.add(idx)
            for perm in itertools.permutations(range(rank)):
                comp[tuple(idx[p] for p in perm)] = _perm_sign(perm) * e
        entry.forms[fname] = TensorField(comp, "d" * rank)
    if "frame" in doc:
        entry.frame = np.array(_field(doc, "frame", (n, n), expr), dtype=object)
    return entry


def _expr_to_source(e) -> str:
    e = sp.sympify(e)
    # the file grammar has no hyperbolics; rewrite them through exp
    e = e.replace(sp.sinh, lambda a: (sp.exp(a) - sp.exp(-a)) / 2)
    e = e.replace(sp.cosh, lambda a: (sp.exp(a) + sp.exp(-a)) / 2)
    e = e.replace(sp.tanh, lambda a: (sp.exp(a) - sp.exp(-a))
                  / (sp.exp(a) + sp.exp(-a)))
    return exprkit.to_source(e)


def export(entry: CatalogEntry) -> dict:
    """Render a catalog entry as a manifold-definition JSON document."""
    M = entry.manifold
    n = M.dim
    doc = {
        "name": entry.name,
        "dimension": n,
        "coordinates": list(M.chart.coords),
        "domain": {c: [lo, hi] for c, (lo, hi) in M.chart.box.items()},
        "signature": list(M.signature),
        "parameters": dict(M.params),
        "metric": [[_expr_to_source(M.metric[i, j]) for j in range(n)]
                   for i in range(n)],
        "vectors": {name: [_expr_to_source(c) for c in X.components]
                    for name, X in entry.vectors.items()},
        "forms": {},
    }
    for name, F in entry.forms.items():
        rank = F.rank
        comps = {}
        for idx in itertools.combinations(range(n), rank):
            e = F.components[idx]
            if e != 0:
                comps[",".join(str(i) for i in idx)] = _expr_to_source(e)
        doc["forms"][name] = {"rank": rank, "components": comps}
    if entry.structure is not None:
        S = entry.structure
        doc["structures"] = {
            "phi": [[[_expr_to_source(S.phi[a].components[i, j])
                      for j in range(n)] for i in range(n)] for a in range(3)],
            "xi": [[_expr_to_source(c) for c in S.xi[a].components]
                   for a in range(3)],
            "eta": [[_expr_to_source(c) for c in S.eta[a].components]
                    for a in range(3)],
        }
    if entry.frame is not None:
        doc["frame"] = [[_expr_to_source(e) for e in row] for row in entry.frame]
    if entry.metadata:
        doc["metadata"] = entry.metadata
    if entry.manifest:
        doc["manifest"] = entry.manifest
    return doc


# ---------------------------------------------------------------------------
# report output

def _emit(obj: dict, pretty: bool):
    if pretty:
        print(json.dumps(obj, indent=2, sort_keys=True, default=str, allow_nan=False))
    else:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str,
                         allow_nan=False))


def _load_entry(args) -> CatalogEntry:
    if getattr(args, "manifold", None):
        try:
            with open(args.manifold) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise FileFormatError(f"cannot read manifold file: {exc}") from exc
        return ingest(doc)
    if getattr(args, "catalog", None):
        try:
            return catalog.get(args.catalog)
        except KeyError as exc:
            raise FileFormatError(str(exc)) from exc
    raise FileFormatError("one of --manifold FILE or --catalog NAME is required")


def _expectation(entry: CatalogEntry, check: str, target: str) -> bool:
    for item in entry.manifest:
        if item.get("check") == check and item.get("target") == target:
            return bool(item.get("expect_pass", True))
    return True


def _finalize(report, entry, check, target, args) -> bool:
    """Emit the report and return whether it meets the manifest expectation."""
    expected = _expectation(entry, check, target)
    obj = report.to_json()
    obj["target"] = target
    obj["seed"] = args.seed
    obj["expected_pass"] = expected
    obj["meets_expectation"] = (report.passed == expected)
    _emit(obj, args.pretty)
    return obj["meets_expectation"]


# ---------------------------------------------------------------------------
# subcommands

_CHECKS = ("killing-vector", "cky", "ky", "sk", "covconst", "unit-root",
           "quaternion")


def _cmd_check(args) -> int:
    entry = _load_entry(args)
    M = entry.manifold
    kw = dict(points=args.points, seed=args.seed, tol=args.tol)
    name = args.check
    if name == "quaternion":
        targets = args.target.split(",") if args.target else ["f1", "f2", "f3"]
        if len(targets) != 3:
            raise FileFormatError("quaternion check needs three comma-separated targets")
        fs = [entry.target(t) for t in targets]
        report = killing.quaternion_relations_check(*fs, M, **kw)
        ok = _finalize(report, entry, "quaternion", ",".join(targets), args)
        return 0 if ok else 1
    if not args.target:
        raise FileFormatError("--target NAME is required for this check")
    T = entry.target(args.target)
    fn = {
        "killing-vector": killing.killing_vector_residual,
        "cky": killing.cky_residual,
        "ky": killing.ky_residual,
        "sk": killing.sk_residual,
        "covconst": killing.covariant_constancy_residual,
        "unit-root": killing.unit_root_check,
    }[name]
    report = fn(T, M, **kw)
    return 0 if _finalize(report, entry, name, args.target, args) else 1


def _cmd_construct(args) -> int:
    entry = _load_entry(args)
    M = entry.manifold
    f = entry.target(args.target)
    K = killing.associated_sk(f, M)
    report = killing.sk_residual(K, M, points=args.points, seed=args.seed,
                                 tol=args.tol)
    ok = _finalize(report, entry, "sk", args.target, args)
    if args.emit_components:
        n = M.dim
        comp = {f"{i},{j}": _expr_to_source(K.components[i, j])
                for i in range(n) for j in range(i, n)
                if K.components[i, j] != 0}
        _emit({"constructed": "associated-sk", "source": args.target,
               "components": comp}, args.pretty)
    return 0 if ok else 1


def _parse_state(src: str, coords, flag: str) -> dict:
    """c1=v1,c2=v2,...: a finite value for each coordinate, each given once."""
    pairs = [part.partition("=")[::2] for part in src.split(",")]
    state = {c.strip(): _real(v, f"{flag} {c.strip()}") for c, v in pairs}
    if len(pairs) != len(coords) or set(state) != set(coords):
        raise FileFormatError(f"{flag} needs one value for each of {', '.join(coords)}")
    return state


def _cmd_geodesic(args) -> int:
    entry = _load_entry(args)
    M = entry.manifold
    s0 = geodesic.GeodesicState(_parse_state(args.position, M.chart.coords, "--position"),
                                _parse_state(args.velocity, M.chart.coords, "--velocity"))
    if not M.chart.contains(s0.position):
        raise FileFormatError("--position lies outside the chart's domain box")
    cfg = geodesic.IntegratorConfig(method=args.method, step=args.step,
                                    t_span=(0.0, args.t1), stride=args.stride)
    traj = geodesic.integrate(M, s0, cfg)
    rep = geodesic.energy_report(traj, M, tol=args.tol)
    obj = rep.to_json()
    obj["steps_kept"] = len(traj)
    obj["exited_domain"] = traj.exited_domain
    _emit(obj, args.pretty)
    ok = rep.passed
    if args.invariant:
        if args.invariant.startswith("assoc-sk:"):
            Q = killing.associated_sk(entry.target(args.invariant[9:]), M)
        else:
            Q = entry.target(args.invariant)
        rep = geodesic.monitor_invariant(traj, Q, M, name=args.invariant,
                                         tol=args.invariant_tol)
        _emit(rep.to_json(), args.pretty)
        ok = ok and rep.passed
    if args.csv:
        geodesic.export_csv(traj, M, args.csv)
    return 0 if ok else 1


def _spin_context(entry: CatalogEntry) -> spin.SpinContext:
    M = entry.manifold
    if entry.frame is not None:
        F = spin.Frame(entry.frame, tuple(M.signature))
    else:
        F = spin.orthonormal_frame(M)
    return spin.SpinContext(M, F)


def _cmd_spin(args) -> int:
    entry = _load_entry(args)
    ctx = _spin_context(entry)
    bank = spin.spinor_bank(entry.manifold, args.bank, args.seed)
    kw = dict(bank=bank, points=args.points, seed=args.seed, tol=args.tol)
    Ds = spin.OperatorSpec("standard-dirac")
    if args.mode == "anticommute":
        spec = spin.OperatorSpec("dirac-type", entry.target(args.target))
        report = spin.anticommutator_residual(Ds, spec, ctx, **kw)
        check = "spin-anticommute"
    elif args.mode == "commute":
        spec = spin.OperatorSpec("killing-op", entry.target(args.target))
        report = spin.commutator_residual(Ds, spec, ctx, **kw)
        check = "spin-commute"
    else:
        spec = spin.OperatorSpec("dirac-type", entry.target(args.target))
        report = spin.square_compare(spec, ctx, **kw)
        check = "spin-square"
    return 0 if _finalize(report, entry, check, args.target, args) else 1


def _cmd_algebra(args) -> int:
    if args.mode == "table":
        _emit(algebra.structure_table_json(args.cutoff), args.pretty)
        return 0
    if args.mode == "jacobi":
        reports = [algebra.jacobi_check(args.cutoff),
                   algebra.jacobi_check(0, table=algebra.bracket_generators),
                   algebra.grade_absorb(args.cutoff)]
    else:
        reports = [algebra.quaternion_table_check()]
    ok = True
    for rep in reports:
        _emit(rep.to_json(), args.pretty)
        ok = ok and rep.passed
    return 0 if ok else 1


def _cmd_sasaki(args) -> int:
    entry = _load_entry(args)
    S = entry.structure
    if S is None:
        raise FileFormatError("entry carries no mixed 3-structure block")
    kw = dict(points=args.points, seed=args.seed, tol=args.tol)
    ok = True
    if args.mode == "verify":
        reports = [
            sasaki.structure_identity_suite(S, **kw),
            sasaki.sasakian_residuals(S, **kw),
            sasaki.killing_triple_check(S, **kw),
            sasaki.curvature_characterization(S, **kw),
            sasaki.sectional_curvature_check(S, **kw),
        ]
    elif args.mode == "cone":
        C = sasaki.build_cone(S)
        reports = [
            sasaki.para_hyperkahler_check(C, **kw),
            sasaki.einstein_check(C.manifold, 0.0, **kw),
            sasaki.cone_roundtrip_residual(S, C, **kw),
        ]
    elif args.mode == "einstein":
        lam = args.einstein_constant
        if lam is None:
            lam = float(entry.metadata.get("einstein_constant", 4 * S.sasakian_rank + 2))
        reports = [sasaki.einstein_check(S.manifold, lam, **kw)]
    else:   # witness
        reports = [sasaki.phi_not_killing_witness(S, points=args.points,
                                                  seed=args.seed)]
        for a in range(3):
            reports.append(sasaki.conformal_to_killing_check(S, S.xi[a], **kw))
    for rep in reports:
        obj = rep.to_json()
        obj["seed"] = args.seed
        _emit(obj, args.pretty)
        ok = ok and rep.passed
    return 0 if ok else 1


def _cmd_catalog(args) -> int:
    entry = _load_entry(args)
    doc = export(entry)
    text = json.dumps(doc, indent=2 if args.pretty else None, sort_keys=True,
                      allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _number(convert, ok, requirement):
    """argparse type that converts, then rejects values failing ok; argparse
    reports both a failed conversion and a rejection as a usage error."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")
        return value
    return parse


_count = _number(int, lambda v: v >= 1, "an integer >= 1")
_cutoff = _number(int, lambda v: v >= 0, "an integer >= 0")
_positive = _number(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_finite = _number(float, math.isfinite, "a finite number")


def _add_common(p, target=True):
    p.add_argument("--manifold", help="manifold definition JSON file")
    p.add_argument("--catalog", help="built-in catalog entry name")
    if target:
        p.add_argument("--target", help="named vector/form/tensor to check")
    p.add_argument("--points", type=_count, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_positive, default=1e-9)
    p.add_argument("--json", action="store_true",
                   help="JSON-lines output (the default)")
    p.add_argument("--pretty", action="store_true",
                   help="indented human-readable JSON")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hiddensym",
        description="hidden-symmetry verification toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run a residual check")
    p.add_argument("check", choices=_CHECKS)
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("construct", help="construct derived objects")
    p.add_argument("what", choices=["assoc-sk"])
    _add_common(p)
    p.add_argument("--emit-components", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("geodesic", help="integrate geodesics")
    p.add_argument("what", choices=["run"])
    _add_common(p, target=False)
    p.add_argument("--position", required=True, help="c1=v1,c2=v2,...")
    p.add_argument("--velocity", required=True, help="c1=v1,c2=v2,...")
    p.add_argument("--t1", type=_positive, default=10.0)
    p.add_argument("--step", type=_positive, default=1e-3)
    p.add_argument("--stride", type=_count, default=10)
    p.add_argument("--method", choices=["rk4", "rk45"], default="rk4")
    p.add_argument("--invariant", help="tensor name or assoc-sk:FORM")
    p.add_argument("--invariant-tol", type=_positive, default=1e-6)
    p.add_argument("--csv", help="trajectory CSV output path")
    p.set_defaults(func=_cmd_geodesic, tol=1e-8)

    p = sub.add_parser("spin", help="spinor operator identities")
    p.add_argument("mode", choices=["anticommute", "commute", "square"])
    _add_common(p)
    p.add_argument("--bank", type=_count, default=5)
    p.set_defaults(func=_cmd_spin, tol=1e-8, points=10)

    p = sub.add_parser("algebra", help="exact graded-algebra checks")
    p.add_argument("mode", choices=["table", "jacobi", "quaternion-units"])
    p.add_argument("--cutoff", type=_cutoff, default=10)
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("sasaki", help="mixed 3-structure suites")
    p.add_argument("mode", choices=["verify", "cone", "einstein", "witness"])
    _add_common(p, target=False)
    p.add_argument("--einstein-constant", type=_finite, default=None)
    p.set_defaults(func=_cmd_sasaki)

    p = sub.add_parser("catalog", help="catalog export")
    p.add_argument("what", choices=["export"])
    _add_common(p, target=False)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_catalog)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (FileFormatError, exprkit.ExprError, KeyError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # noqa: BLE001 - contract: 3 on internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    return_code = main()
    sys.exit(return_code)
