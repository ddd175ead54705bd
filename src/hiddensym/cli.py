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

def _parse_expr(src, context: str) -> sp.Expr:
    if isinstance(src, (int, float)):
        return sp.nsimplify(src, rational=True)
    try:
        return exprkit.parse(str(src))
    except exprkit.ExprError as exc:
        raise FileFormatError(f"bad expression in {context}: {exc}") from exc


def _read_number(convert, src, context: str):
    """convert(src), int or float, or FileFormatError naming the context: also for
    a fractional int, and for NaN and Infinity, which json.load accepts."""
    try:
        if math.isfinite(float(src)) and convert(src) == float(src):
            return convert(src)
    except (TypeError, ValueError, OverflowError):
        pass
    raise FileFormatError(f"bad number {src!r} in {context}")


def _check_names(exprs, allowed: set, context: str):
    for e in exprs:
        unknown = {s.name for s in e.free_symbols} - allowed
        if unknown:
            raise FileFormatError(
                f"unbound name(s) {sorted(unknown)} in {context}")


def ingest(doc: dict) -> CatalogEntry:
    """Build a catalog entry from a manifold-definition JSON document."""
    try:
        name = doc["name"]
        n = _read_number(int, doc["dimension"], "dimension")
        coords = tuple(doc["coordinates"])
        domain = doc["domain"]
        metric_src = doc["metric"]
    except KeyError as exc:
        raise FileFormatError(f"missing required field {exc}") from exc
    if len(coords) != n:
        raise FileFormatError("coordinates length must equal dimension")
    box = {}
    for c in coords:
        if c not in domain:
            raise FileFormatError(f"domain missing coordinate {c!r}")
        if not (isinstance(domain[c], list) and len(domain[c]) == 2):
            raise FileFormatError(f"domain of {c!r} must be a pair [lo, hi]")
        box[c] = tuple(_read_number(float, b, f"domain of {c!r}") for b in domain[c])
    params = {k: _read_number(float, v, f"parameter {k!r}")
              for k, v in doc.get("parameters", {}).items()}
    signature = tuple(_read_number(int, s, "signature") for s in doc.get("signature", [1] * n))
    allowed = set(coords) | set(params)

    if len(metric_src) != n or any(len(row) != n for row in metric_src):
        raise FileFormatError("metric must be an n x n matrix")
    gmat = [[_parse_expr(metric_src[i][j], f"metric[{i}][{j}]")
             for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if sp.simplify(gmat[i][j] - gmat[j][i]) != 0:
                raise FileFormatError(f"metric is not symmetric at ({i},{j})")
    _check_names(itertools.chain.from_iterable(gmat), allowed, "metric")

    chart = Chart(coords, box)
    M = Manifold(chart, gmat, params=params, signature=signature, name=name)
    entry = CatalogEntry(name=name, manifold=M)

    for vname, comps in doc.get("vectors", {}).items():
        if not isinstance(comps, list) or len(comps) != n:
            raise FileFormatError(f"vector {vname!r} needs a list of {n} components")
        exprs = [_parse_expr(c, f"vector {vname!r}") for c in comps]
        _check_names(exprs, allowed, f"vector {vname!r}")
        entry.vectors[vname] = vector(exprs)

    for fname, block in doc.get("forms", {}).items():
        rank = _read_number(int, block["rank"], f"form {fname!r} rank")
        comp = np.full((n,) * rank, sp.Integer(0), dtype=object)
        for key, src in block["components"].items():
            idx = tuple(_read_number(int, t, f"form {fname!r} key {key!r}")
                        for t in key.split(","))
            if len(idx) != rank:
                raise FileFormatError(
                    f"form {fname!r}: index tuple {key!r} has wrong length")
            if any(not 0 <= t < n for t in idx):
                raise FileFormatError(
                    f"form {fname!r}: index {key!r} out of range")
            if rank > 1 and list(idx) != sorted(set(idx)):
                raise FileFormatError(
                    f"form {fname!r}: indices {key!r} must be strictly increasing")
            e = _parse_expr(src, f"form {fname!r}[{key}]")
            _check_names([e], allowed, f"form {fname!r}")
            for perm in itertools.permutations(range(rank)):
                comp[tuple(idx[p] for p in perm)] = _perm_sign(perm) * e
        entry.forms[fname] = TensorField(comp, "d" * rank)

    if "structures" in doc:
        block = doc["structures"]
        phis, xis, etas = [], [], []
        for a in range(3):
            mat = block["phi"][a]
            comp = np.array([[_parse_expr(mat[i][j], f"phi[{a}]")
                              for j in range(n)] for i in range(n)], dtype=object)
            phis.append(TensorField(comp, "ud"))
            xis.append(vector([_parse_expr(c, f"xi[{a}]") for c in block["xi"][a]]))
            etas.append(one_form([_parse_expr(c, f"eta[{a}]")
                                  for c in block["eta"][a]]))
        entry.structure = sasaki.MixedThreeStructure(M, phis, xis, etas)

    if "frame" in doc:
        entry.frame = np.array([[_parse_expr(e, "frame") for e in row]
                                for row in doc["frame"]], dtype=object)
    entry.metadata = doc.get("metadata", {})
    entry.manifest = doc.get("manifest", [])
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


def _parse_state(src: str, coords) -> dict:
    out = {}
    for part in src.split(","):
        key, _, val = part.partition("=")
        if key.strip() not in coords:
            raise FileFormatError(f"unknown coordinate {key.strip()!r}")
        out[key.strip()] = float(val)
    missing = set(coords) - set(out)
    if missing:
        raise FileFormatError(f"missing coordinate value(s): {sorted(missing)}")
    return out


def _cmd_geodesic(args) -> int:
    entry = _load_entry(args)
    M = entry.manifold
    coords = M.chart.coords
    s0 = geodesic.GeodesicState(_parse_state(args.position, coords),
                                _parse_state(args.velocity, coords))
    cfg = geodesic.IntegratorConfig(method=args.method, step=args.step,
                                    t_span=(0.0, args.t1), stride=args.stride)
    traj = geodesic.integrate(M, s0, cfg)
    ok = True
    rep = geodesic.energy_report(traj, M, tol=args.tol)
    obj = rep.to_json()
    obj["steps_kept"] = len(traj)
    obj["exited_domain"] = traj.exited_domain
    _emit(obj, args.pretty)
    ok = ok and rep.passed
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
