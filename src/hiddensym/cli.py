"""Command-line front end: check execution, geodesic runs, algebra table
emission, and machine-readable reports (hiddensym.document reads the files).

Reports are emitted one JSON object per line (deterministic key order);
--pretty switches to an indented human-readable rendering.

Exit codes: 0 every check meets its expectation (an expected failure
counts as success); 1 a check failure; 2 a file, parse or usage error or an
input the library refuses, with nothing printed before it; 3 internal error.

The library modules are imported by the handlers that use them.  Sympy is
loaded only where a command derives symbolically, by `construct assoc-sk
--emit-components`; the others, `geodesic run` and its spray too, read
their expressions as exprkit trees and evaluate them as generated code.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .document import FileFormatError, _real, export, ingest


# ---------------------------------------------------------------------------
# report output

def _emit(obj: dict, pretty: bool):
    if pretty:
        print(json.dumps(obj, indent=2, sort_keys=True, default=str, allow_nan=False))
    else:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str,
                         allow_nan=False))


def _write(path: str, write) -> None:
    """write(fh) on path opened for text; an OSError is a file error naming the path."""
    try:
        with open(path, "w", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc.strerror}") from exc


def _load_entry(args) -> CatalogEntry:
    if getattr(args, "manifold", None):
        try:
            with open(args.manifold) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise FileFormatError(f"cannot read manifold file: {exc}") from exc
        return ingest(doc)
    if getattr(args, "catalog", None):
        from . import catalog
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


def _check_signature(M, args) -> None:
    """A metric whose signature differs from the declared one at a finite,
    non-degenerate point among the report's points is a file error; a
    singular point is left to the report."""
    from .manifold import sample_points
    if not M.check_signature(sample_points(M.chart, args.points, args.seed)):
        raise FileFormatError(f"the metric does not have the declared signature "
                              f"{list(M.signature)} at the sample points")


# ---------------------------------------------------------------------------
# subcommands

_CHECKS = ("killing-vector", "cky", "ky", "sk", "covconst", "unit-root",
           "quaternion")


def _cmd_check(args) -> int:
    from . import killing
    entry = _load_entry(args)
    M = entry.manifold
    _check_signature(M, args)
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
    from . import killing
    entry = _load_entry(args)
    M = entry.manifold
    _check_signature(M, args)
    f = entry.target(args.target)
    K = killing.associated_sk(f, M)
    report = killing.sk_residual(K, M, points=args.points, seed=args.seed,
                                 tol=args.tol)
    if args.emit_components:    # formed before anything is printed
        from .exprkit import to_source
        exprs = killing.associated_sk_symbolic(f, M).components
        emitted = {"constructed": "associated-sk", "source": args.target, "components": {
            f"{i},{j}": to_source(exprs[i, j])
            for i in range(M.dim) for j in range(i, M.dim) if exprs[i, j] != 0}}
    ok = _finalize(report, entry, "sk", args.target, args)
    if args.emit_components:
        _emit(emitted, args.pretty)
    return 0 if ok else 1


def _parse_state(src: str, coords, flag: str) -> dict:
    """c1=v1,c2=v2,...: a finite value for each coordinate, each given once."""
    pairs = [part.partition("=")[::2] for part in src.split(",")]
    state = {c.strip(): _real(v, f"{flag} {c.strip()}") for c, v in pairs}
    if len(pairs) != len(coords) or set(state) != set(coords):
        raise FileFormatError(f"{flag} needs one value for each of {', '.join(coords)}")
    return state


def _cmd_geodesic(args) -> int:
    if not math.isfinite(args.t1 / args.step):
        raise FileFormatError(f"--t1 {args.t1} over --step {args.step} is not a finite "
                              "number of steps")
    from . import geodesic, killing
    entry = _load_entry(args)
    M = entry.manifold
    _check_signature(M, args)
    s0 = geodesic.GeodesicState(_parse_state(args.position, M.chart.coords, "--position"),
                                _parse_state(args.velocity, M.chart.coords, "--velocity"))
    if not M.chart.contains(s0.position):
        raise FileFormatError("--position lies outside the chart's domain box")
    cfg = geodesic.IntegratorConfig(method=args.method, step=args.step,
                                    t_span=(0.0, args.t1), stride=args.stride)
    if args.invariant:      # resolved, and an S-K square built, before any work
        Q = entry.target(args.invariant.removeprefix("assoc-sk:"))
        Q = killing.associated_sk(Q, M) if args.invariant.startswith("assoc-sk:") else Q
    traj = geodesic.integrate(M, s0, cfg)
    reports = [geodesic.energy_report(traj, M, tol=args.tol)]
    if args.invariant:
        reports.append(geodesic.monitor_invariant(traj, Q, M, name=args.invariant,
                                                  tol=args.invariant_tol))
    if args.csv:
        _write(args.csv, lambda fh: geodesic.export_csv(traj, M, fh))
    kept = {"steps_kept": len(traj), "exited_domain": traj.exited_domain}
    for rep, extra in zip(reports, [kept, {}]):
        _emit(rep.to_json() | extra, args.pretty)
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_spin(args) -> int:
    from . import spin
    entry = _load_entry(args)
    M = entry.manifold
    if entry.frame is not None:
        F = spin.Frame(entry.frame, tuple(M.signature))
    else:
        F = spin.orthonormal_frame(M)
    # a frame that does not give the metric is a file error; a non-finite
    # residual (a singular point) is left to the report
    frame = spin.frame_residual(F, M, points=args.points, seed=args.seed)
    if not frame.passed and math.isfinite(frame.max_rel_residual):
        raise FileFormatError(
            f"the frame does not give the metric: relative residual "
            f"{frame.max_rel_residual:.3g} at {frame.worst_point}")
    ctx = spin.SpinContext(M, F)
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
    from . import algebra
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
    from . import sasaki
    entry = _load_entry(args)
    S = entry.structure
    if S is None:
        raise FileFormatError("entry carries no mixed 3-structure block")
    _check_signature(S.manifold, args)
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
    text = json.dumps(export(_load_entry(args)), indent=2 if args.pretty else None, sort_keys=True,
                      allow_nan=False)
    if args.out:
        _write(args.out, lambda fh: fh.write(text + "\n"))
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
    except Exception as exc:   # noqa: BLE001 - contract: 2 on a file error, else 3
        if isinstance(exc, _file_errors()):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _file_errors() -> tuple:
    """The exceptions that refuse an input (exit 2), GeometryError the
    library's.  The expression and geometry errors are looked up only where
    their module is loaded: a command that never loaded it cannot have raised
    them, and the lookup must not load a module the command did not need."""
    errors = [FileFormatError, KeyError]
    for module, name in (("exprkit", "ExprError"), ("manifold", "GeometryError")):
        if (loaded := sys.modules.get(f"{__package__}.{module}")) is not None:
            errors.append(getattr(loaded, name))
    return tuple(errors)


if __name__ == "__main__":
    sys.exit(main())
