"""Command-line front end: check execution, geodesic runs, algebra table
emission, and machine-readable reports (hiddensym.document reads the files).

Each handler returns its outputs, (JSON object or text, passed) pairs, and
main alone formats and then prints them: one JSON object per line
(deterministic key order), or indented with --pretty.

Exit codes: 0 every output passed (a check meeting its expectation, an
expected failure too); 1 a check failure; 2 a usage error or a
hiddensym.InputError (a file, a parse or an input the library refuses); 3
an internal error.  Nothing is printed on stdout before an exit 2 or 3.

The library modules are imported by the handlers that use them.  Sympy is
loaded only where a command derives symbolically, by `construct assoc-sk
--emit-components`; the others, `geodesic run` and its spray too, read
their expressions as exprkit trees and evaluate them as generated code.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys

from . import InputError
from .document import CLAIMS, DERIVED, FileFormatError, _real, export, ingest


# ---------------------------------------------------------------------------
# inputs and outputs

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
        return catalog.get(args.catalog)
    raise FileFormatError("one of --manifold FILE or --catalog NAME is required")


def _check_signature(M, args) -> None:
    """A metric whose signature differs from the declared one at a finite,
    non-degenerate point among the report's points is a file error; a
    singular point is left to the report."""
    from .manifold import sample_points
    if not M.check_signature(sample_points(M.chart, args.points, args.seed)):
        raise FileFormatError(f"the metric does not have the declared signature "
                              f"{list(M.signature)} at the sample points")


def _claim(entry, check: str, target, args) -> tuple[dict, bool]:
    """The output of the claim `check` on each object `target` names, by the report
    CLAIMS names, passed if it meets the manifest; a signature or (for spin) a
    frame not giving the metric is refused first, a singular point left."""
    claim = CLAIMS[check]
    module = importlib.import_module(f".{claim.module}", __package__)
    M = context = entry.manifold
    kw = dict(points=args.points, seed=args.seed, tol=args.tol)
    if not claim.kinds:
        _check_signature(M, args)
    target = target or claim.default
    if not target or len(target.split(",")) != claim.targets:
        raise FileFormatError(f"{check} needs --target naming {claim.targets} object(s), "
                              "comma-separated")
    objects = [entry.target(name) for name in target.split(",")]
    if claim.kinds:     # the spin context, and the operators the report takes
        from . import spin
        F = (spin.Frame(entry.frame, tuple(M.signature)) if entry.frame is not None
             else spin.orthonormal_frame(M))
        frame = spin.frame_residual(F, M, points=args.points, seed=args.seed)
        if not frame.passed and math.isfinite(frame.max_rel_residual):
            raise FileFormatError(f"the frame does not give the metric: relative residual "
                                  f"{frame.max_rel_residual:.3g} at {frame.worst_point}")
        context = spin.SpinContext(M, F)
        kw["bank"] = spin.spinor_bank(M, args.bank, args.seed)
        objects = [spin.OperatorSpec(kind) if kind == "standard-dirac" else
                   spin.OperatorSpec(kind, *objects) for kind in claim.kinds]
    report = getattr(module, claim.report)(*objects, context, **kw)
    expected = next((item.get("expect_pass", True) for item in entry.manifest
                     if (item["check"], item["target"]) == (check, target)), True)
    obj = report.to_json() | {"target": target, "seed": args.seed, "expected_pass": expected,
                              "meets_expectation": report.passed == expected}
    return obj, obj["meets_expectation"]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check(args) -> list:
    return [_claim(_load_entry(args), args.check, args.target, args)]


def _cmd_spin(args) -> list:
    return [_claim(_load_entry(args), f"spin-{args.mode}", args.target, args)]


def _cmd_construct(args) -> list:
    entry = _load_entry(args)
    M = entry.manifold
    obj, passed = _claim(entry, "sk", args.target and f"{args.what}:{args.target}", args)
    outputs = [(obj | {"target": args.target}, passed)]
    if args.emit_components:
        from . import killing
        from .exprkit import to_source
        exprs = killing.associated_sk_symbolic(entry.target(args.target), M).components
        outputs.append(({"constructed": "associated-sk", "source": args.target, "components": {
            f"{i},{j}": to_source(exprs[i, j])
            for i in range(M.dim) for j in range(i, M.dim) if exprs[i, j] != 0}}, True))
    return outputs


def _parse_state(src: str, coords, flag: str) -> dict:
    """c1=v1,c2=v2,...: a finite value for each coordinate, each given once."""
    pairs = [part.partition("=")[::2] for part in src.split(",")]
    state = {c.strip(): _real(v, f"{flag} {c.strip()}") for c, v in pairs}
    if len(pairs) != len(coords) or set(state) != set(coords):
        raise FileFormatError(f"{flag} needs one value for each of {', '.join(coords)}")
    return state


def _cmd_geodesic(args) -> list:
    from . import geodesic
    cfg = geodesic.IntegratorConfig(method=args.method, step=args.step,
                                    t_span=(0.0, args.t1), stride=args.stride)
    entry = _load_entry(args)       # once the config took the step count
    M = entry.manifold
    _check_signature(M, args)
    s0 = geodesic.GeodesicState(_parse_state(args.position, M.chart.coords, "--position"),
                                _parse_state(args.velocity, M.chart.coords, "--velocity"))
    if not M.chart.contains(s0.position):
        raise FileFormatError("--position lies outside the chart's domain box")
    if args.invariant:      # resolved, built and read at the start, before any work
        Q = entry.target(args.invariant)
        geodesic.invariant_values([s0.position], [[s0.velocity[c] for c in M.chart.coords]],
                                  Q, M)
    traj = geodesic.integrate(M, s0, cfg)
    reports = [geodesic.energy_report(traj, M, tol=args.tol)]
    if args.invariant:
        reports.append(geodesic.monitor_invariant(traj, Q, M, name=args.invariant,
                                                  tol=args.invariant_tol))
    if args.csv:
        _write(args.csv, lambda fh: geodesic.export_csv(traj, M, fh))
    kept = {"steps_kept": len(traj), "exited_domain": traj.exited_domain}
    return [(rep.to_json() | extra, rep.passed) for rep, extra in zip(reports, [kept, {}])]


def _cmd_algebra(args) -> list:
    from . import algebra
    if args.mode == "table":
        return [(algebra.structure_table_json(args.cutoff), True)]
    if args.mode == "jacobi":
        reports = [algebra.jacobi_check(args.cutoff),
                   algebra.jacobi_check(0, table=algebra.bracket_generators),
                   algebra.grade_absorb(args.cutoff)]
    else:
        reports = [algebra.quaternion_table_check()]
    return [(rep.to_json(), rep.passed) for rep in reports]


def _cmd_sasaki(args) -> list:
    from . import sasaki
    entry = _load_entry(args)
    S = entry.structure
    if S is None:
        raise FileFormatError("entry carries no mixed 3-structure block")
    _check_signature(S.manifold, args)
    kw = dict(points=args.points, seed=args.seed, tol=args.tol)
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
    return [(rep.to_json() | {"seed": args.seed}, rep.passed) for rep in reports]


def _cmd_catalog(args) -> list:
    text = json.dumps(export(_load_entry(args)), indent=2 if args.pretty else None, sort_keys=True,
                      allow_nan=False)
    if args.out:
        _write(args.out, lambda fh: fh.write(text + "\n"))
        return []
    return [(text, True)]


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
    p.add_argument("check", choices=[name for name, claim in CLAIMS.items() if not claim.kinds])
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
    p.add_argument("--invariant", help=f"tensor name or {'|'.join(DERIVED)}FORM")
    p.add_argument("--invariant-tol", type=_positive, default=1e-6)
    p.add_argument("--csv", help="trajectory CSV output path")
    p.set_defaults(func=_cmd_geodesic, tol=1e-8)

    p = sub.add_parser("spin", help="spinor operator identities")
    p.add_argument("mode", choices=[n.removeprefix("spin-") for n, c in CLAIMS.items() if c.kinds])
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
    layout = {"indent": 2} if args.pretty else {"separators": (",", ":")}
    try:
        outputs = args.func(args)
        texts = [out if isinstance(out, str) else
                 json.dumps(out, sort_keys=True, default=str, allow_nan=False, **layout)
                 for out, _ in outputs]
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # noqa: BLE001 - contract: anything else is exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for text in texts:
        print(text)
    return 0 if all(passed for _, passed in outputs) else 1


if __name__ == "__main__":
    sys.exit(main())
