"""Correctness gate: recompute each verdict from the residuals instead of
trusting a report's own ``pass`` field.

An operation fails when a residual is non-finite or negative (a report whose
rows were all skipped), when it covered no points, when the recomputed
verdict differs from the manifest or acceptance expectation, or when the
report's ``pass`` disagrees with the recomputed verdict.

Limit: a report carries only its worst residual, and the library skips a
NaN row when it picks the worst one, so a NaN at some but not all points
cannot be seen from the report.  Only a report whose rows were all NaN
(residual -1) is caught.  Where a report lists a value per point
(``extra.max_abs_per_point``), every one of them must be finite.
"""

from __future__ import annotations

import json
import math


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value >= 0


def residual(obj: dict, expect_pass: bool, tol: float) -> list[str]:
    """Problems with a residual report (library ``to_json()`` or CLI line)."""
    problems = []
    if not obj.get("points"):
        problems.append("no sample points")
    rel, absolute = obj.get("max_relative_residual"), obj.get("max_residual")
    finite = _finite(rel) and _finite(absolute)
    if not finite:
        problems.append(f"non-finite residual {absolute!r}/{rel!r}")
    verdict = finite and rel < tol
    if verdict != expect_pass:
        problems.append(f"relative residual {rel!r} gives pass={verdict}, "
                        f"expected {expect_pass} at tol {tol:g}")
    if obj.get("pass") is not verdict:
        problems.append(f"report says pass={obj.get('pass')!r}, residuals say {verdict}")
    per_point = obj.get("extra", {}).get("max_abs_per_point", [])
    if not all(_finite(v) for v in per_point):
        problems.append(f"non-finite value per point in {per_point!r}")
    return problems


def drift(obj: dict, tol: float) -> list[str]:
    """Problems with a conservation report, which must pass."""
    problems = []
    rel = obj.get("relative_drift")
    if not (_finite(rel) and _finite(obj.get("max_drift"))):
        problems.append(f"non-finite drift {rel!r}")
    elif rel >= tol:
        problems.append(f"{obj.get('invariant')} drift {rel:g} >= {tol:g}")
    if obj.get("pass") is not (_finite(rel) and rel < tol):
        problems.append(f"report says pass={obj.get('pass')!r}")
    return problems


def algebra(obj: dict, min_cases: int = 1) -> list[str]:
    problems = []
    if obj.get("failures") != []:
        problems.append(f"{len(obj.get('failures') or [])} failing cases")
    if not isinstance(obj.get("cases"), int) or obj["cases"] < min_cases:
        problems.append(f"{obj.get('cases')!r} cases, need >= {min_cases}")
    if obj.get("pass") is not True:
        problems.append(f"report says pass={obj.get('pass')!r}")
    return problems


def witness(obj: dict, count: int) -> list[str]:
    """Problems with a witness search, which must find `count` witnesses
    whose magnitudes exceed the report's threshold."""
    found = obj.get("extra", {}).get("witnesses", [])
    threshold = obj.get("tolerance")
    strong = [w for w in found if _finite(w.get("magnitude")) and _finite(threshold)
              and w["magnitude"] > threshold]
    problems = [] if obj.get("points") else ["no sample points"]
    if len(strong) != count:
        problems.append(f"{len(strong)} witnesses above threshold, expected {count}")
    if obj.get("pass") is not (len(strong) == count):
        problems.append(f"report says pass={obj.get('pass')!r}")
    return problems


def _reject_constant(token: str):
    raise ValueError(f"non-JSON token {token}")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity tokens Python emits."""
    return json.loads(text, parse_constant=_reject_constant)


def strict_json_lines(text: str) -> list[dict]:
    """Parse every non-empty line of a command's stdout as strict JSON."""
    return [strict_json(line) for line in text.splitlines() if line.strip()]
