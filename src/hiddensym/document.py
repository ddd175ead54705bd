"""Manifold-definition documents, the JSON that `--manifold` reads and
`catalog export` prints: `ingest` reads one into a catalog entry, each manifest
item checked against the claim and derived-kind tables, and keeps the document
as it read it, which `export` prints.  The geometry modules are imported when a
document is read, sasaki for a mixed 3-structure."""

from __future__ import annotations

import importlib
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import InputError


class FileFormatError(InputError):
    """A manifold file, a catalog name or an output path that cannot be used."""


@dataclass
class CatalogEntry:
    name: str
    manifold: Manifold
    document: dict      # what ingest read: defaults filled in, each expression a tree
    vectors: dict[str, TensorField] = field(init=False, default_factory=dict)
    forms: dict[str, TensorField] = field(init=False, default_factory=dict)
    structure: MixedThreeStructure | None = field(init=False, default=None)
    frame: np.ndarray | None = field(init=False, default=None)   # e^a_mu, rows = a
    metadata: dict = field(default_factory=dict)
    manifest: list[dict] = field(init=False, default_factory=list)

    def target(self, name: str) -> TensorField | SKSquare:
        """The vector or form NAME, or for PREFIX + NAME what DERIVED[PREFIX] builds of it."""
        prefix = next((p for p in DERIVED if name.startswith(p)), "")
        base = name.removeprefix(prefix)
        T = (self.forms | self.vectors).get(base)
        if T is None:
            raise FileFormatError(f"no object named {base!r} in catalog entry {self.name!r}")
        if prefix:
            module, build, _, _ = DERIVED[prefix]
            T = getattr(importlib.import_module(f".{module}", __package__), build)(T, self.manifold)
        return T


class Claim(NamedTuple):
    """What decides a manifest check name."""
    module: str                     # a hiddensym module and its report, by name: the
    report: str                     # report is looked up when the claim runs
    takes: str                      # what each target must be, a key of TAKES
    targets: int = 1                # comma-separated objects the target names,
    default: str | None = None      # and the target when none is given
    kinds: tuple[str, ...] = ()     # a spin report's operators, the target their payload


CLAIMS = {      # the claim table: every manifest check name
    "killing-vector": Claim("killing", "killing_vector_residual", "vectors"),
    "cky": Claim("killing", "cky_residual", "forms of rank 1 to n-1"),
    "ky": Claim("killing", "ky_residual", "forms of rank 1 or more"),
    "sk": Claim("killing", "sk_residual", "symmetric tensors (forms of rank 0 or 1, S-K squares)"),
    "covconst": Claim("killing", "covariant_constancy_residual", "vectors, forms and S-K squares"),
    "unit-root": Claim("killing", "unit_root_check", "2-forms"),
    "quaternion": Claim("killing", "quaternion_relations_check", "2-forms", 3, "f1,f2,f3"),
    "spin-anticommute": Claim("spin", "anticommutator_residual", "2-forms",
                              kinds=("standard-dirac", "dirac-type")),
    "spin-commute": Claim("spin", "commutator_residual", "vectors",
                          kinds=("standard-dirac", "killing-op")),
    "spin-square": Claim("spin", "square_compare", "2-forms", kinds=("dirac-type",)),
}

DERIVED = {     # the derived-kind table, PREFIX: (module, build, takes, kind): PREFIX + NAME is
    # module.build(T, M) of the object T named NAME that TAKES[takes] fits ("sym dd": symmetric)
    "assoc-sk:": ("killing", "associated_sk", "forms of rank 1 or more", "sym dd"),
}

TAKES = {       # whether a target of kind k on n coordinates fits: k is a document object's
    "vectors": lambda k, n: k == "u",           # variance, or a DERIVED row's kind
    "vectors, forms and S-K squares": lambda k, n: True,
    "forms of rank 1 or more": lambda k, n: k.startswith("d"),
    "forms of rank 1 to n-1": lambda k, n: k.startswith("d") and len(k) < n,
    "2-forms": lambda k, n: k == "dd",
    "symmetric tensors (forms of rank 0 or 1, S-K squares)": lambda k, n: k in ("", "d", "sym dd"),
}


def _read(src, shape: tuple, leaf, context: str):
    """src checked against shape, each entry read by leaf(entry, path); a fault
    raises FileFormatError naming the path, e.g. structures['phi'][0][2].  An
    item of shape is a list's length (None: any), dict for an object, or the
    set of an object's fields, any other field refused."""
    if not shape:
        return leaf(src, context)
    size, where = shape[0], context or "the document"
    if size is dict or isinstance(size, set):
        if not isinstance(src, dict):
            raise FileFormatError(f"{where} must be an object")
        unknown = [k for k in src if size is not dict and k not in size]
        if unknown:
            raise FileFormatError(f"{where} has unknown field(s) {unknown}")
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
_real = _numeric(float)


def _name(src, context: str) -> str:
    """Leaf giving an ASCII identifier that is not a grammar function's name."""
    from .exprkit import FUNCTIONS
    return _leaf(lambda s: isinstance(s, str) and s.isascii() and s.isidentifier()
                 and s not in FUNCTIONS, "a name that is not a function's")(src, context)


def _expression(names: set):
    """Leaf giving an exprkit tree (the grammar, or a finite number) in names."""
    from fractions import Fraction

    from . import exprkit

    def read(src, context: str) -> exprkit.Expr:
        try:
            if not isinstance(src, str):
                return exprkit.number(Fraction(repr(_real(src, context))))
            e = exprkit.parse(src)
        except exprkit.EvalDomainError as exc:     # 1/0, log(0), 0^-1, 0/0, sqrt(-1)
            raise FileFormatError(f"{context} must be finite and real, not {src!r}") from exc
        except exprkit.ExprError as exc:
            raise FileFormatError(f"bad expression in {context}: {exc}") from exc
        unbound = sorted(exprkit.names([e]) - names)
        if unbound:
            raise FileFormatError(f"unbound name(s) {unbound} in {context}")
        return e
    return read


def ingest(doc) -> CatalogEntry:
    """Build a catalog entry from a manifold-definition JSON document.  Every
    field is read by _read, so a fault raises FileFormatError naming it.  The
    entry keeps the document as read: each default filled in, each expression
    its tree, a form's nonzero components under increasing index keys, and
    structures, frame, metadata and manifest only when given and non-empty."""
    from .exprkit import ZERO
    from .manifold import (Chart, GeometryError, Manifold, TensorField, _perm_sign,
                           one_form, vector)
    doc = _read(doc, ({"name", "dimension", "coordinates", "domain", "parameters", "signature",
                       "metric", "vectors", "forms", "structures", "frame", "metadata",
                       "manifest"},), _keep, "")
    n = _field(doc, "dimension", (), _numeric(int))
    coords = tuple(_field(doc, "coordinates", (n,), _name))
    domain = _field(doc, "domain", (set(coords),), _keep)
    box = {c: tuple(_field(domain, c, (2,), _real, context="domain")) for c in coords}
    params = _field(doc, "parameters", (dict,), _real, {})
    clash = set(_read(list(params), (None,), _name, "parameter names")) & set(coords)
    if clash:
        raise FileFormatError(f"parameters {sorted(clash)} share a coordinate's name")
    signature = tuple(_field(doc, "signature", (n,), _numeric(int, (1, -1)), [1] * n))
    expr = _expression(set(coords) | set(params))
    try:    # the chart, the metric and the structure check their own geometry
        M = Manifold(Chart(coords, box), metric := _field(doc, "metric", (n, n), expr),
                     params=params, signature=signature, name=_field(doc, "name", (), _text))
        kept = {"name": M.name, "dimension": n, "coordinates": list(coords),
                "domain": {c: list(ends) for c, ends in box.items()}, "signature": list(signature),
                "parameters": params, "metric": metric, "vectors": {}, "forms": {}}
        entry = CatalogEntry(M.name, M, kept,
                             metadata=_field(doc, "metadata", (dict,), _keep, {}))
        if "structures" in doc:
            from .sasaki import MixedThreeStructure
            block = _field(doc, "structures", ({"phi", "xi", "eta"},), _keep)
            kept["structures"] = {key: _field(block, key, (3,) + (n,) * rank, expr,
                                              context="structures")
                                  for key, rank in (("phi", 2), ("xi", 1), ("eta", 1))}
            phi, xi, eta = kept["structures"].values()
            entry.structure = MixedThreeStructure(
                M, [TensorField(p, "ud") for p in phi], [vector(x) for x in xi],
                [one_form(e) for e in eta])
    except GeometryError as exc:
        raise FileFormatError(str(exc)) from exc
    _field(entry.metadata, "einstein_constant", (), _real, 0, context="metadata")
    kept["vectors"] = _field(doc, "vectors", (dict, n), expr, {})
    entry.vectors = {vname: vector(comps) for vname, comps in kept["vectors"].items()}
    for fname, block in _field(doc, "forms", (dict, {"rank", "components"}), _keep, {}).items():
        path = f"forms[{fname!r}]"
        rank = _field(block, "rank", (), _numeric(int, range(n + 1)), context=path)
        comp, given = np.full((n,) * rank, ZERO, dtype=object), {}
        for key, e in _field(block, "components", (dict,), expr, context=path).items():
            where = f"key {key!r} of {path}"
            idx = tuple(_read(key.split(","), (rank,), _numeric(int, range(n)), where))
            if list(idx) != sorted(set(idx)) or idx in given:
                raise FileFormatError(f"{where}: indices must increase strictly, once per form")
            given[idx] = e
            for perm in itertools.permutations(range(rank)):
                comp[tuple(idx[p] for p in perm)] = e if _perm_sign(perm) > 0 else -e
        entry.forms[fname] = TensorField(comp, "d" * rank)
        kept["forms"][fname] = {"rank": rank, "components": {
            ",".join(map(str, idx)): e for idx, e in sorted(given.items()) if e != 0}}
    if "frame" in doc:
        kept["frame"] = _field(doc, "frame", (n, n), expr)
        entry.frame = np.array(kept["frame"], dtype=object)
    entry.manifest = _field(doc, "manifest", (None, {"check", "target", "expect_pass"}), _keep, [])
    kept |= {key: v for key, v in (("metadata", entry.metadata), ("manifest", entry.manifest)) if v}
    kinds = {k: T.variance for k, T in (entry.forms | entry.vectors).items()}
    kinds |= {p + k: kind for p, (_, _, takes, kind) in DERIVED.items() for k, v in kinds.items()
              if TAKES[takes](v, n)}
    for i, item in enumerate(entry.manifest):   # a claim of CLAIMS on the targets of kinds
        where = f"manifest[{i}]"
        claim = CLAIMS[_field(item, "check", (), _leaf(CLAIMS.__contains__,
                                                       f"one of {list(CLAIMS)}"), context=where)]
        fits = {k for k, v in kinds.items() if TAKES[claim.takes](v, n)}
        _field(item, "target", (), _leaf(
            lambda s: len(str.split(s, ",")) == claim.targets and set(s.split(",")) <= fits,
            f"{claim.targets} comma-separated name(s) of its {claim.takes}"), context=where)
        _field(item, "expect_pass", (), _leaf(lambda s: isinstance(s, bool), "a boolean"), True,
               context=where)
    return entry


def export(entry: CatalogEntry) -> dict:
    """The document ingest kept for the entry, each tree printed in the file grammar."""
    from .exprkit import Expr, to_source

    def printed(v):
        if isinstance(v, dict):
            return {k: printed(x) for k, x in v.items()}
        if isinstance(v, list):
            return [printed(x) for x in v]
        return to_source(v) if isinstance(v, Expr) else v
    return printed(entry.document)
