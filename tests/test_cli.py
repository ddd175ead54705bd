import hashlib
import importlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiddensym import catalog, cli, geodesic
from hiddensym.cli import FileFormatError, export, ingest, main
from hiddensym.document import CLAIMS
from hiddensym.manifold import sample_points
from test_algebra import digest


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


MINIMAL = {
    "name": "euclid2",
    "dimension": 2,
    "coordinates": ["x", "y"],
    "domain": {"x": [-1.0, 1.0], "y": [-1.0, 1.0]},
    "signature": [1, 1],
    "parameters": {},
    "metric": [["1", "0"], ["0", "1"]],
    "vectors": {"rot": ["-y", "x"], "dil": ["x", "y"]},
    "forms": {"area": {"rank": 2, "components": {"0,1": "1"}}},
}

# a three-dimensional flat document with an (all-zero) mixed 3-structure block:
# well formed, so each fault planted in it is the one that is rejected
ZERO3 = ["0", "0", "0"]
STRUCTURED = dict(
    MINIMAL, dimension=3, coordinates=["x", "y", "z"], signature=[1, 1, 1],
    domain={c: [-1.0, 1.0] for c in "xyz"}, vectors={}, forms={},
    metric=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    structures={"phi": [[ZERO3] * 3] * 3, "xi": [ZERO3] * 3, "eta": [ZERO3] * 3})


def planted(doc, path, value):
    """A copy of doc, with no entry shared, in which the entry at path (a
    sequence of keys and indices; empty for the whole document) is value."""
    if not path:
        return value
    out = json.loads(json.dumps(doc))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


def paths(doc, prefix=()):
    """The path of doc and of every entry nested in it."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from paths(value, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)


class TestIngest:
    def test_minimal_document(self):
        entry = ingest(MINIMAL)
        assert entry.manifold.dim == 2
        assert "rot" in entry.vectors
        assert entry.forms["area"].components[1, 0] == -1

    def test_missing_field(self):
        with pytest.raises(FileFormatError):
            ingest({"name": "x"})

    def test_asymmetric_metric_rejected(self):
        doc = dict(MINIMAL, metric=[["1", "x"], ["0", "1"]])
        with pytest.raises(FileFormatError):
            ingest(doc)

    def test_unbound_name_rejected(self):
        doc = dict(MINIMAL, vectors={"bad": ["z", "0"]})
        with pytest.raises(FileFormatError):
            ingest(doc)

    def test_bad_expression_rejected(self):
        doc = dict(MINIMAL, vectors={"bad": ["1 +", "0"]})
        with pytest.raises(FileFormatError):
            ingest(doc)

    def test_non_increasing_indices_rejected(self):
        doc = dict(MINIMAL,
                   forms={"bad": {"rank": 2, "components": {"1,0": "1"}}})
        with pytest.raises(FileFormatError):
            ingest(doc)

    @pytest.mark.parametrize("change", [
        {"domain": {"x": [-1.0, float("inf")], "y": [-1.0, 1.0]}},
        {"parameters": {"m": float("nan")}},
    ])
    def test_non_finite_numbers_rejected(self, change):
        with pytest.raises(FileFormatError):
            ingest(dict(MINIMAL, **change))

    @pytest.mark.parametrize("change", [
        {"dimension": "two"},
        {"dimension": 2.5},
        {"signature": [1, "x"]},
        {"forms": {"bad": {"rank": "two", "components": {}}}},
        {"forms": {"bad": {"rank": 2, "components": {"0,x": "1"}}}},
        {"forms": {"bad": {"rank": 0, "components": {"": "1"}}}},
        {"domain": {"x": [-1.0], "y": [-1.0, 1.0]}},
        {"domain": {"x": 1.0, "y": [-1.0, 1.0]}},
        {"domain": {"x": ["low", 1.0], "y": [-1.0, 1.0]}},
        {"parameters": {"m": "heavy"}},
        {"vectors": {"bad": 5}},
        {"vectors": {"bad": "xy"}},
        {"metric": 5},
        {"metric": [1, 2]},
        {"coordinates": 5},
        {"parameters": [1]},
        {"vectors": [1]},
        {"forms": {"f": [1]}},
        {"forms": {"f": {"rank": 1, "components": [1]}}},
        {"parameters": {"x": 1.0}},
        {"structures": [1]},
        {"frame": 3},
        {"frame": [["1"], ["0"]]},
        {"frame": [["z", "0"], ["0", "1"]]},
        {"manifest": [1]},
        {"forms": {"f": {"rank": -1, "components": {}}}},
        {"forms": {"f": {"rank": 3, "components": {}}}},
        {"signature": [1, 2]},
        {"name": 5},
        {"forms": {"f": {"rank": 2, "components": {"0,1": "1", " 0,1": "x"}}}},
        {"coordinates": ["sin", "y"], "domain": {"sin": [0.5, 1.0], "y": [0.5, 1.0]},
         "vectors": {"rot": ["-y", "sin"]}},
        {"metadata": {"einstein_constant": "two"}},
        {"vectors": {"bad": ["10^400", "0"]}},
        {"metric": [["1", "^".join(["x"] * 300)], ["^".join(["x"] * 300), "1"]]},
    ])
    def test_malformed_values_rejected(self, change):
        with pytest.raises(FileFormatError):
            ingest(dict(MINIMAL, **change))

    @pytest.mark.parametrize("spelling", ["1/0", "log(0)", "0^-1", "0/0", "1/(x - x)",
                                          "sqrt(-1)"])
    def test_non_finite_constant_rejected(self, capsys, tmp_path, spelling):
        """A constant that evaluates to zoo, nan or +-oo is a fault of its field
        (lambdify's printer raised KeyError 'ComplexInfinity' on it)."""
        doc = dict(MINIMAL, metric=[[spelling, "0"], ["0", "1"]])
        with pytest.raises(FileFormatError, match=r"^metric\[0\]\[0\] must be finite"):
            ingest(doc)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "killing-vector", "--manifold", str(path),
                     "--target", "rot"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "metric[0][0]" in err

    @pytest.mark.parametrize("doc", [[1], "euclid2", None])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(FileFormatError, match="the document must be an object"):
            ingest(doc)

    def test_structured_document(self):
        assert ingest(STRUCTURED).structure.sasakian_rank == 0

    @pytest.mark.parametrize("path, value, field", [
        (("structures",), [1], "structures"),
        (("structures", "phi"), 1, r"structures\['phi'\]"),
        (("structures", "phi"), [[ZERO3] * 3] * 2, r"structures\['phi'\]"),
        (("structures", "phi", 0, 1), ["0"], r"structures\['phi'\]\[0\]\[1\]"),
        (("structures", "xi", 1), ZERO3 + ["0"], r"structures\['xi'\]\[1\]"),
        (("structures", "eta"), "abc", r"structures\['eta'\]"),
        (("structures", "phi", 0, 2, 1), "q", r"structures\['phi'\]\[0\]\[2\]\[1\]"),
        (("structures", "eta", 2, 0), "q + 1", r"structures\['eta'\]\[2\]\[0\]"),
        (("structures", "xi"), None, r"structures\['xi'\]"),
    ])
    def test_malformed_structures_rejected(self, path, value, field):
        """Each fault is reported with the path of the field that holds it."""
        with pytest.raises(FileFormatError, match=field):
            ingest(planted(STRUCTURED, path, value))

    @pytest.mark.parametrize("doc, path, message", [
        (MINIMAL, ("frames",), r"the document has unknown field\(s\) \['frames'\]"),
        (MINIMAL, ("domain", "z"), r"domain has unknown field\(s\) \['z'\]"),
        (MINIMAL, ("forms", "area", "comps"),
         r"forms\['area'\] has unknown field\(s\) \['comps'\]"),
        (STRUCTURED, ("structures", "zeta"), r"structures has unknown field\(s\) \['zeta'\]"),
    ], ids=["misspelled-frame", "domain-of-no-coordinate", "form-block", "structures-block"])
    def test_unknown_field_refused(self, doc, path, message):
        """A field the format does not have is refused, naming where it is:
        once a misspelled frame was dropped without a word."""
        with pytest.raises(FileFormatError, match=message):
            ingest(planted(doc, path, [["1", "0"], ["0", "1"]]))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(paths(dict(MINIMAL, frame=[["1", "0"], ["0", "1"]])))),
           JSON_VALUES)
    def test_any_planted_value_is_read_or_rejected(self, path, value):
        """Whatever JSON value replaces one field, at any depth, ingest gives
        an entry or raises FileFormatError, never another exception."""
        try:
            ingest(planted(dict(MINIMAL, frame=[["1", "0"], ["0", "1"]]), path, value))
        except FileFormatError:
            pass

    def test_index_out_of_range_rejected(self):
        doc = dict(MINIMAL,
                   forms={"bad": {"rank": 2, "components": {"0,5": "1"}}})
        with pytest.raises(FileFormatError):
            ingest(doc)

    CLAIM = {"check": "killing-vector", "target": "rot", "expect_pass": True}

    @pytest.mark.parametrize("item, message", [
        (dict(CLAIM, check="kiling-vector"), r"manifest\[1\]\['check'\] must be one of \["),
        (dict(CLAIM, check=["ky"]), r"manifest\[1\]\['check'\] must be one of"),
        (dict(CLAIM, target="nosuch"), r"manifest\[1\]\['target'\] must be 1 comma-separated"),
        (dict(CLAIM, target="rot,dil"), r"manifest\[1\]\['target'\]"),
        (dict(CLAIM, target=5), r"manifest\[1\]\['target'\]"),
        (dict(CLAIM, check="quaternion", target="area,area"),
         r"manifest\[1\]\['target'\] must be 3 comma-separated"),
        (dict(CLAIM, check="quaternion", target="area,area,nosuch"), r"manifest\[1\]\['target'\]"),
        ({"check": "ky", "expect_pass": True}, r"missing required field manifest\[1\]\['target'\]"),
        ({"target": "rot"}, r"missing required field manifest\[1\]\['check'\]"),
        (dict(CLAIM, expect_pass="yes"), r"manifest\[1\]\['expect_pass'\] must be a boolean"),
        (dict(CLAIM, expect_pas=False), r"manifest\[1\] has unknown field\(s\) \['expect_pas'\]"),
        (dict(CLAIM, target="area"), r"manifest\[1\]\['target'\] must be 1 comma-separated "
                                     r"name\(s\) of its vectors, not 'area'"),
        (dict(CLAIM, check="sk", target="area"), r"of its symmetric tensors \(forms of rank 0 or 1"),
        (dict(CLAIM, check="spin-commute", target="area"), r"of its vectors, not 'area'"),
        (dict(CLAIM, check="unit-root", target="rot"), r"of its 2-forms, not 'rot'"),
        (dict(CLAIM, check="quaternion", target="area,area,rot"), r"of its 2-forms"),
        (dict(CLAIM, check="cky", target="area"), r"of its forms of rank 1 to n-1"),
        (dict(CLAIM, check="unit-root", target="assoc-sk:area"),
         r"of its 2-forms, not 'assoc-sk:area'"),
        (dict(CLAIM, check="spin-square", target="assoc-sk:area"),
         r"of its 2-forms, not 'assoc-sk:area'"),
        (dict(CLAIM, check="ky", target="assoc-sk:area"), r"of its forms of rank 1 or more, not"),
        (dict(CLAIM, check="sk", target="assoc-sk:rot"), r"S-K squares\), not 'assoc-sk:rot'"),
        (dict(CLAIM, check="sk", target="assoc-sk:nosuch"),
         r"S-K squares\), not 'assoc-sk:nosuch'"),
        (dict(CLAIM, check="sk", target="assoc-sk:assoc-sk:area"), r"S-K squares\), not"),
    ], ids=["misspelled-check", "list-check", "unknown-target", "two-targets", "number-target",
            "quaternion-two", "quaternion-unknown", "no-target", "no-check", "string-expectation",
            "misspelled-field", "form-for-vector", "sk-on-two-form", "spin-commute-on-form",
            "unit-root-on-vector", "quaternion-on-vector", "cky-on-top-form", "unit-root-on-sk",
            "spin-square-on-sk", "ky-on-sk", "sk-of-vector", "sk-of-unknown", "sk-of-sk"])
    def test_manifest_item_refused(self, capsys, tmp_path, item, message):
        """A manifest item must name a check of the claim table and as many of
        the document's objects as the check takes; once such an item was never
        read, and the claim it meant reported expected_pass true."""
        doc = dict(MINIMAL, manifest=[self.CLAIM, item])
        with pytest.raises(FileFormatError, match=message):
            ingest(doc)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "killing-vector", "--manifold", str(path), "--target", "rot"]) == 2
        assert capsys.readouterr().out == ""

    # MINIMAL with a scalar and a 1-form: an object of each kind a claim takes
    KINDS = dict(MINIMAL, forms=MINIMAL["forms"] | {"s": {"rank": 0, "components": {}},
                                                    "dx": {"rank": 1, "components": {"0": "1"}}})

    def test_manifest_items_read(self):
        """Each check of the table is accepted on objects of the document it
        takes, and expect_pass may be left out."""
        targets = {"killing-vector": "rot", "cky": "dx", "ky": "area", "sk": "dx",
                   "covconst": "rot", "unit-root": "area", "quaternion": "area,area,area",
                   "spin-anticommute": "area", "spin-commute": "rot", "spin-square": "area"}
        assert targets.keys() == CLAIMS.keys()
        items = [{"check": name, "target": target} for name, target in targets.items()]
        items += [{"check": "sk", "target": "assoc-sk:dx"},
                  {"check": "sk", "target": "assoc-sk:area"}]
        assert ingest(dict(self.KINDS, manifest=items)).manifest == items

    def test_manifest_accepts_what_its_command_decides(self, capsys, tmp_path):
        """Ingest accepts a claim on an object exactly when the claim's command
        on that object reaches a verdict (exit 0 or 1): each check of the
        table on each of a vector, a scalar, a 1-form and a 2-form, and on the
        S-K square (assoc-sk:) of each, which only a form of rank 1 or more has."""
        path = tmp_path / "kinds.json"
        path.write_text(json.dumps(self.KINDS))
        for name, claim in CLAIMS.items():
            for target in ("rot", "s", "dx", "area", "assoc-sk:rot", "assoc-sk:s", "assoc-sk:dx",
                           "assoc-sk:area"):
                item = {"check": name, "target": ",".join([target] * claim.targets)}
                try:
                    accepted = bool(ingest(dict(self.KINDS, manifest=[item])))
                except FileFormatError:
                    accepted = False
                argv = manifest_argv(item) + ["--manifold", str(path), "--points", "3"]
                code = main(argv + (["--bank", "1"] if claim.kinds else []))
                capsys.readouterr()
                assert code != 3 and accepted == (code in (0, 1)), (item, code)


def component_arrays(entry) -> dict:
    """Every component array of a catalog entry by name: the metric, the
    vectors, the forms, the mixed 3-structure and the frame."""
    arrays = {"metric": entry.manifold.metric.tolist()}
    arrays.update((f"vector {k}", X.components) for k, X in entry.vectors.items())
    arrays.update((f"form {k}", F.components) for k, F in entry.forms.items())
    if entry.structure is not None:
        for name in ("phi", "xi", "eta"):
            arrays.update((f"{name}[{a}]", T.components)
                          for a, T in enumerate(getattr(entry.structure, name)))
    if entry.frame is not None:
        arrays["frame"] = entry.frame
    return arrays


def largest_relative_gap(entry, other, points=10) -> float:
    """The largest difference between the values of two entries' arrays at
    seeded points, each relative to the largest value of its array."""
    pts = sample_points(entry.manifold.chart, points, seed=0)
    mine, theirs = component_arrays(entry), component_arrays(other)
    assert mine.keys() == theirs.keys()
    gaps = [0.0]
    for key in mine:
        a = entry.manifold.evaluate(np.array(mine[key], dtype=object), pts)
        b = other.manifold.evaluate(np.array(theirs[key], dtype=object), pts)
        if np.any(a != b):
            gaps.append(np.max(np.abs(a - b)) / np.max(np.abs(a)))
    return max(gaps)


# MINIMAL with every optional field a document may give
RICH = dict(MINIMAL, parameters={"a": 2.0}, frame=[["1", "0"], ["0", "1"]],
            metadata={"source": "a test"}, manifest=[{"check": "killing-vector", "target": "rot"}])
OPTIONAL = ["parameters", "signature", "vectors", "forms", "frame", "metadata", "manifest"]


def export_fault(doc: dict, export) -> str | None:
    """None when the export of a document that ingest accepts holds every
    field the document gave (an empty metadata or manifest may be left out)
    and the defaults parameters and signature, keeps the name, coordinates,
    metadata and manifest as given, and comes back unchanged when it is
    ingested and exported again; else what is wrong."""
    out = export(ingest(doc))
    given_fields = {k for k, v in doc.items() if v or k not in ("metadata", "manifest")}
    missing = sorted((given_fields | {"parameters", "signature"}) - out.keys())
    if missing:
        return f"the export lacks {missing}"
    changed = [k for k in ("name", "coordinates", "metadata", "manifest")
               if k in given_fields and out[k] != doc[k]]
    if changed:
        return f"the export changes {changed}"
    return None if export(ingest(out)) == out else "re-ingesting the export changes it"


class TestExportRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(paths(RICH))), JSON_VALUES, st.sets(st.sampled_from(OPTIONAL)))
    def test_export_holds_what_ingest_read(self, path, value, dropped):
        """Whatever document ingest accepts, one value planted at any depth and
        optional fields left out, its export holds every field it gave."""
        doc = planted(RICH, path, value)
        if isinstance(doc, dict):
            doc = {k: v for k, v in doc.items() if k not in dropped}
        try:
            ingest(doc)
        except FileFormatError:
            return
        assert export_fault(doc, export) is None

    def test_planted_export_without_frame_fails(self):
        assert export_fault(RICH, export) is None
        assert export_fault(RICH, lambda e: {k: v for k, v in export(e).items()
                                             if k != "frame"}) == "the export lacks ['frame']"

    def test_document_is_kept_in_one_form(self):
        """Defaults filled in, each expression printed from its tree, a form's
        nonzero components under increasing index keys in index order, and an
        empty metadata and manifest left out."""
        metric = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        doc = {"name": "flat", "dimension": 3, "coordinates": ["x", "y", "z"], "metric": metric,
               "domain": {"x": [-1, 1], "y": [-1, 1.5], "z": [0, 1]},
               "vectors": {"rot": ["-(y)", "x", 0]}, "metadata": {}, "manifest": [],
               "forms": {"f": {"rank": 2, "components": {"1, 2": "(z)", "00,01": "x", "0,2": 0}}}}
        out = export(ingest(doc))
        assert out == {
            "name": "flat", "dimension": 3, "coordinates": ["x", "y", "z"], "metric": metric,
            "domain": {"x": [-1.0, 1.0], "y": [-1.0, 1.5], "z": [0.0, 1.0]},
            "signature": [1, 1, 1], "parameters": {}, "vectors": {"rot": ["-y", "x", "0"]},
            "forms": {"f": {"rank": 2, "components": {"0,1": "x", "1,2": "z"}}}}
        assert list(out["forms"]["f"]["components"]) == ["0,1", "1,2"]


    def test_every_field_survives(self, entry):
        """ingest(export(entry)) carries the entry's chart, signature and, to
        roundoff, every array it has: the rewritten hyperbolics included."""
        back = ingest(export(entry))
        assert back.manifold.chart == entry.manifold.chart
        assert back.manifold.signature == entry.manifold.signature
        assert largest_relative_gap(entry, back) <= 1e-12

    def test_planted_metric_swap_is_seen(self, tn):
        doc = export(tn)
        doc["metric"][0][0], doc["metric"][1][1] = doc["metric"][1][1], doc["metric"][0][0]
        assert largest_relative_gap(tn, ingest(doc)) > 1e-12

    @pytest.mark.parametrize("name", ["flat3", "sphere2"])
    def test_round_trip_preserves_outcomes(self, name):
        from hiddensym import catalog
        from hiddensym.killing import killing_vector_residual
        entry = catalog.get(name)
        back = ingest(export(entry))
        assert back.manifold.dim == entry.manifold.dim
        for item in entry.manifest:
            orig = killing_vector_residual(entry.vectors[item["target"]],
                                           entry.manifold, points=5)
            redo = killing_vector_residual(back.vectors[item["target"]],
                                           back.manifold, points=5)
            assert orig.passed == redo.passed

    def test_export_is_json_serializable(self, ps):
        text = json.dumps(export(ps), sort_keys=True)
        doc = json.loads(text)
        assert "structures" in doc
        # the file grammar has no hyperbolics
        assert "sinh" not in text and "cosh" not in text


class TestCheckCommand:
    def test_pass_gives_exit_zero(self, capsys):
        code, reports = run(capsys, "check", "killing-vector",
                            "--catalog", "sphere2", "--target", "dphi")
        assert code == 0
        assert reports[0]["pass"] is True
        assert reports[0]["meets_expectation"] is True

    def test_expected_failure_counts_as_success(self, capsys):
        code, reports = run(capsys, "check", "killing-vector",
                            "--catalog", "flat3", "--target", "dilation")
        assert code == 0
        assert reports[0]["pass"] is False
        assert reports[0]["expected_pass"] is False

    def test_unexpected_failure_gives_exit_one(self, capsys, tmp_path):
        doc = dict(MINIMAL)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, reports = run(capsys, "check", "killing-vector",
                            "--manifold", str(path), "--target", "dil")
        assert code == 1
        assert reports[0]["pass"] is False

    def test_long_metric_entry_compiles(self, capsys, tmp_path):
        """A 5000-term sum once became one expression 5000 levels deep in the
        generated code (exit 3, RecursionError during compilation)."""
        terms = range(1, 5001)
        doc = dict(MINIMAL, domain={"x": [0.1, 0.5], "y": [-1.0, 1.0]},
                   metric=[[" + ".join(["1", *(f"x/{k}" for k in terms)]), "0"], ["0", "1"]],
                   vectors={"ty": ["0", "1"]}, forms={})
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, reports = run(capsys, "check", "killing-vector",
                            "--manifold", str(path), "--target", "ty")
        assert code in (0, 1) and reports[0]["points"] == 20
        M = ingest(doc).manifold
        pts = sample_points(M.chart, 20, seed=0)
        want = [sum((p["x"] / k for k in terms), 1.0) for p in pts]
        assert np.allclose(M.evaluate(M.metric, pts)[:, 0, 0], want, rtol=1e-13, atol=0)

    def test_file_error_gives_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run(capsys, "check", "ky", "--manifold", str(path),
                      "--target", "f")
        assert code == 2

    @pytest.mark.parametrize("doc, argv", [
        (planted(STRUCTURED, ("structures", "phi", 0, 2, 1), "q"),
         ["sasaki", "witness", "--points", "2"]),
        (dict(MINIMAL, frame=[["1"], ["0"]]),
         ["spin", "commute", "--target", "rot", "--points", "2", "--bank", "1"]),
        (dict(MINIMAL, manifest=[1]), ["check", "killing-vector", "--target", "rot"]),
    ], ids=["structures", "frame", "manifest"])
    def test_malformed_block_gives_exit_two(self, capsys, tmp_path, doc, argv):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main(argv + ["--manifold", str(path)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_form_fails_without_a_warning(self, capsys, tmp_path):
        """A form whose values overflow to inf fails each check of it (exit 1),
        and neither the input guard's inf - inf nor a matrix product of the
        values prints a RuntimeWarning."""
        entry = "x"
        for _ in range(49):
            entry = f"(x+{entry})^2"
        coords = ["x", "y", "z", "w"]
        doc = dict(MINIMAL, dimension=4, coordinates=coords, signature=[1] * 4,
                   domain={c: [-1.0, 1.0] for c in coords}, vectors={},
                   metric=[["1" if i == j else "0" for j in range(4)] for i in range(4)],
                   forms={"f": {"rank": 2, "components": {"0,1": entry, "2,3": "1"}}})
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        for check, target in (("ky", "f"), ("unit-root", "f"), ("quaternion", "f,f,f")):
            code, reports = run(capsys, "check", check, "--manifold", str(path),
                                "--target", target)
            assert code == 1, check
            assert reports[0]["pass"] is False, check
            assert reports[0]["extra"]["non_finite_points"] > 0, check

    def test_faulty_catalog_document_gives_exit_two(self, tmp_path):
        """A fault in a stored catalog document is a file error under
        `python -m hiddensym.cli` too.  Reading the documents once loaded a
        second copy of the CLI module, whose FileFormatError the running
        copy did not know: exit 3 and 'internal error: FileFormatError'."""
        package = tmp_path / "hiddensym"
        shutil.copytree(Path(__file__).resolve().parents[1] / "src" / "hiddensym", package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        stored = package / "data" / "flat3.json"
        doc = json.loads(stored.read_text())
        doc["metric"][0][0] = "1 +"
        stored.write_text(json.dumps(doc))
        done = subprocess.run([sys.executable, "-m", "hiddensym.cli", "check", "killing-vector",
                               "--catalog", "flat3", "--target", "dilation"],
                              cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(tmp_path)),
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: bad expression in metric[0][0]")

    def test_unknown_catalog_gives_exit_two(self, capsys):
        code, _ = run(capsys, "check", "ky", "--catalog", "nope",
                      "--target", "f")
        assert code == 2

    def test_usage_error_gives_exit_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_internal_error_gives_exit_three(self, capsys, monkeypatch):
        from hiddensym import killing

        def boom(*a, **k):
            raise RuntimeError("synthetic")
        monkeypatch.setattr(killing, "killing_vector_residual", boom)
        code, _ = run(capsys, "check", "killing-vector",
                      "--catalog", "sphere2", "--target", "dphi")
        assert code == 3

    def test_byte_identical_reports(self, capsys):
        _, _ = run(capsys, "check", "killing-vector",
                   "--catalog", "sphere2", "--target", "dphi")
        main(["check", "killing-vector", "--catalog", "sphere2",
              "--target", "dphi"])
        first = capsys.readouterr().out
        main(["check", "killing-vector", "--catalog", "sphere2",
              "--target", "dphi"])
        second = capsys.readouterr().out
        assert first == second


class TestConstructCommand:
    @pytest.mark.parametrize("target, want", [
        ("f1", "0d5880cfdd19b160"), ("f2", "685a8e0169937b32"),
        ("f3", "57a02bb0af172a98"), ("fY", "d3afc5f06ac4e153"),
        ("f1_raw", "a993a3c37b496d89"), ("f2_raw", "2884ed0df16c199e"),
        ("f3_raw", "23dc0600456b2437"), ("fY_raw", "cd05c129600d35bf"),
        ("eta1", "d98e46e4465283bf"), ("eta2", "74d11bc16942f334"),
        ("eta3", "3bad0d72816bb3f7")])
    def test_emitted_components_are_pinned(self, capsys, target, want):
        """The text of the square's components, as --emit-components prints it,
        for every catalog form: Taub-NUT's and the pseudo-sphere's one-forms."""
        catalog = "pseudo-sphere" if target.startswith("eta") else "taub-nut"
        code, (report, emitted) = run(capsys, "construct", "assoc-sk", "--catalog",
                                      catalog, "--target", target, "--emit-components")
        assert code == 0 and report["pass"]
        assert digest(emitted) == want


class TestDerivedTarget:
    def test_check_sk_on_a_derived_target_is_construct(self, capsys):
        """`check sk` on assoc-sk:fY is the report `construct assoc-sk` gives for
        fY, the target name aside: one resolver builds the square for both."""
        code, (checked,) = run(capsys, "check", "sk", "--catalog", "taub-nut",
                               "--target", "assoc-sk:fY")
        assert code == 0 and checked["pass"] and checked["target"] == "assoc-sk:fY"
        code, (constructed,) = run(capsys, "construct", "assoc-sk", "--catalog", "taub-nut",
                                   "--target", "fY")
        assert code == 0 and constructed["target"] == "fY"
        assert checked | {"target": "fY"} == constructed


class TestWrongKindTarget:
    """A target of the wrong kind for the check or operator is a usage
    error: exit 2, an error line, nothing on stdout.  Each of these once
    exited 3 on an internal ValueError, or printed a report on the wrong
    tensor (a vector's KY, CKY and S-K reports, and its square)."""

    CASES = [
        (["spin", "anticommute", "--catalog", "taub-nut", "--target", "kchi"],
         "dirac-type payload must be a covariant two-form"),
        (["spin", "commute", "--catalog", "taub-nut", "--target", "f1"],
         "killing-op payload must be a vector field"),
        (["spin", "square", "--catalog", "flat4", "--target", "translation"],
         "dirac-type payload must be a covariant two-form"),
        (["check", "quaternion", "--catalog", "taub-nut", "--target", "kchi,k1,k2"],
         "quaternion_relations_check needs covariant slots, not variance 'u'"),
        (["check", "ky", "--catalog", "taub-nut", "--target", "k1"],
         "ky_residual needs covariant slots, not variance 'u'"),
        (["check", "ky", "--catalog", "flat3", "--target", "translation"],
         "ky_residual needs covariant slots, not variance 'u'"),
        (["check", "cky", "--catalog", "flat3", "--target", "translation"],
         "cky_residual needs covariant slots, not variance 'u'"),
        (["check", "sk", "--catalog", "flat3", "--target", "translation"],
         "sk_residual needs covariant slots, not variance 'u'"),
        (["construct", "assoc-sk", "--catalog", "flat3", "--target", "translation"],
         "the S-K square needs covariant slots, not variance 'u'"),
        (["check", "unit-root", "--catalog", "sphere2", "--target", "dphi"],
         "unit_root_check needs a 2-form"),
        (["check", "ky", "--catalog", "taub-nut", "--target", "assoc-sk:f1"],
         "ky_residual requires an antisymmetric form"),
        (["check", "unit-root", "--catalog", "taub-nut", "--target", "assoc-sk:f1"],
         "the S-K square has no components; sk and invariants read its jets"),
        (["check", "quaternion", "--catalog", "taub-nut", "--target", "assoc-sk:f1,f2,f3"],
         "the S-K square has no components; sk and invariants read its jets"),
        (["spin", "square", "--catalog", "taub-nut", "--target", "assoc-sk:f1"],
         "the S-K square has no components; sk and invariants read its jets"),
        (["spin", "commute", "--catalog", "taub-nut", "--target", "assoc-sk:f1"],
         "killing-op payload must be a vector field"),
    ]

    @pytest.mark.parametrize("argv, message", CASES,
                             ids=["-".join(argv[:2] + argv[3::2]) for argv, _ in CASES])
    def test_wrong_kind_gives_exit_two(self, capsys, argv, message):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", f"error: {message}\n")


# a flat five-dimensional document: well formed, with a vector and a 2-form,
# in a dimension the spin layer has no gamma representation for
FLAT5 = dict(MINIMAL, name="flat5", dimension=5, coordinates=list("abcde"), signature=[1] * 5,
             domain={c: [-1.0, 1.0] for c in "abcde"}, vectors={"t": ["1", "0", "0", "0", "0"]},
             metric=[["1" if i == j else "0" for j in range(5)] for i in range(5)],
             forms={"w": {"rank": 2, "components": {"0,1": "1"}}})

TN_ORBIT = ["geodesic", "run", "--catalog", "taub-nut",
            "--position", "r=2.0,theta=1.5,phi=0.5,chi=6.0",
            "--velocity", "r=-0.5,theta=0.02,phi=0.2,chi=0.1"]


class TestRefusals:
    """An input the library cannot serve exits 2 with one error line and
    nothing on stdout, and writes no output file.  Before this rule a
    2-form as --invariant passed on a contraction that antisymmetry makes
    zero (exit 0), an unknown or wrong-kind invariant was refused only after
    the orbit's energy line was printed, an unwritable --csv or --out exited
    3 (FileNotFoundError, after the energy line for --csv), a spin command on
    a 5-D manifold exited 3 (ValueError), and so did `check ky` on a scalar
    (AxisError), `check quaternion` on 1-forms and `construct assoc-sk` on a
    scalar (ValueError)."""

    SHORT = TN_ORBIT + ["--t1", "2", "--step", "0.01"]
    CASES = {
        "invariant-f1": (SHORT + ["--invariant", "f1"],
                         "a geodesic invariant requires a vector field or a symmetric tensor"),
        "invariant-f1_raw": (SHORT + ["--invariant", "f1_raw"],
                             "a geodesic invariant requires a vector field or a symmetric tensor"),
        "invariant-nosuch": (SHORT + ["--invariant", "nosuch"],
                             "no object named 'nosuch' in catalog entry 'taub-nut'"),
        "target-nosuch": (["check", "ky", "--catalog", "taub-nut", "--target", "nosuch"],
                          "no object named 'nosuch' in catalog entry 'taub-nut'"),
        "catalog-nosuch": (["check", "ky", "--catalog", "nosuch", "--target", "f1"],
                           "unknown catalog entry 'nosuch'; choices: flat3, flat4, "
                           "pseudo-sphere, sphere2, taub-nut"),
        "invariant-assoc-sk-kchi": (SHORT + ["--invariant", "assoc-sk:kchi"],
                                    "the S-K square needs covariant slots, not variance 'u'"),
        "csv-unwritable": (SHORT + ["--csv", "{missing}/x.csv"],
                           "cannot write {missing}/x.csv: No such file or directory"),
        "out-unwritable": (["catalog", "export", "--catalog", "taub-nut", "--out",
                            "{missing}/x.json"],
                           "cannot write {missing}/x.json: No such file or directory"),
        "spin-commute-5d": (["spin", "commute", "--manifold", "{flat5}", "--target", "t"],
                            "gamma representations provided for dimensions 2-4, not 5"),
        "spin-anticommute-5d": (["spin", "anticommute", "--manifold", "{flat5}", "--target", "w"],
                                "gamma representations provided for dimensions 2-4, not 5"),
        "ky-rank-0": (["check", "ky", "--manifold", "{kinds}", "--target", "s"],
                      "ky_residual needs a form of rank p >= 1"),
        "quaternion-rank-1": (["check", "quaternion", "--manifold", "{kinds}", "--target",
                               "dx,dx,dx"], "quaternion_relations_check needs 2-forms"),
        "assoc-sk-rank-0": (["construct", "assoc-sk", "--manifold", "{kinds}", "--target", "s"],
                            "the S-K square needs a form of rank p >= 1"),
    }

    @pytest.mark.parametrize("argv, message", CASES.values(), ids=CASES.keys())
    def test_refused_input_prints_nothing(self, capsys, tmp_path, argv, message):
        (tmp_path / "flat5.json").write_text(json.dumps(FLAT5))
        (tmp_path / "kinds.json").write_text(json.dumps(TestIngest.KINDS))
        where = {"missing": str(tmp_path / "missing"), "flat5": str(tmp_path / "flat5.json"),
                 "kinds": str(tmp_path / "kinds.json")}
        code = main([arg.format(**where) for arg in argv])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", f"error: {message.format(**where)}\n")

    @pytest.mark.parametrize("invariant", ["nosuch", "assoc-sk:kchi", "f1", "f1_raw"])
    def test_invariant_refused_before_integrating(self, capsys, monkeypatch, invariant):
        """An unknown name and a vector's S-K square are refused where they are
        built, and a form by the invariant's guard at the start state."""
        def refuse(*args):
            raise AssertionError("integrated an orbit for a refused invariant")

        monkeypatch.setattr(geodesic, "integrate", refuse)
        assert main(self.SHORT + ["--invariant", invariant]) == 2
        assert capsys.readouterr().out == ""

    def test_refused_form_writes_no_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "orbit.csv"
        assert main(self.SHORT + ["--invariant", "f1", "--csv", str(csv_path)]) == 2
        assert capsys.readouterr().out == "" and not csv_path.exists()


class TestGeodesicOutputs:
    """What the geodesic command prints and writes, as before the refusal rule."""

    def test_readme_orbit_unchanged(self, capsys, tmp_path):
        """The README's geodesic command: the energy line, then the invariant
        line, and the CSV, byte for byte."""
        csv_path = tmp_path / "orbit.csv"
        code = main(TN_ORBIT + ["--t1", "10", "--step", "0.001", "--invariant", "assoc-sk:fY",
                                "--csv", str(csv_path)])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out == (
            '{"exited_domain":false,"initial":1.3018896025691695,"invariant":"energy",'
            '"max_drift":1.7541523789077473e-14,"pass":true,'
            '"relative_drift":1.3473894986533998e-14,"steps_kept":1001,"tolerance":1e-08}\n'
            '{"initial":-2.74908420012149,"invariant":"assoc-sk:fY",'
            '"max_drift":2.842170943040401e-14,"pass":true,'
            '"relative_drift":1.0338610010252858e-14,"tolerance":1e-06}\n')
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
            "9e7279b4bc6c1ac37bfa3b7b6f610a13da25cbf18d7c7c1877da9fbb09f121fe")

    def test_csv_written_when_the_drift_check_fails(self, capsys, tmp_path):
        """An orbit that leaves the chart at its first step fails its drift
        check (exit 1), and its one kept state is still written."""
        csv_path = tmp_path / "orbit.csv"
        code, reports = run(capsys, "geodesic", "run", "--catalog", "sphere2",
                            "--position", "theta=1.0,phi=1.0", "--velocity", "theta=1e100,phi=0.1",
                            "--t1", "1", "--step", "0.01", "--csv", str(csv_path))
        assert code == 1 and [r["pass"] for r in reports] == [False]
        assert csv_path.read_text().splitlines() == [
            "t,theta,phi,dtheta,dphi", "0.0,1.0,1.0,1e+100,0.1"]


def readme_commands() -> list[list[str]]:
    """The arguments of each `hiddensym ...` line of the README's usage block,
    its backslash continuations joined and its comments dropped."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command-line usage")[1].split("```sh\n")[1].split("```")[0]
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    return [words[1:] for words in lines if words]


class TestReadmeUsage:
    def test_every_command_exits_zero(self, capsys, monkeypatch, tmp_path):
        """Each command of the README runs, in order in one directory, and exits
        0: an expected failure meets its manifest expectation.  A renamed
        subcommand, flag or target fails here, not for a reader."""
        commands = readme_commands()
        assert len(commands) == 21
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert main(argv) == 0, f"hiddensym {' '.join(argv)}: {capsys.readouterr().err}"
        assert capsys.readouterr().err == ""


class TestPrettyFlag:
    def test_pretty_prints_the_report_indented(self, capsys):
        """--pretty prints each report as indented JSON, the same object as
        the default line."""
        argv = ["check", "unit-root", "--catalog", "taub-nut", "--target", "fY", "--points", "5"]
        code, (line,) = run(capsys, *argv)
        assert main(argv + ["--pretty"]) == code == 0
        out = capsys.readouterr().out
        assert out.startswith('{\n  "check": "unit-root",\n') and json.loads(out) == line
        assert line["expected_pass"] is False and line["meets_expectation"] is True


class TestJsonFlag:
    @pytest.mark.parametrize("argv", [
        ["check", "killing-vector", "--catalog", "flat3", "--target", "translation"],
        ["algebra", "table", "--cutoff", "1"],
    ])
    def test_json_flag_prints_the_default_output(self, capsys, argv):
        """--json names the default JSON-lines output and changes nothing."""
        code = main(argv)
        plain = capsys.readouterr().out
        assert main(argv + ["--json"]) == code
        assert capsys.readouterr().out == plain


class TestAlgebraCommand:
    def test_jacobi(self, capsys):
        code, reports = run(capsys, "algebra", "jacobi", "--cutoff", "3")
        assert code == 0
        assert all(r["pass"] for r in reports)

    def test_quaternion_units(self, capsys):
        code, reports = run(capsys, "algebra", "quaternion-units")
        assert code == 0 and reports[0]["pass"]

    def test_table(self, capsys):
        code, reports = run(capsys, "algebra", "table", "--cutoff", "1")
        assert code == 0
        assert "[J1,J2]" in reports[0]["finite"]


class TestGeodesicCommand:
    def test_run_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "t.csv"
        code, reports = run(capsys, "geodesic", "run", "--catalog", "sphere2",
                            "--position", "theta=1.0,phi=0.5",
                            "--velocity", "theta=0.2,phi=0.4",
                            "--t1", "1.0", "--step", "0.01",
                            "--csv", str(csv_path))
        assert code == 0
        assert reports[0]["invariant"] == "energy" and reports[0]["pass"]
        assert csv_path.exists()

    def test_one_kept_state_fails(self, capsys):
        """A velocity of 1e100 leaves the chart at the first step, so only the
        start is kept: its drift of 0.0 once passed, with exit 0."""
        code, reports = run(capsys, "geodesic", "run", "--catalog", "sphere2",
                            "--position", "theta=1.0,phi=1.0", "--velocity", "theta=1e100,phi=0.1",
                            "--t1", "1", "--step", "0.01")
        assert code == 1
        assert reports == [{"exited_domain": True, "initial": 1e200, "invariant": "energy",
                            "max_drift": 0.0, "pass": False, "relative_drift": 0.0,
                            "steps_kept": 1, "tolerance": 1e-08}]

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_complex_spray_leaves_the_chart(self, capsys, tmp_path, method):
        """On g_xx = 2 + x^(5/2) the spray has no real value at x < 0; the
        orbit heading there once ended in exit 3 ("'<=' not supported between
        instances of 'float' and 'complex'")."""
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(MINIMAL, domain={"x": [-2.0, 2.0], "y": [-2.0, 2.0]},
                                        metric=[["2 + x^(5/2)", "0"], ["0", "1"]])))
        code, reports = run(capsys, "geodesic", "run", "--manifold", str(path),
                            "--position", "x=0.5,y=0", "--velocity", "x=-1,y=0.3",
                            "--t1", "2", "--step", "0.01", "--method", method)
        assert code in (0, 1) and reports[0]["exited_domain"] is True

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_overflowing_step_count_rejected(self, capsys, method):
        """--t1 1e300 and --step 1e-300 each pass their own check, but their
        step count is not finite: once exit 3 (OverflowError).  IntegratorConfig
        names both in its refusal."""
        code = main(["geodesic", "run", "--catalog", "sphere2", "--position", "theta=1.0,phi=0.5",
                     "--velocity", "theta=0.2,phi=0.4", "--t1", "1e300", "--step", "1e-300",
                     "--method", method])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("error: t_span (0.0, 1e+300) over step 1e-300 is not a finite number of "
                       f"steps up to {geodesic.MAX_STEPS}\n")

    def test_subnormal_step_rejected(self, capsys):
        """--step 1e-320 over the default --t1 is not a finite step count:
        IntegratorConfig's message, exit 2, built from the flags before the entry loads."""
        code = main(["geodesic", "run", "--catalog", "sphere2", "--position", "theta=1.0,phi=0.5",
                     "--velocity", "theta=0.2,phi=0.4", "--step", "1e-320"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "t_span (0.0, 10.0) over step 1e-320 is not a finite number of steps" in err

    def test_step_count_above_the_bound_rejected(self, capsys):
        """--step 1e-300 over --t1 1 is a finite count of 1e300 steps, which
        once started the loop and ran without end."""
        start = time.perf_counter()
        code = main(TN_ORBIT + ["--t1", "1", "--step", "1e-300"])
        out, err = capsys.readouterr()
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == ("error: t_span (0.0, 1.0) over step 1e-300 is not a finite number of "
                       f"steps up to {geodesic.MAX_STEPS}\n")

    def test_bad_coordinate_rejected(self, capsys):
        code, _ = run(capsys, "geodesic", "run", "--catalog", "sphere2",
                      "--position", "q=1.0,phi=0.5",
                      "--velocity", "theta=0.2,phi=0.4")
        assert code == 2

    @pytest.mark.parametrize("invariant, initial", [("assoc-sk:fY", -2.74908420012149),
                                                    ("kchi", 0.6087863484455498)])
    def test_invariant_is_monitored(self, capsys, invariant, initial):
        """--invariant monitors an S-K square (assoc-sk:FORM) or a Killing
        vector, lowered by the metric, along the criterion-4 orbit."""
        code, reports = run(capsys, "geodesic", "run", "--catalog", "taub-nut",
                            "--position", "r=2.0,theta=1.5,phi=0.5,chi=6.0",
                            "--velocity", "r=-0.5,theta=0.02,phi=0.2,chi=0.1",
                            "--t1", "2", "--step", "0.01", "--invariant", invariant)
        assert code == 0
        assert [r["invariant"] for r in reports] == ["energy", invariant]
        assert reports[1]["initial"] == initial
        assert reports[1]["pass"] and reports[1]["relative_drift"] < 1e-10


class TestSasakiCommand:
    def test_einstein(self, capsys):
        code, reports = run(capsys, "sasaki", "einstein",
                            "--catalog", "pseudo-sphere", "--points", "5")
        assert code == 0 and reports[0]["pass"]

    def test_structure_required(self, capsys):
        code, _ = run(capsys, "sasaki", "verify", "--catalog", "sphere2")
        assert code == 2

    def test_witness(self, capsys):
        """The witness report finds (grad_X phi_a) X != 0 for each alpha, and
        each xi_a is Killing, as the conformal-to-Killing corollary says."""
        code, reports = run(capsys, "sasaki", "witness", "--catalog", "pseudo-sphere",
                            "--points", "5")
        assert code == 0
        assert [r["check"] for r in reports] == ["phi-not-killing-witness"] + [
            "conformal-to-killing"] * 3
        assert [w["alpha"] for w in reports[0]["extra"]["witnesses"]] == [1, 2, 3]
        assert all(r["pass"] and r["seed"] == 0 for r in reports)
        assert [r["extra"]["status"] for r in reports[1:]] == ["killing"] * 3

    def test_cone_reports_honour_points(self, capsys):
        code, reports = run(capsys, "sasaki", "cone",
                            "--catalog", "pseudo-sphere", "--points", "5")
        assert code == 0
        assert [r["points"] for r in reports] == [5, 5, 5]


class TestSpinCommand:
    def test_commute(self, capsys):
        code, reports = run(capsys, "spin", "commute", "--catalog", "taub-nut",
                            "--target", "kchi")
        assert code == 0
        assert reports[0]["pass"] is True

    def test_entry_without_a_frame_takes_the_diagonal_one(self, capsys):
        """flat4 carries no frame: the diagonal orthonormal frame of its
        metric is taken, and a translation commutes with D_s exactly."""
        code, reports = run(capsys, "spin", "commute", "--catalog", "flat4",
                            "--target", "translation")
        assert code == 0
        assert reports[0]["check"] == "commutator" and reports[0]["pass"]
        assert reports[0]["max_residual"] == 0.0 and reports[0]["extra"]["bank_size"] == 5

    def test_non_unit_root_square_is_an_expected_failure(self, capsys):
        code, reports = run(capsys, "spin", "square", "--catalog", "taub-nut",
                            "--target", "fY")
        assert code == 0
        assert reports[0]["pass"] is False
        assert reports[0]["meets_expectation"] is True

    @pytest.fixture(scope="class")
    def exported(self, tn):
        return export(tn)

    @pytest.mark.parametrize("fault", [None, "zeroed-entry", "identity", "signature"])
    @pytest.mark.parametrize("argv", [["anticommute", "--target", "f1"],
                                      ["commute", "--target", "kchi"],
                                      ["square", "--target", "f2"]],
                             ids=["anticommute", "commute", "square"])
    def test_frame_must_give_the_metric(self, capsys, tmp_path, exported, fault, argv):
        """A Taub-NUT file whose frame does not give its metric is a file
        error, whichever identity is asked for."""
        doc = json.loads(json.dumps(exported))
        if fault == "zeroed-entry":     # 4m sqrt(r/(4m + r)) cos(theta)
            doc["frame"][3][2] = "0"
        elif fault == "identity":
            doc["frame"] = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
        elif fault == "signature":
            doc["signature"] = [1, 1, -1, -1]
        path = tmp_path / "tn.json"
        path.write_text(json.dumps(doc))
        code = main(["spin", *argv, "--manifold", str(path), "--points", "3", "--bank", "2"])
        captured = capsys.readouterr()
        if fault is None:
            assert code == 0
            assert json.loads(captured.out)["pass"] is True
        else:
            assert code == 2
            assert captured.out == ""
            assert "frame does not give the metric" in captured.err

    def test_non_finite_frame_is_left_to_the_report(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(MINIMAL, frame=[["sqrt(x - 5)", "0"], ["0", "1"]])))
        code = main(["spin", "commute", "--manifold", str(path), "--target", "rot",
                     "--points", "3", "--bank", "1"])
        reports = _strict(capsys.readouterr().out)
        assert code == 1
        assert reports[0]["extra"]["non_finite_points"] == 3


def manifest_argv(item) -> list[str]:
    """The command of a manifest item: spin MODE for spin-MODE, else check NAME."""
    check = item["check"]
    head = ["spin", check.removeprefix("spin-")] if CLAIMS[check].kinds else ["check", check]
    return head + ["--target", item["target"]]


class TestClaimTable:
    @pytest.mark.parametrize("name", catalog._NAMES)
    def test_every_manifest_claim_meets_its_expectation(self, capsys, name):
        """Each item of the entry's manifest, run as its command at the
        command's default points, exits 0 with meets_expectation."""
        for item in catalog.get(name).manifest:
            code, (report,) = run(capsys, *manifest_argv(item), "--catalog", name)
            assert (code, report["meets_expectation"]) == (0, True), item
            assert report["expected_pass"] is item["expect_pass"], item

    @pytest.mark.parametrize("name", ["ds2", "ads3"])
    def test_every_test_document_claim_meets_its_expectation(self, capsys, name):
        """On de Sitter dS2 and anti-de Sitter AdS3 every Killing vector
        commutes with the Dirac operator, whether its covariant derivative
        pairs frame directions of opposite signs (each of dS2's, AdS3's dt)
        or of one sign (AdS3's dphi), and the non-Killing control does not."""
        path = Path(__file__).parent / "data" / f"{name}.json"
        for item in ingest(json.loads(path.read_text())).manifest:
            code, (report,) = run(capsys, *manifest_argv(item), "--manifold", str(path))
            assert (code, report["meets_expectation"]) == (0, True), item
            assert report["pass"] is item["expect_pass"], item

    def test_flipped_expectation_exits_one(self, capsys, tmp_path):
        doc = export(catalog.get("flat3"))
        item = doc["manifest"][1]
        assert item == {"check": "killing-vector", "expect_pass": False, "target": "dilation"}
        item["expect_pass"] = True
        path = tmp_path / "flat3.json"
        path.write_text(json.dumps(doc))
        code, (report,) = run(capsys, *manifest_argv(item), "--manifold", str(path))
        assert code == 1
        assert report["pass"] is False and report["meets_expectation"] is False

    def test_every_report_is_named_in_its_module(self):
        """A renamed report fails here, not when its claim first runs."""
        for name, claim in CLAIMS.items():
            assert callable(getattr(importlib.import_module(f"hiddensym.{claim.module}"),
                                    claim.report)), name

    def test_command_choices_are_the_table(self):
        """`check` takes each tensor claim of the table, `spin` each spin identity."""
        parser = cli.build_parser()
        for name in CLAIMS:
            args = parser.parse_args(manifest_argv({"check": name, "target": "t"}))
            assert (args.check if args.command == "check" else f"spin-{args.mode}") == name
        for argv in (["check", "spin-square"], ["spin", "ky"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)

    def test_cli_import_loads_no_geometry_module(self):
        """The table holds names: importing the CLI loads the document reader
        alone of the library's modules."""
        code = "import sys, hiddensym.cli; print(sorted(m for m in sys.modules if 'hidden' in m))"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"),
             *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.stdout == "['hiddensym', 'hiddensym.cli', 'hiddensym.document']\n"

    def test_ingest_checks_derived_targets_without_building_them(self):
        """Taub-NUT's manifest holds sk items on assoc-sk: targets; reading it
        checks their kind by name, so neither killing nor sympy is loaded."""
        code = ("import sys\nfrom hiddensym import catalog\n"
                "assert any(':' in i['target'] for i in catalog.get('taub-nut').manifest)\n"
                "print([m for m in ('hiddensym.killing', 'sympy') if m in sys.modules])")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"),
             *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (done.stdout, done.stderr) == ("[]\n", "")


class TestSignatureCheck:
    """Commands that read a metric check its declared signature at the
    report's points and seed: another signature at a finite, non-degenerate
    point is a file error (exit 2, empty stdout); a singular point is left
    to the report."""

    COMMANDS = {
        "killing-vector": ["check", "killing-vector", "--target", "k1"],
        "ky": ["check", "ky", "--target", "f1"],
        "unit-root": ["check", "unit-root", "--target", "f1"],
        "covconst": ["check", "covconst", "--target", "fY"],
        "quaternion": ["check", "quaternion"],
        "assoc-sk": ["construct", "assoc-sk", "--target", "fY"],
        "geodesic": ["geodesic", "run", "--position", "r=2.0,theta=1.5,phi=0.5,chi=6.0",
                     "--velocity", "r=-0.5,theta=0.02,phi=0.2,chi=0.1", "--t1", "0.5"],
    }

    @pytest.fixture(scope="class")
    def exported(self, tn):
        return export(tn)

    @pytest.mark.parametrize("fault", [None, "signature"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_wrong_signature_is_a_file_error(self, capsys, tmp_path, exported, fault,
                                             command):
        doc = json.loads(json.dumps(exported))
        if fault:
            doc["signature"] = [1, 1, -1, -1]
        path = tmp_path / "tn.json"
        path.write_text(json.dumps(doc))
        code = main(self.COMMANDS[command] + ["--manifold", str(path), "--points", "5"])
        captured = capsys.readouterr()
        if fault is None:
            assert code == 0 and captured.out
        else:
            assert code == 2
            assert captured.out == ""
            assert "declared signature [1, 1, -1, -1]" in captured.err

    def test_sasaki_commands_check_the_signature(self, capsys, tmp_path, ps):
        doc = export(ps)
        doc["signature"] = [-doc["signature"][0], *doc["signature"][1:]]
        path = tmp_path / "ps.json"
        path.write_text(json.dumps(doc))
        assert main(["sasaki", "einstein", "--manifold", str(path), "--points", "5"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("metric, codes", [
        ("sqrt(x - 5)", (1, 1, 1, 1)),        # not finite anywhere in the box
        ("exp(-1000*(x + 2))", (1, 1, 1, 1)),  # underflows to 0: degenerate
    ], ids=["non-finite", "degenerate"])
    def test_singular_points_are_left_to_the_report(self, capsys, tmp_path, metric, codes):
        """The exit codes are those the commands gave before the check; the
        orbit on the degenerate metric leaves the chart at its first step, and
        a drift of one kept state fails."""
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(MINIMAL, metric=[["1", "0"], ["0", metric]])))
        for argv, code in zip((["check", "killing-vector", "--target", "rot"],
                               ["check", "ky", "--target", "area"],
                               ["construct", "assoc-sk", "--target", "area"],
                               ["geodesic", "run", "--position", "x=0.1,y=0.2",
                                "--velocity", "x=0.1,y=0.1", "--t1", "1"]), codes):
            assert main(argv + ["--manifold", str(path)]) == code, argv
            assert capsys.readouterr().out, argv

    @pytest.mark.parametrize("seed", [0, 3])
    def test_catalog_entries_and_exports_pass(self, entry, seed):
        M = entry.manifold
        pts = sample_points(M.chart, 20, seed)
        assert M.check_signature(pts)
        assert ingest(export(entry)).manifold.check_signature(pts)


class TestCatalogCommand:
    def test_export_to_file_and_reingest(self, capsys, tmp_path):
        out = tmp_path / "sphere.json"
        code, _ = run(capsys, "catalog", "export", "--catalog", "sphere2",
                      "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["name"] == "sphere2"
        code2, reports = run(capsys, "check", "killing-vector",
                             "--manifold", str(out), "--target", "dphi")
        assert code2 == 0 and reports[0]["pass"]

    def test_export_deterministic(self, capsys):
        code, _ = run(capsys, "catalog", "export", "--catalog", "flat3")
        first = None
        main(["catalog", "export", "--catalog", "flat3"])
        first = capsys.readouterr().out
        main(["catalog", "export", "--catalog", "flat3"])
        second = capsys.readouterr().out
        assert first == second


def _strict(text):
    def reject(token):
        raise ValueError(f"non-JSON token {token}")
    return [json.loads(line, parse_constant=reject) for line in text.splitlines() if line]


class TestNumberValidation:
    SPHERE = ["--catalog", "sphere2", "--target", "dphi"]
    ORBIT = ["geodesic", "run", "--catalog", "sphere2", "--position", "theta=1.0,phi=0.5",
             "--velocity", "theta=0.2,phi=0.4"]

    @pytest.mark.parametrize("argv", [
        ["check", "killing-vector", *SPHERE, "--points", "0"],
        ["check", "killing-vector", *SPHERE, "--points", "-3"],
        ["check", "killing-vector", *SPHERE, "--tol", "nan"],
        ["check", "killing-vector", *SPHERE, "--tol", "inf"],
        ["check", "killing-vector", *SPHERE, "--tol", "0"],
        ["check", "killing-vector", *SPHERE, "--tol", "-1e-9"],
        ["spin", "commute", *SPHERE, "--bank", "0"],
        ORBIT + ["--stride", "0"],
        ORBIT + ["--step", "0"],
        ORBIT + ["--step", "nan"],
        ORBIT + ["--t1", "nan"],
        ORBIT + ["--t1", "inf"],
        ORBIT + ["--t1", "0"],
        ORBIT + ["--t1", "-0.5"],
        ORBIT + ["--invariant-tol", "-1"],
        ORBIT + ["--position", "theta=abc,phi=0.5"],
        ORBIT + ["--position", "theta,phi=0.5"],
        ORBIT + ["--position", "theta=nan,phi=0.5"],
        ORBIT + ["--position", "theta=5,phi=0.5"],
        ORBIT + ["--velocity", "theta=nan,phi=0.4"],
        ORBIT + ["--position", "theta=1,phi=1,theta=2"],
        ["algebra", "jacobi", "--cutoff", "-1"],
        ["sasaki", "einstein", "--catalog", "pseudo-sphere", "--einstein-constant", "nan"],
    ])
    def test_rejected_with_exit_two(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    def test_non_finite_residual_is_strict_json(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(MINIMAL, vectors={"bad": ["sqrt(x - 5)", "0"]})))
        code = main(["check", "killing-vector", "--manifold", str(path), "--target", "bad"])
        reports = _strict(capsys.readouterr().out)
        assert code == 1
        assert reports[0]["pass"] is False
        assert reports[0]["max_residual"] is None
        assert reports[0]["extra"]["non_finite_points"] == 20

    def test_denominator_zero_after_simplification_fails_closed(self, capsys, tmp_path):
        """g_xx = 1/(2x - x - x) parses, since exprkit folds only a - a: the
        metric is infinite everywhere, so the check fails at every point and
        the orbit's energy drift is null (inf - inf), without a warning on
        stderr."""
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(MINIMAL, metric=[["1/(2*x - x - x)", "0"], ["0", "1"]])))
        code = main(["check", "killing-vector", "--manifold", str(path), "--target", "rot"])
        captured = capsys.readouterr()
        reports = _strict(captured.out)
        assert code == 1 and captured.err == ""
        assert reports[0]["pass"] is False
        assert reports[0]["extra"]["non_finite_points"] == 20
        code = main(["geodesic", "run", "--manifold", str(path), "--position", "x=0.1,y=0",
                     "--velocity", "x=0.3,y=0.2", "--t1", "1", "--step", "0.01"])
        captured = capsys.readouterr()
        reports = _strict(captured.out)
        assert code == 1 and captured.err == ""
        assert reports[0]["invariant"] == "energy" and reports[0]["pass"] is False
        assert reports[0]["max_drift"] is None
