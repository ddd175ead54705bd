import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiddensym import cli
from hiddensym.cli import FileFormatError, export, ingest, main
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

    @pytest.mark.parametrize("spelling", ["1/0", "log(0)", "0^-1", "0/0"])
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


class TestExportRoundTrip:
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
        monkeypatch.setattr(cli.killing, "killing_vector_residual", boom)
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
        ("f3", "57a02bb0af172a98"), ("fY", "d3afc5f06ac4e153")])
    def test_emitted_components_are_pinned(self, capsys, target, want):
        """The text of the square's components, as --emit-components prints it."""
        code, (report, emitted) = run(capsys, "construct", "assoc-sk", "--catalog",
                                      "taub-nut", "--target", target, "--emit-components")
        assert code == 0 and report["pass"]
        assert digest(emitted) == want


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

    def test_bad_coordinate_rejected(self, capsys):
        code, _ = run(capsys, "geodesic", "run", "--catalog", "sphere2",
                      "--position", "q=1.0,phi=0.5",
                      "--velocity", "theta=0.2,phi=0.4")
        assert code == 2


class TestSasakiCommand:
    def test_einstein(self, capsys):
        code, reports = run(capsys, "sasaki", "einstein",
                            "--catalog", "pseudo-sphere", "--points", "5")
        assert code == 0 and reports[0]["pass"]

    def test_structure_required(self, capsys):
        code, _ = run(capsys, "sasaki", "verify", "--catalog", "sphere2")
        assert code == 2

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

    def test_non_unit_root_square_is_an_expected_failure(self, capsys):
        code, reports = run(capsys, "spin", "square", "--catalog", "taub-nut",
                            "--target", "fY")
        assert code == 0
        assert reports[0]["pass"] is False
        assert reports[0]["meets_expectation"] is True


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
