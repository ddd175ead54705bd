import json

import pytest

from hiddensym import cli
from hiddensym.cli import FileFormatError, export, ingest, main


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

    def test_index_out_of_range_rejected(self):
        doc = dict(MINIMAL,
                   forms={"bad": {"rank": 2, "components": {"0,5": "1"}}})
        with pytest.raises(FileFormatError):
            ingest(doc)


class TestExportRoundTrip:
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
        ORBIT + ["--invariant-tol", "-1"],
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
