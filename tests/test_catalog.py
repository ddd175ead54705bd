import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from hiddensym import catalog, cli, exprkit
from hiddensym.exprkit import parse, to_source, to_sympy
from hiddensym.document import FileFormatError, ingest
from hiddensym.killing import SKSquare, killing_vector_residual, ky_residual
from hiddensym.manifold import GeometryError, sample_points
from hiddensym.sasaki import build_cone

import catalog_oracle
from catalog_oracle import names, taub_nut_forms_by_wedge
from lambdify_reference import lambdified_jet
from test_algebra import digest

ROOT = Path(__file__).resolve().parents[1]


class TestRegistry:
    def test_names(self):
        assert names() == list(catalog._NAMES) == ["flat3", "flat4", "pseudo-sphere",
                                                   "sphere2", "taub-nut"]

    def test_get_unknown(self):
        with pytest.raises(FileFormatError, match="^unknown catalog entry 'nonexistent'; "
                                                  "choices: flat3, flat4, pseudo-sphere, "
                                                  "sphere2, taub-nut$"):
            catalog.get("nonexistent")

    def test_target_lookup(self, tn):
        assert tn.target("kchi") is tn.vectors["kchi"]
        assert tn.target("f1") is tn.forms["f1"]
        with pytest.raises(FileFormatError, match="^no object named 'nonexistent' in catalog "
                                                  "entry 'taub-nut'$"):
            tn.target("nonexistent")

    def test_derived_target_lookup(self, tn):
        """assoc-sk:F names F's S-K square, built on each lookup; a derived
        name of an unknown object, or of a derived one, names nothing."""
        K = tn.target("assoc-sk:fY")
        assert isinstance(K, SKSquare) and K.form is tn.forms["fY"]
        for name, missing in [("assoc-sk:nosuch", "nosuch"),
                              ("assoc-sk:assoc-sk:fY", "assoc-sk:fY"), ("assoc-sk:", "")]:
            with pytest.raises(FileFormatError, match=f"^no object named {missing!r} in"):
                tn.target(name)


class TestFlat:
    def test_zero_christoffels(self):
        M = catalog.flat(3).manifold
        assert not M.christoffel(sample_points(M.chart, 5, seed=0)).any()

    def test_manifest_expectations(self):
        entry = catalog.flat(3)
        M = entry.manifold
        for item in entry.manifest:
            rep = killing_vector_residual(entry.vectors[item["target"]], M,
                                          points=5)
            assert rep.passed == item["expect_pass"]


class TestSphere2:
    def test_constant_curvature_one(self):
        M = catalog.sphere2().manifold
        pts = sample_points(M.chart, 5, seed=0)
        assert np.max(np.abs(M.ricci(pts) - M.evaluate(M.metric, pts))) < 1e-14


class TestTaubNut:
    def test_parameter_validation(self):
        with pytest.raises(GeometryError, match="^NUT parameter m must be positive$"):
            catalog.taub_nut(-1.0)

    def test_f_times_g_is_one(self):
        r, m = sp.symbols("r m")
        f = (4 * m + r) / r
        g = r / (4 * m + r)
        assert sp.simplify(f * g - 1) == 0

    def test_euclidean_signature_at_points(self, tn):
        pts = sample_points(tn.manifold.chart, 5, 0)
        assert tn.manifold.check_signature(pts)

    def test_metadata_records_normalization(self, tn):
        assert tn.metadata["normalization"] == {"f1": -2, "f2": -2,
                                                "f3": -2, "fY": 2}
        assert tn.metadata["unit_root_fitted_scale_raw"] == 4.0

    def test_manifest_is_exhaustive(self, tn):
        checks = {(i["check"], i["target"]) for i in tn.manifest}
        for name in ("f1", "f2", "f3", "fY"):
            assert ("ky", name) in checks
            assert ("covconst", name) in checks
            assert ("spin-square", name) in checks
            assert ("sk", f"assoc-sk:{name}") in checks
        for name in ("f1", "f2", "f3"):
            assert ("spin-anticommute", name) in checks
        for name in ("kchi", "k1", "k2", "k3"):
            assert ("killing-vector", name) in checks
            assert ("spin-commute", name) in checks

    def test_raw_forms_kept(self, tn):
        assert "f1_raw" in tn.forms and "fY_raw" in tn.forms
        ratio = sp.cancel(to_sympy(tn.forms["f1_raw"].components[0, 1])
                          / to_sympy(tn.forms["f1"].components[0, 1]))
        assert ratio == -2

    @pytest.mark.parametrize("m", [0.5, 2.0])
    def test_parameter_robustness(self, m):
        entry = catalog.taub_nut(m)
        M = entry.manifold
        assert killing_vector_residual(entry.vectors["k1"], M, points=4).passed
        assert ky_residual(entry.forms["f1"], M, points=4).passed


def _texts(F) -> list[str]:
    """The entries above the diagonal of a 2-form, which the document stores,
    printed in the grammar: trees by to_source, the oracle's sympy
    expressions as `catalog export` printed them."""
    F = np.asarray(F)
    return [to_source(e) if isinstance(e, exprkit.Expr) else catalog_oracle.text(e)
            for e in F[np.triu_indices(len(F), 1)]]


class TestTaubNutForms:
    """The stored forms are the exact expressions the wedge construction gave,
    so the printed export and the compiled code do not change."""

    def test_export_digest_pinned(self, tn):
        assert digest(cli.export(tn)) == "699821ffa42077cc"

    def test_forms_match_the_wedge_construction(self, tn):
        raw, normalized = taub_nut_forms_by_wedge()
        for name in ("f1", "f2", "f3", "fY"):
            assert _texts(tn.forms[name].components) == _texts(normalized[name]), name
            assert _texts(tn.forms[f"{name}_raw"].components) == _texts(raw[name]), name

    def test_planted_error_is_seen(self, tn):
        """(1 + 4m/r) -> (1 + 2m/r) changes f1, f2 and f3; fY has no such term."""
        _, normalized = taub_nut_forms_by_wedge(nut=2)
        changed = {name for name, F in normalized.items()
                   if _texts(tn.forms[name].components) != _texts(F)}
        assert changed == {"f1", "f2", "f3"}


class TestPseudoSphere:
    def test_structure_attached(self, ps):
        assert ps.structure is not None
        assert ps.metadata["einstein_constant"] == 2

    def test_manifest_cky_entries(self, ps):
        targets = {i["target"] for i in ps.manifest if i["check"] == "cky"}
        assert targets == {"eta1", "eta2", "eta3"}

    def test_manifest_spin_commute_entries(self, ps):
        """The indefinite signature's Killing vectors commute with the Dirac operator."""
        items = [i for i in ps.manifest if i["check"] == "spin-commute"]
        assert items == [{"check": "spin-commute", "expect_pass": True, "target": f"xi{a}"}
                         for a in (1, 2, 3)]

    def test_signature(self, ps):
        assert ps.manifold.signature == (-1, 1, -1)

    def test_export_digest_pinned(self, ps):
        """The printed form of the closed-form fixture, which is what the
        checks compile: a change to any expression changes the digest."""
        assert digest(cli.export(ps)) == "7bddf48780cc20de"


# sha256 of `catalog export --catalog NAME` as printed before the entries
# became stored documents, Taub-NUT's and the pseudo-sphere's since their
# manifests gained the S-K square and spin-commute items
EXPORT_SHA256 = {
    "taub-nut": "4bffd16f714d95901a40fb18812a6648be061fcf163525aa1966b7c2c90a0cca",
    "flat3": "2a42a29a06bc15da5f32eb313413d1957f2339f66e3c6dabd4a96268dad0f189",
    "flat4": "0cdd634fcb40802b36153cfdfa6737646e243e28be295a26f016442f2bb34cc2",
    "sphere2": "2cdf5f3dfae99005935bb9ad39d25d1ec600f2b822b5c12dfd8c9ffcc76ef632",
    "pseudo-sphere": "b8aac4a6464d2b054d301c9a2aeb7ba231d47eec57ca7ec9d85f6441b6844f56",
}


# test_algebra.digest of export() of each catalog entry without a pin of its
# own and of each test document under tests/data
EXPORT_DIGEST = {
    "flat3": "6c2d47e6956ebac8",
    "flat4": "163279fbc4d94ebc",
    "sphere2": "dde88c83dfbec63e",
    "negative-parameters": "92bf8bf1ebdedff5",
    "ds2": "2ec9b317670c40c0",
    "ads3": "c4c3ddfb0700e18f",
}
DATA = ROOT / "tests" / "data"


def _stored(name: str) -> dict:
    return json.loads((resources.files("hiddensym") / "data" / f"{name}.json").read_text())


def _leaves(doc) -> list[str]:
    """The expression texts of a document: metric, vectors, forms,
    structures and frame."""
    out = []

    def walk(x):
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, (list, dict)):
            for v in (x.values() if isinstance(x, dict) else x):
                walk(v)
    for key in ("metric", "vectors", "structures", "frame"):
        walk(doc.get(key, []))
    for form in doc["forms"].values():
        walk(form["components"])
    return out


class TestExportDigests:
    def test_every_test_document_is_pinned(self):
        assert {path.stem for path in DATA.glob("*.json")} <= EXPORT_DIGEST.keys()

    @pytest.mark.parametrize("name", list(EXPORT_DIGEST))
    def test_export_digest_pinned(self, name):
        entry = (catalog.get(name) if name in catalog._NAMES
                 else ingest(json.loads((DATA / f"{name}.json").read_text())))
        assert digest(cli.export(entry)) == EXPORT_DIGEST[name]


class TestStoredDocuments:
    """Each entry is a stored document: the oracle's sympy construction as
    `catalog export` printed it, read back through the one reader."""

    @pytest.mark.parametrize("name", names())
    def test_export_sha256_pinned(self, capsys, name):
        assert cli.main(["catalog", "export", "--catalog", name]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_SHA256[name]

    def test_export_from_outside_the_checkout(self, tmp_path):
        """The documents are package data, found from any working directory."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run([sys.executable, "-m", "hiddensym.cli", "catalog", "export",
                               "--catalog", "taub-nut"], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == EXPORT_SHA256["taub-nut"]

    @pytest.mark.parametrize("name", names())
    def test_document_is_the_printed_oracle(self, name):
        stored, oracle = _stored(name), catalog_oracle.document(name)
        assert {key: stored[key] for key in oracle} == oracle

    @pytest.mark.parametrize("name", names())
    def test_every_leaf_prints_back_to_its_text(self, name):
        leaves = _leaves(_stored(name))
        assert leaves and [to_source(parse(text)) for text in leaves] == leaves


def _oracle_arrays(name: str, entry) -> list[tuple[object, object, object]]:
    """(manifold, the entry's array of trees, the oracle's sympy array) for
    the metric, every vector and form, the frame, phi, xi and eta, and each
    of the cone's J_a."""
    oracle, M = catalog_oracle.ORACLES[name](), entry.manifold
    cases = [(M, M.metric, oracle["metric"])]
    cases += [(M, entry.vectors[k].components, v) for k, v in oracle["vectors"].items()]
    cases += [(M, entry.forms[k].components, F) for k, F in oracle["forms"].items()]
    if entry.frame is not None:
        cases.append((M, entry.frame, oracle["frame"]))
    if entry.structure is not None:
        S, parts = entry.structure, oracle["structures"]
        for a in range(3):
            cases += [(M, S.phi[a].components, parts["phi"][a]),
                      (M, S.xi[a].components, parts["xi"][a]),
                      (M, S.eta[a].components, parts["eta"][a])]
        C, n, r = build_cone(S), M.dim, sp.Symbol("r")
        for a in range(3):
            J = np.full((n + 1, n + 1), sp.Integer(0), dtype=object)
            J[:n, :n] = parts["phi"][a]
            J[n, :n] = [-e * r for e in parts["eta"][a]]
            J[:n, n] = [e / r for e in parts["xi"][a]]
            cases.append((C.manifold, C.J[a].components, J))
    return cases


def _worst_oracle_gap(name: str, entry) -> float:
    """Largest relative gap, over the arrays and orders 0, 1 and 2 at 20
    seeded points, between the generated code's jets and the jets sympy's
    lambdify gives of the oracle's own expressions."""
    worst = 0.0
    for M, arr, reference in _oracle_arrays(name, entry):
        pts = sample_points(M.chart, 20, seed=4)
        for order in (0, 1, 2):
            got = M.evaluate(arr, pts, order=order)
            want = lambdified_jet(M, reference, pts, order)
            worst = max(worst, float(np.max(np.abs(got - want))
                                     / max(1.0, np.max(np.abs(want)))))
    return worst


class TestOldPathOracle:
    """The generated functions against sympy's lambdify of the constructions
    the documents were printed from: values, 1-jets and 2-jets."""

    def test_generated_code_matches_lambdify(self, entry):
        assert _worst_oracle_gap(entry.name, entry) <= 1e-13

    def test_planted_operator_fault_fails(self, monkeypatch):
        """Printing - as + in the generated code fails the comparison."""
        plain = exprkit._code

        def faulty(node, kids, names, store):
            text, level, negated = plain(node, kids, names, store)
            return (text.replace(" - ", " + ") if node.op == "-" else text), level, negated
        monkeypatch.setattr(exprkit, "_code", faulty)
        assert _worst_oracle_gap("taub-nut", catalog.taub_nut()) > 1e-3
