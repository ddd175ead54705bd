import itertools

import numpy as np
import pytest
import sympy as sp

from hiddensym import catalog, cli
from hiddensym.killing import killing_vector_residual, ky_residual
from hiddensym.manifold import sample_points
from test_algebra import digest


class TestRegistry:
    def test_names(self):
        assert catalog.names() == ["flat3", "flat4", "pseudo-sphere",
                                   "sphere2", "taub-nut"]

    def test_get_unknown(self):
        with pytest.raises(KeyError):
            catalog.get("nonexistent")

    def test_target_lookup(self, tn):
        assert tn.target("kchi") is tn.vectors["kchi"]
        assert tn.target("f1") is tn.forms["f1"]
        with pytest.raises(KeyError):
            tn.target("nonexistent")


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
        with pytest.raises(ValueError):
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
        for name in ("f1", "f2", "f3"):
            assert ("spin-anticommute", name) in checks
        for name in ("kchi", "k1", "k2", "k3"):
            assert ("killing-vector", name) in checks
            assert ("spin-commute", name) in checks

    def test_raw_forms_kept(self, tn):
        assert "f1_raw" in tn.forms and "fY_raw" in tn.forms
        ratio = sp.cancel(tn.forms["f1_raw"].components[0, 1]
                          / tn.forms["f1"].components[0, 1])
        assert ratio == -2

    @pytest.mark.parametrize("m", [0.5, 2.0])
    def test_parameter_robustness(self, m):
        entry = catalog.taub_nut(m)
        M = entry.manifold
        assert killing_vector_residual(entry.vectors["k1"], M, points=4).passed
        assert ky_residual(entry.forms["f1"], M, points=4).passed


def _wedge(a, b):
    n = len(a)
    return np.array([[sp.expand(a[i] * b[j] - a[j] * b[i]) for j in range(n)]
                     for i in range(n)], dtype=object)


def taub_nut_forms_by_wedge(nut=4):
    """Taub-NUT's Killing-Yano forms as the catalog once built them, the old
    path its closed forms are checked against: the raw f_i are
    8m sigma ^ dx_i - eps_ijk (1 + nut m/r) dx_j ^ dx_k and fY_raw is
    8m sigma ^ dr + 4r(r + 2m)(1 + r/4m) sin(theta) dtheta ^ dphi, with
    sigma = dchi + cos(theta) dphi, and each stored form is sympy.cancel of
    -raw/2 (f1, f2, f3) or raw/2 (fY), entry by entry.  nut is 4; another
    value plants an error."""
    r, th, ph, ch, m = sp.symbols("r theta phi chi m")
    coords = [r, th, ph, ch]
    sigma = [sp.Integer(0), sp.Integer(0), sp.cos(th), sp.Integer(1)]
    x = [r * sp.sin(th) * sp.cos(ph), r * sp.sin(th) * sp.sin(ph), r * sp.cos(th)]
    dx = [[sp.diff(s, c) for c in coords] for s in x]
    dr, dth, dph = ([sp.diff(y, c) for c in coords] for y in (r, th, ph))
    raw = {}
    for i in range(3):
        F = 8 * m * _wedge(sigma, dx[i])
        for j, k in itertools.permutations(range(3), 2):
            eps = (j - i) * (k - i) * (k - j) // 2
            if eps and {i, j, k} == {0, 1, 2}:
                F = F - eps * (1 + nut * m / r) * _wedge(dx[j], dx[k])
        raw[f"f{i + 1}"] = F
    raw["fY"] = (8 * m * _wedge(sigma, dr)
                 + 4 * r * (r + 2 * m) * (1 + r / (4 * m)) * sp.sin(th) * _wedge(dth, dph))
    scale = {"f1": -2, "f2": -2, "f3": -2, "fY": 2}
    normalized = {name: np.array([[sp.cancel(e / scale[name]) for e in row] for row in F],
                                 dtype=object) for name, F in raw.items()}
    return raw, normalized


def _srepr(F) -> list[str]:
    return [sp.srepr(e) for e in np.asarray(F).flat]


class TestTaubNutForms:
    """The stored forms are the exact expressions the wedge construction gave,
    so the printed export and the compiled code do not change."""

    def test_export_digest_pinned(self, tn):
        assert digest(cli.export(tn)) == "4aa3400048b70fab"

    def test_forms_match_the_wedge_construction(self, tn):
        raw, normalized = taub_nut_forms_by_wedge()
        for name in ("f1", "f2", "f3", "fY"):
            assert _srepr(tn.forms[name].components) == _srepr(normalized[name]), name
            assert _srepr(tn.forms[f"{name}_raw"].components) == _srepr(raw[name]), name

    def test_planted_error_is_seen(self, tn):
        """(1 + 4m/r) -> (1 + 2m/r) changes f1, f2 and f3; fY has no such term."""
        _, normalized = taub_nut_forms_by_wedge(nut=2)
        changed = {name for name, F in normalized.items()
                   if _srepr(tn.forms[name].components) != _srepr(F)}
        assert changed == {"f1", "f2", "f3"}


class TestPseudoSphere:
    def test_structure_attached(self, ps):
        assert ps.structure is not None
        assert ps.metadata["einstein_constant"] == 2

    def test_manifest_cky_entries(self, ps):
        targets = {i["target"] for i in ps.manifest if i["check"] == "cky"}
        assert targets == {"eta1", "eta2", "eta3"}

    def test_signature(self, ps):
        assert ps.manifold.signature == (-1, 1, -1)

    def test_export_digest_pinned(self, ps):
        """The printed form of the closed-form fixture, which is what the
        checks compile: a change to any expression changes the digest."""
        assert digest(cli.export(ps)) == "46fbdadc26b0e191"
