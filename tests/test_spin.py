import json
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from hiddensym import catalog, spin
from hiddensym.document import ingest
from hiddensym.manifold import GeometryError, TensorField, _symbolic, sample_points, vector
from hiddensym.spin import (Frame, FrameError, OperatorSpec, SpinContext,
                            anticommutator_residual, canonical_gamma,
                            commutator_residual, frame_residual,
                            orthonormal_frame, spinor_bank, square_compare)
from lambdify_reference import lambdified
from symbolic_geometry import coord_symbols, symbolic_christoffel, symbolic_ricci, tangent


@pytest.fixture(scope="module")
def flat4():
    return catalog.flat(4).manifold


@pytest.fixture(scope="module")
def flat4_ctx(flat4):
    return SpinContext(flat4, orthonormal_frame(flat4))


@pytest.fixture(scope="module")
def sphere_ctx():
    M = catalog.sphere2().manifold
    return SpinContext(M, orthonormal_frame(M))


def clifford_exact(gamma: np.ndarray, eta) -> bool:
    """{gamma^a, gamma^b} = 2 eta^{ab} Id with no rounding: the entries are
    0, +-1 and +-i, so every product is exact."""
    product = np.einsum("ast,btu->absu", gamma, gamma)
    identity = np.einsum("ab,su->absu", np.diag(eta), np.eye(gamma.shape[1]))
    return np.array_equal(product + np.swapaxes(product, 0, 1), 2 * identity)


class TestGamma:
    SIGNATURES = [(1, 1), (1, 1, 1), (1, 1, 1, 1), (-1, 1, 1, 1), (1, -1, -1)]

    @pytest.mark.parametrize("eta", SIGNATURES)
    def test_clifford_relations_exact(self, eta):
        assert clifford_exact(canonical_gamma(eta), eta)

    @pytest.mark.parametrize("eta", SIGNATURES)
    def test_planted_broken_representation_fails(self, eta):
        """gamma^1 used in place of gamma^0."""
        gamma = canonical_gamma(eta)
        gamma[0] = gamma[1]
        assert not clifford_exact(gamma, eta)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            canonical_gamma((1,) * 5)


class TestFrames:
    def test_diagonal_metric_frame(self, flat4):
        F = orthonormal_frame(flat4)
        assert frame_residual(F, flat4).passed

    def test_non_diagonal_metric_needs_explicit_frame(self, tn):
        with pytest.raises(FrameError):
            orthonormal_frame(tn.manifold)

    def test_taub_nut_catalog_frame(self, tn):
        F = Frame(tn.frame, (1, 1, 1, 1))
        assert frame_residual(F, tn.manifold, points=5).passed


def symbolic_omega(F: Frame, M) -> np.ndarray:
    """omega[mu, a, b] = -eta_a (d_mu e^a_nu - Gamma^lam_{mu nu} e^a_lam) e_b^nu,
    built in sympy from the exact inverse of the frame, independently of the
    numeric connection jets."""
    n, xs, gamma = M.dim, coord_symbols(M), symbolic_christoffel(M)
    e = sp.Matrix(_symbolic(F.vierbein))
    einv = e.inv()                       # einv[nu, b] = e_b^nu
    omega = np.empty((n, n, n), dtype=object)
    for mu in range(n):
        for a in range(n):
            for b in range(n):
                omega[mu, a, b] = -F.eta[a] * sum(
                    (sp.diff(e[a, nu], xs[mu])
                     - sum(gamma[lam, mu, nu] * e[a, lam] for lam in range(n)))
                    * einv[nu, b] for nu in range(n))
    return omega


class TestSpinConnection:
    def test_flat_connection_vanishes(self, flat4, flat4_ctx):
        _, omega = flat4_ctx.connection(sample_points(flat4.chart, 3))
        assert (omega == 0).all()

    def test_sphere_connection_component(self, sphere_ctx):
        # -cos(theta) on the chart (where sin(theta) > 0)
        thetas = (0.4, 1.1, 2.6)
        _, omega = sphere_ctx.connection([{"theta": v, "phi": 1.0} for v in thetas])
        assert np.max(np.abs(omega[:, -1, 1, 0, 1] + np.cos(thetas))) < 1e-12

    def test_antisymmetry(self, tn_ctx):
        """omega_{mu a b} + omega_{mu b a} = 0 at sampled points."""
        w = tn_ctx.connection(sample_points(tn_ctx.M.chart, 5, seed=0))[1][:, -1]
        per_point = (1, 2, 3)
        assert np.all(np.max(np.abs(w + np.swapaxes(w, 2, 3)), axis=per_point)
                      <= 1e-10 * np.maximum(1.0, np.max(np.abs(w), axis=per_point)))

    def test_matches_symbolic_connection(self, tn, tn_ctx):
        """The numeric 1-jet of omega against the tangent of the symbolic
        omega built from the exact inverse frame."""
        M = tn.manifold
        pts = sample_points(M.chart, 5, seed=0)
        expected = lambdified(M, tangent(symbolic_omega(tn_ctx.F, M), coord_symbols(M)), pts)
        _, got = tn_ctx.connection(pts)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestSpinorBank:
    def test_deterministic(self, flat4):
        a = spinor_bank(flat4, 3, seed=5)
        b = spinor_bank(flat4, 3, seed=5)
        assert all((x == y).all() for x, y in zip(a, b))

    def test_size(self, flat4):
        bank = spinor_bank(flat4, 4, seed=0)
        assert len(bank) == 4
        assert bank[0].shape == (4,)


class TestOperatorSpecs:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            OperatorSpec("laplacian")

    def test_payload_required(self):
        with pytest.raises(ValueError):
            OperatorSpec("killing-op")

    def test_payload_variance_checked(self):
        two_form = TensorField([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], "dd")
        with pytest.raises(GeometryError, match="killing-op payload must be a vector field"):
            OperatorSpec("killing-op", two_form)
        with pytest.raises(GeometryError, match="dirac-type payload must be a covariant"):
            OperatorSpec("dirac-type", vector([1, 0, 0, 0]))


class TestFlatIdentities:
    """Covariantly constant payloads on flat space: cheap full pipeline."""

    def test_dirac_kills_constant_spinor(self, flat4, flat4_ctx):
        psi = np.array([sp.Integer(1)] * 4, dtype=object)
        pts = sample_points(flat4.chart, 3)
        jet = flat4.evaluate([psi], pts, order=2)
        out = spin.build_operator(OperatorSpec("standard-dirac"), flat4_ctx, pts,
                                  flat4_ctx.frame_jets(pts)).apply(jet)
        assert (out == 0).all()

    def test_anticommutator_with_parallel_form(self, flat4, flat4_ctx):
        f = TensorField([[0, 1, 0, 0], [-1, 0, 0, 0],
                         [0, 0, 0, 1], [0, 0, -1, 0]], "dd")
        rep = anticommutator_residual(
            OperatorSpec("standard-dirac"), OperatorSpec("dirac-type", f),
            flat4_ctx, bank=spinor_bank(flat4, 2), points=4)
        assert rep.passed

    def test_square_equals_dirac_square_for_unit_root(self, flat4, flat4_ctx):
        f = TensorField([[0, 1, 0, 0], [-1, 0, 0, 0],
                         [0, 0, 0, 1], [0, 0, -1, 0]], "dd")
        rep = square_compare(OperatorSpec("dirac-type", f), flat4_ctx,
                             bank=spinor_bank(flat4, 2), points=4)
        assert rep.passed

    def test_square_differs_for_non_unit_root(self, flat4, flat4_ctx):
        f = TensorField([[0, 1, 0, 0], [-1, 0, 0, 0],
                         [0, 0, 0, 0], [0, 0, 0, 0]], "dd")
        x3, x4 = sp.symbols("x3 x4")
        psi = np.array([x3 ** 2, x4 ** 2, x3 * x4, sp.Integer(0)],
                       dtype=object)
        rep = square_compare(OperatorSpec("dirac-type", f), flat4_ctx,
                             bank=[psi], points=4)
        assert not rep.passed

    def test_commutator_with_translation(self, flat4, flat4_ctx):
        rep = commutator_residual(
            OperatorSpec("standard-dirac"),
            OperatorSpec("killing-op", vector([1, 0, 0, 0])),
            flat4_ctx, bank=spinor_bank(flat4, 2), points=4)
        assert rep.passed

    def test_commutator_with_rotation(self, flat4, flat4_ctx):
        x1, x2 = sp.symbols("x1 x2")
        rep = commutator_residual(
            OperatorSpec("standard-dirac"),
            OperatorSpec("killing-op", vector([-x2, x1, 0, 0])),
            flat4_ctx, bank=spinor_bank(flat4, 2), points=4)
        assert rep.passed


class TestCurvedIdentities:
    def test_sphere_rotation_commutes(self, sphere_ctx):
        M = sphere_ctx.M
        rep = commutator_residual(
            OperatorSpec("standard-dirac"),
            OperatorSpec("killing-op", vector([0, 1])),
            sphere_ctx, bank=spinor_bank(M, 2), points=4)
        assert rep.passed

    def test_quarter_term_sign_matters(self, sphere_ctx, monkeypatch):
        """With the curvature quarter-term sign flipped, the commutator
        with a rotation generator no longer vanishes."""
        M = sphere_ctx.M
        th, ph = sp.symbols("theta phi")
        k = vector([sp.sin(ph), sp.cos(ph) * sp.cos(th) / sp.sin(th)])
        rep = commutator_residual(
            OperatorSpec("standard-dirac"), OperatorSpec("killing-op", k),
            sphere_ctx, bank=spinor_bank(M, 2), points=4)
        assert rep.passed
        monkeypatch.setattr(spin, "_QUARTER_SIGN", +1)
        rep2 = commutator_residual(
            OperatorSpec("standard-dirac"), OperatorSpec("killing-op", k),
            sphere_ctx, bank=spinor_bank(M, 2), points=4)
        assert not rep2.passed

    def test_singular_point_fails_closed(self, sphere_ctx):
        """At theta = 0 the frame is singular: that point alone is non-finite
        and becomes the worst point of a failing report."""
        M = sphere_ctx.M
        pts = [{"theta": th, "phi": 0.5} for th in (1.0, 0.0, 2.0)]
        rep = commutator_residual(
            OperatorSpec("standard-dirac"), OperatorSpec("killing-op", vector([0, 1])),
            sphere_ctx, bank=spinor_bank(M, 2), points=pts)
        assert not rep.passed
        assert rep.extra["non_finite_points"] == 1
        assert rep.worst_point["theta"] == 0.0

    def test_non_killing_payload_fails(self, sphere_ctx):
        M = sphere_ctx.M
        rep = commutator_residual(
            OperatorSpec("standard-dirac"),
            OperatorSpec("killing-op", vector([1, 0])),
            sphere_ctx, bank=spinor_bank(M, 2), points=4)
        assert not rep.passed


class TestIndefiniteSignature:
    """On the pseudo-sphere, of signature (-1, 1, -1), the quarter term pairs
    gamma^a gamma^b with omega_{mu a b}, both frame indices lowered: weighted
    by eta^{aa} eta^{bb} as well, it flipped the terms with eta_aa eta_bb = -1,
    and [D_s, X_xi] missed zero by a relative 1.8-2.0."""

    @pytest.fixture(scope="class")
    def ps_ctx(self, ps):
        return SpinContext(ps.manifold, orthonormal_frame(ps.manifold))

    def commutator(self, ps, ctx, name):
        return commutator_residual(OperatorSpec("standard-dirac"),
                                   OperatorSpec("killing-op", ps.vectors[name]), ctx,
                                   bank=spinor_bank(ps.manifold, 2), points=4)

    @pytest.mark.parametrize("name", ["xi1", "xi2", "xi3"])
    def test_killing_vectors_commute(self, ps, ps_ctx, name):
        assert self.commutator(ps, ps_ctx, name).max_rel_residual < 1e-13

    def test_planted_eta_weighted_quarter_fails(self, ps):
        ctx = SpinContext(ps.manifold, orthonormal_frame(ps.manifold))
        eta = np.array(ctx.F.eta, dtype=float)
        ctx._quarter = np.einsum("a,b,absu->absu", eta, eta, ctx._quarter)
        assert self.commutator(ps, ctx, "xi1").max_rel_residual > 0.1

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(-2, 2), st.integers(-2, 2)),
                    min_size=3, max_size=3))
    def test_cyclic_coordinate_commutes_in_every_signature(self, blocks):
        """diag(s_i exp((a_i x + c_i z)/2)) does not depend on y, so d/dy is a
        Killing vector, and it commutes with the Dirac operator whatever the
        signs s_i are."""
        entry = ingest({
            "name": "diag3", "dimension": 3, "coordinates": ["x", "y", "z"],
            "domain": {"x": [-1.0, 1.0], "y": [0.1, 6.0], "z": [-1.0, 1.0]},
            "signature": [sign for sign, _, _ in blocks], "vectors": {"dy": ["0", "1", "0"]},
            "metric": [[f"{sign}*exp(({a}*x + {c}*z)/2)" if i == j else "0" for j in range(3)]
                       for i, (sign, a, c) in enumerate(blocks)]})
        M = entry.manifold
        rep = commutator_residual(OperatorSpec("standard-dirac"),
                                  OperatorSpec("killing-op", entry.vectors["dy"]),
                                  SpinContext(M, orthonormal_frame(M)),
                                  bank=spinor_bank(M, 2), points=4)
        assert rep.max_rel_residual < 1e-12


def data_entry(name: str):
    """The catalog entry of a test document under tests/data."""
    return ingest(json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text()))


def lichnerowicz_gap(entry, weighted: bool = False) -> float:
    """D_s^2 psi against -g^{mu nu}(grad_mu grad_nu - Gamma^lam_{mu nu} grad_lam) psi
    + R/4 psi for a bank of two spinors at five points: the largest difference,
    relative to the right side's largest entry and 1.  The right side is built
    here symbolically from the spin connection (1/4) omega_{mu a b} gamma^a
    gamma^b, both frame indices of omega lowered, and the scalar curvature
    g^{sigma nu} R_{sigma nu}, independently of the operator coefficient jets;
    weighted multiplies each term of the connection by eta_a eta_b, which
    lowers the gammas a second time (a planted fault)."""
    M = entry.manifold
    F = Frame(entry.frame, M.signature) if entry.frame is not None else orthonormal_frame(M)
    gam = [sp.Matrix(g.tolist()).applyfunc(sp.nsimplify) for g in canonical_gamma(F.eta)]
    n, xs, s = M.dim, coord_symbols(M), gam[0].shape[0]
    omega = symbolic_omega(F, M)
    weight = [[F.eta[a] * F.eta[b] if weighted else 1 for b in range(n)] for a in range(n)]
    conn = [sum((sp.Rational(1, 4) * omega[mu, a, b] * weight[a][b] * gam[a] * gam[b]
                 for a in range(n) for b in range(n)), sp.zeros(s, s)) for mu in range(n)]
    christoffel, ginv = symbolic_christoffel(M), M.inverse_metric_matrix()
    ricci = symbolic_ricci(M)
    scalar = sum(ginv[i, j] * ricci[i, j] for i in range(n) for j in range(n))
    bank = spinor_bank(M, 2, seed=0)
    sides = []
    for psi in bank:
        psi = sp.Matrix(_symbolic(psi))
        grad = [psi.diff(x) + conn[mu] * psi for mu, x in enumerate(xs)]
        side = scalar / 4 * psi
        for mu in range(n):
            for nu in range(n):
                hess = (grad[nu].diff(xs[mu]) + conn[mu] * grad[nu]
                        - sum((christoffel[lam, mu, nu] * grad[lam]
                               for lam in range(n)), sp.zeros(s, 1)))
                side -= ginv[mu, nu] * hess
        sides.append(list(side))
    pts = sample_points(M.chart, 5, seed=0)
    expected = lambdified(M, np.array(sides, dtype=object), pts, dtype=complex)
    ctx = SpinContext(M, F)
    Ds = spin.build_operator(OperatorSpec("standard-dirac"), ctx, pts, ctx.frame_jets(pts))
    got = Ds.compose(Ds).apply(M.evaluate(list(bank), pts, order=2))
    return np.max(np.abs(got - expected)) / max(1.0, np.max(np.abs(expected)))


class TestLichnerowicz:
    """D_s^2 = -nabla^2 + R/4 on spinors in every signature: the pseudo-sphere
    (-1, 1, -1), de Sitter dS2 (-1, 1) and anti-de Sitter AdS3 (1, -1, 1),
    whose scalar curvatures are nonzero and whose frame pairs mix signs."""

    @pytest.mark.parametrize("name", ["ds2", "ads3"])
    def test_formula_on_test_documents(self, name):
        assert lichnerowicz_gap(data_entry(name)) <= 1e-12

    def test_formula_on_the_pseudo_sphere(self, ps):
        assert lichnerowicz_gap(ps) <= 1e-12

    def test_planted_eta_weighted_quarter_fails(self, ps):
        """The connection lowering the gammas again flips each term with
        eta_aa eta_bb = -1; Riemannian Taub-NUT cannot show it."""
        assert lichnerowicz_gap(ps, weighted=True) > 0.1


class TestTaubNutOracles:
    def test_lichnerowicz_formula(self, tn):
        """On Ricci-flat Taub-NUT, with the frame the catalog stores."""
        assert lichnerowicz_gap(tn) <= 1e-12

    def test_fy_square_keeps_symbolic_composition_numbers(self, tn, tn_ctx):
        """D_fY^2 against D_s^2 as computed when the coefficients were
        composed symbolically: the same separation at the same worst point."""
        rep = square_compare(OperatorSpec("dirac-type", tn.forms["fY"]), tn_ctx,
                             bank=spinor_bank(tn.manifold, 5, seed=0), points=10,
                             seed=0)
        assert not rep.passed
        assert rep.max_rel_residual == pytest.approx(1.4847987040642914, rel=1e-9)
        assert rep.worst_point["r"] == 7.337194520837564
        assert rep.worst_point["theta"] == 1.2934116934407136


def _levi_civita(i: int, j: int, k: int) -> int:
    """eps_{ijk} for indices in {1, 2, 3}."""
    return (j - i) * (k - i) * (k - j) // 2


class TestDynamicalAlgebra:
    """[X_{k_i}, D_{f_j}] = -i eps_{ijk} D_{f_k} on Taub-NUT: the rotation
    operators act on the Dirac-type operators of the three unit-root forms as
    on a vector (Cotaescu & Visinescu, hep-th/0411016)."""

    PAIRS = [(1, 1), (1, 2), (2, 3), (3, 1)]
    STOL = 1e-8

    @pytest.fixture(scope="class")
    def residuals(self, tn, tn_ctx):
        """Per pair, the worst relative residual of the identity and of the
        identity with the sign of eps flipped."""
        M = tn.manifold
        pts = sample_points(M.chart, 10, seed=0)
        jet = M.evaluate(list(spinor_bank(M, 5, seed=0)), pts, order=2)
        frames = tn_ctx.frame_jets(pts)
        X = {i: spin.build_operator(OperatorSpec("killing-op", tn.vectors[f"k{i}"]),
                                    tn_ctx, pts, frames) for i in (1, 2, 3)}
        D = {i: spin.build_operator(OperatorSpec("dirac-type", tn.forms[f"f{i}"]),
                                    tn_ctx, pts, frames) for i in (1, 2, 3)}
        d_psi = {k: D[k].apply(jet[:, -1]) for k in (1, 2, 3)}
        out = {}
        for i, j in self.PAIRS:
            comm = X[i].compose(D[j]).apply(jet) - D[j].compose(X[i]).apply(jet)
            scale = np.maximum(np.max(np.abs(comm), axis=2, keepdims=True), 1.0)
            out[i, j] = tuple(
                np.max(np.abs(comm + sign * 1j * sum(_levi_civita(i, j, k) * d_psi[k]
                                                     for k in (1, 2, 3))) / scale)
                for sign in (1, -1))
        return out

    @pytest.mark.parametrize("pair", PAIRS)
    def test_commutator_closes_on_dirac_type(self, residuals, pair):
        assert residuals[pair][0] <= self.STOL

    @pytest.mark.parametrize("pair", [p for p in PAIRS if p[0] != p[1]])
    def test_flipped_structure_constants_fail(self, residuals, pair):
        assert residuals[pair][1] > 1.0


class TestOperatorsBuiltOncePerReport:
    """A report builds each distinct operator once at its points and leaves
    no state on the spin context."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = spin.build_operator

        def counted(spec, ctx, points, frames):
            calls.append(spec.kind)
            return build(spec, ctx, points, frames)
        monkeypatch.setattr(spin, "build_operator", counted)
        return calls

    def test_square_compare_builds_two(self, flat4, flat4_ctx, builds):
        f = TensorField([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], "dd")
        square_compare(OperatorSpec("dirac-type", f), flat4_ctx,
                       bank=spinor_bank(flat4, 2), points=3)
        assert sorted(builds) == ["dirac-type", "standard-dirac"]

    def test_commutator_builds_two(self, flat4, flat4_ctx, builds):
        commutator_residual(OperatorSpec("standard-dirac"),
                            OperatorSpec("killing-op", vector([1, 0, 0, 0])),
                            flat4_ctx, bank=spinor_bank(flat4, 2), points=3)
        assert sorted(builds) == ["killing-op", "standard-dirac"]

    def test_report_leaves_context_unchanged(self, flat4):
        ctx = SpinContext(flat4, orthonormal_frame(flat4))
        before = set(vars(ctx))
        anticommutator_residual(OperatorSpec("standard-dirac"), OperatorSpec("standard-dirac"),
                                ctx, bank=spinor_bank(flat4, 2), points=3)
        assert set(vars(ctx)) == before
