import numpy as np
import pytest
import sympy as sp

from hiddensym import catalog, spin
from hiddensym.manifold import sample_points, two_form, vector
from hiddensym.spin import (Frame, FrameError, GammaRep, OperatorSpec,
                            SpinContext, anticommutator_residual,
                            canonical_gamma, commutator_residual,
                            frame_residual, orthonormal_frame,
                            spin_connection, spin_connection_antisymmetry,
                            spinor_bank, spinor_jet, square_compare,
                            standard_unitary)


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


class TestGamma:
    @pytest.mark.parametrize("eta", [(1, 1), (1, 1, 1), (1, 1, 1, 1),
                                     (-1, 1, 1, 1), (1, -1, -1)])
    def test_clifford_relations_exact(self, eta):
        assert canonical_gamma(eta).clifford_defect() == 0

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            canonical_gamma((1,) * 5)

    def test_conjugated_rep_still_clifford(self):
        rep = canonical_gamma((1, 1, 1, 1))
        U = standard_unitary(rep.spinor_size)
        assert rep.conjugate(U).clifford_defect() == 0

    def test_non_unitary_conjugation_rejected(self):
        rep = canonical_gamma((1, 1))
        with pytest.raises(ValueError):
            rep.conjugate(sp.Matrix([[1, 1], [0, 1]]))

    def test_standard_unitary_is_unitary(self):
        for size in (2, 4):
            U = standard_unitary(size)
            assert sp.simplify(U * U.H) == sp.eye(size)

    def test_standard_unitary_bad_size(self):
        with pytest.raises(ValueError):
            standard_unitary(3)


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

    def test_signature_mismatch_rejected(self, flat4):
        F = orthonormal_frame(flat4)
        with pytest.raises(ValueError):
            SpinContext(flat4, F, canonical_gamma((-1, 1, 1, 1)))


class TestSpinConnection:
    def test_flat_connection_vanishes(self, flat4):
        omega = spin_connection(orthonormal_frame(flat4), flat4)
        assert all(e == 0 for e in omega.flatten())

    def test_sphere_connection_component(self):
        M = catalog.sphere2().manifold
        omega = spin_connection(orthonormal_frame(M), M)
        th = sp.Symbol("theta")
        # -cos(theta) on the chart (where sin(theta) > 0)
        for val in (0.4, 1.1, 2.6):
            got = float(omega[1, 0, 1].subs(th, val))
            assert abs(got + np.cos(val)) < 1e-12

    def test_antisymmetry(self, tn):
        F = Frame(tn.frame, (1, 1, 1, 1))
        omega = spin_connection(F, tn.manifold)
        assert spin_connection_antisymmetry(omega, tn.manifold,
                                            points=5).passed


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

    def test_payload_variance_checked(self, flat4, flat4_ctx):
        bad = OperatorSpec("killing-op", two_form([[0, 1, 0, 0], [-1, 0, 0, 0],
                                                   [0, 0, 0, 0], [0, 0, 0, 0]]))
        with pytest.raises(ValueError):
            spin.build_operator(bad, flat4_ctx)


class TestFlatIdentities:
    """Covariantly constant payloads on flat space: cheap full pipeline."""

    def test_dirac_kills_constant_spinor(self, flat4, flat4_ctx):
        psi = np.array([sp.Integer(1)] * 4, dtype=object)
        jet = spinor_jet(flat4, [psi], sample_points(flat4.chart, 3))
        out = flat4_ctx.operator(OperatorSpec("standard-dirac")).apply(jet)
        assert (out.values == 0).all()

    def test_anticommutator_with_parallel_form(self, flat4, flat4_ctx):
        f = two_form([[0, 1, 0, 0], [-1, 0, 0, 0],
                      [0, 0, 0, 1], [0, 0, -1, 0]])
        rep = anticommutator_residual(
            OperatorSpec("standard-dirac"), OperatorSpec("dirac-type", f),
            flat4_ctx, bank=spinor_bank(flat4, 2), points=4)
        assert rep.passed

    def test_square_equals_dirac_square_for_unit_root(self, flat4, flat4_ctx):
        f = two_form([[0, 1, 0, 0], [-1, 0, 0, 0],
                      [0, 0, 0, 1], [0, 0, -1, 0]])
        rep = square_compare(OperatorSpec("dirac-type", f), flat4_ctx,
                             bank=spinor_bank(flat4, 2), points=4)
        assert rep.passed

    def test_square_differs_for_non_unit_root(self, flat4, flat4_ctx):
        f = two_form([[0, 1, 0, 0], [-1, 0, 0, 0],
                      [0, 0, 0, 0], [0, 0, 0, 0]])
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

    def test_quarter_term_sign_matters(self, sphere_ctx):
        """With the curvature quarter-term sign flipped, the commutator
        with a rotation generator no longer vanishes."""
        M = sphere_ctx.M
        th, ph = sp.symbols("theta phi")
        k = vector([sp.sin(ph), sp.cos(ph) * sp.cos(th) / sp.sin(th)])
        rep = commutator_residual(
            OperatorSpec("standard-dirac"), OperatorSpec("killing-op", k),
            sphere_ctx, bank=spinor_bank(M, 2), points=4)
        assert rep.passed
        try:
            spin.QUARTER_SIGN = +1
            ctx2 = SpinContext(M, orthonormal_frame(M))
            rep2 = commutator_residual(
                OperatorSpec("standard-dirac"), OperatorSpec("killing-op", k),
                ctx2, bank=spinor_bank(M, 2), points=4)
            assert not rep2.passed
        finally:
            spin.QUARTER_SIGN = -1

    def test_non_killing_payload_fails(self, sphere_ctx):
        M = sphere_ctx.M
        rep = commutator_residual(
            OperatorSpec("standard-dirac"),
            OperatorSpec("killing-op", vector([1, 0])),
            sphere_ctx, bank=spinor_bank(M, 2), points=4)
        assert not rep.passed


class TestTaubNutOracles:
    def test_lichnerowicz_formula(self, tn, tn_ctx):
        """On Ricci-flat Taub-NUT, D_s^2 = -g^{mu nu}(grad_mu grad_nu
        - Gamma^lam_{mu nu} grad_lam) on spinors, with the right side built
        here symbolically from the spin connection, independently of the
        operator coefficient jets."""
        M, ctx = tn.manifold, tn_ctx
        n, xs, s = M.dim, M.coord_symbols, ctx.rep.spinor_size
        eta, gam = ctx.F.eta, ctx.rep.matrices
        conn = [sum((sp.Rational(1, 4) * ctx.omega[mu, a, b] * eta[a] * eta[b]
                     * gam[a] * gam[b] for a in range(n) for b in range(n)),
                    sp.zeros(s, s)) for mu in range(n)]
        christoffel, ginv = M.christoffel(), M.inverse_metric_matrix()
        bank = spinor_bank(M, 2, seed=0)
        laplacians = []
        for psi in bank:
            psi = sp.Matrix(psi)
            grad = [psi.diff(x) + conn[mu] * psi for mu, x in enumerate(xs)]
            lap = sp.zeros(s, 1)
            for mu in range(n):
                for nu in range(n):
                    hess = (grad[nu].diff(xs[mu]) + conn[mu] * grad[nu]
                            - sum((christoffel[lam, mu, nu] * grad[lam]
                                   for lam in range(n)), sp.zeros(s, 1)))
                    lap -= ginv[mu, nu] * hess
            laplacians.append(list(lap))
        pts = sample_points(M.chart, 5, seed=0)
        expected = M.evaluate(np.array(laplacians, dtype=object), pts, dtype=complex)
        Ds = OperatorSpec("standard-dirac")
        got = ctx.composed(Ds, Ds).apply(spinor_jet(M, bank, pts)).values
        assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))

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
