"""Each numeric formula a checker uses in place of a symbolic helper, against
that helper evaluated at the same 20 points: index lowering, the exterior
derivative, the Lie bracket and the odd-rank Killing-Yano tower."""

import numpy as np
import pytest

from hiddensym.killing import _max_abs, _nabla_flat
from hiddensym.manifold import (_covariant, antisymmetrize, covariant_derivative,
                                exterior_derivative, lie_bracket, lower_index,
                                sample_points)
from hiddensym.sasaki import _bracket, _odd_rank_tower, _wedge
from symbolic_geometry import ky_odd_rank_candidate

TOL = 1e-12


def _close(new, old) -> bool:
    return new.shape == old.shape and bool(
        np.all(_max_abs(new - old) <= TOL * np.maximum(1.0, _max_abs(old))))


@pytest.fixture
def catalogs(tn, ps):
    return {"taub-nut": tn, "pseudo-sphere": ps}


def _setup(catalogs, entry):
    M = catalogs[entry].manifold
    return catalogs[entry], M, sample_points(M.chart, 20, seed=0)


@pytest.mark.parametrize("entry, name", [("taub-nut", "k1"), ("taub-nut", "kchi"),
                                         ("pseudo-sphere", "xi1")])
def test_lowering_grad_x(catalogs, entry, name):
    """grad_mu X^lam g_{lam nu} against grad of the symbolically lowered X."""
    e, M, pts = _setup(catalogs, entry)
    X = e.vectors[name]
    assert _close(_nabla_flat(X, M, pts, M.evaluate(M.metric, pts)),
                  covariant_derivative(lower_index(X, M, 0), M, pts).components)


@pytest.mark.parametrize("entry, name", [("taub-nut", "f1"), ("taub-nut", "fY"),
                                         ("pseudo-sphere", "eta1")])
def test_exterior_derivative_from_grad(catalogs, entry, name):
    """(p + 1) Alt(grad f), as cky_residual forms df, against exterior_derivative."""
    e, M, pts = _setup(catalogs, entry)
    f = e.forms[name]
    nabla = covariant_derivative(f, M, pts).components
    assert _close((f.rank + 1) * antisymmetrize(nabla, 1),
                  M.evaluate(exterior_derivative(f, M).components, pts))


@pytest.mark.parametrize("entry, pair", [("taub-nut", ("k1", "k2")),
                                         ("pseudo-sphere", ("xi1", "xi2"))])
def test_bracket_from_grad(catalogs, entry, pair):
    """grad_X Y - grad_Y X against lie_bracket."""
    e, M, pts = _setup(catalogs, entry)
    X, Y = (e.vectors[name] for name in pair)
    assert _close(_bracket(covariant_derivative(X, M, pts), covariant_derivative(Y, M, pts)),
                  M.evaluate(lie_bracket(X, Y, M).components, pts))


class TestOddRankTower:
    """eta_a ^ (d eta_a)^k from eta_a's 2-jet against the symbolic wedges."""

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("alpha", [0, 1, 2])
    def test_jet_and_grad_match_symbolic_candidate(self, ps, alpha, k):
        S, M = ps.structure, ps.manifold
        pts = sample_points(M.chart, 20, seed=0)
        jet = _odd_rank_tower(S, alpha, k, pts)
        candidate = ky_odd_rank_candidate(S, alpha, k)
        assert _close(jet, M.evaluate(candidate.components, pts, order=1))
        assert _close(_covariant(jet, M.christoffel(pts)[:, -1], candidate.variance),
                      covariant_derivative(candidate, M, pts).components)

    def test_comparison_sees_a_sign_flip_in_d_eta(self, ps):
        """The tower built with d_lam eta_mu + d_mu eta_lam in place of d eta."""
        S, M = ps.structure, ps.manifold
        pts = sample_points(M.chart, 20, seed=0)
        e2 = M.evaluate(S.eta[0].components, pts, order=2)
        partials = e2[:, :, :-1]
        flipped = _wedge(e2[:, -1], partials + np.swapaxes(partials, 2, 3))
        reference = M.evaluate(ky_odd_rank_candidate(S, 0, 1).components, pts, order=1)
        assert _close(_odd_rank_tower(S, 0, 1, pts), reference)
        assert not _close(flipped, reference)
