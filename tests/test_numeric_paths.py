"""Each numeric formula a checker uses in place of a symbolic helper, against
that helper evaluated at the same 20 points: index lowering, the exterior
derivative and the Lie bracket."""

import numpy as np
import pytest

from hiddensym.killing import _alternation, _max_abs, _nabla_flat
from hiddensym.manifold import (covariant_derivative, exterior_derivative, lie_bracket,
                                lower_index, sample_points)
from hiddensym.sasaki import _bracket

TOL = 1e-12


def _assert_close(new, old):
    assert new.shape == old.shape
    assert np.all(_max_abs(new - old) <= TOL * np.maximum(1.0, _max_abs(old)))


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
    _assert_close(_nabla_flat(X, M, pts, M.evaluate(M.metric, pts)),
                  covariant_derivative(lower_index(X, M, 0), M, pts).components)


@pytest.mark.parametrize("entry, name", [("taub-nut", "f1"), ("taub-nut", "fY"),
                                         ("pseudo-sphere", "eta1")])
def test_exterior_derivative_from_grad(catalogs, entry, name):
    """(p + 1) Alt(grad f), as cky_residual forms df, against exterior_derivative."""
    e, M, pts = _setup(catalogs, entry)
    f = e.forms[name]
    nabla = covariant_derivative(f, M, pts).components
    _assert_close((f.rank + 1) * _alternation(nabla),
                  M.evaluate(exterior_derivative(f, M).components, pts))


@pytest.mark.parametrize("entry, pair", [("taub-nut", ("k1", "k2")),
                                         ("pseudo-sphere", ("xi1", "xi2"))])
def test_bracket_from_grad(catalogs, entry, pair):
    """grad_X Y - grad_Y X against lie_bracket."""
    e, M, pts = _setup(catalogs, entry)
    X, Y = (e.vectors[name] for name in pair)
    _assert_close(_bracket(covariant_derivative(X, M, pts), covariant_derivative(Y, M, pts)),
                  M.evaluate(lie_bracket(X, Y, M).components, pts))
