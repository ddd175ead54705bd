"""Shared, session-scoped geometry fixtures (expensive to construct)."""

import pytest

from hiddensym import catalog, spin


@pytest.fixture(scope="session")
def tn():
    return catalog.taub_nut()


@pytest.fixture(scope="session")
def ps():
    return catalog.pseudo_sphere_fixture()


@pytest.fixture(params=catalog.names())
def entry(request):
    """Each catalog entry in turn; the expensive ones are the session fixtures."""
    shared = {"taub-nut": "tn", "pseudo-sphere": "ps"}
    if request.param in shared:
        return request.getfixturevalue(shared[request.param])
    return catalog.get(request.param)


@pytest.fixture(scope="session")
def tn_ctx(tn):
    frame = spin.Frame(tn.frame, tuple(tn.manifold.signature))
    return spin.SpinContext(tn.manifold, frame)
