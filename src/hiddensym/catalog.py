"""Built-in geometries: flat spaces, the unit 2-sphere, Euclidean Taub-NUT,
and the pseudo-sphere mixed 3-Sasakian fixture.

Each entry is a stored manifold-definition document (hiddensym/data/*.json,
the format `catalog export` prints and `--manifold` reads) read by
document.ingest, so its expressions are exprkit trees and building it loads
no sympy.  The
sympy constructions the documents were printed from, with Taub-NUT's
conventions (the chart (r, theta, phi, chi), the +epsilon orientation of its
rotations, the -raw/2 and raw/2 normalizations of f1..f3 and fY), are the
tests' oracles in tests/catalog_oracle.py.  The pseudo-sphere's hyperbolic
functions are written through exp, since the grammar has none.
"""

from __future__ import annotations

import json
from importlib import resources

from .document import CatalogEntry, FileFormatError, ingest

_NAMES = ("flat3", "flat4", "pseudo-sphere", "sphere2", "taub-nut")


def _load(name: str, **parameters: float) -> CatalogEntry:
    """The stored document of the entry, its parameters updated, ingested."""
    doc = json.loads((resources.files(__package__) / "data" / f"{name}.json").read_text())
    doc["parameters"].update(parameters)
    return ingest(doc)


def flat(n: int) -> CatalogEntry:
    """Flat Euclidean space in Cartesian coordinates x1..xn, n = 3 or 4."""
    return get(f"flat{n}")


def sphere2() -> CatalogEntry:
    """Unit 2-sphere, chart (theta, phi) away from the poles."""
    return _load("sphere2")


def taub_nut(m_value: float = 1.0) -> CatalogEntry:
    """Euclidean Taub-NUT with NUT parameter m > 0 and its symmetry objects."""
    if m_value <= 0:
        from .manifold import GeometryError     # here: importing catalog loads no geometry
        raise GeometryError("NUT parameter m must be positive")
    return _load("taub-nut", m=float(m_value))


def pseudo_sphere_fixture() -> CatalogEntry:
    """Unit pseudo-sphere {x1^2+x2^2-x3^2-x4^2 = 1} of signature (1,2) in flat
    R^{2,2}: the minimal (n=0) mixed 3-Sasakian structure, induced by one
    complex and two para-complex constant structures on the ambient space;
    tests/test_sasaki.py projects them through the embedding as the oracle."""
    return _load("pseudo-sphere")


def get(name: str) -> CatalogEntry:
    if name not in _NAMES:
        raise FileFormatError(f"unknown catalog entry {name!r}; choices: {', '.join(_NAMES)}")
    return _load(name)
