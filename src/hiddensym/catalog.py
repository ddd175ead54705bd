"""Built-in geometries: flat spaces, the unit 2-sphere, Euclidean Taub-NUT,
and the pseudo-sphere mixed 3-Sasakian fixture.

Taub-NUT conventions (validated end-to-end by the residual suites):
the chart is (r, theta, phi, chi) with

    ds^2 = f(r) (dr^2 + r^2 dtheta^2 + r^2 sin^2 theta dphi^2)
           + 16 m^2 g(r) (dchi + cos theta dphi)^2,   f(r) = 1/g(r) = (4m+r)/r.

The three rotational Killing vectors are oriented so their brackets close
with +epsilon structure constants.  The stored two-forms "f1".."f3" are the
raw ones divided by -2 (fitted unit-root scale 4, sign fixed by the
quaternion commutator); "fY" is the raw form divided by 2, which is the
normalization under which its one nonzero covariant-derivative component
equals 2(1+r/4m) r sin(theta).  Raw forms are kept under "*_raw".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import sympy as sp

from .manifold import Chart, Manifold, TensorField, one_form, two_form, vector
from .sasaki import MixedThreeStructure


@dataclass
class CatalogEntry:
    name: str
    manifold: Manifold
    vectors: dict[str, TensorField] = field(default_factory=dict)
    forms: dict[str, TensorField] = field(default_factory=dict)
    structure: MixedThreeStructure | None = None
    frame: "np.ndarray | None" = None          # e^a_mu as object array, rows = a
    metadata: dict = field(default_factory=dict)
    manifest: list[dict] = field(default_factory=list)

    def target(self, name: str) -> TensorField:
        for group in (self.vectors, self.forms):
            if name in group:
                return group[name]
        raise KeyError(f"no object named {name!r} in catalog entry {self.name!r}")


def _wedge(a, b):
    n = len(a)
    return np.array([[sp.expand(a[i] * b[j] - a[j] * b[i]) for j in range(n)]
                     for i in range(n)], dtype=object)


def _antisymmetric(upper: dict) -> np.ndarray:
    """The 4 x 4 antisymmetric matrix with the entries upper[i, j], i < j."""
    F = np.full((4, 4), sp.Integer(0), dtype=object)
    for (i, j), e in upper.items():
        F[i, j], F[j, i] = e, -e
    return F


def flat(n: int) -> CatalogEntry:
    """Flat Euclidean space in Cartesian coordinates x1..xn."""
    coords = tuple(f"x{i+1}" for i in range(n))
    chart = Chart(coords, {c: (-2.0, 2.0) for c in coords})
    M = Manifold(chart, sp.eye(n).tolist(), signature=(1,) * n, name=f"flat{n}")
    entry = CatalogEntry(name=f"flat{n}", manifold=M)
    entry.vectors["translation"] = vector([1] + [0] * (n - 1))
    entry.vectors["dilation"] = vector([sp.Symbol(c) for c in coords])
    entry.manifest = [
        {"check": "killing-vector", "target": "translation", "expect_pass": True},
        {"check": "killing-vector", "target": "dilation", "expect_pass": False},
    ]
    return entry


def sphere2() -> CatalogEntry:
    """Unit 2-sphere, chart (theta, phi) away from the poles."""
    th = sp.Symbol("theta")
    chart = Chart(("theta", "phi"),
                  {"theta": (0.2, float(np.pi) - 0.2), "phi": (0.1, 2 * float(np.pi) - 0.1)})
    M = Manifold(chart, [[1, 0], [0, sp.sin(th) ** 2]], name="sphere2")
    entry = CatalogEntry(name="sphere2", manifold=M)
    entry.vectors["dphi"] = vector([0, 1])
    entry.manifest = [
        {"check": "killing-vector", "target": "dphi", "expect_pass": True},
    ]
    return entry


def taub_nut(m_value: float = 1.0) -> CatalogEntry:
    """Euclidean Taub-NUT with NUT parameter m > 0 and its symmetry objects.

    The raw Killing-Yano forms are built by wedges of coordinate
    differentials; the stored f1, f2, f3 (-raw/2) and fY (raw/2) are stated in
    closed form, each entry the expression sympy.cancel gives for it, so
    nothing is cancelled at build time.  tests/test_catalog.py rebuilds them
    by wedge and cancel as the oracle and requires identical expressions."""
    if m_value <= 0:
        raise ValueError("NUT parameter m must be positive")
    r, th, ph, ch, m = sp.symbols("r theta phi chi m")
    coords = [r, th, ph, ch]
    f = (4 * m + r) / r
    ginv_fun = r / (4 * m + r)
    sigma = [sp.Integer(0), sp.Integer(0), sp.cos(th), sp.Integer(1)]

    gmat = [[16 * m ** 2 * ginv_fun * sigma[i] * sigma[j] for j in range(4)]
            for i in range(4)]
    for i, d in enumerate([f, f * r ** 2, f * r ** 2 * sp.sin(th) ** 2]):
        gmat[i][i] = gmat[i][i] + d

    pi = float(np.pi)
    chart = Chart(("r", "theta", "phi", "chi"),
                  {"r": (0.5, 10.0), "theta": (0.2, pi - 0.2),
                   "phi": (0.1, 2 * pi - 0.1), "chi": (0.1, 4 * pi - 0.1)})
    M = Manifold(chart, gmat, params={"m": float(m_value)},
                 signature=(1, 1, 1, 1), name="taub-nut")
    entry = CatalogEntry(name="taub-nut", manifold=M)

    # Killing vectors: chi translation plus SU(2) rotations with +epsilon brackets.
    cot, csc = sp.cos(th) / sp.sin(th), 1 / sp.sin(th)
    entry.vectors["kchi"] = vector([0, 0, 0, 1])
    entry.vectors["k1"] = vector([0, sp.sin(ph), sp.cos(ph) * cot, -sp.cos(ph) * csc])
    entry.vectors["k2"] = vector([0, -sp.cos(ph), sp.sin(ph) * cot, -sp.sin(ph) * csc])
    entry.vectors["k3"] = vector([0, 0, -1, 0])

    # Killing-Yano two-forms.
    x = [r * sp.sin(th) * sp.cos(ph), r * sp.sin(th) * sp.sin(ph), r * sp.cos(th)]
    dx = [[sp.diff(s, c) for c in coords] for s in x]
    dr = [sp.diff(r, c) for c in coords]
    dth = [sp.diff(th, c) for c in coords]
    dph = [sp.diff(ph, c) for c in coords]

    raw_fi = []
    for i in range(3):
        F = 8 * m * _wedge(sigma, dx[i])
        for j, k in itertools.permutations(range(3), 2):
            eps = (j - i) * (k - i) * (k - j) // 2
            if eps and {i, j, k} == {0, 1, 2}:
                F = F - eps * (1 + 4 * m / r) * _wedge(dx[j], dx[k])
        raw_fi.append(F)
    raw_fy = (8 * m * _wedge(sigma, dr)
              + 4 * r * (r + 2 * m) * (1 + r / (4 * m)) * sp.sin(th) * _wedge(dth, dph))

    for i, F in enumerate(raw_fi):
        entry.forms[f"f{i+1}_raw"] = two_form(F)
    entry.forms["fY_raw"] = two_form(raw_fy)

    # The stored forms, -raw/2 and raw/2 in closed form: each entry is written
    # as the rational normal form of the raw entry, sin^2 + cos^2 unreduced.
    s, c, sph, cph = sp.sin(th), sp.cos(th), sp.sin(ph), sp.cos(ph)

    def f12(u, v):      # f1 at (u, v) = (sin phi, cos phi), f2 at (-cos phi, sin phi)
        return _antisymmetric({
            (0, 1): -4 * m * u * s ** 2 - 4 * m * u * c ** 2 - r * u * s ** 2 - r * u * c ** 2,
            (0, 2): -r * s * v * c,
            (0, 3): 4 * m * s * v,
            (1, 2): 4 * m * r * s ** 2 * v + 4 * m * r * v * c ** 2 + r ** 2 * s ** 2 * v,
            (1, 3): 4 * m * r * v * c,
            (2, 3): -4 * m * r * u * s})

    entry.forms["f1"] = two_form(f12(sph, cph))
    entry.forms["f2"] = two_form(f12(-cph, sph))
    entry.forms["f3"] = two_form(_antisymmetric({
        (0, 2): (4 * m * sph ** 2 * s ** 2 + 4 * m * s ** 2 * cph ** 2 + 4 * m * c ** 2
                 + r * sph ** 2 * s ** 2 + r * s ** 2 * cph ** 2),
        (0, 3): 4 * m * c,
        (1, 2): (4 * m * r * sph ** 2 * s * c + 4 * m * r * s * cph ** 2 * c - 4 * m * r * s * c
                 + r ** 2 * sph ** 2 * s * c + r ** 2 * s * cph ** 2 * c),
        (1, 3): -4 * m * r * s}))
    fy = _antisymmetric({(0, 2): -4 * m * c, (0, 3): -4 * m})
    # cancel keeps the sign in the numerator: -p/(2m), not -(p/(2m))
    p = 8 * m ** 2 * r * s + 6 * m * r ** 2 * s + r ** 3 * s
    fy[1, 2], fy[2, 1] = p / (2 * m), -p / (2 * m)
    entry.forms["fY"] = two_form(fy)

    # Orthonormal frame rows e^a_mu (Euclidean delta frame metric).
    sf = sp.sqrt(f)
    sg = 4 * m * sp.sqrt(ginv_fun)
    entry.frame = np.array([
        [sf, 0, 0, 0],
        [0, sf * r, 0, 0],
        [0, 0, sf * r * sp.sin(th), 0],
        [0, 0, sg * sp.cos(th), sg],
    ], dtype=object)

    entry.metadata = {
        "nut_period": "chi has period 4*pi; the NUT singularity is absent when the "
                      "fourth Cartesian coordinate has period 16*pi*m (recorded only)",
        "normalization": {"f1": -2, "f2": -2, "f3": -2, "fY": 2},
        "gauge": "monopole potential fixed so the connection one-form is "
                 "dchi + cos(theta) dphi",
        "unit_root_fitted_scale_raw": 4.0,
    }
    entry.manifest = [
        {"check": "killing-vector", "target": "kchi", "expect_pass": True},
        {"check": "killing-vector", "target": "k1", "expect_pass": True},
        {"check": "killing-vector", "target": "k2", "expect_pass": True},
        {"check": "killing-vector", "target": "k3", "expect_pass": True},
        {"check": "ky", "target": "f1", "expect_pass": True},
        {"check": "ky", "target": "f2", "expect_pass": True},
        {"check": "ky", "target": "f3", "expect_pass": True},
        {"check": "ky", "target": "fY", "expect_pass": True},
        {"check": "covconst", "target": "f1", "expect_pass": True},
        {"check": "covconst", "target": "f2", "expect_pass": True},
        {"check": "covconst", "target": "f3", "expect_pass": True},
        {"check": "covconst", "target": "fY", "expect_pass": False},
        {"check": "unit-root", "target": "f1", "expect_pass": True},
        {"check": "unit-root", "target": "f2", "expect_pass": True},
        {"check": "unit-root", "target": "f3", "expect_pass": True},
        {"check": "unit-root", "target": "fY", "expect_pass": False},
        {"check": "quaternion", "target": "f1,f2,f3", "expect_pass": True},
        {"check": "spin-anticommute", "target": "f1", "expect_pass": True},
        {"check": "spin-anticommute", "target": "f2", "expect_pass": True},
        {"check": "spin-anticommute", "target": "f3", "expect_pass": True},
        {"check": "spin-commute", "target": "kchi", "expect_pass": True},
        {"check": "spin-commute", "target": "k1", "expect_pass": True},
        {"check": "spin-commute", "target": "k2", "expect_pass": True},
        {"check": "spin-commute", "target": "k3", "expect_pass": True},
        {"check": "spin-square", "target": "f1", "expect_pass": True},
        {"check": "spin-square", "target": "f2", "expect_pass": True},
        {"check": "spin-square", "target": "f3", "expect_pass": True},
        {"check": "spin-square", "target": "fY", "expect_pass": False},
    ]
    return entry


def pseudo_sphere_fixture() -> CatalogEntry:
    """Unit pseudo-sphere {x1^2+x2^2-x3^2-x4^2 = 1} of signature (1,2) in flat
    R^{2,2}: the minimal (n=0) mixed 3-Sasakian structure, induced by one
    complex and two para-complex constant structures on the ambient space.
    In the chart X = (cosh rho cos t, cosh rho sin t, sinh rho cos psi,
    sinh rho sin psi) the tensors are stated in closed form: xi_a is the
    tangent part of J_a X and phi_a that of J_a, with J_1 complex and
    J_2, J_3 = -J_1 J_2 para-complex; tests/test_sasaki.py projects the
    ambient structures through the embedding as the oracle."""
    rho, t, psi = sp.symbols("rho t psi")
    ch2, sh2, sh2r = sp.cosh(rho) ** 2, sp.sinh(rho) ** 2, sp.sinh(2 * rho) / 2
    th, c, s = sp.tanh(rho), sp.cos(psi + t), sp.sin(psi + t)
    xis = [[0, 1, 1], [c, -s * th, -s / th], [-s, -c * th, -c / th]]
    etas = [[0, ch2, -sh2], [-c, -s * sh2r, s * sh2r], [s, -c * sh2r, c * sh2r]]
    phis = [[[0, sh2r, -sh2r], [th, 0, 0], [1 / th, 0, 0]],
            [[0, -s * ch2, s * sh2], [-s, 0, -c * th], [-s, -c / th, 0]],
            [[0, -c * ch2, c * sh2], [-c, 0, s * th], [-c, s / th, 0]]]
    pi = float(np.pi)
    chart = Chart(("rho", "t", "psi"),
                  {"rho": (0.3, 1.5), "t": (0.1, 2 * pi - 0.1), "psi": (0.1, 2 * pi - 0.1)})
    M = Manifold(chart, sp.diag(-1, ch2, -sh2).tolist(), signature=(-1, 1, -1),
                 name="pseudo-sphere")
    S = MixedThreeStructure(M, [TensorField(p, "ud") for p in phis],
                            [vector(x) for x in xis], [one_form(e) for e in etas])
    entry = CatalogEntry(name="pseudo-sphere", manifold=M, structure=S)
    for a in range(3):
        entry.vectors[f"xi{a+1}"] = S.xi[a]
        entry.forms[f"eta{a+1}"] = S.eta[a]
    entry.metadata = {
        "einstein_constant": 2,
        "embedding": "unit pseudo-sphere x1^2+x2^2-x3^2-x4^2=1 in R^{2,2}",
    }
    entry.manifest = [
        {"check": "killing-vector", "target": "xi1", "expect_pass": True},
        {"check": "killing-vector", "target": "xi2", "expect_pass": True},
        {"check": "killing-vector", "target": "xi3", "expect_pass": True},
        {"check": "cky", "target": "eta1", "expect_pass": True},
        {"check": "cky", "target": "eta2", "expect_pass": True},
        {"check": "cky", "target": "eta3", "expect_pass": True},
    ]
    return entry


_BUILDERS = {
    "taub-nut": taub_nut,
    "flat3": lambda: flat(3),
    "flat4": lambda: flat(4),
    "sphere2": sphere2,
    "pseudo-sphere": pseudo_sphere_fixture,
}


def get(name: str) -> CatalogEntry:
    if name not in _BUILDERS:
        raise KeyError(f"unknown catalog entry {name!r}; "
                       f"choices: {', '.join(sorted(_BUILDERS))}")
    return _BUILDERS[name]()


def names() -> list[str]:
    return sorted(_BUILDERS)
