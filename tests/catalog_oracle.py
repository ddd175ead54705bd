"""The sympy constructions the stored catalog documents (hiddensym/data) were
printed from, kept as the oracle the documents and the code generated from
them are tested against.

Each builder returns an entry's expression fields as sympy: "metric" (a
list of rows), "vectors" (lists), "forms" (antisymmetric object arrays),
and "frame" or "structures" where the entry has them.  `document(name)`
prints them as `catalog export` printed the sympy entries, hyperbolics
rewritten through exp; `taub_nut_forms_by_wedge` rebuilds Taub-NUT's
Killing-Yano forms by wedges of coordinate differentials, the construction
their closed forms are checked against.
"""

import itertools

import numpy as np
import sympy as sp


def _antisymmetric(upper: dict, n: int = 4) -> np.ndarray:
    """The n x n antisymmetric matrix with the entries upper[i, j], i < j."""
    F = np.full((n, n), sp.Integer(0), dtype=object)
    for (i, j), e in upper.items():
        F[i, j], F[j, i] = e, -e
    return F


def flat(n: int) -> dict:
    """Flat Euclidean space in Cartesian coordinates x1..xn."""
    coords = [sp.Symbol(f"x{i+1}") for i in range(n)]
    return {"metric": sp.eye(n).tolist(),
            "vectors": {"translation": [sp.Integer(1)] + [sp.Integer(0)] * (n - 1),
                        "dilation": coords},
            "forms": {}}


def sphere2() -> dict:
    th = sp.Symbol("theta")
    return {"metric": [[sp.Integer(1), sp.Integer(0)], [sp.Integer(0), sp.sin(th) ** 2]],
            "vectors": {"dphi": [sp.Integer(0), sp.Integer(1)]}, "forms": {}}


def _wedge(a, b):
    n = len(a)
    return np.array([[sp.expand(a[i] * b[j] - a[j] * b[i]) for j in range(n)]
                     for i in range(n)], dtype=object)


def taub_nut_forms_by_wedge(nut=4):
    """Taub-NUT's Killing-Yano forms by wedges: the raw f_i are
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


def taub_nut() -> dict:
    """Euclidean Taub-NUT with NUT parameter m: the chart is
    (r, theta, phi, chi) with

        ds^2 = f(r) (dr^2 + r^2 dtheta^2 + r^2 sin^2 theta dphi^2)
               + 16 m^2 g(r) (dchi + cos theta dphi)^2,   f(r) = 1/g(r) = (4m+r)/r.

    The three rotational Killing vectors are oriented so their brackets
    close with +epsilon structure constants.  The stored two-forms f1..f3 are
    the raw ones (by wedges, kept as *_raw) divided by -2 (fitted unit-root
    scale 4, sign fixed by the quaternion commutator); fY is the raw form
    divided by 2, the normalization under which its one nonzero
    covariant-derivative component equals 2(1+r/4m) r sin(theta).  Each
    stored entry is written in closed form, the expression sympy.cancel
    gives for it.  Last, the orthonormal frame."""
    r, th, ph, m = sp.symbols("r theta phi m")
    f = (4 * m + r) / r
    ginv_fun = r / (4 * m + r)
    sigma = [sp.Integer(0), sp.Integer(0), sp.cos(th), sp.Integer(1)]
    gmat = [[16 * m ** 2 * ginv_fun * sigma[i] * sigma[j] for j in range(4)]
            for i in range(4)]
    for i, d in enumerate([f, f * r ** 2, f * r ** 2 * sp.sin(th) ** 2]):
        gmat[i][i] = gmat[i][i] + d

    cot, csc = sp.cos(th) / sp.sin(th), 1 / sp.sin(th)
    zero, one = sp.Integer(0), sp.Integer(1)
    vectors = {"kchi": [zero, zero, zero, one],
               "k1": [zero, sp.sin(ph), sp.cos(ph) * cot, -sp.cos(ph) * csc],
               "k2": [zero, -sp.cos(ph), sp.sin(ph) * cot, -sp.sin(ph) * csc],
               "k3": [zero, zero, -one, zero]}

    raw, _ = taub_nut_forms_by_wedge()
    forms = {f"{name}_raw": F for name, F in raw.items()}
    s, c, sph, cph = sp.sin(th), sp.cos(th), sp.sin(ph), sp.cos(ph)

    def f12(u, v):      # f1 at (u, v) = (sin phi, cos phi), f2 at (-cos phi, sin phi)
        return _antisymmetric({
            (0, 1): -4 * m * u * s ** 2 - 4 * m * u * c ** 2 - r * u * s ** 2 - r * u * c ** 2,
            (0, 2): -r * s * v * c,
            (0, 3): 4 * m * s * v,
            (1, 2): 4 * m * r * s ** 2 * v + 4 * m * r * v * c ** 2 + r ** 2 * s ** 2 * v,
            (1, 3): 4 * m * r * v * c,
            (2, 3): -4 * m * r * u * s})

    forms["f1"] = f12(sph, cph)
    forms["f2"] = f12(-cph, sph)
    forms["f3"] = _antisymmetric({
        (0, 2): (4 * m * sph ** 2 * s ** 2 + 4 * m * s ** 2 * cph ** 2 + 4 * m * c ** 2
                 + r * sph ** 2 * s ** 2 + r * s ** 2 * cph ** 2),
        (0, 3): 4 * m * c,
        (1, 2): (4 * m * r * sph ** 2 * s * c + 4 * m * r * s * cph ** 2 * c - 4 * m * r * s * c
                 + r ** 2 * sph ** 2 * s * c + r ** 2 * s * cph ** 2 * c),
        (1, 3): -4 * m * r * s})
    fy = _antisymmetric({(0, 2): -4 * m * c, (0, 3): -4 * m})
    # cancel keeps the sign in the numerator: -p/(2m), not -(p/(2m))
    p = 8 * m ** 2 * r * s + 6 * m * r ** 2 * s + r ** 3 * s
    fy[1, 2], fy[2, 1] = p / (2 * m), -p / (2 * m)
    forms["fY"] = fy

    sf, sg = sp.sqrt(f), 4 * m * sp.sqrt(ginv_fun)
    frame = np.array([[sf, 0, 0, 0], [0, sf * r, 0, 0], [0, 0, sf * r * sp.sin(th), 0],
                      [0, 0, sg * sp.cos(th), sg]], dtype=object)
    return {"metric": gmat, "vectors": vectors, "forms": forms, "frame": frame}


def pseudo_sphere() -> dict:
    """The unit pseudo-sphere's mixed 3-Sasakian structure in closed form,
    with hyperbolic functions: in the chart X = (cosh rho cos t,
    cosh rho sin t, sinh rho cos psi, sinh rho sin psi), xi_a is the tangent
    part of J_a X and phi_a that of J_a, with J_1 complex and J_2,
    J_3 = -J_1 J_2 para-complex.  Its vectors and forms are xi_a and eta_a."""
    rho, t, psi = sp.symbols("rho t psi")
    ch2, sh2, sh2r = sp.cosh(rho) ** 2, sp.sinh(rho) ** 2, sp.sinh(2 * rho) / 2
    th, c, s = sp.tanh(rho), sp.cos(psi + t), sp.sin(psi + t)
    xis = [[0, 1, 1], [c, -s * th, -s / th], [-s, -c * th, -c / th]]
    etas = [[0, ch2, -sh2], [-c, -s * sh2r, s * sh2r], [s, -c * sh2r, c * sh2r]]
    phis = [[[0, sh2r, -sh2r], [th, 0, 0], [1 / th, 0, 0]],
            [[0, -s * ch2, s * sh2], [-s, 0, -c * th], [-s, -c / th, 0]],
            [[0, -c * ch2, c * sh2], [-c, 0, s * th], [-c, s / th, 0]]]
    xis, etas = ([[sp.sympify(e) for e in row] for row in rows] for rows in (xis, etas))
    phis = [np.array(p, dtype=object) for p in phis]
    return {"metric": sp.diag(-1, ch2, -sh2).tolist(),
            "vectors": {f"xi{a + 1}": xis[a] for a in range(3)},
            "forms": {f"eta{a + 1}": np.array(etas[a], dtype=object) for a in range(3)},
            "structures": {"phi": phis, "xi": xis, "eta": etas}}


ORACLES = {"flat3": lambda: flat(3), "flat4": lambda: flat(4), "pseudo-sphere": pseudo_sphere,
           "sphere2": sphere2, "taub-nut": taub_nut}


def names() -> list[str]:
    """The catalog's entry names, in its order."""
    return list(ORACLES)


def text(e) -> str:
    """e printed in the file grammar, as `catalog export` printed the sympy
    entries: the hyperbolics rewritten through exp."""
    e = sp.sympify(e)
    e = e.replace(sp.sinh, lambda a: (sp.exp(a) - sp.exp(-a)) / 2)
    e = e.replace(sp.cosh, lambda a: (sp.exp(a) + sp.exp(-a)) / 2)
    e = e.replace(sp.tanh, lambda a: (sp.exp(a) - sp.exp(-a)) / (sp.exp(a) + sp.exp(-a)))
    return str(e).replace("**", "^")


def document(name: str) -> dict:
    """The oracle's expression fields of the entry, printed as the export
    document has them."""
    oracle = ORACLES[name]()
    doc = {"metric": [[text(e) for e in row] for row in oracle["metric"]],
           "vectors": {k: [text(e) for e in v] for k, v in oracle["vectors"].items()},
           "forms": {}}
    for k, F in oracle["forms"].items():
        rank = F.ndim
        doc["forms"][k] = {"rank": rank, "components": {
            ",".join(map(str, idx)): text(F[idx])
            for idx in itertools.combinations(range(F.shape[0]), rank) if F[idx] != 0}}
    if "frame" in oracle:
        doc["frame"] = [[text(e) for e in row] for row in oracle["frame"]]
    if "structures" in oracle:
        doc["structures"] = {k: [np.vectorize(text, otypes=[object])(
            np.array(v, dtype=object)).tolist() for v in vs]
            for k, vs in oracle["structures"].items()}
    return doc
