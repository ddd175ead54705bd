"""Metric geometry pipeline: connection, curvature, exterior calculus, sampling.

All tensors are dense component arrays of symbolic expressions over a
single chart.  Dimensions stay small (<= 7), so no sparsity or index-free
machinery is used.  Numeric evaluation goes through Manifold.evaluate: each
array is lambdified once per manifold, cached under its content, and
evaluated over a whole batch of points in one call.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np
import sympy as sp

from .exprkit import Point, simplify, sym


class GeometryError(Exception):
    pass


class SingularMetricError(GeometryError):
    pass


@dataclass(frozen=True)
class Chart:
    """Ordered coordinate names with an open domain box per coordinate."""

    coords: tuple[str, ...]
    box: dict[str, tuple[float, float]]

    def __post_init__(self):
        if len(set(self.coords)) != len(self.coords):
            raise GeometryError("duplicate coordinate names")
        if len(self.coords) < 2:
            raise GeometryError("chart dimension must be >= 2")
        for name in self.coords:
            lo, hi = self.box[name]
            if not lo < hi:
                raise GeometryError(f"empty domain box for {name}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def contains(self, point: Point) -> bool:
        return all(self.box[c][0] <= point[c] <= self.box[c][1] for c in self.coords)


def sample_points(chart: Chart, count: int, seed: int = 0) -> list[dict[str, float]]:
    """Deterministic uniform points in the domain box; same seed, same points."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        points.append({c: rng.uniform(*chart.box[c]) for c in chart.coords})
    return points


class TensorField:
    """Dense component array with per-slot variance ('u'/'d') and symmetry tag."""

    def __init__(self, components, variance: str, symmetry: str = "none"):
        arr = np.array(components, dtype=object)
        for idx in np.ndindex(arr.shape):
            arr[idx] = sp.sympify(arr[idx])
        if arr.ndim != len(variance):
            raise GeometryError("variance length must match tensor rank")
        if symmetry not in ("none", "symmetric", "antisymmetric"):
            raise GeometryError(f"unknown symmetry tag {symmetry!r}")
        self.components = arr
        self.variance = variance
        self.symmetry = symmetry

    @property
    def rank(self) -> int:
        return self.components.ndim

    def at(self, manifold: "Manifold", point: Point) -> np.ndarray:
        """Numeric components at a point (doubles)."""
        return manifold.evaluate(self.components, [point])[0]

    def map(self, f) -> "TensorField":
        out = np.empty(self.components.shape, dtype=object)
        for idx in np.ndindex(self.components.shape):
            out[idx] = f(self.components[idx])
        return TensorField(out, self.variance, self.symmetry)


class Manifold:
    """Chart plus metric (matrix of expressions) plus bound parameter values."""

    def __init__(self, chart: Chart, metric, params: dict[str, float] | None = None,
                 signature: tuple[int, ...] | None = None, name: str = ""):
        self.chart = chart
        self.name = name
        n = chart.dim
        g = sp.Matrix(n, n, lambda i, j: sp.sympify(metric[i][j]))
        for i in range(n):
            for j in range(i + 1, n):
                if sp.simplify(g[i, j] - g[j, i]) != 0:
                    raise GeometryError(f"metric not symmetric at ({i},{j})")
        self.metric = g
        self.params = dict(params or {})
        self.signature = tuple(signature) if signature else tuple([1] * n)
        if len(self.signature) != n:
            raise GeometryError("signature length must equal dimension")
        # symbolic results by name, compiled functions by array content
        self._cache: dict = {}

    # -- symbolic pipeline -------------------------------------------------

    @property
    def dim(self) -> int:
        return self.chart.dim

    @property
    def coord_symbols(self) -> list[sp.Symbol]:
        return [sym(c) for c in self.chart.coords]

    def metric_field(self) -> TensorField:
        return TensorField(np.array(self.metric.tolist(), dtype=object), "dd", "symmetric")

    def inverse_metric_matrix(self) -> sp.Matrix:
        if "ginv" not in self._cache:
            det = sp.cancel(self.metric.det(method="berkowitz"))
            if det == 0:
                raise SingularMetricError("metric determinant is identically zero")
            adj = self.metric.adjugate()
            ginv = sp.Matrix(self.dim, self.dim,
                             lambda i, j: simplify(adj[i, j] / det))
            self._cache["ginv"] = ginv
        return self._cache["ginv"]

    def christoffel(self) -> np.ndarray:
        """Levi-Civita coefficients Gamma[rho, mu, nu], symmetric in (mu, nu)."""
        if "gamma" not in self._cache:
            n = self.dim
            g = self.metric
            ginv = self.inverse_metric_matrix()
            xs = self.coord_symbols
            dg = [[[sp.diff(g[i, j], xs[k]) for k in range(n)] for j in range(n)]
                  for i in range(n)]
            gamma = np.empty((n, n, n), dtype=object)
            for rho in range(n):
                for mu in range(n):
                    for nu in range(mu, n):
                        total = sp.Integer(0)
                        for lam in range(n):
                            total += ginv[rho, lam] * (
                                dg[lam][nu][mu] + dg[lam][mu][nu] - dg[mu][nu][lam])
                        expr = simplify(total / 2)
                        gamma[rho, mu, nu] = expr
                        gamma[rho, nu, mu] = expr
            self._cache["gamma"] = gamma
        return self._cache["gamma"]

    def riemann(self) -> np.ndarray:
        """R[rho, sigma, mu, nu] = d_mu Gamma^rho_{nu sigma} - ... (first index up)."""
        if "riemann" not in self._cache:
            n = self.dim
            gamma = self.christoffel()
            xs = self.coord_symbols
            riem = np.empty((n, n, n, n), dtype=object)
            for rho in range(n):
                for sig in range(n):
                    for mu in range(n):
                        for nu in range(n):
                            expr = (sp.diff(gamma[rho, nu, sig], xs[mu])
                                    - sp.diff(gamma[rho, mu, sig], xs[nu]))
                            for lam in range(n):
                                expr += (gamma[rho, mu, lam] * gamma[lam, nu, sig]
                                         - gamma[rho, nu, lam] * gamma[lam, mu, sig])
                            riem[rho, sig, mu, nu] = expr
            self._cache["riemann"] = riem
        return self._cache["riemann"]

    def ricci(self) -> TensorField:
        if "ricci" not in self._cache:
            n = self.dim
            riem = self.riemann()
            ric = np.empty((n, n), dtype=object)
            for sig in range(n):
                for nu in range(n):
                    ric[sig, nu] = sum((riem[lam, sig, lam, nu] for lam in range(n)),
                                       sp.Integer(0))
            self._cache["ricci"] = TensorField(ric, "dd", "symmetric")
        return self._cache["ricci"]

    # -- numeric evaluation --------------------------------------------------

    def compiled(self, components):
        """The array's lambdified form, compiled once per manifold with
        common-subexpression elimination and cached under the array's content:
        a function of the coordinate values that returns the flat component list."""
        arr = np.asarray(components, dtype=object)
        key = ("lambdified", arr.shape, tuple(arr.flat))
        if key not in self._cache:
            args = [sym(p) for p in sorted(self.params)] + self.coord_symbols
            self._cache[key] = sp.lambdify(args, [sp.sympify(e) for e in arr.flat],
                                           modules="numpy", cse=True)
        return functools.partial(self._cache[key],
                                 *(self.params[p] for p in sorted(self.params)))

    def evaluate(self, components, points, dtype=float) -> np.ndarray:
        """Values of an array of expressions at a batch of points, shape (P, *shape).

        One call of the compiled function covers the whole batch; constant
        entries are broadcast.  A real dtype rejects non-zero imaginary parts.
        Floating-point warnings are silenced: non-finite values are returned
        for the reports to count and fail.
        """
        arr = np.asarray(components, dtype=object)
        count = len(points)
        x = np.array([[p[c] for c in self.chart.coords] for p in points],
                     dtype=float).reshape(count, self.dim)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = np.stack([np.broadcast_to(v, count)
                               for v in self.compiled(arr)(*x.T)], axis=-1)
        if np.iscomplexobj(values) and np.dtype(dtype).kind != "c":
            if np.any(values.imag != 0):
                raise GeometryError("real-valued tensor has a non-zero imaginary part")
            values = values.real
        return values.astype(dtype).reshape((count,) + arr.shape)

    def metric_at(self, point: Point) -> np.ndarray:
        return self.evaluate(self.metric, [point])[0]

    def inverse_metric_values(self, points) -> np.ndarray:
        """Numeric inverse metric at each point, shape (P, n, n)."""
        g = self.evaluate(self.metric, points)
        singular = np.abs(np.linalg.det(g)) < 1e-14
        if singular.any():
            raise SingularMetricError(f"singular metric at {points[np.argmax(singular)]}")
        return np.linalg.inv(g)

    def inverse_metric_at(self, point: Point) -> np.ndarray:
        return self.inverse_metric_values([point])[0]

    def christoffel_at(self, point: Point) -> np.ndarray:
        return self.evaluate(self.christoffel(), [point])[0]

    def check_signature(self, points: list[Point]) -> bool:
        """True when the metric has the declared signature at every point.
        Raises SingularMetricError when the first point that breaks it is
        degenerate."""
        eig = np.linalg.eigvalsh(self.evaluate(self.metric, points))   # ascending
        degenerate = np.any(np.abs(eig) < 1e-12, axis=1)
        wrong = np.any(np.where(eig > 0, 1, -1) != sorted(self.signature), axis=1)
        bad = np.flatnonzero(degenerate | wrong)
        if bad.size and degenerate[bad[0]]:
            raise SingularMetricError(f"degenerate metric at {points[bad[0]]}")
        return not bad.size


# ---------------------------------------------------------------------------
# tensor algebra on component arrays

def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


def _permutation_average(arr: np.ndarray, signed: bool) -> np.ndarray:
    """Weight-1/k! (signed) sum of arr over all permutations of its k slots;
    works on object arrays of expressions and on float arrays alike."""
    total = sum((_perm_sign(perm) if signed else 1) * np.transpose(arr, perm)
                for perm in itertools.permutations(range(arr.ndim)))
    return total / math.factorial(arr.ndim)


def antisymmetrize(arr: np.ndarray) -> np.ndarray:
    """Weight-1/k! alternation over all slots (idempotent projector)."""
    return _permutation_average(arr, signed=True)


def symmetrize(arr: np.ndarray) -> np.ndarray:
    """Weight-1/k! symmetrization over all slots."""
    return _permutation_average(arr, signed=False)


def covariant_derivative(T: TensorField, M: Manifold) -> TensorField:
    """Levi-Civita covariant derivative; the new slot is the first (lower) one."""
    n = M.dim
    gamma = M.christoffel()
    xs = M.coord_symbols
    comp = T.components
    out = np.empty((n,) + comp.shape, dtype=object)
    for lam in range(n):
        for idx in np.ndindex(comp.shape):
            expr = sp.diff(comp[idx], xs[lam])
            for slot, var in enumerate(T.variance):
                for nu in range(n):
                    swapped = list(idx)
                    swapped[slot] = nu
                    term = comp[tuple(swapped)]
                    if term == 0:
                        continue
                    if var == "u":
                        expr += gamma[idx[slot], lam, nu] * term
                    else:
                        expr -= gamma[nu, lam, idx[slot]] * term
            out[(lam,) + idx] = expr
    return TensorField(out, "d" + T.variance)


def _contract_metric(T: TensorField, M: Manifold, slot: int, matrix: sp.Matrix,
                     new_var: str) -> TensorField:
    n = M.dim
    comp = T.components
    out = np.empty(comp.shape, dtype=object)
    for idx in np.ndindex(comp.shape):
        total = sp.Integer(0)
        for nu in range(n):
            swapped = list(idx)
            swapped[slot] = nu
            total += matrix[idx[slot], nu] * comp[tuple(swapped)]
        out[idx] = total
    variance = T.variance[:slot] + new_var + T.variance[slot + 1:]
    return TensorField(out, variance, T.symmetry)


def raise_index(T: TensorField, M: Manifold, slot: int) -> TensorField:
    if T.variance[slot] != "d":
        raise GeometryError("slot is already contravariant")
    return _contract_metric(T, M, slot, M.inverse_metric_matrix(), "u")


def lower_index(T: TensorField, M: Manifold, slot: int) -> TensorField:
    if T.variance[slot] != "u":
        raise GeometryError("slot is already covariant")
    return _contract_metric(T, M, slot, M.metric, "d")


def exterior_derivative(T: TensorField, M: Manifold) -> TensorField:
    """(df)_{lam mu1..mup} = (p+1) * Alt(partial f); d o d = 0."""
    if set(T.variance) - {"d"}:
        raise GeometryError("exterior derivative needs a fully covariant form")
    n = M.dim
    p = T.rank
    if p >= n:
        return TensorField(np.zeros((n,) * (p + 1), dtype=object), "d" * (p + 1),
                           "antisymmetric")
    xs = M.coord_symbols
    grad = np.empty((n,) + T.components.shape, dtype=object)
    for lam in range(n):
        for idx in np.ndindex(T.components.shape):
            grad[(lam,) + idx] = sp.diff(T.components[idx], xs[lam])
    out = (p + 1) * antisymmetrize(grad)
    return TensorField(out, "d" * (p + 1), "antisymmetric")


def lie_bracket(X: TensorField, Y: TensorField, M: Manifold) -> TensorField:
    """[X, Y]^mu = X^nu d_nu Y^mu - Y^nu d_nu X^mu for vector fields."""
    if X.variance != "u" or Y.variance != "u":
        raise GeometryError("lie_bracket expects vector fields")
    n = M.dim
    xs = M.coord_symbols
    out = np.empty(n, dtype=object)
    for mu in range(n):
        total = sp.Integer(0)
        for nu in range(n):
            total += X.components[nu] * sp.diff(Y.components[mu], xs[nu])
            total -= Y.components[nu] * sp.diff(X.components[mu], xs[nu])
        out[mu] = total
    return TensorField(out, "u")


def vector(components) -> TensorField:
    return TensorField(components, "u")


def one_form(components) -> TensorField:
    return TensorField(components, "d")


def two_form(matrix) -> TensorField:
    return TensorField(matrix, "dd", "antisymmetric")
