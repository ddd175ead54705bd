"""Metric geometry: charts, tensor fields, numeric connection and curvature, sampling.

Tensor fields are dense component arrays of symbolic expressions over a
single chart.  Dimensions stay small (<= 7), so no sparsity or index-free
machinery is used.  Numeric evaluation goes through Manifold.evaluate: each
array is compiled once per manifold, cached under the array's content, and
evaluated over a whole batch of points in one call.  Sympy states the fields;
jets are forward-mode numpy: the k-jets (k <= 2) come from the same compiled
function run on jet numbers, and the connection, the curvature and covariant
derivatives are numpy on them.  Only the geodesic spray is differentiated
symbolically, once per manifold.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np
import sympy as sp

from .exprkit import Point, sym


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
    """Dense component array with per-slot variance ('u'/'d')."""

    def __init__(self, components, variance: str):
        arr = np.array(components, dtype=object)
        for idx in np.ndindex(arr.shape):
            arr[idx] = sp.sympify(arr[idx])
        if arr.ndim != len(variance):
            raise GeometryError("variance length must match tensor rank")
        self.components = arr
        self.variance = variance

    @property
    def rank(self) -> int:
        return self.components.ndim


# ---------------------------------------------------------------------------
# jets
#
# Numerically, a field is handled through its jet at a batch of points: one
# jet axis of length n + 1 per order, holding the partials d_0 .. d_{n-1}
# and, last, the undifferentiated value.  Manifold.evaluate makes 1- and 2-jets
# by forward-mode Taylor arithmetic (Griewank & Walther, Evaluating Derivatives):
# the array's one compiled function runs on Jets seeded with the coordinates.

class Jet(np.lib.mixins.NDArrayOperatorsMixin):
    """Value v (P,), gradient g (n, P) and Hessian h (n, n, P), None in a 1-jet,
    of one function at a batch of points.  numpy ufuncs and Python operators on
    Jets apply the Leibniz and chain rules; one without a rule raises GeometryError."""

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        if method != "__call__" or kwargs or ufunc not in _JET_RULES:
            raise GeometryError(f"no jet rule for numpy.{ufunc.__name__}")
        return _JET_RULES[ufunc](*args)

    def stacked(self) -> np.ndarray:
        """The jet in evaluate's layout, shape (P, n + 1[, n + 1])."""
        out = np.concatenate([self.g, self.v[None]])
        if self.h is not None:
            out = np.concatenate([np.concatenate([self.h, self.g[:, None]], axis=1), out[None]])
        return np.moveaxis(out, -1, 0)


def _sym_outer(a, b):
    """a_i b_j + a_j b_i of two gradients, shape (n, n, P)."""
    ab = a[:, None] * b[None]
    return ab + np.swapaxes(ab, 0, 1)


def _chain(a: Jet, f, derivatives) -> Jet:
    """f(a) by the chain rule; derivatives(x, y) gives f'(x), f''(x) at x = a.v, y = f(x)."""
    y = f(a.v)
    d1, d2 = derivatives(a.v, y)
    return Jet(y, d1 * a.g, None if a.h is None else d1 * a.h + d2 * a.g[:, None] * a.g[None])


def _add(a, b):
    if not isinstance(a, Jet):
        a, b = b, a
    if not isinstance(b, Jet):
        return Jet(a.v + b, a.g, a.h)
    return Jet(a.v + b.v, a.g + b.g, None if a.h is None else a.h + b.h)


def _multiply(a, b):
    if not isinstance(a, Jet):
        a, b = b, a
    if not isinstance(b, Jet):
        return Jet(a.v * b, a.g * b, None if a.h is None else a.h * b)
    h = None if a.h is None else a.v * b.h + b.v * a.h + _sym_outer(a.g, b.g)
    return Jet(a.v * b.v, a.v * b.g + b.v * a.g, h)


def _divide(a, b):
    if not isinstance(b, Jet):
        return Jet(a.v / b, a.g / b, None if a.h is None else a.h / b)
    # q = a / b: b dq = da - q db and b d2q = d2a - q d2b - (dq db + db dq)
    a = a if isinstance(a, Jet) else Jet(a, 0, 0)
    q = a.v / b.v
    g = (a.g - q * b.g) / b.v
    return Jet(q, g, None if b.h is None else (a.h - q * b.h - _sym_outer(g, b.g)) / b.v)


def _power(a, c):
    if isinstance(c, Jet):          # a^c = exp(c log a)
        return np.exp(c * np.log(a))
    return _chain(a, lambda x: x ** c,
                  lambda x, y: (c * x ** (c - 1), c * (c - 1) * x ** (c - 2)))


_JET_RULES = {
    np.add: _add,
    np.subtract: lambda a, b: _add(a, -b),
    np.multiply: _multiply,
    np.true_divide: _divide,
    np.power: _power,
    np.negative: lambda a: Jet(-a.v, -a.g, None if a.h is None else -a.h),
    np.positive: lambda a: a,
    np.sin: lambda a: _chain(a, np.sin, lambda x, y: (np.cos(x), -y)),
    np.cos: lambda a: _chain(a, np.cos, lambda x, y: (-np.sin(x), -y)),
    np.tan: lambda a: _chain(a, np.tan, lambda x, y: (1 + y * y, 2 * y * (1 + y * y))),
    np.exp: lambda a: _chain(a, np.exp, lambda x, y: (y, y)),
    np.log: lambda a: _chain(a, np.log, lambda x, y: (1 / x, -1 / (x * x))),
    np.sqrt: lambda a: _chain(a, np.sqrt, lambda x, y: (0.5 / y, -0.25 / (x * y))),
    np.sinh: lambda a: _chain(a, np.sinh, lambda x, y: (np.cosh(x), y)),
    np.cosh: lambda a: _chain(a, np.cosh, lambda x, y: (np.sinh(x), y)),
    np.tanh: lambda a: _chain(a, np.tanh, lambda x, y: (1 - y * y, -2 * y * (1 - y * y))),
}


def per_batch(method):
    """Memoize a method of a batch of points per object, keyed on the batch's
    coordinate values: a repeated batch gets the same read-only result back.
    The results of the last 16 batches are kept."""
    @functools.wraps(method)
    def cached(self, points):
        memo = vars(self).setdefault("_batches", {})
        key = (method.__name__, tuple(tuple(p.items()) for p in points))
        if key not in memo:
            if len(memo) >= 16:
                del memo[next(iter(memo))]
            result = method(self, points)
            for arr in result if isinstance(result, tuple) else (result,):
                arr.flags.writeable = False
            memo[key] = result
        return memo[key]
    return cached


def _tangent(arr, xs) -> np.ndarray:
    """Symbolic 1-jet of an object array: a new leading jet axis."""
    arr = np.asarray(arr, dtype=object)
    diff = np.frompyfunc(sp.diff, 2, 1)
    return np.stack([diff(arr, x) for x in xs] + [arr])


def _pointwise(subscripts: str, *values) -> np.ndarray:
    """einsum at each point of (P, ...) arrays; the subscripts name the axes
    after the point axis and must not use p."""
    ins, out = subscripts.split("->")
    return np.einsum(",".join("p" + s for s in ins.split(",")) + "->p" + out, *values)


def _product(subscripts: str, *jets) -> np.ndarray:
    """Leibniz rule: the 1-jet of an einsum product of 1-jets of shape
    (P, n + 1, ...); the subscripts name the axes after the jet axis and
    must not use p or j."""
    ins, out = subscripts.split("->")
    ins = ins.split(",")
    values = [jet[:, -1] for jet in jets]
    partials = sum(
        np.einsum(",".join(("pj" if i == t else "p") + s for i, s in enumerate(ins))
                  + "->pj" + out,
                  *(jet[:, :-1] if i == t else values[i] for i, jet in enumerate(jets)))
        for t in range(len(jets)))
    return np.concatenate([partials, _pointwise(subscripts, *values)[:, None]], axis=1)


def _inverse(jet: np.ndarray) -> np.ndarray:
    """1-jet of the inverse of a 1-jet of square matrices, with
    d(A^-1) = -A^-1 dA A^-1; a jet axis of length 1 (values only) gives
    the inverse's values.  A point where the matrix is singular or not
    finite gets NaN, for the reports to fail closed there."""
    value = jet[:, -1]
    with np.errstate(invalid="ignore", over="ignore"):
        det = np.linalg.det(value)
    bad = ~(np.isfinite(det) & (det != 0))
    inv = np.linalg.inv(np.where(bad[:, None, None], np.eye(value.shape[-1]), value))
    inv[bad] = np.nan
    partials = -np.einsum("pab,pjbc,pcd->pjad", inv, jet[:, :-1], inv)
    return np.concatenate([partials, inv[:, None]], axis=1)


def _covariant(jet: np.ndarray, christoffel: np.ndarray, variance: str) -> np.ndarray:
    """Levi-Civita covariant derivative of a tensor, the new slot first, as a
    (k - 1)-jet: from the tensor's k-jet and the (k - 1)-jet of
    Gamma[rho, mu, nu], k = 1 (Gamma's values) or 2 (Gamma's 1-jet).
    variance names the tensor's trailing slots; leading slots are frame
    indices, carried along."""
    k = christoffel.ndim - 3
    lead = (slice(None),) * k
    T = jet[lead + (-1,)]
    out = jet[lead + (slice(None, -1),)]
    product = _product if k == 2 else _pointwise
    axes = "abcdefghik"[:T.ndim - k]
    for slot in range(len(axes) - len(variance), len(axes)):
        x, moved = axes[slot], axes[:slot] + "z" + axes[slot + 1:]
        if variance[slot - len(axes)] == "u":      # + Gamma^x_{l z} T^{..z..}
            out = out + product(f"{x}lz,{moved}->l{axes}", christoffel, T)
        else:                                      # - Gamma^z_{l x} T_{..z..}
            out = out - product(f"zl{x},{moved}->l{axes}", christoffel, T)
    return out


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
        # symbolic results by name, compiled functions by array content and order
        self._cache: dict = {}

    # -- symbolic pipeline -------------------------------------------------

    @property
    def dim(self) -> int:
        return self.chart.dim

    @property
    def coord_symbols(self) -> list[sp.Symbol]:
        return [sym(c) for c in self.chart.coords]

    def metric_field(self) -> TensorField:
        return TensorField(np.array(self.metric.tolist(), dtype=object), "dd")

    def inverse_metric_matrix(self) -> sp.Matrix:
        """g^-1 = adj(g) / det g, each entry in rational normal form: the one
        symbolic inverse, shared by raise_index, the spray and the
        constructions that contract with it.  Not simplified further."""
        if "ginv" not in self._cache:
            det = sp.cancel(self.metric.det(method="berkowitz"))
            if det == 0:
                raise SingularMetricError("metric determinant is identically zero")
            adj = self.metric.adjugate()
            self._cache["ginv"] = adj.applyfunc(lambda e: sp.cancel(e / det))
        return self._cache["ginv"]

    def spray(self):
        """The geodesic acceleration a^rho = -Gamma^rho_{mu nu} v^mu v^nu as one
        compiled function of the coordinates, then the velocities, returning
        the n components.  Built as a = -g^-1 w with
        w_lam = (d_mu g_{lam nu} - d_lam g_{mu nu} / 2) v^mu v^nu, compiled for
        Python floats (`math` first, `numpy` for what `math` lacks); a math error
        it raises (a singular point, a domain error) means leaving the chart."""
        if "spray" not in self._cache:
            n, g, xs = self.dim, self.metric, self.coord_symbols
            v = [sp.Dummy(f"v_{c}") for c in self.chart.coords]
            w = [sum((sp.diff(g[lam, nu], xs[mu]) - sp.diff(g[mu, nu], xs[lam]) / 2)
                     * v[mu] * v[nu] for mu in range(n) for nu in range(n))
                 for lam in range(n)]
            ginv = self.inverse_metric_matrix()
            a = [-sum(ginv[rho, lam] * w[lam] for lam in range(n)) for rho in range(n)]
            self._cache["spray"] = self.compiled(   # an exact 0 would compile to an int
                [e if e != 0 else sp.Float(0) for e in a], extra=v, modules=("math", np))
        return self._cache["spray"]

    # -- numeric geometry, per batch of points ------------------------------

    @per_batch
    def metric_jet(self, points) -> np.ndarray:
        """2-jet of the metric at the points, shape (P, n + 1, n + 1, n, n): the
        one array the geometry differentiates."""
        return self.evaluate(self.metric, points, order=2)

    @per_batch
    def christoffel(self, points) -> np.ndarray:
        """1-jet of the Levi-Civita coefficients Gamma[rho, mu, nu], symmetric
        in (mu, nu), at the points, shape (P, n + 1, n, n, n):
        Gamma^rho_{mu nu} = g^{rho lam} (d_mu g_{lam nu} + d_nu g_{lam mu} - d_lam g_{mu nu}) / 2.
        A point where the metric is singular gets NaN."""
        g2 = self.metric_jet(points)
        dg = g2[:, :, :-1]             # dg[p, j, k, i, l] = d_j d_k g_il
        with np.errstate(invalid="ignore", over="ignore"):
            lowered = (np.einsum("pjmln->pjlmn", dg) + np.einsum("pjnlm->pjlmn", dg)
                       - dg) / 2
            return _product("rl,lmn->rmn", _inverse(g2[:, :, -1]), lowered)

    @per_batch
    def riemann(self, points) -> np.ndarray:
        """R[rho, sigma, mu, nu] = d_mu Gamma^rho_{nu sigma} - d_nu Gamma^rho_{mu sigma}
        + Gamma^rho_{mu lam} Gamma^lam_{nu sigma} - Gamma^rho_{nu lam} Gamma^lam_{mu sigma}
        at the points, shape (P, n, n, n, n), from the 1-jet of Gamma."""
        jet = self.christoffel(points)
        gamma = jet[:, -1]
        with np.errstate(invalid="ignore", over="ignore"):
            half = (np.einsum("pmrns->prsmn", jet[:, :-1])
                    + np.einsum("prml,plns->prsmn", gamma, gamma))
            return half - np.swapaxes(half, -1, -2)

    def ricci(self, points) -> np.ndarray:
        """R_{sigma nu} = R^lam_{sigma lam nu} at the points, shape (P, n, n)."""
        return np.einsum("plsln->psn", self.riemann(points))

    # -- numeric evaluation --------------------------------------------------

    def compiled(self, components, extra=(), modules=np):
        """The array lambdified for lambdify's `modules` with common-subexpression
        elimination, once per manifold, cached under the array's content and
        modules: a function of the coordinate values, then of the `extra`
        symbols' values, returning a flat list."""
        arr = np.asarray(components, dtype=object)
        key = ("lambdified", arr.shape, tuple(arr.flat), tuple(extra), modules)
        if key not in self._cache:
            args = [sym(p) for p in sorted(self.params)] + self.coord_symbols + list(extra)
            self._cache[key] = sp.lambdify(args, [sp.sympify(e) for e in arr.flat],
                                           modules=modules, cse=True)
        return functools.partial(self._cache[key],
                                 *(self.params[p] for p in sorted(self.params)))

    def evaluate(self, components, points, dtype=float, order=0) -> np.ndarray:
        """Values of an array of expressions at a batch of points, shape (P, *shape),
        or its order-jet (order <= 2), shape (P, n + 1, ..., n + 1, *shape).

        One call of the array's compiled function covers the whole batch; for a
        jet it runs on Jets seeded with the coordinates.  The entries it returns
        as scalars (the constant ones) are broadcast.  A real dtype rejects
        non-zero imaginary parts.  Floating-point warnings are silenced:
        non-finite values are returned for the reports to count and fail.
        """
        if order not in (0, 1, 2):
            raise ValueError(f"jets of order {order} are not supported (0, 1 or 2)")
        arr = np.asarray(components, dtype=object)
        count, n = len(points), self.dim
        x = np.array([[p[c] for c in self.chart.coords] for p in points],
                     dtype=float).reshape(count, n)
        args = list(x.T)
        if order:
            seeds = np.broadcast_to(np.eye(n)[:, :, None], (n, n, count))
            zeros = np.zeros((n, n, count)) if order == 2 else None
            args = [Jet(xi, seed, zeros) for xi, seed in zip(args, seeds)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            flat = self.compiled(arr)(*args)
            entries = [e.stacked() if isinstance(e, Jet) else e for e in flat]
        values = np.zeros((count,) + (n + 1,) * order + (len(flat),),
                          np.result_type(float, *entries))
        for i, e in enumerate(entries):
            if np.ndim(e) > order:
                values[..., i] = e
            else:
                values[(slice(None),) + (n,) * order + (i,)] = e
        if np.iscomplexobj(values) and np.dtype(dtype).kind != "c":
            if np.any(values.imag != 0):
                raise GeometryError("real-valued tensor has a non-zero imaginary part")
            values = values.real
        return values.astype(dtype).reshape((count,) + (n + 1,) * order + arr.shape)

    def inverse_metric_values(self, points) -> np.ndarray:
        """Numeric inverse metric at each point, shape (P, n, n).  A point where
        the metric is singular or not finite gets NaN, for the reports to
        fail closed there."""
        return _inverse(self.evaluate(self.metric, points)[:, None])[:, -1]

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


def _permutation_average(arr: np.ndarray, signed: bool, lead: int) -> np.ndarray:
    """Weight-1/k! (signed) sum of arr over all permutations of its k slots
    after the first `lead` axes, which are carried along; works on object
    arrays of expressions and on float arrays alike."""
    total = sum((_perm_sign(perm) if signed else 1)
                * np.transpose(arr, (*range(lead), *(lead + i for i in perm)))
                for perm in itertools.permutations(range(arr.ndim - lead)))
    return total / math.factorial(arr.ndim - lead)


def antisymmetrize(arr: np.ndarray, lead: int = 0) -> np.ndarray:
    """Weight-1/k! alternation over all slots after the first `lead` axes
    (idempotent projector): lead=1 alternates a (P, ...) batch of values,
    lead=2 a batch of 1-jets."""
    return _permutation_average(arr, True, lead)


def symmetrize(arr: np.ndarray, lead: int = 0) -> np.ndarray:
    """Weight-1/k! symmetrization over all slots after the first `lead` axes."""
    return _permutation_average(arr, False, lead)


@dataclass(frozen=True)
class TensorValues:
    """grad T at a batch of points, shape (P, n, *shape), and T's values, (P, *shape)."""

    components: np.ndarray
    values: np.ndarray


def covariant_derivative(T: TensorField, M: Manifold, points) -> TensorValues:
    """Levi-Civita covariant derivative at the points, the new (lower) slot
    first, and T's values: both from one 1-jet of T, with Gamma's values."""
    jet = M.evaluate(T.components, points, order=1)
    return TensorValues(_covariant(jet, M.christoffel(points)[:, -1], T.variance),
                        jet[:, -1])


def _contract_metric(T: TensorField, slot: int, matrix: sp.Matrix,
                     new_var: str) -> TensorField:
    """matrix[i, nu] T[.., nu, ..], with i in the slot."""
    out = np.moveaxis(np.tensordot(np.array(matrix.tolist(), dtype=object), T.components,
                                   (1, slot)), 0, slot)
    variance = T.variance[:slot] + new_var + T.variance[slot + 1:]
    return TensorField(out, variance)


def raise_index(T: TensorField, M: Manifold, slot: int) -> TensorField:
    if T.variance[slot] != "d":
        raise GeometryError("slot is already contravariant")
    return _contract_metric(T, slot, M.inverse_metric_matrix(), "u")


def lower_index(T: TensorField, M: Manifold, slot: int) -> TensorField:
    if T.variance[slot] != "u":
        raise GeometryError("slot is already covariant")
    return _contract_metric(T, slot, M.metric, "d")


def exterior_derivative(T: TensorField, M: Manifold) -> TensorField:
    """(df)_{lam mu1..mup} = (p+1) * Alt(partial f); d o d = 0."""
    if set(T.variance) - {"d"}:
        raise GeometryError("exterior derivative needs a fully covariant form")
    n = M.dim
    p = T.rank
    if p >= n:
        return TensorField(np.zeros((n,) * (p + 1), dtype=object), "d" * (p + 1))
    out = (p + 1) * antisymmetrize(_tangent(T.components, M.coord_symbols)[:-1])
    return TensorField(out, "d" * (p + 1))


def lie_bracket(X: TensorField, Y: TensorField, M: Manifold) -> TensorField:
    """[X, Y]^mu = X^nu d_nu Y^mu - Y^nu d_nu X^mu for vector fields."""
    if X.variance != "u" or Y.variance != "u":
        raise GeometryError("lie_bracket expects vector fields")
    dX, dY = (_tangent(V.components, M.coord_symbols)[:-1] for V in (X, Y))
    return TensorField(X.components @ dY - Y.components @ dX, "u")


def vector(components) -> TensorField:
    return TensorField(components, "u")


def one_form(components) -> TensorField:
    return TensorField(components, "d")


def two_form(matrix) -> TensorField:
    return TensorField(matrix, "dd")
