"""Metric geometry: charts, tensor fields, numeric connection and curvature, sampling.

Tensor fields are dense component arrays of exprkit trees over a single
chart.  Dimensions stay small (<= 7), so no sparsity or index-free machinery
is used.  Numeric evaluation goes through Manifold.evaluate: each array is
generated as one Python function (exprkit.codegen) once per manifold, cached
under the array's interned entries, and evaluated over a whole batch of
points in one call.  Jets are forward-mode numpy: the k-jets (k <= 2) come
from the same function run on jet numbers, and the connection, the curvature
and covariant derivatives are numpy on them.  The exterior derivative at
the end of this module differentiates the component trees with
exprkit.derivative.  Sympy is imported only by the symbolic inverse metric
and the zero test of the metric's symmetry.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import InputError, exprkit
from .exprkit import Point, to_sympy, tree


class GeometryError(InputError):
    """A chart, metric, tensor or structure the library cannot serve."""


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
        raise GeometryError("count must be >= 1")
    rng = random.Random(seed)
    return [{c: rng.uniform(*chart.box[c]) for c in chart.coords} for _ in range(count)]


def trees(components) -> np.ndarray:
    """An object array of the components, each made a tree by exprkit.tree;
    a component outside the grammar (a sympy constant such as pi or I, an
    unknown function) is a GeometryError naming it."""
    try:
        return np.vectorize(tree, otypes=[object])(np.array(components, dtype=object))
    except exprkit.ExprError as exc:
        raise GeometryError(str(exc)) from exc


def _symbolic(components) -> np.ndarray:
    """An object array of the components as sympy expressions."""
    return np.vectorize(to_sympy, otypes=[object])(np.array(components, dtype=object))


class TensorField:
    """Dense component array of trees with per-slot variance ('u'/'d')."""

    def __init__(self, components, variance: str):
        arr = trees(components)
        if arr.ndim != len(variance):
            raise GeometryError("variance length must match tensor rank")
        self.components = arr
        self.variance = variance

    @property
    def rank(self) -> int:
        return self.components.ndim

    def jet(self, M: "Manifold", points, order: int = 0) -> np.ndarray:
        """The field's values (order 0) or order-jet at the points; the S-K
        check and the geodesic monitors read any field's numbers this way."""
        return M.evaluate(self.components, points, order=order)


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
    np.sin: lambda a: _chain(a, np.sin, lambda x, y: (np.cos(x), -y)),
    np.cos: lambda a: _chain(a, np.cos, lambda x, y: (-np.sin(x), -y)),
    np.tan: lambda a: _chain(a, np.tan, lambda x, y: (1 + y * y, 2 * y * (1 + y * y))),
    np.exp: lambda a: _chain(a, np.exp, lambda x, y: (y, y)),
    np.log: lambda a: _chain(a, np.log, lambda x, y: (1 / x, -1 / (x * x))),
    np.sqrt: lambda a: _chain(a, np.sqrt, lambda x, y: (0.5 / y, -0.25 / (x * y))),
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
            memo[key] = method(self, points)
            memo[key].flags.writeable = False
        return memo[key]
    return cached


def _pointwise(subscripts: str, *values) -> np.ndarray:
    """einsum at each point of (P, ...) arrays; the subscripts name the axes
    after the point axis and must not use p.  Three or more operands follow
    numpy's optimized path, pairwise where no intermediate outgrows the
    largest operand; two are numpy's one plain call, a loop over all indices."""
    ins, out = subscripts.split("->")
    return np.einsum(",".join("p" + s for s in ins.split(",")) + "->p" + out, *values,
                     optimize=len(values) > 2)


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
    """Chart plus metric (an n x n array of trees) plus bound parameter values."""

    def __init__(self, chart: Chart, metric, params: dict[str, float] | None = None,
                 signature: tuple[int, ...] | None = None, name: str = ""):
        self.chart = chart
        self.name = name
        n = chart.dim
        g = trees([[metric[i][j] for j in range(n)] for i in range(n)])
        for i in range(n):
            for j in range(i + 1, n):
                if not exprkit.identically_equal(g[i, j], g[j, i]):
                    raise GeometryError(f"metric not symmetric at ({i},{j})")
        self.metric = g
        self.params = dict(params or {})
        if not all(math.isfinite(v) for v in self.params.values()):
            raise GeometryError("parameter values must be finite numbers")
        self.signature = tuple(signature) if signature else tuple([1] * n)
        if len(self.signature) != n:
            raise GeometryError("signature length must equal dimension")
        # symbolic results by name, compiled functions by the array's entries
        self._cache: dict = {}

    # -- symbolic pipeline -------------------------------------------------

    @property
    def dim(self) -> int:
        return self.chart.dim

    def inverse_metric_matrix(self):
        """g^-1 = adj(g) / det g as a sympy Matrix, each entry in rational
        normal form: the one symbolic inverse, for the symbolic square of
        killing.associated_sk_symbolic and the tests' references.  Not
        simplified further."""
        if "ginv" not in self._cache:
            import sympy as sp
            g = sp.Matrix(_symbolic(self.metric))
            det = sp.cancel(g.det(method="berkowitz"))
            if det == 0:
                raise SingularMetricError("metric determinant is identically zero")
            self._cache["ginv"] = g.adjugate().applyfunc(lambda e: sp.cancel(e / det))
        return self._cache["ginv"]

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
        dg = self.metric_jet(points)[:, :, :-1]    # dg[p, j, k, i, l] = d_j d_k g_il
        with np.errstate(invalid="ignore", over="ignore"):
            lowered = (np.einsum("pjmln->pjlmn", dg) + np.einsum("pjnlm->pjlmn", dg)
                       - dg) / 2
            return _product("rl,lmn->rmn", self.inverse_metric_jet(points), lowered)

    @per_batch
    def inverse_metric_jet(self, points) -> np.ndarray:
        """1-jet of g^-1 at the points, shape (P, n + 1, n, n), from the
        metric's 2-jet; its values are [:, -1].  A point where the metric is
        singular or not finite gets NaN, for the reports to fail closed there."""
        with np.errstate(invalid="ignore", over="ignore"):
            return _inverse(self.metric_jet(points)[:, :, -1])

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

    def compiled(self, components):
        """The array's entries as one exprkit.compiled_function of the
        coordinates (the parameters are literals), returning the flat list of
        their values, cached once per manifold under the interned entries; a
        name that is neither a coordinate nor a parameter is a GeometryError."""
        roots = [tree(e) for e in np.asarray(components, dtype=object).flat]
        key = ("compiled", *roots)
        if key not in self._cache:
            unbound = exprkit.names(roots) - set(self.params) - set(self.chart.coords)
            if unbound:
                raise GeometryError(f"unbound name(s) {', '.join(sorted(unbound))}")
            self._cache[key] = exprkit.compiled_function(roots, self.chart.coords, self.params,
                                                         exprkit.ARRAY_FUNCTIONS)
        return self._cache[key]

    def evaluate(self, components, points, order=0) -> np.ndarray:
        """Values of an array of expressions at a batch of points, shape (P, *shape),
        or its order-jet (order <= 2), shape (P, n + 1, ..., n + 1, *shape).

        The points are a (P, n) float array of coordinates in the chart's
        order, or a list of points by name, made that array first.  One call
        of the array's compiled function covers the whole batch; for a jet it
        runs on Jets seeded with the coordinates.  The entries it returns as
        scalars (the constant ones) are broadcast.  Floating-point warnings
        are silenced: non-finite values are returned for the reports to count
        and fail.
        """
        if order not in (0, 1, 2):
            raise GeometryError(f"jets of order {order} are not supported (0, 1 or 2)")
        arr = np.asarray(components, dtype=object)
        count, n = len(points), self.dim
        if not isinstance(points, np.ndarray):
            points = np.array([[p[c] for c in self.chart.coords] for p in points],
                              dtype=float).reshape(count, n)
        args = list(points.T)
        if order:
            seeds = np.broadcast_to(np.eye(n)[:, :, None], (n, n, count))
            zeros = np.zeros((n, n, count)) if order == 2 else None
            args = [Jet(xi, seed, zeros) for xi, seed in zip(args, seeds)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            flat = self.compiled(arr)(*args)
            entries = [e.stacked() if isinstance(e, Jet) else e for e in flat]
        values = np.zeros((count,) + (n + 1,) * order + (len(flat),))
        for i, e in enumerate(entries):
            if np.ndim(e) > order:
                values[..., i] = e
            else:
                values[(slice(None),) + (n,) * order + (i,)] = e
        return values.reshape((count,) + (n + 1,) * order + arr.shape)

    def check_signature(self, points: list[Point]) -> bool:
        """True when the metric has the declared signature at every point where
        it is finite and non-degenerate; a singular point is left to the
        checks, which fail closed there."""
        g = self.evaluate(self.metric, points)
        finite = np.all(np.isfinite(g), axis=(1, 2))
        eig = np.linalg.eigvalsh(np.where(finite[:, None, None], g, np.eye(self.dim)))
        regular = finite & np.all(np.abs(eig) >= 1e-12, axis=1)
        wrong = np.any(np.where(eig > 0, 1, -1) != sorted(self.signature), axis=1)
        return not np.any(regular & wrong)


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
    jet = T.jet(M, points, 1)
    return TensorValues(_covariant(jet, M.christoffel(points)[:, -1], T.variance),
                        jet[:, -1])


def exterior_derivative(T: TensorField, M: Manifold) -> TensorField:
    """(df)_{lam mu1..mup} = (p+1) * Alt(partial f), each partial a tree by
    exprkit.derivative; d o d = 0."""
    if set(T.variance) - {"d"}:
        raise GeometryError("exterior derivative needs a fully covariant form")
    n = M.dim
    p = T.rank
    if p >= n:
        return TensorField(np.zeros((n,) * (p + 1), dtype=object), "d" * (p + 1))
    diff = np.frompyfunc(exprkit.derivative, 2, 1)
    out = (p + 1) * antisymmetrize(np.stack([diff(T.components, c) for c in M.chart.coords]))
    return TensorField(out, "d" * (p + 1))


def vector(components) -> TensorField:
    return TensorField(components, "u")


def one_form(components) -> TensorField:
    return TensorField(components, "d")
