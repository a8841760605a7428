"""Charted Hermitian/Kahler targets and holomorphic test functions.

A target lives in a single chart with real coordinates
(x_1..x_n, y_1..y_n), z_A = x_A + i y_A.  The complex structure acts as
J dx_A = dy_A, J dy_A = -dx_A.  Built-ins: the flat chart of C^n and the
affine chart of the complex projective line with the Fubini-Study metric.

Holomorphic functions carry closed-form complex derivatives where possible;
generic callables fall back to central finite differences.  Built-ins take
stacks of points; all evaluators are pure and concurrently safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, combinations

import numpy as np

from .errors import ChartBoundary, PoleAtPoint, TargetMetricSingular


def complex_structure(n: int) -> np.ndarray:
    """Matrix of J in the (x_1..x_n, y_1..y_n) basis."""
    j = np.zeros((2 * n, 2 * n))
    j[n:, :n] = np.eye(n)
    j[:n, n:] = -np.eye(n)
    return j


def to_complex(p) -> np.ndarray:
    """(x_1..x_n, y_1..y_n) -> complex n-vector."""
    p = np.asarray(p, dtype=float)
    n = p.shape[-1] // 2
    return p[..., :n] + 1j * p[..., n:]


def to_real(z) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return np.concatenate([z.real, z.imag])


@dataclass(frozen=True)
class _Stacked:
    """A built-in evaluator: ``stack`` takes a stack of points (leading
    axis); a call at one point evaluates a stack of one."""

    stack: callable

    def __call__(self, p):
        return self.stack(np.asarray(p)[None])[0]


def _cmul(a, b) -> np.ndarray:
    """a * b elementwise with the rounding of numpy's scalar complex
    product: array products may fuse multiply-adds, scalar ones do not."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


# ---------------------------------------------------------------------------
# charted targets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChartedTarget:
    """Hermitian/Kahler manifold in one chart.

    ``metric(p)`` returns the 2n x 2n SPD array at the real chart point p;
    ``christoffel_fn(p)`` the (2n, 2n, 2n) array Gamma[k, a, b], symmetric
    in (a, b).  When ``christoffel_fn`` is None a finite-difference
    Levi-Civita evaluator derived from the metric is used.  Built-in
    targets take a stack of points in one call, other callables one point
    at a time.
    """

    n: int
    metric: callable
    christoffel_fn: callable = None
    is_hermitian: bool = True
    is_kahler: bool = True
    is_flat: bool = False
    name: str = "target"
    chart_contains: callable = None
    fd_step: float = 1e-6

    @property
    def J(self) -> np.ndarray:
        return complex_structure(self.n)

    def metric_at(self, p) -> np.ndarray:
        """The 2n x 2n metric at the chart point p, or the (k, 2n, 2n)
        stack at a (k, 2n) stack of points.

        ``metric`` is evaluated at the points before the first one outside
        the chart (see ``_chart_prefix``); the values are then checked
        finite and positive definite in one batch.  The first failing
        point raises ChartBoundary or TargetMetricSingular.
        """
        p = np.asarray(p, dtype=float)
        points = p if p.ndim == 2 else p[None]
        h = self._chart_prefix(self.metric, points, 2)
        if len(h):
            finite = np.isfinite(h).all(axis=(1, 2))
            sym = np.where(finite[:, None, None], 0.5 * (h + h.swapaxes(1, 2)),
                           np.eye(h.shape[1]))
            bad = ~finite | (np.linalg.eigvalsh(sym)[:, 0] <= 0.0)
            if bad.any():
                raise TargetMetricSingular(
                    f"{self.name} metric singular at chart point "
                    f"{points[np.argmax(bad)]}")
        if len(h) < len(points):
            self._check_chart(points[len(h)])
        return h if p.ndim == 2 else h[0]

    def inverse_metric_at(self, p) -> np.ndarray:
        return np.linalg.inv(self.metric_at(p))

    def christoffel(self, p) -> np.ndarray:
        """Gamma[k, a, b] at the chart point p, or the (k, 2n, 2n, 2n)
        stack at a (k, 2n) stack of points, checked like ``metric_at``:
        the first failing point raises ChartBoundary or (symbols not
        finite) TargetMetricSingular."""
        p = np.asarray(p, dtype=float)
        points = p if p.ndim == 2 else p[None]
        gamma = self._christoffel_prefix(points)
        if len(gamma) < len(points):
            self._check_chart(points[len(gamma)])
        return gamma if p.ndim == 2 else gamma[0]

    def _christoffel_prefix(self, points, where="") -> np.ndarray:
        """Symbols at the points before the first outside the chart; the
        first non-finite raises TargetMetricSingular, + where.format(i)."""
        fn = self.christoffel_fn or (
            lambda q: christoffel_fd(self.metric_at, q, self.fd_step))
        gamma = self._chart_prefix(fn, points, 3)
        bad = ~np.isfinite(gamma).all(axis=(1, 2, 3))
        if bad.any():
            i = int(np.argmax(bad))
            raise TargetMetricSingular(
                f"{self.name} Christoffel symbols not finite at chart point "
                f"{points[i]}" + where.format(i))
        return gamma

    def _chart_prefix(self, fn, points, rank) -> np.ndarray:
        """``fn`` at the (k, 2n) points before the first one outside the
        chart, stacked: in one call for a built-in, else point by point,
        each after its chart check (rank: of one value, for k = 0)."""
        if isinstance(fn, _Stacked):
            k = len(points) if self.chart_contains is None else next(
                (i for i, q in enumerate(points) if not self._in_chart(q)),
                len(points))
            return np.asarray(fn.stack(points[:k]), dtype=float)
        values = []
        for q in points:
            if not self._in_chart(q):
                break
            values.append(np.asarray(fn(q), dtype=float))
        return (np.stack(values) if values
                else np.empty((0,) + (points.shape[-1],) * rank))

    def _in_chart(self, p) -> bool:
        return self.chart_contains is None or bool(
            self.chart_contains(np.asarray(p, dtype=float)))

    def _check_chart(self, p):
        if not self._in_chart(p):
            raise ChartBoundary(f"point {p} outside chart of {self.name}")

    # -- sampled structure checks ----------------------------------------

    def hermitian_residual(self, p) -> float:
        """max | h(JU, JV) - h(U, V) | over basis vectors at p."""
        h = self.metric_at(p)
        j = self.J
        return float(np.abs(j.T @ h @ j - h).max())

    def christoffel_compatibility_residual(self, p, step=1e-5) -> float:
        """Finite-difference metric compatibility:
        d_c h_ab - Gamma^k_ca h_kb - Gamma^k_cb h_ak ~ 0."""
        p = np.asarray(p, dtype=float)
        gamma = self.christoffel(p)
        h = self.metric_at(p)
        dh = _central_diff(self.metric_at, p, [step] * p.shape[0])
        worst = 0.0
        for c in range(2 * self.n):
            contraction = (np.einsum("ka,kb->ab", gamma[:, c, :], h)
                           + np.einsum("kb,ak->ab", gamma[:, c, :], h))
            worst = max(worst, float(np.abs(dh[c] - contraction).max()))
        return worst

    def kahler_form_residual(self, p, step=1e-4) -> float:
        """Sampled closedness of the Kahler form omega(U,V) = h(JU, V):
        max component of d(omega) at p by central differences."""
        p = np.asarray(p, dtype=float)

        def omega(q):
            return self.J.T @ self.metric_at(q)  # omega_ab = h(J e_a, e_b)

        domega = _central_diff(omega, p, [step] * p.shape[0])
        worst = 0.0
        for a, b, c in combinations(range(2 * self.n), 3):
            val = domega[a][b, c] + domega[b][c, a] + domega[c][a, b]
            worst = max(worst, abs(val))
        return worst


def _central_diff(f, p, steps) -> np.ndarray:
    """First derivatives of f at the array p by central differences,
    (f(p + h_j e_j) - f(p - h_j e_j)) / (2 h_j) with h_j = steps[j],
    stacked on axis 0 (one entry per step)."""
    out = []
    for j, h in enumerate(steps):
        pp, pm = p.copy(), p.copy()
        pp[j] += h
        pm[j] -= h
        out.append((f(pp) - f(pm)) / (2 * h))
    return np.stack(out)


def christoffel_fd(metric_at, p, step=1e-6) -> np.ndarray:
    """Levi-Civita symbols by central differences of the metric."""
    p = np.asarray(p, dtype=float)
    m = p.shape[0]
    dh = _central_diff(metric_at, p, [step] * m)
    hinv = np.linalg.inv(metric_at(p))
    gamma = np.empty((m, m, m))
    for a in range(m):
        for b in range(m):
            v = 0.5 * (dh[a][:, b] + dh[b][:, a] - dh[:, a, b])
            gamma[:, a, b] = hinv @ v
    return gamma


def flat_target(n: int) -> ChartedTarget:
    """C^n with the euclidean metric; all Christoffel symbols vanish."""
    m = 2 * n
    return ChartedTarget(
        n=n,
        metric=_Stacked(lambda p: np.tile(np.eye(m), (len(p), 1, 1))),
        christoffel_fn=_Stacked(lambda p: np.zeros((len(p), m, m, m))),
        is_flat=True,
        name=f"flat:{n}",
    )


def fubini_study_cp1() -> ChartedTarget:
    """The affine chart of the projective line with the Fubini-Study
    metric h = I / (1 + |z|^2)^2.

    The chart covers all of C (only the point at infinity is missing),
    so no chart-boundary error can occur; maps are expected to stay a
    bounded distance from the pole.
    """

    def metric(p):
        x, y = np.asarray(p, dtype=float).T
        # libm's pow like Python's float ** 2; an array's ** 2 squares
        denom = np.float_power(1.0 + x * x + y * y, 2)
        return np.eye(2) / denom[:, None, None]

    def christoffel(p):
        # conformal metric exp(2 rho) I with rho = -log(1 + r^2)
        x, y = np.asarray(p, dtype=float).T
        denom = 1.0 + x * x + y * y
        rx = -2.0 * x / denom
        ry = -2.0 * y / denom
        return np.stack([rx, ry, ry, -rx, -ry, rx, rx, ry],
                        axis=-1).reshape(-1, 2, 2, 2)

    return ChartedTarget(n=1, metric=_Stacked(metric),
                         christoffel_fn=_Stacked(christoffel), name="cp1")


def christoffel(target: ChartedTarget, p) -> np.ndarray:
    """Christoffel symbols Gamma[k, a, b] of a target at a chart point."""
    return target.christoffel(p)


# ---------------------------------------------------------------------------
# holomorphic functions and maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolomorphicFunction:
    """Holomorphic function on the chart of an n-dimensional target.

    ``fn(z)`` maps a complex n-vector to a complex scalar; ``dz(z)``
    returns the complex gradient (d/dz_1 .. d/dz_n).  When ``dz`` is
    omitted it is computed by central finite differences, which keeps
    user-supplied callables usable but less accurate.
    """

    n: int
    fn: callable
    dz: callable = None
    name: str = "f"
    fd_step: float = 1e-6
    pole_tol: float = 0.0

    def __call__(self, z):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        w = complex(self.fn(z))
        if not np.isfinite(w):
            raise PoleAtPoint(f"{self.name} not finite at {z}")
        return w

    def grad(self, z) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if self.dz is not None:
            return np.atleast_1d(np.asarray(self.dz(z), dtype=complex))
        return _central_diff(
            self, z, [self.fd_step * max(1.0, abs(za)) for za in z])

    # -- real form --------------------------------------------------------

    def value_real(self, p) -> np.ndarray:
        w = self(to_complex(p))
        return np.array([w.real, w.imag])

    def real_jacobian(self, p) -> np.ndarray:
        """(2 x 2n) real Jacobian rows (d f1; d f2) in the
        (x_1..x_n, y_1..y_n) basis, derived from the complex gradient."""
        return _real_rows(self.grad(to_complex(p)))

    def _stack(self, z):
        """Values (k,) and real Jacobians (k, 2, 2n) at a (k, n) complex
        stack; None unless fn and dz are built-ins and z has n columns."""
        if (isinstance(self.fn, _Stacked) and isinstance(self.dz, _Stacked)
                and z.shape[1] == self.n):
            return self.fn.stack(z), _real_rows(self.dz.stack(z))


def _real_rows(g) -> np.ndarray:
    """Real Jacobian rows d f1 = (Re g, -Im g) and d f2 = (Im g, Re g) of
    complex gradients, (..., n) -> (..., 2, 2n)."""
    return np.concatenate([g.real, -g.imag, g.imag, g.real],
                          axis=-1).reshape(g.shape[:-1] + (2, -1))


def coordinate(n, a, name=None) -> HolomorphicFunction:
    e = np.zeros(n, dtype=complex)
    e[a] = 1.0
    return HolomorphicFunction(n, _Stacked(lambda z: z[:, a]),
                               _Stacked(lambda z: np.tile(e, (len(z), 1))),
                               name=name or f"z{a + 1}")


def pair_sum(n, k, l) -> HolomorphicFunction:
    e = np.zeros(n, dtype=complex)
    e[k] += 1.0
    e[l] += 1.0
    return HolomorphicFunction(n, _Stacked(lambda z: z[:, k] + z[:, l]),
                               _Stacked(lambda z: np.tile(e, (len(z), 1))),
                               name=f"z{k + 1}+z{l + 1}")


def product(n, a, b, factor=1.0, name=None) -> HolomorphicFunction:
    def fn(z):
        return _cmul(_cmul(factor, z[:, a]), z[:, b])

    def dz(z):
        g = np.zeros((len(z), n), dtype=complex)
        g[:, a] += _cmul(factor, z[:, b])
        g[:, b] += _cmul(factor, z[:, a])
        return g

    if name is None:
        name = f"z{a + 1}z{b + 1}" if factor == 1.0 else f"iz{a + 1}z{b + 1}"
    return HolomorphicFunction(n, _Stacked(fn), _Stacked(dz), name=name)


def i_product(n, a, b) -> HolomorphicFunction:
    return product(n, a, b, factor=1j)


def polynomial(n, coeffs, name="poly") -> HolomorphicFunction:
    """Polynomial sum_c coeffs[c] * z^c with c an exponent tuple."""
    items = [(tuple(c), complex(v)) for c, v in coeffs.items()]
    return HolomorphicFunction(n, _Stacked(lambda z: _poly_value(items, z)),
                               _Stacked(lambda z: _poly_grad(items, n, z)),
                               name=name)


def _poly_value(items, z) -> np.ndarray:
    """sum of v * z^c over the (exponent tuple c, coefficient v) items, at
    each row of the (k, n) complex stack z."""
    return sum((_cmul(v, np.prod(z ** np.array(c), axis=-1))
                for c, v in items), np.zeros(len(z), dtype=complex))


def _poly_grad(items, n, z) -> np.ndarray:
    """(k, n) complex gradients d/dz_A of _poly_value(items, z)."""
    g = np.zeros((len(z), n), dtype=complex)
    for c, v in items:
        for a in range(n):
            if c[a] == 0:
                continue
            cc = np.array(c)
            cc[a] -= 1
            g[:, a] += _cmul(v * c[a], np.prod(z ** cc, axis=-1))
    return g


def rational(num: HolomorphicFunction, den: HolomorphicFunction,
             pole_tol=1e-12, name=None) -> HolomorphicFunction:
    """Quotient with a pole guard on the denominator."""

    def fn(z):
        d = den(z)
        if abs(d) <= pole_tol:
            raise PoleAtPoint(f"denominator {den.name} vanishes at {z}")
        return num(z) / d

    def dz(z):
        d = den(z)
        if abs(d) <= pole_tol:
            raise PoleAtPoint(f"denominator {den.name} vanishes at {z}")
        return (num.grad(z) * d - num(z) * den.grad(z)) / d ** 2

    return HolomorphicFunction(num.n, fn, dz,
                               name=name or f"({num.name})/({den.name})")


@dataclass(frozen=True)
class HolomorphicMap:
    """Holomorphic map N -> P given by component functions."""

    components: tuple
    name: str = "psi"

    @property
    def n(self):
        return self.components[0].n

    @property
    def p(self):
        return len(self.components)

    def value_complex(self, z) -> np.ndarray:
        return np.array([f(z) for f in self.components], dtype=complex)

    def value_real(self, pt) -> np.ndarray:
        w = self.value_complex(to_complex(pt))
        return np.concatenate([w.real, w.imag])

    def real_jacobian(self, pt) -> np.ndarray:
        """(2p x 2n) real Jacobian, rows ordered (x_1..x_p, y_1..y_p)."""
        rows = np.stack([f.real_jacobian(pt) for f in self.components], axis=1)
        return rows.reshape(2 * self.p, -1)


def identity_map(n) -> HolomorphicMap:
    return HolomorphicMap(tuple(coordinate(n, a) for a in range(n)),
                          name="id")


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------

def cauchy_riemann_residual(f, point, step=1e-5) -> float:
    """max_A |dx_A f1 - dy_A f2| + |dy_A f1 + dx_A f2| at a chart point.

    ``f`` is a HolomorphicFunction or any callable taking a complex
    n-vector; derivatives are central finite differences of the values,
    so anti-holomorphic candidates are handled honestly.
    """
    return float(_cr_terms(*_xy_derivatives(f, point, step))[0].max())


def anti_cauchy_riemann_residual(f, point, step=1e-5) -> float:
    """Residual of the conjugate CR system; vanishes for
    anti-holomorphic functions."""
    return float(_cr_terms(*_xy_derivatives(f, point, step))[1].max())


def _xy_derivatives(f, point, step):
    """Central differences (d/dx_A f, d/dy_A f), A = 1..n, of a complex
    function of a complex n-vector, taken on the real form
    q = (x_1..x_n, y_1..y_n); raises PoleAtPoint on a non-finite value."""
    z = np.atleast_1d(np.asarray(point, dtype=complex))
    n = z.shape[0]

    def value(q):
        w = complex(f(q[:n] + 1j * q[n:]))
        if not np.isfinite(w):
            raise PoleAtPoint(f"function not finite near {z}")
        return w

    d = _central_diff(value, np.concatenate([z.real, z.imag]),
                      [step] * (2 * n))
    return d[:n], d[n:]


def _cr_terms(dx, dy):
    """Cauchy-Riemann and anti-Cauchy-Riemann terms, entrywise, of complex
    values with derivatives dx along x_A and dy along y_A."""
    return (np.abs(dx.real - dy.imag) + np.abs(dy.real + dx.imag),
            np.abs(dx.real + dy.imag) + np.abs(dy.real - dx.imag))


def kahler_symmetry_residual(f, point, step=1e-4) -> float:
    """max over components j and indices A, B of
    | d2 f^j / dx_A dy_B - d2 f^j / dx_B dy_A | by mixed central
    differences."""
    z = np.atleast_1d(np.asarray(point, dtype=complex))
    n = z.shape[0]

    def val(w):
        out = complex(f(w))
        if not np.isfinite(out):
            raise PoleAtPoint(f"function not finite near {point}")
        return out

    mixed = np.empty((n, n), dtype=complex)
    for a in range(n):
        ea = np.zeros_like(z)
        ea[a] = step
        for b in range(n):
            eb = np.zeros_like(z)
            eb[b] = 1j * step
            mixed[a, b] = (val(z + ea + eb) - val(z + ea - eb)
                           - val(z - ea + eb) + val(z - ea - eb)) / (4 * step * step)
    diff = mixed - mixed.T
    return float(max(np.abs(diff.real).max(), np.abs(diff.imag).max()))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def holomorphic_family(n, include_products=True, include_sums=True):
    """The test family used by the equivalence suites: coordinates,
    pair sums, products z_A z_B and i z_A z_B."""
    fam = [coordinate(n, a) for a in range(n)]
    if include_sums:
        fam.extend(pair_sum(n, k, l) for k, l in combinations(range(n), 2))
    if include_products:
        for a, b in combinations_with_replacement(range(n), 2):
            fam.append(product(n, a, b))
            fam.append(i_product(n, a, b))
    return fam
