"""Charted Hermitian/Kahler targets and holomorphic test functions.

A target lives in a single chart with real coordinates
(x_1..x_n, y_1..y_n), z_A = x_A + i y_A.  The complex structure acts as
J dx_A = dy_A, J dy_A = -dx_A.  Built-ins: the flat chart of C^n and the
affine chart of the complex projective line with the Fubini-Study metric.

Holomorphic functions carry closed-form complex derivatives where possible;
generic callables fall back to central finite differences.  All evaluators
are pure and concurrently safe.
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


# ---------------------------------------------------------------------------
# charted targets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChartedTarget:
    """Hermitian/Kahler manifold in one chart.

    ``metric(p)`` returns the 2n x 2n SPD array at the real chart point p;
    ``christoffel_fn(p)`` the (2n, 2n, 2n) array Gamma[k, a, b], symmetric
    in (a, b).  When ``christoffel_fn`` is None a finite-difference
    Levi-Civita evaluator derived from the metric is used.
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

        Points are checked against the chart and passed to ``metric`` one
        by one in order, up to the first one outside the chart; the values
        are then checked finite and positive definite in one batch.  The
        first failing point raises ChartBoundary or TargetMetricSingular.
        """
        p = np.asarray(p, dtype=float)
        points = p if p.ndim == 2 else p[None]
        hs = []
        for q in points:
            if not self._in_chart(q):
                break
            hs.append(np.asarray(self.metric(q), dtype=float))
        h = np.empty((0, p.shape[-1], p.shape[-1]))
        if hs:
            h = np.stack(hs)
            finite = np.isfinite(h).all(axis=(1, 2))
            sym = np.where(finite[:, None, None], 0.5 * (h + h.swapaxes(1, 2)),
                           np.eye(h.shape[1]))
            bad = ~finite | (np.linalg.eigvalsh(sym)[:, 0] <= 0.0)
            if bad.any():
                raise TargetMetricSingular(
                    f"{self.name} metric singular at chart point "
                    f"{points[np.argmax(bad)]}")
        if len(hs) < len(points):
            self._check_chart(points[len(hs)])
        return h if p.ndim == 2 else h[0]

    def inverse_metric_at(self, p) -> np.ndarray:
        return np.linalg.inv(self.metric_at(p))

    def christoffel(self, p) -> np.ndarray:
        self._check_chart(p)
        if self.christoffel_fn is not None:
            return np.asarray(self.christoffel_fn(np.asarray(p, dtype=float)))
        return christoffel_fd(self.metric_at, p, self.fd_step)

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
    eye = np.eye(2 * n)
    zeros = np.zeros((2 * n, 2 * n, 2 * n))
    return ChartedTarget(
        n=n,
        metric=lambda p: eye,
        christoffel_fn=lambda p: zeros,
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

    eye = np.eye(2)

    # coordinates as Python floats: the same IEEE arithmetic as numpy
    # scalars, with less overhead per point
    def metric(p):
        x, y = np.asarray(p, dtype=float).tolist()
        return eye / (1.0 + x * x + y * y) ** 2

    def christoffel(p):
        # conformal metric exp(2 rho) I with rho = -log(1 + r^2)
        x, y = np.asarray(p, dtype=float).tolist()
        denom = 1.0 + x * x + y * y
        rx = -2.0 * x / denom
        ry = -2.0 * y / denom
        g = np.empty((2, 2, 2))
        g[0] = [[rx, ry], [ry, -rx]]
        g[1] = [[-ry, rx], [rx, ry]]
        return g

    return ChartedTarget(n=1, metric=metric, christoffel_fn=christoffel,
                         name="cp1")


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
        g = self.grad(to_complex(p))
        # rows d f1 = (Re g, -Im g) and d f2 = (Im g, Re g)
        return np.concatenate([g.real, -g.imag, g.imag, g.real]).reshape(2, -1)


def coordinate(n, a, name=None) -> HolomorphicFunction:
    e = np.zeros(n, dtype=complex)
    e[a] = 1.0
    return HolomorphicFunction(n, lambda z: z[a], lambda z: e,
                               name=name or f"z{a + 1}")


def pair_sum(n, k, l) -> HolomorphicFunction:
    e = np.zeros(n, dtype=complex)
    e[k] += 1.0
    e[l] += 1.0
    return HolomorphicFunction(n, lambda z: z[k] + z[l], lambda z: e,
                               name=f"z{k + 1}+z{l + 1}")


def product(n, a, b, factor=1.0, name=None) -> HolomorphicFunction:
    def fn(z):
        return factor * z[a] * z[b]

    def dz(z):
        g = np.zeros(n, dtype=complex)
        g[a] += factor * z[b]
        g[b] += factor * z[a]
        return g

    if name is None:
        name = f"z{a + 1}z{b + 1}" if factor == 1.0 else f"iz{a + 1}z{b + 1}"
    return HolomorphicFunction(n, fn, dz, name=name)


def i_product(n, a, b) -> HolomorphicFunction:
    return product(n, a, b, factor=1j)


def polynomial(n, coeffs, name="poly") -> HolomorphicFunction:
    """Polynomial sum_c coeffs[c] * z^c with c an exponent tuple."""
    items = [(tuple(c), complex(v)) for c, v in coeffs.items()]
    return HolomorphicFunction(n, lambda z: _poly_value(items, z),
                               lambda z: _poly_grad(items, n, z), name=name)


def _poly_value(items, z):
    """sum of v * z^c over the (exponent tuple c, coefficient v) items."""
    return sum(v * np.prod(z ** np.array(c)) for c, v in items)


def _poly_grad(items, n, z) -> np.ndarray:
    """Complex gradient (d/dz_1 .. d/dz_n) of _poly_value(items, z)."""
    g = np.zeros(n, dtype=complex)
    for c, v in items:
        for a in range(n):
            if c[a] == 0:
                continue
            cc = np.array(c)
            cc[a] -= 1
            g[a] += v * c[a] * np.prod(z ** cc)
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
