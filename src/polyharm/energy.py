"""Approximate (ball-averaged) energy density and PL Dirichlet energy.

The ball-averaged density at an interior point x of a flat simplex is

    e_eps(x) = integral over the metric eps-ball of
               d_Y(phi(x), phi(x'))^2 / eps^(m+2)  dmu_g(x')

estimated by Monte Carlo over the metric ball.  For affine phi this tends
to c_m = omega_m / (m + 2) times the gradient-squared density, so reports
carry both normalizations: "gradient_squared" (the default, the plain
Dirichlet integrand) and "ks_raw" (multiplied by c_m).

Per-simplex contributions are computed independently and reduced in
simplex-index order, so totals are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BallLeavesSimplex, NonpositiveEpsilon, PoleAtPoint
from .maps import PLMap, _checked_jacobian
from .riemannian import PiecewiseMetric, quadrature_sum, simplex_rule


def unit_ball_volume(m: int) -> float:
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def ks_normalization(m: int) -> float:
    """c_m = omega_m / (m + 2); the factor relating the ball-average limit
    to the gradient-squared density for affine maps on flat simplices."""
    return unit_ball_volume(m) / (m + 2.0)


@dataclass(frozen=True)
class EnergyReport:
    """Per-simplex densities and contributions plus their sum.

    densities[i] * volume[i] == contributions[i]; total == sum of
    contributions (fixed summation order).  ``normalization`` records the
    convention and ``c_m`` the constant linking the two.
    """

    densities: np.ndarray
    contributions: np.ndarray
    total: float
    normalization: str
    c_m: float

    def as_dict(self):
        return {
            "total": self.total,
            "per_simplex": list(map(float, self.contributions)),
            "per_simplex_density": list(map(float, self.densities)),
            "normalization": self.normalization,
            "c_m": self.c_m,
        }


def dirichlet_energy(complex_, metric: PiecewiseMetric, plmap: PLMap,
                     target=None, normalization="gradient_squared",
                     order=None) -> EnergyReport:
    """Closed-form PL Dirichlet energy, optionally with a target metric.

    With a null target the flat euclidean chart is assumed.  The density
    on each simplex is sum_ab h_ab(phi(q)) <grad phi^a, grad phi^b> at the
    quadrature points q (barycenter for constant data; an order-2 rule
    when the metric is smooth or the target curved).

    All simplices and quadrature points are one (T, q) batch: the target
    metric is evaluated once over all T * q images, in simplex order; a
    smooth metric's evaluators are called point by point.
    """
    n = complex_.n
    cm = ks_normalization(n)
    smooth = metric.mode == "smooth" or (target is not None
                                         and not target.is_flat)
    if order is None:
        order = 2 if smooth else 1
    pts, wts = simplex_rule(n, order)

    idx = np.arange(len(complex_.top_simplices))
    rows = plmap.differential(idx)[:, None]                  # (T, 1, d, n)
    if metric.mode == "smooth":
        g = metric.at_points(idx.tolist(), pts)               # (T, q, n, n)
        ginv = np.linalg.inv(g)
    else:
        g = metric.stack[:, None]                             # (T, 1, n, n)
        ginv = metric.inverse[:, None]
    q = rows @ ginv @ rows.swapaxes(-1, -2)
    if target is None:
        dens = np.trace(q, axis1=-2, axis2=-1)
    else:
        images = np.stack([plmap.value_at(idx, xi) for xi in pts], axis=1)
        h = target.metric_at(images.reshape(-1, images.shape[-1]))
        dens = np.einsum("tqab,tqab->tq",
                         h.reshape(images.shape + images.shape[-1:]), q)
    dv = wts * np.sqrt(np.linalg.det(g))                      # (T, q)
    contributions = quadrature_sum(dens * dv)
    densities = contributions / quadrature_sum(dv)

    if normalization == "ks_raw":
        densities = cm * densities
        contributions = cm * contributions
    elif normalization != "gradient_squared":
        raise ValueError(f"unknown normalization {normalization!r}")
    return EnergyReport(densities, contributions,
                        float(np.sum(contributions)), normalization, cm)


def approx_energy_density(complex_, metric: PiecewiseMetric, plmap: PLMap,
                          address, eps, sample_count=100_000, seed=0):
    """Monte-Carlo estimate of the ball-averaged density at one point.

    ``address`` is a riemannian.PointAddress interior to a top simplex.
    The metric eps-ball must stay inside that (flat, constant-metric)
    simplex; target distances are euclidean chart distances.  Returns
    (estimate, standard_error).
    """
    if eps <= 0:
        raise NonpositiveEpsilon(f"eps must be positive, got {eps}")
    if metric.mode != "constant":
        # the ball is only a metric ellipsoid on a flat simplex
        raise TypeError("ball-average density requires constant-per-simplex metrics")
    m = complex_.n
    idx = address.top_index
    xi0 = address.ref_coords()
    g = metric.at(idx)
    ginv = metric.inverse[idx]

    # distance from xi0 to each face of the reference simplex, measured in g
    margins = []
    for i in range(m):
        a = np.zeros(m)
        a[i] = 1.0
        margins.append(xi0[i] / math.sqrt(a @ ginv @ a))
    ones = np.ones(m)
    margins.append((1.0 - xi0.sum()) / math.sqrt(ones @ ginv @ ones))
    if min(margins) < eps:
        raise BallLeavesSimplex(
            f"eps={eps} exceeds distance {min(margins):.3g} to the simplex boundary")

    rows = plmap.differential(idx)
    evals, evecs = np.linalg.eigh(g)
    g_inv_sqrt = evecs @ np.diag(evals ** -0.5) @ evecs.T

    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((sample_count, m))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    radii = rng.uniform(0.0, 1.0, sample_count) ** (1.0 / m)
    u = normals * radii[:, None]

    # xi' - xi0 = eps * g^{-1/2} u ; phi affine on the simplex
    disp = eps * (u @ g_inv_sqrt.T)
    dvals = disp @ rows.T
    omega = unit_ball_volume(m)
    samples = omega * np.einsum("ij,ij->i", dvals, dvals) / eps ** 2
    est = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(sample_count))
    return est, stderr


@dataclass(frozen=True)
class CompositeBound:
    lhs: float
    rhs: float
    lipschitz: float
    holds: bool

    def as_dict(self):
        return {"lhs": self.lhs, "rhs": self.rhs,
                "lipschitz": self.lipschitz, "holds": self.holds}


def composite_energy_bound_check(complex_, metric, plmap, hol) -> CompositeBound:
    """Check E(psi o phi) <= lambda^2 E(phi) for a holomorphic psi.

    lambda is estimated as the maximal operator norm of the jacobian of
    psi over the image quadrature points; both energies use the flat
    chart metric.  ``holds`` allows a 1e-9 relative slack.
    """
    base = dirichlet_energy(complex_, metric, plmap)
    n = complex_.n
    idx = np.arange(len(complex_.top_simplices))
    rows = plmap.differential(idx)
    images = plmap.value_at(idx, np.full(n, 1.0 / (n + 1)))
    jacs = np.stack([_checked_jacobian(hol, image, rows.shape[1])
                     for image in images])
    composed = jacs @ rows
    bad = ~np.isfinite(composed).all(axis=(1, 2))
    if bad.any():
        raise PoleAtPoint(
            f"composition not finite on simplex {int(np.argmax(bad))}")
    dens = np.trace(composed @ metric.inverse
                    @ composed.swapaxes(1, 2), axis1=1, axis2=2)
    lhs = sum((dens * metric.volumes).tolist())  # in simplex order
    lam = max(0.0, float(np.linalg.norm(jacs, 2, axis=(1, 2)).max()))
    rhs = lam ** 2 * base.total
    return CompositeBound(float(lhs), float(rhs), lam,
                          bool(lhs <= rhs * (1.0 + 1e-9) + 1e-15))
