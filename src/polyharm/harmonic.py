"""Discrete harmonic functions and harmonic maps.

The weak equation is tested against the PL hat basis: for every interior
vertex p and every chart component k,

    (S phi^k)(p)  =  load_k(p),
    S[p][q] = integral of <grad hat_p, grad hat_q> dmu_g,
    load_k(p) = integral of hat_p * (Gamma^k_ab o phi) <grad phi^a, grad phi^b>.

Stiffness entries are exact for constant-per-simplex metrics; the
Christoffel load uses the barycenter value of Gamma o phi times the
per-simplex constant gradient pairing.  Assembly iterates simplices in
index order with a deterministic reduction and caches the per-simplex
geometry the load needs; solves are single threaded.  Systems are
immutable once assembled (lazy caches aside).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix, coo_matrix
from scipy.sparse.linalg import splu, lsmr

from .errors import (ImageLeftChart, MissingBoundaryValues, NonConvergence,
                     NotAdmissible, SingularSystem, UsageError)
from .maps import PLMap
from .riemannian import PiecewiseMetric, simplex_rule, simplex_volume
from .simplicial import SimplicialComplex, check_admissible


def hat_gradients(n: int) -> np.ndarray:
    """Reference differentials of the n+1 hat functions: rows d(hat_i)."""
    rows = np.empty((n + 1, n))
    rows[0] = -1.0
    rows[1:] = np.eye(n)
    return rows


@dataclass(frozen=True)
class StiffnessSystem:
    """Assembled hat-basis Dirichlet form of a Riemannian complex.

    Per-simplex geometry is cached in simplex order: ``tops`` (T x n+1)
    holds the positions in ``vertex_order`` of each top simplex's sorted
    vertices, ``vol`` (T,) the simplex volumes and ``ginv`` (T x n x n)
    the inverse metrics at the barycenters.
    """

    complex: SimplicialComplex
    metric: PiecewiseMetric
    vertex_order: tuple
    S: csr_matrix = field(repr=False)
    masses: np.ndarray = field(repr=False)   # integral of hat_p dmu_g
    boundary: frozenset = field(repr=False)
    tops: np.ndarray = field(repr=False)
    vol: np.ndarray = field(repr=False)
    ginv: np.ndarray = field(repr=False)

    @property
    def index(self):
        cache = self.__dict__.get("_index_cache")
        if cache is None:
            cache = {v: i for i, v in enumerate(self.vertex_order)}
            object.__setattr__(self, "_index_cache", cache)
        return cache

    @property
    def interior_mask(self) -> np.ndarray:
        return np.array([v not in self.boundary for v in self.vertex_order])

    @property
    def interior_lu(self):
        """LU factors of the interior block S_II (complexes with boundary).

        Raises RuntimeError when S_II is singular; failures are not cached.
        """
        cache = self.__dict__.get("_interior_lu_cache")
        if cache is None:
            idx = np.where(self.interior_mask)[0]
            cache = splu(self.S[np.ix_(idx, idx)].tocsc())
            object.__setattr__(self, "_interior_lu_cache", cache)
        return cache

    def values_to_array(self, plmap: PLMap) -> np.ndarray:
        return np.stack([plmap.values[v] for v in self.vertex_order])


def assemble_stiffness(complex_: SimplicialComplex,
                       metric: PiecewiseMetric) -> StiffnessSystem:
    """Assemble S and the vertex masses.

    Refuses non-admissible complexes: the energy theory lives on
    admissible Riemannian polyhedra.
    """
    report = check_admissible(complex_)
    if not report.admissible:
        raise NotAdmissible(
            f"complex not admissible; offending stars: {report.witnesses}")

    n = complex_.n
    order = sorted(complex_.vertices)
    idx = {v: i for i, v in enumerate(order)}
    hats = hat_gradients(n)

    num_tops = len(complex_.top_simplices)
    tops = np.empty((num_tops, n + 1), dtype=np.intp)
    vols = np.empty(num_tops)
    ginv = np.empty((num_tops, n, n))
    rows, cols, vals = [], [], []
    masses = np.zeros(len(order))
    for s_i, top in enumerate(complex_.top_simplices):
        local = [idx[v] for v in top]
        tops[s_i] = local
        if metric.mode == "constant":
            g = metric.at(s_i)
            vol = simplex_volume(complex_, metric, s_i)
            g_hats = np.linalg.solve(g, hats.T)  # columns 1..n are g^-1
            ginv[s_i] = g_hats[:, 1:]
            k_local = hats @ g_hats * vol
            m_local = np.full(n + 1, vol / (n + 1))
        else:
            pts, wts = simplex_rule(n, max(metric.quadrature_order, 2))
            k_local = np.zeros((n + 1, n + 1))
            m_local = np.zeros(n + 1)
            vol = 0.0  # the sum simplex_volume takes, in the same order
            for xi, w in zip(pts, wts):
                g = metric.at(s_i, xi)
                dv = w * math.sqrt(np.linalg.det(g))
                vol += dv
                k_local += hats @ np.linalg.solve(g, hats.T) * dv
                lam = np.concatenate([[1.0 - xi.sum()], xi])
                m_local += lam * dv
            ginv[s_i] = np.linalg.inv(metric.at(s_i))
        vols[s_i] = vol
        for a in range(n + 1):
            masses[local[a]] += m_local[a]
            for b in range(n + 1):
                rows.append(local[a])
                cols.append(local[b])
                vals.append(k_local[a, b])

    S = coo_matrix((vals, (rows, cols)),
                   shape=(len(order), len(order))).tocsr()
    return StiffnessSystem(
        complex=complex_,
        metric=metric,
        vertex_order=tuple(order),
        S=S,
        masses=masses,
        boundary=complex_.boundary_vertices(),
        tops=tops,
        vol=vols,
        ginv=ginv,
    )


# ---------------------------------------------------------------------------
# loads and residuals
# ---------------------------------------------------------------------------

def christoffel_load(system: StiffnessSystem, target, plmap: PLMap) -> np.ndarray:
    """Per-vertex Christoffel load (num_vertices x 2n).

    load_k(p) = sum over simplices of
    Gamma^k_ab(phi(bary)) <grad phi^a, grad phi^b> * integral of hat_p.

    Gamma is evaluated image by image in simplex order, so the first
    simplex whose barycenter image leaves the chart is the one reported.
    """
    n = system.complex.n
    corners = system.values_to_array(plmap)[system.tops]    # (T, n+1, d)
    # rows of d(phi) per simplex, (T, d, n), as PLMap.differential has them
    diffs = np.ascontiguousarray(
        (corners[:, 1:] - corners[:, :1]).swapaxes(1, 2))
    # w0 + d(phi) @ bary rather than a mean: the same rounding as
    # PLMap.value_at, which finite-difference Christoffel symbols amplify
    images = corners[:, 0] + diffs @ np.full(n, 1.0 / (n + 1))
    pairing = np.einsum("tai,tij,tbj->tab", diffs, system.ginv, diffs)
    gammas = np.empty(images.shape + pairing.shape[1:])
    for s_i, image in enumerate(images):
        if target.chart_contains is not None and not target.chart_contains(image):
            raise ImageLeftChart(f"image {image} outside chart on simplex {s_i}")
        gammas[s_i] = target.christoffel(image)
    coef = np.einsum("tkab,tab->tk", gammas, pairing)
    share = coef * system.vol[:, None] / (n + 1)
    out = np.zeros((len(system.vertex_order), images.shape[1]))
    np.add.at(out, system.tops.ravel(), np.repeat(share, n + 1, axis=0))
    return out


def _interior_residual(system: StiffnessSystem, u, load) -> np.ndarray:
    """S u - load with the boundary rows zeroed."""
    r = system.S @ u - load
    r[~system.interior_mask] = 0.0
    return r


@dataclass(frozen=True)
class HarmonicResidual:
    """Weak-harmonicity residual on the interior hat functions.

    per_vertex is (num_vertices x d), zeroed on boundary rows.  Norms:
    ``inf`` (max abs entry), ``weighted_1`` (sum of abs entries, the
    mu_g-weighted 1-norm of the residual density), ``dual_energy`` (the
    W^{1,2}-dual norm sqrt(r^T S_II^{-1} r), the faithful discrete measure
    for refinement studies: pointwise hat residuals of interpolated data
    need not decay under refinement, the dual norm does).
    """

    vertex_order: tuple
    per_vertex: np.ndarray
    inf: float
    weighted_1: float
    dual_energy: float

    def as_dict(self):
        return {"inf": self.inf, "weighted_1": self.weighted_1,
                "dual_energy": self.dual_energy}


def weak_harmonic_residual(system: StiffnessSystem, target,
                           plmap: PLMap) -> HarmonicResidual:
    """r_k(p) = (S phi^k)(p) - load_k(p) on interior rows, with norms."""
    u = system.values_to_array(plmap)
    if u.ndim == 1:
        u = u[:, None]
    if target is None or target.is_flat:
        load = np.zeros_like(u)
    else:
        load = christoffel_load(system, target, plmap)
    r = _interior_residual(system, u, load)

    dual = 0.0
    idx = np.where(system.interior_mask)[0]
    if idx.size:
        rhs = r[idx]
        try:
            if system.complex.is_closed:
                # singular (constants in kernel): minimum-norm least squares
                s_ii = system.S[np.ix_(idx, idx)].tocsc()
                sol = np.stack([lsmr(s_ii, rhs[:, k], atol=1e-14,
                                     btol=1e-14)[0]
                                for k in range(rhs.shape[1])], axis=1)
            else:
                sol = system.interior_lu.solve(rhs)
            dual = float(np.sqrt(max(np.sum(rhs * sol), 0.0)))
        except RuntimeError:
            dual = float("nan")
    return HarmonicResidual(
        vertex_order=system.vertex_order,
        per_vertex=r,
        inf=float(np.abs(r).max()) if r.size else 0.0,
        weighted_1=float(np.abs(r).sum()),
        dual_energy=dual,
    )


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def discrete_maximum_principle(system: StiffnessSystem):
    """Whether all off-diagonal stiffness entries are non-positive.

    When they are (no obtuse configurations), scalar harmonic functions
    obey the discrete maximum principle.  Reported, not asserted: obtuse
    meshes legitimately violate the sign condition.
    """
    s = system.S.tocoo()
    worst = 0.0
    for r, c, v in zip(s.row, s.col, s.data):
        if r != c and v > worst:
            worst = v
    return worst <= 1e-14, float(worst)


def subharmonic_pullback_check(system: StiffnessSystem, plmap: PLMap,
                               convex_fn, tol=1e-10):
    """Sampled (uncertified) check that a convex function pulls back to a
    subharmonic one: (S (v o phi))(p) <= tol on interior vertices.

    Convexity on curved targets is chart dependent, so this is exposed as
    a diagnostic only; returns (fraction satisfied, per-vertex values).
    """
    vals = {v: np.atleast_1d(float(convex_fn(plmap.values[v])))
            for v in system.vertex_order}
    u = np.stack([vals[v] for v in system.vertex_order])
    r = (system.S @ u)[:, 0]
    interior = system.interior_mask
    inside = r[interior]
    frac = float(np.mean(inside <= tol)) if inside.size else 1.0
    return frac, r


def _split(system, boundary_values, d=None):
    order = system.vertex_order
    boundary = system.boundary
    pinned = set(boundary_values)
    if boundary - pinned:
        raise MissingBoundaryValues(
            f"no values for boundary vertices {sorted(boundary - pinned)!r}")
    if not pinned and not system.complex.is_closed:
        raise MissingBoundaryValues("boundary data required on a complex with boundary")
    pin_mask = np.array([v in pinned for v in order])
    if d is None:
        probe = next(iter(boundary_values.values())) if boundary_values else 0.0
        d = np.atleast_1d(np.asarray(probe, dtype=float)).shape[0]
    vals = np.zeros((len(order), d))
    for v, val in boundary_values.items():
        vals[system.index[v]] = np.atleast_1d(np.asarray(val, dtype=float))
    return pin_mask, vals, d


def _free_lu(system, free):
    """LU factors of the block of S on the ``free`` (boolean mask)
    vertices: the cached ``interior_lu`` when the free vertices are
    exactly the interior ones, a fresh factorization otherwise."""
    try:
        if np.array_equal(free, system.interior_mask):
            return system.interior_lu
        idx = np.where(free)[0]
        return splu(system.S[np.ix_(idx, idx)].tocsc())
    except RuntimeError as exc:
        raise SingularSystem(str(exc))


def solve_harmonic_function(system: StiffnessSystem, boundary_values) -> PLMap:
    """Dirichlet solve with the flat (component-wise) Dirichlet form.

    boundary_values: vertex id -> value (scalar or array); must cover the
    topological boundary.  On closed complexes with empty data the unique
    mean-zero harmonic map (zero) is returned.
    """
    pin_mask, vals, d = _split(system, boundary_values)
    u = vals.copy()
    free = ~pin_mask
    if free.any() and pin_mask.any():
        s_ib = system.S[np.ix_(np.where(free)[0], np.where(pin_mask)[0])]
        sol = _free_lu(system, free).solve(-s_ib @ vals[pin_mask])
        if not np.all(np.isfinite(sol)):
            raise SingularSystem("solution contains non-finite entries")
        u[free] = sol
    return PLMap(system.complex,
                 {v: u[i] for i, v in enumerate(system.vertex_order)})


@dataclass(frozen=True)
class SolveOptions:
    """Picard budget, stopping tolerance and initial damping; ``max_iter``
    must be at least 1."""

    max_iter: int = 200
    tol: float = 1e-8
    damping: float = 0.7

    def __post_init__(self):
        if self.max_iter < 1:
            raise UsageError(
                f"max_iter must be at least 1, got {self.max_iter}")


def solve_harmonic_map(system: StiffnessSystem, target, boundary_values,
                       opts: SolveOptions = SolveOptions()) -> PLMap:
    """Damped fixed-point solve of the weakly-harmonic equation.

    Flat targets reduce to a single linear solve.  Otherwise iterate
    u <- (1-d) u + d S^{-1} load(u) on interior rows until the weak
    residual infinity-norm is below ``opts.tol``; the damping is halved
    adaptively when the residual increases.  Raises NonConvergence with
    the residual history when the budget is exhausted.
    """
    if target is None or target.is_flat:
        return solve_harmonic_function(system, boundary_values)

    pin_mask, vals, d = _split(system, boundary_values)
    free = np.where(~pin_mask)[0]
    pinned = np.where(pin_mask)[0]
    if free.size == 0:
        plmap = PLMap(system.complex,
                      {v: vals[i] for i, v in enumerate(system.vertex_order)})
        return plmap

    s_ib = system.S[np.ix_(free, pinned)]
    lu = _free_lu(system, ~pin_mask)
    pinned_rhs = s_ib @ vals[pinned] if pinned.size else 0.0
    # start from the flat harmonic extension
    u = vals.copy()
    u[free] = lu.solve(-pinned_rhs) if pinned.size else 0.0

    def plmap_of(arr):
        return PLMap(system.complex,
                     {v: arr[i] for i, v in enumerate(system.vertex_order)})

    history = []
    damping = opts.damping
    best = None
    for _ in range(opts.max_iter):
        pm = plmap_of(u)
        load = christoffel_load(system, target, pm)
        inf = float(np.abs(_interior_residual(system, u, load)).max())
        history.append(inf)
        if inf <= opts.tol:
            return pm
        if best is not None and inf > best * (1.0 + 1e-12):
            damping = max(damping * 0.5, 1e-3)
        else:
            best = inf if best is None else min(best, inf)
        u_new = u.copy()
        u_new[free] = lu.solve(load[free] - pinned_rhs)
        u = (1.0 - damping) * u + damping * u_new
        u[pinned] = vals[pinned]
    raise NonConvergence(
        f"no convergence after {opts.max_iter} iterations "
        f"(last residual {history[-1]:.3g})", history)
