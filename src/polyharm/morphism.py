"""HWC / PHWC / PHM checkers and the equivalence, pullback and
factorization property suites.

All checks are pointwise on gradient samples: the 2n component
differentials of a map at a location, together with the domain metric and
the image chart point.  For PL maps the gradients are constant per simplex,
so evaluating at barycenters is exhaustive; analytic maps can be sampled at
free points.

Notation used below, with Q = dphi . g^-1 . dphi^T the gradient Gram array
in the (x_1..x_n, y_1..y_n) chart basis and J the complex structure:

  PHWC     <=>  Q[x_B,x_A] = Q[y_B,y_A] and Q[y_B,x_A] = -Q[x_B,y_A]
           <=>  [Q, J] = 0   <=>   [Q h, J] = 0   (h Hermitian),
  HWC      <=>  Q = lambda * h^-1(phi),  lambda >= 0 the dilation.

Sample evaluations are independent and deterministic; suites aggregate in
input order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotHolomorphic, TargetMetricSingular
from .harmonic import assemble_stiffness, weak_harmonic_residual
from .maps import PLMap, _checked_jacobian, compose_gradients
from .meshes import refine
from .riemannian import PiecewiseMetric
from .target import (ChartedTarget, cauchy_riemann_residual,
                     complex_structure, to_complex)

DEFAULT_TOL_C = 1e-8
DEFAULT_TOL_H = 1e-8


# ---------------------------------------------------------------------------
# gradient samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradientSample:
    """Component differentials of a map at one location.

    rows : (2n x m) array, the differentials of (x_1..x_n, y_1..y_n) o phi
    metric : (m x m) SPD domain metric at the location
    image : complex n-vector, the chart point phi(location)
    location : free-form tag (simplex index, point, ...)
    weight : measure weight of the location (simplex volume; 1 for free
        points) used by the mu_g-weighted report norm
    """

    rows: np.ndarray
    metric: np.ndarray
    image: np.ndarray
    location: object = None
    weight: float = 1.0

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        metric = np.asarray(self.metric, dtype=float)
        if rows.shape[0] % 2 != 0:
            raise DimensionMismatch("sample needs 2n gradient rows")
        if metric.shape != (rows.shape[1], rows.shape[1]):
            raise DimensionMismatch(
                f"metric shape {metric.shape} does not match rows {rows.shape}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "image",
                           np.atleast_1d(np.asarray(self.image, dtype=complex)))

    @property
    def n(self) -> int:
        return self.rows.shape[0] // 2

    @property
    def gram(self) -> np.ndarray:
        cache = self.__dict__.get("_gram")
        if cache is None:
            cache = self.rows @ np.linalg.solve(self.metric, self.rows.T)
            object.__setattr__(self, "_gram", cache)
        return cache

    @property
    def scale(self) -> float:
        """Normalization max(1, ||dphi||^2) making verdicts scale invariant."""
        return max(1.0, float(np.abs(np.diag(self.gram)).max()))

    def composed_with(self, hol) -> "GradientSample":
        """Post-compose with a holomorphic map via the exact chain rule."""
        rows = compose_gradients(hol, self.rows, np.concatenate(
            [self.image.real, self.image.imag]))
        image = hol.value_complex(self.image)
        return GradientSample(rows, self.metric, image, self.location,
                              self.weight)


def samples_from_plmap(complex_, metric: PiecewiseMetric,
                       plmap: PLMap) -> list:
    """One sample per top simplex, evaluated at the barycenter (exhaustive
    for constant-per-simplex gradients).  Rows, metrics, images, weights
    and Grams are computed for all simplices at once."""
    if plmap.target_dim % 2 != 0:
        raise DimensionMismatch("chart-valued maps need an even value dimension")
    n = complex_.n
    idx = np.arange(len(complex_.top_simplices))
    rows = plmap.differential(idx)
    metrics = metric.stack
    images = to_complex(plmap.value_at(idx, np.full(n, 1.0 / (n + 1))))
    grams = rows @ np.linalg.solve(metrics, rows.swapaxes(1, 2))
    weights = metric.volumes.tolist()
    out = []
    for t in idx.tolist():
        s = GradientSample(rows[t], metrics[t], images[t], ("simplex", t),
                           weights[t])
        object.__setattr__(s, "_gram", grams[t])
        out.append(s)
    return out


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    """Per-sample residuals with norms and a verdict at a tolerance.

    ``normalized`` divides each raw residual by max(1, ||dphi||^2) of its
    sample so the verdict is invariant under rescaling the map.
    ``weighted_1`` is the mu_g-weighted 1-norm (weights = sample weights).
    """

    kind: str
    locations: tuple
    raw: np.ndarray
    normalized: np.ndarray
    tol: float
    extras: dict = field(default_factory=dict)

    @property
    def inf(self) -> float:
        return float(self.raw.max()) if self.raw.size else 0.0

    @property
    def normalized_inf(self) -> float:
        return float(self.normalized.max()) if self.normalized.size else 0.0

    @property
    def weighted_1(self) -> float:
        w = self.extras.get("weights")
        if w is None:
            return float(self.raw.sum())
        return float(np.sum(np.asarray(w) * self.raw))

    @property
    def verdict(self) -> bool:
        return self.normalized_inf <= self.tol

    def as_dict(self):
        out = {
            "kind": self.kind,
            "inf": self.inf,
            "normalized_inf": self.normalized_inf,
            "weighted_1": self.weighted_1,
            "tol": self.tol,
            "verdict": self.verdict,
            "per_sample": list(map(float, self.raw)),
        }
        for key, val in self.extras.items():
            if key == "weights":
                continue
            out[key] = list(map(float, val)) if np.ndim(val) else val
        return out


def _phwc_values(q):
    """max_{A,B} |Q_xx - Q_yy| + |Q_yx + Q_xy| entrywise, per Gram of a
    (..., 2n, 2n) stack."""
    n = q.shape[-1] // 2
    qxx = q[..., :n, :n]
    qxy = q[..., :n, n:]
    qyx = q[..., n:, :n]
    qyy = q[..., n:, n:]
    return (np.abs(qxx - qyy) + np.abs(qyx + qxy)).max(axis=(-2, -1))


def _stacked(arrays, what):
    try:
        return np.stack(list(arrays))
    except ValueError:
        raise DimensionMismatch(f"samples have {what} of different shapes")


def _residual_report(kind, samples, tol, values, extra=None) -> ResidualReport:
    """ResidualReport of ``values(grams, points)``, the raw residuals of all
    samples from their (S, 2n, 2n) Gram stack and (S, 2n) real image
    points, normalized by the samples' scales max(1, ||dphi||^2) and
    weighted by their weights.  With ``extra`` set, ``values`` returns
    (residuals, extra values) and the extra values are reported per sample
    under that name."""
    if not samples:
        raise DimensionMismatch("need at least one sample")
    grams = _stacked((s.gram for s in samples), "gradients")
    images = _stacked((s.image for s in samples), "images")
    raw = values(grams, np.concatenate([images.real, images.imag], axis=1))
    extras = {"weights": np.asarray([s.weight for s in samples])}
    if extra is not None:
        raw, extras[extra] = raw
    diag = np.diagonal(grams, axis1=1, axis2=2)
    scale = np.fmax(1.0, np.abs(diag).max(axis=1))
    return ResidualReport(
        kind=kind,
        locations=tuple(s.location for s in samples),
        raw=raw,
        normalized=raw / scale,
        tol=tol,
        extras=extras,
    )


def phwc_residual(samples, tol=DEFAULT_TOL_C) -> ResidualReport:
    """Residual of the two PHWC gradient identities at each sample."""
    return _residual_report("phwc", samples, tol,
                            lambda grams, points: _phwc_values(grams))


def hwc_residual(samples, target: ChartedTarget, tol=DEFAULT_TOL_C) -> ResidualReport:
    """Residual of Q = lambda h^-1(phi) with the trace-ratio dilation.

    lambda = tr(Q) / tr(h^-1) is the unique candidate fixed by the
    diagonal constraints; it is reported per sample and clamped to the
    report when negative beyond -tol.
    """
    def values(grams, points):
        hinv = target.inverse_metric_at(points)
        denom = np.trace(hinv, axis1=1, axis2=2)
        if np.any(denom <= 0):
            raise TargetMetricSingular("inverse metric trace not positive")
        lam = np.trace(grams, axis1=1, axis2=2) / denom
        lam = np.where(lam < -tol, np.maximum(lam, 0.0), lam)
        return (np.abs(grams - lam[:, None, None] * hinv).max(axis=(1, 2)),
                lam)

    return _residual_report("hwc", samples, tol, values, extra="dilation")


def commutator_form_residual(samples, target: ChartedTarget,
                             tol=DEFAULT_TOL_C) -> ResidualReport:
    """Commutator form: || [dphi dphi^*, J] ||_inf per sample, with
    dphi^* the metric adjoint, i.e. dphi dphi^* = Q h(phi)."""
    def values(grams, points):
        h = target.metric_at(points)
        j = complex_structure(grams.shape[1] // 2)
        m = grams @ h
        return np.abs(m @ j - j @ m).max(axis=(1, 2))

    return _residual_report("commutator", samples, tol, values)


def phwc_via_functions(samples, fn_family, tol=DEFAULT_TOL_C) -> ResidualReport:
    """PHWC residual of f o phi for every f in the family, max per sample.

    The family must contain at least the coordinates, the pair sums and
    the products z_A z_B, i z_A z_B: coordinates alone miss cross-pair
    violations.  Built-in members are evaluated over the whole sample
    stack, others sample by sample, and the first error is the loop's (see
    ``_family_jacobians``); the Grams are taken in one batch per member.
    """
    hols = [_as_map(f) for f in fn_family]

    def values(grams, points):
        jacs = _family_jacobians(hols, samples, points)
        rows = _stacked((s.rows for s in samples), "gradients")
        metrics = _stacked((s.metric for s in samples), "metrics")
        worst = np.zeros(len(samples))
        for jac in jacs:
            comp = jac @ rows
            gram = comp @ np.linalg.solve(metrics, comp.swapaxes(1, 2))
            worst = np.fmax(worst, _phwc_values(gram))
        return worst

    return _residual_report("phwc_via_functions", samples, tol, values)


def _family_jacobians(hols, samples, points) -> list:
    """(S, 2p, 2n) real Jacobians of each member at the (S, 2n) points:
    over the whole stack for built-in functions, else sample by sample.
    A non-finite stack sends every member down the sample-by-sample loop,
    whose first error (samples, then members in order, a Jacobian before
    its value) is the one raised."""
    base_rows = samples[0].rows.shape[0]
    z = to_complex(points)
    jacs = []
    for hol in hols:
        stack = hol.components[0]._stack(z) if hol.p == 1 else None
        if stack is None or stack[1].shape[2] != base_rows:
            jacs.append([])
        elif np.isfinite(stack[0]).all() and np.isfinite(stack[1]).all():
            jacs.append(stack[1])
        else:
            jacs = [[] for _ in hols]
            break
    per_point = [(hol, jac) for hol, jac in zip(hols, jacs)
                 if isinstance(jac, list)]
    for s, point in enumerate(points if per_point else ()):
        for hol, jac in per_point:
            jac.append(_checked_jacobian(hol, point, base_rows))
            hol.value_complex(samples[s].image)
    return [np.stack(jac) if isinstance(jac, list) else jac for jac in jacs]


def _as_map(f):
    from .target import HolomorphicFunction, HolomorphicMap
    if isinstance(f, HolomorphicMap):
        return f
    if isinstance(f, HolomorphicFunction):
        return HolomorphicMap((f,), name=f.name)
    raise DimensionMismatch(f"not a holomorphic function or map: {f!r}")


@dataclass(frozen=True)
class PostcomposeResult:
    passed: bool
    input_residuals: np.ndarray
    output_residuals: np.ndarray
    jacobian_bound: float


def postcompose_preserves_phwc(samples, hol_map, tol=1e-9,
                               cr_tol=1e-8) -> PostcomposeResult:
    """Assert PHWC is preserved under post-composition with a holomorphic
    map: zero residual in implies zero residual out; nonzero inputs are
    only required to satisfy out <= in * K + tol with K the squared
    jacobian-norm bound.

    The map must pass a Cauchy-Riemann pre-check at every image point;
    anti-holomorphic candidates are refused with NotHolomorphic.
    """
    hol_map = _as_map(hol_map)
    for s in samples:
        for f in hol_map.components:
            res = cauchy_riemann_residual(f, s.image)
            if res > cr_tol:
                raise NotHolomorphic(
                    f"component {f.name} fails Cauchy-Riemann at {s.image} "
                    f"(residual {res:.3g})")
    r_in = phwc_residual(samples)
    composed = [s.composed_with(hol_map) for s in samples]
    r_out = phwc_residual(composed)
    kbound = 0.0
    for s in samples:
        jac = hol_map.real_jacobian(np.concatenate([s.image.real, s.image.imag]))
        kbound = max(kbound, float(np.linalg.norm(jac, 2)) ** 2)
    ok = bool(np.all(r_out.raw <= r_in.raw * kbound + tol))
    return PostcomposeResult(ok, r_in.raw, r_out.raw, kbound)


# ---------------------------------------------------------------------------
# constructive equivalence suite
# ---------------------------------------------------------------------------

def _random_spd(rng, m, spread=1.0):
    a = rng.standard_normal((m, m)) * spread
    return a @ a.T + (0.1 + spread) * np.eye(m)


def _random_hermitian_spd(rng, n):
    """SPD 2n x 2n compatible with the complex structure: J^T h J = h."""
    p = _random_spd(rng, 2 * n)
    j = complex_structure(n)
    return 0.5 * (p + j.T @ p @ j)


@dataclass(frozen=True)
class EquivalenceSuiteResult:
    hwc_to_phwc_max: float
    n1_phwc_to_hwc_max: float
    n2_counterexample_hwc_residual: float
    commutator_agreement: bool
    passed: bool


def hwc_implies_phwc_suite(random_count=1000, n=3, domain_dim=None,
                           seed=42, tol=1e-10) -> EquivalenceSuiteResult:
    """Constructive check of the HWC => PHWC implication and the n = 1
    equivalence.

    HWC samples are built exactly: rows = sqrt(lambda) h^-1/2 R g^1/2
    with R row-orthonormal, so Q = lambda h^-1 by construction.  The n=1
    converse builds PHWC pairs (equal norms, orthogonal) and checks the
    HWC identity with the dilation defined by the diagonal ratio.  A
    planted n=2 sample (two holomorphic blocks with different moduli) is
    verified PHWC but not HWC.
    """
    rng = np.random.default_rng(seed)
    m = domain_dim or (2 * n + 1)

    worst_fwd = 0.0
    flat2 = _flat_cache(1)
    agree = True
    for _ in range(random_count):
        g = _random_spd(rng, m)
        h = _random_hermitian_spd(rng, n)
        lam = rng.uniform(0.0, 4.0)
        r = np.linalg.qr(rng.standard_normal((m, 2 * n)))[0].T
        evals, evecs = np.linalg.eigh(h)
        h_inv_sqrt = evecs @ np.diag(evals ** -0.5) @ evecs.T
        gvals, gvecs = np.linalg.eigh(g)
        g_sqrt = gvecs @ np.diag(gvals ** 0.5) @ gvecs.T
        rows = np.sqrt(lam) * h_inv_sqrt @ r @ g_sqrt
        sample = GradientSample(rows, g, np.zeros(n, dtype=complex))
        worst_fwd = max(worst_fwd, _phwc_values(sample.gram) / sample.scale)
        # commutator agreement on arbitrary (generically non-PHWC) samples
        wild = GradientSample(rng.standard_normal((2, m)), g,
                              np.zeros(1, dtype=complex))
        agree &= _joint_verdicts_agree(wild, tol)

    worst_n1 = 0.0
    for _ in range(random_count):
        g = _random_spd(rng, m)
        du = rng.standard_normal(m)
        dv = rng.standard_normal(m)
        ginv = np.linalg.inv(g)
        # g^-1-orthogonalize and equalize norms: PHWC by construction
        dv = dv - (du @ ginv @ dv) / (du @ ginv @ du) * du
        dv *= np.sqrt((du @ ginv @ du) / (dv @ ginv @ dv))
        sample = GradientSample(np.stack([du, dv]), g,
                                np.zeros(1, dtype=complex))
        rep = hwc_residual([sample], flat2)
        worst_n1 = max(worst_n1, rep.normalized.max())

    counter = _planted_n2_counterexample()
    counter_hwc = hwc_residual([counter], _flat_cache(2)).raw[0]
    counter_phwc = phwc_residual([counter]).raw[0]

    passed = (worst_fwd < tol and worst_n1 < tol and agree
              and counter_phwc < tol and counter_hwc > 0.1)
    return EquivalenceSuiteResult(
        hwc_to_phwc_max=float(worst_fwd),
        n1_phwc_to_hwc_max=float(worst_n1),
        n2_counterexample_hwc_residual=float(counter_hwc),
        commutator_agreement=bool(agree),
        passed=bool(passed),
    )


_FLAT_CACHE = {}


def _flat_cache(n):
    from .target import flat_target
    if n not in _FLAT_CACHE:
        _FLAT_CACHE[n] = flat_target(n)
    return _FLAT_CACHE[n]


def _joint_verdicts_agree(sample, tol):
    """Zero/nonzero verdicts of the two PHWC forms agree on one sample.

    For flat targets the commutator norm c and the identity-form value p
    satisfy c <= p <= 2c, so the verdicts must coincide and the sandwich
    is asserted too.
    """
    phwc = _phwc_values(sample.gram) / sample.scale
    rep = commutator_form_residual([sample], _flat_cache(sample.n))
    comm = rep.normalized[0]
    slack = 1e-12 * max(1.0, phwc, comm)
    sandwich = comm <= phwc + slack and phwc <= 2.0 * comm + slack
    return ((phwc <= tol) == (comm <= tol)) and sandwich


def _planted_n2_counterexample(c1=1.5 + 0.0j, c2=0.5j):
    """PHWC-but-not-HWC: block map (c1 z1, c2 z2) with |c1| != |c2|."""
    rows = np.zeros((4, 4))
    rows[0, :2] = [c1.real, -c1.imag]   # x1
    rows[1, 2:] = [c2.real, -c2.imag]   # x2
    rows[2, :2] = [c1.imag, c1.real]    # y1
    rows[3, 2:] = [c2.imag, c2.real]    # y2
    return GradientSample(rows, np.eye(4), np.zeros(2, dtype=complex))


# ---------------------------------------------------------------------------
# PHM checks and the pullback / factorization suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhmReport:
    harmonic: object               # HarmonicResidual
    phwc: ResidualReport
    via_functions: ResidualReport
    tol_h: float
    verdict_harmonic: bool
    verdict_phwc: bool

    @property
    def verdict(self) -> bool:
        return self.verdict_harmonic and self.verdict_phwc

    def as_dict(self):
        return {
            "harmonic": self.harmonic.as_dict(),
            "phwc": self.phwc.as_dict(),
            "via_functions": (self.via_functions.as_dict()
                              if self.via_functions else None),
            "verdict_harmonic": self.verdict_harmonic,
            "verdict_phwc": self.verdict_phwc,
            "verdict": self.verdict,
        }


def phm_check(complex_, metric, plmap, target, fn_family=None,
              tol_h=DEFAULT_TOL_H, tol_c=DEFAULT_TOL_C,
              system=None) -> PhmReport:
    """Pseudo harmonic morphism verdict: weakly harmonic and PHWC."""
    if system is None:
        system = assemble_stiffness(complex_, metric)
    harm = weak_harmonic_residual(system, target, plmap)
    samples = samples_from_plmap(complex_, metric, plmap)
    phwc = phwc_residual(samples, tol=tol_c)
    via = None
    if fn_family is not None:
        via = phwc_via_functions(samples, fn_family, tol=tol_c)
    return PhmReport(
        harmonic=harm,
        phwc=phwc,
        via_functions=via,
        tol_h=tol_h,
        verdict_harmonic=bool(harm.inf <= tol_h),
        verdict_phwc=bool(phwc.verdict),
    )


@dataclass(frozen=True)
class PullbackSuiteResult:
    """Dual-norm residuals of the pullbacks per function and level."""

    names: tuple
    levels: int
    residuals: dict          # name -> list of dual-energy norms
    orders: dict             # name -> list of dyadic orders (or None)
    passed: bool
    zero_floor: float = 1e-12

    def as_dict(self):
        return {
            "levels": self.levels,
            "residuals": {k: list(map(float, v))
                          for k, v in self.residuals.items()},
            "orders": {k: [None if o is None else float(o) for o in v]
                       for k, v in self.orders.items()},
            "passed": self.passed,
        }


def pullback_harmonicity_suite(complex_, metric, plmap, fn_family,
                               refinement_levels=3,
                               require_order=1.0) -> PullbackSuiteResult:
    """Pullbacks of holomorphic functions through an exact PHM become
    harmonic in the refinement limit.

    At each red-refinement level, f o phi is sampled at the vertices and
    its interior weak-harmonic residual is measured in the discrete dual
    (energy) norm; for PHM inputs the norms must decrease with empirical
    order >= ``require_order``, families that are reproduced exactly by
    PL interpolation (affine f) count as converged at the zero floor.
    """
    cx, mt, pm = complex_, metric, plmap
    levels = []
    for _ in range(refinement_levels):
        system = assemble_stiffness(cx, mt)
        levels.append((cx, mt, pm, system))
        cx, mt, (pm,) = refine(cx, mt, (pm,))
    residuals = {f.name: [] for f in fn_family}
    for cx_l, mt_l, pm_l, system in levels:
        for f in fn_family:
            vals = {v: f.value_real(pm_l.values[v])
                    for v in cx_l.vertices}
            pull = PLMap(cx_l, vals)
            res = weak_harmonic_residual(system, None, pull)
            residuals[f.name].append(res.dual_energy)

    orders = {}
    floor = 1e-12
    passed = True
    for name, vals in residuals.items():
        if max(vals) <= floor:
            orders[name] = [None] * (len(vals) - 1)
            continue
        os = []
        for a, b in zip(vals, vals[1:]):
            if a <= floor and b <= floor:
                os.append(None)
                continue
            os.append(np.log2(a / max(b, 1e-300)))
        orders[name] = os
        measured = [o for o in os if o is not None]
        if not measured or min(measured) < require_order:
            passed = False
    return PullbackSuiteResult(
        names=tuple(f.name for f in fn_family),
        levels=refinement_levels,
        residuals=residuals,
        orders=orders,
        passed=bool(passed),
    )


@dataclass(frozen=True)
class FactorizationResult:
    base_report: PhmReport
    total_report: PhmReport
    max_phwc_difference: float
    max_harmonic_difference: float
    verdicts_match: bool
    passed: bool

    def as_dict(self):
        return {
            "base": self.base_report.as_dict(),
            "total": self.total_report.as_dict(),
            "max_phwc_difference": self.max_phwc_difference,
            "max_harmonic_difference": self.max_harmonic_difference,
            "verdicts_match": self.verdicts_match,
            "passed": self.passed,
        }


def factorization_suite(covering, plmap_base: PLMap, target,
                        fn_family=None, tol=1e-10) -> FactorizationResult:
    """Residual reports of phi and phi o pi agree through a covering.

    ``covering`` provides base/total complexes and metrics, the vertex
    projection and the matched-simplex table with exact frame conjugations
    (see examples.build_covering); sheet isometry is validated there and a
    scaled sheet raises NotACovering.
    """
    covering.validate()
    base_cx, base_mt = covering.base_complex, covering.base_metric
    tot_cx, tot_mt = covering.total_complex, covering.total_metric

    # rebase onto the covering's own complexes (values are keyed by id)
    plmap_base = PLMap(base_cx, {v: plmap_base.values[v]
                                 for v in base_cx.vertices})
    lifted = PLMap(tot_cx, {v: plmap_base.values[covering.vertex_map[v]]
                            for v in tot_cx.vertices})

    rep_base = phm_check(base_cx, base_mt, plmap_base, target, fn_family)
    rep_total = phm_check(tot_cx, tot_mt, lifted, target, fn_family)

    # matched-simplex comparison of the PHWC residuals
    base_raw = dict(zip(rep_base.phwc.locations, rep_base.phwc.raw))
    worst_c = 0.0
    for t_idx, b_idx in covering.simplex_map.items():
        worst_c = max(worst_c, abs(rep_total.phwc.raw[t_idx]
                                   - base_raw[("simplex", b_idx)]))

    # matched-vertex comparison of the weak-harmonic residuals
    base_rows = {v: r for v, r in zip(rep_base.harmonic.vertex_order,
                                      rep_base.harmonic.per_vertex)}
    worst_h = 0.0
    for i, v in enumerate(rep_total.harmonic.vertex_order):
        worst_h = max(worst_h, float(np.abs(
            rep_total.harmonic.per_vertex[i]
            - base_rows[covering.vertex_map[v]]).max()))

    verdicts = (rep_base.verdict == rep_total.verdict
                and rep_base.verdict_phwc == rep_total.verdict_phwc
                and rep_base.verdict_harmonic == rep_total.verdict_harmonic)
    passed = bool(worst_c <= tol and worst_h <= tol and verdicts)
    return FactorizationResult(rep_base, rep_total, float(worst_c),
                               float(worst_h), bool(verdicts), passed)


def component_residual_consistency(system, plmap: PLMap) -> float:
    """Corollary check on flat targets: the residual of the full map
    equals the stacked residuals of its coordinate-pair components."""
    full = weak_harmonic_residual(system, None, plmap)
    n = plmap.target_dim // 2
    worst = 0.0
    order = list(system.vertex_order)
    for k in range(n):
        comp = PLMap(plmap.complex,
                     {v: plmap.values[v][[k, n + k]] for v in order})
        res = weak_harmonic_residual(system, None, comp)
        stacked = full.per_vertex[:, [k, n + k]]
        worst = max(worst, float(np.abs(stacked - res.per_vertex).max()))
    return worst
