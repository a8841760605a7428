"""Gallery of concrete pseudo-harmonic-morphism constructions.

The centerpiece is the two-block rational map

    eta(u, v) = ( F_i(u) P_i(conj v) / (G_i(u) Q_i(conj v)) )_{i=1..r}

on C^k x C^s with homogeneous numerator/denominator pairs of equal degree:
holomorphic in u and anti-holomorphic in v, hence neither holomorphic nor
anti-holomorphic as a whole, yet pseudo-horizontally weakly conformal and
componentwise harmonic off its poles.  Sums of two such maps on disjoint
variable blocks stay in the class.  Covering data (flat torus double cover,
rectangle reflection fold) feeds the factorization suite.

Constructions are pure; sample-point generation is seeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .errors import (DegreeMismatch, DimensionMismatch, NotACovering,
                     PoleAtPoint, UnknownSpec, ZeroDenominatorPolynomial)
from .meshes import flat_torus, rectangle_mesh
from .morphism import GradientSample, commutator_form_residual, phwc_residual
from .riemannian import PiecewiseMetric
from .simplicial import SimplicialComplex
from .target import (_central_diff, _cr_terms, _poly_grad, _poly_value,
                     flat_target, to_complex)


# ---------------------------------------------------------------------------
# homogeneous polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomogeneousPolynomial:
    """Homogeneous polynomial on C^m as {exponent tuple: coefficient}.

    The zero polynomial is representable with an explicit ``zero_degree``
    (it is homogeneous of every degree); denominators reject it at
    build_eta time.
    """

    m: int
    coeffs: dict
    name: str = "p"
    zero_degree: int = None

    def __post_init__(self):
        clean = {}
        degs = set()
        for exp, coeff in self.coeffs.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.m or min(exp) < 0:
                raise DegreeMismatch(f"bad exponent {exp} for C^{self.m}")
            if coeff == 0:
                continue
            clean[exp] = complex(coeff)
            degs.add(sum(exp))
        if not clean and self.zero_degree is None:
            raise ZeroDenominatorPolynomial(
                f"{self.name} is identically zero (declare zero_degree to "
                "allow a zero numerator)")
        if len(degs) > 1:
            raise DegreeMismatch(
                f"{self.name} is not homogeneous: degrees {sorted(degs)}")
        object.__setattr__(self, "coeffs", clean)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if self.is_zero:
            return self.zero_degree
        return sum(next(iter(self.coeffs)))

    def __call__(self, z) -> complex:
        return _poly_value(self.coeffs.items(),
                           np.asarray(z, dtype=complex)[None])[0]

    def grad(self, z) -> np.ndarray:
        return _poly_grad(self.coeffs.items(), self.m,
                          np.asarray(z, dtype=complex)[None])[0]

    def conjugated(self) -> "HomogeneousPolynomial":
        """Polynomial with conjugated coefficients."""
        return HomogeneousPolynomial(
            self.m, {e: np.conj(c) for e, c in self.coeffs.items()},
            name=f"conj({self.name})")


def monomial(m, index, name=None) -> HomogeneousPolynomial:
    exp = tuple(1 if a == index else 0 for a in range(m))
    return HomogeneousPolynomial(m, {exp: 1.0},
                                 name=name or f"w{index + 1}")


def zero_polynomial(m, degree) -> HomogeneousPolynomial:
    return HomogeneousPolynomial(m, {}, name="0", zero_degree=degree)


# ---------------------------------------------------------------------------
# eta maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EtaMap:
    """eta(u, v) = (F_i(u) P_i(conj v)) / (G_i(u) Q_i(conj v)).

    Exposed in real coordinates as a map R^{2(k+s)} -> R^{2r} with the
    (x..., y...) ordering on both sides; the jacobian is closed form via
    quotient and conjugation rules.  Evaluation within ``pole_margin`` of
    a denominator zero raises PoleAtPoint.
    """

    k: int
    s: int
    r: int
    F: tuple
    G: tuple
    P: tuple
    Q: tuple
    pole_margin: float = 1e-9
    name: str = "eta"

    @property
    def domain_complex_dim(self) -> int:
        return self.k + self.s

    # -- complex-variable evaluation ------------------------------------

    def _split(self, w):
        w = np.asarray(w, dtype=complex)
        if w.shape[0] != self.k + self.s:
            raise DimensionMismatch(
                f"expected C^{self.k + self.s} point, got {w.shape}")
        return w[:self.k], w[self.k:]

    def value_complex(self, w) -> np.ndarray:
        u, v = self._split(w)
        vb = np.conj(v)
        out = np.empty(self.r, dtype=complex)
        for i in range(self.r):
            den = self.G[i](u) * self.Q[i](vb)
            if abs(den) <= self.pole_margin:
                raise PoleAtPoint(f"{self.name}_{i + 1} pole near u={u}, v={v}")
            out[i] = self.F[i](u) * self.P[i](vb) / den
        return out

    def wirtinger(self, w):
        """(d eta / du, d eta / d conj(v)) as (r x k) and (r x s) arrays;
        the other two Wirtinger blocks vanish identically."""
        u, v = self._split(w)
        vb = np.conj(v)
        du = np.zeros((self.r, self.k), dtype=complex)
        dvb = np.zeros((self.r, self.s), dtype=complex)
        for i in range(self.r):
            g, q = self.G[i](u), self.Q[i](vb)
            if abs(g * q) <= self.pole_margin:
                raise PoleAtPoint(f"{self.name}_{i + 1} pole near u={u}, v={v}")
            f, p = self.F[i](u), self.P[i](vb)
            a = (self.F[i].grad(u) * g - f * self.G[i].grad(u)) / g ** 2
            b = (self.P[i].grad(vb) * q - p * self.Q[i].grad(vb)) / q ** 2
            du[i] = a * (p / q)
            dvb[i] = (f / g) * b
        return du, dvb

    # -- real-coordinate interface ---------------------------------------

    def value_real(self, pt) -> np.ndarray:
        w = self.value_complex(to_complex(pt))
        return np.concatenate([w.real, w.imag])

    def real_jacobian(self, pt) -> np.ndarray:
        """(2r x 2(k+s)) real Jacobian from the Wirtinger derivatives:
        for each domain variable, d/dx = d/dz + d/dzbar and
        d/dy = i (d/dz - d/dzbar)."""
        w = to_complex(pt)
        du, dvb = self.wirtinger(w)
        m = self.k + self.s
        dz = np.zeros((self.r, m), dtype=complex)
        dzbar = np.zeros((self.r, m), dtype=complex)
        dz[:, :self.k] = du
        dzbar[:, self.k:] = dvb
        dx = dz + dzbar
        dy = 1j * (dz - dzbar)
        jac = np.empty((2 * self.r, 2 * m))
        jac[:self.r, :m] = dx.real
        jac[:self.r, m:] = dy.real
        jac[self.r:, :m] = dx.imag
        jac[self.r:, m:] = dy.imag
        return jac

    def fd_jacobian(self, pt, step=1e-6) -> np.ndarray:
        pt = np.asarray(pt, dtype=float)
        steps = [step * max(1.0, abs(x)) for x in pt]
        return np.ascontiguousarray(_central_diff(self.value_real, pt, steps).T)


def build_eta(k, s, r, F, G, P, Q, name="eta") -> EtaMap:
    """Validate degrees and denominators and assemble an EtaMap.

    F, G live on C^k and P, Q on C^s; per component the numerator and
    denominator must be homogeneous of the same degree.
    """
    F, G, P, Q = map(tuple, (F, G, P, Q))
    if not (len(F) == len(G) == len(P) == len(Q) == r):
        raise DimensionMismatch(f"need {r} polynomials in each family")
    for i in range(r):
        for poly, m, side in ((F[i], k, "F"), (G[i], k, "G"),
                              (P[i], s, "P"), (Q[i], s, "Q")):
            if poly.m != m:
                raise DimensionMismatch(
                    f"{side}_{i + 1} lives on C^{poly.m}, expected C^{m}")
        for den, side in ((G[i], "G"), (Q[i], "Q")):
            if den.is_zero:
                raise ZeroDenominatorPolynomial(
                    f"{side}_{i + 1} is identically zero")
        if F[i].degree != G[i].degree:
            raise DegreeMismatch(
                f"deg F_{i + 1} = {F[i].degree} != deg G_{i + 1} = {G[i].degree}")
        if P[i].degree != Q[i].degree:
            raise DegreeMismatch(
                f"deg P_{i + 1} = {P[i].degree} != deg Q_{i + 1} = {Q[i].degree}")
    return EtaMap(k, s, r, F, G, P, Q, name=name)


def standard_eta() -> EtaMap:
    """The k = s = 2, r = 1 instance (u1/u2)(conj v1 / conj v2)."""
    return build_eta(
        2, 2, 1,
        F=[monomial(2, 0, "u1")], G=[monomial(2, 1, "u2")],
        P=[monomial(2, 0, "w1")], Q=[monomial(2, 1, "w2")],
        name="eta(2,2,1)")


@dataclass(frozen=True)
class SumMap:
    """phi(u~, v~) = eta1(u~) + eta2(v~) on C^d x C^d, d = k + s."""

    eta1: EtaMap
    eta2: EtaMap
    name: str = "eta1+eta2"

    def __post_init__(self):
        if self.eta1.r != self.eta2.r:
            raise DimensionMismatch("summands need the same target dimension")
        if (self.eta1.domain_complex_dim != self.eta2.domain_complex_dim):
            raise DimensionMismatch("summands need the same domain dimension")

    @property
    def r(self):
        return self.eta1.r

    @property
    def domain_complex_dim(self):
        return 2 * self.eta1.domain_complex_dim

    def _halves(self, pt):
        pt = np.asarray(pt, dtype=float)
        d = self.eta1.domain_complex_dim
        w = to_complex(pt)
        first = np.concatenate([w[:d].real, w[:d].imag])
        second = np.concatenate([w[d:].real, w[d:].imag])
        return first, second

    def value_real(self, pt) -> np.ndarray:
        a, b = self._halves(pt)
        return self.eta1.value_real(a) + self.eta2.value_real(b)

    def real_jacobian(self, pt) -> np.ndarray:
        a, b = self._halves(pt)
        ja = self.eta1.real_jacobian(a)
        jb = self.eta2.real_jacobian(b)
        d = self.eta1.domain_complex_dim
        out = np.zeros((2 * self.r, 4 * d))
        # interleave: domain reals are (x_1..x_2d, y_1..y_2d)
        out[:, 0:d] = ja[:, 0:d]
        out[:, d:2 * d] = jb[:, 0:d]
        out[:, 2 * d:3 * d] = ja[:, d:2 * d]
        out[:, 3 * d:4 * d] = jb[:, d:2 * d]
        return out


def sum_map(eta1: EtaMap, eta2: EtaMap) -> SumMap:
    return SumMap(eta1, eta2, name=f"{eta1.name}+{eta2.name}")


# ---------------------------------------------------------------------------
# sample generation and the eta suite
# ---------------------------------------------------------------------------

def seeded_sample_points(map_like, count=100, seed=42, pole_margin=0.1,
                         radius=(0.55, 1.2)):
    """Deterministic points in a polydisk annulus avoiding poles.

    Rejection-samples complex coordinates with moduli in ``radius`` and
    keeps points whose denominators stay at least ``pole_margin`` in
    magnitude.
    """
    rng = np.random.default_rng(seed)
    d = map_like.domain_complex_dim
    pts = []
    guard = 0
    while len(pts) < count:
        guard += 1
        if guard > 100 * count:
            raise PoleAtPoint("could not find enough points off the poles")
        moduli = rng.uniform(radius[0], radius[1], d)
        phases = rng.uniform(0.0, 2 * np.pi, d)
        z = moduli * np.exp(1j * phases)
        pt = np.concatenate([z.real, z.imag])
        try:
            val = map_like.value_real(pt)
            jac = map_like.real_jacobian(pt)
        except PoleAtPoint:
            continue
        if not (np.all(np.isfinite(val)) and np.all(np.isfinite(jac))):
            continue
        if _denominator_margin(map_like, z) < pole_margin:
            continue
        pts.append(pt)
    return pts


def _denominator_margin(map_like, z):
    if isinstance(map_like, EtaMap):
        u, v = map_like._split(z)
        vb = np.conj(v)
        return min(min(abs(g(u)) for g in map_like.G),
                   min(abs(q(vb)) for q in map_like.Q))
    if isinstance(map_like, SumMap):
        d = map_like.eta1.domain_complex_dim
        return min(_denominator_margin(map_like.eta1, z[:d]),
                   _denominator_margin(map_like.eta2, z[d:]))
    return np.inf


def fd_laplacian_residual(map_like, pt, step=2.5e-4) -> float:
    """max over real components of the 2nd-order finite-difference
    Laplacian; vanishes for componentwise harmonic maps."""
    pt = np.asarray(pt, dtype=float)
    m = pt.shape[0]
    center = map_like.value_real(pt)
    acc = np.zeros_like(center)
    for j in range(m):
        pp, pm = pt.copy(), pt.copy()
        pp[j] += step
        pm[j] -= step
        acc += (map_like.value_real(pp) - 2.0 * center
                + map_like.value_real(pm)) / step ** 2
    return float(np.abs(acc).max())


def _cr_residual_split(map_like, pt, step=1e-6):
    """Cauchy-Riemann residuals of the full map: (max over first-block
    variables, max over all variables, max anti-CR over all variables)."""
    pt = np.asarray(pt, dtype=float)
    m = pt.shape[0] // 2
    k = getattr(map_like, "k", m)
    d = to_complex(_central_diff(map_like.value_real, pt, [step] * (2 * m)))
    cr, anti = _cr_terms(d[:m], d[m:])
    return cr[:k].max(), cr.max(), anti.max()


@dataclass(frozen=True)
class EtaSuiteResult:
    phwc_max: float
    commutator_max: float
    gradient_check_max: float
    laplacian_max: float
    cr_u_max: float
    cr_full_max: float
    anti_cr_max: float
    holomorphic: bool
    anti_holomorphic: bool
    passed: bool

    def as_dict(self):
        return {
            "phwc_max": self.phwc_max,
            "commutator_max": self.commutator_max,
            "gradient_check_max": self.gradient_check_max,
            "laplacian_max": self.laplacian_max,
            "cr_u_max": self.cr_u_max,
            "cr_full_max": self.cr_full_max,
            "anti_cr_max": self.anti_cr_max,
            "holomorphic": self.holomorphic,
            "anti_holomorphic": self.anti_holomorphic,
            "passed": self.passed,
        }


def eta_phwc_suite(map_like, sample_points, tol_phwc=1e-8,
                   tol_laplace=1e-4, tol_grad=1e-6) -> EtaSuiteResult:
    """Pointwise PHM certificate for an eta-type map.

    At every sample point: the closed-form gradients must match central
    finite differences, the PHWC and commutator residuals must vanish,
    and the finite-difference Laplacian of every component must vanish.
    The map is also classified as holomorphic / anti-holomorphic / mixed
    from its CR residuals.
    """
    tgt = flat_target(map_like.r)
    samples = []
    grad_worst = 0.0
    lap_worst = 0.0
    cr_u = cr_full = anti_full = 0.0
    for pt in sample_points:
        jac = map_like.real_jacobian(pt)
        if hasattr(map_like, "fd_jacobian"):
            grad_worst = max(grad_worst, float(
                np.abs(jac - map_like.fd_jacobian(pt)).max()))
        samples.append(GradientSample(
            rows=jac, metric=np.eye(jac.shape[1]),
            image=to_complex(map_like.value_real(pt)),
            location=("point", tuple(np.round(pt, 12)))))
        lap_worst = max(lap_worst, fd_laplacian_residual(map_like, pt))
        u, a, anti = _cr_residual_split(map_like, pt)
        cr_u, cr_full, anti_full = (max(cr_u, u), max(cr_full, a),
                                    max(anti_full, anti))
    rep_p = phwc_residual(samples, tol=tol_phwc)
    rep_c = commutator_form_residual(samples, tgt, tol=tol_phwc)
    holo = cr_full <= 10 * tol_grad
    anti = anti_full <= 10 * tol_grad
    passed = (rep_p.normalized_inf < tol_phwc
              and rep_c.normalized_inf < tol_phwc
              and lap_worst < tol_laplace
              and grad_worst < tol_grad)
    return EtaSuiteResult(
        phwc_max=rep_p.normalized_inf,
        commutator_max=rep_c.normalized_inf,
        gradient_check_max=float(grad_worst),
        laplacian_max=float(lap_worst),
        cr_u_max=float(cr_u),
        cr_full_max=float(cr_full),
        anti_cr_max=float(anti_full),
        holomorphic=bool(holo),
        anti_holomorphic=bool(anti),
        passed=bool(passed),
    )


# ---------------------------------------------------------------------------
# coverings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoveringData:
    """An isometric simplicial covering: a discrete harmonic morphism of
    dilation one, suitable for the factorization suite."""

    name: str
    total_complex: SimplicialComplex
    total_metric: PiecewiseMetric
    base_complex: SimplicialComplex
    base_metric: PiecewiseMetric
    vertex_map: dict                  # total vertex -> base vertex
    simplex_map: dict = field(default=None)   # total idx -> base idx
    section: dict = field(default=None)       # base vertex -> total vertex
    warning: str = None
    factorization_ready: bool = True

    def __post_init__(self):
        if self.simplex_map is None and self.factorization_ready:
            # a covering maps every total simplex onto a base simplex
            # (orbit-space folds do not: mirrored sheets flip diagonals)
            smap = {}
            for t_idx, top in enumerate(self.total_complex.top_simplices):
                image = tuple(sorted(self.vertex_map[v] for v in top))
                smap[t_idx] = self.base_complex.top_index(image)
            object.__setattr__(self, "simplex_map", smap)
        if self.section is None:
            sec = {}
            for v in self.total_complex.vertices:
                sec.setdefault(self.vertex_map[v], v)
            object.__setattr__(self, "section", sec)

    def validate(self, tol=1e-12):
        """Sheets must be isometric: the base metric pulled back through
        the matched-simplex frame map must equal the total metric."""
        if not self.factorization_ready or self.simplex_map is None:
            raise NotACovering(
                f"{self.name} is not a covering: {self.warning}")
        for t_idx, b_idx in self.simplex_map.items():
            tot = self.total_complex.top_simplices[t_idx]
            base = self.base_complex.top_simplices[b_idx]
            ref = {base[0]: np.zeros(self.base_complex.n)}
            for i, v in enumerate(base[1:]):
                e = np.zeros(self.base_complex.n)
                e[i] = 1.0
                ref[v] = e
            cols = [ref[self.vertex_map[v]] for v in tot]
            a = np.stack([c - cols[0] for c in cols[1:]], axis=1)
            gb = self.base_metric.at(b_idx)
            gt = self.total_metric.at(t_idx)
            if np.abs(a.T @ gb @ a - gt).max() > tol:
                raise NotACovering(
                    f"{self.name}: sheet over base simplex {base} is not "
                    f"isometric to total simplex {tot}")
        return True


def build_covering(spec_name, k=3, **kwargs) -> CoveringData:
    """Concrete coverings at desk scale.

    "torus_cover": the 2:1 translation quotient of a flat torus (a free
    quotient; an honest covering with isometric sheets).  "reflection_fold":
    the fold of [-1,1] x [0,1] onto [0,1] x [0,1] (a reflection orbit
    space, not a covering: the fixed edge is flagged and the data is
    excluded from factorization assertions).
    """
    if spec_name == "torus_cover":
        base_cx, base_mt = flat_torus(k)
        total_cx, total_mt = flat_torus(k, width=2 * k)
        vmap = {}
        for v in total_cx.vertices:
            i, j = divmod(v, k)
            vmap[v] = (i % k) * k + j
        return CoveringData(
            name=f"torus_cover({k})",
            total_complex=total_cx, total_metric=total_mt,
            base_complex=base_cx, base_metric=base_mt,
            vertex_map=vmap)
    if spec_name == "reflection_fold":
        ny = kwargs.get("ny", 2)
        nx = kwargs.get("nx", 2)
        total_cx, total_mt = rectangle_mesh(2 * nx, ny, x0=-1.0, x1=1.0)
        base_cx, base_mt = rectangle_mesh(nx, ny, x0=0.0, x1=1.0)

        def locate(cx, x, y):
            for v, c in cx.vertices.items():
                if abs(c[0] - x) < 1e-12 and abs(c[1] - y) < 1e-12:
                    return v
            raise UnknownSpec(f"no vertex at ({x}, {y})")

        vmap = {}
        fixed = []
        for v, c in total_cx.vertices.items():
            vmap[v] = locate(base_cx, abs(c[0]), c[1])
            if abs(c[0]) < 1e-12:
                fixed.append(v)
        return CoveringData(
            name="reflection_fold",
            total_complex=total_cx, total_metric=total_mt,
            base_complex=base_cx, base_metric=base_mt,
            vertex_map=vmap,
            warning=("reflection fold is an orbit space, not a covering: "
                     f"fixed-edge vertices {sorted(fixed)} have one-sided "
                     "sheets; excluded from factorization assertions"),
            factorization_ready=False)
    raise UnknownSpec(f"unknown covering construction {spec_name!r}")
