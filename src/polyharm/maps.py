"""Piecewise-linear maps on complexes and smooth analytic maps.

PL maps are stored as vertex values; the differential on each top simplex is
the constant array whose columns are value differences along the reference
edge frame.  Chart-valued maps use the real coordinate order
(x_1..x_n, y_1..y_n) throughout the package.

Maps are immutable; per-simplex and per-point evaluations are concurrently
safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSimplex, DimensionMismatch, PoleAtPoint
from .simplicial import SimplicialComplex
from .target import _central_diff


@dataclass(frozen=True)
class PLMap:
    """Piecewise-linear map given by vertex values.

    Parameters
    ----------
    complex : SimplicialComplex
    values : dict
        Vertex id -> value array (length ``target_dim``).
    """

    complex: SimplicialComplex
    values: dict
    target_dim: int = field(default=None)

    def __post_init__(self):
        vals = {v: np.atleast_1d(np.asarray(a, dtype=float))
                for v, a in self.values.items()}
        dims = {a.shape for a in vals.values()}
        if len(dims) != 1:
            raise DimensionMismatch(f"inconsistent value shapes {dims}")
        missing = set(self.complex.vertices) - set(vals)
        if missing:
            raise DimensionMismatch(f"missing values for vertices {sorted(missing)!r}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "target_dim", dims.pop()[0])

    # -- evaluation ---------------------------------------------------------

    def _stacks(self):
        """Read-only (T, d) values at the first vertex of every top simplex
        and (T, d, n) differentials, built once."""
        cache = self.__dict__.get("_stack_cache")
        if cache is None:
            cache = _simplex_stacks(self.value_array(),
                                    self.complex.top_array)
            for arr in cache:
                arr.setflags(write=False)
            object.__setattr__(self, "_stack_cache", cache)
        return cache

    def differential(self, idx) -> np.ndarray:
        """Constant differential on top simplex ``idx``: a
        (target_dim x n) array in reference coordinates whose rows are the
        component differentials.  An integer index array gives the
        (len(idx), target_dim, n) stack."""
        return self._stacks()[1][idx]

    def differential_embedding(self, idx) -> np.ndarray:
        """Differential with respect to the ambient euclidean coordinates.

        Only defined when the simplex embedding is an invertible n x n
        frame; raises DegenerateSimplex otherwise.
        """
        top = self.complex.top_simplices[idx]
        coords = [self.complex.vertices[v] for v in top]
        edges = np.stack([c - coords[0] for c in coords[1:]], axis=1)
        if edges.shape[0] != edges.shape[1] or abs(np.linalg.det(edges)) < 1e-14:
            raise DegenerateSimplex(
                f"simplex {top} has no invertible embedding frame")
        return self.differential(idx) @ np.linalg.inv(edges)

    def value_at(self, idx, xi) -> np.ndarray:
        """Value at reference coordinates xi inside top simplex ``idx``;
        an integer index array gives the (len(idx), target_dim) values at
        the same xi in each of those simplices."""
        return (self._stacks()[0][idx]
                + self.differential(idx) @ np.asarray(xi, float))

    def value_array(self, vertex_order=None) -> np.ndarray:
        order = vertex_order or sorted(self.complex.vertices)
        return np.stack([self.values[v] for v in order])

    # -- arithmetic helpers ---------------------------------------------

    def scaled(self, c) -> "PLMap":
        return PLMap(self.complex, {v: c * a for v, a in self.values.items()})

    def perturbed(self, vertex, delta) -> "PLMap":
        vals = {v: a.copy() for v, a in self.values.items()}
        vals[vertex] = vals[vertex] + np.asarray(delta, dtype=float)
        return PLMap(self.complex, vals)

    @classmethod
    def from_function(cls, complex_: SimplicialComplex, fn) -> "PLMap":
        """Sample a function of the embedding coordinates at the vertices."""
        return cls(complex_, {v: np.atleast_1d(np.asarray(fn(c), dtype=float))
                              for v, c in complex_.vertices.items()})

    @classmethod
    def from_complex_function(cls, complex_: SimplicialComplex, fn) -> "PLMap":
        """Sample a complex-valued function of the embedding coordinates;
        values are stored as (x_1..x_n, y_1..y_n)."""
        def real_fn(c):
            w = np.atleast_1d(np.asarray(fn(c), dtype=complex))
            return np.concatenate([w.real, w.imag])
        return cls.from_function(complex_, real_fn)


def _simplex_stacks(values, tops):
    """PLMap's stacks from (V, d) values in sorted vertex order and the
    (T, n+1) ``top_array``; contiguous, so images round alike."""
    corners = values[tops]
    diffs = np.ascontiguousarray(
        (corners[:, 1:] - corners[:, :1]).swapaxes(1, 2))
    return np.ascontiguousarray(corners[:, 0]), diffs


def differential(plmap: PLMap, idx) -> np.ndarray:
    """Reference-frame differential of a PL map on one top simplex."""
    return plmap.differential(idx)


@dataclass(frozen=True)
class AnalyticMap:
    """Smooth map R^m -> R^d given by evaluators.

    ``jacobian`` may be omitted, in which case central finite differences
    with relative step ``fd_step`` are used.
    """

    domain_dim: int
    target_dim: int
    value: callable
    jacobian: callable = None
    fd_step: float = 1e-5
    name: str = "analytic"

    def value_at(self, p) -> np.ndarray:
        out = np.asarray(self.value(np.asarray(p, dtype=float)), dtype=float)
        if not np.all(np.isfinite(out)):
            raise PoleAtPoint(f"{self.name} is not finite at {p}")
        return out

    def jacobian_at(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.jacobian is not None:
            out = np.asarray(self.jacobian(p), dtype=float)
            if not np.all(np.isfinite(out)):
                raise PoleAtPoint(f"{self.name} jacobian not finite at {p}")
            return out
        return self.fd_jacobian(p)

    def fd_jacobian(self, p) -> np.ndarray:
        """Central-difference Jacobian with relative step."""
        p = np.asarray(p, dtype=float)
        steps = [self.fd_step * max(1.0, abs(x)) for x in p[:self.domain_dim]]
        return np.ascontiguousarray(_central_diff(self.value_at, p, steps).T)


def compose_gradients(hol, base_gradients, base_point) -> np.ndarray:
    """Chain rule: rows of d(psi o phi) from the rows of d(phi).

    ``hol`` is anything exposing ``real_jacobian(point) -> (2p x 2n)``
    (holomorphic maps/functions) or ``jacobian_at`` (analytic maps);
    ``base_gradients`` are the 2n rows of d(phi); ``base_point`` is the
    image point of phi at which the jacobian is taken.  The identity is
    exact: no discretization is involved.
    """
    base_gradients = np.asarray(base_gradients, dtype=float)
    return (_checked_jacobian(hol, base_point, base_gradients.shape[0])
            @ base_gradients)


def _checked_jacobian(hol, base_point, base_rows) -> np.ndarray:
    """The jacobian ``compose_gradients`` multiplies by: ``hol``'s real
    jacobian at ``base_point``, refused with DimensionMismatch unless it has
    ``base_rows`` columns and with PoleAtPoint unless it is finite."""
    if hasattr(hol, "real_jacobian"):
        jac = hol.real_jacobian(base_point)
    else:
        jac = hol.jacobian_at(base_point)
    jac = np.asarray(jac, dtype=float)
    if jac.shape[1] != base_rows:
        raise DimensionMismatch(
            f"jacobian has {jac.shape[1]} columns, base has "
            f"{base_rows} rows")
    if not np.isfinite(jac).all():
        raise PoleAtPoint(f"jacobian not finite at {base_point}")
    return jac
