"""JSON file formats: meshes, metrics, maps, boundary data, reports.

Canonical mesh ordering: each simplex's vertex tuple sorted ascending and
the simplex list sorted lexicographically; emitted files are deterministic
byte-for-byte for identical inputs.  Numbers are serialized with repr
(shortest round-trip, up to 17 significant digits).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import NonFiniteReport, UsageError
from .maps import PLMap
from .riemannian import PiecewiseMetric
from .simplicial import SimplicialComplex, build_complex


def _fail(path, what):
    raise UsageError(f"{path}: {what}")


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} is not allowed")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows to {value}")
    return value


def load_json(path, kind=dict):
    """Parse a JSON input file whose top level must be a ``kind`` (dict or
    list).  NaN and +-Infinity (which Python's json accepts but JSON does
    not have) and numbers that overflow to infinity are refused.  Every
    failure is a UsageError naming the file."""
    try:
        with open(path) as fh:
            data = json.load(fh, parse_constant=_reject_constant,
                             parse_float=_finite_float)
    except FileNotFoundError:
        _fail(path, "file not found")
    except OSError as exc:
        _fail(path, f"cannot read ({exc.strerror or exc})")
    except json.JSONDecodeError as exc:
        _fail(path, f"invalid JSON at line {exc.lineno}, column {exc.colno}")
    except ValueError as exc:
        _fail(path, str(exc))
    if not isinstance(data, kind):
        _fail(path, f"expected a JSON {'object' if kind is dict else 'list'} "
                    f"at the top level, got {type(data).__name__}")
    return data


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_row(x, item=_is_number) -> bool:
    """A JSON list whose entries all pass ``item``."""
    return isinstance(x, list) and all(item(e) for e in x)


def load_mesh(path) -> SimplicialComplex:
    data = load_json(path)
    for key in ("dimension", "vertices", "simplices"):
        if key not in data:
            _fail(path, f"missing field {key!r}")
    if not _is_int(data["dimension"]):
        _fail(path, "'dimension' must be an integer")
    verts = data["vertices"]
    if (not isinstance(verts, list) or not all(map(_is_row, verts))
            or len({len(row) for row in verts}) > 1):
        _fail(path, "'vertices' must be a list of equal-length rows of "
                    "numbers")
    if not _is_row(data["simplices"], lambda t: _is_row(t, _is_int)):
        _fail(path, "'simplices' must be a list of lists of vertex ids "
                    "(integers)")
    simps = [tuple(s) for s in data["simplices"]]
    complex_ = build_complex(verts, simps)
    if complex_.n != data["dimension"]:
        _fail(path, f"declared dimension {data['dimension']} but top "
                    f"simplices have dimension {complex_.n}")
    return complex_


def mesh_payload(complex_: SimplicialComplex) -> dict:
    order = sorted(complex_.vertices)
    if order != list(range(len(order))):
        # renumber to a dense 0..V-1 id space for the file format
        remap = {v: i for i, v in enumerate(order)}
        simplices = sorted(tuple(sorted(remap[v] for v in t))
                           for t in complex_.top_simplices)
    else:
        simplices = sorted(complex_.top_simplices)
    return {
        "dimension": complex_.n,
        "vertices": [list(map(float, complex_.vertices[v])) for v in order],
        "simplices": [list(t) for t in simplices],
    }


def save_mesh(complex_, path):
    write_report(mesh_payload(complex_), path)


def load_metric(path, complex_) -> PiecewiseMetric:
    data = load_json(path)
    mode = data.get("mode", "constant")
    if mode == "smooth":
        _fail(path, "smooth metrics are constructed programmatically; "
                    "files carry constant per-simplex arrays only")
    if mode != "constant":
        _fail(path, f"unknown metric mode {mode!r}")
    per = data.get("per_simplex")
    if per is None:
        _fail(path, "missing field 'per_simplex'")
    if not _is_row(per, _is_row):
        _fail(path, "'per_simplex' must be a list of lists of numbers")
    n = complex_.n
    arrays = []
    for i, flat in enumerate(per):
        arr = np.asarray(flat, dtype=float)
        if arr.size != n * n:
            _fail(path, f"per_simplex[{i}] has {arr.size} entries, "
                        f"expected {n * n}")
        arrays.append(arr.reshape(n, n))
    return PiecewiseMetric.from_arrays(complex_, arrays)


def metric_payload(metric: PiecewiseMetric) -> dict:
    return {
        "mode": "constant",
        "per_simplex": [list(map(float, a.ravel())) for a in metric.arrays],
    }


def load_plmap(path, complex_) -> PLMap:
    data = load_json(path)
    vals = data.get("values")
    if vals is None:
        _fail(path, "missing field 'values'")
    try:
        rows = np.array(vals, dtype=float)
    except (TypeError, ValueError):
        rows = None
    if rows is None or rows.ndim != 2:
        _fail(path, "'values' must be a list of equal-length rows of numbers")
    if len(rows) != len(complex_.vertices):
        _fail(path, f"{len(rows)} value rows for {len(complex_.vertices)} vertices")
    order = sorted(complex_.vertices)
    return PLMap(complex_, {v: rows[i] for i, v in enumerate(order)})


def plmap_payload(plmap: PLMap) -> dict:
    order = sorted(plmap.complex.vertices)
    return {
        "target_complex_dim": plmap.target_dim // 2,
        "values": [list(map(float, plmap.values[v])) for v in order],
    }


def load_function_family(path):
    """User polynomial test functions.

    Format: a list of entries {"n": complex dim, "exponents": [[e1..en]..],
    "coefficients": [[re, im]..], "name": optional}; coefficient pairs are
    matched to exponent rows by position.
    """
    from .target import polynomial

    data = load_json(path, list)
    out = []
    for i, entry in enumerate(data):
        try:
            n = int(entry["n"])
            exps = [tuple(int(e) for e in row) for row in entry["exponents"]]
            coeffs = [complex(re, im) for re, im in entry["coefficients"]]
        except (KeyError, TypeError, ValueError) as exc:
            _fail(path, f"entry {i}: malformed polynomial ({exc})")
        if len(exps) != len(coeffs):
            _fail(path, f"entry {i}: {len(exps)} exponent rows for "
                        f"{len(coeffs)} coefficients")
        out.append(polynomial(n, dict(zip(exps, coeffs)),
                              name=entry.get("name", f"user{i}")))
    return out


def write_csv_table(columns: dict, path) -> str:
    """Convergence tables: one column per named series."""
    names = list(columns)
    rows = max(len(v) for v in columns.values()) if columns else 0
    lines = [",".join(["level"] + names)]
    for r in range(rows):
        cells = [str(r)]
        for k in names:
            vals = columns[k]
            cells.append(repr(float(vals[r])) if r < len(vals) else "")
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def load_boundary(path) -> dict:
    """Vertex id -> value; every value is a number or a non-empty list of
    numbers, all of one length (a number counts as length 1)."""
    data = load_json(path)
    out = {}
    for key, val in data.items():
        try:
            v = int(key)
        except ValueError:
            _fail(path, f"boundary keys must be vertex ids, got {key!r}")
        if not (_is_number(val) or (_is_row(val) and val)):
            _fail(path, f"boundary value of vertex {key} must be a number "
                        f"or a non-empty list of numbers, got {val!r}")
        out[v] = np.asarray(val, dtype=float)
    lengths = {a.size for a in out.values()}
    if len(lengths) > 1:
        _fail(path, f"boundary values have different lengths "
                    f"{sorted(lengths)}")
    return out


def write_report(obj, path=None) -> str:
    """Serialize a report deterministically; returns the text.

    Raises NonFiniteReport when a value is NaN or infinite (JSON has no
    such numbers) and UsageError when ``path`` cannot be written.
    """
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteReport(f"report cannot be written as JSON: {exc}")
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            _fail(path, f"cannot write ({exc.strerror or exc})")
    return text
