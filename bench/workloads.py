"""The three benchmark workloads: seeded inputs, one op each, output checks.

Each workload is a closed loop with one client.  Its ops come in passes; a
pass is a fixed mix of inputs drawn from ``numpy.random.default_rng`` seeded
with (seed, workload tag, pass index), so a seed fixes the whole op sequence
and every pass covers the same mix.  polyharm is called through module
attributes (``harmonic.solve_harmonic_map``) so that the tracer's wrappers
see every call.

* ``cp1_solve``: Picard solves of a harmonic map into the Fubini-Study chart
  on ``distorted_square_mesh(16)``.  Amplitudes a are the midpoints of
  three equal strata of [0.1, 1.0], one per op of a pass; a >= 1.5 is left
  out because Picard then needs 57 to 200+ iterations (about 20 s per
  failed op).
* ``cli_geometry``: every (mesh, command) pair of the CLI once per pass, on
  jittered unit squares k = 8, 12, 16 and on "bowties" (two squares sharing
  one corner, not admissible).  Input files are written before timing.
* ``phm_verify``: PHM verdicts and cp1 residuals of seeded PL maps on one
  assembled ``distorted_square_mesh(24)``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import polyharm
from polyharm import (cli, energy, fileio, harmonic, maps, meshes, morphism,
                      simplicial, target)
from polyharm.errors import NonConvergence


class CheckFailed(Exception):
    """An op returned, but its output is not the expected one."""


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


def _finite(*values):
    return all(np.all(np.isfinite(np.asarray(v, dtype=float)))
               for v in values)


def _write_json(obj, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")


class Workload:
    """Defaults shared by the workloads; see each subclass for its op."""

    def prepare(self, seed, workdir):
        """Write input files before timing; returns what ``setup`` needs."""
        return None

    def timed_setup(self, inputs):
        """Seconds of one program set-up, and the state the ops use."""
        t = time.perf_counter()
        state = self.setup(inputs)
        return time.perf_counter() - t, state

    def attempt(self, state, spec):
        """Run one op; return None on success or a one-line failure note.

        A solve that raises NonConvergence is noted with the length of its
        residual history.
        """
        try:
            self.run_op(state, spec)
        except CheckFailed as exc:
            return f"check failed: {exc}"
        except NonConvergence as exc:
            return f"NonConvergence, history length {len(exc.history)}: {exc}"
        except Exception as exc:  # an op that raises is a failed op
            return f"{type(exc).__name__}: {exc}"
        return None


# ---------------------------------------------------------------------------
# cp1_solve
# ---------------------------------------------------------------------------

class Cp1Solve(Workload):
    name = "cp1_solve"
    tag = 1
    mesh_k = 16
    strata = 3           # ops per pass, one stratum midpoint each
    a_range = (0.1, 1.0)

    def setup(self, inputs):
        complex_, metric = meshes.distorted_square_mesh(self.mesh_k)
        system = harmonic.assemble_stiffness(complex_, metric)
        return {"system": system, "target": target.fubini_study_cp1(),
                "boundary": sorted(system.boundary)}

    def pass_specs(self, state, seed, pass_idx):
        rng = np.random.default_rng([seed, self.tag, pass_idx])
        lo, hi = self.a_range
        specs = [{"a": lo + (hi - lo) * (i + 0.5) / self.strata,
                  "w": int(rng.integers(1, 4)),
                  "phase": rng.uniform(0.0, 2.0 * math.pi)}
                 for i in range(self.strata)]
        return [specs[i] for i in rng.permutation(self.strata)]

    @staticmethod
    def label(spec):
        return f"a={spec['a']:.2f}"

    def run_op(self, state, spec):
        system, cp1 = state["system"], state["target"]
        coords = system.complex.vertices
        boundary = {}
        for v in state["boundary"]:
            x, y = coords[v]
            t = 2.0 * math.pi * (x + spec["w"] * y) + spec["phase"]
            boundary[v] = spec["a"] * np.array([math.cos(t), math.sin(t)])
        sol = harmonic.solve_harmonic_map(system, cp1, boundary)
        res = harmonic.weak_harmonic_residual(system, cp1, sol)
        en = energy.dirichlet_energy(system.complex, system.metric, sol, cp1)
        check(res.inf <= 1e-8, f"residual inf {res.inf:.3g} > 1e-8")
        check(_finite(res.inf, res.weighted_1, res.dual_energy,
                      en.total, en.contributions,
                      np.stack(list(sol.values.values()))),
              "non-finite solution, residual or energy")
        check(all(np.array_equal(sol.values[v], boundary[v])
                  for v in boundary), "boundary values changed")


# ---------------------------------------------------------------------------
# cli_geometry
# ---------------------------------------------------------------------------

def _square_payload(k, seed, shift=(0.0, 0.0)):
    complex_, _ = meshes.unit_square_mesh(k, jitter=0.3, seed=seed)
    payload = fileio.mesh_payload(complex_)
    payload["vertices"] = [[x + shift[0], y + shift[1]]
                           for x, y in payload["vertices"]]
    return payload


def _bowtie_payload(k, seed_a, seed_b):
    """Two jittered squares glued at one corner: A's (1, 1) is B's (0, 0).

    Returns the payload and the shared vertex id.  The shared vertex's star
    is two fans with no common edge, so it is the only witness.
    """
    a = _square_payload(k, seed_a)
    b = _square_payload(k, seed_b, shift=(1.0, 1.0))
    shared = len(a["vertices"]) - 1          # corner (k, k) of A
    off = len(a["vertices"]) - 1

    def remap(v):
        return shared if v == 0 else v + off

    simplices = a["simplices"] + [sorted(remap(v) for v in t)
                                  for t in b["simplices"]]
    payload = {"dimension": 2,
               "vertices": a["vertices"] + b["vertices"][1:],
               "simplices": sorted(simplices)}
    return payload, shared


def _harmonic_quadratic(rng):
    """Coefficients of c0 + c1 x + c2 y + c3 (x^2 - y^2) + c4 2xy."""
    return rng.uniform(-1.0, 1.0, size=5)


def _eval_quadratic(c, x, y):
    return (c[0] + c[1] * x + c[2] * y + c[3] * (x * x - y * y)
            + c[4] * 2 * x * y)


def _unit_complex(rng, lo=0.5, hi=2.0):
    return rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def cold_import_seconds():
    """Time ``import polyharm.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import polyharm.cli; "
            "print(repr(time.perf_counter() - t))")
    src = Path(polyharm.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         cwd=src.parent, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class CliGeometry(Workload):
    name = "cli_geometry"
    tag = 2
    sizes = (8, 12, 16)
    pullback_k = 8

    def prepare(self, seed, workdir):
        """Write every mesh, boundary and map file; return the op specs."""
        rng = np.random.default_rng([seed, self.tag])
        specs = []
        for k in self.sizes:
            square = _square_payload(k, int(rng.integers(2 ** 31)))
            bowtie, shared = _bowtie_payload(k, int(rng.integers(2 ** 31)),
                                             int(rng.integers(2 ** 31)))
            for label, payload in ((f"square{k}", square),
                                   (f"bowtie{k}", bowtie)):
                mesh = os.path.join(workdir, f"{label}.json")
                _write_json(payload, mesh)
                verts = np.asarray(payload["vertices"])
                is_bowtie = label.startswith("bowtie")
                specs.append({
                    "kind": "validate", "mesh": label,
                    "argv": ["validate", mesh],
                    "witness": [[shared]] if is_bowtie else []})
                i, j = (int(x) for x in rng.choice(len(verts), 2,
                                                   replace=False))
                specs.append({
                    "kind": "distance", "mesh": label,
                    "argv": ["distance", mesh, "--from", f"v:{i}",
                             "--to", f"v:{j}", "--level", "2"],
                    "euclid": float(np.linalg.norm(verts[i] - verts[j]))})
                if is_bowtie:
                    continue
                boundary = self._boundary_file(rng, payload, workdir, label)
                specs.append({
                    "kind": "solve", "mesh": label,
                    "argv": ["solve", mesh, boundary, "--target", "flat:1"]})
                if k == self.pullback_k:
                    alpha, beta = _unit_complex(rng), _unit_complex(rng)
                    w = alpha * (verts[:, 0] + 1j * verts[:, 1]) + beta
                    map_path = os.path.join(workdir, f"{label}-map.json")
                    _write_json({"target_complex_dim": 1,
                                 "values": [[float(z.real), float(z.imag)]
                                            for z in w]}, map_path)
                    specs.append({
                        "kind": "pullback", "mesh": label,
                        "argv": ["check", mesh, map_path, "--mode",
                                 "pullback", "--levels", "2"]})
        report = os.path.join(workdir, "report.json")
        for spec in specs:
            spec["argv"] = ["--output", report] + spec["argv"]
            spec["report"] = report
        return specs

    @staticmethod
    def _boundary_file(rng, payload, workdir, label):
        c1, c2 = _harmonic_quadratic(rng), _harmonic_quadratic(rng)
        complex_ = simplicial.build_complex(
            payload["vertices"], [tuple(t) for t in payload["simplices"]])
        data = {}
        for v in sorted(complex_.boundary_vertices()):
            x, y = payload["vertices"][v]
            data[str(v)] = [float(_eval_quadratic(c1, x, y)),
                            float(_eval_quadratic(c2, x, y))]
        path = os.path.join(workdir, f"{label}-boundary.json")
        _write_json(data, path)
        return path

    def setup(self, inputs):
        return {"specs": inputs}

    def timed_setup(self, inputs):
        """The CLI's set-up is its cold import, timed in a fresh
        interpreter."""
        return cold_import_seconds(), self.setup(inputs)

    def pass_specs(self, state, seed, pass_idx):
        rng = np.random.default_rng([seed, self.tag, pass_idx])
        specs = state["specs"]
        return [specs[i] for i in rng.permutation(len(specs))]

    @staticmethod
    def label(spec):
        return f"{spec['kind']}:{spec['mesh']}"

    def run_op(self, state, spec):
        if os.path.exists(spec["report"]):
            os.remove(spec["report"])   # never check the previous op's report
        code = cli.dispatch(spec["argv"])
        with open(spec["report"]) as fh:
            report = json.load(fh)
        kind = spec["kind"]
        if kind == "validate":
            want = 2 if spec["witness"] else 0
            check(code == want, f"exit {code}, expected {want}")
            check(report["witnesses"] == spec["witness"],
                  f"witnesses {report['witnesses']} != {spec['witness']}")
            check(report["admissible"] is (not spec["witness"]),
                  "admissible flag disagrees with the witnesses")
        elif kind == "solve":
            check(code == 0, f"exit {code}, expected 0")
            check(report["residual"]["inf"] <= 1e-8,
                  f"residual inf {report['residual']['inf']:.3g} > 1e-8")
        elif kind == "distance":
            check(code == 0, f"exit {code}, expected 0")
            check(report["upper_bound"] >= spec["euclid"] - 1e-12,
                  f"upper bound {report['upper_bound']} below euclidean "
                  f"distance {spec['euclid']}")
        else:
            check(code == 0, f"exit {code}, expected 0")
            check(report["pullback"]["passed"] is True,
                  "pullback suite did not pass")


# ---------------------------------------------------------------------------
# phm_verify
# ---------------------------------------------------------------------------

class PhmVerify(Workload):
    name = "phm_verify"
    tag = 3
    mesh_k = 24
    per_case = 2         # ops per (eps, delta) case and pass

    def setup(self, inputs):
        complex_, metric = meshes.distorted_square_mesh(self.mesh_k)
        system = harmonic.assemble_stiffness(complex_, metric)
        order = sorted(complex_.vertices)
        xy = np.array([complex_.vertices[v] for v in order])
        return {"system": system, "order": order,
                "z": xy[:, 0] + 1j * xy[:, 1],
                "flat": target.flat_target(1),
                "cp1": target.fubini_study_cp1(),
                "family": target.holomorphic_family(1)}

    def pass_specs(self, state, seed, pass_idx):
        rng = np.random.default_rng([seed, self.tag, pass_idx])
        specs = []
        for eps in (0, 1):
            for delta in (0, 1):
                for _ in range(self.per_case):
                    specs.append({"eps": eps, "delta": delta,
                                  "coef": [_unit_complex(rng)
                                           for _ in range(4)]})
        return [specs[i] for i in rng.permutation(len(specs))]

    @staticmethod
    def label(spec):
        return f"eps={spec['eps']},delta={spec['delta']}"

    def run_op(self, state, spec):
        system = state["system"]
        cx, mt = system.complex, system.metric
        alpha, beta, gamma, zeta = spec["coef"]
        z = state["z"]
        w = (alpha * z + beta + spec["eps"] * gamma * np.conj(z)
             + spec["delta"] * zeta * z * z)
        phi = maps.PLMap(cx, {v: np.array([w[i].real, w[i].imag])
                                for i, v in enumerate(state["order"])})
        rep = morphism.phm_check(cx, mt, phi, state["flat"], state["family"],
                                 system=system)
        samples = morphism.samples_from_plmap(cx, mt, phi)
        hwc = morphism.hwc_residual(samples, state["cp1"])
        comm = morphism.commutator_form_residual(samples, state["cp1"])
        en = energy.dirichlet_energy(cx, mt, phi, state["cp1"])
        expected = spec["eps"] == 0 and spec["delta"] == 0
        check(rep.verdict is expected,
              f"verdict {rep.verdict}, expected {expected}")
        check(_finite(rep.harmonic.inf, rep.harmonic.dual_energy,
                      rep.phwc.raw, rep.via_functions.raw, hwc.raw,
                      comm.raw, en.total),
              "non-finite residual or energy")


WORKLOADS = {w.name: w for w in (Cp1Solve(), CliGeometry(), PhmVerify())}

