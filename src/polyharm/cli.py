"""Command line front end.

Subcommands: validate, distance, energy, solve, check, example.  Exit
codes: 0 success / true verdict, 2 false verdict, 1 error (diagnostic on
stderr), 64 usage error.  Reports are JSON, deterministic for identical
inputs and seed.  A solve that does not converge also prints the length
and the last entries of its residual history.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import energy as energy_mod
from . import examples as gallery
from . import fileio, harmonic, morphism, target as target_mod
from .errors import NonConvergence, PolyharmError, UsageError
from .riemannian import (PiecewiseMetric, intrinsic_distance, point_on,
                         vertex_address)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FALSE = 2
EXIT_USAGE = 64


@dataclass
class RunConfig:
    """Tolerances, solver options and reproducibility knobs."""

    tol_c: float = 1e-8
    tol_h: float = 1e-8
    max_iter: int = 200
    damping: float = 0.7
    seed: int = 42

    def validated(self):
        for name in ("tol_c", "tol_h"):
            if getattr(self, name) <= 0:
                raise UsageError(f"{name} must be positive")
        if self.max_iter < 1:
            raise UsageError("max_iter must be at least 1")
        if not 0 < self.damping <= 1:
            raise UsageError("damping must be in (0, 1]")
        return self


def load_config(path=None) -> RunConfig:
    cfg = RunConfig()
    if path:
        for key, val in fileio.load_json(path).items():
            if not hasattr(cfg, key):
                raise UsageError(f"{path}: unknown config key {key!r}")
            kind = type(getattr(cfg, key))
            # an int is a valid float; a bool is not a number here
            if isinstance(val, bool) or not isinstance(
                    val, (kind, int) if kind is float else kind):
                raise UsageError(f"{path}: config key {key!r} must be "
                                 f"{kind.__name__}, got {val!r}")
            setattr(cfg, key, val)
    return cfg.validated()


def _target_by_name(name):
    if name is None or name.startswith("flat"):
        n = 1
        if name and ":" in name:
            try:
                n = int(name.split(":", 1)[1])
            except ValueError:
                raise UsageError(f"bad target spec {name!r}")
        return target_mod.flat_target(n)
    if name == "cp1":
        return target_mod.fubini_study_cp1()
    raise UsageError(f"unknown target {name!r} (use flat:n or cp1)")


def _metric_for(args, complex_):
    if getattr(args, "metric", None):
        return fileio.load_metric(args.metric, complex_)
    return PiecewiseMetric.from_embedding(complex_)


def _parse_address(complex_, text):
    """Addresses: "v:<vertex id>" or "s:<top idx>:<b0>,<b1>,...\"."""
    parts = text.split(":")
    try:
        if parts[0] == "v" and len(parts) == 2:
            return vertex_address(complex_, int(parts[1]))
        if parts[0] == "s" and len(parts) == 3:
            bary = tuple(float(b) for b in parts[2].split(","))
            return point_on(complex_, int(parts[1]), bary)
    except ValueError:
        pass
    raise UsageError(f"bad point address {text!r} (use v:ID or s:IDX:b0,b1,..)")


def _emit(report, args) -> None:
    text = fileio.write_report(report, getattr(args, "output", None))
    if getattr(args, "output", None) is None:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args, cfg) -> int:
    complex_ = fileio.load_mesh(args.mesh)
    from .simplicial import check_admissible
    rep = check_admissible(complex_)
    report = {
        "command": "validate",
        "dimension": complex_.n,
        "vertices": len(complex_.vertices),
        "top_simplices": len(complex_.top_simplices),
        "boundary_faces": sorted(map(list, complex_.boundary_faces)),
        "homogeneous": rep.homogeneous,
        "chainable": rep.chainable,
        "witnesses": sorted(map(list, rep.witnesses)),
        "admissible": rep.admissible,
    }
    _emit(report, args)
    return EXIT_OK if rep.admissible else EXIT_FALSE


def cmd_distance(args, cfg) -> int:
    complex_ = fileio.load_mesh(args.mesh)
    metric = _metric_for(args, complex_)
    x = _parse_address(complex_, getattr(args, "from"))
    y = _parse_address(complex_, args.to)
    est = intrinsic_distance(complex_, metric, x, y, args.level)
    _emit({
        "command": "distance",
        "upper_bound": est.upper_bound,
        "graph_nodes": est.graph_nodes,
        "graph_edges": est.graph_edges,
        "refinement_level": args.level,
    }, args)
    return EXIT_OK


def cmd_energy(args, cfg) -> int:
    complex_ = fileio.load_mesh(args.mesh)
    metric = _metric_for(args, complex_)
    plmap = fileio.load_plmap(args.map, complex_)
    tgt = _target_by_name(args.target) if args.target else None
    rep = energy_mod.dirichlet_energy(complex_, metric, plmap, tgt,
                                      normalization=args.normalization)
    report = {"command": "energy"}
    report.update(rep.as_dict())
    _emit(report, args)
    return EXIT_OK


def cmd_solve(args, cfg) -> int:
    complex_ = fileio.load_mesh(args.mesh)
    metric = _metric_for(args, complex_)
    boundary = fileio.load_boundary(args.boundary)
    tgt = _target_by_name(args.target)
    system = harmonic.assemble_stiffness(complex_, metric)
    opts = harmonic.SolveOptions(max_iter=cfg.max_iter, tol=cfg.tol_h,
                                 damping=cfg.damping)
    sol = harmonic.solve_harmonic_map(system, tgt, boundary, opts)
    res = harmonic.weak_harmonic_residual(system, tgt, sol)
    report = {
        "command": "solve",
        "solution": fileio.plmap_payload(sol),
        "residual": res.as_dict(),
    }
    _emit(report, args)
    if args.solution:
        fileio.write_report(fileio.plmap_payload(sol), args.solution)
    return EXIT_OK


def cmd_check(args, cfg) -> int:
    complex_ = fileio.load_mesh(args.mesh)
    metric = _metric_for(args, complex_)
    plmap = fileio.load_plmap(args.map, complex_)
    n = plmap.target_dim // 2
    tgt = _target_by_name(args.target) if args.target else \
        target_mod.flat_target(n)
    # phm and factor build the samples they check themselves
    samples = (None if args.mode in ("phm", "factor")
               else morphism.samples_from_plmap(complex_, metric, plmap))
    report = {"command": "check", "mode": args.mode}

    def family():
        fam = target_mod.holomorphic_family(n)
        if args.functions:
            fam = fam + fileio.load_function_family(args.functions)
        return fam

    if args.mode == "phwc":
        rep = morphism.phwc_residual(samples, tol=cfg.tol_c)
        report["phwc"] = rep.as_dict()
        verdict = rep.verdict
    elif args.mode == "hwc":
        rep = morphism.hwc_residual(samples, tgt, tol=cfg.tol_c)
        report["hwc"] = rep.as_dict()
        verdict = rep.verdict
    elif args.mode == "phm":
        rep = morphism.phm_check(complex_, metric, plmap, tgt, family(),
                                 tol_h=cfg.tol_h, tol_c=cfg.tol_c)
        report["phm"] = rep.as_dict()
        verdict = rep.verdict
    elif args.mode == "pullback":
        suite = morphism.pullback_harmonicity_suite(
            complex_, metric, plmap, family(), refinement_levels=args.levels)
        report["pullback"] = suite.as_dict()
        verdict = suite.passed
        if args.csv:
            fileio.write_csv_table(suite.residuals, args.csv)
    elif args.mode == "factor":
        cov = gallery.build_covering("torus_cover", k=args.k)
        suite = morphism.factorization_suite(cov, plmap, tgt, family())
        report["factorization"] = suite.as_dict()
        verdict = suite.passed
    else:
        raise UsageError(f"unknown check mode {args.mode!r}")

    _emit(report, args)
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_example(args, cfg) -> int:
    if args.which == "eta":
        if (args.k, args.s, args.r) == (2, 2, 1):
            eta = gallery.standard_eta()
        else:
            raise UsageError(
                "only the built-in k=2 s=2 r=1 instance is packaged; "
                "other eta maps are constructed through the API")
        pts = gallery.seeded_sample_points(eta, count=args.count,
                                           seed=cfg.seed)
        suite = gallery.eta_phwc_suite(eta, pts)
        summed = gallery.sum_map(eta, gallery.standard_eta())
        pts2 = gallery.seeded_sample_points(summed, count=args.count,
                                            seed=cfg.seed)
        suite2 = gallery.eta_phwc_suite(summed, pts2)
        report = {
            "command": "example",
            "which": "eta",
            "k": args.k, "s": args.s, "r": args.r,
            "suite": suite.as_dict(),
            "sum_suite": suite2.as_dict(),
        }
        _emit(report, args)
        return EXIT_OK if suite.passed and suite2.passed else EXIT_FALSE

    if args.which == "torus-factor":
        cov = gallery.build_covering("torus_cover", k=args.k)
        tgt = target_mod.flat_target(1)
        from .maps import PLMap
        phm_map = PLMap(cov.base_complex,
                        {v: np.array([0.25, -0.5])
                         for v in cov.base_complex.vertices})
        bad_map = PLMap(cov.base_complex,
                        {v: np.array([float(divmod(v, args.k)[0]),
                                      2.0 * divmod(v, args.k)[1]])
                         for v in cov.base_complex.vertices})
        fam = target_mod.holomorphic_family(1)
        good = morphism.factorization_suite(cov, phm_map, tgt, fam)
        bad = morphism.factorization_suite(cov, bad_map, tgt, fam)
        report = {
            "command": "example",
            "which": "torus-factor",
            "k": args.k,
            "phm_instance": good.as_dict(),
            "non_phm_instance": bad.as_dict(),
        }
        _emit(report, args)
        ok = (good.passed and bad.passed
              and good.base_report.verdict
              and not bad.base_report.verdict)
        return EXIT_OK if ok else EXIT_FALSE

    raise UsageError(f"unknown example {args.which!r}")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="polyharm",
        description="energies, harmonic maps and conformality checkers on "
                    "piecewise-Riemannian complexes")
    top.add_argument("--config", help="JSON file overriding run defaults")
    top.add_argument("--seed", type=int, help="seed override")
    top.add_argument("--output", help="write the report to this path")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="admissibility of a mesh")
    p.add_argument("mesh")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("distance", help="intrinsic distance upper bound")
    p.add_argument("mesh")
    p.add_argument("--from", required=True, help="v:ID or s:IDX:b0,b1,..")
    p.add_argument("--to", required=True)
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--metric")
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("energy", help="Dirichlet energy of a PL map")
    p.add_argument("mesh")
    p.add_argument("map")
    p.add_argument("--metric")
    p.add_argument("--target")
    p.add_argument("--normalization", default="gradient_squared",
                   choices=["gradient_squared", "ks_raw"])
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("solve", help="harmonic map with Dirichlet data")
    p.add_argument("mesh")
    p.add_argument("boundary")
    p.add_argument("--metric")
    p.add_argument("--target", default="flat:1")
    p.add_argument("--solution", help="also write the solution map here")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("check", help="HWC/PHWC/PHM checks and property suites")
    p.add_argument("mesh")
    p.add_argument("map")
    p.add_argument("--mode", required=True,
                   choices=["hwc", "phwc", "phm", "pullback", "factor"])
    p.add_argument("--metric")
    p.add_argument("--target")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--k", type=int, default=3, help="torus size for factor mode")
    p.add_argument("--functions",
                   help="JSON file with user polynomial test functions")
    p.add_argument("--csv", help="emit the pullback convergence table as CSV")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("example", help="gallery constructions")
    p.add_argument("which", choices=["eta", "torus-factor"])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--count", type=int, default=100)
    p.set_defaults(fn=cmd_example)
    return top


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.command == "example":
            args.k = args.k if args.which == "eta" else max(args.k, 3)
        return args.fn(args, cfg)
    except UsageError as exc:
        print(f"polyharm: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PolyharmError as exc:
        print(f"polyharm: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, NonConvergence):
            last = ", ".join(f"{h:.6g}" for h in exc.history[-3:])
            print(f"polyharm: residual history: {len(exc.history)} "
                  f"iterations, last [{last}]", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
