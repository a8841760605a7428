"""polyharm benchmark: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload cp1_solve --seed 1 --seconds 25 --trace 0

Run from the repository root; polyharm is imported from ``src/``.  With
``--trace 0`` one untimed warm-up op runs, then the workload's ops run in
a closed loop, in whole passes, up to the pass boundary nearest
``--seconds``, and its set-up is timed ``SETUP_REPS`` times, spread evenly
over the loop (setup_s is their median); the end-to-end metrics come from
this run.  Every op and set-up is timed between two runs of a fixed probe
that calls no polyharm code, and its wall time is divided by how much
slower than nominal the probes ran (see ``probe``), so that the end-to-end
times are nominal seconds; the raw wall-clock values are printed and
recorded beside them.  With ``--trace 1``
the same untraced loop runs first, then the tracer is installed and one
set-up plus one pass run traced; the per-layer metrics are totals over
that traced set-up and pass, and the tracing overhead compares the traced
pass with the untraced run's first pass, the same ops.  Every op's output
is checked.

The metric names and units of the result line are read from
``BENCHMARK.json`` at the repository root.  Human-readable lines go to
stdout, then one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record (context, every
op, the layer table and, when traced, every span) is written once, at the
end, to ``bench/out/<workload>-seed<n>-trace<t>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
PROBE_ITERS = 3000
PROBE_S = 0.016       # the probe's time on an uncontended core of the
                      # 2-vCPU Xeon VM the bounds were set on
TAIL_BEYOND = 10      # op_tail_s needs 2 * TAIL_BEYOND ops

# the per-layer metrics of the layer map in README.md that only some
# workloads exercise, so they are not in BENCHMARK.json (whose per-layer
# metrics every workload defines); printed, and written to the record,
# where the workload exercises them
EXTRA_LAYERS = (
    "riemannian.intrinsic_distance.self_s",
    "riemannian.intrinsic_distance.graph_edges",
    "maps.compose_gradients.calls",
    "target.christoffel.calls",
    "target.metric_at.calls",
    "energy.dirichlet_energy.self_s",
    "harmonic.solve_harmonic_map.self_s",
    "harmonic.christoffel_load.self_s",
    "harmonic.christoffel_load.calls",
    "harmonic.picard_iters_mean",
    "harmonic.picard_iters_max",
    "harmonic.residual_increase_frac",
    "harmonic.solve_harmonic_function.self_s",
    "morphism.samples_from_plmap.self_s",
    "morphism.phwc_residual.self_s",
    "morphism.phwc_via_functions.self_s",
    "morphism.hwc_residual.self_s",
    "morphism.commutator_form_residual.self_s",
    "morphism.phm_check.self_s",
    "morphism.pullback_harmonicity_suite.self_s",
    "meshes.refine.self_s",
    "fileio.load_mesh.self_s",
    "fileio.write_report.self_s",
    "cli.dispatch.self_s",
    "simplicial.check_admissible.t_exponent",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------

def git_commit(root):
    """Commit id read from ``.git`` without running git; None outside a
    repository (benchmark checkouts are not repositories)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def context():
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(ROOT),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def load_spec():
    """BENCHMARK.json's metrics as (end-to-end names, per-layer name ->
    unit)."""
    spec = json.loads(SPEC.read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def probe():
    """Seconds of a fixed piece of work that calls no polyharm code: small
    numpy calls from a Python loop, the kind of work polyharm's per-simplex
    code does.

    The host is shared: the speed it runs this process at swings by up to
    1.9x between states that last from seconds to minutes, and it slows
    this probe by about the same factor as the ops.  So each op and set-up
    is divided by ``host_factor`` of the probes around it (README.md, "Host
    speed").  ``acc`` keeps each call's result in use.
    """
    import numpy as np
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    acc = 0.0
    t = time.perf_counter()
    for i in range(PROBE_ITERS):
        acc += float(np.linalg.det(a @ a.T + i))
    return time.perf_counter() - t


def host_factor(before, after):
    """How many times slower than nominal the host ran a step, from the
    probes taken just before and just after it."""
    return (before + after) / (2 * PROBE_S)


def nominal(record):
    """An op record's time in nominal seconds."""
    return record["seconds"] / record["host"]


class SetupSampler:
    """SETUP_REPS timed set-ups: one before the loop, whose state the ops
    use, and the others at i * seconds / SETUP_REPS of loop time.  The
    host's speed drifts over a run, so set-ups taken back to back would
    see one moment of it where the ops see the whole run."""

    def __init__(self, workload, inputs, seconds):
        self.workload, self.inputs, self.seconds = workload, inputs, seconds
        self.times, self.hosts = [], []
        self.state = self.take()

    def take(self):
        before = probe()
        seconds, state = self.workload.timed_setup(self.inputs)
        self.times.append(seconds)
        self.hosts.append(host_factor(before, probe()))
        return state

    def __call__(self, elapsed):
        """Called before each op with the loop seconds so far; True when
        it took a set-up."""
        if (len(self.times) < SETUP_REPS
                and elapsed >= len(self.times) * self.seconds / SETUP_REPS):
            self.take()
            return True
        return False

    def finish(self):
        """Take the set-ups the loop ended before reaching; returns the
        median set-up in nominal seconds."""
        while len(self.times) < SETUP_REPS:
            self.take()
        return statistics.median(t / h for t, h in zip(self.times,
                                                        self.hosts))


def run_loop(workload, state, seed, seconds, tracer=None, passes=None,
             between=None):
    """Closed loop over whole passes; returns (op records, loop seconds).

    Stops after ``passes`` passes when given, otherwise at the pass
    boundary nearest ``seconds``: once one more pass, as long as the mean
    pass so far, would end further past ``seconds`` than the loop now falls
    short of it.  ``between``, when given, is called before each op with
    the loop seconds so far; its own time is left out of the loop's, and so
    is the probe's before and after each op.
    """
    records = []
    before = probe()
    start = time.perf_counter()
    paused = 0.0
    p = 0
    while True:
        for spec in workload.pass_specs(state, seed, p):
            if between is not None:
                t = time.perf_counter()
                if between(t - start - paused):
                    before = probe()
                paused += time.perf_counter() - t
            if tracer is not None:
                tracer.op_id = len(records)
            t = time.perf_counter()
            note = workload.attempt(state, spec)
            op_s = time.perf_counter() - t
            after = probe()
            paused += time.perf_counter() - t - op_s
            records.append({"pass": p, "op": workload.label(spec),
                            "seconds": op_s,
                            "host": host_factor(before, after),
                            "failure": note})
            before = after
        p += 1
        elapsed = time.perf_counter() - start - paused
        if passes is not None:
            if p >= passes:
                break
        elif elapsed + elapsed / p / 2 >= seconds:
            break
    if tracer is not None:
        tracer.op_id = None
    return records, elapsed


def traced_pass(workload, inputs, seed):
    """One set-up and pass 0 of the loop with the tracer installed;
    returns the tracer and the pass's op records."""
    tr = Tracer()
    with tr:
        state = workload.setup(inputs)
        records, _ = run_loop(workload, state, seed, 0, tracer=tr, passes=1)
    return tr, records


def tail(times):
    """Highest percentile with TAIL_BEYOND ops above it, as (value,
    percentile), or (None, None) below 2 * TAIL_BEYOND ops."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return None, None
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def pass_median(records, seconds):
    """Median over passes of each pass's median op time.  Every pass is
    the same mix; the median of a whole run can fall in the gap between
    two kinds of op and jump across it with the noise of either."""
    by_pass = {}
    for r in records:
        by_pass.setdefault(r["pass"], []).append(seconds(r))
    return statistics.median(statistics.median(v) for v in by_pass.values())


def end_to_end(records, setup_s, setup_raw_s):
    """The end-to-end metrics in nominal seconds, each with its raw
    wall-clock value."""
    times = [nominal(r) for r in records]
    raw = [r["seconds"] for r in records]
    ok = sum(r["failure"] is None for r in records)
    tail_s, tail_pct = tail(times)
    return {
        "setup_s": {"value": setup_s, "unit": "s", "raw": setup_raw_s},
        "ops_per_s": {"value": ok / sum(times), "unit": "1/s",
                      "raw": ok / sum(raw)},
        "op_p50_s": {"value": pass_median(records, nominal), "unit": "s",
                     "raw": pass_median(records, lambda r: r["seconds"])},
        "op_tail_s": {"value": tail_s, "unit": "s", "raw": tail(raw)[0],
                      "percentile": tail_pct, "ops": len(times)},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB"},
    }


def layer_values(tr):
    """Every per-layer number the traced run defines, by metric name (a
    layer the run never entered has none), and the full layer table."""
    table = tr.layer_table()
    values = {f"{layer}.{field}": v
              for layer, row in table.items() for field, v in row.items()}
    if tr.nnz:
        values["harmonic.S_nnz"] = sum(tr.nnz)
    if tr.graph_edges:
        values["riemannian.intrinsic_distance.graph_edges"] = \
            sum(tr.graph_edges)
    values.update(tr.picard_stats())
    exponent = tr.admissible_exponent()
    if exponent is not None:
        values["simplicial.check_admissible.t_exponent"] = exponent
    return values, table


def result_layers(values, units):
    """The result line's per-layer metrics; raises KeyError when one was
    not exercised, rather than report a layer that never ran as 0."""
    missing = [name for name in units if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics not exercised: {missing}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def print_summary(name, seed, records, e2e, traced):
    """Readable lines: failures, fail_frac with its counts, the end-to-end
    metrics and, for a traced run, the overhead and every layer metric."""
    attempted = len(records)
    failed = sum(r["failure"] is not None for r in records)
    for r in records:
        if r["failure"] is not None:
            print(f"FAILED pass {r['pass']} {r['op']}: {r['failure']}")
    print(f"workload {name} seed {seed}: fail_frac {failed / attempted:.4g} "
          f"({failed} failed of {attempted} attempted)")
    for key, m in e2e.items():
        if key == "op_tail_s":
            if m["value"] is None:
                print(f"  {key:12s} omitted: {m['ops']} ops, fewer than "
                      f"{2 * TAIL_BEYOND}")
                continue
            note = f"  (p{m['percentile']:.4g} of {m['ops']} ops)"
        else:
            note = ""
        if "raw" in m:
            note = f"  (wall clock {m['raw']:.6g} {m['unit']}){note}"
        print(f"  {key:12s} {m['value']:.6g} {m['unit']}{note}")
    if traced is None:
        return
    overhead, result, extra = traced
    print(f"  tracing overhead {overhead:.4f} (1 - traced ops_per_s / "
          f"untraced ops_per_s, over the same pass-0 ops)")
    for key, m in result.items():
        print(f"  {key:45s} {m['value']:.6g} {m['unit']}")
    for key in EXTRA_LAYERS:
        val = extra.get(key)
        if val is not None:
            print(f"  {key:45s} {val:.6g}")
        elif key.endswith(".t_exponent"):
            print(f"  {key:45s} undefined: one mesh size on this workload")
        else:
            print(f"  {key:45s} not exercised on this workload")


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "polyharm" / "__init__.py").is_file():
        print(f"bench: polyharm sources not found under {SRC}",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:          # before numpy is first imported
        os.environ[var] = "1"
    if not SPEC.is_file():
        print(f"bench: {SPEC.name} not found in {ROOT}", file=sys.stderr)
        return 2
    e2e_names, layer_units = load_spec()
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 64

    OUT.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "context": context()}
    print("context " + json.dumps(record["context"], sort_keys=True))
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        inputs = workload.prepare(args.seed, work)
        setups = SetupSampler(workload, inputs, args.seconds)
        # one untimed op first, so that the loop starts warm; it is checked
        # and counted like the others, but left out of every timing
        first = workload.pass_specs(setups.state, args.seed, 0)[0]
        warmup = {"pass": "warm-up", "op": workload.label(first),
                  "seconds": None, "host": None,
                  "failure": workload.attempt(setups.state, first)}
        records, elapsed = run_loop(workload, setups.state, args.seed,
                                    args.seconds, between=setups)
        e2e = end_to_end(records, setups.finish(),
                         statistics.median(setups.times))
        record.update(setup_all_s=setups.times, setup_hosts=setups.hosts,
                      loop_s=elapsed, ops=records, warmup=warmup,
                      end_to_end=e2e)
        records = [warmup] + records
        if args.trace:
            tr, traced = traced_pass(workload, inputs, args.seed)
            # same ops on both sides: n / traced_s over n / untraced_s
            untraced_s = sum(nominal(r) for r in records if r["pass"] == 0)
            overhead = 1.0 - untraced_s / sum(nominal(r) for r in traced)
            values, table = layer_values(tr)
            result = result_layers(values, layer_units)
            extra = {k: values[k] for k in EXTRA_LAYERS if k in values}
            record.update(traced_ops=traced, trace_overhead_frac=overhead,
                          per_layer=result, per_layer_extra=extra,
                          layer_table=table, spans=tr.spans_payload())
            records = records + traced

    failed = sum(r["failure"] is not None for r in records)
    record.update(attempted=len(records), failed=failed)
    print_summary(workload.name, args.seed, records, e2e,
                  (overhead, result, extra) if args.trace else None)
    if args.trace:
        metrics = result
    else:
        metrics = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]}
                   for k in e2e_names}

    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
