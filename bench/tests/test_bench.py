"""Tests of the benchmark itself: seeded inputs, tracer hygiene, that
tracing leaves CLI reports unchanged, and that every workload defines
every metric of BENCHMARK.json.

    python3 -m pytest -q bench/tests
"""

import importlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CLI = workloads.WORKLOADS["cli_geometry"]
SPEC = json.loads(run.SPEC.read_text())


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("name", ["cp1_solve", "phm_verify"])
def test_op_inputs_follow_the_seed(name):
    wl = workloads.WORKLOADS[name]
    # pass_specs reads no set-up state for these workloads
    text = [json.dumps(wl.pass_specs(None, s, p), default=repr)
            for s, p in ((5, 0), (5, 0), (6, 0), (5, 1))]
    assert text[0] == text[1]
    assert text[0] != text[2]
    assert text[0] != text[3]


def test_cli_input_files_follow_the_seed(tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    specs_a = CLI.prepare(11, str(dirs[0]))
    CLI.prepare(11, str(dirs[1]))
    CLI.prepare(12, str(dirs[2]))
    a, b, c = (_files(d) for d in dirs)
    assert a == b
    assert a.keys() == c.keys()
    assert all(a[name] != c[name] for name in a if name.endswith(".json")
               and name.startswith(("square", "bowtie")))
    kinds = sorted(s["kind"] for s in specs_a)
    assert kinds.count("validate") == 6 and kinds.count("distance") == 6
    assert kinds.count("solve") == 3 and kinds.count("pullback") == 1


def _attribute_snapshot():
    snap = {}
    for short in tracer_mod.TRACED_MODULES + ("examples",):
        mod = importlib.import_module(f"polyharm.{short}")
        snap.update({(short, k): v for k, v in vars(mod).items()})
    for short, cls_name, attr, _, _ in tracer_mod.METHODS:
        cls = getattr(importlib.import_module(f"polyharm.{short}"), cls_name)
        snap[(cls_name, attr)] = cls.__dict__[attr]
    return snap


def test_tracer_restores_every_wrapped_attribute():
    before = _attribute_snapshot()
    tr = Tracer()
    with tr:
        during = _attribute_snapshot()
        changed = [k for k in before if during[k] is not before[k]]
        # by-name imports are wrapped where they are looked up
        for key in [("simplicial", "check_admissible"),
                    ("harmonic", "check_admissible"),
                    ("harmonic", "simplex_volume"),
                    ("morphism", "assemble_stiffness"),
                    ("morphism", "refine"),
                    ("PiecewiseMetric", "from_embedding"),
                    ("PLMap", "differential")]:
            assert key in changed, key
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_subtract_direct_children():
    tr = Tracer()
    tr.spans = [("outer", 0.0, 10.0, -1, 0), ("mid", 1.0, 7.0, 0, 0),
                ("leaf", 2.0, 3.0, 1, 0), ("leaf", 4.0, 6.0, 1, 0)]
    assert tr.self_times() == [4.0, 3.0, 1.0, 2.0]


def test_traced_cli_op_writes_identical_report(tmp_path):
    specs = CLI.prepare(3, str(tmp_path))
    state = CLI.setup(specs)
    chosen = [s for s in specs if s["mesh"] in ("square8", "bowtie8")
              and s["kind"] != "pullback"]
    assert {s["kind"] for s in chosen} == {"validate", "solve", "distance"}
    for spec in chosen:
        assert CLI.attempt(state, spec) is None
        plain = Path(spec["report"]).read_bytes()
        tr = Tracer()
        with tr:
            assert CLI.attempt(state, spec) is None
        assert Path(spec["report"]).read_bytes() == plain, spec["kind"]
        names = {s[0] for s in tr.spans}
        assert {"cli.dispatch", "fileio.load_mesh",
                "fileio.write_report"} <= names


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_defines_every_per_layer_metric(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.prepare(1, str(tmp_path))
    tr, records = run.traced_pass(wl, inputs, 1)
    assert [r["failure"] for r in records if r["failure"]] == []
    values, _ = run.layer_values(tr)
    result = run.result_layers(values, run.load_spec()[1])
    assert list(result) == [m["name"] for m in SPEC["per_layer"]]
    zero = [k for k, m in result.items() if not m["value"] > 0]
    assert zero == []


def test_missing_layer_is_an_error():
    with pytest.raises(KeyError, match="target.christoffel.calls"):
        run.result_layers({"harmonic.S_nnz": 7},
                          {"harmonic.S_nnz": "count",
                           "target.christoffel.calls": "count"})


def test_end_to_end_units_match_benchmark_json():
    e2e = run.end_to_end([{"pass": 0, "seconds": 0.5, "host": 1.25,
                           "failure": None}], 0.25, 0.3)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {m["name"]: e2e[m["name"]]["unit"] for m in SPEC["end_to_end"]}


def test_times_are_divided_by_the_host_factor():
    records = [{"pass": 0, "seconds": 0.5, "host": 1.25, "failure": None},
               {"pass": 0, "seconds": 0.9, "host": 1.5, "failure": None}]
    e2e = run.end_to_end(records, 0.25, 0.3)
    assert e2e["op_p50_s"]["value"] == pytest.approx(0.5)
    assert e2e["op_p50_s"]["raw"] == pytest.approx(0.7)
    assert e2e["ops_per_s"]["value"] == pytest.approx(2 / 1.0)
    assert e2e["ops_per_s"]["raw"] == pytest.approx(2 / 1.4)
    assert (e2e["setup_s"]["value"], e2e["setup_s"]["raw"]) == (0.25, 0.3)
    assert run.host_factor(run.PROBE_S, 3 * run.PROBE_S) == 2.0


class _Sleeper:
    """A workload whose set-up and ops only sleep."""

    def __init__(self):
        self.setups = []

    def timed_setup(self, inputs):
        self.setups.append(time.perf_counter())
        time.sleep(0.05)
        return 0.05, "state"

    def pass_specs(self, state, seed, pass_idx):
        return [0.01] * 10

    def label(self, spec):
        return "sleep"

    def attempt(self, state, spec):
        time.sleep(spec)


def test_setups_are_spread_over_the_loop_and_left_out_of_it():
    wl = _Sleeper()
    setups = run.SetupSampler(wl, None, 0.7)
    start = time.perf_counter()
    records, elapsed = run.run_loop(wl, setups.state, 1, 0.7, between=setups)
    wall = time.perf_counter() - start
    assert setups.finish() > 0
    assert statistics.median(setups.times) == 0.05
    assert len(setups.hosts) == run.SETUP_REPS
    assert len(wl.setups) == run.SETUP_REPS
    assert wl.setups[-1] - start >= 0.7 * (run.SETUP_REPS - 1) / run.SETUP_REPS
    # the loop stops at the pass boundary nearest 0.7 s; a pass is 0.1 s
    assert 0.65 <= elapsed < wall - 0.05 * (run.SETUP_REPS - 2)


def test_loop_stops_at_the_nearest_pass_boundary():
    # 0.1 s passes: 0.3 s is nearer 0.33 s than 0.4 s is
    records, elapsed = run.run_loop(_Sleeper(), "state", 1, 0.33)
    assert len(records) == 30
    assert 0.3 <= elapsed < 0.35


def test_op_p50_is_the_median_of_pass_medians():
    # two kinds of op, 1 s and 3 s: a pass's median is 2 s, while the
    # run's median would sit on one side of the gap or the other
    times = [(0, 1.0), (0, 3.0), (1, 1.1), (1, 3.1), (2, 0.9), (2, 3.3)]
    records = [{"pass": p, "seconds": t} for p, t in times]
    assert run.pass_median(records, lambda r: r["seconds"]) == \
        pytest.approx(2.1)


def test_tail_has_ten_ops_above_it():
    assert run.tail(list(range(19))) == (None, None)
    assert run.tail(list(range(20))) == (9, 50.0)
    assert run.tail(list(range(64))) == (53, 84.375)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "cp1_solve", "--seed", "1", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
