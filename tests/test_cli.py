import json
import re

import numpy as np
import pytest

from polyharm import fileio, meshes
from polyharm.cli import dispatch
from polyharm.errors import NonFiniteReport, UsageError
from polyharm.maps import PLMap


@pytest.fixture
def square_files(tmp_path):
    c, _ = meshes.unit_square_mesh(2)
    mesh = tmp_path / "mesh.json"
    fileio.save_mesh(c, mesh)
    ident = PLMap.from_complex_function(c, lambda p: p[0] + 1j * p[1])
    map_path = tmp_path / "map.json"
    fileio.write_report(fileio.plmap_payload(ident), map_path)
    return c, str(mesh), str(map_path), tmp_path


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_bad_complex_exits_2(tmp_path, capsys):
    mesh = tmp_path / "bad.json"
    json.dump({"dimension": 2,
               "vertices": [[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]],
               "simplices": [[0, 1, 2], [0, 3, 4]]}, open(mesh, "w"))
    code, out, _ = run(capsys, "validate", str(mesh))
    assert code == 2
    report = json.loads(out)
    assert report["witnesses"] == [[0]]
    assert not report["admissible"]


def test_validate_good_complex_exits_0(square_files, capsys):
    _, mesh, _, _ = square_files
    code, out, _ = run(capsys, "validate", mesh)
    assert code == 0
    assert json.loads(out)["admissible"]


def test_check_phwc_identity(square_files, capsys):
    _, mesh, map_path, _ = square_files
    code, out, _ = run(capsys, "check", "--mode", "phwc", mesh, map_path)
    assert code == 0
    assert json.loads(out)["phwc"]["inf"] == 0.0


def test_check_phwc_false_verdict(square_files, capsys):
    c, mesh, _, tmp = square_files
    bad = PLMap.from_complex_function(c, lambda p: p[0] + 2j * p[1])
    bad_path = tmp / "bad_map.json"
    fileio.write_report(fileio.plmap_payload(bad), bad_path)
    code, out, _ = run(capsys, "check", "--mode", "phwc", mesh, str(bad_path))
    assert code == 2


def test_distance_subcommand(square_files, capsys):
    _, mesh, _, _ = square_files
    code, out, _ = run(capsys, "distance", mesh, "--from", "v:0",
                       "--to", "v:8", "--level", "4")
    assert code == 0
    d = json.loads(out)["upper_bound"]
    assert abs(d - np.sqrt(2.0)) < 2e-2


def test_energy_subcommand(square_files, capsys):
    _, mesh, map_path, _ = square_files
    code, out, _ = run(capsys, "energy", mesh, map_path)
    assert code == 0
    assert json.loads(out)["total"] == pytest.approx(2.0)


def test_solve_round_trip(square_files, capsys):
    c, mesh, _, tmp = square_files
    bv = {str(v): [float(c.vertices[v][0]), float(-c.vertices[v][1])]
          for v in c.boundary_vertices()}
    bpath = tmp / "b.json"
    json.dump(bv, open(bpath, "w"))
    sol_path = tmp / "sol.json"
    code, out, _ = run(capsys, "solve", mesh, str(bpath),
                       "--solution", str(sol_path))
    assert code == 0
    assert json.loads(out)["residual"]["inf"] <= 1e-10
    # emitted solution re-loads losslessly
    reloaded = fileio.load_plmap(sol_path, c)
    payload = json.loads(out)["solution"]
    assert payload == fileio.plmap_payload(reloaded)


def test_usage_error_exit_code(square_files, capsys):
    _, mesh, map_path, _ = square_files
    code, _, err = run(capsys, "distance", mesh, "--from", "nonsense",
                       "--to", "v:1")
    assert code == 64
    assert "address" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/mesh.json")
    assert code == 64


def test_example_eta_passes(capsys):
    code, out, _ = run(capsys, "example", "eta", "--count", "15")
    assert code == 0
    rep = json.loads(out)
    assert rep["suite"]["passed"] and rep["sum_suite"]["passed"]


def test_example_torus_factor(capsys):
    code, out, _ = run(capsys, "example", "torus-factor", "--k", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["phm_instance"]["passed"]
    assert rep["non_phm_instance"]["passed"]
    assert not rep["non_phm_instance"]["base"]["verdict"]


def test_reports_deterministic(square_files, capsys):
    _, mesh, map_path, _ = square_files
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "check", "--mode", "phm", mesh, map_path)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_config_file_and_bad_key(square_files, tmp_path, capsys):
    _, mesh, map_path, _ = square_files
    cfg = tmp_path / "cfg.json"
    json.dump({"tol_c": 1e-6}, open(cfg, "w"))
    code, _, _ = run(capsys, "--config", str(cfg), "check", "--mode",
                     "phwc", mesh, map_path)
    assert code == 0
    json.dump({"bogus": 1}, open(cfg, "w"))
    code, _, err = run(capsys, "--config", str(cfg), "validate", mesh)
    assert code == 64


def test_mesh_round_trip(tmp_path):
    c, _ = meshes.unit_square_mesh(2)
    path = tmp_path / "m.json"
    fileio.save_mesh(c, path)
    c2 = fileio.load_mesh(path)
    assert c2.top_simplices == c.top_simplices
    for v in c.vertices:
        assert np.allclose(c2.vertices[v], c.vertices[v])


def test_metric_file_round_trip(tmp_path):
    c, m = meshes.unit_square_mesh(2, jitter=0.2, seed=1)
    path = tmp_path / "g.json"
    fileio.write_report(fileio.metric_payload(m), path)
    m2 = fileio.load_metric(path, c)
    for a, b in zip(m.stack, m2.stack):
        assert np.allclose(a, b, atol=0, rtol=0)


def test_metric_file_smooth_mode_rejected(tmp_path):
    c, _ = meshes.unit_right_triangle()
    path = tmp_path / "g.json"
    json.dump({"mode": "smooth", "per_simplex": [[1, 0, 0, 1]]},
              open(path, "w"))
    with pytest.raises(UsageError):
        fileio.load_metric(path, c)


def test_user_polynomial_family_file(square_files, tmp_path, capsys):
    _, mesh, map_path, _ = square_files
    fam = tmp_path / "fns.json"
    json.dump([{"n": 1, "exponents": [[3]], "coefficients": [[1.0, 0.0]],
                "name": "cubic"}], open(fam, "w"))
    code, out, _ = run(capsys, "check", "--mode", "phm", mesh, map_path,
                       "--functions", str(fam))
    assert code == 0
    assert json.loads(out)["phm"]["verdict"]


def test_check_factor_reads_functions(square_files, tmp_path, capsys):
    _, mesh, map_path, _ = square_files
    code, out, _ = run(capsys, "check", "--mode", "factor", mesh, map_path)
    plain = json.loads(out)["factorization"]
    fam = tmp_path / "fns.json"
    json.dump([{"n": 1, "exponents": [[3]], "coefficients": [[1.0, 0.0]],
                "name": "cubic"}], open(fam, "w"))
    code_f, out_f, _ = run(capsys, "check", "--mode", "factor", mesh,
                           map_path, "--functions", str(fam))
    assert code_f == code == 0
    with_cubic = json.loads(out_f)["factorization"]
    # the via-functions residual is a max over the family: the added cubic
    # can only raise it, and on the identity map it does
    for side in ("base", "total"):
        got = with_cubic[side]["via_functions"]
        want = plain[side]["via_functions"]
        assert all(a >= b for a, b in zip(got["per_sample"],
                                           want["per_sample"]))
        assert got["inf"] > want["inf"]
    code, out, err = run(capsys, "check", "--mode", "factor", mesh, map_path,
                         "--functions", str(tmp_path / "missing.json"))
    assert code == 64
    assert out == ""
    assert "file not found" in err


def test_user_polynomial_file_malformed(tmp_path):
    bad = tmp_path / "f.json"
    json.dump([{"n": 1, "exponents": [[1]], "coefficients": []}],
              open(bad, "w"))
    with pytest.raises(UsageError):
        fileio.load_function_family(bad)


def test_pullback_csv_table(square_files, tmp_path, capsys):
    _, mesh, map_path, _ = square_files
    csv_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "check", "--mode", "pullback", mesh, map_path,
                       "--levels", "2", "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("level,")
    assert len(lines) == 3  # header + 2 levels


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_json_is_usage_error(square_files, capsys, literal):
    c, mesh, map_path, tmp = square_files
    bad_map = tmp / "nan_map.json"
    rows = ["[0.0, 0.0]"] * len(c.vertices)
    rows[0] = f"[{literal}, 0.0]"
    bad_map.write_text('{"values": [%s]}' % ", ".join(rows))
    code, _, err = run(capsys, "energy", mesh, str(bad_map))
    assert code == 64
    assert "nan_map.json" in err
    cfg = tmp / "cfg.json"
    cfg.write_text('{"damping": %s}' % literal)
    code, _, err = run(capsys, "--config", str(cfg), "validate", mesh)
    assert code == 64
    assert "cfg.json" in err


@pytest.mark.parametrize("values", [{"0": [0.0, 0.0]}, [[0.0, 0.0], [1.0]],
                                    [0.0, 1.0], [["x", 0.0]]])
def test_malformed_map_values_is_usage_error(square_files, capsys, values):
    c, mesh, _, tmp = square_files
    bad_map = tmp / "bad_values.json"
    if isinstance(values, list):
        values = values + [[0.0, 0.0]] * (len(c.vertices) - len(values))
    json.dump({"values": values}, open(bad_map, "w"))
    code, _, err = run(capsys, "energy", mesh, str(bad_map))
    assert code == 64
    assert "equal-length rows" in err


def test_nonconvergence_prints_residual_history(square_files, capsys):
    c, mesh, _, tmp = square_files
    bv = {str(v): [0.5 * np.cos(7 * c.vertices[v][0]),
                   0.5 * np.sin(5 * c.vertices[v][1])]
          for v in c.boundary_vertices()}
    bpath = tmp / "b.json"
    json.dump(bv, open(bpath, "w"))
    cfg = tmp / "cfg.json"
    json.dump({"max_iter": 2, "tol_h": 1e-300}, open(cfg, "w"))
    code, out, err = run(capsys, "--config", str(cfg), "solve", mesh,
                         str(bpath), "--target", "cp1")
    assert code == 1
    assert out == ""
    assert "NonConvergence" in err
    tail = re.search(r"residual history: 2 iterations, last \[(.*)\]", err)
    assert tail is not None
    assert len([float(h) for h in tail.group(1).split(",")]) == 2


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("case", [
    "validate_directory", "config_list", "boundary_list", "map_list",
    "metric_list", "mesh_number", "config_tol_c_string",
    "config_max_iter_string", "config_max_iter_float", "config_seed_bool",
    "config_max_iter_zero"])
def test_bad_input_file_is_usage_error(square_files, capsys, case):
    c, mesh, map_path, tmp = square_files
    bv = {str(v): [0.0, 0.0] for v in c.boundary_vertices()}
    boundary = _write(tmp / "b.json", json.dumps(bv))
    config = {"config_tol_c_string": '{"tol_c": "x"}',
              "config_max_iter_string": '{"max_iter": "abc"}',
              "config_max_iter_float": '{"max_iter": 2.5}',
              "config_seed_bool": '{"seed": true}',
              "config_max_iter_zero": '{"max_iter": 0}',
              "config_list": "[1, 2]"}
    if case == "validate_directory":
        argv = ["validate", str(tmp)]
    elif case in config:
        cfg = _write(tmp / "cfg.json", config[case])
        argv = ["--config", cfg, "solve", mesh, boundary, "--target", "cp1"]
    elif case == "boundary_list":
        argv = ["solve", mesh, _write(tmp / "bl.json", "[1, 2]")]
    elif case == "map_list":
        argv = ["energy", mesh, _write(tmp / "ml.json", "[[0.0, 0.0]]")]
    elif case == "metric_list":
        argv = ["energy", mesh, map_path, "--metric",
                _write(tmp / "gl.json", "[[1, 0, 0, 1]]")]
    else:
        argv = ["validate", _write(tmp / "five.json", "5")]
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize("damping", [0, -0.5, 1.5])
def test_config_damping_outside_unit_interval_is_usage_error(
        square_files, capsys, damping):
    # damping 0 used to be accepted and then leave every iterate unchanged
    c, mesh, _, tmp = square_files
    cfg = _write(tmp / "cfg.json", json.dumps({"damping": damping}))
    code, out, err = run(capsys, "--config", cfg, "validate", mesh)
    assert code == 64
    assert out == ""
    assert "damping must be in (0, 1]" in err


@pytest.mark.parametrize("case", [
    "mesh_vertices_number", "mesh_vertices_ragged", "mesh_simplices_strings",
    "mesh_simplices_bools", "metric_per_simplex_number",
    "metric_entries_strings", "boundary_string", "boundary_ragged"])
def test_malformed_fields_are_usage_errors(square_files, capsys, case):
    c, mesh, map_path, tmp = square_files
    payload = fileio.mesh_payload(c)
    boundary = {str(v): [0.0, 0.0] for v in sorted(c.boundary_vertices())}
    metric = {"per_simplex": [[1, 0, 0, 1]] * len(c.top_simplices)}
    if case == "mesh_vertices_number":
        payload["vertices"] = 5
    elif case == "mesh_vertices_ragged":
        payload["vertices"][0] = payload["vertices"][0] + [0.0]
    elif case == "mesh_simplices_strings":
        payload["simplices"][0] = [str(v) for v in payload["simplices"][0]]
    elif case == "mesh_simplices_bools":
        # True == 1 as a vertex id; JSON booleans are not ids
        payload["simplices"][0] = [0, True, 3]
    elif case == "metric_per_simplex_number":
        metric["per_simplex"] = 5
    elif case == "metric_entries_strings":
        metric["per_simplex"][0] = ["1", "0", "0", "1"]
    elif case == "boundary_string":
        boundary[next(iter(boundary))] = "x"
    else:
        first, second = list(boundary)[:2]
        boundary[first] = [0.0, 0.0, 1.0]
        boundary[second] = [1.0]
    if case.startswith("mesh"):
        argv = ["validate", _write(tmp / "m.json", json.dumps(payload))]
    elif case.startswith("metric"):
        argv = ["energy", mesh, map_path, "--metric",
                _write(tmp / "g.json", json.dumps(metric))]
    else:
        argv = ["solve", mesh, _write(tmp / "b.json", json.dumps(boundary))]
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize("key, value", [("tol_geom", 1e-8),
                                        ("quadrature_order", 2),
                                        ("output_format", "json")])
def test_removed_config_keys_are_unknown(square_files, capsys, key, value):
    _, mesh, _, tmp = square_files
    cfg = _write(tmp / "cfg.json", json.dumps({key: value}))
    code, _, err = run(capsys, "--config", cfg, "validate", mesh)
    assert code == 64
    assert "unknown config key" in err


def test_non_finite_report_value_is_an_error(square_files, capsys):
    c, mesh, _, tmp = square_files
    rows = [[0.0, 0.0]] * len(c.vertices)
    rows[0] = [1e200, 0.0]   # finite input, infinite energy
    big = _write(tmp / "big.json", json.dumps({"values": rows}))
    with pytest.warns(RuntimeWarning, match="overflow"):
        code, out, err = run(capsys, "energy", mesh, big)
    assert code == 1
    assert out == ""
    assert "NonFiniteReport" in err


def test_write_report_refuses_nan():
    with pytest.raises(NonFiniteReport):
        fileio.write_report({"dual_energy": float("nan")})


def test_output_to_directory_is_usage_error(square_files, capsys):
    _, mesh, _, tmp = square_files
    code, _, err = run(capsys, "--output", str(tmp), "validate", mesh)
    assert code == 64
    assert "cannot write" in err
