import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from planarcc import load_model
from planarcc.cli import main

RUN = [sys.executable, "-m", "planarcc.cli"]
SRC = Path(__file__).resolve().parent.parent / "src"


def cli(*args, **env):
    # The child finds planarcc under src/ whether or not PYTHONPATH is set.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )


def test_gen_solve_oracle_roundtrip(tmp_path):
    model_path = tmp_path / "model.json"
    trace = tmp_path / "trace.csv"
    summary = tmp_path / "summary.csv"
    r = cli("gen-grid", "--rows", "3", "--cols", "4", "--a", "0.8",
            "--seed", "5", "-o", str(model_path))
    assert r.returncode == 0, r.stderr
    model, rotations, meta = load_model(model_path)
    assert model.num_nodes == 12
    assert rotations is None  # grid models omit the embedding
    assert meta["rows"] == 3 and meta["seed"] == 5

    r = cli("solve", str(model_path), "--max-iters", "500",
            "--trace", str(trace), "--summary", str(summary))
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["certificate"] == "optimal"
    assert out["best_lower"] <= out["best_upper"]
    assert len(out["assignment"]) == 12

    r = cli("oracle", str(model_path))
    assert r.returncode == 0, r.stderr
    oracle = json.loads(r.stdout)
    assert oracle["energy"] == out["best_upper"]

    lines = trace.read_text().splitlines()
    assert lines[0] == "iter,lower_bound,upper_bound,best_upper,step_size,subgrad_norm2,elapsed_ms"
    srows = summary.read_text().splitlines()
    assert srows[0] == "rows,cols,a,seed,converged,iters,gap,wall_ms,error"
    assert srows[1].startswith("3,4,0.8,5,true,")


def test_solve_trace_byte_identical(tmp_path):
    model_path = tmp_path / "m.json"
    cli("gen-grid", "--rows", "4", "--cols", "4", "--a", "0.2",
        "--seed", "9", "-o", str(model_path))
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert cli("solve", str(model_path), "--trace", str(t1)).returncode == 0
    assert cli("solve", str(model_path), "--trace", str(t2)).returncode == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_oracle_refuses_large_models(tmp_path):
    model_path = tmp_path / "big.json"
    cli("gen-grid", "--rows", "5", "--cols", "5", "--a", "1.0",
        "--seed", "1", "-o", str(model_path))
    r = cli("oracle", str(model_path))
    assert r.returncode != 0
    assert "24" in r.stderr


def test_solve_model_with_embedding_section(tmp_path):
    doc = {
        "num_nodes": 3,
        "edges": [[0, 1, -400], [1, 2, 300], [0, 2, 250]],
        "unary": [100, -200, 0],
        "embedding": {"rotations": [[1, 2], [2, 0], [0, 1]]},
    }
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(doc))
    r = cli("solve", str(path))
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    oracle = json.loads(cli("oracle", str(path)).stdout)
    assert out["best_upper"] == oracle["energy"]


def test_solve_requires_embedding_for_non_grids(tmp_path):
    doc = {
        "num_nodes": 3,
        "edges": [[0, 1, 1], [1, 2, 1], [0, 2, 1]],
        "unary": [0, 0, 0],
    }
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(doc))
    r = cli("solve", str(path))
    assert r.returncode == 2
    assert "embedding" in r.stderr


def test_batch_command(tmp_path):
    spec = {
        "specs": [
            {"rows": 3, "cols": 3, "a": 3.2, "seed": s} for s in range(3)
        ],
        "options": {"max_iters": 300, "tol": 1.0},
    }
    spec_path = tmp_path / "batch.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "results.csv"
    agg = tmp_path / "agg.csv"
    r = cli("batch", "--spec", str(spec_path), "--out", str(out),
            "--jobs", "2", "--aggregate-out", str(agg))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "rows,cols,a,seed,converged,iters,gap,wall_ms,error"
    assert len(lines) == 4
    agg_row = json.loads(r.stdout.splitlines()[0])
    assert agg_row["n_runs"] == 3
    assert agg.read_text().startswith("rows,cols,a,scale,n_runs")


def test_main_entry_direct(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    assert main(["gen-grid", "--rows", "2", "--cols", "2", "--a", "0.0",
                 "--seed", "3", "-o", str(model_path)]) == 0
    assert main(["solve", str(model_path), "--max-iters", "50"]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["certificate"] == "optimal"


def test_gen_grid_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen-grid", "--rows", "5", "--cols", "4", "--a", "1.7",
            "--seed", "123", "--scale", "500"]
    assert cli(*args, "-o", str(p1)).returncode == 0
    assert cli(*args, "-o", str(p2)).returncode == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_single_node_grid(tmp_path):
    model_path = tmp_path / "one.json"
    r = cli("gen-grid", "--rows", "1", "--cols", "1", "--a", "2.0",
            "--seed", "8", "-o", str(model_path))
    assert r.returncode == 0, r.stderr
    r = cli("solve", str(model_path))
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    oracle = json.loads(cli("oracle", str(model_path)).stdout)
    assert out["best_upper"] == oracle["energy"]
    assert out["certificate"] == "optimal"


def test_missing_file_errors(tmp_path):
    r = cli("solve", "/nonexistent/model.json")
    assert r.returncode == 2
    r = cli("oracle", str(tmp_path))
    assert r.returncode == 2 and r.stderr.startswith("error: [Errno")


@pytest.mark.parametrize("command,text,says", [
    ("solve", '{"num_nodes": 2,', "JSONDecodeError: "),
    ("solve", '{"edges": []}', "KeyError: 'num_nodes'"),
    ("oracle", '{"num_nodes": 2, "edges": [[0, 1, "x"]]}', "ValueError: expected a number, got 'x'"),
    ("oracle", '{"num_nodes": 2, "edges": [[1, 1, 3]]}', "ValueError: self-loop at node 1"),
    ("batch", "specs:", "JSONDecodeError: "),
    ("batch", '{"options": {}}', "KeyError: 'specs'"),
    ("batch", '{"specs": 5}', "TypeError: "),
])
def test_malformed_input_file_is_an_error(tmp_path, capsys, command, text, says):
    path, out = tmp_path / "input.json", tmp_path / "results.csv"
    path.write_text(text)
    if command == "batch":
        assert main(["batch", "--spec", str(path), "--out", str(out)]) == 2
    else:
        assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {says}") and err.count("\n") == 1
    assert not out.exists()


def test_solve_reports_the_engine_that_ran(tmp_path):
    import planarcc.matching

    model_path = tmp_path / "m.json"
    assert cli("gen-grid", "--rows", "2", "--cols", "2", "--a", "0.5",
               "--seed", "3", "-o", str(model_path)).returncode == 0
    r = cli("solve", str(model_path))
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["engine"] == planarcc.matching.DEFAULT_ENGINE
    assert out.get("compiled_unavailable") == planarcc.matching.COMPILED_UNAVAILABLE

    r = cli("solve", str(model_path), PLANARCC_NO_EXT="1")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["engine"] == "python"
    assert out["compiled_unavailable"] == "PLANARCC_NO_EXT is set"


@pytest.mark.parametrize("section,key,value,says", [
    ("options", "max_iter", 10, "'max_iter'"),
    ("options", "engine", "python", "'engine'"),
    ("specs", "sead", 1, "'sead'"),
    ("specs", "seed", None, "'seed'"),
    ("specs", "rows", 0, "grid dimensions must be >= 1"),
    ("options", "matching_scale", 0, "matching_scale must be >= 1"),
])
def test_batch_rejects_a_bad_key(tmp_path, capsys, section, key, value, says):
    doc = {"specs": [{"rows": 2, "cols": 2, "a": 0.5, "seed": 0}], "options": {"max_iters": 5}}
    entry = doc["options"] if section == "options" else doc["specs"][0]
    if value is None:
        del entry[key]
    else:
        entry[key] = value
    spec_path = tmp_path / "batch.json"
    spec_path.write_text(json.dumps(doc))
    out = tmp_path / "results.csv"
    assert main(["batch", "--spec", str(spec_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: batch {section}: ") and says in err
    assert not out.exists()


@pytest.mark.parametrize("option,value,says", [
    ("--rows", "0", "grid dimensions must be >= 1"),
    ("--scale", "0", "scale must be >= 1"),
    ("--a", "-1", "unary magnitude a must be >= 0"),
])
def test_gen_grid_rejects_a_bad_option_value(tmp_path, capsys, option, value, says):
    args = {"--rows": "2", "--cols": "2", "--a": "0.5", "--seed": "1", option: value}
    out = tmp_path / "m.json"
    argv = ["gen-grid", *(x for kv in args.items() for x in kv), "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: gen-grid: {says}\n"
    assert not out.exists()


def test_solve_rejects_a_bad_matching_scale(tmp_path, capsys):
    model_path, trace = tmp_path / "m.json", tmp_path / "trace.csv"
    assert main(["gen-grid", "--rows", "2", "--cols", "2", "--a", "0.5",
                 "--seed", "1", "-o", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["solve", str(model_path), "--matching-scale", "0", "--trace", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: solve: matching_scale must be >= 1\n"
    assert captured.out == "" and not trace.exists()
    r = cli("solve", str(model_path), "--matching-scale", "-3")
    assert r.returncode == 2
    assert r.stderr == "error: solve: matching_scale must be >= 1\n"
