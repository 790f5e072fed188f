"""Tests for the command-line front end: determinism, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import avgcase
from avgcase.cli import main
from avgcase.formats import read_amat, write_amat
from avgcase.graphs import read_graphv1


def _run(argv):
    return main(argv)


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generate_gnq_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = _run(["generate", "gnq", "--n", "100", "--q", "0.5",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
    assert _digest(a / "instance.graph") == _digest(b / "instance.graph")
    assert _digest(a / "trace.json") == _digest(b / "trace.json")
    G = read_graphv1(a / "instance.graph")
    assert G.n == 100


def test_generate_requires_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["generate", "gnq", "--n", "10", "--q", "0.5", "--out", str(tmp_path)])
    assert exc.value.code == 2  # argparse usage error


def test_generate_kpds_trace(tmp_path):
    rc = _run(["generate", "kpds", "--n", "40", "--k", "4", "--p", "0.9",
               "--q", "0.2", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "trace.json").read_text())
    planted = doc["planted_set"]
    assert len(planted) == 4
    # one planted vertex per contiguous part of size 10
    assert sorted(v // 10 for v in planted) == [0, 1, 2, 3]


def test_generate_isgm_and_amat_roundtrip(tmp_path):
    rc = _run(["generate", "isgm", "--n", "20", "--k", "3", "--d", "15",
               "--mu", "0.5", "--eps", "0.25", "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    X = read_amat(tmp_path / "samples.amat")
    assert X.shape == (20, 15)


def test_amat_format_errors(tmp_path):
    write_amat(tmp_path / "m.amat", np.eye(3))
    assert np.array_equal(read_amat(tmp_path / "m.amat"), np.eye(3))
    (tmp_path / "bad.amat").write_bytes(b"NOPE" + b"\x00" * 24)
    from avgcase.errors import ParameterError

    with pytest.raises(ParameterError):
        read_amat(tmp_path / "bad.amat")


def test_reduce_isgm_end_to_end(tmp_path):
    src = tmp_path / "src"
    rc = _run(["generate", "kpds", "--n", "32", "--k", "4", "--p", "1.0",
               "--q", "0.25", "--seed", "11", "--out", str(src)])
    assert rc == 0
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        rc = _run(["reduce", "isgm", "--in", str(src / "instance.graph"),
                   "--trace", str(src / "trace.json"), "--k", "4",
                   "--p", "1.0", "--q", "0.25", "--r", "2", "--w", "2",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
    for name in ("samples.amat", "trace.json", "plan.json"):
        assert _digest(out1 / name) == _digest(out2 / name)
    plan = json.loads((out1 / "plan.json").read_text())
    X = read_amat(out1 / "samples.amat")
    assert X.shape == (plan["n"], plan["d"])


def test_generate_and_reduce_isgm_never_load_scipy(tmp_path):
    # A fresh interpreter: generate kpds and reduce isgm run without scipy,
    # and without multiprocessing, which only verify's trial runner loads.
    script = f"""
import sys
from avgcase.cli import main
src, out = {str(tmp_path / "src")!r}, {str(tmp_path / "out")!r}
assert main(["generate", "kpds", "--n", "32", "--k", "4", "--p", "1.0",
             "--q", "0.25", "--seed", "11", "--out", src]) == 0
assert main(["reduce", "isgm", "--in", src + "/instance.graph", "--k", "4",
             "--p", "1.0", "--q", "0.25", "--r", "2", "--w", "2", "--seed", "5",
             "--out", out]) == 0
print("multiprocessing" in sys.modules)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    package_root = str(Path(avgcase.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-2:] == ["False", "[]"]


def test_verify_semi_cr_never_loads_scipy_stats(tmp_path):
    # A fresh interpreter: the SEMI-CR battery's one normal tail goes
    # through scipy.special, so scipy.stats (~0.4 s to load) stays out.
    script = f"""
import sys
from avgcase.cli import main
assert main(["verify", "--pipeline", "semi-cr", "--trials", "100", "--seed", "3",
             "--out", {str(tmp_path)!r}]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy.stats")))
"""
    package_root = str(Path(avgcase.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_reduce_divisibility_error_named(tmp_path, capsys):
    src = tmp_path / "src"
    _run(["generate", "gnq", "--n", "33", "--q", "0.25", "--seed", "2",
          "--out", str(src)])
    rc = _run(["reduce", "isgm", "--in", str(src / "instance.graph"),
               "--k", "4", "--p", "1.0", "--q", "0.25", "--r", "2",
               "--seed", "5", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "divide" in err


@pytest.mark.parametrize("body", [
    "n=4 edges=1\n0 1 2\n",
    "n=4 edges=1\nx y\n",
    "n=4 edges=1\n0 1.5\n",
    "n4 edges=1\n0 1\n",
    "n=-3 edges=0\n",
    "n=99999999999 edges=0\n",
    "n=4 edges=2\n0 1\n0 1\n",
    "n=4 edges=2\n0 1\n1 2 3\n",
    "n=4 edges=1\n0 4\n",
    "# no header\n",
])
def test_reduce_malformed_graph_exits_2(tmp_path, capsys, body):
    src = tmp_path / "bad.graph"
    src.write_text(body)
    rc = _run(["reduce", "isgm", "--in", str(src), "--k", "4", "--p", "1.0",
               "--q", "0.25", "--r", "2", "--seed", "5", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad.graph" in err and "Traceback" not in err


@pytest.mark.parametrize("which", ["in", "trace"])
@pytest.mark.parametrize("kind", ["missing", "directory", "json-list"])
def test_reduce_unreadable_input_exits_2(tmp_path, capsys, which, kind):
    src = tmp_path / "src"
    _run(["generate", "kpds", "--n", "32", "--k", "4", "--p", "1.0",
          "--q", "0.25", "--seed", "21", "--out", str(src)])
    bad = tmp_path / "bad.file"
    if kind == "directory":
        bad.mkdir()
    elif kind == "json-list":
        bad.write_text("[1]\n")
    paths = {"in": src / "instance.graph", "trace": src / "trace.json", which: bad}
    rc = _run(["reduce", "isgm", "--in", str(paths["in"]), "--trace", str(paths["trace"]),
               "--k", "4", "--p", "1.0", "--q", "0.25", "--r", "2",
               "--seed", "5", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and "Traceback" not in err


def test_reduce_semi_cr_end_to_end(tmp_path):
    src = tmp_path / "src"
    _run(["generate", "kpds", "--n", "32", "--k", "4", "--p", "1.0",
          "--q", "0.25", "--seed", "21", "--out", str(src)])
    out = tmp_path / "scr"
    rc = _run(["reduce", "semi-cr", "--in", str(src / "instance.graph"),
               "--trace", str(src / "trace.json"), "--k", "4", "--p", "1.0",
               "--q", "0.25", "--ell", "2", "--seed", "9", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "trace.json").read_text())
    assert len(doc["planted_set"]) == 4  # (3^(l-1) - 1) k / 2


# sha256 of `reduce semi-cr` outputs on a 400-vertex k-PDS graph.  A change
# to the random stream must change these pins and say so.
_SEMI_CR_GOLDEN = {
    "instance.graph": "ebc196c6cea3ee27ae49749dffd6f75e805ce3fd1b2d0e08c447eb66a4230c7e",
    "trace.json": "11556b4bd7c80ff10475b9a2d0ba27c69c06bab2b5ffee808888e301bfb8daad",
}


def test_reduce_semi_cr_golden_digests(tmp_path):
    src = tmp_path / "src"
    _run(["generate", "kpds", "--n", "400", "--k", "8", "--p", "1", "--q", "0.25",
          "--seed", "21", "--out", str(src)])
    out = tmp_path / "scr"
    assert _run(["reduce", "semi-cr", "--in", str(src / "instance.graph"),
                 "--trace", str(src / "trace.json"), "--k", "8", "--p", "1",
                 "--q", "0.25", "--ell", "2", "--seed", "9", "--out", str(out)]) == 0
    assert {name: _digest(out / name) for name in _SEMI_CR_GOLDEN} == _SEMI_CR_GOLDEN


# sha256 of `reduce isgm` (400-vertex graph) and `reduce glsm` (84-vertex
# graph, the GLSM plan's source size at n=64, k=4) outputs.  plan.json is not
# pinned: it reports the plan's fields, not the random stream.
_ISGM_GOLDEN = {
    "samples.amat": "a7b523b08a60be3705135359fc7da338d4618fd33bde8c945bc5b6f63dd67ff4",
    "trace.json": "0970428e62c6e73174c61ac7455c48475d789afa75f9c71c38e0a5a0695d280b",
}
_GLSM_GOLDEN = {
    "samples.amat": "ddd95fcc87f445c35e9e9e6a8a73371d32cfaa645377d05ea1ee622a3733b5cc",
    "trace.json": "790c74522ee6ceb8c52a064be1773884cf4c013301a72639fe4a07b82bc37b3b",
}


@pytest.mark.parametrize("pipeline, n_src, k, args, golden", [
    ("isgm", 400, 8, ["--r", "2", "--w", "4"], _ISGM_GOLDEN),
    ("glsm", 84, 4, ["--n", "64", "--d", "256"], _GLSM_GOLDEN),
])
def test_reduce_golden_digests(tmp_path, pipeline, n_src, k, args, golden):
    src = tmp_path / "src"
    _run(["generate", "kpds", "--n", str(n_src), "--k", str(k), "--p", "1", "--q", "0.25",
          "--seed", "21", "--out", str(src)])
    out = tmp_path / pipeline
    assert _run(["reduce", pipeline, "--in", str(src / "instance.graph"),
                 "--trace", str(src / "trace.json"), "--k", str(k), "--p", "1",
                 "--q", "0.25", *args, "--seed", "9", "--out", str(out)]) == 0
    assert {name: _digest(out / name) for name in golden} == golden


def test_verify_cli_pass_and_fault(tmp_path):
    rc = _run(["verify", "--pipeline", "isgm",
               "--params", '{"N": 32, "k": 4, "p": 1.0, "q": 0.25}',
               "--trials", "1", "--alpha", "1e-4", "--seed", "5",
               "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "pass"
    rc = _run(["verify", "--pipeline", "isgm",
               "--params", '{"N": 32, "k": 4, "p": 1.0, "q": 0.25}',
               "--trials", "1", "--alpha", "1e-4", "--seed", "5",
               "--fault", "rotation", "--out", str(tmp_path / "f")])
    assert rc == 1  # verification failure exit code


def test_verify_underpowered_inconclusive(tmp_path):
    rc = _run(["verify", "--pipeline", "isgm",
               "--params", '{"N": 32, "k": 4, "p": 1.0, "q": 0.25}',
               "--trials", "10", "--alpha", "1e-4", "--seed", "5",
               "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    statuses = {t["name"]: t["status"] for t in report["tests"]}
    assert statuses["h1_component_count_law"] == "inconclusive"


@pytest.mark.parametrize("seed", ["1", "2"])
def test_verify_semi_cr_short_diagonal_draw_exits_2(tmp_path, capsys, seed):
    # At N=32, k=4, p=0.75 the planted-diagonal draw of some part asks for
    # more rows than lie outside the embedding.
    rc = _run(["verify", "--pipeline", "semi-cr", "--params", '{"p": 0.75}',
               "--seed", seed, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "s2 - s1" in err and "Traceback" not in err


_SRC = ["--k", "4", "--p", "1.0", "--q", "0.25", "--seed", "5"]


@pytest.mark.parametrize("argv, says", [
    (["reduce", "semi-cr", "--in", "{graph}", *_SRC, "--ell", "0"], "ell"),
    (["reduce", "isgm", "--in", "{graph}", *_SRC, "--r", "2", "--w", "nan"], "w must"),
    (["verify", "--pipeline", "semi-cr", "--params", '{"ell": 0}'], "ell"),
    (["verify", "--pipeline", "isgm", "--params", "[1]"], "JSON object"),
    (["verify", "--pipeline", "isgm", "--params", '{"bogus": 3}'], "allowed"),
    (["verify", "--pipeline", "isgm", "--params", "{not json"], "valid JSON"),
    (["verify", "--pipeline", "semi-cr", "--params", '{"N": 32.5}'], "integer"),
    (["verify", "--pipeline", "glsm", "--params", '{"d": 100}'], "m <= d"),
    (["generate", "gnq", "--n", "-3", "--q", "0.5", "--seed", "1"], "n >= 0"),
    (["energy", "--n", "6", "--k", "3", "--degree", "1", "--signal", "pds:abc"], "p in [0, 1]"),
    (["energy", "--n", "6", "--k", "3", "--degree", "1", "--signal", "pds:nan"], "p in [0, 1]"),
    (["energy", "--n", "6", "--k", "3", "--degree", "1", "--signal", "pds:2"], "p in [0, 1]"),
    (["verify", "--pipeline", "semi-cr", "--trials", "-5"], "--trials"),
    (["verify", "--pipeline", "isgm", "--trials", "0"], "--trials"),
    (["verify", "--pipeline", "semi-cr", "--alpha", "2"], "alpha"),
    (["verify", "--pipeline", "semi-cr", "--alpha", "0"], "alpha"),
    (["verify", "--pipeline", "semi-cr", "--alpha", "nan"], "alpha"),
    (["verify", "--pipeline", "semi-cr", "--fault", "rotation"], "only isgm"),
    (["verify", "--pipeline", "glsm", "--fault", "rotation"], "only isgm"),
    (["energy", "--n", "6", "--k", "3", "--degree", "-1"], "degree D"),
    (["generate", "isgm", "--n", "10", "--k", "2", "--d", "5", "--mu", "nan",
      "--eps", "0.5", "--seed", "1"], "mu must be finite"),
    (["generate", "isgm", "--n", "10", "--k", "2", "--d", "5", "--mu", "inf",
      "--eps", "0.5", "--seed", "1"], "mu must be finite"),
    (["reduce", "isgm", "--in", "{graph}", *_SRC, "--eps", "0"], "eps must lie in (0, 1)"),
    (["reduce", "isgm", "--in", "{graph}", *_SRC, "--eps", "nan"], "eps must lie in (0, 1)"),
    (["reduce", "isgm", "--in", "{graph}", *_SRC, "--eps", "-1"], "eps must lie in (0, 1)"),
    (["reduce", "isgm", "--in", "{graph}", *_SRC, "--eps", "2"], "eps must lie in (0, 1)"),
    (["reduce", "isgm", "--in", "{graph}", *_SRC, "--r", "2", "--n", "-3"], "n must be a positive"),
    (["reduce", "isgm", "--in", "{graph}", *_SRC, "--r", "2", "--n", "0"], "n must be a positive"),
    (["reduce", "isgm", "--in", "{graph}", *_SRC, "--r", "2", "--d", "-5"], "d must be a positive"),
    (["verify", "--pipeline", "isgm", "--params", '{"N": -4}'], "N must be a positive"),
    (["verify", "--pipeline", "isgm", "--params", '{"k": 0}'], "k must be a positive"),
    (["verify", "--pipeline", "semi-cr", "--params", '{"N": -4}'], "N must be a positive"),
    (["verify", "--pipeline", "semi-cr", "--params", '{"k": 0}'], "k must be a positive"),
    (["verify", "--pipeline", "glsm", "--params", '{"n": 0}'], "n must be a positive"),
    (["verify", "--pipeline", "glsm", "--params", '{"n": 1}'], "n >= 2"),
    (["verify", "--pipeline", "glsm", "--params", '{"k": 0}'], "k must be a positive"),
    (["verify", "--pipeline", "glsm", "--params", '{"k": -2}'], "k must be a positive"),
    (["verify", "--pipeline", "glsm", "--params", '{"theta": -1}'], "theta must be"),
    (["reduce", "glsm", "--in", "{graph}", *_SRC, "--n", "64", "--d", "256",
      "--theta", "nan"], "theta must be"),
    (["reduce", "glsm", "--in", "{graph}", *_SRC, "--n", "64", "--d", "256",
      "--theta", "inf"], "theta must be"),
    (["reduce", "glsm", "--in", "{graph}", *_SRC, "--n", "64", "--d", "256",
      "--theta", "-1"], "theta must be"),
    (["generate", "isgm", "--n", "-1", "--k", "2", "--d", "5", "--mu", "0.5",
      "--eps", "0.5", "--seed", "1"], "n >= 1"),
    (["generate", "tg", "--variant", "h1", "--n", "10", "--m", "5", "--mu1", "0.1",
      "--k", "2", "--k2", "-1", "--mu2", "0.1", "--mu3", "0.1", "--seed", "1"], "k, k2 >= 0"),
    (["reduce", "glsm", "--in", "{graph}", *_SRC, "--n", "64", "--d", "256",
      "--w", "1e308"], "below 2^62"),
    (["reduce", "isgm", "--in", "{graph}", *_SRC, "--eps", "1e-9", "--w", "4"],
     "too large for one array"),
    (["reduce", "isgm", "--in", "{graph}", *_SRC, "--eps", "1e-4", "--w", "4"],
     "physical memory"),
    # the k-partite promise: k parts of N/k vertices each
    (["generate", "kpds", "--n", "10", "--k", "3", "--p", "1", "--q", "0.25", "--seed", "1"],
     "must divide"),
    (["generate", "kpds", "--n", "10", "--k", "0", "--p", "1", "--q", "0.25", "--seed", "1"],
     "must divide"),
    (["generate", "kpds", "--n", "-4", "--k", "4", "--p", "1", "--q", "0.25", "--seed", "1"],
     "must divide"),
    (["generate", "kpds", "--n", "0", "--k", "1", "--p", "1", "--q", "0.25", "--seed", "1"],
     "must divide"),
    (["reduce", "isgm", "--in", "{graph}", "--k", "3", "--p", "1.0", "--q", "0.25",
      "--seed", "5", "--r", "2"], "must divide"),
    (["reduce", "semi-cr", "--in", "{graph}", "--k", "3", "--p", "1.0", "--q", "0.25",
      "--seed", "5", "--ell", "2"], "must divide"),
    (["verify", "--pipeline", "isgm", "--params", '{"N": 30}'], "must divide"),
    (["energy", "--n", "7", "--k", "3", "--degree", "1"], "must divide"),
    (["energy", "--n", "0", "--k", "1", "--degree", "1"], "must divide"),
    # the 32-vertex graph under a GLSM plan whose source size is 84
    (["reduce", "glsm", "--in", "{graph}", *_SRC, "--n", "64", "--d", "256"], "N=84"),
])
def test_invalid_input_exits_2(tmp_path, capsys, argv, says):
    src = tmp_path / "src"
    _run(["generate", "kpds", "--n", "32", "--k", "4", "--p", "1.0",
          "--q", "0.25", "--seed", "21", "--out", str(src)])
    capsys.readouterr()
    argv = [a.replace("{graph}", str(src / "instance.graph")) for a in argv]
    out = [] if argv[0] == "energy" else ["--out", str(tmp_path / "o")]
    rc = _run(argv + out)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and says in err and "Traceback" not in err


def test_bench_tracer_sees_the_pipeline_layers(tmp_path):
    # bench/tracer.py (run by `bench/run.py --trace 1`) wraps these functions
    # by name, so renaming one breaks the benchmark's per-layer metrics.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    src = tmp_path / "src"
    commands = {
        "generate": ["generate", "kpds", "--n", "32", "--k", "4", "--p", "1", "--q", "0.25",
                     "--seed", "3", "--out", str(src)],
        "reduce": ["reduce", "isgm", "--in", str(src / "instance.graph"),
                   "--trace", str(src / "trace.json"), "--k", "4", "--p", "1",
                   "--q", "0.25", "--r", "2", "--seed", "4", "--out", str(tmp_path / "isgm")],
    }
    seen = set()
    for name, argv in commands.items():
        spans = tmp_path / f"{name}.json"
        run = subprocess.run([sys.executable, str(root / "bench" / "tracer.py"), str(spans),
                              "--", *argv], env=env, capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        seen |= set(json.loads(spans.read_text())["summary"])
    assert {"graphs.sample_k_pds", "pipelines.to_k_partite_submatrix",
            "pipelines.pds_to_isgm", "kernels.gaussianize"} <= seen


def test_internal_error_exits_3(monkeypatch, capsys):
    # A fault in the program is neither a parameter error (2) nor a failed
    # battery (1).
    from avgcase import cli

    def boom(args):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(cli, "_cmd_energy", boom)
    assert _run(["energy", "--n", "6", "--k", "3", "--degree", "1"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: kaboom\n"


def test_energy_cli(capsys):
    assert _run(["energy", "--n", "6", "--k", "3", "--degree", "0"]) == 0
    assert "= 0" in capsys.readouterr().out
    assert _run(["energy", "--n", "6", "--k", "3", "--degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "1.125" in out
    assert _run(["energy", "--n", "8", "--k", "4", "--degree", "2",
                 "--signal", "pds:0.5"]) == 0
    assert "= 0" in capsys.readouterr().out


def test_energy_guard_exit_code(capsys):
    rc = _run(["energy", "--n", "40", "--k", "4", "--degree", "6"])
    assert rc == 2


def test_env_out_dir_default(tmp_path, monkeypatch):
    monkeypatch.setenv("AVGCASE_OUT_DIR", str(tmp_path / "envout"))
    rc = _run(["generate", "gnq", "--n", "12", "--q", "0.5", "--seed", "4"])
    assert rc == 0
    assert (tmp_path / "envout" / "instance.graph").exists()


def test_help_mentions_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["generate", "kpds", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--n", "--k", "--p", "--q", "--seed", "--out"):
        assert flag in out
