"""Tests for the command-line front end: determinism, formats, exit codes."""

import hashlib
import json

import numpy as np
import pytest

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


def test_verify_cli_pass_and_fault(tmp_path):
    rc = _run(["verify", "--pipeline", "isgm",
               "--params", '{"N": 32, "k": 4, "p": 1.0, "q": 0.25}',
               "--trials", "0", "--alpha", "1e-4", "--seed", "5",
               "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "pass"
    rc = _run(["verify", "--pipeline", "isgm",
               "--params", '{"N": 32, "k": 4, "p": 1.0, "q": 0.25}',
               "--trials", "0", "--alpha", "1e-4", "--seed", "5",
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
])
def test_invalid_input_exits_2(tmp_path, capsys, argv, says):
    src = tmp_path / "src"
    _run(["generate", "kpds", "--n", "32", "--k", "4", "--p", "1.0",
          "--q", "0.25", "--seed", "21", "--out", str(src)])
    capsys.readouterr()
    argv = [a.replace("{graph}", str(src / "instance.graph")) for a in argv]
    rc = _run(argv + ["--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and says in err and "Traceback" not in err


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


def test_amat_csv_export(tmp_path):
    from avgcase.formats import amat_to_csv

    m = np.array([[1.5, -2.0], [0.25, 9.0]])
    write_amat(tmp_path / "m.amat", m)
    amat_to_csv(tmp_path / "m.amat", tmp_path / "m.csv")
    back = np.loadtxt(tmp_path / "m.csv", delimiter=",")
    assert np.array_equal(back, m)
