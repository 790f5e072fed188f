"""Tests for the command-line front end: determinism, formats, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avgcase
from avgcase import prob
from avgcase.cli import main
from avgcase.errors import ParameterError
from avgcase.formats import _read_amat, write_amat
from avgcase.graphs import read_graphv1
from avgcase.pipelines import plan_isgm, plan_semi_cr


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
    X = _read_amat(tmp_path / "samples.amat")
    assert X.shape == (20, 15)


def test_amat_format_errors(tmp_path):
    write_amat(tmp_path / "m.amat", np.eye(3))
    raw = (tmp_path / "m.amat").read_bytes()
    assert np.array_equal(_read_amat(tmp_path / "m.amat"), np.eye(3))
    (tmp_path / "bad.amat").write_bytes(b"NOPE" + b"\x00" * 24)
    with pytest.raises(ParameterError):
        _read_amat(tmp_path / "bad.amat")
    # a header sized past the file, and a file longer than its header says
    for rows in (2 ** 40, 2 ** 62):
        (tmp_path / "bad.amat").write_bytes(raw[:8] + rows.to_bytes(8, "little") + raw[16:])
        with pytest.raises(ParameterError, match="payload bytes"):
            _read_amat(tmp_path / "bad.amat")
    (tmp_path / "bad.amat").write_bytes(raw + bytes(16))
    with pytest.raises(ParameterError, match="holds 88"):
        _read_amat(tmp_path / "bad.amat")


_AMAT_FIELDS = {"magic": (0, 4), "version": (4, 4), "rows": (8, 8), "cols": (16, 8),
                "dtype": (24, 4)}


@given(st.integers(1, 6), st.integers(1, 6),
       st.sampled_from(["truncate", "extend", *_AMAT_FIELDS]), st.data())
@settings(max_examples=150, deadline=None)
def test_amat_mutations_rejected_or_exact(tmp_path_factory, rows, cols, mutation, data):
    # AMATv1 has no checksum, so only the header and the length are mutated;
    # one field at a time, so rows * cols changes whenever the shape does.
    X = np.arange(rows * cols, dtype=float).reshape(rows, cols)
    path = tmp_path_factory.mktemp("m") / "m.amat"
    write_amat(path, X)
    raw = bytearray(path.read_bytes())
    if mutation == "truncate":
        del raw[-data.draw(st.integers(1, len(raw))):]
    elif mutation == "extend":
        raw += bytes(data.draw(st.integers(1, 64)))
    else:
        offset, width = _AMAT_FIELDS[mutation]
        value = data.draw(st.integers(0, 2 ** (8 * width) - 1))
        raw[offset:offset + width] = value.to_bytes(width, "little")
    path.write_bytes(bytes(raw))
    try:
        back = _read_amat(path)
    except ParameterError:
        return
    assert back.shape == X.shape and np.array_equal(back, X)


def test_write_amat_makes_no_copy(tmp_path):
    # An 8 MB matrix is written from its own buffer: the traced allocations
    # stay below 1 MB, and the payload is the matrix's bytes.
    X = np.arange(2 ** 20, dtype=float).reshape(1024, 1024)
    tracemalloc.start()
    try:
        write_amat(tmp_path / "m.amat", X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert (tmp_path / "m.amat").read_bytes()[28:] == X.tobytes()


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
    X = _read_amat(out1 / "samples.amat")
    assert X.shape == (plan["n"], plan["d"])


def _fresh_python(*args):
    """Run ``python *args`` in a fresh interpreter that imports this
    package's tree; assert it exits 0 and return its standard output."""
    package_root = str(Path(avgcase.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


_SCIPY_MODULES = 'print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))'


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
{_SCIPY_MODULES}
"""
    assert _fresh_python("-c", script).splitlines()[-2:] == ["False", "[]"]


def test_reduce_semi_cr_and_glsm_never_load_scipy(tmp_path):
    # A fresh interpreter: the normal CDF behind the SEMI-CR mus and the
    # GLSM truncation parameters is the package's own, so scipy stays out.
    script = f"""
import sys
from avgcase.cli import main
src = {str(tmp_path)!r}
assert main(["generate", "kpds", "--n", "32", "--k", "4", "--p", "1.0",
             "--q", "0.25", "--seed", "11", "--out", src + "/g32"]) == 0
assert main(["reduce", "semi-cr", "--in", src + "/g32/instance.graph", "--k", "4",
             "--p", "1.0", "--q", "0.25", "--ell", "2", "--seed", "5",
             "--out", src + "/semi-cr"]) == 0
assert main(["generate", "kpds", "--n", "40", "--k", "4", "--p", "1.0",
             "--q", "0.25", "--seed", "11", "--out", src + "/g40"]) == 0
assert main(["reduce", "glsm", "--in", src + "/g40/instance.graph", "--k", "4",
             "--p", "1.0", "--q", "0.25", "--n", "32", "--d", "128", "--seed", "5",
             "--out", src + "/glsm"]) == 0
{_SCIPY_MODULES}
"""
    assert _fresh_python("-c", script).splitlines()[-1] == "[]"


def test_verify_semi_cr_never_loads_scipy_stats(tmp_path):
    # A fresh interpreter: the SEMI-CR battery's one normal tail is the
    # package's own normal CDF, so neither scipy.stats (~0.4 s to load) nor
    # any other scipy module loads.
    script = f"""
import sys
from avgcase.cli import main
assert main(["verify", "--pipeline", "semi-cr", "--trials", "100", "--seed", "3",
             "--out", {str(tmp_path)!r}]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy.stats")))
{_SCIPY_MODULES}
"""
    assert _fresh_python("-c", script).splitlines()[-2:] == ["[]", "[]"]


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
    "n=10000000 edges=0\n",  # its n(n-1)/2 pairs are 364 TiB as float64
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


@pytest.mark.parametrize("pipeline", [["isgm", "--r", "2"], ["semi-cr", "--ell", "2"]],
                         ids=["isgm", "semi-cr"])
@pytest.mark.parametrize("edit, says", [
    (lambda S: S + [99999, -7], "outside [0, 32): [99999, -7]"),  # in no part
    (lambda S: [S[0] + 0.7] + S[1:], "list of integers"),  # would be truncated to S[0]
    (lambda S: [2 ** 70] + S[1:], "too large"),  # no int64 holds it
], ids=["outside", "float", "huge"])
def test_reduce_refuses_a_trace_it_cannot_hold(tmp_path, capsys, pipeline, edit, says):
    # A planted vertex outside [0, N) falls in no part, and one that is not
    # a JSON integer would name another vertex: both are refused, with exit
    # 2, an error line and no --out, where they used to be dropped or
    # truncated silently.
    src = tmp_path / "src"
    _run(["generate", "kpds", "--n", "32", "--k", "4", "--p", "1.0",
          "--q", "0.25", "--seed", "21", "--out", str(src)])
    doc = json.loads((src / "trace.json").read_text())
    doc["planted_set"] = edit(doc["planted_set"])
    (src / "trace.json").write_text(json.dumps(doc))
    out = tmp_path / "o"
    capsys.readouterr()
    rc = _run(["reduce", *pipeline, "--in", str(src / "instance.graph"),
               "--trace", str(src / "trace.json"), "--k", "4", "--p", "1.0",
               "--q", "0.25", "--seed", "5", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and says in err and "Traceback" not in err
    assert not out.exists()


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
# to the random stream must change these pins and say so; plan.json pins the
# planned values.
_SEMI_CR_GOLDEN = {
    "instance.graph": "ed1d3a0b16260bd665382a8cf18509e3a9aefea09a18563cb5be5f285223237e",
    "trace.json": "ad0d11be117b82652618a96a749eb4b7a17bb213b986b979f3bf9edb79031318",
    "plan.json": "cdd9c552483e3b4531f5ded6af0128f37be16111157de7cbaa3baca6abd3cc98",
}


@pytest.mark.pinned
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
# graph, the GLSM plan's source size at n=64, k=4) outputs.  plan.json pins
# every planned value and the regime report, not the random stream.
_ISGM_GOLDEN = {
    "samples.amat": "b9c0114101d7298cc13f3b4374c59a94f042ed030571f03770c9e1b20f607d05",
    "trace.json": "e68562bec39d1f66726209e0868c5ee507daf236ef6a60a12e08593a62fce1e9",
    "plan.json": "d1ab25aad0c413b96c79f0369f2ce212bb8e470a6f4b86d1f5e85f47fcba48ab",
}
# At r = 3, r^t = 243 does not divide the kernel's 2^18-entry block, so a
# block is the whole rows that fit in it.
_ISGM_R3_GOLDEN = {
    "samples.amat": "58efa00f1561958e140e4cb9d78abcf0e59b2bc9534900a3cee88a3182311f56",
    "trace.json": "3b9524cff38541766bb27886ecdab0d0c6abb14cbcbd0149eb07880963c5e25f",
    "plan.json": "cfe76ae69a7c2c2daa5fef6f58c57e468cff4c337165b99e007b7cb3f7b6c990",
}
_GLSM_GOLDEN = {
    "samples.amat": "2cd6d486ea164743c63e2cb8e9530b3177c14c8e1bd43377e23bd920b0276aed",
    "trace.json": "72633af7bf2fb09b8fbf25f0a46b39e0e6af055261e2c94bbf8bf3e9744c5a65",
    "plan.json": "86c5e30f4bea433e28757749f8c963f8b8183de5499dcf59430974ffb742e214",
}


@pytest.mark.pinned
@pytest.mark.parametrize("pipeline, n_src, k, args, golden", [
    ("isgm", 400, 8, ["--r", "2", "--w", "4"], _ISGM_GOLDEN),
    ("glsm", 84, 4, ["--n", "64", "--d", "256"], _GLSM_GOLDEN),
    ("isgm", 400, 8, ["--r", "3", "--w", "4"], _ISGM_R3_GOLDEN),
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


# sha256 of `generate tg` outputs at n = 800, whose 319,600 pairs span two
# bands of the adversary's uniforms.  The graph is the planted graph (h1) or
# G(n, 1/2) (h0) thinned by the class-rate adversary.
_TG_GOLDEN = {
    "h1": (["--k", "8", "--k2", "24", "--mu2", "0.05", "--mu3", "0.1"], {
        "instance.graph": "34d76fe4acb14f740b21c3a3a0a6b73066b295139aa09237fb2a55ac1755ec69",
        "trace.json": "40319203421c7a9f41584869f3b1aa2f6e4c85c8e2ace00341ba70d054cb75a8",
    }),
    "h0": ([], {
        "instance.graph": "7624bade28dde0e7387e3a7796a2e7bcf9e4d519b91dce5eb7eb9204439d87ae",
        "trace.json": "7a458923a9f4ac1c56fbe91e05e4406fcdd50f3e9668c59a1c640fcd52443399",
    }),
}


@pytest.mark.pinned
@pytest.mark.parametrize("variant", sorted(_TG_GOLDEN))
def test_generate_tg_golden_digests(tmp_path, variant):
    args, golden = _TG_GOLDEN[variant]
    assert _run(["generate", "tg", "--variant", variant, "--n", "800", "--m", "400",
                 "--mu1", "0.02", *args, "--seed", "3", "--out", str(tmp_path)]) == 0
    assert {name: _digest(tmp_path / name) for name in golden} == golden


# sha256 of `verify` report.json at --seed 5: the batteries' statistics and
# p-values, and so every exact law a test compares against.
_VERIFY_GOLDEN = {
    "isgm": (["--params", '{"N": 32, "k": 4, "p": 1.0, "q": 0.25}', "--trials", "200"],
             "540d187ad71521a1eb89f8b3bf6cfae5975eb42131ab4b3a361f63b6542c9aaf"),
    "semi-cr": (["--trials", "100"],
                "1931d09b72fe31b1701846b33e5c39dace325bba841f41f93d093e842491355f"),
    "glsm": (["--trials", "1"],
             "9a9975f7420030407a64940d96bd6ee0bddb9efe98709659c1253390d1be0239"),
}


@pytest.mark.pinned
@pytest.mark.parametrize("pipeline", sorted(_VERIFY_GOLDEN))
def test_verify_report_golden_digests(tmp_path, pipeline):
    args, golden = _VERIFY_GOLDEN[pipeline]
    assert _run(["verify", "--pipeline", pipeline, *args, "--seed", "5",
                 "--out", str(tmp_path)]) == 0
    assert _digest(tmp_path / "report.json") == golden


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
    planted = {t["name"]: t for t in report["tests"] if t["name"].startswith("h1")}
    assert set(planted) == {"h1_component_count_law", "h1_planted_means"}
    for t in planted.values():
        assert t["status"] == "inconclusive"
        assert t["reason"] == "trials=10 < min_trials=200"
    # conclusive entries carry no reason
    assert all("reason" not in t for t in report["tests"] if t["name"].startswith("h0"))


@pytest.mark.parametrize("seed", ["1", "2"])
def test_verify_semi_cr_short_diagonal_draw_exits_2(tmp_path, capsys, seed):
    # At N=32, k=4, p=0.75 a trial's planted-diagonal draw asks for more
    # rows than lie outside the embedding with probability 1.57e-3.  Over
    # 20000 trials none does with probability about 2e-14, and the runner
    # stops at the first that does, about 635 trials in.
    rc = _run(["verify", "--pipeline", "semi-cr", "--params", '{"p": 0.75}',
               "--trials", "20000", "--seed", seed, "--out", str(tmp_path)])
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
    (["reduce", "isgm", "--in", "{graph}", *_SRC], "needs eps or r"),
    # n(n-1)/2 pairs as float64 are 364 TiB
    (["generate", "gnq", "--n", "10000000", "--q", "0.5", "--seed", "1"], "physical memory"),
    # refused by the planners: w n = 400 > k l = 124, and n below m/2 = 64
    (["reduce", "isgm", "--in", "{graph}", *_SRC, "--r", "2", "--w", "4", "--n", "100"],
     "lower --w or --n"),
    (["reduce", "semi-cr", "--in", "{graph}", *_SRC, "--ell", "2", "--n-out", "10"],
     "n >= m/2"),
    # Phi(tau) - Phi(-tau) rounds to 1 and to 0: no three-point law to target
    (["reduce", "glsm", "--in", "{graph}", *_SRC, "--n", "64", "--d", "256", "--tau", "40"],
     "tau=40.0"),
    (["reduce", "glsm", "--in", "{graph}", *_SRC, "--n", "64", "--d", "256",
      "--tau", "1e-300"], "tau=1e-300"),
    # h1's knobs given to h0, which would ignore them
    (["generate", "tg", "--variant", "h0", "--n", "10", "--m", "5", "--mu1", "0.1",
      "--k", "3", "--mu2", "0.2", "--seed", "1"], "tg h0 takes no --k --mu2"),
    (["generate", "tg", "--variant", "h0", "--n", "10", "--m", "5", "--mu1", "0.1",
      "--k2", "1", "--mu3", "0.2", "--seed", "1"], "tg h0 takes no --k2 --mu3"),
    # past the exact energy's bounds, D <= 64 and n <= 10^18
    (["energy", "--n", "40", "--k", "4", "--degree", "65"], "degree D must lie in [0, 64]"),
    (["energy", "--n", "1000000000000000004", "--k", "4", "--degree", "2"], "above"),
    # the pair vector of n = 10^7 vertices, as bool, is 45 TiB
    (["generate", "tg", "--variant", "h1", "--n", "10000000", "--m", "5", "--mu1", "0.1",
      "--k", "2", "--k2", "1", "--mu2", "0.1", "--mu3", "0.1", "--seed", "1"], "physical memory"),
    (["generate", "tg", "--variant", "h0", "--n", "10000000", "--m", "5", "--mu1", "0.1",
      "--seed", "1"], "physical memory"),
    # 10^16 float64 samples are 71 PiB
    (["generate", "isgm", "--n", "100000000", "--d", "100000000", "--k", "2", "--mu", "0.5",
      "--eps", "0.5", "--seed", "1"], "physical memory"),
    # eps = 0.3 picks r = 5: a --r beside it is refused, not left to win silently
    (["reduce", "isgm", "--in", "{graph}", *_SRC, "--eps", "0.3", "--r", "2"],
     "eps or r, not both"),
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
    assert not (tmp_path / "o").exists()


def test_reduce_isgm_admits_what_it_holds(tmp_path, capsys, monkeypatch):
    # ISGM holds the float64 samples and the uint8 parts, and one float64
    # block per worker, never an m x r^t part as float64 (at k = 4 and
    # w = 4 such a part would be the largest array): a host with room for
    # the samples and the parts but not for that part runs the plan, and
    # one without room for them refuses the plan with exit 2.
    src = tmp_path / "src"
    _run(["generate", "kpds", "--n", "32", "--k", "4", "--p", "1.0", "--q", "0.25",
          "--seed", "21", "--out", str(src)])
    plan = plan_isgm(1.0, 0.25, 4.0, r=2, N=32, k=4)
    need = max(8 * plan.n * plan.d, plan.m * plan.k * plan.rt)
    old = max(need, 8 * plan.m * plan.rt)
    assert need < old
    argv = ["reduce", "isgm", "--in", str(src / "instance.graph"), *_SRC, "--r", "2",
            "--w", "4"]
    for limit, rc in [((need + old) // 2, 0), (need - 1, 2)]:
        monkeypatch.setattr(prob, "_physical_memory", lambda limit=limit: limit)
        capsys.readouterr()
        assert _run(argv + ["--out", str(tmp_path / str(limit))]) == rc
    assert "physical memory" in capsys.readouterr().err


def test_reduce_semi_cr_admits_what_it_holds(tmp_path, capsys, monkeypatch):
    # SEMI-CR holds its m x m matrix as uint8 and the n (n - 1) / 2 output
    # pairs as bool, and never a float64 array of its blocks J <= I
    # (m (m + 3^ell - 1) / 2 entries): a host with room for the first two but
    # not for the third runs the plan, and one without room for them refuses
    # it with exit 2.
    src = tmp_path / "src"
    _run(["generate", "kpds", "--n", "32", "--k", "4", "--p", "1.0", "--q", "0.25",
          "--seed", "21", "--out", str(src)])
    plan = plan_semi_cr(1.0, 0.25, N=32, k=4, ell=2)
    old = 8 * plan.m * (plan.m + 8) // 2
    need = max(plan.m ** 2, plan.n * (plan.n - 1) // 2)
    assert need < old
    argv = ["reduce", "semi-cr", "--in", str(src / "instance.graph"), *_SRC, "--ell", "2"]
    for limit, rc in [((need + old) // 2, 0), (need - 1, 2)]:
        monkeypatch.setattr(prob, "_physical_memory", lambda limit=limit: limit)
        capsys.readouterr()
        assert _run(argv + ["--out", str(tmp_path / str(limit))]) == rc
    assert "k-partite matrix" in capsys.readouterr().err


def test_bench_tracer_sees_the_pipeline_layers(tmp_path):
    # bench/tracer.py (run by `bench/run.py --trace 1`) wraps these functions
    # by name, so renaming one breaks the benchmark's per-layer metrics.
    root = Path(__file__).resolve().parents[1]
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
        _fresh_python(str(root / "bench" / "tracer.py"), str(spans), "--", *argv)
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


def test_battery_fault_exits_3(tmp_path, monkeypatch, capsys):
    # A statistical test handed inputs it cannot take is a fault in the
    # battery, not a parameter error.
    from avgcase import verify

    def reduce(setup, results, alpha):
        verify.chi2_test([1.0, 2.0], [1.0, 2.0, 3.0])

    monkeypatch.setattr(verify._CONTRACTS["semi-cr"], "reduce", reduce)
    assert _run(["verify", "--pipeline", "semi-cr", "--trials", "100",
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: ValueError: counts and expected must have matching shapes\n"


def test_energy_cli(capsys):
    assert _run(["energy", "--n", "6", "--k", "3", "--degree", "0"]) == 0
    assert "= 0 (k-partite), 0 (unconstrained)" in capsys.readouterr().out
    assert _run(["energy", "--n", "6", "--k", "3", "--degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "1.125" in out
    assert _run(["energy", "--n", "8", "--k", "4", "--degree", "2",
                 "--signal", "pds:0.5"]) == 0
    assert "= 0" in capsys.readouterr().out
    # sizes far past any enumeration of edge sets
    assert _run(["energy", "--n", "40", "--k", "4", "--degree", "6"]) == 0
    assert "= 0.0801 (k-partite), 0.0530802057118 (unconstrained)" in capsys.readouterr().out
    assert _run(["energy", "--n", "10000", "--k", "100", "--degree", "8"]) == 0
    assert "= 138.177141383 (k-partite), 107.913448728 (unconstrained)" in capsys.readouterr().out


def test_env_out_dir_default(tmp_path, monkeypatch):
    monkeypatch.setenv("AVGCASE_OUT_DIR", str(tmp_path / "envout"))
    rc = _run(["generate", "gnq", "--n", "12", "--q", "0.5", "--seed", "4"])
    assert rc == 0
    assert (tmp_path / "envout" / "instance.graph").exists()


def test_reduce_option_sets(capsys):
    # Every flag of each reduce subcommand, written out: adding or dropping
    # one edits this list.
    expected = {
        "isgm": {"--in", "--trace", "--k", "--p", "--q", "--eps", "--r", "--w", "--n", "--d",
                 "--seed", "--out"},
        "semi-cr": {"--in", "--trace", "--k", "--p", "--q", "--ell", "--n-out", "--seed",
                    "--out"},
        "glsm": {"--in", "--trace", "--k", "--p", "--q", "--n", "--d", "--tau", "--theta",
                 "--w", "--seed", "--out"},
    }
    for pipeline, options in expected.items():
        with pytest.raises(SystemExit) as exc:
            _run(["reduce", pipeline, "--help"])
        assert exc.value.code == 0
        found = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert found - {"--help"} == options, pipeline


def test_help_mentions_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["generate", "kpds", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--n", "--k", "--p", "--q", "--seed", "--out"):
        assert flag in out
