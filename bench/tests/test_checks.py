"""The benchmark's output checks accept real outputs and reject corrupted ones.

Run from the repository root:  python -m pytest -q bench/tests
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from avgcase.cli import main as avgcase_main  # noqa: E402
from checks import CheckError  # noqa: E402

SMALL = {"N": 200, "k": 4, "p": 1.0, "q": 0.25}
SOURCE = ["--k", "4", "--p", "1", "--q", "0.25"]


@pytest.fixture(scope="module")
def graph(tmp_path_factory):
    out = tmp_path_factory.mktemp("graph")
    assert avgcase_main(["generate", "kpds", "--n", "200", *SOURCE, "--seed", "5",
                         "--out", str(out)]) == 0
    return out


def reduce(graph, out, *args):
    assert avgcase_main(["reduce", *args, *SOURCE, "--in", str(graph / "instance.graph"),
                         "--trace", str(graph / "trace.json"), "--seed", "6",
                         "--out", str(out)]) == 0
    return out


def copy(src, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


def edit_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def scale_amat(path, factor):
    data = bytearray(path.read_bytes())
    payload = np.frombuffer(data, dtype="<f8", offset=28) * factor
    data[28:] = payload.tobytes()
    path.write_bytes(bytes(data))


@pytest.fixture(scope="module")
def isgm_out(graph, tmp_path_factory):
    return reduce(graph, tmp_path_factory.mktemp("isgm"), "isgm", "--r", "2", "--w", "4")


@pytest.fixture(scope="module")
def semi_cr_out(graph, tmp_path_factory):
    return reduce(graph, tmp_path_factory.mktemp("semi"), "semi-cr", "--ell", "2")


def test_isgm_check_accepts_the_reduction_output(isgm_out):
    checks.check_isgm(isgm_out, r=2, w=4.0, **SMALL)


def test_isgm_check_rejects_samples_scaled_like_a_broken_rotation(isgm_out, tmp_path):
    out = copy(isgm_out, tmp_path)
    scale_amat(out / "samples.amat", 1.5)
    with pytest.raises(CheckError, match="variance"):
        checks.check_isgm(out, r=2, w=4.0, **SMALL)


def test_isgm_check_rejects_a_wrong_mu(isgm_out, tmp_path):
    out = copy(isgm_out, tmp_path)
    edit_json(out / "trace.json", lambda doc: doc["params"].update(mu=doc["params"]["mu"] * 2))
    with pytest.raises(CheckError, match="mu="):
        checks.check_isgm(out, r=2, w=4.0, **SMALL)


def test_semi_cr_check_accepts_the_reduction_output(semi_cr_out):
    checks.check_semi_cr(semi_cr_out, ell=2, **SMALL)


def test_semi_cr_check_rejects_a_duplicated_edge(semi_cr_out, tmp_path):
    out = copy(semi_cr_out, tmp_path)
    path = out / "instance.graph"
    head, first, rest = path.read_text().split("\n", 2)
    n, edges = (int(f.split("=")[1]) for f in head.split())
    path.write_text(f"n={n} edges={edges + 1}\n{first}\n{first}\n{rest}")
    with pytest.raises(CheckError, match="more than once"):
        checks.check_semi_cr(out, ell=2, **SMALL)


def test_semi_cr_check_rejects_a_wrong_mu(semi_cr_out, tmp_path):
    out = copy(semi_cr_out, tmp_path)
    edit_json(out / "trace.json", lambda doc: doc["params"].update(mu1=doc["params"]["mu1"] + 0.01))
    with pytest.raises(CheckError, match="mu1="):
        checks.check_semi_cr(out, ell=2, **SMALL)


def test_semi_cr_check_rejects_shifted_edge_densities(semi_cr_out, tmp_path):
    """Dropping every third edge moves each class density far from its law."""
    out = copy(semi_cr_out, tmp_path)
    path = out / "instance.graph"
    lines = path.read_text().splitlines()
    kept = [line for i, line in enumerate(lines[1:]) if i % 3]
    path.write_text(f"{lines[0].split()[0]} edges={len(kept)}\n" + "\n".join(kept) + "\n")
    with pytest.raises(CheckError, match="edge density"):
        checks.check_semi_cr(out, ell=2, **SMALL)


@pytest.mark.parametrize("body, message", [
    ("n=4 edges=2\n0 1\n0 1\n", "more than once"),
    ("n=4 edges=1\n2 1\n", "u >= v"),
    ("n=4 edges=2\n0 1\n", "declares 2 edges"),
    ("n=4 edges=1\n0 9\n", "vertex id"),
    ("n=4 edges=1\n 1\n", "empty"),
    ("n=4 edges=1\n0  1\n", "one space"),
    ("n=4 edges=1\n0 1 # note\n", "one space"),
    ("n=4 edges=1\n0 1", "not terminated"),
])
def test_graph_parser_rejects_malformed_files(tmp_path, body, message):
    path = tmp_path / "g.graph"
    path.write_text(body)
    with pytest.raises(CheckError, match=message):
        checks.parse_graphv1(path)


def test_graph_parser_reads_ids_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "_CHUNK", 7)
    edges = [(0, 1), (3, 12345), (7, 10), (99, 100)]
    path = tmp_path / "g.graph"
    path.write_text("n=20000 edges=4\n" + "".join(f"{u} {v}\n" for u, v in edges))
    n, got = checks.parse_graphv1(path)
    assert n == 20000 and got.tolist() == [list(e) for e in edges]


def write_glsm(out, X, nu):
    out.mkdir()
    (out / "samples.amat").write_bytes(
        b"AMAT" + np.array([1], "<u4").tobytes() + np.array(X.shape, "<u8").tobytes()
        + np.array([1], "<u4").tobytes() + X.astype("<f8").tobytes())
    (out / "trace.json").write_text(json.dumps({"params": {"nu": list(nu)}}))
    return out


def test_glsm_check_accepts_standard_normal_samples(tmp_path):
    gen = np.random.default_rng(0)
    out = write_glsm(tmp_path / "ok", gen.standard_normal((64, 256)), gen.uniform(-1, 1, 64))
    checks.check_glsm(out, n=64, d=256)


def test_glsm_check_rejects_scaled_samples_and_out_of_range_nu(tmp_path):
    gen = np.random.default_rng(0)
    X, nu = gen.standard_normal((64, 256)), gen.uniform(-1, 1, 64)
    scaled = write_glsm(tmp_path / "scaled", 1.5 * X, nu)
    with pytest.raises(CheckError, match="variance"):
        checks.check_glsm(scaled, n=64, d=256)
    checks.check_glsm(scaled, n=64, d=256, output_law=False)
    nu[3] = 1.5
    with pytest.raises(CheckError, match="nu"):
        checks.check_glsm(write_glsm(tmp_path / "nu", X, nu), n=64, d=256)
    with pytest.raises(CheckError, match="samples are"):
        checks.check_glsm(scaled, n=64, d=128)


def test_amat_reader_rejects_a_truncated_payload(tmp_path):
    out = write_glsm(tmp_path / "t", np.zeros((4, 4)), [0.0] * 4)
    path = out / "samples.amat"
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CheckError, match="payload size"):
        checks.read_amat(path)


@pytest.mark.parametrize("change, message", [
    (lambda r: r.update(verdict="fail"), "verdict"),
    (lambda r: r["tests"][0].update(status="inconclusive"), "inconclusive"),
    (lambda r: r.update(trials=150), "trials"),
    (lambda r: r.update(pipeline="isgm"), "report is for"),
])
def test_verify_check_rejects_failed_or_underpowered_reports(tmp_path, change, message):
    report = {"pipeline": "semi-cr", "trials": 400, "verdict": "pass",
              "tests": [{"name": "h1_edge_class_marginals", "status": "pass"}]}
    (tmp_path / "report.json").write_text(json.dumps(report))
    checks.check_verify(tmp_path, pipeline="semi-cr", trials=400)
    change(report)
    (tmp_path / "report.json").write_text(json.dumps(report))
    with pytest.raises(CheckError, match=message):
        checks.check_verify(tmp_path, pipeline="semi-cr", trials=400)


VERIFY_SEMI_CR = {"trials": 200, "N": 32, "k": 4, "p": 1.0, "q": 0.25, "ell": 2}


@pytest.fixture(scope="module")
def verify_semi_cr_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    assert avgcase_main(["verify", "--pipeline", "semi-cr", "--trials", "200", "--seed", "3",
                         "--out", str(out)]) == 0
    return out


def test_verify_semi_cr_check_accepts_the_battery_output(verify_semi_cr_out):
    checks.check_verify_semi_cr(verify_semi_cr_out, **VERIFY_SEMI_CR)


@pytest.mark.parametrize("change, params, message", [
    (lambda r: r["classes"]["hits"].__setitem__(0, r["classes"]["totals"][0]), {}, "S\\^2"),
    (lambda r: r["classes"]["totals"].__setitem__(3, 1.0), {}, "pair totals"),
    (lambda r: r["classes"]["hits"].__setitem__(3, 0.49 * r["classes"]["totals"][3]), {},
     "rest of V\\^2 edge density"),
    (lambda r: None, {"N": 48}, "pair totals"),
])
def test_verify_semi_cr_check_rejects_counts_off_the_paper_law(
        verify_semi_cr_out, tmp_path, change, params, message):
    out = copy(verify_semi_cr_out, tmp_path)
    edit_json(out / "report.json", change)
    with pytest.raises(CheckError, match=message):
        checks.check_verify_semi_cr(out, **{**VERIFY_SEMI_CR, **params})


def test_a_command_exiting_non_zero_counts_as_failed(tmp_path):
    op = run.Op([], lambda out: None)
    argv = [sys.executable, "-c", "import sys; print('error: boom', file=sys.stderr); sys.exit(3)"]
    out = run.attempt(op, argv, tmp_path / "op", [])
    assert out.failure == "exit 3: error: boom"
    assert not (tmp_path / "op").exists()


def test_output_that_differs_from_the_first_run_counts_as_failed(tmp_path):
    op = run.Op([], lambda out: None)
    write = [sys.executable, "-c",
             "import sys, pathlib; pathlib.Path(sys.argv[3], 'x').write_text(sys.argv[1])"]
    reference = []
    assert run.attempt(op, [*write, "a"], tmp_path / "op1", reference).failure is None
    assert run.attempt(op, [*write, "a"], tmp_path / "op2", reference).failure is None
    assert "differ" in run.attempt(op, [*write, "b"], tmp_path / "op3", reference).failure


def test_a_failed_check_counts_as_failed(tmp_path):
    def reject(out):
        raise CheckError("wrong law")

    out = run.attempt(run.Op([], reject), [sys.executable, "-c", "pass"], tmp_path / "op", [])
    assert out.failure == "wrong law"


def test_tracer_sees_functions_that_pipelines_bound_at_import(graph, tmp_path):
    spans = tmp_path / "spans.json"
    out = run.run_child([sys.executable, str(BENCH / "tracer.py"), str(spans), "--", "reduce",
                         "isgm", *SOURCE, "--r", "2", "--w", "4", "--seed", "6",
                         "--in", str(graph / "instance.graph"), "--out", str(tmp_path / "out")],
                        tmp_path / "logs")
    assert out.code == 0
    summary = json.loads(spans.read_text())["summary"]
    for name in ("kernels.gaussianize", "geometry.build_H", "pipelines.pds_to_isgm",
                 "pipelines.to_k_partite_submatrix", "pipelines.graph_clone", "cli.main"):
        assert summary[name]["calls"] == 1, name
    gauss = summary["kernels.gaussianize"]
    assert gauss["entries"] > 0 and gauss["peak_alloc_mb"] > 0
    main = summary["cli.main"]
    assert 0 <= main["self_s"] < main["s"]
