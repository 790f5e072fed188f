"""Benchmark of the avgcase CLI: three reductions and the verify battery.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run makes the workload's inputs in fresh processes (the set-up), then
runs the workload's round of commands, each in a fresh ``avgcase`` process,
again and again until S seconds have passed and two operations at least
have run.  Each command is one operation.  It fails if it exits non-zero or
if its output fails the workload's check (``checks.py``); the first output
of an operation is checked in full and every later one must have the same
bytes, since the same seed must give the same output.  Outputs go to a
scratch directory that is deleted after every operation, so no timing ever
lands next to the program's artifacts.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics, medians over the run's operations.  With ``--trace 1``
each round runs the command once untraced and once under ``tracer.py``, and
the JSON holds the per-layer metrics, medians over the traced operations,
with the tracing overhead.  BLAS and OpenMP run one thread in every child.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
THREADS = "1"

# k-PDS input graphs: --seed picks the graph, --seed + 1 the reduction.
SOURCE = ["--k", "8", "--p", "1", "--q", "0.25"]
KPDS_LARGE = ["--n", "2000", *SOURCE]
KPDS_GLSM = ["--n", "1360", *SOURCE]
# The GLSM output law fails on every input (see README), so that check runs on
# one input fixed apart from --seed, and the seeded run checks everything else.
GLSM_FIXED_SEED = 0
# The semi-cr battery at its defaults: 1000 small pipeline calls.
VERIFY_SEMI_CR = {"trials": 1000, "N": 32, "k": 4, "p": 1.0, "q": 0.25, "ell": 2}
WORKLOADS = ("isgm-large", "semi-cr-large", "verify-semi-cr", "glsm-srk3")


def check(name, **kwargs):
    """A deferred call of ``checks.<name>``, so numpy loads after the set-up."""
    def call(out_dir):
        import checks

        getattr(checks, name)(out_dir, **kwargs)
    return call


@dataclass
class Op:
    """One CLI command of a round, its output check, and whether it fails on a known fault."""

    args: list
    check: object
    known_fault: bool = False


def plan(name, seed, work: Path):
    """The set-up commands and the operations of one round of a workload."""
    def kpds(size, graph_seed, tag):
        return avgcase("generate", "kpds", *size, "--seed", str(graph_seed),
                       "--out", str(work / tag))

    def inputs(tag, trace=True):
        return ["--in", str(work / tag / "instance.graph"),
                *(["--trace", str(work / tag / "trace.json")] if trace else [])]

    reduce_seed = ["--seed", str(seed + 1)]
    if name == "isgm-large":
        return [kpds(KPDS_LARGE, seed, "graph")], [Op(
            ["reduce", "isgm", *SOURCE, "--r", "2", "--w", "4", *inputs("graph"), *reduce_seed],
            check("check_isgm", N=2000, k=8, p=1.0, q=0.25, r=2, w=4.0))]
    if name == "semi-cr-large":
        return [kpds(KPDS_LARGE, seed, "graph")], [Op(
            ["reduce", "semi-cr", *SOURCE, "--ell", "2", *inputs("graph"), *reduce_seed],
            check("check_semi_cr", N=2000, k=8, p=1.0, q=0.25, ell=2))]
    if name == "verify-semi-cr":
        return [[sys.executable, "-c", "import avgcase"]], [Op(
            ["verify", "--pipeline", "semi-cr", "--trials", str(VERIFY_SEMI_CR["trials"]),
             "--seed", str(seed)],
            check("check_verify_semi_cr", **VERIFY_SEMI_CR))]
    glsm = ["reduce", "glsm", *SOURCE, "--n", "1024", "--d", "4096"]
    return [kpds(KPDS_GLSM, seed, "graph"), kpds(KPDS_GLSM, GLSM_FIXED_SEED, "fixed")], [
        Op([*glsm, *inputs("graph", False), *reduce_seed],
           check("check_glsm", n=1024, d=4096, output_law=False)),
        Op([*glsm, *inputs("fixed", False), "--seed", str(GLSM_FIXED_SEED + 1)],
           check("check_glsm", n=1024, d=4096), known_fault=True),
    ]


END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "setup_peak_rss_mb": "MB"}

# Per-layer metric -> (traced function, field of its summary row, unit).
LAYER_METRICS = {
    "graphs.write_graphv1_s": ("graphs.write_graphv1", "s", "s"),
    "graphs.write_graphv1_edges": ("graphs.write_graphv1", "edges", "count"),
    "graphs.read_graphv1_s": ("graphs.read_graphv1", "s", "s"),
    "graphs.read_graphv1_edges": ("graphs.read_graphv1", "edges", "count"),
    "graphs.sample_k_pds_s": ("graphs.sample_k_pds", "s", "s"),
    "kernels.gaussianize_s": ("kernels.gaussianize", "s", "s"),
    "kernels.gaussianize_entries": ("kernels.gaussianize", "entries", "count"),
    "kernels.gaussianize_peak_alloc_mb": ("kernels.gaussianize", "peak_alloc_mb", "MB"),
    "kernels.gaussianize_fallback_entries": ("kernels.gaussianize", "fallback_entries", "count"),
    "kernels.srk3_array_s": ("kernels.srk3_array", "s", "s"),
    "kernels.srk3_array_calls": ("kernels.srk3_array", "calls", "count"),
    "kernels.srk3_array_entries": ("kernels.srk3_array", "entries", "count"),
    "pipelines.graph_clone_s": ("pipelines.graph_clone", "s", "s"),
    "pipelines.to_k_partite_submatrix_self_s": ("pipelines.to_k_partite_submatrix", "self_s", "s"),
    "pipelines.pds_to_isgm_self_s": ("pipelines.pds_to_isgm", "self_s", "s"),
    "pipelines.pds_to_isgm_calls": ("pipelines.pds_to_isgm", "calls", "count"),
    "pipelines.pds_to_semi_cr_self_s": ("pipelines.pds_to_semi_cr", "self_s", "s"),
    "pipelines.pds_to_glsm_self_s": ("pipelines.pds_to_glsm", "self_s", "s"),
    "geometry.build_H_s": ("geometry.build_H", "s", "s"),
    "geometry.build_H_calls": ("geometry.build_H", "calls", "count"),
    "formats.write_amat_s": ("formats.write_amat", "s", "s"),
    "formats.write_amat_mb": ("formats.write_amat", "mb", "MB"),
    "verify.verify_reduction_self_s": ("verify.verify_reduction", "self_s", "s"),
    "prob.generator_s": ("prob.generator", "s", "s"),
    "prob.generator_calls": ("prob.generator", "calls", "count"),
    "cli.main_self_s": ("cli.main", "self_s", "s"),
}
# Per-entry costs in ns: (seconds metric, entry-count metric).
PER_ENTRY = {
    "kernels.gaussianize_ns_per_entry": ("kernels.gaussianize_s", "kernels.gaussianize_entries"),
    "kernels.srk3_ns_per_entry": ("kernels.srk3_array_s", "kernels.srk3_array_entries"),
}


@dataclass
class Child:
    """Outcome of one child process: exit code, wall seconds, peak RSS in MB."""

    code: int
    wall_s: float
    peak_rss_mb: float


def run_child(argv, log_dir: Path) -> Child:
    """Run argv to its end with one BLAS thread; peak RSS from wait4's rusage."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=THREADS,
               OMP_NUM_THREADS=THREADS, MKL_NUM_THREADS=THREADS)
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def avgcase(*args):
    return [sys.executable, "-m", "avgcase.cli", *args]


def digest(out_dir: Path) -> str:
    """sha256 over the names and bytes of every file the command wrote."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.iterdir() if p.is_file()):
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 22), b""):
                h.update(block)
    return h.hexdigest()


@dataclass
class Outcome:
    """One attempted operation: its child process and why it failed, if it did."""

    op: Op
    child: Child
    failure: str = None


def attempt(op: Op, argv, out_dir: Path, reference: list) -> Outcome:
    """Run argv writing into out_dir, check its output, then delete out_dir.

    ``reference`` holds the digest of the first output that passed the check;
    later outputs of the same operation must match it byte for byte.
    """
    out_dir.mkdir(parents=True)
    logs = out_dir.parent / (out_dir.name + ".log")
    try:
        child = run_child([*argv, "--out", str(out_dir)], logs)
        if child.code != 0:
            err = (logs / "stderr.txt").read_text(errors="replace").strip().splitlines()
            return Outcome(op, child, f"exit {child.code}: {err[-1] if err else ''}")
        got = digest(out_dir)
        if reference:
            if got != reference[0]:
                return Outcome(op, child, "output bytes differ from an earlier run of this seed")
            return Outcome(op, child)
        from checks import CheckError

        try:
            op.check(out_dir)
        except CheckError as exc:
            return Outcome(op, child, str(exc))
        reference.append(got)
        return Outcome(op, child)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        shutil.rmtree(logs, ignore_errors=True)


def layer_metrics(summaries):
    """Per-layer metrics as medians over the traced operations' summaries."""
    values = {metric: statistics.median(float(s.get(name, {}).get(key, 0)) for s in summaries)
              for metric, (name, key, _) in LAYER_METRICS.items()}
    units = {metric: unit for metric, (_, _, unit) in LAYER_METRICS.items()}
    for metric, (secs, entries) in PER_ENTRY.items():
        values[metric] = 1e9 * values[secs] / values[entries] if values[entries] else 0.0
        units[metric] = "ns"
    return values, units


def measure(name, seed, seconds, trace):
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    outcomes, traced, untraced, summaries = [], [], [], []
    try:
        setups, ops = plan(name, seed, work)
        setup_rss = 0.0
        for i, argv in enumerate(setups):
            setup = run_child(argv, work / f"setup{i}")
            if setup.code != 0:
                err = (work / f"setup{i}" / "stderr.txt").read_text(errors="replace")
                raise SystemExit(f"set-up of {name} exited {setup.code}:\n{err}")
            setup_rss = max(setup_rss, setup.peak_rss_mb)
        setup_s = time.perf_counter() - T0
        references = [[] for _ in ops]
        start = time.perf_counter()
        rounds = 0
        while len(outcomes) < 2 or time.perf_counter() - start < seconds:
            rounds += 1
            for i, (op, ref) in enumerate(zip(ops, references)):
                out = attempt(op, avgcase(*op.args), work / f"op{rounds}-{i}", ref)
                outcomes.append(out)
                untraced.append(out)
                if not trace:
                    continue
                spans = work / f"spans{rounds}-{i}.json"
                argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), "--", *op.args]
                out = attempt(op, argv, work / f"traced{rounds}-{i}", ref)
                outcomes.append(out)
                traced.append(out)
                if out.child.code == 0:
                    summaries.append(json.loads(spans.read_text())["summary"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other run is using it

    failed = [out for out in outcomes if out.failure]
    for out in failed:
        print(f"{name}: failed operation{' (known fault)' * out.op.known_fault}: "
              f"{out.failure}", file=sys.stderr)
    if trace:
        values, units = layer_metrics(summaries)
        values["trace.wall_s"] = statistics.median(out.child.wall_s for out in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
            out.child.wall_s for out in untraced)
        units.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    else:
        values = {
            "wall_s": statistics.median(out.child.wall_s for out in outcomes),
            "peak_rss_mb": statistics.median(out.child.peak_rss_mb for out in outcomes),
            "setup_s": setup_s,
            "setup_peak_rss_mb": setup_rss,
        }
        units = END_TO_END_UNITS
    return {
        "correct": all(out.op.known_fault for out in failed),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "avgcase" / "__init__.py").is_file():
        print(f"error: no avgcase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
