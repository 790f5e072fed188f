"""Output checks for the benchmark workloads.

Every check reads the files a command wrote with the benchmark's own
parsers and compares them with properties the reductions must have, or with
parameters recomputed here from the paper's formulas.  Nothing is compared
against a stored copy of earlier output, and nothing here imports avgcase,
so a fault in the program's own readers or planner cannot hide a fault in
its output.  A failed check raises ``CheckError``.
"""

from __future__ import annotations

import json
import math
import re
import struct
from pathlib import Path

import numpy as np


class CheckError(Exception):
    """An output of the program does not have a property it must have."""


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def normal_cdf(x):
    """Phi through math.erf, independent of the program's own quantile code."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# Parsers
# ---------------------------------------------------------------------------

_CHUNK = 1 << 24
_SPACE, _NEWLINE = ord(" "), ord("\n")


def _parse_edge_lines(buf: np.ndarray) -> np.ndarray:
    """Strict vectorized parse of ``u v\\n`` lines into a flat int64 array."""
    digit = buf - np.uint8(ord("0"))
    sep_at = np.flatnonzero(digit > 9)
    seps = buf[sep_at]
    _require(seps.size % 2 == 0 and np.all(seps[0::2] == _SPACE)
             and np.all(seps[1::2] == _NEWLINE),
             "GRAPHv1 edge lines must read 'u v' with one space and no other bytes")
    starts = np.concatenate(([0], sep_at[:-1] + 1))
    lengths = sep_at - starts
    _require(lengths.size == 0 or (lengths.min() >= 1 and lengths.max() <= 18),
             "GRAPHv1 edge line with an empty or overlong vertex id")
    values = np.zeros(starts.size, dtype=np.int64)
    for j in range(int(lengths.max()) if lengths.size else 0):
        live = lengths > j
        values[live] = values[live] * 10 + digit[starts[live] + j]
    return values


def parse_graphv1(path):
    """Return ``(n, edges)`` with edges an (E, 2) int64 array.

    Rejects what the format forbids and ``read_graphv1`` lets through: a
    header count that disagrees with the lines, u >= v, ids out of range and
    repeated edges.
    """
    data = Path(path).read_bytes()
    head_end = data.find(b"\n")
    _require(head_end >= 0, f"{path}: no GRAPHv1 header line")
    header = re.fullmatch(rb"n=(\d+) edges=(\d+)", data[:head_end])
    _require(header is not None, f"{path}: malformed header {data[:head_end][:80]!r}")
    n, declared = int(header.group(1)), int(header.group(2))
    _require(len(data) == head_end + 1 or data.endswith(b"\n"),
             f"{path}: last edge line is not terminated")
    parts = []
    pos = head_end + 1
    while pos < len(data):
        end = data.find(b"\n", min(pos + _CHUNK, len(data) - 1)) + 1
        parts.append(_parse_edge_lines(np.frombuffer(data, np.uint8, end - pos, pos)))
        pos = end
    flat = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    edges = flat.reshape(-1, 2)
    _require(edges.shape[0] == declared,
             f"{path}: header declares {declared} edges, file has {edges.shape[0]}")
    _require(bool(np.all(edges[:, 0] < edges[:, 1])), f"{path}: an edge line has u >= v")
    _require(edges.size == 0 or int(edges[:, 1].max()) < n, f"{path}: vertex id >= n={n}")
    keys = np.sort(edges[:, 0] * n + edges[:, 1])
    _require(bool(np.all(np.diff(keys) > 0)), f"{path}: an edge is listed more than once")
    return n, edges


def read_amat(path) -> np.ndarray:
    """AMATv1: magic, u32 version 1, u64 rows, u64 cols, u32 dtype 1, f8 payload."""
    data = Path(path).read_bytes()
    _require(len(data) >= 28 and data[:4] == b"AMAT", f"{path}: not an AMATv1 file")
    version, rows, cols, code = struct.unpack("<IQQI", data[4:28])
    _require(version == 1 and code == 1, f"{path}: version {version}, dtype code {code}")
    _require(len(data) == 28 + 8 * rows * cols,
             f"{path}: payload size disagrees with the {rows}x{cols} header")
    return np.frombuffer(data, dtype="<f8", offset=28).reshape(rows, cols)


def _load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Parameters recomputed from the paper's formulas
# ---------------------------------------------------------------------------

def clone_Q(p, q):
    """Edge rate after cloning: 1 - sqrt((1-p)(1-q)), or sqrt(q) at p = 1."""
    return math.sqrt(q) if p == 1.0 else 1.0 - math.sqrt((1.0 - p) * (1.0 - q))


def rejection_delta(p, Q):
    return min(math.log(p / Q), math.inf if p == 1.0 else math.log((1.0 - Q) / (1.0 - p)))


def _multiple_above(unit, x):
    return unit * (math.floor(x / unit) + 1)


def isgm_plan(N, k, p, q, r, w):
    """(m, t, n, d, mu) of the k-PDS -> ISGM reduction at prime r."""
    Q = clone_Q(p, q)
    m = _multiple_above(k, (p / Q + 1.0) * N)
    t = 2
    while k * r ** t < m:
        t += 1
    rt = r ** t
    n = int(k * ((rt - 1) // (r - 1)) / w)
    log_term = 3.0 * math.log(k * m * rt) + 2.0 * math.log(1.0 / (p - Q))
    mu = rejection_delta(p, Q) / (2.0 * math.sqrt(log_term)) / math.sqrt(rt * (r - 1))
    return {"m": m, "t": t, "n": n, "d": m, "mu": mu}


def semi_cr_plan(N, k, p, q, ell):
    """(m, m_rotated, mu, mu1, mu2, mu3) of the k-PDS -> SEMI-CR reduction."""
    Q = clone_Q(p, q)
    m = _multiple_above((3 ** ell - 1) * k, (p / Q + 1.0) * N)
    mu = rejection_delta(p, Q) / (
        2.0 * math.sqrt(6.0 * math.log(m) + 2.0 * math.log(1.0 / (p - Q))))
    mu1 = normal_cdf(0.5 * mu * 3.0 ** (-ell)) - 0.5
    mu23 = normal_cdf(0.5 * mu * 3.0 ** (1 - ell)) - 0.5
    return {"m": m, "m_rotated": m // 2, "mu": mu, "mu1": mu1, "mu2": mu23, "mu3": mu23}


def _check_params(found: dict, expected: dict, what):
    for key, value in expected.items():
        _require(key in found and _close(float(found[key]), float(value)),
                 f"{what}: trace has {key}={found.get(key)!r}, the formula gives {value!r}")


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------

def check_isgm(out_dir, *, N, k, p, q, r, w):
    out_dir = Path(out_dir)
    plan = isgm_plan(N, k, p, q, r, w)
    trace = _load_json(out_dir / "trace.json")
    _check_params(trace["params"], plan, "isgm")
    X = read_amat(out_dir / "samples.amat")
    _require(X.shape == (plan["n"], plan["d"]),
             f"isgm: samples are {X.shape}, expected ({plan['n']}, {plan['d']})")
    _require(bool(np.isfinite(X).all()), "isgm: non-finite sample entries")
    S = np.asarray(trace["planted_set"], dtype=np.int64)
    positive = np.asarray(trace["component_set"], dtype=np.int64)
    _require(S.size == k and np.unique(S).size == k, f"isgm: planted set has {S.size} != {k} coords")
    pos_block = X[np.ix_(positive, S)]
    z = (float(pos_block.mean()) - plan["mu"]) * math.sqrt(pos_block.size)
    _require(abs(z) <= 4.0, f"isgm: planted positive-component mean is {z:.2f} SE from mu")
    off = np.ones(X.shape[1], dtype=bool)
    off[S] = False
    rest = X[:, off]
    var_dev = abs(float(rest.var()) - 1.0)
    tol = 5.0 * math.sqrt(2.0 / rest.size)
    _require(var_dev <= tol, f"isgm: off-planted entry variance is off 1 by {var_dev:.4g} > {tol:.4g}")


def check_semi_cr(out_dir, *, N, k, p, q, ell):
    out_dir = Path(out_dir)
    plan = semi_cr_plan(N, k, p, q, ell)
    trace = _load_json(out_dir / "trace.json")
    params = trace["params"]
    _check_params(params, plan, "semi-cr")
    n, edges = parse_graphv1(out_dir / "instance.graph")
    _require(n == plan["m"], f"semi-cr: graph has n={n}, expected the embedded size {plan['m']}")
    S = np.asarray(trace["planted_set"], dtype=np.int64)
    S2 = np.asarray(params["S_prime"], dtype=np.int64)
    V = np.asarray(params["V"], dtype=np.int64)
    s, s2, v = S.size, S2.size, V.size
    _require(s == (3 ** (ell - 1) - 1) * k // 2 and s2 == 3 ** (ell - 1) * k
             and v == plan["m_rotated"], f"semi-cr: |S|={s}, |S'|={s2}, |V|={v}")
    labels = np.zeros(n, dtype=np.int8)  # 0 outside V, 1 rest of V, 2 in S', 3 in S
    labels[V] = 1
    _require(bool(np.all(labels[S2] == 1) and np.all(labels[S] == 1)),
             "semi-cr: S and S' must lie in V")
    labels[S2] = 2
    _require(bool(np.all(labels[S] == 1)), "semi-cr: S and S' overlap")
    labels[S] = 3
    la, lb = labels[edges[:, 0]], labels[edges[:, 1]]
    lo, hi = np.minimum(la, lb), np.maximum(la, lb)
    hits = [
        int(np.count_nonzero((lo == 3) & (hi == 3))),
        int(np.count_nonzero((lo == 2) & (hi == 3))),
        int(np.count_nonzero((lo == 2) & (hi == 2))),
        int(np.count_nonzero(lo == 1)),
    ]
    _check_class_densities(hits, semi_cr_class_pairs(s, s2, v), plan, "semi-cr")


def semi_cr_class_pairs(s, s2, v):
    """Vertex pairs in S^2, SxS', S'^2 and the rest of V^2."""
    return [s * (s - 1) // 2, s * s2, s2 * (s2 - 1) // 2,
            v * (v - 1) // 2 - (s + s2) * (s + s2 - 1) // 2]


def _check_class_densities(hits, pairs, plan, what):
    """Edge densities of the four classes within 5 SE of 1/2+mu3, 1/2-mu2, 1/2, 1/2-mu1."""
    dens = [0.5 + plan["mu3"], 0.5 - plan["mu2"], 0.5, 0.5 - plan["mu1"]]
    for name, h, t, pr in zip(("S^2", "SxS'", "S'^2", "rest of V^2"), hits, pairs, dens):
        z = (h / t - pr) / math.sqrt(pr * (1.0 - pr) / t)
        _require(abs(z) <= 5.0, f"{what}: {name} edge density {h / t:.5f} is {z:.2f} SE "
                                f"from {pr:.5f}")


def check_glsm(out_dir, *, n, d, output_law=True):
    """``output_law`` adds the pooled-variance test of the N(0, 1) marginal."""
    out_dir = Path(out_dir)
    X = read_amat(out_dir / "samples.amat")
    _require(X.shape == (n, d), f"glsm: samples are {X.shape}, expected ({n}, {d})")
    _require(bool(np.isfinite(X).all()), "glsm: non-finite sample entries")
    mean_tol = 5.0 / math.sqrt(X.size)
    mean = float(X.mean())
    _require(abs(mean) <= mean_tol, f"glsm: pooled mean {mean:.4g} exceeds {mean_tol:.4g}")
    if output_law:
        var_tol = 5.0 * math.sqrt(2.0 / X.size)
        var = float(X.var())
        _require(abs(var - 1.0) <= var_tol,
                 f"glsm: pooled variance {var:.5f} is off 1 by > {var_tol:.4g}")
    nu = np.asarray(_load_json(out_dir / "trace.json")["params"]["nu"], dtype=float)
    _require(nu.size == n and bool(np.all(np.abs(nu) <= 1.0)), "glsm: a mixing weight nu is outside [-1, 1]")


def check_verify(out_dir, *, pipeline, trials):
    report = _load_json(Path(out_dir) / "report.json")
    _require(report.get("pipeline") == pipeline, f"verify: report is for {report.get('pipeline')!r}")
    _require(report.get("trials") == trials, f"verify: report ran {report.get('trials')} trials")
    _require(report.get("verdict") == "pass", f"verify: verdict {report.get('verdict')!r}")
    vague = [t["name"] for t in report["tests"] if t["status"] == "inconclusive"]
    _require(not vague, f"verify: inconclusive tests {vague}")


def check_verify_semi_cr(out_dir, *, trials, N, k, p, q, ell):
    """The battery's verdict, and its pooled edge-class counts judged here.

    Each trial's classes have the sizes the paper fixes (|S| = (3^(l-1) - 1) k / 2,
    |S'| = 3^(l-1) k, |V| = m / 2), and the pooled densities must lie within
    5 SE of the values recomputed from mu, whatever the battery concluded.
    """
    check_verify(out_dir, pipeline="semi-cr", trials=trials)
    plan = semi_cr_plan(N, k, p, q, ell)
    classes = _load_json(Path(out_dir) / "report.json")["classes"]
    pairs = [trials * t for t in semi_cr_class_pairs(
        (3 ** (ell - 1) - 1) * k // 2, 3 ** (ell - 1) * k, plan["m_rotated"])]
    _require([int(t) for t in classes["totals"]] == pairs,
             f"verify semi-cr: class pair totals {classes['totals']}, expected {pairs}")
    _check_class_densities(classes["hits"], pairs, plan, "verify semi-cr")
