"""Graph data types, samplers for the graph hypotheses, and adversaries.

Simple undirected graphs on ``[n]`` are stored as a packed bitset over the
upper-triangular pair order ``(0,1), (0,2), ..., (n-2,n-1)``: symmetric, no
self loops, O(1) pair access, and ~n^2/16 bytes.

The samplers cover the ambient and planted hypotheses used by the reduction
pipelines and the target graph laws produced by the community-recovery
reduction: a planted graph thinned by the monotone adversary
`semirandom_apply`, which removes edges at rates set per pair of vertex
classes.  The two corruption adversaries (Huber / eps-corruption) act on
sample sets.  `PlantedTrace` carries ground-truth latents next to an instance
for verification; the reductions never read it to make decisions, they only
translate its coordinates for the output trace.
"""

from __future__ import annotations

import re
import threading
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AdversaryViolation, ParameterError
from .formats import dump_json, load_json
from .prob import (RngStream, _check_fits, _check_prob, _random_bands, _run_blocks,
                   uniform_below)

__all__ = [
    "Graph",
    "PlantedTrace",
    "write_graphv1",
    "read_graphv1",
    "sample_gnq",
    "sample_k_pds",
    "sample_planted_conditional",
    "sample_tg_h1",
    "sample_tg_h0",
    "semi_cr_labels",
    "semi_cr_rates",
    "semirandom_apply",
    "corrupt_samples",
]


def _n_pairs(n: int) -> int:
    return n * (n - 1) // 2


def _pair_indices(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Positions of the pairs (u, v), u < v, in the upper-triangular order."""
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def _row_starts(n: int) -> np.ndarray:
    """The index of each row's first pair (u, u+1) in the pair order."""
    rows = np.arange(n, dtype=np.int64)
    return _pair_indices(n, rows, rows + 1)


def _band_edges(row_start: np.ndarray, lo: int, bits: np.ndarray):
    """``(idx, u, v)``: the positions in ``bits``, the bits of the pairs lo.., of its
    edges, and their ends u < v; ``row_start`` is ``_row_starts(n)``."""
    idx = np.flatnonzero(bits)
    # rows r0..r1 hold the band's pairs; u repeats each row once per edge
    r0, r1 = np.searchsorted(row_start, [lo, lo + bits.size], side="right") - 1
    ends = np.searchsorted(idx, row_start[r0 + 1:r1 + 1] - lo)
    u = np.repeat(np.arange(r0, r1 + 1), np.diff(ends, prepend=0, append=idx.size))
    return idx, u, lo + idx - row_start[u] + u + 1


def _upper_mask(n: int) -> np.ndarray:
    """Boolean n x n mask of the pairs u < v; its row-major order is the pair order."""
    return np.triu(np.ones((n, n), dtype=bool), 1)


def _scatter_pairs(n: int, idx: np.ndarray) -> np.ndarray:
    """Upper-triangular bit vector with the given pair indices set."""
    vec = np.zeros(_n_pairs(n), dtype=bool)
    vec[idx] = True
    return vec


class Graph:
    """Simple undirected graph with packed upper-triangular adjacency bits."""

    __slots__ = ("n", "_bits")

    def __init__(self, n: int, packed_bits: np.ndarray):
        if n < 0:
            raise ParameterError(f"a graph needs n >= 0 vertices, got n={n}")
        self.n = int(n)
        self._bits = packed_bits

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_triu(cls, n: int, triu: np.ndarray) -> "Graph":
        triu = np.asarray(triu, dtype=bool)
        if triu.shape != (_n_pairs(n),):
            raise ParameterError(f"triu vector must have length {_n_pairs(n)}")
        return cls(n, np.packbits(triu))

    @classmethod
    def from_dense(cls, adj: np.ndarray) -> "Graph":
        adj = np.asarray(adj, dtype=bool)
        n = adj.shape[0]
        if adj.shape != (n, n) or not np.array_equal(adj, adj.T) or adj.diagonal().any():
            raise ParameterError("adjacency must be square, symmetric, hollow")
        return cls.from_triu(n, adj[_upper_mask(n)])

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Graph on [n] with the given (u, v) pairs, in either order; repeats are harmless."""
        uv = np.asarray(edges)
        if uv.size == 0:
            uv = np.empty((0, 2), dtype=np.int64)
        if uv.ndim != 2 or uv.shape[1] != 2 or uv.dtype.kind not in "iu":
            raise ParameterError("edges must be a sequence of integer (u, v) pairs")
        a = uv[:, 0].astype(np.int64)
        b = uv[:, 1].astype(np.int64)
        u, v = np.minimum(a, b), np.maximum(a, b)
        bad = (u == v) | (u < 0) | (v >= n)
        if bad.any():
            i = int(np.argmax(bad))
            raise ParameterError(f"invalid pair ({a[i]}, {b[i]}) for n={n}")
        return cls.from_triu(n, _scatter_pairs(n, _pair_indices(n, u, v)))

    # -- access -----------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ParameterError(f"invalid pair ({u}, {v}) for n={self.n}")
        idx = _pair_indices(self.n, min(u, v), max(u, v))
        return bool((self._bits[idx >> 3] >> (7 - (idx & 7))) & 1)

    def triu_vector(self) -> np.ndarray:
        return np.unpackbits(self._bits, count=_n_pairs(self.n)).view(bool)

    def to_dense(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n), dtype=bool)
        adj[_upper_mask(self.n)] = self.triu_vector()
        adj |= adj.T
        return adj

    def edges(self) -> np.ndarray:
        """Edge list as an (m, 2) array with u < v, lexicographic order."""
        return np.column_stack(_band_edges(_row_starts(self.n), 0, self.triu_vector())[1:])

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(np.unpackbits(self._bits, count=_n_pairs(self.n))))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.triu_vector(), other.triu_vector())
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


@dataclass
class PlantedTrace:
    """Ground-truth latents carried beside an instance, for verification only."""

    seed: int
    planted_set: Optional[np.ndarray] = None
    component_set: Optional[np.ndarray] = None
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        def _aslist(x):
            return None if x is None else [int(v) for v in np.asarray(x).ravel()]

        return {
            "seed": int(self.seed),
            "planted_set": _aslist(self.planted_set),
            "component_set": _aslist(self.component_set),
            "params": self.params,
        }

    def write_json(self, path) -> None:
        dump_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "PlantedTrace":
        """The trace of a ``to_dict`` document; its vertex sets must be null
        or lists of integers, since a float would be truncated to another
        vertex."""
        def _asarr(name):
            x = doc.get(name)
            if x is None:
                return None
            if not isinstance(x, list) or any(type(v) is not int for v in x):
                raise ParameterError(f"{name} must be a list of integers, got {x!r}")
            return np.asarray(x, dtype=np.int64)

        return cls(
            seed=int(doc["seed"]),
            planted_set=_asarr("planted_set"),
            component_set=_asarr("component_set"),
            params=doc.get("params", {}),
        )

    @classmethod
    def read_json(cls, path) -> "PlantedTrace":
        try:
            return cls.from_dict(load_json(path))
        except OSError as exc:
            raise ParameterError(f"{path}: cannot open trace file: {exc.strerror}") from exc
        # not UTF-8 JSON, or not a trace, or a vertex no int64 holds
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ParameterError(f"{path}: not a trace JSON file: {exc!r}") from exc


# ---------------------------------------------------------------------------
# GRAPHv1 text format
# ---------------------------------------------------------------------------

# Pairs per piece of `write_graphv1` and `_class_edge_counts`, a multiple of 8
# so that a piece starts on a byte of the packed bits.  At most
# ``_MAX_IN_FLIGHT`` pieces are in flight, so the writer's transient arrays
# (some tens of bytes per edge) stay those of 2^18 pairs whatever the graph's
# size.
_PAIR_CHUNK = 1 << 16

_HEADER = re.compile(r"n=([0-9]+)\s+edges=([0-9]+)")


def _digit_cells(n: int) -> np.ndarray:
    """ASCII digits of 0..n-1, one right-aligned ``V{w}`` cell per vertex,
    leading bytes 0."""
    values = np.arange(max(n, 1), dtype=np.int64)
    width = len(str(values[-1]))
    table = np.zeros((values.size, width), dtype=np.uint8)
    for j in range(width):
        digit = (values // 10 ** j) % 10 + ord("0")
        table[:, width - 1 - j] = np.where((values >= 10 ** j) | (j == 0), digit, 0)
    return table.view(f"V{width}")[:, 0]


def _format_lines(cells: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The bytes of the lines ``u v\\n``, as one uint8 array."""
    line = np.dtype([("u", cells.dtype), ("space", "u1"), ("v", cells.dtype), ("end", "u1")])
    block = np.empty(u.size, dtype=line)
    block["u"] = cells[u]
    block["space"] = ord(" ")
    block["v"] = cells[v]
    block["end"] = ord("\n")
    raw = block.view(np.uint8)
    return raw[raw != 0]


def write_graphv1(graph: Graph, path) -> None:
    """Header ``n=<int> edges=<int>``, then one ``u v`` line per edge (u < v).

    Edges come in lexicographic order with ``\\n`` line ends, so the bytes
    are a function of the graph alone.  The packed bits are formatted in
    pieces of ``_PAIR_CHUNK`` pairs on the pool of ``_run_blocks``, and
    the pieces are written in order.
    """
    n, n_pairs = graph.n, _n_pairs(graph.n)
    cells = _digit_cells(n)
    row_start = _row_starts(n)

    def piece(i):
        lo = i * _PAIR_CHUNK
        hi = min(lo + _PAIR_CHUNK, n_pairs)
        bits = np.unpackbits(graph._bits[lo // 8:-(-hi // 8)], count=hi - lo).view(bool)
        return _format_lines(cells, *_band_edges(row_start, lo, bits)[1:])

    # Piece i is formatted, then waits until pieces 0..i-1 are written, so at
    # most the pool's pieces are alive.  After an error none is written and
    # none waits, so the pool drains and the error reaches the caller.
    turn = threading.Condition()
    written, failed = 0, False

    def run(i):
        nonlocal written, failed
        try:
            lines = piece(i)
            with turn:
                turn.wait_for(lambda: written == i or failed)
                if not failed:
                    fh.write(lines)
                    written += 1
                    turn.notify_all()
        except BaseException:
            with turn:
                failed = True
                turn.notify_all()
            raise

    with open(path, "wb") as fh:
        fh.write(f"n={n} edges={graph.edge_count}\n".encode("ascii"))
        _run_blocks(run, -(-n_pairs // _PAIR_CHUNK))


def _malformed(path, what: str) -> ParameterError:
    return ParameterError(f"{path}: malformed GRAPHv1 file: {what}")


def read_graphv1(path) -> Graph:
    """Parse a GRAPHv1 file, rejecting anything but exactly the graph it lists.

    ``#`` comments and blank lines may appear anywhere.  The header must read
    ``n=<int> edges=<int>``; every other line holds two integers
    ``0 <= u < v < n``; no pair may repeat and the count must match the
    header.  Every violation raises `ParameterError` naming the file.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"{path}: cannot open GRAPHv1 file: {exc.strerror}") from exc
    with fh:
        try:
            line = next(filter(None, (raw.split("#", 1)[0].strip() for raw in fh)), "")
            header = _HEADER.fullmatch(line)
            if header is not None:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                    uv = np.loadtxt(fh, dtype=np.int64, comments="#", ndmin=2)
        except ValueError as exc:  # also UnicodeDecodeError
            raise _malformed(path, str(exc)) from exc
    if header is None:
        raise _malformed(path, f"header {line!r} is not 'n=<int> edges=<int>'"
                         if line else "missing header")
    n, declared = int(header.group(1)), int(header.group(2))
    # no reduction could embed a graph whose float64 pair vector does not
    # fit, as its m x m matrix has m >= 2n
    _check_fits(8 * _n_pairs(n), f"{path}: the float64 pair vector of n={n} vertices")
    if uv.size == 0:
        uv = np.empty((0, 2), dtype=np.int64)
    if uv.shape[1] != 2:
        raise _malformed(path, f"edge lines hold {uv.shape[1]} integers, not 2")
    if uv.shape[0] != declared:
        raise _malformed(path, f"header declares {declared} edges, found {uv.shape[0]}")
    u, v = uv[:, 0], uv[:, 1]
    bad = (u < 0) | (u >= v) | (v >= n)
    if bad.any():
        i = int(np.argmax(bad))
        raise _malformed(path, f"edge ({u[i]}, {v[i]}) breaks 0 <= u < v < n={n}")
    vec = _scatter_pairs(n, _pair_indices(n, u, v))
    if np.count_nonzero(vec) != declared:
        raise _malformed(path, "an edge is listed more than once")
    return Graph.from_triu(n, vec)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def sample_gnq(n: int, q: float, rng: RngStream) -> Graph:
    """Erdos-Renyi G(n, q): each unordered pair present independently w.p. q."""
    _check_prob(q, "q")
    _check_fits(_n_pairs(n), f"the pair vector of n={n} vertices, as bool,")
    g = rng.child("gnq").generator()
    return Graph.from_triu(n, uniform_below(g, _n_pairs(n), q))


def _plant_dense(graph_vec: np.ndarray, n: int, S: np.ndarray, p: float, gen) -> None:
    """Resample the induced subgraph on S, ascending, from G(|S|, p), in place."""
    k = S.size
    if k < 2:
        return
    uu, vv = np.triu_indices(k, k=1)
    idx = _pair_indices(n, S[uu], S[vv])
    graph_vec[idx] = gen.random(idx.size) < p


def sample_planted_conditional(n: int, S, p: float, q: float, rng: RngStream) -> Graph:
    """G(n, S, p, q): ambient G(n, q) with the induced subgraph on S from G(|S|, p)."""
    _check_prob(p, "p")
    _check_prob(q, "q")
    S = np.sort(np.asarray(S, dtype=np.int64))
    if S.size and (S[0] < 0 or S[-1] >= n or (S[1:] == S[:-1]).any()):
        raise ParameterError(f"S must be a subset of [0, {n}), got {S}")
    _check_fits(_n_pairs(n), f"the pair vector of n={n} vertices, as bool,")
    g = rng.child("planted").generator()
    vec = uniform_below(g, _n_pairs(n), q)
    _plant_dense(vec, n, S, p, g)
    return Graph.from_triu(n, vec)


def sample_k_pds(N: int, k: int, p: float, q: float, rng: RngStream):
    """k-partite planted dense subgraph instance plus its ground-truth trace.

    One planted vertex is drawn uniformly from each part i = [i N/k,
    (i+1) N/k) of the vertices, and the induced subgraph on the planted set
    is resampled from G(k, p).
    """
    _check_prob(p, "p")
    _check_prob(q, "q")
    if not (0 <= q < p <= 1):
        # q = 0 is allowed for the sampler (degenerate but well-defined);
        # the reductions themselves insist on q > 0.
        raise ParameterError(f"need 0 <= q < p <= 1, got p={p}, q={q}")
    if not 0 < k <= N or N % k:
        raise ParameterError(f"k={k} must divide N={N}, with 0 < k <= N")
    _check_fits(_n_pairs(N), f"the pair vector of N={N} vertices, as bool,")
    g = rng.child("kpds").generator()
    vec = uniform_below(g, _n_pairs(N), q)
    Nk = N // k
    S = np.array([i * Nk + g.integers(Nk) for i in range(k)], dtype=np.int64)
    _plant_dense(vec, N, S, p, g)
    trace = PlantedTrace(seed=rng.seed, planted_set=S, params={"N": N, "k": k, "p": p, "q": q})
    return Graph.from_triu(N, vec), trace


def semi_cr_labels(n: int, V, S_prime=(), S=()) -> np.ndarray:
    """The SEMI-CR vertex classes: 0 outside V, 1 in V, 2 in S', 3 in S."""
    labels = np.zeros(n, dtype=np.intp)
    for cls, members in enumerate((V, S_prime, S), start=1):
        labels[np.asarray(members, dtype=np.int64)] = cls
    return labels


def semi_cr_rates(mu1: float, mu2: float) -> np.ndarray:
    """The SEMI-CR adversary's rates over the classes of ``semi_cr_labels``: 2 mu2
    on S x S', 0 on S^2, S'^2 and outside V^2, 2 mu1 on the rest of V^2."""
    a, b = 2.0 * mu1, 2.0 * mu2
    return np.array([[0, 0, 0, 0], [0, a, a, a], [0, a, 0, b], [0, a, b, 0]], dtype=float)


def sample_tg_h1(n, k, k2, m, mu1, mu2, mu3, rng: RngStream):
    """Planted target-graph law: V of size m, disjoint S (k), S' (k2) inside V.

    It is the planted graph G(n, S, 1/2 + mu3, 1/2) thinned by the class-rate
    adversary ``semi_cr_rates``, so the edge probabilities are 1/2 + mu3 on
    S^2, 1/2 - mu2 on S x S', 1/2 on S'^2 and outside V^2, and 1/2 - mu1 on
    the rest of V^2.
    """
    if not (min(k, k2) >= 0 and k + k2 <= m <= n):
        raise ParameterError(
            f"need k, k2 >= 0 and k + k2 <= m <= n, got k={k}, k2={k2}, m={m}, n={n}")
    for name, mu in (("mu1", mu1), ("mu2", mu2), ("mu3", mu3)):
        if not (0 <= mu < 0.5):
            raise ParameterError(f"{name} must lie in [0, 1/2), got {mu}")
    g = rng.child("tg_h1").generator()
    V = np.sort(g.choice(n, size=m, replace=False))
    picks = g.choice(m, size=k + k2, replace=False)
    S = np.sort(V[picks[:k]])
    S2 = np.sort(V[picks[k:]])
    trace = PlantedTrace(seed=rng.seed, planted_set=S, params={
        "V": [int(v) for v in V], "S_prime": [int(v) for v in S2],
        "mu1": mu1, "mu2": mu2, "mu3": mu3, "m": m})
    G = sample_planted_conditional(n, S, 0.5 + mu3, 0.5, rng)
    return semirandom_apply(G, trace, semi_cr_labels(n, V, S2, S), semi_cr_rates(mu1, mu2),
                            rng), trace


def sample_tg_h0(n, m, mu1, rng: RngStream):
    """Null target-graph law, ``sample_tg_h1`` with S = S' = {}: G(n, 1/2) thinned at
    2 mu1 inside a random V (|V| = m), so edges come at 1/2 - mu1 inside V, else 1/2.
    Its streams are apart from those of ``sample_tg_h1`` at the same seed."""
    if not (0 <= m <= n):
        raise ParameterError(f"need 0 <= m <= n, got m={m}, n={n}")
    G, trace = sample_tg_h1(n, 0, 0, m, mu1, 0.0, 0.0, rng.child("tg_h0"))
    return G, PlantedTrace(seed=rng.seed, params={"V": trace.params["V"], "mu1": mu1, "m": m})


def _class_edge_counts(G: Graph, labels: np.ndarray, c: int):
    """(edges, pairs): symmetric (c, c) counts of G's edges and of all pairs
    by the intp classes ``labels`` in [0, c); entry (a, b) counts those
    between classes a != b, and entry (a, a) those within class a."""
    bits, row_start = G.triu_vector(), _row_starts(G.n)
    counts = np.zeros(c * c, dtype=np.int64)
    for lo in range(0, bits.size, _PAIR_CHUNK):
        _, u, v = _band_edges(row_start, lo, bits[lo:lo + _PAIR_CHUNK])
        counts += np.bincount(labels[u] * c + labels[v], minlength=c * c)
    counts, size = counts.reshape(c, c), np.bincount(labels, minlength=c)
    pairs = np.outer(size, size) - np.diag(size * (size + 1) // 2)
    return counts + counts.T - np.diag(counts.diagonal()), pairs


def semirandom_apply(G: Graph, trace: PlantedTrace, labels, rates, rng: RngStream) -> Graph:
    """Monotone adversary: remove each edge {u, v} independently at rate
    ``rates[labels[u], labels[v]]``, ``labels`` giving each of the n vertices
    a class in [0, c) and ``rates`` being a symmetric (c, c) table in [0, 1];
    edges are never added.  A nonzero rate between two vertices of
    ``trace.planted_set`` raises AdversaryViolation.  The removal uniforms
    are one draw over the pair vector, made in bands."""
    n = G.n
    try:
        rates = np.asarray(rates, dtype=float)
        c = len(rates)
    except (TypeError, ValueError):  # not numbers, or a scalar
        c = 0
    if c == 0 or rates.shape != (c, c):
        raise ParameterError("rates must be a (c, c) table of class-pair rates")
    if not ((rates >= 0) & (rates <= 1)).all():  # NaN fails both
        raise ParameterError("removal rates must be finite and lie in [0, 1]")
    if not np.array_equal(rates, rates.T):
        raise ParameterError("the rate table must be symmetric")
    labels = np.asarray(labels)
    if labels.shape != (n,) or labels.size and (
            labels.dtype.kind not in "iu" or labels.min() < 0 or labels.max() >= c):
        raise ParameterError(f"labels must be {n} integer classes in [0, {c})")
    S = [] if trace is None or trace.planted_set is None else trace.planted_set
    inside = rates[np.ix_(labels[S], labels[S])]
    if (inside[~np.eye(len(S), dtype=bool)] > 0).any():
        raise AdversaryViolation("nonzero removal rate on a planted-set-internal pair")
    top, row_start, vec = rates.max(), _row_starts(n), G.triu_vector()

    def thin(lo, hi, doubles):
        # an edge can go only if its uniform is below the largest rate
        idx, u, v = _band_edges(row_start, lo, vec[lo:hi] & (doubles < top))
        vec[lo + idx[doubles[idx] < rates[labels[u], labels[v]]]] = False

    _random_bands(rng.child("adversary").generator(), vec.size, thin)
    return Graph.from_triu(n, vec)


def corrupt_samples(X, eps: float, outlier, mode: str, rng: RngStream):
    """Corrupt rows of sample matrix X (one sample per row).

    Huber mode replaces each sample independently with probability eps by an
    outlier draw.  EpsCorruption replaces min{Binomial(n, eps), ceil(eps * n)}
    uniformly chosen samples, the bounded simulation of Huber's model by an
    eps-corruption adversary.  ``outlier(generator, count)`` must return a
    (count, d) array.
    """
    if not (0.0 <= eps < 1.0):
        raise ParameterError(f"eps must lie in [0, 1), got {eps}")
    if mode not in ("Huber", "EpsCorruption"):
        raise ParameterError(f"unknown corruption mode {mode!r}")
    X = np.array(X, dtype=float, copy=True)
    n = X.shape[0]
    g = rng.child("corrupt").generator()
    if mode == "Huber":
        idx = np.flatnonzero(g.random(n) < eps)
    else:
        count = min(int(g.binomial(n, eps)), int(np.ceil(eps * n)))
        idx = np.sort(g.choice(n, size=count, replace=False)) if count else np.empty(0, int)
    if idx.size:
        X[idx] = np.asarray(outlier(g, idx.size), dtype=float)
    return X
