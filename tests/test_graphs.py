"""Tests for graph types, planted samplers and adversaries."""

import itertools
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from scipy.stats import binom

from avgcase import graphs, prob
from avgcase.errors import AdversaryViolation, ParameterError
from avgcase.graphs import (Graph, PlantedTrace, corrupt_samples, read_graphv1, sample_gnq,
                            sample_k_pds, sample_planted_conditional,
                            sample_tg_h0, sample_tg_h1, semi_cr_labels, semi_cr_rates,
                            semirandom_apply, write_graphv1)
from avgcase.prob import RngStream
from avgcase.verify import chi2_test, semi_cr_class_counts


def test_graph_packing_roundtrip():
    rng = np.random.default_rng(0)
    adj = rng.random((23, 23)) < 0.4
    adj = np.triu(adj, 1)
    adj = adj | adj.T
    G = Graph.from_dense(adj)
    assert_array_equal(G.to_dense(), adj)
    for u, v in [(0, 1), (5, 9), (22, 3)]:
        assert G.has_edge(u, v) == adj[u, v]
    assert G.edge_count == int(adj.sum()) // 2
    G2 = Graph.from_edges(23, G.edges())
    assert G == G2


@given(st.integers(0, 40), st.data())
@example(0, None)
@example(1, None)
@example(2, None)
@settings(max_examples=60, deadline=None)
def test_dense_conversions_match_triu_indices_reference(n, data):
    # from_dense/to_dense walk the pairs in np.triu_indices order.
    bits = np.ones(n * (n - 1) // 2, dtype=bool) if data is None else np.array(
        data.draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2)), dtype=bool)
    iu = np.triu_indices(n, k=1)
    adj = np.zeros((n, n), dtype=bool)
    adj[iu] = bits
    adj[(iu[1], iu[0])] = bits
    G = Graph.from_triu(n, bits)
    assert_array_equal(G.to_dense(), adj)
    assert_array_equal(Graph.from_dense(adj).triu_vector(), bits)


def test_to_dense_holds_only_its_output_and_the_pair_vector():
    # No n x n mask or transposed copy beside the output: the peak is the
    # output, the unpacked pair vector and the rows' first pairs.
    n = 1500
    G = sample_gnq(n, 0.3, RngStream(4))
    tracemalloc.start()
    try:
        adj = G.to_dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_array_equal(adj[np.triu_indices(n, 1)], G.triu_vector())
    assert_array_equal(adj, adj.T)
    assert peak < n * n + n * (n - 1) // 2 + 100 * n


def test_graph_rejects_bad_adjacency():
    with pytest.raises(ParameterError):
        Graph.from_dense(np.ones((3, 3), dtype=bool))  # self loops
    asym = np.zeros((3, 3), dtype=bool)
    asym[0, 1] = True
    with pytest.raises(ParameterError):
        Graph.from_dense(asym)


def test_graphv1_roundtrip(tmp_path):
    G = sample_gnq(40, 0.3, RngStream(3))
    path = tmp_path / "g.graph"
    write_graphv1(G, path)
    assert read_graphv1(path) == G
    text = path.read_text()
    assert text.startswith(f"n=40 edges={G.edge_count}\n")


def test_graphv1_comments_and_errors(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text("# header comment\n\nn=4 edges=2\n0 1  # an edge\n\n2 3\n")
    G = read_graphv1(path)
    assert G.has_edge(0, 1) and G.has_edge(2, 3) and G.edge_count == 2
    for bad in ("n=4 edges=3\n0 1\n", "n=4 edges=1\n1 0\n", "n=3 edges=2\n0 1\n0 1\n"):
        path.write_text(bad)
        with pytest.raises(ParameterError, match="g.graph"):
            read_graphv1(path)


def test_from_edges_validates_pairs():
    assert Graph.from_edges(4, [(2, 1), (1, 2)]).edges().tolist() == [[1, 2]]
    assert Graph.from_edges(4, []).edge_count == 0
    for bad in ([(1, 1)], [(0, 4)], [(-1, 2)], [(0, 1, 2)], [(0.0, 1.5)]):
        with pytest.raises(ParameterError):
            Graph.from_edges(4, bad)


# Vertex ids on both sides of each change in digit count.
_DIGIT_EDGES = [0, 1, 8, 9, 10, 11, 98, 99, 100, 101, 998, 999, 1000, 1001,
                9998, 9999, 10000, 10001]


@st.composite
def _graph_cases(draw, max_n=10002):
    """(n, sorted distinct (u, v) pairs with u < v < n)."""
    n = draw(st.sampled_from([n for n in (2, *_DIGIT_EDGES) if n <= max_n])
             | st.integers(0, 120))
    if n < 2:
        return n, []
    ids = st.sampled_from([i for i in _DIGIT_EDGES if i < n]) | st.integers(0, n - 1)
    pairs = draw(st.sets(st.tuples(ids, ids).filter(lambda p: p[0] != p[1])
                         .map(lambda p: (min(p), max(p))), max_size=30))
    return n, sorted(pairs)


def _reference_graphv1(n, edges):
    """The GRAPHv1 bytes, one formatted line per edge."""
    lines = [f"n={n} edges={len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges]
    return "".join(lines).encode("ascii")


@given(_graph_cases())
@example((1, []))
@example((2, [(0, 1)]))
@example((10001, [(9, 10), (99, 100), (999, 1000), (9999, 10000)]))
@settings(max_examples=40, deadline=None)
def test_graphv1_bytes_match_reference_and_roundtrip(tmp_path_factory, case):
    n, edges = case
    G = Graph.from_edges(n, edges)
    path = tmp_path_factory.mktemp("g") / "g.graph"
    write_graphv1(G, path)
    assert path.read_bytes() == _reference_graphv1(n, edges)
    assert read_graphv1(path) == G


@given(_graph_cases(max_n=120), st.sampled_from([8, 16, 64]))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_graphv1_pieces_on_workers_match_reference(tmp_path_factory, monkeypatch, on_workers,
                                                   case, chunk):
    # Pieces of a few pairs on 8 workers: piece boundaries fall inside rows,
    # and rows 9/10 and 99/100 change the digit count.
    n, edges = case
    G = Graph.from_edges(n, edges)
    path = tmp_path_factory.mktemp("g") / "g.graph"
    monkeypatch.setattr(graphs, "_PAIR_CHUNK", chunk)
    on_workers(lambda: write_graphv1(G, path), 8, 8)
    assert path.read_bytes() == _reference_graphv1(n, edges)


def test_graphv1_writer_memory_bounded(tmp_path, monkeypatch):
    # The complete graph on 2,897 vertices, 4.2 M edges, with every piece the
    # pool allows in flight: the traced peak is a fixed allowance, far below
    # the graph's 40 MB of text and the 34 MB of a whole-graph edge index.
    monkeypatch.setattr(prob, "_usable_cpus", lambda: prob._MAX_IN_FLIGHT)
    n = 2897
    G = Graph.from_triu(n, np.ones(n * (n - 1) // 2, dtype=bool))
    tracemalloc.start()
    try:
        write_graphv1(G, tmp_path / "g.graph")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20
    with open(tmp_path / "g.graph", "rb") as fh:
        assert fh.readline() == f"n={n} edges={n * (n - 1) // 2}\n".encode()
        assert fh.readline() == b"0 1\n"


def test_graphv1_writer_error_stops_every_piece(tmp_path, monkeypatch, on_workers):
    # A piece that fails makes the write raise: the pieces after it neither
    # wait for it forever nor write.
    G = sample_gnq(200, 0.5, RngStream(6))
    monkeypatch.setattr(graphs, "_PAIR_CHUNK", 64)
    format_lines = graphs._format_lines
    calls = itertools.count()

    def fail_third(cells, u, v):
        if next(calls) == 2:
            raise MemoryError("the third piece")
        return format_lines(cells, u, v)

    monkeypatch.setattr(graphs, "_format_lines", fail_third)
    raised = []

    def write():
        try:
            write_graphv1(G, tmp_path / "g.graph")
        except MemoryError as exc:
            raised.append(exc)

    worker = threading.Thread(target=lambda: on_workers(write, 8, 8), daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(raised) == 1
    assert (tmp_path / "g.graph").stat().st_size < 10_000


_MUTATIONS = ["drop", "duplicate", "repeat_in_place", "swap", "id_out_of_range",
              "extra_token", "crlf", "comments"]


@given(_graph_cases(max_n=120), st.sampled_from(_MUTATIONS), st.data())
@settings(max_examples=150, deadline=None)
def test_graphv1_mutations_rejected_or_exact(tmp_path_factory, case, mutation, data):
    n, edges = case
    G = Graph.from_edges(n, edges)
    path = tmp_path_factory.mktemp("g") / "g.graph"
    write_graphv1(G, path)
    lines = path.read_text().splitlines()
    line_at = lambda lo: data.draw(st.integers(lo, len(lines) - 1))
    if mutation in ("swap", "id_out_of_range"):
        assume(edges)
        i = line_at(1)
        u, v = lines[i].split()
        lines[i] = f"{v} {u}" if mutation == "swap" else f"{u} {n + data.draw(st.integers(0, 9))}"
    elif mutation == "drop":
        del lines[line_at(0)]
    elif mutation == "duplicate":
        i = line_at(0)
        lines.insert(i, lines[i])
    elif mutation == "repeat_in_place":  # the header count still matches
        assume(len(edges) >= 2)
        i, j = line_at(1), line_at(1)
        assume(i != j)
        lines[i] = lines[j]
    elif mutation == "extra_token":
        lines[line_at(0)] += f" {data.draw(st.integers(0, n))}"
    elif mutation == "comments":
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(0, len(lines)))
            lines.insert(i, data.draw(st.sampled_from(["", "   ", "# note", "#"])))
        i = line_at(0)
        lines[i] += "  # trailing"
    text = ("\r\n" if mutation == "crlf" else "\n").join(lines) + "\n"
    path.write_bytes(text.encode("ascii"))
    if mutation in ("crlf", "comments"):
        assert read_graphv1(path) == G
        return
    try:
        back = read_graphv1(path)
    except ParameterError:
        return
    assert back == G


def test_trace_json_roundtrip(tmp_path):
    tr = PlantedTrace(seed=9, planted_set=np.array([1, 5]),
                      component_set=np.array([0, 2, 3]), params={"mu": 0.25})
    tr.write_json(tmp_path / "t.json")
    back = PlantedTrace.read_json(tmp_path / "t.json")
    assert back.seed == 9
    assert_array_equal(back.planted_set, [1, 5])
    assert_array_equal(back.component_set, [0, 2, 3])
    assert back.params == {"mu": 0.25}


def test_gnq_degenerate_and_concentration():
    assert sample_gnq(30, 0.0, RngStream(1)).edge_count == 0
    assert sample_gnq(30, 1.0, RngStream(1)).edge_count == 30 * 29 // 2
    # n=100, q=0.5: 20 exact Bin(4950, 1/2) counts, each within the law's
    # 2.5e-6 quantiles in either tail (2314 <= c <= 2636), so a correct
    # sampler fails at most 1e-4 of streams
    counts = [sample_gnq(100, 0.5, RngStream(5).child("c", i)).edge_count
              for i in range(20)]
    lo, hi = binom.ppf(2.5e-6, 4950, 0.5), binom.isf(2.5e-6, 4950, 0.5)
    assert all(lo <= c <= hi for c in counts)


def test_samplers_draw_pairs_in_bands_with_the_one_shot_bytes(monkeypatch):
    # The pair uniforms come in 13 bands of at most 64 doubles; the bytes,
    # and every draw a sampler makes after them, are those of the one-shot
    # draw g.random(pairs) < q.
    monkeypatch.setattr(prob, "_BAND", 64)
    n, p, q = 40, 0.9, 0.3
    pairs = n * (n - 1) // 2
    g = RngStream(5).child("gnq").generator()
    assert sample_gnq(n, q, RngStream(5)) == Graph.from_triu(n, g.random(pairs) < q)
    S = np.array([3, 17, 29])
    g = RngStream(6).child("planted").generator()
    vec = g.random(pairs) < q
    graphs._plant_dense(vec, n, S, p, g)
    assert sample_planted_conditional(n, S, p, q, RngStream(6)) == Graph.from_triu(n, vec)
    # the planted vertices are the generator's next draws after the pairs
    g = RngStream(7).child("kpds").generator()
    vec = g.random(pairs) < q
    S = np.array([i * 10 + g.integers(10) for i in range(4)])
    graphs._plant_dense(vec, n, S, p, g)
    G, tr = sample_k_pds(n, 4, p, q, RngStream(7))
    assert G == Graph.from_triu(n, vec) and tr.planted_set.tolist() == sorted(S)


def test_k_pds_degenerate_clique():
    G, tr = sample_k_pds(20, 4, 1.0, 0.0, RngStream(2))
    S = tr.planted_set
    expected = Graph.from_edges(20, [(int(u), int(v)) for i, u in enumerate(S)
                                     for v in S[i + 1:]])
    assert G == expected
    assert sorted(S // 5) == [0, 1, 2, 3]  # one per part [5i, 5i + 5)


def test_k_pds_parameter_errors():
    with pytest.raises(ParameterError):
        sample_k_pds(20, 4, 0.2, 0.5, RngStream(0))  # p <= q
    for N, k in ((20, 3), (20, 0), (20, -4), (4, 8), (0, 1), (-4, 4)):
        with pytest.raises(ParameterError, match="must divide"):
            sample_k_pds(N, k, 0.9, 0.1, RngStream(0))


def test_k_pds_conditional_marginals():
    # Conditioned on the trace, within-S pairs are Bern(p) and the others
    # Bern(q); chi-square over resamples of the graph with S read per run.
    N, k, p, q = 40, 4, 0.9, 0.2
    trials = 4000
    in_hits = in_tot = out_hits = out_tot = 0
    for i in range(trials):
        G, tr = sample_k_pds(N, k, p, q, RngStream(6).child("t", i))
        S = tr.planted_set
        dense = G.to_dense()
        inS = dense[np.ix_(S, S)][np.triu_indices(k, 1)]
        in_hits += int(inS.sum())
        in_tot += inS.size
        other = int(np.setdiff1d(np.arange(N), S)[0])
        out_hits += int(dense[int(S[0]), other])
        out_tot += 1
    for hits, tot, prob in ((in_hits, in_tot, p), (out_hits, out_tot, q)):
        stat, pval = chi2_test(np.array([tot - hits, hits]),
                               np.array([tot * (1 - prob), tot * prob]))
        assert pval > 1e-4, (hits / tot, prob)


def test_planted_conditional_degenerates():
    S = [2, 5, 7]
    G = sample_planted_conditional(10, S, 1.0, 0.0, RngStream(4))
    assert G.edge_count == 3 and G.has_edge(2, 5) and G.has_edge(2, 7) and G.has_edge(5, 7)
    with pytest.raises(ParameterError):
        sample_planted_conditional(10, [2, 11], 0.9, 0.1, RngStream(4))


def test_tg_h1_zero_mus_is_uniform():
    G, _ = sample_tg_h1(60, 4, 8, 30, 0.0, 0.0, 0.0, RngStream(8))
    # edge count concentrates around half the pairs
    pairs = 60 * 59 / 2
    assert abs(G.edge_count - pairs / 2) < 4 * math.sqrt(pairs * 0.25)


def test_tg_h1_class_marginals():
    # inside-S edges Bern(1/2 + mu3), S x S' edges Bern(1/2 - mu2)
    mu1, mu2, mu3 = 0.02, 0.05, 0.10
    hit_s = tot_s = hit_x = tot_x = 0
    for i in range(400):
        G, tr = sample_tg_h1(40, 4, 6, 20, mu1, mu2, mu3, RngStream(9).child("t", i))
        dense = G.to_dense()
        S = tr.planted_set
        S2 = np.asarray(tr.params["S_prime"])
        blk = dense[np.ix_(S, S)][np.triu_indices(4, 1)]
        hit_s += int(blk.sum())
        tot_s += blk.size
        cross = dense[np.ix_(S, S2)]
        hit_x += int(cross.sum())
        tot_x += cross.size
    z_s = (hit_s / tot_s - (0.5 + mu3)) / math.sqrt(0.25 / tot_s)
    z_x = (hit_x / tot_x - (0.5 - mu2)) / math.sqrt(0.25 / tot_x)
    assert abs(z_s) < 4 and abs(z_x) < 4


def test_tg_h0_marginals():
    G, tr = sample_tg_h0(50, 20, 0.0, RngStream(10))
    assert 0 <= G.edge_count <= 50 * 49 / 2
    hits = tot = 0
    for i in range(300):
        G, tr = sample_tg_h0(30, 12, 0.15, RngStream(12).child("h", i))
        V = np.asarray(tr.params["V"])
        blk = G.to_dense()[np.ix_(V, V)][np.triu_indices(12, 1)]
        hits += int(blk.sum())
        tot += blk.size
    z = (hits / tot - 0.35) / math.sqrt(0.35 * 0.65 / tot)
    assert abs(z) < 4


def test_semirandom_monotone_and_protected():
    G, tr = sample_k_pds(20, 4, 1.0, 0.5, RngStream(13))
    n = G.n
    S = tr.planted_set
    in_S = np.zeros(n, dtype=int)  # class 1 is the planted set
    in_S[S] = 1
    out = semirandom_apply(G, tr, in_S, np.zeros((2, 2)), RngStream(14))
    assert out == G  # all rates zero: unchanged
    # removal is always a subset of the input edge set
    out = semirandom_apply(G, tr, in_S, [[0.7, 0.7], [0.7, 0.0]], RngStream(15))
    assert np.all(out.triu_vector() <= G.triu_vector())
    # planted-internal edges survive
    assert all(out.has_edge(int(u), int(v)) for i, u in enumerate(S) for v in S[i + 1:])
    # a rate-1 non-planted edge is removed for sure
    u, v = (int(x) for x in np.setdiff1d(np.arange(n), S)[:2])
    ends = np.zeros(n, dtype=int)
    ends[u], ends[v] = 1, 2
    rates1 = np.zeros((3, 3))
    rates1[1, 2] = rates1[2, 1] = 1.0
    out = semirandom_apply(G, tr, ends, rates1, RngStream(16))
    assert not out.has_edge(u, v)
    # nonzero rate on a protected pair, within one class or between two
    with pytest.raises(AdversaryViolation):
        semirandom_apply(G, tr, in_S, [[0.0, 0.0], [0.0, 0.5]], RngStream(17))
    split = in_S.copy()
    split[S[0]] = 2
    with pytest.raises(AdversaryViolation):
        semirandom_apply(G, tr, split, rates1 * 0.5, RngStream(17))
    # one planted vertex alone in its class protects no pair
    semirandom_apply(G, tr, split, [[0.5, 0.5, 0.5], [0.5, 0.0, 0.0], [0.5, 0.0, 0.5]],
                     RngStream(17))


def _semirandom_apply_n_by_n(G, trace, removal_prob, rng):
    """The adversary as it was over an (n, n) array of per-pair rates, kept as
    the oracle of the class-rate one."""
    n = G.n
    rates = np.asarray(removal_prob, dtype=float)
    g = rng.child("adversary").generator()
    vec = G.triu_vector()
    pair_rates = np.maximum(rates, rates.T)[np.triu(np.ones((n, n), dtype=bool), 1)]
    vec &= ~(g.random(vec.size) < np.where(vec, pair_rates, 0.0))
    return Graph.from_triu(n, vec)


@pytest.mark.parametrize("n, c, table", [
    (0, 1, "random"), (1, 2, "random"), (2, 2, "random"), (40, 3, "random"),
    (40, 3, "zero"), (40, 3, "one pair"),
    (1200, 4, "random"),  # 719,400 pairs: three bands of uniforms
])
def test_semirandom_apply_matches_the_n_by_n_adversary(n, c, table, on_workers):
    # Equal per-pair rates give the same graph bit for bit: the same uniforms
    # of the "adversary" stream, compared with the same rates.
    G = sample_gnq(n, 0.5, RngStream(30))
    gen = np.random.default_rng(n)
    labels = gen.integers(0, c, n)
    rates = gen.random((c, c))
    rates = (rates + rates.T) / 2
    if table == "zero":
        rates[:] = 0.0
    elif table == "one pair":  # one edge, alone in its class pair, at rate 1
        u, v = (int(x) for x in G.edges()[0])
        labels = np.zeros(n, dtype=int)
        labels[u], labels[v] = 1, 2
        rates = np.zeros((3, 3))
        rates[1, 2] = rates[2, 1] = 1.0
    out = on_workers(lambda: semirandom_apply(G, None, labels, rates, RngStream(31)), 4, 4)
    assert out == _semirandom_apply_n_by_n(G, None, rates[np.ix_(labels, labels)],
                                           RngStream(31))
    if table == "zero":
        assert out == G
    elif table == "one pair":
        assert out.edge_count == G.edge_count - 1 and not out.has_edge(u, v)


@pytest.mark.parametrize("labels, rates, says", [
    (None, np.full((2, 2), np.nan), "finite"),  # would remove nothing
    (None, [[0.0, np.inf], [np.inf, 0.0]], "finite"),
    (None, [[0.0, 0.2], [0.5, 0.0]], "symmetric"),  # would use max(r_uv, r_vu)
    (None, [[0.0, -0.1], [-0.1, 0.0]], "[0, 1]"),
    (None, [[0.0, 1.5], [1.5, 0.0]], "[0, 1]"),
    (None, lambda i, j: 0.0, "table"),
    (None, {"rate": 0.0}, "table"),
    (None, "0.5", "table"),
    (None, [0.5, 0.5], "table"),
    (None, np.zeros((2, 3)), "table"),
    (None, np.zeros((0, 0)), "table"),
    (np.zeros(19, dtype=int), np.zeros((2, 2)), "20 integer classes"),
    (np.zeros(20), np.zeros((2, 2)), "20 integer classes"),
    (np.zeros(20, dtype=bool), np.zeros((2, 2)), "20 integer classes"),
    (np.full(20, 2), np.zeros((2, 2)), "20 integer classes in [0, 2)"),
    (np.full(20, -1), np.zeros((2, 2)), "20 integer classes"),
])
def test_semirandom_apply_checks_its_classes(labels, rates, says):
    G, tr = sample_k_pds(20, 4, 1.0, 0.5, RngStream(13))
    labels = np.zeros(20, dtype=int) if labels is None else labels
    with pytest.raises(ParameterError, match=re.escape(says)):
        semirandom_apply(G, tr, labels, rates, RngStream(18))


def test_target_laws_hold_no_n_by_n_array(monkeypatch):
    # At n = 2000 an (n, n) float64 array is 30.5 MB, and the n x n samplers
    # traced 65 MB (tg h1) and the float64 class counter 34.5 MB.  The pair
    # vector as bool is 1.9 MB; the bound leaves room for it, its packed
    # copies and the 2 MB of uniforms of every band in flight on the widest
    # pool.  The adversary also holds the coordinates of the edges whose
    # uniform falls below its largest rate, so it runs at the sampler's rates.
    monkeypatch.setattr(prob, "_usable_cpus", lambda: prob._MAX_IN_FLIGHT)
    n, bound, mu = 2000, 16 * 2 ** 20, (0.01, 0.02, 0.03)
    G, tr = sample_tg_h1(n, 8, 24, 1000, *mu, RngStream(32))
    labels = semi_cr_labels(n, tr.params["V"], tr.params["S_prime"], tr.planted_set)
    for run in (lambda: sample_tg_h1(n, 8, 24, 1000, *mu, RngStream(33)),
                lambda: sample_tg_h0(n, 1000, mu[0], RngStream(34)),
                lambda: semirandom_apply(G, tr, labels, semi_cr_rates(*mu[:2]), RngStream(35)),
                lambda: semi_cr_class_counts(G, tr)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, peak


def test_corrupt_samples_modes():
    X = np.zeros((400, 3))
    outlier = lambda gen, count: 100.0 + gen.standard_normal((count, 3))
    same = corrupt_samples(X, 0.0, outlier, "Huber", RngStream(18))
    assert_array_equal(same, X)
    # Huber replacement count is Binomial(n, eps)-consistent over repeats
    counts = []
    for i in range(300):
        Y = corrupt_samples(X, 0.2, outlier, "Huber", RngStream(19).child("h", i))
        counts.append(int((Y[:, 0] > 50).sum()))
    z = (np.mean(counts) - 80) / (math.sqrt(400 * 0.2 * 0.8) / math.sqrt(300))
    assert abs(z) < 4
    # eps-corruption never exceeds ceil(eps n)
    for i in range(50):
        Y = corrupt_samples(X, 0.13, outlier, "EpsCorruption", RngStream(20).child("e", i))
        assert int((Y[:, 0] > 50).sum()) <= math.ceil(0.13 * 400)
    with pytest.raises(ParameterError):
        corrupt_samples(X, 1.0, outlier, "Huber", RngStream(21))
