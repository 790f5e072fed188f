"""Property-based checks of the structural invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from avgcase.errors import ParameterError
from avgcase.graphs import Graph
from avgcase.kernels import tern_params_from_truncation, tern_pmf, truncate_tern
from avgcase.prob import normal_cdf
from avgcase.verify import FinitePmf, exact_tv

finite_probs = st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6)


def _pmf(values, weights):
    w = np.asarray(weights)
    w = w / w.sum()
    return FinitePmf(tuple(float(v) for v in values), tuple(w))


@given(st.floats(0.05, 0.95), st.floats(-0.2, 0.2), st.floats(-0.1, 0.1))
def test_tern_pmf_valid_or_rejected(a, mu1, mu2):
    try:
        masses = tern_pmf(a, mu1, mu2)
    except ParameterError:
        return
    assert all(m >= 0 for m in masses)
    assert abs(sum(masses) - 1.0) < 1e-12


@given(st.floats(0.1, 3.0), st.floats(1e-6, 1.0))
@settings(max_examples=60)
def test_truncation_identity_property(tau, mu):
    a, mu1, mu2 = tern_params_from_truncation(tau, mu)
    masses = tern_pmf(a, mu1, mu2)
    exact = (float(normal_cdf(-tau - mu)),
             float(normal_cdf(tau - mu) - normal_cdf(-tau - mu)),
             float(1.0 - normal_cdf(tau - mu)))
    assert max(abs(g - w) for g, w in zip(masses, exact)) < 1e-12
    assert mu1 > 0 and mu2 > 0


@given(finite_probs, finite_probs, finite_probs)
@settings(max_examples=60)
def test_exact_tv_is_a_metric(wa, wb, wc):
    values = list(range(max(len(wa), len(wb), len(wc))))
    a = _pmf(values[:len(wa)], wa)
    b = _pmf(values[:len(wb)], wb)
    c = _pmf(values[:len(wc)], wc)
    dab, dba = exact_tv(a, b), exact_tv(b, a)
    assert abs(dab - dba) < 1e-14
    assert -1e-14 <= dab <= 1.0 + 1e-14
    assert exact_tv(a, c) <= dab + exact_tv(b, c) + 1e-12
    assert exact_tv(a, a) == 0.0


@given(st.integers(2, 30), st.data())
@settings(max_examples=40)
def test_graph_edges_roundtrip(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40))
    G = Graph.from_edges(n, edges)
    assert G.edge_count == len(edges)
    for u, v in edges:
        assert G.has_edge(u, v) and G.has_edge(v, u)
    assert sorted(map(tuple, G.edges().tolist())) == sorted(edges)


@given(st.floats(0.01, 5.0), st.lists(st.floats(-10, 10), min_size=1, max_size=30))
def test_truncate_tern_range_and_monotone(tau, xs):
    out = truncate_tern(np.array(xs), tau)
    assert set(np.unique(out)).issubset({-1, 0, 1})
    order = np.argsort(xs)
    assert np.all(np.diff(out[order]) >= 0)  # monotone in x
