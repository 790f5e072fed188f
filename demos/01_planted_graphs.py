"""Sampling the graph hypotheses and playing the adversaries.

Walks through the ambient law G(n, q), the k-partite planted dense subgraph,
the target graph laws produced by the community-recovery reduction, and the
two corruption models on sample sets.
"""

import numpy as np

from avgcase.graphs import (corrupt_samples, sample_gnq, sample_k_pds,
                            sample_tg_h1, semirandom_apply)
from avgcase.prob import RngStream

rng = RngStream(7)

# Ambient Erdos-Renyi noise.
G = sample_gnq(200, 0.5, rng.child("ambient"))
print(f"G(200, 1/2): {G.edge_count} edges (expect ~{int(0.5 * 199 * 100)})")

# A planted dense subgraph with the k-partite promise: one planted vertex in
# each of the k parts [i N/k, (i+1) N/k).  The trace carries the ground truth for verification;
# reductions never look at it.
N, k = 40, 4
G, trace = sample_k_pds(N, k, p=0.9, q=0.2, rng=rng.child("planted"))
S = trace.planted_set
dense = G.to_dense()
within = dense[np.ix_(S, S)][np.triu_indices(k, 1)].mean()
print(f"k-PDS planted set {list(map(int, S))}: within-S edge frequency {within:.2f} "
      f"(p = 0.9), ambient density {G.edge_count / (N * (N - 1) / 2):.2f}")

# The four-probability target law of the community-recovery reduction.
G, tr = sample_tg_h1(300, 24, 40, 150, mu1=0.02, mu2=0.05, mu3=0.10,
                     rng=rng.child("tg"))
S = tr.planted_set
blk = G.to_dense()[np.ix_(S, S)]
print(f"tg_h1 within-S frequency {blk[np.triu_indices(24, 1)].mean():.3f} "
      f"(target 1/2 + mu3 = 0.6)")

# A semirandom (monotone) adversary may thin edges outside the planted set
# but can never touch planted-internal pairs.
rates = np.full((300, 300), 0.3)
rates[np.ix_(S, S)] = 0.0
G_adv = semirandom_apply(G, tr, rates, rng.child("adv"))
print(f"monotone adversary: {G.edge_count} -> {G_adv.edge_count} edges, "
      f"planted block intact: "
      f"{all(G_adv.has_edge(int(u), int(v)) == G.has_edge(int(u), int(v)) for u in S for v in S if u < v)}")

# Huber contamination of a Gaussian sample set.
X = rng.child("data").generator().standard_normal((1000, 5))
outlier = lambda gen, c: 10.0 + gen.standard_normal((c, 5))
Y = corrupt_samples(X, 0.1, outlier, "Huber", rng.child("huber"))
frac = float((np.abs(Y).max(axis=1) > 5).mean())
print(f"Huber eps=0.1 contamination: {frac:.3f} of samples replaced (expect ~0.1)")
