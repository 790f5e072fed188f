"""Community recovery under a monotone adversary: the block-rotation route.

The reduction embeds the planted graph into blocks, rotates rows and columns
by the r = 3 incidence matrix, thresholds, and lands exactly on a four-
probability target graph law.  A semirandom adversary that thins edges at
the right rates turns an ordinary planted-dense-subgraph sample into the
same law, which is the whole point: the target sits inside the adversary's
reach, so hardness transfers to the recovery threshold.
"""

import numpy as np

from avgcase.graphs import (PlantedTrace, sample_k_pds, sample_planted_conditional,
                            semirandom_apply)
from avgcase.pipelines import pds_to_semi_cr, plan_semi_cr, semi_cr_mus
from avgcase.prob import RngStream
from avgcase.verify import (SEMI_CR_CLASSES, class_z_scores, semi_cr_class_counts,
                            semi_cr_class_probs)

p, q, N, k, ell = 1.0, 0.25, 32, 4, 2
plan = plan_semi_cr(p, q, N=N, k=k, ell=ell)
mu1, mu2, mu3 = semi_cr_mus(plan.mu, ell)
print(f"plan: m={plan.m} (embeds into {plan.m // 2} rotated vertices), "
      f"mu={plan.mu:.4f} -> mu1={mu1:.5f}, mu2=mu3={mu3:.5f}")
print(f"planted community size after rotation: {(3 ** (ell - 1) - 1) * k // 2}, "
      f"secondary set size {3 ** (ell - 1) * k}")

rng = RngStream(99)
R = 400
hits = np.zeros(4)
tots = np.zeros(4)
for i in range(R):
    G, tr = sample_k_pds(N, k, p, q, rng.child("g", i))
    G_out, otr = pds_to_semi_cr(G, plan, rng.child("r", i), trace=tr)
    h, t = semi_cr_class_counts(G_out, otr)
    hits += h
    tots += t
print("\npipeline edge-class frequencies over", R, "runs:")
probs = semi_cr_class_probs(mu1, mu2, mu3)
for name, h, t, target, z in zip(SEMI_CR_CLASSES, hits, tots, probs,
                                 class_z_scores(hits, tots, probs)):
    print(f"  {name:<12} {h / t:.5f}  target {target:.5f}  z {z:+.2f}")

# The adversary that simulates the same law from a vanilla planted instance:
# keep S^2 intact, thin S x S' at rate 2 mu2 and everything else at 2 mu1.
n_sim, kS, kS2 = 128, 4, 12
g = rng.child("latent").generator()
S = np.sort(g.choice(n_sim, kS, replace=False))
S2 = np.sort(g.choice(np.setdiff1d(np.arange(n_sim), S), kS2, replace=False))
G_pds = sample_planted_conditional(n_sim, S, 0.5 + mu3, 0.5, rng.child("pds"))
rates = np.full((n_sim, n_sim), 2 * mu1)
inS = np.zeros(n_sim, bool); inS[S] = True
inS2 = np.zeros(n_sim, bool); inS2[S2] = True
rates[np.ix_(inS, inS)] = 0.0
rates[np.ix_(inS2, inS2)] = 0.0
rates[np.ix_(inS, inS2)] = rates[np.ix_(inS2, inS)] = 2 * mu2
G_adv = semirandom_apply(G_pds, PlantedTrace(seed=0, planted_set=S), rates,
                         rng.child("apply"))
print(f"\nadversary simulation: {G_pds.edge_count} -> {G_adv.edge_count} edges; "
      f"within-S block untouched: "
      f"{all(G_adv.has_edge(int(u), int(v)) == G_pds.has_edge(int(u), int(v)) for u in S for v in S if u < v)}")
