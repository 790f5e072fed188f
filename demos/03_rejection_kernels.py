"""Algorithmic change of measure: the rejection kernels.

Three gadgets: the Gaussian kernel (one biased bit -> one Gaussian), its
entrywise matrix version, and the symmetric 3-ary kernel used for the
universality reduction (three ternary input laws -> the three targets
N(shift, 1), N(-shift, 1), Q = N(0, 1)).
"""

import numpy as np
import scipy.stats as sst

from avgcase.kernels import (gaussianize, gaussianize_mu_bound,
                             rk_gauss_array, srk3_array,
                             tern_params_from_truncation, truncate_tern)
from avgcase.prob import RngStream
from avgcase.verify import empirical_tv_to_cdf

rng = RngStream(42)
p, q, n = 0.75, 0.25, 1000
mu = gaussianize_mu_bound(p, q, n, n)
print(f"Gaussian kernel at (p, q) = ({p}, {q}): proven mean bound mu = {mu:.4f} at n = {n}")

bits = (rng.child("bits").generator().random(100_000) < q).astype(np.uint8)
out = rk_gauss_array(bits, mu, p, q, 40, rng.child("rk"))
_, pval = sst.kstest(out, sst.norm.cdf)
print(f"  Bern(q) inputs -> N(0,1): KS p-value {pval:.3f}")
bits = (rng.child("bits2").generator().random(100_000) < p).astype(np.uint8)
out = rk_gauss_array(bits, mu, p, q, 40, rng.child("rk2"))
_, pval = sst.kstest(out, lambda x: sst.norm.cdf(x, loc=mu))
print(f"  Bern(p) inputs -> N(mu,1): KS p-value {pval:.3f}")

# Entrywise, at one scalar mean: a planted Bernoulli matrix becomes a Gaussian
# mean-shifted one.  Planted entries are Bern(p) draws, background entries
# Bern(q) draws; the kernel sends the former near N(mu, 1) and the latter near
# N(0, 1).
m_rows, n_cols = 120, 400
gen = rng.child("plant").generator()
M = (gen.random((m_rows, n_cols)) < q).astype(np.uint8)
M[:40, :200] = (gen.random((40, 200)) < p).astype(np.uint8)
X = gaussianize(M, p, q, 0.05, rng.child("gz"))
print(f"Gaussianize: planted-block mean {X[:40, :200].mean():+.4f} (target +0.05), "
      f"background mean {X[40:, 200:].mean():+.4f} (target 0)")

# The 3-ary kernel: ternary truncation symbols -> three Gaussian targets.
# Its inputs are drawn as the reduction makes them: truncating N(+-mu_in, 1)
# and N(0, 1) at tau = 1 gives exactly Tern(a, +-mu1, mu2) and Tern(a, 0, 0).
mu_in = 0.016
a, mu1, mu2 = tern_params_from_truncation(1.0, mu_in)
shift = 3e-4
print(f"3-srk with a = {a:.4f}, mu1 = {mu1:.5f}, mu2 = {mu2:.2e}:")
for tag, mean, loc in (("Tern(a,+mu1,mu2) -> P+", mu_in, shift),
                       ("Tern(a,-mu1,mu2) -> P-", -mu_in, -shift),
                       ("Tern(a,0,0)      -> Q ", 0.0, 0.0)):
    bits = truncate_tern(mean + rng.child("b" + tag).generator().standard_normal(200_000), 1.0)
    out, _ = srk3_array(bits[None], [shift], a, mu1, mu2, 50, rng.child("k" + tag))
    tv = empirical_tv_to_cdf(out[0], lambda u, s=loc: sst.norm.ppf(u, loc=s), 100)
    print(f"  {tag}: binned TV to target {tv:.4f}")
