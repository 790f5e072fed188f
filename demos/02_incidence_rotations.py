"""The two-valued rotation matrices from hyperplanes of F_r^t.

The rotation gadget of the reductions is the incidence matrix between the
(r^t - 1)/(r - 1) hyperplanes through the origin and the r^t points of
F_r^t, rescaled to two values.  Its three load-bearing properties, checked
below: orthonormal rows, exactly two distinct entries, and an almost-exact
1/r fraction of negative entries per column (the zero-point column being the
single all-negative exception).
"""

import numpy as np

from avgcase.geometry import build_H, enum_hyperplanes, enum_points

for r, t in ((2, 2), (3, 2), (5, 2)):
    H = build_H(r, t)
    ell = H.shape[0]
    gram_err = np.max(np.abs(H @ H.T - np.eye(ell)))
    neg_counts = (H < 0).sum(axis=0)
    negative, positive = np.unique(H)
    print(f"H_{{{r},{t}}}: shape {H.shape}, values "
          f"{{{negative:+.4f}, {positive:+.4f}}}, "
          f"|Gram - I| = {gram_err:.1e}")
    print(f"  negative entries per column: zero col {neg_counts[0]} (all {ell}), "
          f"others {sorted(set(neg_counts[1:].tolist()))} "
          f"(predicted {(r ** (t - 1) - 1) // (r - 1)}); "
          f"negative fraction ~ 1/r = {neg_counts[1] / ell:.3f} vs {1 / r:.3f}")

# The underlying combinatorics for r = 2, t = 2: three hyperplanes, four points.
pts = enum_points(2, 2)
normals = enum_hyperplanes(2, 2)
print("\nF_2^2 points:", [tuple(map(int, p)) for p in pts])
for nm in normals:
    members = [tuple(map(int, p)) for p in pts if (nm @ p) % 2 == 0]
    print(f"  hyperplane with normal {tuple(map(int, nm))}: {members}")
print("\nH_{2,2} itself (a 3x4 matrix of +-1/2):")
print(build_H(2, 2))
