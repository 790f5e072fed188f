"""Two-valued rotation matrices from point/hyperplane incidences in F_r^t.

For prime r and t >= 2, the matrix has one row per hyperplane through the
origin (there are (r^t - 1)/(r - 1) of them) and one column per point of
F_r^t.  Entries take the value (1 - r)/sqrt(r^t (r - 1)) when the point lies
on the hyperplane and 1/sqrt(r^t (r - 1)) otherwise.  Rows are orthonormal,
the zero-point column is entirely negative, and every other column carries
exactly (r^{t-1} - 1)/(r - 1) negative entries — the structure the rotation
steps of the reduction pipelines rely on.

Everything here is deterministic; matrices are built dense in float64 (the
two-value structure is exact by construction, not by float arithmetic).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ParameterError

__all__ = [
    "is_prime",
    "enum_points",
    "enum_hyperplanes",
    "build_H",
]


def is_prime(r: int) -> bool:
    """Deterministic trial-division primality check."""
    if r < 2:
        return False
    if r < 4:
        return True
    if r % 2 == 0:
        return False
    f = 3
    while f * f <= r:
        if r % f == 0:
            return False
        f += 2
    return True


def _check_prime_power(r: int, t: int) -> None:
    if not is_prime(r):
        raise ParameterError(f"r={r} is not prime")
    if t < 2:
        raise ParameterError(f"t={t} must be at least 2")
    if r ** t >= 2 ** 63:
        raise ParameterError(f"r^t = {r}^{t} does not fit in 64 bits")


def enum_points(r: int, t: int) -> np.ndarray:
    """All r^t points of F_r^t as an (r^t, t) array in lexicographic base-r order.

    Index 0 is the zero vector; point j has the base-r digits of j, most
    significant first.
    """
    _check_prime_power(r, t)
    idx = np.arange(r ** t)
    digits = np.empty((r ** t, t), dtype=np.int64)
    for pos in range(t - 1, -1, -1):
        digits[:, pos] = idx % r
        idx = idx // r
    return digits


def enum_hyperplanes(r: int, t: int) -> np.ndarray:
    """Canonical normal vectors of the hyperplanes through 0, as an (l, t) array.

    A hyperplane is the kernel of x -> <normal, x> mod r.  Normals are the
    nonzero vectors whose first nonzero coordinate equals 1, listed in
    lexicographic order; there are (r^t - 1)/(r - 1) of them and each
    hyperplane contains r^{t-1} points.
    """
    points = enum_points(r, t)
    nonzero = points[1:]
    first_nonzero = nonzero[np.arange(nonzero.shape[0]), (nonzero != 0).argmax(axis=1)]
    return nonzero[first_nonzero == 1]


@functools.lru_cache(maxsize=64)
def build_H(r: int, t: int) -> np.ndarray:
    """The (r^t - 1)/(r - 1) x r^t incidence rotation matrix H_{r,t}, float64.

    Results are cached; the returned array is marked read-only.
    """
    _check_prime_power(r, t)
    points = enum_points(r, t)
    normals = enum_hyperplanes(r, t)
    incident = (normals @ points.T) % r == 0
    scale = 1.0 / math.sqrt(r ** t * (r - 1))
    matrix = np.where(incident, (1.0 - r) * scale, scale)
    matrix.setflags(write=False)
    return matrix

