"""Tests for the finite-geometry incidence rotation matrices."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from avgcase.errors import ParameterError
from avgcase.geometry import build_H, enum_hyperplanes, enum_points, is_prime

GRID = [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3)]


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 97}
    for r in range(-3, 100):
        assert is_prime(r) == (r in primes or (r > 13 and all(r % f for f in range(2, r)))), r


def test_enum_points_2_2_order():
    assert_array_equal(enum_points(2, 2), [[0, 0], [0, 1], [1, 0], [1, 1]])


def test_enum_points_counts_and_zero_first():
    for r, t in GRID:
        pts = enum_points(r, t)
        assert pts.shape == (r ** t, t)
        assert not pts[0].any()  # zero vector at index 0
        assert np.unique(pts, axis=0).shape[0] == r ** t


def test_enum_points_rejects_nonprime():
    with pytest.raises(ParameterError):
        enum_points(4, 2)
    with pytest.raises(ParameterError):
        enum_points(2, 1)


def _hyperplane_sets(r, t):
    pts = enum_points(r, t)
    normals = enum_hyperplanes(r, t)
    return [set(map(tuple, pts[(normals[i] @ pts.T) % r == 0])) for i in range(len(normals))]


def test_hyperplanes_2_2_bruteforce():
    # Brute-force kernel enumeration: three planes {00,01}, {00,10}, {00,11}.
    sets = _hyperplane_sets(2, 2)
    assert len(sets) == 3
    expected = [{(0, 0), (0, 1)}, {(0, 0), (1, 0)}, {(0, 0), (1, 1)}]
    for e in expected:
        assert e in sets


def test_hyperplanes_3_2_counts():
    sets = _hyperplane_sets(3, 2)
    assert len(sets) == 4  # (9 - 1) / 2
    assert all(len(s) == 3 for s in sets)


def test_hyperplanes_contain_zero_and_sizes():
    for r, t in GRID:
        sets = _hyperplane_sets(r, t)
        assert len(sets) == (r ** t - 1) // (r - 1)
        zero = tuple([0] * t)
        for s in sets:
            assert zero in s
            assert len(s) == r ** (t - 1)


def test_pairwise_hyperplane_intersections():
    for r, t in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]:
        sets = _hyperplane_sets(r, t)
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert len(sets[i] & sets[j]) == r ** (t - 2)


def test_h_2_2_explicit():
    m = build_H(2, 2)
    assert m.shape == (3, 4)
    assert_allclose(np.abs(m), 0.5)
    assert np.all(m[:, 0] == -0.5)  # zero column entirely negative
    assert_array_equal((m[:, 1:] < 0).sum(axis=0), [1, 1, 1])
    assert_allclose(m @ m.T, np.eye(3), atol=1e-15)


def test_h_3_2_column_counts():
    H = build_H(3, 2)
    assert H.shape == (4, 9)
    neg = H < 0
    assert np.all(neg[:, 0])
    assert_array_equal(neg[:, 1:].sum(axis=0), [1] * 8)  # (3^1 - 1)/2 = 1


def test_full_grid_invariants():
    for r, t in GRID:
        H = build_H(r, t)
        vals = np.unique(H)
        scale = 1.0 / math.sqrt(r ** t * (r - 1))
        assert_allclose(vals, [(1 - r) * scale, scale], atol=1e-15)


def test_build_h_overflow_guard():
    with pytest.raises(ParameterError):
        build_H(2, 64)
