"""Exact linear algebra over GF(q): echelon forms, rank, kernels, inverses."""

import random

import pytest

from projlat import parse_field
from projlat.matrices import (
    all_matrices,
    identity,
    is_invertible,
    mat_inv,
    mat_mul,
    random_invertible,
    random_matrix,
    rank,
    right_kernel,
    row_space,
    rref,
    stack,
    zeros,
)


@pytest.fixture(scope="module")
def f3():
    return parse_field("3")


@pytest.fixture(scope="module")
def f4():
    return parse_field("2^2")


def test_rref_is_idempotent_and_rank_stable(f3):
    rng = random.Random(5)
    for _ in range(50):
        m = random_matrix(f3, 3, 4, rng)
        r, rk, pivots = rref(f3, m)
        assert rref(f3, r)[0] == r
        assert rk == rank(f3, m) == len(pivots)


def test_inverse_round_trip(f3, f4):
    for F in (f3, f4):
        rng = random.Random(9)
        for n in (2, 3):
            for _ in range(25):
                m = random_invertible(F, n, rng)
                mi = mat_inv(F, m)
                assert mat_mul(F, m, mi) == identity(n)
                assert mat_mul(F, mi, m) == identity(n)


def dot(F, u, v):
    """The standard inner product of two vectors over F."""
    acc = 0
    for x, y in zip(u, v):
        acc = F.add(acc, F.mul(x, y))
    return acc


def test_right_kernel_rows_annihilated(f3):
    rng = random.Random(3)
    for _ in range(30):
        m = random_matrix(f3, 2, 4, rng)
        ker = right_kernel(f3, m)
        assert len(ker) == 4 - rank(f3, m)
        for v in ker:
            assert all(dot(f3, row, v) == 0 for row in m)


def test_rank_nullity_exhaustive_small(f3):
    for m in all_matrices(f3, 2, 2):
        r = rank(f3, m)
        assert r + len(right_kernel(f3, m)) == 2
        assert is_invertible(f3, m) == (r == 2)


def test_row_space_canonical(f3):
    s1 = row_space(f3, ((1, 2, 0), (2, 1, 0)))
    s2 = row_space(f3, ((2, 1, 0), (1, 2, 0)))
    assert s1 == s2  # canonical form independent of presentation


def test_stack_and_zeros_shapes():
    z = zeros(2, 3)
    assert len(z) == 2 and all(len(r) == 3 for r in z)
    s = stack(((1, 0),), ((0, 1),))
    assert s == ((1, 0), (0, 1))


def test_random_invertible_is_seeded(f3):
    a = random_invertible(f3, 3, random.Random(42))
    b = random_invertible(f3, 3, random.Random(42))
    assert a == b
    assert is_invertible(f3, a)
