"""Dense exact linear algebra over a small Galois field.

Matrices are immutable tuples of row tuples of field elements (ints), so
they hash and compare for free. Vectors are rows; a linear map with matrix
M sends v to v @ M, and the row space of M is its image. Everything here
takes the field as an explicit first argument rather than wrapping entries
in element objects: the hot paths live inside search loops.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .gf import GF

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


class SingularMatrixError(ValueError):
    """Raised when an inverse of a singular matrix is requested."""


def as_matrix(rows: Iterable[Sequence[int]]) -> Matrix:
    return tuple(tuple(r) for r in rows)


def dims(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def zeros(rows: int, cols: int) -> Matrix:
    return tuple((0,) * cols for _ in range(rows))


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def scalar_matrix(F: GF, c: int, n: int) -> Matrix:
    return tuple(tuple(c if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_add(F: GF, a: Matrix, b: Matrix) -> Matrix:
    add = F.add_table
    return tuple(tuple(add[x][y] for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(F: GF, a: Matrix, b: Matrix) -> Matrix:
    add, neg = F.add_table, F.neg_table
    return tuple(tuple(add[x][neg[y]] for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(F: GF, a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {dims(a)} @ {dims(b)}")
    add, mul = F.add_table, F.mul_table
    bt = tuple(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = add[acc][mul[x][y]]
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def vec_mat(F: GF, v: Vector, m: Matrix) -> Vector:
    if len(v) != len(m):
        raise ValueError(f"shape mismatch: len {len(v)} vs {dims(m)}")
    add, mul = F.add_table, F.mul_table
    out = [0] * (len(m[0]) if m else 0)
    for x, row in zip(v, m):
        if x:
            for j, y in enumerate(row):
                if y:
                    out[j] = add[out[j]][mul[x][y]]
    return tuple(out)


def scale_vec(F: GF, c: int, v: Vector) -> Vector:
    mul = F.mul_table
    return tuple(mul[c][x] for x in v)


def rref(F: GF, m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form: (rref matrix, rank, pivot columns)."""
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    add, mul, neg, inv = F.add_table, F.mul_table, F.neg_table, F.inv_table
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = inv[rows[r][c]]
        if pv != 1:
            rows[r] = [mul[pv][x] for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = neg[rows[i][c]]
                ri, rr = rows[i], rows[r]
                for j in range(c, ncols):
                    if rr[j]:
                        ri[j] = add[ri[j]][mul[f][rr[j]]]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return as_matrix(rows), r, tuple(pivots)


def rank(F: GF, m: Matrix) -> int:
    return rref(F, m)[1]


def row_space(F: GF, m: Matrix) -> Matrix:
    """Canonical basis of the row space: nonzero rows of the rref."""
    red, rk, _ = rref(F, m)
    return red[:rk]


def right_kernel(F: GF, m: Matrix) -> Matrix:
    """Canonical basis (as rows) of {x : m @ x^T = 0}."""
    nrows, ncols = dims(m)
    red, rk, pivots = rref(F, m)
    free = [c for c in range(ncols) if c not in pivots]
    neg = F.neg_table
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = neg[red[i][fc]]
        basis.append(tuple(v))
    return row_space(F, as_matrix(basis)) if basis else ()


def left_kernel(F: GF, m: Matrix) -> Matrix:
    """Canonical basis of {v : v @ m = 0}; dimension = rows(m) - rank(m)."""
    return right_kernel(F, transpose(m))


def mat_inv(F: GF, m: Matrix) -> Matrix:
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("inverse of a non-square matrix")
    aug = as_matrix(tuple(row) + ident_row for row, ident_row in zip(m, identity(n)))
    red, rk, _ = rref(F, aug)
    if rk < n or any(red[i][i] != 1 for i in range(n)):
        raise SingularMatrixError(f"matrix of rank {rank(F, m)} is not invertible")
    return tuple(row[n:] for row in red[:n])


def is_invertible(F: GF, m: Matrix) -> bool:
    r, c = dims(m)
    return r == c and rank(F, m) == r


def is_idempotent(F: GF, m: Matrix) -> bool:
    return mat_mul(F, m, m) == m


def in_row_space(F: GF, v: Vector, basis: Matrix) -> bool:
    """Membership test against an rref basis (no zero rows)."""
    add, mul, neg = F.add_table, F.mul_table, F.neg_table
    w = list(v)
    for row in basis:
        lead = next(j for j, x in enumerate(row) if x)
        if w[lead]:
            f = neg[w[lead]]
            for j in range(lead, len(w)):
                if row[j]:
                    w[j] = add[w[j]][mul[f][row[j]]]
    return not any(w)


def stack(*blocks: Matrix) -> Matrix:
    return tuple(row for b in blocks for row in b)


def all_matrices(F: GF, rows: int, cols: int) -> Iterator[Matrix]:
    """Every rows x cols matrix, lexicographic by flattened entries."""
    from .gf import iter_vectors

    for flat in iter_vectors(F, rows * cols):
        yield tuple(flat[i * cols : (i + 1) * cols] for i in range(rows))


def random_matrix(F: GF, rows: int, cols: int, rng) -> Matrix:
    q = F.q
    return tuple(tuple(rng.randrange(q) for _ in range(cols)) for _ in range(rows))


def random_invertible(F: GF, n: int, rng) -> Matrix:
    while True:
        m = random_matrix(F, n, n, rng)
        if rank(F, m) == n:
            return m
