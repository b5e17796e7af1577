"""Property tests: row reduction, inversion and field arithmetic on drawn
inputs, over fields too large for the exhaustive checks. The draws are
derandomized, so each run sees the same examples."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from projlat import parse_field  # noqa: E402
from projlat.matrices import (  # noqa: E402
    identity,
    in_row_space,
    mat_inv,
    mat_mul,
    rank,
    rref,
    stack,
)

FIELDS = {spec: parse_field(spec) for spec in ("2", "5", "2^5", "3^3", "7^2")}
FEW = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def matrices(draw, square=False):
    F = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    rows = draw(st.integers(1, 4))
    cols = rows if square else draw(st.integers(1, 4))
    entry = st.integers(0, F.q - 1)
    m = tuple(tuple(draw(entry) for _ in range(cols)) for _ in range(rows))
    return F, m


@FEW
@given(matrices())
def test_rref_is_idempotent_and_keeps_the_row_space(fm):
    F, m = fm
    red, rk, pivots = rref(F, m)
    assert rref(F, red) == (red, rk, pivots)
    basis = red[:rk]
    assert all(not any(row) for row in red[rk:])
    # reduced echelon form: each pivot column is a unit column
    for i, c in enumerate(pivots):
        assert [row[c] for row in red] == [int(i == k) for k in range(len(red))]
        assert not any(red[i][:c])
    # each row of m lies in the span of the basis, and each basis row in
    # the span of m: stacking it onto m does not raise the rank
    assert all(in_row_space(F, row, basis) for row in m)
    assert all(rank(F, stack(m, (row,))) == rank(F, m) == rk for row in basis)


@FEW
@given(matrices(square=True))
def test_inverse_is_a_left_and_right_inverse(fm):
    F, m = fm
    assume(rank(F, m) == len(m))
    inv = mat_inv(F, m)
    assert mat_mul(F, inv, m) == identity(len(m))
    assert mat_mul(F, m, inv) == identity(len(m))


@pytest.mark.parametrize("spec", ["2^5", "3^3", "7^2"])
def test_field_axioms_on_drawn_elements(spec):
    F = FIELDS[spec]
    element = st.integers(0, F.q - 1)

    @FEW
    @given(element, element, element)
    def axioms(a, b, c):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, 0) == a and F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1

    axioms()
