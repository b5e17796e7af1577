"""Permutation-backed maps: the permutation test behind their constructors."""

import random

import pytest

from projlat.maps import AUTO, EVEN, LatticeMap, PosetMap, is_permutation


def _sorted_reference(f):
    return sorted(f) == list(range(len(f)))


def test_is_permutation_agrees_with_sorting_on_numbers():
    rng = random.Random(3)
    cases = [(), (0,), (1,), (0, 0), (1, 0), (0.0, 1.0), (True, False), (0, 1, 1.0), (0, 2)]
    for size in (2, 5, 40):
        perm = list(range(size))
        rng.shuffle(perm)
        cases.append(tuple(perm))
        near = list(perm)
        near[rng.randrange(size)] = size
        cases.append(tuple(near))
        dup = list(perm)
        dup[0] = dup[-1]
        cases.append(tuple(dup))
    for f in cases:
        assert is_permutation(f) == _sorted_reference(f), f


@pytest.mark.parametrize("entries", [(0, "1"), (None, 0), ("a", "b")])
def test_entries_that_do_not_compare_are_not_permutations(entries):
    """Sorting such entries raised TypeError; set membership reads them
    as not a permutation, so the constructors raise ValueError."""
    assert not is_permutation(entries)
    with pytest.raises(ValueError, match="not a permutation"):
        PosetMap(entries, EVEN)
    with pytest.raises(ValueError, match="not a permutation"):
        LatticeMap(entries, AUTO)
