"""Permutation-backed maps: the permutation test behind their constructors."""

import random

import pytest

from projlat.maps import AUTO, EVEN, LatticeMap, PosetMap, is_permutation, perm_inverse


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


def test_maps_built_from_lists_keep_tuples():
    """A map given its permutation as a list stores it as a tuple, so it
    is the identity when it should be, equal to and hashing like the map
    given the tuple, and it composes and inverts with its tag."""
    m = LatticeMap([0, 1, 2], AUTO)
    assert m.perm == (0, 1, 2) and m.is_identity
    assert m == LatticeMap((0, 1, 2), AUTO) and hash(m) == hash(LatticeMap((0, 1, 2), AUTO))
    p = PosetMap([1, 2, 0], EVEN)
    assert p.perm == (1, 2, 0) and hash(p) == hash(PosetMap((1, 2, 0), EVEN))
    assert p.compose(PosetMap(perm_inverse(p.perm), EVEN)) == PosetMap((0, 1, 2), EVEN)


@pytest.mark.parametrize(
    "cls, tag", [(LatticeMap, AUTO), (PosetMap, EVEN)], ids=["lattice", "poset"]
)
def test_compose_refuses_a_map_of_another_size(cls, tag):
    """Maps of two sizes act on two structures: in either order the
    composition is refused with both sizes named, not cut to the shorter
    map or failed by an index."""
    big, small = cls((1, 0, 2), tag), cls((0, 1), tag)
    with pytest.raises(ValueError, match="^cannot compose maps of sizes 3 and 2$"):
        big.compose(small)
    with pytest.raises(ValueError, match="^cannot compose maps of sizes 2 and 3$"):
        small.compose(big)


def test_compose_refuses_a_map_of_another_class():
    """A lattice map and a poset map share no tag algebra: in either order
    the composition is refused with both classes named."""
    lat, pos = LatticeMap((1, 0), AUTO), PosetMap((1, 0), EVEN)
    with pytest.raises(TypeError, match="^cannot compose LatticeMap with PosetMap$"):
        lat.compose(pos)
    with pytest.raises(TypeError, match="^cannot compose PosetMap with LatticeMap$"):
        pos.compose(lat)
