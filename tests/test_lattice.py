"""Subspace lattices: counts, order structure, and the geometric-lattice
battery (complements, modularity, covering, dimension law)."""

import copy
import random
from itertools import product

import pytest

from projlat import (
    AmbientTooLarge,
    check_g_lattice_properties,
    enumerate_subspaces,
    gaussian_binomial,
    parse_field,
    subspace_count_total,
)
from projlat.autos import FalsificationError, lattice_search_plan, poset_search_plan
from projlat.lattice import (
    FiniteOrder,
    Subspace,
    _bits as lattice_bits,
    atom_masks,
    down_masks,
    order_is_atom_inclusion,
    point_vectors,
)
from projlat.matrices import (
    as_matrix,
    in_row_space,
    left_kernel,
    row_space,
    stack,
    vec_mat,
)


# Reference operations on subspaces, computed from the RREF bases alone.


class AmbientMismatch(ValueError):
    """Raised when operands live over different ambients."""


def _same_ambient(a: Subspace, b: Subspace) -> None:
    if a.field != b.field or a.n != b.n:
        raise AmbientMismatch(f"{a!r} vs {b!r}")


def subspace_leq(a: Subspace, b: Subspace) -> bool:
    _same_ambient(a, b)
    return all(in_row_space(a.field, row, b.basis) for row in a.basis)


def subspace_join(a: Subspace, b: Subspace) -> Subspace:
    _same_ambient(a, b)
    return Subspace(a.field, a.n, row_space(a.field, stack(a.basis, b.basis)))


def subspace_meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection: combinations u@A = -v@B read off the stacked left kernel."""
    _same_ambient(a, b)
    F = a.field
    if not a.basis or not b.basis:
        return Subspace.zero(F, a.n)
    combined = stack(a.basis, b.basis)
    ker = left_kernel(F, combined)
    da = len(a.basis)
    rows = [vec_mat(F, k[:da], a.basis) for k in ker]
    return Subspace(F, a.n, row_space(F, as_matrix(rows)))


def test_counts_match_gaussian_binomials(L32, L23, L34):
    for L, q in ((L32, 2), (L23, 3), (L34, 4)):
        for d in range(L.n + 1):
            assert len(L.dim_index.get(d, [])) == gaussian_binomial(L.n, d, q)
        assert L.size == subspace_count_total(L.n, q)


def test_frozen_small_counts(L22, L32, L42, L33):
    # independent closed-form values, spot-frozen
    assert L22.size == 5  # 0, three lines, plane
    assert L32.size == 16  # 1 + 7 + 7 + 1
    assert L42.size == 67  # 1 + 15 + 35 + 15 + 1
    assert L33.size == 28  # 1 + 13 + 13 + 1


def test_meet_join_against_definitions(L32):
    L = L32
    for i in range(L.size):
        for j in range(L.size):
            m = L.glb_idx(i, j)
            assert L.leq_idx(m, i) and L.leq_idx(m, j)
            jn = L.lub_idx(i, j)
            assert L.leq_idx(i, jn) and L.leq_idx(j, jn)
            # meet is the greatest lower bound
            for k in range(L.size):
                if L.leq_idx(k, i) and L.leq_idx(k, j):
                    assert L.leq_idx(k, m)
                if L.leq_idx(i, k) and L.leq_idx(j, k):
                    assert L.leq_idx(jn, k)


@pytest.mark.parametrize("ambient", ["L32", "L23", "L34"])
def test_tables_against_rref_oracle(ambient, request):
    """Order, meet and join against subspace_leq, subspace_meet and
    subspace_join, which compute from the RREF bases alone, on every pair."""
    L = request.getfixturevalue(ambient)
    els = L.elements
    for i in range(L.size):
        for j in range(L.size):
            assert L.leq_idx(i, j) == subspace_leq(els[i], els[j])
            assert els[L.glb_idx(i, j)] == subspace_meet(els[i], els[j])
            assert els[L.lub_idx(i, j)] == subspace_join(els[i], els[j])


@pytest.mark.parametrize("n, spec", [(4, "2"), (3, "5"), (2, "8"), (3, "2^3")])
def test_order_against_pairwise_containment(n, spec):
    """L's up-sets, built from point incidences, against subspace_leq, one
    row reduction per basis row, on every pair: over GF(5), over GF(8) in
    dimensions 2 and 3, and at (4,2), the ambient of the main theorem's
    campaigns."""
    L = enumerate_subspaces(n, parse_field(spec))
    els = L.elements
    assert L.up_masks == [
        sum(1 << j for j, t in enumerate(els) if subspace_leq(s, t)) for s in els
    ]


@pytest.mark.parametrize(
    "n, spec",
    [(1, "2"), (2, "2"), (2, "3"), (3, "2"), (3, "3"), (4, "2"), (3, "2^2"), (3, "4"),
     (2, "8"), (3, "5"), (4, "3"), (3, "2^3"), (5, "2"), (6, "2")],
)
def test_down_sets_from_lower_covers_match_the_pairwise_reading(n, spec):
    """L's down-sets, filled dimension by dimension from the lower covers,
    are its up-sets read downward one comparable pair at a time
    (lattice.down_masks), at the Tier-1 ambients and at (6,2), 2 825
    elements."""
    L = enumerate_subspaces(n, parse_field(spec))
    assert L.down_masks == down_masks(L.up_masks)


@pytest.mark.parametrize("n, spec", [(3, "2"), (2, "5"), (3, "2^2"), (4, "3")])
def test_point_vectors_are_one_per_point_of_each_element(n, spec):
    """Each element of dimension d yields (q^d - 1)/(q - 1) distinct
    vectors, each in its span, each leading with 1 and each the key of a
    point in point_index."""
    F = parse_field(spec)
    L = enumerate_subspaces(n, F)
    for s in L.elements:
        vectors = list(point_vectors(F, s.basis))
        assert len(set(vectors)) == len(vectors) == (F.q**s.dim - 1) // (F.q - 1)
        for v in vectors:
            assert next(x for x in v if x) == 1
            assert v in L.point_index
            assert in_row_space(F, v, s.basis)


def test_atomistic(L32, L23):
    assert L32.verify_atomistic()
    assert L23.verify_atomistic()


def _order(up):
    """A bare FiniteOrder from its up-sets."""
    order = FiniteOrder()
    order.up_masks, order.down_masks = up, down_masks(up)
    return order


# the pentagon N5, elements 0, p, c, q, 1 with 0 < p < c < 1 and 0 < q < 1,
# and the diamond M3, elements 0, r, s, t, 1 with 0 < r, s, t < 1
N5 = _order([0b11111, 0b10110, 0b10100, 0b11000, 0b10000])
M3 = _order([0b11111, 0b10010, 0b10100, 0b11000, 0b10000])


def _modular_pair_failures(order):
    """Reference: the ordered pairs (a, b) failing (a,b)M, (x v a) ^ b ==
    x v (a ^ b) for every x <= b, and those failing (a,b)M*, (x ^ a) v b
    == x ^ (a v b) for every x >= b, with every meet and join found by
    walking the common bounds."""
    up, down = order.up_masks, order.down_masks
    size = len(up)

    def least(masks, i, j):
        common = masks[i] & masks[j]
        (m,) = [k for k in range(size) if common >> k & 1 and common & ~masks[k] == 0]
        return m

    def join(i, j):
        return least(up, i, j)

    def meet(i, j):
        return least(down, i, j)

    pairs = [(a, b) for a in range(size) for b in range(size)]
    below = [[x for x in range(size) if down[b] >> x & 1] for b in range(size)]
    above = [[x for x in range(size) if up[b] >> x & 1] for b in range(size)]
    not_m = [
        (a, b) for a, b in pairs
        if any(meet(join(x, a), b) != join(x, meet(a, b)) for x in below[b])
    ]
    not_m_star = [
        (a, b) for a, b in pairs
        if any(join(meet(x, a), b) != meet(x, join(a, b)) for x in above[b])
    ]
    return not_m, not_m_star


@pytest.mark.parametrize("name", ["N5", "M3", "L32", "L23"])
def test_modular_pair_predicates_match_their_definitions(name, request):
    """The modular-pair predicate, which walks one interval, agrees with
    (a,b)M on every ordered pair, and read on the dual with (a,b)M*."""
    order = {"N5": N5, "M3": M3}.get(name) or request.getfixturevalue(name)
    pairs = [(a, b) for a in range(len(order.up_masks)) for b in range(len(order.up_masks))]
    not_m, not_m_star = _modular_pair_failures(order)
    assert [p for p in pairs if not order.is_modular_pair_idx(*p)] == not_m
    assert [p for p in pairs if not order.dual.is_modular_pair_idx(*p)] == not_m_star


def test_pentagon_has_one_pair_failing_each_predicate():
    """In N5 only (q, c) fails M: p v q = 1, so (p v q) ^ c = c, while
    p v (q ^ c) = p. Only (q, p) fails M*: (c ^ q) v p = p, while
    c ^ (q v p) = c. The diamond M3 is modular, so every pair passes."""
    p, c, q = 1, 2, 3
    pairs = [(a, b) for a in range(5) for b in range(5)]
    assert [x for x in pairs if not N5.is_modular_pair_idx(*x)] == [(q, c)]
    assert [x for x in pairs if not N5.dual.is_modular_pair_idx(*x)] == [(q, p)]
    assert _modular_pair_failures(N5) == ([(q, c)], [(q, p)])
    assert _modular_pair_failures(M3) == ([], [])


def _atomistic_by_pairs(up, atoms, stored):
    """Reference: the pairwise check the shared one replaced. Distinct atom
    sets, equal to the stored ones, and i <= j iff the atoms below i are
    all below j, on every pair; and the atoms minimal: distinct elements,
    with nothing strictly below one but an element below everything that
    is not an atom."""
    size = len(up)
    am = [sum(1 << t for t, a in enumerate(atoms) if up[a] >> i & 1) for i in range(size)]
    if am != stored or len(set(am)) != size or len(set(atoms)) != len(atoms):
        return False
    everything = (1 << size) - 1
    if any(
        i != a and up[i] >> a & 1 and (i in atoms or up[i] != everything)
        for a in atoms
        for i in range(size)
    ):
        return False
    return all(
        bool(up[i] >> j & 1) == (am[i] & ~am[j] == 0)
        for i in range(size)
        for j in range(size)
    )


def _small_cases(rng):
    """(up, atoms, stored) on small element sets: on two elements every
    relation, list of up to two atoms and stored table; on three every
    relation and list of up to three atoms, and on four 3 000 seeded
    relations with one seeded list each, each with the atom sets the
    relation gives and with one seeded table."""
    for size in (2, 3, 4):
        lists = [list(p) for k in range(min(size, 3) + 1) for p in product(range(size), repeat=k)]
        ups = range(1 << size * size) if size < 4 else [rng.getrandbits(16) for _ in range(3000)]
        for bits in ups:
            up = [bits >> (size * i) & ((1 << size) - 1) for i in range(size)]
            for atoms in lists if size < 4 else [rng.choice(lists)]:
                yield up, atoms, atom_masks(up, atoms)
                sets = 1 << len(atoms)
                tables = sets**size
                for t in range(tables) if size == 2 else [rng.randrange(tables)]:
                    yield up, atoms, [t // sets**i % sets for i in range(size)]


def test_atomistic_check_matches_pairwise_reference_on_every_small_table():
    """The check and the reference agree on every case of _small_cases,
    and both accept and refuse."""
    cases = list(_small_cases(random.Random(18)))
    verdicts = set()
    for up, atoms, stored in cases:
        got = order_is_atom_inclusion(up, atoms, stored)
        assert got is _atomistic_by_pairs(up, atoms, stored), (up, atoms, stored)
        verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("ambient", ["23", "32", "42"])
def test_atomistic_check_matches_pairwise_reference(ambient, request, monkeypatch):
    """order_is_atom_inclusion, behind both verify_atomistic methods, agrees
    with the pairwise reference on L and P, on corrupted up-mask tables of
    each (with the atom sets they give), and on a stored atom-set table off
    by one bit, which both verify_atomistic methods then refuse."""
    for S in (request.getfixturevalue("L" + ambient), request.getfixturevalue("P" + ambient)):
        up, atoms, stored = S.up_masks, S.atoms, S.elem_atom_masks
        assert S.verify_atomistic() is True
        assert order_is_atom_inclusion(up, atoms, stored) is True
        assert _atomistic_by_pairs(up, atoms, stored) is True
        x = atoms[0]
        corrupted = []
        for i in (x, S.size // 2, S.top):
            bad = list(up)
            bad[i] &= ~(1 << i)  # a dropped reflexive bit
            corrupted.append(bad)
        bad = list(up)
        bad[S.top] |= 1 << x  # a spurious comparability: top <= x
        corrupted.append(bad)
        for bad in corrupted:
            derived = atom_masks(bad, atoms)
            assert order_is_atom_inclusion(bad, atoms, derived) is False
            assert _atomistic_by_pairs(bad, atoms, derived) is False
        off = list(stored)
        off[S.top] ^= 1
        assert order_is_atom_inclusion(up, atoms, off) is _atomistic_by_pairs(up, atoms, off) is False
        monkeypatch.setattr(S, "elem_atom_masks", off)
        assert S.verify_atomistic() is False
        monkeypatch.undo()


def test_atomistic_check_refuses_a_chain():
    """In the 3-chain 0 < 1 < 2 with atom 1, elements 1 and 2 lie above the
    same atoms, so the order is not atom-set inclusion; nor is it when 2 is
    also made <= 1, where only the distinct-atom-sets condition fails.
    With atoms 1 and 2 the order is inclusion of distinct atom sets, but 2
    lies above 1 and covers no least element: refused as well."""
    for up, atoms in (([0b111, 0b110, 0b100], [1]), ([0b111, 0b110, 0b110], [1]),
                      ([0b111, 0b110, 0b100], [1, 2])):
        derived = atom_masks(up, atoms)
        assert order_is_atom_inclusion(up, atoms, derived) is False
        assert _atomistic_by_pairs(up, atoms, derived) is False


def test_atom_list_naming_a_non_minimal_element_is_refused(L32, P32):
    """L32 and P32 with one grade-2 element added to their atoms, and the
    atom sets that list gives: the order is still inclusion of distinct
    atom sets, but that element is not minimal, so verify_atomistic and
    both search plans refuse it."""
    for S, plan in ((L32, lattice_search_plan), (P32, poset_search_plan)):
        grade = S.dims if S is L32 else S.grade
        bad = copy.copy(S)
        for kept in ("atomistic", "_auto_search_cache", "atom_ordinal"):
            bad.__dict__.pop(kept, None)
        bad.atoms = S.atoms + [grade.index(2)]
        bad.elem_atom_masks = atom_masks(S.up_masks, bad.atoms)
        assert len(set(bad.elem_atom_masks)) == S.size
        assert bad.verify_atomistic() is False
        with pytest.raises(FalsificationError, match="not atomistic"):
            plan(bad)
        assert not hasattr(bad, "_auto_search_cache")


def test_hyperplane_criterion(L32):
    """Coatoms are exactly the kernels of nonzero linear functionals: there
    are as many as atoms, and every element is a meet of the coatoms above
    it (the dual of atomisticity for a modular complemented lattice)."""
    L = L32
    assert len(L.coatoms) == len(L.atoms)
    for i in range(L.size):
        above = [c for c in L.coatoms if L.leq_idx(i, c)]
        acc = L.top
        for c in above:
            acc = L.glb_idx(acc, c)
        assert acc == i


def test_g_lattice_battery(L22, L32, L23, L33):
    for L in (L22, L32, L23, L33):
        rep = check_g_lattice_properties(L)
        assert rep.passed, rep.checks


def _covering_reference(L):
    """Reference: the covering and dual covering loops as
    check_g_lattice_properties ran them on L before it ran one loop on L
    and on L.dual, as (ok, detail) pairs."""
    cov_bad = [
        (p, a)
        for p in L.atoms
        for a in range(L.size)
        if L.glb_idx(a, p) == L.bottom and not L.covers_idx(a, L.lub_idx(a, p))
    ]
    dual_cov_bad = [
        (h, a)
        for h in L.coatoms
        for a in range(L.size)
        if L.lub_idx(a, h) == L.top and not L.covers_idx(L.glb_idx(a, h), a)
    ]
    return {
        "covering_property": (
            not cov_bad, f"violations={cov_bad[:3]}" if cov_bad else "all atom joins cover"
        ),
        "dual_covering_property": (
            not dual_cov_bad,
            f"violations={dual_cov_bad[:3]}" if dual_cov_bad else "all coatom meets cover",
        ),
    }


def _covering_checks(L):
    rep = check_g_lattice_properties(L)
    return {name: (ok, detail) for name, ok, detail in rep.checks if "covering" in name}


def test_covering_checks_match_reference_where_they_fail(L32):
    """L32 with a line added to its atoms and a point to its coatoms: the
    join of that line with a point off it is the top, which covers no
    point, and the meet of that point with a line off it is the bottom,
    which no line covers. Both checks fail, and each gives the ok flag
    and detail of the reference loops, as on L32 itself, where both hold."""
    bad = copy.copy(L32)
    bad.__dict__.pop("dual", None)
    bad.atoms = L32.atoms + [L32.dim_index[2][0]]
    bad.coatoms = L32.coatoms + [L32.dim_index[1][0]]
    assert _covering_checks(L32) == _covering_reference(L32)
    assert all(ok for ok, _ in _covering_checks(L32).values())
    got = _covering_checks(bad)
    assert got == _covering_reference(bad)
    assert not any(ok for ok, _ in got.values())


@pytest.mark.parametrize("n, spec", [(2, "3"), (3, "2"), (4, "2"), (3, "5")])
def test_dual_tables_are_the_kernel_side_tables(n, spec):
    """L.dual's up-set lists are L's down-sets, its atoms are the
    hyperplanes with their ordinals, each element's atom set is the
    hyperplanes above it, and its bounds are L's swapped: the tables P
    reads on its kernel side, as P built them before it read L.dual."""
    L = enumerate_subspaces(n, parse_field(spec))
    D = L.dual
    hyperplane = {h: t for t, h in enumerate(L.coatoms)}
    coatoms = sum(1 << h for h in L.coatoms)
    assert D.up_lists == [lattice_bits(d) for d in L.down_masks]
    assert D.atom_lists == [
        [hyperplane[h] for h in lattice_bits(u & coatoms)] for u in L.up_masks
    ]
    assert D.atom_ordinal == hyperplane
    assert (D.bottom, D.top) == (L.top, L.bottom)


def test_complements_exist_and_are_plentiful(L32):
    L = L32
    for i in range(L.size):
        comps = [
            j
            for j in range(L.size)
            if L.glb_idx(i, j) == L.bottom and L.lub_idx(i, j) == L.top
        ]
        assert comps, f"element {i} has no complement"
        assert L.complements_idx(i) == comps
        if i not in (L.bottom, L.top):
            assert len(comps) > 1  # non-uniqueness marks non-distributivity


def test_every_limit_refuses_in_one_shape(monkeypatch):
    """Each limit names its refusal '<count> <what> exceeds the <limit>
    <bound>': the vector and element limits of L, the semilinear oracle's
    limit, the idempotent scan's limit and P's element limit."""
    from projlat.autos import semilinear_atom_perms
    from projlat.projposet import build_projection_poset, enumerate_idempotents

    F2, F4, F5 = parse_field("2"), parse_field("2^2"), parse_field("5")
    cases = [
        (lambda: enumerate_subspaces(9, F5), "1953125 vectors exceeds the vector limit 1000000"),
        (lambda: enumerate_subspaces(7, F4), "51409856 subspaces exceeds the element limit 10000"),
        (
            lambda: semilinear_atom_perms(enumerate_subspaces(4, parse_field("3"))),
            "12130560 semilinear maps exceeds the generation limit 1048576",
        ),
        (lambda: enumerate_idempotents(F2, 5), "33554432 matrices exceeds the scan limit 1048576"),
        (
            lambda: build_projection_poset(enumerate_subspaces(4, parse_field("5"))),
            "542752 projections exceeds the poset element limit 131072",
        ),
    ]
    for refused, message in cases:
        with pytest.raises(AmbientTooLarge) as exc:
            refused()
        assert str(exc.value) == message


def test_ambient_guards():
    F = parse_field("5")
    with pytest.raises(AmbientTooLarge):
        enumerate_subspaces(6, F)
    with pytest.raises(ValueError):
        enumerate_subspaces(0, F)
