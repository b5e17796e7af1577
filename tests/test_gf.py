"""Field arithmetic: axioms checked exhaustively at desk scale, plus the
automorphism group (Frobenius powers) and the parser."""

import pytest

from projlat import GF, FieldError, parse_field


AMBIENT_SPECS = ["2", "3", "5", "7", "2^2", "2^3", "3^2"]


@pytest.mark.parametrize("spec", AMBIENT_SPECS)
def test_field_axioms_exhaustive(spec):
    F = parse_field(spec)
    els = range(F.q)
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("spec", AMBIENT_SPECS)
def test_frobenius_generates_all_automorphisms(spec):
    F = parse_field(spec)
    autos = F.automorphisms()
    assert len(autos) == F.k
    tables = {a.table for a in autos}
    assert len(tables) == F.k  # distinct powers give distinct maps
    for a in autos:
        # each power is additive and multiplicative on every pair
        for x in range(F.q):
            for y in range(F.q):
                assert a(F.add(x, y)) == F.add(a(x), a(y))
                assert a(F.mul(x, y)) == F.mul(a(x), a(y))
    # the Frobenius itself has order k
    assert [F.frobenius(i).is_identity for i in range(1, F.k + 1)] == [False] * (F.k - 1) + [True]


@pytest.mark.parametrize("p, k", [(2, 1), (2, 3), (3, 2), (2, 4)])
def test_automorphisms_verified_once_per_field(monkeypatch, p, k):
    """Many automorphisms() calls build and verify each Frobenius power
    once, each call returns a fresh list of the same objects, and every
    cached table is a -> a^(p^i)."""
    from projlat.gf import FieldAutomorphism

    verified = []
    verify = FieldAutomorphism.verify

    def counted(self):
        verified.append(self.power)
        verify(self)

    monkeypatch.setattr(FieldAutomorphism, "verify", counted)
    F = GF(p, k)  # a fresh instance, not the one parse_field shares
    lists = [F.automorphisms() for _ in range(20)]
    assert sorted(verified) == list(range(k))
    assert lists[0] == lists[-1] and lists[0] is not lists[-1]
    assert all(s is t for s, t in zip(lists[0], lists[-1]))
    for s in lists[0]:
        for a in range(F.q):
            x = 1
            for _ in range(p**s.power):
                x = F.mul(x, a)
            assert s.table[a] == s(a) == x
    # the table is not part of equality or hashing
    assert F.frobenius(1) == FieldAutomorphism(F, 1 + k)
    assert hash(F.frobenius(1)) == hash(FieldAutomorphism(F, 1 + k))


def test_prime_field_has_trivial_automorphism_group():
    F = parse_field("5")
    assert len(F.automorphisms()) == 1
    assert F.automorphisms()[0].is_identity


def test_parse_field_rejects_nonsense():
    for bad in ["0", "1", "6", "12", "-3", "2^0"]:
        with pytest.raises((FieldError, ValueError)):
            parse_field(bad)


def test_parse_field_prime_power_forms():
    assert parse_field("4").q == 4
    assert parse_field("2^2").q == 4
    assert parse_field("8").q == 8
    assert parse_field("9").q == 9
    assert parse_field("3^2").q == 9


def test_extension_moduli_are_pinned():
    """Each extension field's modulus, and so the encoding of its elements
    as ints, is the smallest monic irreducible by coefficient code."""
    moduli = {(2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1), (3, 2): (1, 0, 1)}
    assert {pk: GF(*pk).modulus for pk in moduli} == moduli
    assert GF(5).modulus is None


def test_field_spec_round_trip():
    for spec in AMBIENT_SPECS:
        F = parse_field(spec)
        F2 = parse_field(F.spec())
        assert F2.q == F.q and F2.p == F.p and F2.k == F.k


def test_characteristic_and_powers():
    F = GF(2, 3)
    assert F.q == 8
    one_sum = 0
    for _ in range(F.p):
        one_sum = F.add(one_sum, 1)
    assert one_sum == 0  # characteristic p
    for a in range(1, F.q):
        assert F.power(a, F.q - 1) == 1  # multiplicative group order divides q-1
