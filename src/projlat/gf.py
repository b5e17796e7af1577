"""Exact arithmetic in small Galois fields GF(p^k).

Elements are plain ints in range(p**k). The int encodes the coefficient
vector of a polynomial of degree < k over GF(p) in base p: the element
sum(c_i * x^i) is stored as sum(c_i * p^i), so 0 and 1 are the field's
zero and one for every (p, k). Integer order on elements is the
lexicographic order on coefficient tuples read from the constant term up;
that order is the tie-breaker used everywhere downstream.

Arithmetic goes through dense q x q tables built once per field, which is
the right trade at q <= 16: every operation is a list index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


class FieldError(ValueError):
    """Raised for invalid field parameters or non-elements."""


# Fixed irreducible moduli, coefficient tuples from constant term up,
# monic: x^2+x+1 over GF(2), x^3+x+1 over GF(2), x^4+x+1 over GF(2),
# x^2+1 over GF(3). Pinned so element encodings never drift between runs.
FIXED_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 2): (1, 0, 1),
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod_p(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of polynomials over GF(p), coeffs low-to-high."""
    num = _poly_trim(list(num))
    den = _poly_trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(den[-1], p - 2, p) if p > 2 else den[-1]
    quot = [0] * max(0, len(num) - len(den) + 1)
    rem = num
    while len(rem) >= len(den):
        shift = len(rem) - len(den)
        factor = (rem[-1] * inv_lead) % p
        quot[shift] = factor
        for i, d in enumerate(den):
            rem[shift + i] = (rem[shift + i] - factor * d) % p
        _poly_trim(rem)
    return quot, rem


def is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of lower positive degree."""
    mod = _poly_trim(list(modulus))
    k = len(mod) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    for deg in range(1, k):
        # all monic polynomials of degree deg: p^deg choices of lower coeffs
        for code in range(p**deg):
            cand = [(code // p**i) % p for i in range(deg)] + [1]
            _, rem = _poly_divmod_p(mod, cand, p)
            if not rem:
                return False
    return True


def _int_to_coeffs(a: int, p: int, k: int) -> list[int]:
    return [(a // p**i) % p for i in range(k)]


def _coeffs_to_int(c: Sequence[int], p: int) -> int:
    return sum((ci % p) * p**i for i, ci in enumerate(c))


class GF:
    """A concrete small Galois field with table-driven arithmetic."""

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise FieldError(f"characteristic must be prime, got {p}")
        if k < 1:
            raise FieldError(f"extension degree must be >= 1, got {k}")
        q = p**k
        if q > 512:
            raise FieldError(f"field size {q} too large for table arithmetic")
        # the pinned modulus, else the smallest irreducible one
        mod = None if k == 1 else FIXED_MODULI.get((p, k)) or _find_modulus(p, k)
        if mod is not None and not is_irreducible(mod, p):
            raise FieldError(f"modulus {mod} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = mod
        self._automorphisms_verified = False
        self._build_tables()

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        coeffs = [_int_to_coeffs(a, p, k) for a in range(q)]
        for a in range(q):
            for b in range(a, q):
                s = _coeffs_to_int([(x + y) % p for x, y in zip(coeffs[a], coeffs[b])], p)
                add[a][b] = s
                add[b][a] = s
        mod_low = list(self.modulus[:-1]) if self.modulus else []
        for a in range(q):
            for b in range(a, q):
                prod = [0] * (2 * k - 1)
                for i, x in enumerate(coeffs[a]):
                    if x:
                        for j, y in enumerate(coeffs[b]):
                            prod[i + j] = (prod[i + j] + x * y) % p
                # reduce x^(k+d) using x^k = -mod_low
                for d in range(2 * k - 2, k - 1, -1):
                    c = prod[d]
                    if c:
                        prod[d] = 0
                        for i, m in enumerate(mod_low):
                            prod[d - k + i] = (prod[d - k + i] - c * m) % p
                v = _coeffs_to_int(prod[:k], p)
                mul[a][b] = v
                mul[b][a] = v
        self.add_table = add
        self.mul_table = mul
        self.neg_table = [add[a].index(0) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            inv[a] = mul[a].index(1)
        self.inv_table = inv

    # -- element operations ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.inv_table[a]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return self.mul_table[a][self.inv_table[b]]

    def power(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self.mul_table[r][a]
            a = self.mul_table[a][a]
            e >>= 1
        return r

    def elements(self) -> range:
        return range(self.q)

    def frobenius(self, power: int = 1) -> "FieldAutomorphism":
        return FieldAutomorphism(self, power % self.k)

    def automorphisms(self) -> list["FieldAutomorphism"]:
        """All field automorphisms: the k Frobenius powers, each verified on
        the first call for this field; a fresh list every call."""
        autos = [FieldAutomorphism(self, i) for i in range(self.k)]
        if not self._automorphisms_verified:
            for s in autos:
                s.verify()
            self._automorphisms_verified = True
        return autos

    # -- identity ----------------------------------------------------------

    def spec(self) -> str:
        return str(self.p) if self.k == 1 else f"{self.p}^{self.k}"

    def _key(self) -> tuple:
        return (self.p, self.k, self.modulus)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"GF({self.spec()})"


def _find_modulus(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k over GF(p), by coefficient code."""
    for code in range(p**k):
        cand = tuple((code // p**i) % p for i in range(k)) + (1,)
        if is_irreducible(cand, p):
            return cand
    raise FieldError(f"no irreducible polynomial of degree {k} over GF({p})")


_FIELD_CACHE: dict[tuple[int, int], GF] = {}


def make_field(p: int, k: int = 1) -> GF:
    """Shared GF instances so tables are built once per (p, k)."""
    if (p, k) not in _FIELD_CACHE:
        _FIELD_CACHE[p, k] = GF(p, k)
    return _FIELD_CACHE[p, k]


def parse_field(spec: str) -> GF:
    """Parse 'p' or 'p^k' (also accepts plain prime powers like '9')."""
    s = spec.strip()
    if "^" in s:
        ps, ks = s.split("^", 1)
        return make_field(int(ps), int(ks))
    n = int(s)
    if is_prime(n):
        return make_field(n)
    for p in range(2, n):
        if is_prime(p) and n % p == 0:
            k = 0
            m = n
            while m % p == 0:
                m //= p
                k += 1
            if m == 1:
                return make_field(p, k)
            break
    raise FieldError(f"{spec!r} is not a prime power")


@dataclass(frozen=True)
class FieldAutomorphism:
    """A Frobenius power a -> a^(p^i), the only automorphisms of GF(p^k)."""

    field: GF
    power: int

    def __post_init__(self):
        F = self.field
        object.__setattr__(self, "power", self.power % F.k)
        # the image of every element, computed once; not a dataclass field,
        # so equality and hashing stay on (field, power)
        e = F.p**self.power
        object.__setattr__(self, "table", tuple(F.power(a, e) for a in range(F.q)))

    def __call__(self, a: int) -> int:
        return self.table[a]

    def on_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        t = self.table
        return tuple(t[x] for x in v)

    def on_matrix(self, m: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
        t = self.table
        return tuple(tuple(t[x] for x in row) for row in m)

    def compose(self, other: "FieldAutomorphism") -> "FieldAutomorphism":
        """self after other."""
        if self.field != other.field:
            raise FieldError("automorphisms of different fields")
        return FieldAutomorphism(self.field, self.power + other.power)

    def inverse(self) -> "FieldAutomorphism":
        return FieldAutomorphism(self.field, -self.power % self.field.k)

    @property
    def is_identity(self) -> bool:
        return self.power == 0

    def verify(self) -> None:
        """Exhaustively confirm the map is additive, multiplicative, bijective."""
        F = self.field
        t = self.table
        if sorted(t) != list(range(F.q)):
            raise FieldError(f"{self} is not a bijection")
        for a in range(F.q):
            for b in range(F.q):
                if t[F.add(a, b)] != F.add(t[a], t[b]):
                    raise FieldError(f"{self} not additive at ({a},{b})")
                if t[F.mul(a, b)] != F.mul(t[a], t[b]):
                    raise FieldError(f"{self} not multiplicative at ({a},{b})")

    def __repr__(self) -> str:
        return f"Frob({self.field.spec()}, {self.power})"


def iter_vectors(F: GF, n: int) -> Iterator[tuple[int, ...]]:
    """All of GF(q)^n in lexicographic order (leftmost coordinate slowest)."""
    if n == 0:
        yield ()
        return
    for head in F.elements():
        for tail in iter_vectors(F, n - 1):
            yield (head,) + tail
