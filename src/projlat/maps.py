"""Permutation-backed maps on lattices and posets.

Automorphisms and anti-automorphisms are stored as index permutations with
a direction or parity tag. Composition is permutation composition; the
direction/parity algebra (anti after anti is an automorphism, odd after
odd is even) rides along. Witness objects (a semilinear map behind a
lattice map, a lattice map behind a poset map) are carried opportunistically
and never participate in equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

AUTO = "automorphism"
ANTI = "anti-automorphism"
EVEN = "even"
ODD = "odd"
UNKNOWN = "unknown"


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def perm_compose(f, g) -> tuple[int, ...]:
    """The permutation of 'f after g': (f*g)[i] = f[g[i]]."""
    return tuple([f[x] for x in g])


def perm_inverse(f) -> tuple[int, ...]:
    inv = [0] * len(f)
    for i, x in enumerate(f):
        inv[x] = i
    return tuple(inv)


@lru_cache(maxsize=16)
def _ordinals(n: int) -> frozenset[int]:
    return frozenset(range(n))


def is_permutation(f) -> bool:
    """Whether f holds each of 0..len(f)-1 exactly once: one set of f,
    compared with a kept set of the ordinals. Tested by set membership,
    not by sorting, so entries that do not compare with ints give False
    rather than TypeError."""
    return set(f) == _ordinals(len(f))


def compose_directions(d1: str, d2: str) -> str:
    return AUTO if (d1 == ANTI) == (d2 == ANTI) else ANTI


def compose_parities(p1: str, p2: str) -> str:
    if UNKNOWN in (p1, p2):
        return UNKNOWN
    return EVEN if (p1 == ODD) == (p2 == ODD) else ODD


@dataclass(frozen=True)
class PermutationMap:
    """The core of LatticeMap and PosetMap: a permutation of 0..len(perm)-1,
    kept as a tuple, whose subclass names its tag field in TAG and its tag
    algebra in compose_tags, and checks its tag before calling _check_perm."""

    perm: tuple[int, ...]

    def _check_perm(self) -> None:
        if type(self.perm) is not tuple:
            object.__setattr__(self, "perm", tuple(self.perm))
        if not is_permutation(self.perm):
            raise ValueError("not a permutation")

    def __call__(self, i: int) -> int:
        return self.perm[i]

    @property
    def is_identity(self) -> bool:
        return self.perm == identity_perm(len(self.perm))

    def compose(self, other):
        """self after other."""
        tag = self.compose_tags(getattr(self, self.TAG), getattr(other, self.TAG))
        return type(self)(perm_compose(self.perm, other.perm), tag)

    def inverse(self):
        return type(self)(perm_inverse(self.perm), getattr(self, self.TAG))


@dataclass(frozen=True)
class LatticeMap(PermutationMap):
    """A bijection of lattice element indices, order-preserving (direction
    AUTO) or order-reversing (ANTI)."""

    direction: str
    witness: object = field(default=None, compare=False, repr=False)
    TAG = "direction"
    compose_tags = staticmethod(compose_directions)

    def __post_init__(self):
        if self.direction not in (AUTO, ANTI):
            raise ValueError(f"bad direction {self.direction!r}")
        self._check_perm()


@dataclass(frozen=True)
class PosetMap(PermutationMap):
    """A bijection of projection-poset element indices preserving order and
    orthocomplementation, tagged with its parity."""

    parity: str = UNKNOWN
    witness: object = field(default=None, compare=False, repr=False)
    TAG = "parity"
    compose_tags = staticmethod(compose_parities)

    def __post_init__(self):
        if self.parity not in (EVEN, ODD, UNKNOWN):
            raise ValueError(f"bad parity {self.parity!r}")
        self._check_perm()
