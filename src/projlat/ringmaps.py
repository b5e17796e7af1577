"""Ring isomorphisms of the full matrix ring and their projection shadows.

A semilinear bijection S: x -> twist(x) @ M induces a ring automorphism
Phi(T) = M^-1 @ twist(T) @ M (the unique map with S(x @ T) = S(x) @ Phi(T))
and, composed with transposition, a ring anti-automorphism
Psi(T) = M^-1 @ twist(T)^t @ M. Both kinds restrict to bijections of the
idempotents that preserve the projection order and commute with p -> 1 - p:
automorphisms restrict to even maps, anti-automorphisms to odd ones.

The converse is constructive. extract_semilinear treats a ring
automorphism as a black box and rebuilds its semilinear witness from one
rank-one idempotent: vectors are smuggled through the ring as rank-one
maps, the witness is read off, verified semilinear, and the conjugation
identity is confirmed. No step assumes the input really is a conjugation;
every unearned property raises FalsificationError.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field as dc_field

from .autos import (
    CampaignReport,
    FalsificationError,
    _Memo,
    classify_parity,
    decompose_poset_automorphism,
    verify_poset_map,
)
from .gf import GF, FieldAutomorphism
from .maps import ANTI, AUTO, EVEN, ODD, LatticeMap, PosetMap, perm_compose
from .matrices import (
    Matrix,
    all_matrices,
    identity,
    mat_add,
    mat_inv,
    mat_mul,
    rank,
    random_matrix,
    row_space,
    scalar_matrix,
    stack,
    transpose,
    vec_mat,
    zeros,
)
from .projposet import ProjectionPoset, idempotent_to_subspaces
from .semilinear import SemilinearMap, match_semilinear, standard_duality


def matrix_units(F: GF, n: int) -> list[list[Matrix]]:
    """units[i][j] has a single 1 in row i, column j."""
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            m = [[0] * n for _ in range(n)]
            m[i][j] = 1
            row.append(tuple(map(tuple, m)))
        out.append(row)
    return out


@dataclass(frozen=True)
class RingMap:
    """A map of n x n matrices over F, multiplicative (AUTO) or
    anti-multiplicative (ANTI), stored behind an opaque apply function so
    extraction code cannot peek at the witness."""

    field: GF
    n: int
    direction: str
    _apply: object = dc_field(compare=False, repr=False)
    witness: SemilinearMap | None = dc_field(default=None, compare=False, repr=False)

    def apply(self, t: Matrix) -> Matrix:
        return self._apply(t)

    def __call__(self, t: Matrix) -> Matrix:
        return self._apply(t)


@functools.lru_cache(maxsize=None)
def _shared_rows(F: GF, n: int) -> _Memo:
    """The one stored copy of each row of length n over F, shared by the
    row tables of every ring map of that ambient. Rows are immutable and
    there are at most q^n of them, so sharing changes no result and the
    table stays bounded."""
    return _Memo(lambda row: row)


def _row_table_apply(s: SemilinearMap, by_columns: bool):
    """T -> M^-1 twist(T) M, or with twist(T) transposed when by_columns,
    through two lazily filled row tables instead of matrix products.

    The rows of twist(T) M are right[r] = twist(r) M over the rows r of T
    (its columns when by_columns), and M^-1 X is the transpose of the
    matrix whose rows are left[c] = c (M^-1)^t over the columns c of X.
    """
    F = s.field
    rows = _shared_rows(F, s.n)
    m_inv_t = transpose(mat_inv(F, s.matrix))
    right = _Memo(lambda r: rows[s.apply_vector(r)], rows).__getitem__
    left = _Memo(lambda c: rows[vec_mat(F, c, m_inv_t)], rows).__getitem__

    def apply(t: Matrix) -> Matrix:
        x = map(right, zip(*t) if by_columns else t)
        return tuple(zip(*map(left, zip(*x))))

    return apply


def conjugation_automorphism(s: SemilinearMap) -> RingMap:
    """Phi(T) = M^-1 twist(T) M; satisfies S(x @ T) = S(x) @ Phi(T)."""
    return RingMap(s.field, s.n, AUTO, _row_table_apply(s, False), witness=s)


def anti_automorphism_from_semilinear(s: SemilinearMap) -> RingMap:
    """Psi(T) = M^-1 twist(T)^t M; reverses products."""
    return RingMap(s.field, s.n, ANTI, _row_table_apply(s, True), witness=s)


def transpose_anti_automorphism(F: GF, n: int) -> RingMap:
    """The canonical anti-automorphism T -> T^t."""
    return anti_automorphism_from_semilinear(SemilinearMap.identity_map(F, n))


# the seeded random probes of this module's checks, and the largest matrix
# or vector space they walk exhaustively instead
SAMPLE_SEED = 0
SAMPLES = 100
EXHAUSTIVE_LIMIT = 4096


def verify_ring_map(phi: RingMap) -> None:
    """Check the ring-map laws on matrix units, scalars and SAMPLES seeded
    pairs. Bijectivity is checked, exhaustively, only when q^(n^2) is at
    most EXHAUSTIVE_LIMIT; above it this makes no claim about it. Raises on
    any violation."""
    F, n = phi.field, phi.n
    ident = identity(n)
    zero = zeros(n, n)
    if phi.apply(zero) != zero:
        raise FalsificationError("ring map does not fix 0")
    if phi.apply(ident) != ident:
        raise FalsificationError("ring map does not fix the identity")
    anti = phi.direction == ANTI

    def check_pair(a: Matrix, b: Matrix) -> None:
        fa, fb = phi.apply(a), phi.apply(b)
        if phi.apply(mat_add(F, a, b)) != mat_add(F, fa, fb):
            raise FalsificationError("ring map is not additive", {"a": a, "b": b})
        prod = phi.apply(mat_mul(F, a, b))
        expect = mat_mul(F, fb, fa) if anti else mat_mul(F, fa, fb)
        if prod != expect:
            raise FalsificationError(
                "ring map is not (anti-)multiplicative", {"a": a, "b": b}
            )

    units = matrix_units(F, n)
    flat_units = [units[i][j] for i in range(n) for j in range(n)]
    for a in flat_units:
        for b in flat_units:
            check_pair(a, b)
    for lam in F.elements():
        for b in flat_units:
            check_pair(scalar_matrix(F, lam, n), b)
    rng = random.Random(SAMPLE_SEED)
    for _ in range(SAMPLES):
        check_pair(random_matrix(F, n, n, rng), random_matrix(F, n, n, rng))

    if F.q ** (n * n) <= EXHAUSTIVE_LIMIT:
        seen = set()
        for t in all_matrices(F, n, n):
            seen.add(phi.apply(t))
        if len(seen) != F.q ** (n * n):
            raise FalsificationError("ring map is not bijective")


def center_is_scalars(F: GF, n: int) -> CampaignReport:
    """The center of the n x n matrix ring is exactly the scalar matrices.

    Solved as a linear system (commuting with every matrix unit), with a
    brute-force cross-check when the full matrix space is enumerable.
    """
    rep = CampaignReport("center", (n, F.spec()))
    units = matrix_units(F, n)
    # unknowns: the n^2 entries of T; rows: entries of T@E - E@T for all units
    rows = []
    for i in range(n):
        for j in range(n):
            e = units[i][j]
            for a in range(n):
                for b in range(n):
                    # coefficient of T[r][c] in (T@e - e@T)[a][b]
                    coeffs = [0] * (n * n)
                    for k in range(n):
                        coeffs[a * n + k] = F.add(coeffs[a * n + k], e[k][b])
                    for k in range(n):
                        coeffs[k * n + b] = F.sub(coeffs[k * n + b], e[a][k])
                    rows.append(tuple(coeffs))
    from .matrices import right_kernel

    constraint = tuple(rows)
    sol = right_kernel(F, constraint)
    rep.add(
        "solution_space_is_one_dimensional",
        len(sol) == 1,
        f"nullity {len(sol)}",
    )
    ident_vec = tuple(identity(n)[i][j] for i in range(n) for j in range(n))
    spans_identity = len(sol) == 1 and row_space(F, (ident_vec,)) == row_space(F, sol)
    rep.add("solution_space_is_spanned_by_identity", spans_identity, "")
    if F.q ** (n * n) <= EXHAUSTIVE_LIMIT:
        scalars = {scalar_matrix(F, lam, n) for lam in F.elements()}
        center = set()
        mats = list(all_matrices(F, n, n))
        for t in mats:
            if all(mat_mul(F, t, u) == mat_mul(F, u, t) for u in
                   [units[i][j] for i in range(n) for j in range(n)]):
                center.add(t)
        rep.add(
            "brute_force_center_is_scalars",
            center == scalars,
            f"center size {len(center)}, scalar count {F.q}",
        )
    else:
        rep.add("brute_force_center_is_scalars", True, "skipped: space too large")
    return rep


def check_im_ker_lemma(P: ProjectionPoset) -> CampaignReport:
    """Idempotent image/kernel laws, over every ordered pair (p, q).

    With maps acting on the right of row vectors (products read left to
    right), the equalities are: Im p = Im q iff pq = p and qp = q, and
    Ker p = Ker q iff pq = q and qp = p. The one-sided inclusions they
    factor through (Im p <= Im q iff pq = p; Ker q <= Ker p iff qp = p)
    are checked as well.
    """
    L = P.lattice
    F = L.field
    rep = CampaignReport("im-ker-lemma", (L.n, F.spec()))
    if P.size * P.size > 2 * 10**6:
        raise ValueError("too many idempotent pairs for the exhaustive check")
    mats = [P.idempotent(i) for i in range(P.size)]
    img, ker = P.image, P.kernel
    up = L.up_masks
    im_inc_ok = ker_inc_ok = im_eq_ok = ker_eq_ok = True
    n_pairs = 0
    for i in range(P.size):
        pi = mats[i]
        for j in range(P.size):
            qj = mats[j]
            n_pairs += 1
            pq = mat_mul(F, pi, qj)
            qp = mat_mul(F, qj, pi)
            pq_is_p, pq_is_q = pq == pi, pq == qj
            qp_is_p, qp_is_q = qp == pi, qp == qj
            if (bool(up[img[i]] >> img[j] & 1)) != pq_is_p:
                im_inc_ok = False
                rep.add("im_inclusion", False, f"pair ({i}, {j})")
            if (bool(up[ker[j]] >> ker[i] & 1)) != qp_is_p:
                ker_inc_ok = False
                rep.add("ker_inclusion", False, f"pair ({i}, {j})")
            if (img[i] == img[j]) != (pq_is_p and qp_is_q):
                im_eq_ok = False
                rep.add("im_equality", False, f"pair ({i}, {j})")
            if (ker[i] == ker[j]) != (pq_is_q and qp_is_p):
                ker_eq_ok = False
                rep.add("ker_equality", False, f"pair ({i}, {j})")
    for name, ok in [
        ("im_inclusion", im_inc_ok),
        ("ker_inclusion", ker_inc_ok),
        ("im_equality", im_eq_ok),
        ("ker_equality", ker_eq_ok),
    ]:
        if ok:
            rep.add(name, True, f"all {n_pairs} ordered pairs")
    return rep


# ---------------------------------------------------------------------------
# witness extraction (ring isomorphism -> semilinear map)
# ---------------------------------------------------------------------------


def extract_semilinear_from_ring_iso(
    phi: RingMap,
    idempotent: Matrix | None = None,
    seed: int = 0,
) -> tuple[SemilinearMap, FieldAutomorphism]:
    """Rebuild the semilinear witness of a ring automorphism.

    The input is used only through phi.apply. Procedure: fix the rank-one
    idempotent p (default: unit E_11, an arbitrary but documented choice),
    pick a spanning vector y0 of Im phi(p), and transport each vector x via
    the rank-one map U_x (x0 -> x, Ker p -> 0): S(x) = y0 @ phi(U_x). The
    field twist is read from the action on scalar matrices. Semilinearity,
    invertibility, and the conjugation identity are verified, not assumed.
    """
    F, n = phi.field, phi.n
    if phi.direction != AUTO:
        raise ValueError("extraction expects a ring automorphism")
    units = matrix_units(F, n)
    p = idempotent if idempotent is not None else units[0][0]
    if mat_mul(F, p, p) != p or rank(F, p) != 1:
        raise ValueError("base idempotent must be idempotent of rank one")

    # twist: phi on the center must be scalar-to-scalar by a field automorphism
    sigma_table = [0] * F.q
    for lam in F.elements():
        img = phi.apply(scalar_matrix(F, lam, n))
        diag = img[0][0]
        if img != scalar_matrix(F, diag, n):
            raise FalsificationError(
                "image of a scalar matrix is not scalar", {"scalar": lam}
            )
        sigma_table[lam] = diag
    twist = None
    for cand in F.automorphisms():
        if all(cand(lam) == sigma_table[lam] for lam in F.elements()):
            twist = cand
            break
    if twist is None:
        raise FalsificationError(
            "center action is not a field automorphism", {"table": sigma_table}
        )

    im_p, ker_p = idempotent_to_subspaces(F, p)
    x0 = im_p.basis[0]
    c = stack(tuple([x0]), ker_p.basis)
    c_inv = mat_inv(F, c)
    fp = phi.apply(p)
    if mat_mul(F, fp, fp) != fp:
        raise FalsificationError("image of an idempotent is not idempotent")
    fp_img = row_space(F, fp)
    if len(fp_img) != 1:
        raise FalsificationError(
            "image idempotent is not rank one", {"rank": len(fp_img)}
        )
    y0 = fp_img[0]

    zero_rows = zeros(n - 1, n)

    def transport(x: tuple[int, ...]) -> tuple[int, ...]:
        u_x = mat_mul(F, c_inv, stack((x,), zero_rows))
        return vec_mat(F, y0, phi.apply(u_x))

    basis_rows = tuple(transport(e) for e in identity(n))
    m = basis_rows
    try:
        mat_inv(F, m)
    except Exception:
        raise FalsificationError("extracted witness matrix is singular", {"m": m})
    s = SemilinearMap(F, m, twist)

    # semilinearity of the transport: exhaustive when the vector space is
    # small, seeded random + structured probes otherwise
    rng = random.Random(seed)
    if F.q**n <= EXHAUSTIVE_LIMIT:
        from .gf import iter_vectors

        probe = list(iter_vectors(F, n))
    else:
        probe = [tuple(rng.randrange(F.q) for _ in range(n)) for _ in range(SAMPLES)]
    for x in probe:
        if transport(x) != s.apply_vector(x):
            raise FalsificationError(
                "transport is not the claimed semilinear map", {"x": x}
            )

    # conjugation identity on generators and seeded samples
    conj = conjugation_automorphism(s).apply
    gens = [units[i][j] for i in range(n) for j in range(n)]
    gens += [scalar_matrix(F, lam, n) for lam in F.elements()]
    gens += [random_matrix(F, n, n, rng) for _ in range(SAMPLES)]
    for t in gens:
        if phi.apply(t) != conj(t):
            raise FalsificationError(
                "ring map is not conjugation by the extracted witness", {"t": t}
            )
    return s, twist


# ---------------------------------------------------------------------------
# restriction to projections and extension back up
# ---------------------------------------------------------------------------


def restrict_to_projections(phi: RingMap, P: ProjectionPoset) -> PosetMap:
    """The action of a ring (anti-)automorphism on the projection poset.

    Both kinds preserve the projection order because p <= q there is the
    symmetric condition pq = qp = p; additivity plus phi(1) = 1 makes them
    commute with p -> 1 - p. Automorphisms must restrict even,
    anti-automorphisms odd; the parity is classified and checked.
    """
    images = map(phi.apply, map(P.idempotent, range(P.size)))
    perm = tuple(map(P.matrix_index().get, images))
    if None in perm:
        raise FalsificationError(
            "image of a projection is not a projection", {"index": perm.index(None)}
        )
    verify_poset_map(perm, P)
    parity = classify_parity(perm, P)
    expected = EVEN if phi.direction == AUTO else ODD
    if parity != expected:
        raise FalsificationError(
            "restriction parity disagrees with the ring map direction",
            {"direction": phi.direction, "parity": parity},
        )
    return PosetMap(perm, parity, witness=phi)


def extend_to_ring_map(phi: PosetMap, P: ProjectionPoset) -> RingMap:
    """The ring map that restricts to the orthoposet automorphism phi: an
    automorphism when phi is even, an anti-automorphism when it is odd.

    Decomposes phi to its witness. An odd witness g is f . gamma, with
    gamma the standard duality (an involution) and f = g . gamma
    order-preserving. f is matched to a semilinear map s (ambient >= 3),
    and the extension is conjugation by s, composed with transposition
    when phi is odd. Every extension is checked against the ring-map laws
    and must restrict to phi on every projection. For odd maps a success
    demonstrates the construction at this finite scale only; it does not
    settle whether odd maps extend in general.
    """
    L = P.lattice
    w = decompose_poset_automorphism(phi, P)
    odd = w.direction == ANTI
    f = LatticeMap(perm_compose(w.perm, standard_duality(L).perm), AUTO) if odd else w
    s = match_semilinear(f, L)
    ring = anti_automorphism_from_semilinear(s) if odd else conjugation_automorphism(s)
    verify_ring_map(ring)
    if restrict_to_projections(ring, P).perm != phi.perm:
        raise FalsificationError("extension does not restrict to the original map")
    return ring
