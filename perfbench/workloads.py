"""The benchmark's workloads: seeded inputs, one verdict each, and the gate.

A verdict starts from an imported projlat and ends with every check made
and the report serialized. Its times come from the run's clock.Clock,
in reference seconds. Each workload's gate compares the library's
results with independent oracles: closed-form counts, the per-branch
figures below, the constructed even/odd maps and parity or twist
histograms. Each verdict also feeds its gate one corrupted input (a map
dropped) and records whether the gate caught it.

Per-branch work is the same on every branch of an ambient (the
automorphism group acts transitively on the root targets), so a seeded
subset of branches is representative of the full search.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from projlat.autos import CampaignReport, FalsificationError, projective_group_order
from projlat.lattice import gaussian_binomial, projection_pair_count, subspace_count_total
from projlat.maps import AUTO, EVEN, ODD, UNKNOWN, LatticeMap, PosetMap, perm_compose
from projlat.semilinear import MatchFailure


@dataclass
class Verdict:
    report: CampaignReport
    setup_s: float
    loop_s: float = 0.0  # time in the map loops, which maps_per_s divides
    latencies_s: list[float] = field(default_factory=list)
    work: dict = field(default_factory=dict)  # sizes and search counts
    report_sha256: str = ""
    report_bytes: int = 0

    @property
    def maps(self) -> int:
        return len(self.latencies_s)


def serialize(api, v: Verdict) -> None:
    text = api.canonical_json(api.report_to_jsonable(v.report)).encode()
    v.report_sha256 = hashlib.sha256(text).hexdigest()
    v.report_bytes = len(text)


def _detail(found, want) -> str:
    return f"found {found}, expected {want}"


class MainTheorem:
    """Even/odd classification at (4,2): constructed side in full, poset
    search and decomposition on seeded root branches."""

    name = "main-theorem-4x2"
    n, field_spec = 4, "2"
    root_branches = 120
    branches = 4
    branch_nodes = 5475

    def inputs(self, seed: int) -> list[int]:
        """Positions in the root-branch list of poset_search_plan."""
        return sorted(random.Random(seed).sample(range(self.root_branches), self.branches))

    def setup(self, api):
        F = api.parse_field(self.field_spec)
        L = api.enumerate_subspaces(self.n, F)
        P = api.build_projection_poset(L)
        pivot, targets = api.poset_search_plan(P)
        return F, L, P, pivot, targets

    @staticmethod
    def gate(prefix, found, n_found, nodes, even, odd, want_maps, want_nodes):
        """Checks for one branch: found maps each key to the parity its
        decomposition gave (None on failure); even/odd are the constructed
        maps whose pivot image is this branch's target."""
        n_even = sum(1 for p in found.values() if p == EVEN)
        n_odd = sum(1 for p in found.values() if p == ODD)
        return [
            (f"{prefix}:count", n_found == len(found) == want_maps, _detail(n_found, want_maps)),
            (f"{prefix}:nodes", nodes == want_nodes, _detail(nodes, want_nodes)),
            (
                f"{prefix}:enumerated_equals_constructed",
                found.keys() == even | odd,
                f"enumerated {len(found)}, constructed {len(even | odd)}",
            ),
            (f"{prefix}:every_map_decomposes", None not in found.values(), ""),
            (
                f"{prefix}:parity_matches_construction",
                all((p == EVEN) == (k in even) for k, p in found.items()),
                "",
            ),
            (
                f"{prefix}:parity_histogram",
                n_even == n_odd == want_maps // 2,
                f"{n_even} even, {n_odd} odd",
            ),
        ]

    def verdict(self, api, picks: list[int], clock) -> Verdict:
        t0 = clock.now()
        F, L, P, pivot, targets = self.setup(api)
        v = Verdict(CampaignReport(self.name, (L.n, F.spec())), clock.now() - t0)
        rep = v.report
        q, k = F.q, F.k
        group = projective_group_order(self.n, q, k)
        rep.add("lattice_size", L.size == subspace_count_total(self.n, q), _detail(L.size, subspace_count_total(self.n, q)))
        rep.add("poset_size", P.size == projection_pair_count(self.n, q), _detail(P.size, projection_pair_count(self.n, q)))
        rep.add("root_branches", len(targets) == self.root_branches, _detail(len(targets), self.root_branches))

        # constructed side, in full
        lattice_perms = []
        lattice_keys = set()
        stats: dict = {}
        for aperm, eperm in api.iter_lattice_atom_perms(L, stats=stats):
            lattice_perms.append(eperm)
            lattice_keys.add(bytes(aperm))
        rep.add(
            "lattice_count_matches_projective_group_order",
            len(lattice_perms) == len(lattice_keys) == group,
            _detail(len(lattice_perms), group),
        )
        rep.add(
            "lattice_autos_equal_semilinear_generation",
            api.semilinear_atom_perms(L) == lattice_keys,
            "",
        )
        gamma = api.standard_duality(L)
        rep.add("duality_involutory", gamma.compose(gamma).is_identity, "")
        even_by: dict[int, set[bytes]] = {}
        odd_by: dict[int, set[bytes]] = {}
        for eperm in lattice_perms:
            ap = api.poset_atom_perm_from_lattice(P, eperm, False)
            even_by.setdefault(ap[pivot], set()).add(bytes(ap))
            ap = api.poset_atom_perm_from_lattice(P, perm_compose(eperm, gamma.perm), True)
            odd_by.setdefault(ap[pivot], set()).add(bytes(ap))
        n_even = sum(map(len, even_by.values()))
        n_odd = sum(map(len, odd_by.values()))
        all_even = set().union(*even_by.values())
        rep.add(
            "even_odd_constructions_distinct",
            n_even == n_odd == group and not all_even & set().union(*odd_by.values()),
            f"{n_even} even, {n_odd} odd",
        )
        v.work.update(
            lattice_size=L.size, poset_size=P.size, poset_atoms=len(P.atoms),
            lattice_search_nodes=stats["nodes"], lattice_maps=len(lattice_perms),
            poset_search_nodes=0, poset_maps=0,
        )

        # poset search and decomposition on the seeded branches
        want_maps = 2 * group // len(targets)
        branch_counts = {}
        for pick in picks:
            t = targets[pick]
            found: dict[bytes, str | None] = {}
            n_found = 0
            stats = {}
            start = last = clock.now()
            for aperm, eperm in api.iter_poset_atom_perms(P, restrict_first={t}, stats=stats):
                try:
                    w = api.decompose_poset_automorphism(PosetMap(eperm, UNKNOWN), P)
                    found[bytes(aperm)] = EVEN if w.direction == AUTO else ODD
                except (FalsificationError, ValueError):
                    found[bytes(aperm)] = None
                n_found += 1
                now = clock.now()
                v.latencies_s.append(now - last)
                last = now
            v.loop_s += clock.now() - start
            even, odd = even_by.get(t, set()), odd_by.get(t, set())
            for check in self.gate(
                f"branch_{t}", found, n_found, stats["nodes"], even, odd,
                want_maps, self.branch_nodes,
            ):
                rep.add(*check)
            if pick == picks[0]:
                dropped = set(sorted(even)[1:])
                caught = not all(
                    ok for _, ok, _ in self.gate(
                        "", found, n_found, stats["nodes"], dropped, odd,
                        want_maps, self.branch_nodes,
                    )
                )
                rep.add("selfcheck:gate_rejects_dropped_map", caught, "")
            branch_counts[str(t)] = {"maps": n_found, "nodes": stats["nodes"]}
            v.work["poset_search_nodes"] += stats["nodes"]
            v.work["poset_maps"] += n_found
        rep.counts.update(
            lattice_automorphisms=len(lattice_perms), even_maps=n_even,
            odd_maps=n_odd, branches=branch_counts,
        )
        serialize(api, v)
        return v


class Ftpg:
    """Semilinear witness matching at (3,4) on seeded lattice root branches;
    the Frobenius twist is needed for half of the maps."""

    name = "ftpg-3x4"
    n, field_spec = 3, "2^2"
    root_branches = 21
    branches = 1
    branch_nodes = 13761

    def inputs(self, seed: int) -> list[int]:
        return sorted(random.Random(seed).sample(range(self.root_branches), self.branches))

    def setup(self, api):
        F = api.parse_field(self.field_spec)
        L = api.enumerate_subspaces(self.n, F)
        pivot, targets = api.lattice_search_plan(L)
        return F, L, pivot, targets

    @staticmethod
    def gate(prefix, keys, n_found, nodes, off_branch, unmatched, twists, k, want_maps, want_nodes):
        want_hist = {p: want_maps // k for p in range(k)}
        return [
            (f"{prefix}:count", n_found == len(keys) == want_maps, _detail(n_found, want_maps)),
            (f"{prefix}:nodes", nodes == want_nodes, _detail(nodes, want_nodes)),
            (f"{prefix}:maps_in_branch", off_branch == 0, f"{off_branch} off branch"),
            (f"{prefix}:every_map_matched", unmatched == 0, f"{unmatched} unmatched"),
            (f"{prefix}:twist_histogram", twists == want_hist, _detail(twists, want_hist)),
        ]

    def verdict(self, api, picks: list[int], clock) -> Verdict:
        t0 = clock.now()
        F, L, pivot, targets = self.setup(api)
        v = Verdict(CampaignReport(self.name, (L.n, F.spec())), clock.now() - t0)
        rep = v.report
        q, k = F.q, F.k
        group = projective_group_order(self.n, q, k)
        rep.add("lattice_size", L.size == subspace_count_total(self.n, q), _detail(L.size, subspace_count_total(self.n, q)))
        points = gaussian_binomial(self.n, 1, q)
        rep.add("root_branches", len(targets) == points == self.root_branches, _detail(len(targets), points))
        want_maps = group // len(targets)
        v.work.update(lattice_size=L.size, lattice_search_nodes=0, lattice_maps=0)
        branch_counts = {}
        for pick in picks:
            t = targets[pick]
            keys: set[bytes] = set()
            n_found = off_branch = unmatched = 0
            twists: dict[int, int] = {}
            stats: dict = {}
            start = last = clock.now()
            for aperm, eperm in api.iter_lattice_atom_perms(L, restrict_first={t}, stats=stats):
                try:
                    s = api.match_semilinear(LatticeMap(eperm, AUTO), L)
                    twists[s.twist.power] = twists.get(s.twist.power, 0) + 1
                except MatchFailure:
                    unmatched += 1
                keys.add(bytes(aperm))
                off_branch += aperm[pivot] != t
                n_found += 1
                now = clock.now()
                v.latencies_s.append(now - last)
                last = now
            v.loop_s += clock.now() - start
            args = (n_found, stats["nodes"], off_branch, unmatched, twists, k, want_maps, self.branch_nodes)
            for check in self.gate(f"branch_{t}", keys, *args):
                rep.add(*check)
            if pick == picks[0]:
                dropped = set(sorted(keys)[1:])
                caught = not all(ok for _, ok, _ in self.gate("", dropped, *args))
                rep.add("selfcheck:gate_rejects_dropped_map", caught, "")
            branch_counts[str(t)] = {
                "maps": n_found, "nodes": stats["nodes"],
                "twists": {str(p): c for p, c in sorted(twists.items())},
            }
            v.work["lattice_search_nodes"] += stats["nodes"]
            v.work["lattice_maps"] += n_found
        rep.counts["branches"] = branch_counts
        serialize(api, v)
        return v


def _invertible_mod_p(rows: list[list[int]], p: int) -> bool:
    """Gaussian elimination over the prime field GF(p)."""
    m = [list(r) for r in rows]
    size = len(m)
    for c in range(size):
        piv = next((r for r in range(c, size) if m[r][c] % p), None)
        if piv is None:
            return False
        m[c], m[piv] = m[piv], m[c]
        inv = pow(m[c][c], p - 2, p)
        for r in range(c + 1, size):
            f = m[r][c] * inv % p
            m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return True


class Structure:
    """The build side at (3,5), no search: poset, orthomodular axioms,
    atomisticity, search invariants over 775^2 atom pairs, and seeded
    ring-map restrictions with their parities."""

    name = "structure-3x5"
    n, p = 3, 5
    cases = 24

    def inputs(self, seed: int) -> list[tuple[tuple[int, ...], ...]]:
        """Invertible matrices over GF(5), generated without the library."""
        rng = random.Random(seed)
        out = []
        while len(out) < self.cases:
            m = [[rng.randrange(self.p) for _ in range(self.n)] for _ in range(self.n)]
            if _invertible_mod_p(m, self.p):
                out.append(tuple(map(tuple, m)))
        return out

    def setup(self, api):
        F = api.parse_field(str(self.p))
        return F, api.enumerate_subspaces(self.n, F)

    @staticmethod
    def gate(prefix, parities, cases):
        """parities: (expected, found) per restriction, found None on failure."""
        n_even = sum(1 for want, got in parities if got == EVEN)
        n_odd = sum(1 for want, got in parities if got == ODD)
        return [
            (f"{prefix}:parities_match_direction", all(w == g for w, g in parities), ""),
            (
                f"{prefix}:parity_histogram",
                (n_even, n_odd) == (cases, cases + 1),
                f"{n_even} even, {n_odd} odd",
            ),
        ]

    def verdict(self, api, matrices, clock) -> Verdict:
        t0 = clock.now()
        F, L = self.setup(api)
        v = Verdict(CampaignReport(self.name, (L.n, F.spec())), clock.now() - t0)
        rep = v.report
        n, q = self.n, F.q
        P = api.build_projection_poset(L)
        rep.add("poset_size", P.size == projection_pair_count(n, q), _detail(P.size, projection_pair_count(n, q)))
        # a rank-1 projection is a point and a complementary hyperplane
        atoms = gaussian_binomial(n, 1, q) * q ** (n - 1)
        rep.add("poset_atoms", len(P.atoms) == atoms, _detail(len(P.atoms), atoms))
        omp = api.verify_omp_axioms(P)
        rep.add("omp_axioms", omp.passed, f"{sum(ok for _, ok, _ in omp.checks)}/{len(omp.checks)} axioms")
        rep.add("atomistic", P.verify_atomistic(), "")
        _, targets = api.poset_search_plan(P)
        # GL(n, q) is transitive on rank-1 projections: one root orbit
        rep.add("root_branches_one_orbit", len(targets) == atoms, _detail(len(targets), atoms))
        v.work.update(lattice_size=L.size, poset_size=P.size, poset_atoms=len(P.atoms))

        identity_twist = F.frobenius(0)
        ring_maps = [(ODD, api.transpose_anti_automorphism(F, n))]
        for m in matrices:
            s = api.SemilinearMap(F, m, identity_twist)
            ring_maps.append((EVEN, api.conjugation_automorphism(s)))
            ring_maps.append((ODD, api.anti_automorphism_from_semilinear(s)))
        parities = []
        start = last = clock.now()
        for want, ring_map in ring_maps:
            try:
                got = api.restrict_to_projections(ring_map, P).parity
            except FalsificationError:
                got = None
            parities.append((want, got))
            now = clock.now()
            v.latencies_s.append(now - last)
            last = now
        v.loop_s = clock.now() - start
        for check in self.gate("restrictions", parities, len(matrices)):
            rep.add(*check)
        caught = not all(ok for _, ok, _ in self.gate("", parities[1:], len(matrices)))
        rep.add("selfcheck:gate_rejects_dropped_map", caught, "")
        rep.counts["restrictions"] = len(parities)
        serialize(api, v)
        return v


WORKLOADS = {w.name: w for w in (MainTheorem(), Ftpg(), Structure())}
