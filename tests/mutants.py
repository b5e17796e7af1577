"""Mutation checks: each entry breaks src/ in one place on purpose and
names the tests that must then fail.

Run from anywhere, with pytest installed:

    python tests/mutants.py

The runner copies src/ to a temporary directory and runs the named tests
against that copy (PYTHONPATH points at it, and no bytecode is written, so
an edited module is always recompiled). It requires the unmutated copy to
pass every named test, the old text of each entry to occur exactly once
in its file, and each mutant to make its own tests fail (pytest exit
status 1; an error at collection does not count as a kill). It prints one
line per mutant and exits 1 when any requirement fails. A mutant that
survives is reported, never dropped from the table.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# file (under src/), old text, new text, tests that must fail, reason
MUTANTS = [
    (
        "projlat/autos.py",
        "        if meet != stored[o]:\n            return False\n",
        "",
        ["tests/test_autos.py::test_ortho_that_does_not_reverse_the_order_is_refused"],
        "the proof that ortho reverses the order is dropped; the involution check stays",
    ),
    (
        "projlat/autos.py",
        "    if masks[:m] != list(map(coatom_sets.__getitem__, sigma)):\n",
        "    if masks[: m // 2] != list(map(coatom_sets.__getitem__, sigma[: m // 2])):\n",
        [
            "tests/test_autos.py::"
            "test_every_atom_perm_of_mo4_checks_the_orthocomplement_on_every_atom",
        ],
        "the leaf compares the coatoms' image sets for the first half of the atoms only",
    ),
    (
        "projlat/autos.py",
        "    if masks[:m] != list(map(coatom_sets.__getitem__, sigma)):\n        return None\n",
        "",
        [
            "tests/test_autos.py::"
            "test_every_atom_perm_of_mo4_checks_the_orthocomplement_on_every_atom",
            "tests/test_autos.py::test_leaf_matches_reference_on_seeded_near_misses[3-2]",
        ],
        "the leaf drops the coatom compare, its ortho check on the atoms",
    ),
    (
        "projlat/autos.py",
        "    coatoms, part, coatom_sets, _, gather = P._ortho_split\n"
        "    m = len(coatoms)\n"
        "    masks = P.lift_atom_masks(sigma, part)\n"
        "    if masks[:m] != list(map(coatom_sets.__getitem__, sigma)):\n"
        "        return None\n"
        "    found = list(map(P.atom_mask_index.get, masks[m:]))\n",
        "    coatoms, part, coatom_sets, reps, gather = P._ortho_split\n"
        "    m = len(coatoms)\n"
        "    masks = P.lift_atom_masks(sigma, part)\n"
        "    if masks[:m] != list(map(coatom_sets.__getitem__, sigma)):\n"
        "        return None\n"
        "    found = [*reps[:1], *map(P.atom_mask_index.get, masks[m + 1 :])]\n",
        [
            "tests/test_autos.py::test_leaf_looks_up_every_representative_and_no_partner",
            "tests/test_autos.py::test_leaf_matches_reference_on_seeded_near_misses[4-2]",
        ],
        "the leaf takes the first representative to be fixed, without its lookup",
    ),
    (
        "projlat/autos.py",
        "    if None in found:\n        return None\n",
        "",
        ["tests/test_autos.py::test_leaf_looks_up_every_representative_and_no_partner"],
        "the leaf drops the None test on the representatives' lookups",
    ),
    (
        "projlat/autos.py",
        "        if not _ortho_reverses_order(S):\n"
        "            raise FalsificationError(\n"
        "                f\"{S!r}'s orthocomplement is not a fixed-point-free involution \"\n"
        "                \"reversing its order\"\n"
        "            )\n"
        "        S._ortho_split = _split_by_ortho(S)\n",
        "        S._ortho_split = _split_by_ortho(S)\n"
        "        if not _ortho_reverses_order(S):\n"
        "            raise FalsificationError(\n"
        "                f\"{S!r}'s orthocomplement is not a fixed-point-free involution \"\n"
        "                \"reversing its order\"\n"
        "            )\n",
        [
            "tests/test_autos.py::"
            "test_ortho_with_a_fixed_point_is_refused_before_the_leaf_split",
        ],
        "the leaf's split by ortho pairs is made before ortho is proved an involution",
    ),
    (
        "projlat/semilinear.py",
        "    return lifted == tuple(perm)\n",
        "    return lifted is not None and lifted[:-1] == tuple(perm)[:-1]\n",
        ["tests/test_semilinear.py::test_verify_lattice_map_refuses_a_perm_repeating_an_image"],
        "the witness lift is compared on every element but the last",
    ),
    (
        "projlat/semilinear.py",
        "    if not (L.atomistic and target.atomistic):\n",
        "    if not (target is L or target.atomistic):\n",
        ["tests/test_semilinear.py::test_verify_lattice_map_proves_nothing_on_a_corrupted_order"],
        "the witness lift skips the proof that L is atomistic",
    ),
    (
        "projlat/semilinear.py",
        "    if not (L.atomistic and target.atomistic):\n",
        "    if not L.atomistic:\n",
        ["tests/test_semilinear.py::test_verify_lattice_map_proves_nothing_on_a_corrupted_order"],
        "the witness lift skips the proof that L is coatomistic",
    ),
    (
        "projlat/maps.py",
        "    return set(f) == _ordinals(len(f))\n",
        "    return set(f) <= _ordinals(len(f))\n",
        ["tests/test_maps.py::test_is_permutation_agrees_with_sorting_on_numbers"],
        "is_permutation accepts entries that repeat",
    ),
    (
        "projlat/lattice.py",
        "        except NotAnAtomPermutation:\n            return None\n",
        "        except ValueError:\n            return None\n",
        ["tests/test_autos.py::test_lift_errors_other_than_the_lattice_refusal_propagate"],
        "L.lift_atom_perm reads any ValueError of a lift as no lift",
    ),
    (
        "projlat/autos.py",
        "        if y in images:\n            return None\n",
        "",
        [
            "tests/test_autos.py::"
            "test_search_core_matches_previous_core_where_narrowings_fail[poset-2-3]",
        ],
        "the search core sends an atom to an image a forced atom already has",
    ),
    (
        "projlat/autos.py",
        "    if not P.image_families:\n"
        "        classify_parity(phi, P)  # raises: no family fixes a parity\n",
        "",
        ["tests/test_autos.py::test_decompose_matches_previous[1-2]"],
        "the decomposition reads the first image family of a P that has none",
    ),
    (
        "projlat/autos.py",
        "    except FalsificationError:\n        classify_parity(phi, P)\n        raise\n",
        "    except FalsificationError:\n        raise\n",
        [
            "tests/test_autos.py::test_decompose_matches_previous[3-2]",
            "tests/test_autos.py::test_decompose_classifies_only_when_the_rebuild_fails",
        ],
        "a rebuild leaving the poset is reported without classify_parity's verdict",
    ),
    (
        "projlat/autos.py",
        "    if rebuilt != perm:\n        classify_parity(phi, P)\n",
        "    if rebuilt != perm:\n",
        ["tests/test_autos.py::test_decompose_matches_previous[3-2]"],
        "a rebuild differing from the map is reported without classify_parity's verdict",
    ),
    (
        "projlat/autos.py",
        "        not_y, off = ~(1 << y), ~used\n",
        "        not_y, off = ~(1 << y), ~(1 << y)\n",
        [
            "tests/test_autos.py::"
            "test_search_core_matches_previous_core_where_narrowings_fail[lattice-3-2]",
        ],
        "L's narrowing lets an atom on no assigned line go onto an image line",
    ),
    (
        "projlat/autos.py",
        "        masks = [lm & not_y if lm else off for lm in lines]\n",
        "        masks = [lm if lm else off for lm in lines]\n",
        ["tests/test_autos.py::test_search_core_matches_previous_core[lattice-3-2]"],
        "L's narrowing keeps y itself in the image lines",
    ),
    (
        "projlat/autos.py",
        "        for z, w in zip(forced, images):\n"
        "            if not masks[ids[z]] >> w & 1:\n"
        "                return None\n",
        "",
        [
            "tests/test_autos.py::"
            "test_search_core_matches_previous_core_where_narrowings_fail[lattice-3-2]",
        ],
        "L's narrowing drops its check of the forced atoms",
    ),
    (
        "projlat/lattice.py",
        "        if len(sigma) != len(columns) or set(sigma) != ordinals:\n",
        "        if len(sigma) != len(columns):\n",
        ["tests/test_autos.py::test_lattice_packed_lift_matches_reference[4-2-15-2]"],
        "L's packed lift sums atom images that are no permutation",
    ),
    (
        "projlat/lattice.py",
        "    if len(set(stored)) != len(up) or any(stored[a] != 1 << t for t, a in enumerate(atoms)):\n",
        "    if any(stored[a] != 1 << t for t, a in enumerate(atoms)):\n",
        [
            "tests/test_lattice.py::"
            "test_atomistic_check_matches_pairwise_reference_on_every_small_table",
        ],
        "the atomisticity proof drops the distinctness of the stored atom sets",
    ),
    (
        "projlat/lattice.py",
        "    if len(set(stored)) != len(up) or any(stored[a] != 1 << t for t, a in enumerate(atoms)):\n",
        "    if len(set(stored)) != len(up):\n",
        [
            "tests/test_lattice.py::"
            "test_atomistic_check_matches_pairwise_reference_on_every_small_table",
            "tests/test_lattice.py::test_atom_list_naming_a_non_minimal_element_is_refused",
        ],
        "the atomisticity proof drops each atom's set being that atom alone",
    ),
    (
        "projlat/lattice.py",
        "    if sum(m.bit_count() for m in stored) != sum(up[a].bit_count() for a in atoms):\n"
        "        return False\n",
        "",
        [
            "tests/test_lattice.py::"
            "test_atomistic_check_matches_pairwise_reference_on_every_small_table",
            "tests/test_lattice.py::test_atomistic_check_matches_pairwise_reference[32]",
        ],
        "the atomisticity proof drops the equal incidence totals",
    ),
    (
        "projlat/lattice.py",
        "        if up[i] != above or not above >> i & 1:\n",
        "        if up[i] != above:\n",
        [
            "tests/test_lattice.py::"
            "test_atomistic_check_matches_pairwise_reference_on_every_small_table",
        ],
        "the atomisticity proof drops each element being above its own atoms",
    ),
    (
        "projlat/lattice.py",
        "        um, dm, join = self.up_masks, self.down_masks, self.up_mask_index\n"
        "        ua, db = um[a], dm[b]\n"
        "        return all(\n"
        "            dm[join[um[y] & ua]] & db == dm[y] for y in _bits(um[self.glb_idx(a, b)] & db)\n"
        "        )\n",
        "        return True\n",
        [
            "tests/test_lattice.py::test_modular_pair_predicates_match_their_definitions[N5]",
            "tests/test_lattice.py::test_pentagon_has_one_pair_failing_each_predicate",
        ],
        "every pair counts as a modular pair",
    ),
    (
        "projlat/lattice.py",
        "        D.up_masks, D.down_masks = self.down_masks, self.up_masks\n",
        "        D.up_masks, D.down_masks = self.up_masks, self.down_masks\n",
        [
            "tests/test_lattice.py::test_modular_pair_predicates_match_their_definitions[N5]",
            "tests/test_lattice.py::test_pentagon_has_one_pair_failing_each_predicate",
        ],
        "the dual leaves the order unreversed, so (a,b)M* is read as (a,b)M",
    ),
    (
        "projlat/lattice.py",
        "self.coatoms, self.top, self.bottom\n",
        "self.coatoms, self.bottom, self.top\n",
        [
            "tests/test_lattice.py::test_covering_checks_match_reference_where_they_fail",
        ],
        "the dual's bounds are left unswapped, so the dual covering check passes vacuously",
    ),
    (
        "projlat/lattice.py",
        "            for r in s.basis:\n                mask &= through[r]\n",
        "            for r in s.basis[:1]:\n                mask &= through[r]\n",
        [
            "tests/test_lattice.py::test_order_against_pairwise_containment[4-2]",
            "tests/test_lattice.py::test_tables_against_rref_oracle[L32]",
        ],
        "L's up-set of an element is read from its first basis row only",
    ),
    (
        "projlat/lattice.py",
        "            yield vec_mat(F, head + c, basis)\n",
        "            yield basis[i]\n",
        [
            "tests/test_lattice.py::test_point_vectors_are_one_per_point_of_each_element[3-2]",
            "tests/test_lattice.py::test_order_against_pairwise_containment[3-5]",
        ],
        "the point enumeration yields each basis row without its combinations",
    ),
    (
        "projlat/lattice.py",
        "    for i in range(d):\n        head = (0,) * i + (1,)\n",
        "    for i in range(min(d, 1)):\n        head = (0,) * i + (1,)\n",
        [
            "tests/test_lattice.py::test_point_vectors_are_one_per_point_of_each_element[2-5]",
            "tests/test_lattice.py::test_order_against_pairwise_containment[2-8]",
        ],
        "the point enumeration yields only the points led by the first basis row",
    ),
    (
        "projlat/lattice.py",
        "        return self.point_index[scale_vec(self.field, self.field.inv_table[lead], v)]\n",
        "        return self.point_index[tuple(v)]\n",
        [
            "tests/test_semilinear.py::test_point_table_agrees_with_span[3-3]",
            "tests/test_autos.py::test_semilinear_oracle_matches_brute_force[3-3]",
        ],
        "the point lookup reads the vector without scaling it to lead with 1",
    ),
    (
        "projlat/semilinear.py",
        "        self.multiples = [_Memo(lambda x, r=r: scale_vec(F, sigma[x], r)) for r in rows]\n",
        "        self.multiples = [_Memo(lambda x, r=r: scale_vec(F, x, r)) for r in rows]\n",
        [
            "tests/test_semilinear.py::test_apply_vector_equals_vec_mat_on_every_vector[3-2^2]",
            "tests/test_semilinear.py::test_match_semilinear_recovers_frobenius",
        ],
        "the row multiples are built with x in place of twist(x)",
    ),
    (
        "projlat/semilinear.py",
        "    unscales = [inv[x] for x in scales]\n",
        "    unscales = scales\n",
        ["tests/test_semilinear.py::test_match_semilinear_recovers_frobenius"],
        "the pencil inverse multiplies column j by k c_j instead of dividing by it",
    ),
    (
        "projlat/ringmaps.py",
        "        object.__setattr__(s, \"_ring_tables\", tables)\n",
        "        setattr(type(s), \"_ring_tables\", tables)\n",
        [
            "tests/test_ringmaps.py::test_ring_maps_of_one_witness_share_its_row_tables",
            "tests/test_ringmaps.py::test_row_tables_match_products_on_every_matrix[2-3]",
        ],
        "the ring tables of one witness are read by the ring maps of every other",
    ),
    (
        "projlat/projposet.py",
        "            part = self.lattice.atom_lists, self.lattice.dual.atom_lists, None\n",
        "            part = self.lattice.atom_lists, self.lattice.atom_lists, None\n",
        [
            "tests/test_autos.py::test_product_lift_matches_reference_on_seeded_perms[3-2]",
            "tests/test_projposet.py::test_product_order_matches_pairwise_order[3-2]",
        ],
        "P's kernel side is read from L's atom sets, not L.dual's",
    ),
    (
        "projlat/projposet.py",
        "                table[self.ortho[i]] = mat_sub(F, one, e)\n",
        "                table[self.ortho[i]] = e\n",
        [
            "tests/test_ringmaps.py::test_idempotent_table_is_one_projector_per_element[P32]",
            "tests/test_ringmaps.py::test_restriction_equals_previous_restriction[P32]",
        ],
        "the partner of each computed idempotent E is stored as E, not I - E",
    ),
    (
        "projlat/projposet.py",
        "                table[self.ortho[i]] = mat_sub(F, one, e)\n",
        "                table[self.ortho[i]] = mat_sub(F, e, one)\n",
        [
            "tests/test_ringmaps.py::test_idempotent_table_is_one_projector_per_element[P23]",
            "tests/test_ringmaps.py::test_im_ker_lemma_exhaustive",
        ],
        "the partner of each computed idempotent E is E - I, which equals I - E only in "
        "characteristic 2",
    ),
    (
        "projlat/ringmaps.py",
        "    if None in perm:\n"
        "        raise FalsificationError(\n"
        "            \"image of a projection is not a projection\", {\"index\": perm.index(None)}\n"
        "        )\n",
        "",
        ["tests/test_ringmaps.py::test_restriction_refuses_a_projection_sent_outside_P[P32]"],
        "the restriction drops its refusal of an image that is no projection",
    ),
    (
        "projlat/lattice.py",
        "    if count > bound:\n",
        "    if count >= bound:\n",
        ["tests/test_autos.py::test_lattice_campaigns_refuse_a_lattice_above_the_search_bound"],
        "every limit refuses a count equal to it",
    ),
    (
        "projlat/projposet.py",
        '    check_limit(expected, "projections", "poset element limit", POSET_ELEMENT_LIMIT)\n',
        '    check_limit(expected, "projections", "poset element limit", POSET_ELEMENT_LIMIT - 1)\n',
        ["tests/test_projposet.py::test_poset_element_limit_is_inclusive"],
        "P's element limit refuses a count equal to it",
    ),
    (
        "projlat/projposet.py",
        '    check_limit(expected, "projections", "poset element limit", POSET_ELEMENT_LIMIT)\n'
        "    pairs = [\n"
        "        (a, b)\n"
        "        for a in range(L.size)\n"
        "        for b in L.complements_idx(a)\n"
        "        if L.is_modular_pair_idx(a, b) and L.dual.is_modular_pair_idx(a, b)\n"
        "    ]\n",
        "    pairs = [\n"
        "        (a, b)\n"
        "        for a in range(L.size)\n"
        "        for b in L.complements_idx(a)\n"
        "        if L.is_modular_pair_idx(a, b) and L.dual.is_modular_pair_idx(a, b)\n"
        "    ]\n"
        '    check_limit(expected, "projections", "poset element limit", POSET_ELEMENT_LIMIT)\n',
        [
            "tests/test_cli.py::test_poset_beyond_its_element_limit_exits_2[argv0-6-2-1051586]",
            "tests/test_cli.py::test_poset_beyond_its_element_limit_exits_2[argv1-3-31-1908548]",
        ],
        "P's element limit is checked after the pair filter has tested every pair",
    ),
    (
        "projlat/cli.py",
        "    for bound in bounds:\n        bound(args.n, F)\n    L = enumerate_subspaces(args.n, F)\n",
        "    L = enumerate_subspaces(args.n, F)\n    for bound in bounds:\n        bound(args.n, F)\n",
        [
            "tests/test_cli.py::test_ambient_beyond_a_search_bound_exits_2[argv3-1080-150]",
            "tests/test_cli.py::test_im_ker_lemma_beyond_its_pair_bound_exits_2",
            "tests/test_cli.py::test_refusal_of_a_count_beyond_30_digits_stays_short",
        ],
        "the admission helper builds L before the verb's closed-form bound",
    ),
    (
        "projlat/projposet.py",
        "    brute = enumerate_idempotents(F, n)  # its scan limit refuses before P is built\n"
        "    P = build_projection_poset(L)\n",
        "    P = build_projection_poset(L)\n"
        "    brute = enumerate_idempotents(F, n)  # its scan limit refuses before P is built\n",
        ["tests/test_cli.py::test_correspondence_scan_limit_refuses_before_p"],
        "verify_projection_correspondence builds P before the idempotent scan's limit",
    ),
    (
        "projlat/autos.py",
        "        return math.factorial((q**n - 1) // (q - 1))\n",
        "        return projective_group_order(n, q, k)\n",
        [
            "tests/test_autos.py::test_expected_lattice_automorphism_counts",
            "tests/test_cli.py::test_simple_verbs_pass",
            "tests/test_cli.py::test_ambient_beyond_a_search_bound_exits_2[argv6-3628800-1048576]",
        ],
        "the lattice map count at n <= 2 is |PGammaL(2, q)|, not (number of atoms)!",
    ),
    (
        "projlat/autos.py",
        "semi == keys if L.n >= 3 else semi <= keys",
        "semi == keys",
        [
            "tests/test_autos.py::test_semilinear_check_compares_by_inclusion_only_below_3[2-5-720-120]",
            "tests/test_cli.py::test_simple_verbs_pass",
        ],
        "the semilinear check asks for equality at n <= 2 too",
    ),
    (
        "projlat/autos.py",
        "semi == keys if L.n >= 3 else semi <= keys",
        "semi <= keys",
        [
            "tests/test_autos.py::test_semilinear_check_compares_by_inclusion_only_below_3[3-2-168-168]",
        ],
        "the semilinear check asks for inclusion only at n >= 3 too",
    ),
    (
        "projlat/autos.py",
        "        lane = full ^ (1 << i)\n",
        "        lane = full\n",
        [
            "tests/test_autos.py::"
            "test_diagonal_key_met_off_the_diagonal_stays_out_of_allowed",
        ],
        "a pair color's lane keeps the diagonal bit, so allowed[y] can hold y",
    ),
    (
        "projlat/autos.py",
        "        for b, byte in enumerate(key):\n",
        "        for b, byte in enumerate(key[:1]):\n",
        [
            "tests/test_autos.py::test_pair_key_fields_fill_their_slot[counts1-2]",
            "tests/test_autos.py::test_more_than_256_pair_colors",
        ],
        "keys in slots of two bytes or more are compared on their high byte only",
    ),
    (
        "projlat/autos.py",
        "        j = (~covered & (covered + 1)).bit_length() - 1\n",
        "        j = (full ^ covered).bit_length() - 1\n",
        [
            "tests/test_autos.py::test_row_whose_first_new_key_follows_the_diagonal",
        ],
        "a row's keys are met from its last uncovered slot down, not in order of first sight",
    ),
    (
        "projlat/autos.py",
        "            spread[width - 1 :: width] = format(lane, f\"0{m}b\").encode()\n",
        "            spread[::width] = format(lane, f\"0{m}b\").encode()\n",
        [
            "tests/test_autos.py::test_more_than_256_pair_colors",
        ],
        "color ids of two bytes are written into the high byte of their slot",
    ),
    (
        "projlat/lattice.py",
        "                    down[lo + t] |= down[s]\n",
        "                    down[lo + t] |= 1 << s\n",
        [
            "tests/test_lattice.py::"
            "test_down_sets_from_lower_covers_match_the_pairwise_reading[3-2]",
        ],
        "L's down-set of an element takes its lower covers, not their down-sets",
    ),
    (
        "projlat/ringmaps.py",
        "        x = [plane.translate(right_codes) for plane in (columns if by_columns else rows)]\n",
        "        x = [plane.translate(right_codes) for plane in rows]\n",
        [
            "tests/test_ringmaps.py::test_batch_restriction_equals_the_per_matrix_one[3-2]",
            "tests/test_ringmaps.py::test_batch_restriction_equals_the_per_matrix_one[3-5]",
        ],
        "the batch anti-automorphism reads the row planes, not the column planes",
    ),
    (
        "projlat/matrices.py",
        "        [bytes(c // place[j] % q * place[i] for c in range(q**n)).ljust(256, b\"\\0\")\n",
        "        [bytes(c // place[i] % q * place[j] for c in range(q**n)).ljust(256, b\"\\0\")\n",
        [
            "tests/test_ringmaps.py::test_batch_restriction_equals_the_per_matrix_one[2-3]",
            "tests/test_ringmaps.py::test_code_planes_and_their_transpose[3-5]",
        ],
        "the transpose's digit tables take digit i of a row code and place it at digit j",
    ),
    (
        "projlat/ringmaps.py",
        "    if None in perm:\n        raise FalsificationError(\n",
        "    if None in perm and planes is None:\n        raise FalsificationError(\n",
        ["tests/test_ringmaps.py::test_batch_restriction_refuses_an_image_outside_P[P32]"],
        "the batch restriction drops its refusal of an image that is no projection",
    ),
    (
        "projlat/cli.py",
        "bounds=(_check_lattice_search_bound, _check_constructed_side_bound)",
        "bounds=(_check_lattice_search_bound,)",
        [
            "tests/test_cli.py::"
            "test_constructed_side_beyond_its_entry_limit_exits_2[verify-semidirect-3-5-576600000]",
        ],
        "verify-semidirect builds L and P before its constructed-side limit",
    ),
    (
        "projlat/projposet.py",
        "        return rows, transpose_code_planes(rows, L.field.q)\n",
        "        return rows, rows\n",
        [
            "tests/test_ringmaps.py::test_poset_code_planes_read_its_idempotents[P35]",
            "tests/test_ringmaps.py::test_batch_restriction_equals_the_per_matrix_one[3-5]",
        ],
        "P's column code planes are its row code planes",
    ),
    (
        "projlat/ringmaps.py",
        "    right = left = None\n",
        "    right, left = (table.__getitem__ for table in _ring_tables(s))\n",
        ["tests/test_ringmaps.py::test_planes_restriction_builds_no_row_tables"],
        "a ring map of a witness builds its row tables when it is made, not on first use",
    ),
    (
        "projlat/semilinear.py",
        "    L.check_map_size(m.perm)\n    if _lift_proves(m, L):\n",
        "    if _lift_proves(m, L):\n",
        [
            "tests/test_autos.py::test_a_map_of_another_ambient_is_refused[verify-lattice-33-on-32]",
            "tests/test_autos.py::test_a_map_of_another_ambient_is_refused[verify-lattice-32-on-33]",
        ],
        "verify_lattice_map judges a map of another lattice instead of refusing it",
    ),
    (
        "projlat/ringmaps.py",
        "    if (phi.field, phi.n) != (L.field, L.n):\n",
        "    if phi.field != L.field:\n",
        ["tests/test_autos.py::test_a_map_of_another_ambient_is_refused[restrict-3^2-on-33]"],
        "the restriction's ambient check compares the field and not the dimension",
    ),
    (
        "projlat/autos.py",
        "            if NO_ATOM not in out:\n                return tuple(out)\n",
        "            return tuple(out)\n",
        ["tests/test_autos.py::test_atom_perm_refusals_are_the_pair_tables_on_the_byte_path"],
        "the byte kernel returns an atom perm holding NO_ATOM instead of refusing the map",
    ),
    (
        "projlat/autos.py",
        "            if odd:\n                images, kernels = kernels, images\n",
        "",
        ["tests/test_autos.py::test_atom_perms_by_code_planes_match_the_pair_table[3-2-None]"],
        "the byte kernel reads an odd map's images without swapping the planes",
    ),
    (
        "projlat/projposet.py",
        "        stride = H + 1\n",
        "        stride = H\n",
        ["tests/test_autos.py::test_atom_code_planes_name_every_pair_of_L_exactly[4-2]"],
        "point codes step by H, so a kernel that is no hyperplane aliases the next point's "
        "first atom",
    ),
    (
        "projlat/autos.py",
        '    _refuse_entry_outside(lp, P.lattice.size, "lattice")\n',
        "",
        ["tests/test_autos.py::test_atom_perm_refuses_an_entry_outside_the_lattice[3-4]"],
        "the pair table reads a negative entry as an index from the end",
    ),
    (
        "projlat/autos.py",
        "        if table is not None and not table.translate(None, _BYTES[:size]):\n",
        "        if table is not None:\n",
        ["tests/test_autos.py::test_atom_perm_refuses_an_entry_outside_the_lattice[4-2]"],
        "the byte kernel accepts an entry past L that no atom reads",
    ),
    (
        "projlat/lattice.py",
        "        if self.dims != sorted(self.dims):\n",
        "        if False:\n",
        [
            "tests/test_autos.py::"
            "test_lattice_shuffled_within_each_dimension_has_the_same_automorphisms",
        ],
        "L takes elements out of dimension order, and its down-sets come out wrong",
    ),
    (
        "projlat/autos.py",
        "    repeats = not isinstance(phi, PosetMap) and not is_permutation(perm)\n",
        "    repeats = False\n",
        ["tests/test_autos.py::test_classify_parity_refuses_a_bare_map_that_is_no_permutation"],
        "classify_parity judges a bare map that is no permutation of P",
    ),
    # Not listed: the partner write skipped altogether. Every entry then
    # comes from projector_matrix of its own pair, the same matrices, so
    # the mutant is equivalent and no test can kill it.
]


def _pytest(root: Path, src: Path, tests: list[str]) -> int:
    """The exit status of pytest on tests, importing projlat from src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True).returncode


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    start = time.perf_counter()
    failed = False
    for file, old, _, _, reason in MUTANTS:
        count = (root / "src" / file).read_text().count(old)
        if count != 1:
            print(f"STALE {file}: old text found {count} times ({reason})")
            failed = True
    if failed:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(root / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        every_test = sorted({t for *_, tests, _ in MUTANTS for t in tests})
        status = _pytest(root, src, every_test)
        print(f"unmutated: pytest exit {status} on {len(every_test)} tests")
        if status != 0:
            return 1
        for file, old, new, tests, reason in MUTANTS:
            path = src / file
            original = path.read_text()
            path.write_text(original.replace(old, new))
            status = _pytest(root, src, tests)
            path.write_text(original)
            killed = status == 1
            failed |= not killed
            print(f"{'killed' if killed else 'SURVIVED'} (pytest exit {status}) {file}: {reason}")
    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
