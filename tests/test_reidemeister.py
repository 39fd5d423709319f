"""Tests for Reidemeister numbers, spectra and the R-infinity decision."""

import functools
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crysturn.automorphisms
import crysturn.groups
import crysturn.linalg
import crysturn.reidemeister
from crysturn.automorphisms import Automorphism, base_translations, find_translation_part
from crysturn.catalog import (
    _WORD_LENGTH,
    Catalog,
    CatalogEntry,
    builtin_catalog,
    check_catalog,
    check_entry,
)
from crysturn.closed_forms import reidemeister_3_2_1_2_1, reidemeister_point_reflection
from crysturn.groups import (
    AffineMap,
    ClosureCapExceeded,
    CrystGroup,
    _checked_conjugation,
    _coset_walk,
    build_group,
    conjugation_permutation,
)
from crysturn.linalg import IntMatrix, vec_add, vector, zero_vector
from crysturn.reidemeister import (
    INFINITE,
    NormaliserUnavailable,
    RinfStatus,
    decide_r_infinity,
    is_always_infinite,
    reidemeister_number,
    reidemeister_set,
    search_r_infinity_witness,
    _compose,
    _fixing_pairs,
    _linear_part_set,
    _normaliser_cosets,
    _normaliser_letters,
    _passing,
    _twisted_blocks,
    _witness_cosets,
    spectrum,
)
from conftest import ROT3, ROT6, SWAP2
from test_groups import block_diagonal, count_fractions, count_matmul, product_generators
from oracles import (
    averaging_number,
    candidate_count,
    element_closure,
    full_closure_spectrum,
    naive_witness_words,
    pairwise_burnside_number,
    reference_coset_walk,
    union_find_number,
)


def companion_shift(n, m):
    """The n x n companion-style matrix with det(I - .) = 1 - 2m."""
    rows = [[0] * n for _ in range(n)]
    rows[0][n - 1] = 1
    for i in range(1, n):
        rows[i][i - 1] = 1
    rows[n - 2][n - 1] = m
    rows[n - 1][n - 1] = m - 1
    return IntMatrix.from_rows(rows)


class TestAlwaysInfinite:
    def test_line_identity(self, z_line):
        assert is_always_infinite(z_line, IntMatrix.from_rows([[1]]))

    def test_line_negation(self, z_line):
        assert not is_always_infinite(z_line, IntMatrix.from_rows([[-1]]))

    def test_infinite_dihedral_both(self, infinite_dihedral):
        assert is_always_infinite(infinite_dihedral, IntMatrix.from_rows([[1]]))
        assert is_always_infinite(infinite_dihedral, IntMatrix.from_rows([[-1]]))

    def test_non_normalising_rejected(self, p3_group):
        with pytest.raises(ValueError):
            is_always_infinite(p3_group, IntMatrix.from_rows([[1, 1], [0, 1]]))

    def test_blocks_stop_at_first_singular_product(self):
        # the products' rows are kept with |det(I - A.D)|; a singular one
        # ends the test there, so a lazy product list is read no further
        neg, ident = (-IntMatrix.identity(2)).rows, IntMatrix.identity(2).rows
        read = []

        def products(mats):
            for m in mats:
                read.append(m)
                yield m

        assert _twisted_blocks(products([neg, neg, ident, neg])) is None
        assert read == [neg, neg, ident]
        scaled = IntMatrix.diagonal([-1, -2]).rows
        assert _twisted_blocks(products([neg, scaled])) == [(neg, 4), (scaled, 6)]


class TestAveraging:
    def test_line_negation_gives_two(self, z_line):
        phi = Automorphism(z_line, zero_vector(1), IntMatrix.from_rows([[-1]]))
        assert averaging_number(phi) == 2

    def test_plane_anosov_gives_one(self, z_plane):
        phi = Automorphism(z_plane, zero_vector(2), IntMatrix.from_rows([[2, 1], [1, 1]]))
        assert averaging_number(phi) == 1

    def test_plane_identity_infinite(self, z_plane):
        identity = Automorphism(z_plane, zero_vector(2), IntMatrix.identity(2))
        assert averaging_number(identity) == INFINITE

    def test_torsion_rejected(self, point_reflection_2d):
        phi = Automorphism(point_reflection_2d, zero_vector(2), IntMatrix.from_rows([[0, 1], [1, 2]]))
        with pytest.raises(ValueError):
            averaging_number(phi)


class TestReidemeisterNumber:
    def test_point_reflection_value_three(self, point_reflection_2d):
        phi = Automorphism(
            point_reflection_2d, zero_vector(2), IntMatrix.from_rows([[0, -1], [1, -1]])
        )
        assert reidemeister_number(phi) == 3

    def test_point_reflection_even_family(self, point_reflection_2d):
        for m in (1, 2, 3):
            phi = Automorphism(
                point_reflection_2d,
                vector(["1/2", 0]),
                IntMatrix.from_rows([[0, 1], [1, 2 * m]]),
            )
            assert reidemeister_number(phi) == 2 * m

    def test_line_negation(self, z_line):
        phi = Automorphism(z_line, zero_vector(1), IntMatrix.from_rows([[-1]]))
        assert reidemeister_number(phi) == 2

    def test_infinite_when_det_vanishes(self, z_plane):
        identity = Automorphism(z_plane, zero_vector(2), IntMatrix.identity(2))
        assert reidemeister_number(identity) == INFINITE

    def test_group_without_normaliser_data_undecided(self):
        source = builtin_catalog().group("2/4/1/1/1")
        bare = CrystGroup(2, source.f_ext, source.mult_table, source.generator_indices)
        assert bare.normaliser_gens is None
        assert decide_r_infinity(bare).status is RinfStatus.UNDECIDED_NO_DATA
        for call in (lambda: spectrum(bare), lambda: search_r_infinity_witness(bare, 2)):
            with pytest.raises(NormaliserUnavailable):
                call()

    def test_companion_family_3d(self, point_reflection_3d):
        for m in (1, 2, 3):
            phi = Automorphism(point_reflection_3d, zero_vector(3), companion_shift(3, m))
            assert reidemeister_number(phi) == m + 1


def _catalog_linear_parts(group, word_length=2):
    """The whole normaliser closure if it is finite, else words of length
    <= ``word_length``."""
    gens = list(group.normaliser_gens)
    try:
        return list(element_closure(gens).elements)
    except ClosureCapExceeded:
        letters = set(gens) | {g.int_inverse() for g in gens}
        words = {IntMatrix.identity(group.dimension)}
        for _ in range(word_length):
            words |= {g @ h for g in letters for h in words}
        return sorted(words, key=lambda m: m.rows)


@functools.lru_cache(maxsize=None)
def _catalog_automorphisms(word_length=2):
    """(name, phi) for every catalog automorphism with finite R whose linear
    part is in :func:`_catalog_linear_parts`, over every base translation."""
    catalog = builtin_catalog()
    found = []
    for name in catalog.names():
        group = catalog.group(name)
        bases = base_translations(group)
        for d_mat in _catalog_linear_parts(group, word_length):
            d0 = find_translation_part(group, d_mat)
            if d0 is None or is_always_infinite(group, d_mat):
                continue
            found.extend((name, Automorphism(group, vec_add(base, d0), d_mat)) for base in bases)
    return tuple(found)


class TestAgainstUnionFind:
    """Every catalog automorphism with finite R small enough for the oracle."""

    MAX_CANDIDATES = 40

    def test_catalog_automorphisms(self):
        checked, groups = 0, set()
        for name, phi in _catalog_automorphisms():
            if candidate_count(phi) > self.MAX_CANDIDATES:
                continue
            assert reidemeister_number(phi) == union_find_number(phi), (name, phi)
            checked += 1
            groups.add(name)
        assert (checked, len(groups)) == (354, 14)


class TestAgainstPairwise:
    """The constant plus the live fixing pairs against the all-pairs kernel,
    which has no size limit."""

    def test_catalog_automorphisms(self):
        automorphisms = _catalog_automorphisms()
        for name, phi in automorphisms:
            assert reidemeister_number(phi) == pairwise_burnside_number(phi), (name, phi)
        assert len(automorphisms) == 354

    def test_beyond_union_find(self):
        # words of length 3 reach the automorphisms the union-find oracle skips
        large = [
            (name, phi) for name, phi in _catalog_automorphisms(3)
            if candidate_count(phi) > TestAgainstUnionFind.MAX_CANDIDATES
        ]
        for name, phi in large:
            assert reidemeister_number(phi) == pairwise_burnside_number(phi), (name, phi)
        assert len(large) == 4

    def test_large_determinant_families(self):
        # the families of the benchmark's reidnr-large-det workload
        point_reflection = builtin_catalog().group("3/1/2/1/1")
        bases = base_translations(point_reflection)
        for a in (16, 28, 40, 52, 70):
            for b in range(4):
                d_mat = IntMatrix.from_rows([[0, 0, 1], [1, 0, -a], [0, 1, b]])
                d0 = find_translation_part(point_reflection, d_mat)
                for base in bases:
                    phi = Automorphism(point_reflection, vec_add(base, d0), d_mat)
                    assert reidemeister_number(phi) == pairwise_burnside_number(phi)
        g32121 = builtin_catalog().group("3/2/1/2/1")
        for m in (*range(-12, 0), *range(1, 13)):
            d_mat = IntMatrix.from_rows([[-1, m, m], [0, -1 + 2 * m, 2 * m], [0, 1, 1]])
            for d in (vector([0, 0, 0]), vector([0, 0, "1/2"]), vector([0, 1, "1/2"])):
                phi = Automorphism(g32121, d, d_mat)
                assert reidemeister_number(phi) == pairwise_burnside_number(phi), m

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shifted_and_twisted(self, data):
        # a lattice shift of d and composition with an inner automorphism
        # move d out of [0, 1)^n and D to A.D, and keep R
        name, phi = data.draw(st.sampled_from(_catalog_automorphisms()))
        group = phi.group
        shift = data.draw(st.lists(st.integers(-3, 3), min_size=group.dimension,
                                   max_size=group.dimension))
        rep = data.draw(st.sampled_from(group.f_ext))
        gamma = AffineMap(vec_add(rep.translation, vector(shift)), rep.linear)
        # phi after conjugation by gamma
        psi = Automorphism(
            group, vec_add(phi.translation, phi.linear.apply(gamma.translation)),
            phi.linear @ gamma.linear,
        )
        value = reidemeister_number(psi)
        assert value == pairwise_burnside_number(psi) == reidemeister_number(phi), name

    def test_coset_assertion_once_per_pair(self):
        # 2/4/1/1/1 with a_1 moved by 1/2 is no group, but D = -I still maps
        # each representative onto its coset; the fixing pairs (C, A) =
        # (A_1, A_2) and (A_2, A_1) of the Burnside count leave the lattice coset
        group = builtin_catalog().group("2/4/1/1/1")
        reps = list(group.f_ext)
        reps[1] = AffineMap(vec_add(reps[1].translation, vector(["1/2", 0])), reps[1].linear)
        corrupt = CrystGroup(2, reps, group.mult_table, group.generator_indices)
        phi = Automorphism(corrupt, zero_vector(2), -IntMatrix.identity(2))
        with pytest.raises(AssertionError, match="twisted conjugation must keep the lattice coset"):
            reidemeister_number(phi)


class TestLargeDeterminants:
    """Values far beyond any coset enumeration, against the closed forms."""

    def test_point_reflection_companion(self):
        group = builtin_catalog().group("3/1/2/1/1")
        a = 10**12
        for b in (3, -7):
            d_mat = IntMatrix.from_rows([[0, 0, 1], [1, 0, -a], [0, 1, b]])
            d0 = find_translation_part(group, d_mat)
            for base in base_translations(group):
                d = vec_add(base, d0)
                phi = Automorphism(group, d, d_mat)
                assert reidemeister_number(phi) == reidemeister_point_reflection(3, d, d_mat)

    def test_g32121_family(self):
        group = builtin_catalog().group("3/2/1/2/1")
        for m in (10**9, -(10**9)):
            d_mat = IntMatrix.from_rows([[-1, m, m], [0, -1 + 2 * m, 2 * m], [0, 1, 1]])
            for d in (vector([0, 0, 0]), vector([0, 0, "1/2"]), vector([0, 1, "1/2"])):
                phi = Automorphism(group, d, d_mat)
                value = reidemeister_number(phi)
                assert value == reidemeister_3_2_1_2_1(d, d_mat)
                assert value >= 4 * 10**9


class TestReidemeisterSet:
    def test_line_negation(self, z_line):
        assert reidemeister_set(z_line, IntMatrix.from_rows([[-1]])) == {2}

    def test_line_identity(self, z_line):
        assert reidemeister_set(z_line, IntMatrix.from_rows([[1]])) == {INFINITE}

    def test_point_reflection_all_bases_give_three(self, point_reflection_2d):
        got = reidemeister_set(point_reflection_2d, IntMatrix.from_rows([[0, -1], [1, -1]]))
        assert got == {3}

    def test_empty_when_no_translation_exists(self):
        rot4 = IntMatrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        group = build_group(
            3,
            [AffineMap(vector([0, 0, "1/4"]), rot4)],
            normaliser_gens=[IntMatrix.diagonal([1, 1, -1])],
        )
        assert reidemeister_set(group, IntMatrix.diagonal([1, 1, -1])) == frozenset()


class TestDecideRInfinity:
    def test_line_fails_with_witness(self, z_line):
        verdict = decide_r_infinity(z_line)
        assert verdict.status is RinfStatus.FAILS
        assert verdict.witness == IntMatrix.from_rows([[-1]])
        assert verdict.normaliser_order == 2

    def test_infinite_dihedral_holds(self, infinite_dihedral):
        assert decide_r_infinity(infinite_dihedral).status is RinfStatus.HOLDS

    def test_klein_bottle_holds(self, klein_bottle):
        assert decide_r_infinity(klein_bottle).status is RinfStatus.HOLDS

    def test_p3_fails(self, p3_group):
        assert decide_r_infinity(p3_group).status is RinfStatus.FAILS

    def test_undecided_without_data(self):
        g = build_group(2, [])
        assert decide_r_infinity(g).status is RinfStatus.UNDECIDED_NO_DATA

    def test_undecided_over_cap(self, z_plane):
        verdict = decide_r_infinity(z_plane)
        assert verdict.status is RinfStatus.UNDECIDED_INFINITE
        assert verdict.normaliser_order is None

    def test_verdict_read_off_spectrum(self):
        # R-infinity holds iff no automorphism has a finite Reidemeister number.
        catalog = builtin_catalog()
        decided = 0
        for name in catalog.names():
            group = catalog.group(name)
            verdict = decide_r_infinity(group)
            if verdict.status is RinfStatus.UNDECIDED_INFINITE:
                continue
            computed = spectrum(group)
            holds = verdict.status is RinfStatus.HOLDS
            assert holds == (computed.finite_values == ()), name
            assert verdict.normaliser_order == computed.normaliser_order, name
            decided += 1
        assert decided == 11


class TestSpectrum:
    def test_line(self, z_line):
        got = spectrum(z_line)
        assert got.finite_values == (2,)
        assert got.contains_infinity

    def test_p3(self, p3_group):
        got = spectrum(p3_group)
        assert got.finite_values == (4,)
        assert got.contains_infinity
        assert got.normaliser_order == 12

    def test_missing_normaliser(self):
        with pytest.raises(NormaliserUnavailable):
            spectrum(build_group(2, []))

    def test_independent_of_generating_set(self, p3_group):
        from crysturn.groups import matrix_group_closure

        full = matrix_group_closure([ROT6, SWAP2])
        variants = [
            [ROT6, SWAP2],
            [SWAP2, ROT6],
            list(full.elements),
        ]
        results = []
        for gens in variants:
            g = build_group(
                2,
                [AffineMap(zero_vector(2), ROT3)],
                normaliser_gens=gens,
            )
            results.append(spectrum(g))
        assert all(r == results[0] for r in results)


class TestWitnessSearch:
    def test_plane_finds_witness_fast(self, z_plane):
        d = search_r_infinity_witness(z_plane, 2)
        assert d is not None
        assert (IntMatrix.identity(2) - d).det() != 0

    def test_infinite_dihedral_never_finds(self, infinite_dihedral):
        assert search_r_infinity_witness(infinite_dihedral, 6) is None

    def test_point_reflection_trace_one_witness(self, point_reflection_2d):
        d = search_r_infinity_witness(point_reflection_2d, 2)
        assert d is not None
        assert (IntMatrix.identity(2) - d).det() != 0
        assert (IntMatrix.identity(2) + d).det() != 0

    def test_requires_data(self):
        with pytest.raises(NormaliserUnavailable):
            search_r_infinity_witness(build_group(1, []), 2)

    def test_trivial_normaliser_has_no_word(self):
        # the empty generator list stands for {I}, whose one letter lands in F
        group = build_group(2, [AffineMap(zero_vector(2), ROT3)], normaliser_gens=[])
        assert _passing_leaders(group, 3) == []

    def test_witness_is_first_shared_word(self):
        from crysturn.catalog import builtin_catalog

        g = builtin_catalog().group("2/1/1/1/1")
        words = _passing_leaders(g, 2)
        assert len(words) > 1
        assert search_r_infinity_witness(g, 2) == words[0]


class TestInvariants:
    def test_inner_invariance(self, p3_group, point_reflection_2d):
        rng = random.Random(7)
        for group in (p3_group, point_reflection_2d):
            d_mat = -IntMatrix.identity(2) if group is p3_group else IntMatrix.from_rows([[0, -1], [1, -1]])
            d = find_translation_part(group, d_mat)
            phi = Automorphism(group, d, d_mat)
            base = reidemeister_number(phi)
            for _ in range(5):
                rep = group.f_ext[rng.randrange(group.order)]
                shift = vector([rng.randint(-3, 3) for _ in range(2)])
                gamma = AffineMap(vec_add(rep.translation, shift), rep.linear)
                twisted = Automorphism(
                    group, vec_add(d, d_mat.apply(gamma.translation)), d_mat @ gamma.linear
                )
                assert reidemeister_number(twisted) == base

    def test_averaging_agrees_on_torsion_free(self, z_line, z_plane, screw_group):
        cases = [
            (z_line, IntMatrix.from_rows([[-1]])),
            (z_plane, IntMatrix.from_rows([[2, 1], [1, 1]])),
            (z_plane, IntMatrix.from_rows([[0, 1], [1, 1]])),
            (screw_group, IntMatrix.from_rows([[0, 1, 0], [1, 1, 0], [0, 0, -1]])),
        ]
        for group, d_mat in cases:
            d = find_translation_part(group, d_mat)
            assert d is not None
            phi = Automorphism(group, d, d_mat)
            assert averaging_number(phi) == reidemeister_number(phi)

    def test_det_test_iff(self, point_reflection_2d):
        for rows in ([[0, 1], [1, 0]], [[0, -1], [1, -1]], [[1, 1], [0, 1]], [[0, 1], [1, 2]]):
            d_mat = IntMatrix.from_rows(rows)
            fires = is_always_infinite(point_reflection_2d, d_mat)
            values = reidemeister_set(point_reflection_2d, d_mat)
            if fires:
                assert values == {INFINITE}
            else:
                assert values and INFINITE not in values

    def test_point_reflection_lower_bound(self, point_reflection_2d, point_reflection_3d):
        # distinct holonomy parts never merge in these groups, so R >= 2
        for group, d_mat in (
            (point_reflection_2d, IntMatrix.from_rows([[0, -1], [1, -1]])),
            (point_reflection_3d, companion_shift(3, 2)),
        ):
            for value in reidemeister_set(group, d_mat):
                assert value >= 2


@functools.lru_cache(maxsize=None)
def _finite_normaliser_groups():
    """Catalog groups whose normaliser closure is finite, with that closure."""
    catalog = builtin_catalog()
    found = {}
    for name in catalog.names():
        group = catalog.group(name)
        try:
            found[name] = (group, element_closure(list(group.normaliser_gens)))
        except ClosureCapExceeded:
            continue
    return found


@functools.lru_cache(maxsize=None)
def _admissible(name):
    """The closure elements of a finite-normaliser catalog group that admit a
    translation part; never empty, since the identity does."""
    group, closure = _finite_normaliser_groups()[name]
    return [x for x in closure.elements if find_translation_part(group, x) is not None]


class TestCosetWalk:
    """One linear part per coset F.D against the walk over every element."""

    def test_spectrum_matches_full_closure(self):
        groups = _finite_normaliser_groups()
        assert len(groups) == 11
        for name, (group, _) in groups.items():
            assert spectrum(group) == full_closure_spectrum(group), name

    def test_witness_is_first_passing_closure_element(self):
        for name, (group, closure) in _finite_normaliser_groups().items():
            first = next(
                (d_mat for d_mat in closure.elements
                 if not is_always_infinite(group, d_mat)
                 and find_translation_part(group, d_mat) is not None),
                None,
            )
            assert decide_r_infinity(group).witness == first, name

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_set_constant_on_cosets(self, data):
        groups = _finite_normaliser_groups()
        group, closure = groups[data.draw(st.sampled_from(sorted(groups)))]
        d_mat = data.draw(st.sampled_from(closure.elements))
        a = data.draw(st.sampled_from(group.matrix_parts))
        assert reidemeister_set(group, d_mat) == reidemeister_set(group, a @ d_mat)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_set_matches_single_automorphisms(self, data):
        groups = _finite_normaliser_groups()
        group, closure = groups[data.draw(st.sampled_from(sorted(groups)))]
        d_mat = data.draw(st.sampled_from(closure.elements))
        d0 = find_translation_part(group, d_mat)
        expected = set() if d0 is None else {
            reidemeister_number(Automorphism(group, vec_add(base, d0), d_mat))
            for base in base_translations(group)
        }
        assert reidemeister_set(group, d_mat) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_set_constant_under_admissible_conjugation(self, data):
        # R(psi.phi.psi^-1) = R(phi) for an automorphism psi with linear part
        # X, and inner automorphisms change D into A.D
        groups = _finite_normaliser_groups()
        name = data.draw(st.sampled_from(sorted(groups)))
        group, closure = groups[name]
        d_mat = data.draw(st.sampled_from(closure.elements))
        x = data.draw(st.sampled_from(_admissible(name)))
        a = data.draw(st.sampled_from(group.matrix_parts))
        conjugate = a @ x @ d_mat @ x.int_inverse()
        assert reidemeister_set(group, d_mat) == reidemeister_set(group, conjugate)


def _passing_leaders(group, max_word_length):
    """The leaders of :func:`_witness_cosets`: the word search's first word
    of each passing coset, in discovery order."""
    return [leader for leader, *_ in _witness_cosets(group, max_word_length)]


def _first_per_coset(group, matrices):
    """The matrices whose coset F.D no earlier matrix lies in, in order."""
    covered, first = set(), []
    for d_mat in matrices:
        if d_mat not in covered:
            first.append(d_mat)
            covered.update(a @ d_mat for a in group.matrix_parts)
    return first


class TestNormaliserOrder:
    """|<gens>| = (cosets of F) x |<gens> ∩ F|, against the element closure."""

    @staticmethod
    def assert_closure_order(group):
        gens = list(group.normaliser_gens) or [IntMatrix.identity(group.dimension)]
        order = element_closure(gens).order
        assert _normaliser_cosets(group)[1] == order
        return order

    def test_catalog(self):
        for group, _ in _finite_normaliser_groups().values():
            self.assert_closure_order(group)

    def test_dimensions_five_and_six(self):
        factor = builtin_catalog().group("3/3/1/1/1")
        assert self.assert_closure_order(_z2_power(5)) == 3840
        assert self.assert_closure_order(_catalog_product("2/4/1/1/1", "3/3/1/1/1")) == 576
        assert self.assert_closure_order(_product_group(factor, factor, swap=True)) == 4608

    def test_trivial_normaliser(self):
        group = build_group(2, [AffineMap(zero_vector(2), ROT3)], normaliser_gens=[])
        assert self.assert_closure_order(group) == 1

    def test_part_of_the_holonomy(self):
        # F = <R90> and N = <-I> = {I, R90^2}: one coset, and |N ∩ F| = 2,
        # not |F| = 4
        r90 = IntMatrix.from_rows([[0, -1], [1, 0]])
        group = build_group(
            2, [AffineMap(zero_vector(2), r90)], normaliser_gens=[-IntMatrix.identity(2)]
        )
        assert group.order == 4
        assert _normaliser_cosets(group)[0] == []  # F is the only coset
        assert self.assert_closure_order(group) == 2


class TestSigmaComposition:
    """sigma composed along the walks against conjugating by the matrix."""

    def test_closure_walk_matches_conjugation(self):
        # each coset's sigma and the rows of its products, and one leader per
        # coset F.D != F of the closure, each the first element of its coset
        # in closure order
        for name, (group, closure) in _finite_normaliser_groups().items():
            cosets, _, _ = _normaliser_cosets(group)
            for leader, sigma, products in cosets:
                assert sigma == conjugation_permutation(group, leader), (name, leader)
                assert products == [(a @ leader).rows for a in group.matrix_parts], (name, leader)
            leaders = [IntMatrix.identity(group.dimension), *(leader for leader, _, _ in cosets)]
            assert leaders == _first_per_coset(group, closure.elements), name

    def test_caller_products_in_holonomy_order(self):
        # a caller's D is conjugated once, and the products A_i.D it keeps,
        # in holonomy order, are the ones the determinant test reads: the
        # normaliser generators of every catalog group, and every coset
        # leader of the finite-normaliser catalog groups and the two
        # dimension-6 products, each the linear part of an automorphism
        catalog = builtin_catalog()
        drawn = [(group, group.normaliser_gens) for group in map(catalog.group, catalog.names())]
        drawn += [(group, [d for d, _, _ in _normaliser_cosets(group)[0]])
                  for group in _pair_groups().values()]
        checked = 0
        for group, linear_parts in drawn:
            for linear in linear_parts:
                expected = tuple((a @ linear).rows for a in group.matrix_parts)
                sigma, products = _checked_conjugation(group, linear)
                assert products == expected, (group, linear)
                phi = Automorphism(group, find_translation_part(group, linear), linear)
                assert phi.products == expected and phi.sigma == sigma, (group, linear)
                checked += 1
        assert checked == 510

    def test_kept_letters_match_conjugation(self):
        # build_group keeps (D, D^-1, sigma_D) for each normaliser generator;
        # the walks read sigma_D, and sigma_D^-1 for the inverse letter
        catalog = builtin_catalog()
        factor = catalog.group("3/3/1/1/1")
        groups = [
            *(catalog.group(name) for name in catalog.names()),
            _z2_power(5),
            _catalog_product("2/4/1/1/1", "3/3/1/1/1"),
            _product_group(factor, factor, swap=True),
        ]
        for group in groups:
            gens = group.normaliser_gens
            kept = group.normaliser_letters
            assert gens is not None and len(kept) == len(gens), group
            for gen, (d, inv, sigma) in zip(gens, kept):
                assert d == gen
                assert d @ inv == IntMatrix.identity(group.dimension), (group, d)
                assert sigma == conjugation_permutation(group, d), (group, d)
                inverse = tuple(sorted(range(group.order), key=sigma.__getitem__))
                assert inverse == conjugation_permutation(group, inv), (group, d)

    def test_word_search_matches_naive(self):
        catalog = builtin_catalog()
        for name in catalog.names():
            group = catalog.group(name)
            expected = _first_per_coset(group, naive_witness_words(group, 3))
            assert _passing_leaders(group, 3) == expected, name

    def test_word_search_carries_each_words_sigma(self):
        catalog = builtin_catalog()
        for name in catalog.names():
            group = catalog.group(name)
            for word, sigma, _, (den, d) in _witness_cosets(group, 3):
                assert sigma == conjugation_permutation(group, word), (name, word)
                solved = tuple(Fraction(x, den) for x in d)
                assert solved == find_translation_part(group, word), (name, word)

    @pytest.mark.parametrize("name", builtin_catalog().names())
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_words_compose(self, name, data):
        group = builtin_catalog().group(name)
        assert group.normaliser_gens is not None
        gens = group.normaliser_gens
        letters = [*gens, *(g.int_inverse() for g in gens)]
        word = data.draw(st.lists(st.sampled_from(letters), max_size=6))
        matrix, sigma = IntMatrix.identity(group.dimension), tuple(range(group.order))
        for letter in word:
            matrix = letter @ matrix
            sigma = _compose(conjugation_permutation(group, letter), sigma)
        assert sigma == conjugation_permutation(group, matrix)


class TestIntegerSweep:
    """The set of one linear part, swept on integers from the translation
    part's image translations and the base offsets (I - E).b, against one
    validated automorphism per base translation b."""

    @staticmethod
    def assert_sets(group, passing):
        """The set of each (leader, sigma, twisted, d) in ``passing`` is the
        count of (d + b, leader) over every base translation b."""
        bases = base_translations(group)
        for leader, sigma, twisted, d in passing:
            solved = tuple(Fraction(x, d[0]) for x in d[1])
            expected = {
                reidemeister_number(Automorphism(group, vec_add(solved, base), leader))
                for base in bases
            }
            got = _linear_part_set(group, leader, sigma, twisted, d)
            assert got == expected, (group.name, leader)

    def test_catalog_linear_parts(self):
        catalog = builtin_catalog()
        finite, infinite, checked = 0, 0, 0
        for name in catalog.names():
            group = catalog.group(name)
            try:
                passing = list(_passing(group, _normaliser_cosets(group)[0]))
                finite += 1
            except ClosureCapExceeded:
                # the samples check_entry takes for an infinite normaliser
                passing = list(islice(_witness_cosets(group, _WORD_LENGTH), 3))
                infinite += 1
            self.assert_sets(group, passing)
            checked += len(passing)
        assert (finite, infinite, checked) == (11, 9, 41)

    @pytest.mark.parametrize("name1, name2, swap, live", [
        ("3/3/1/1/1", "3/3/1/1/1", True, False),
        ("3/3/1/1/1", "3/5/1/2/1", False, True),
    ])
    def test_dimension_6_products(self, name1, name2, swap, live):
        # a set with no live pair is the one value constant / |F|, made
        # without the base translations.  With the swap: 28 passing cosets,
        # none live, and 64 base translations; the other product has 2
        # passing cosets, both live, and 24.
        catalog = builtin_catalog()
        group = _product_group(catalog.group(name1), catalog.group(name2), swap=swap)
        passing = list(_passing(group, _normaliser_cosets(group)[0]))
        assert len(passing) == (28 if swap else 2)
        lives = [_fixing_pairs(group, sigma, twisted)[1] for _, sigma, twisted, _ in passing]
        assert any(lives) is live
        self.assert_sets(group, passing)


class TestImageVectors:
    """``Automorphism.images`` holds, for each C, the integer vector z_C by
    which the image translation d + D.a_C - E.d differs from a_sigma(C),
    against Fractions with E read from D.C.D^-1."""

    @staticmethod
    def assert_images(phi):
        group, d, linear = phi.group, phi.translation, phi.linear
        inverse = linear.int_inverse()
        by_linear = {rep.linear: rep for rep in group.f_ext}
        expected = []
        for rep in group.f_ext:
            e = by_linear[linear @ rep.linear @ inverse]
            moved = zip(d, linear.apply(rep.translation), e.linear.apply(d), e.translation)
            expected.append(tuple(x + y - z - a for x, y, z, a in moved))
        assert phi.images == tuple(expected), phi
        assert all(type(x) is int for z in phi.images for x in z), phi

    def test_catalog_automorphisms(self):
        automorphisms = _catalog_automorphisms()
        for _, phi in automorphisms:
            self.assert_images(phi)
        assert len({name for name, _ in automorphisms}) == 14

    @pytest.mark.parametrize("name1, name2, swap", [
        ("3/3/1/1/1", "3/3/1/1/1", True),
        ("3/3/1/1/1", "3/5/1/2/1", False),
    ])
    def test_dimension_6_products(self, name1, name2, swap):
        # each passing leader with its solved translation, then with one
        # base translation in turn (28 leaders, 64 bases) or with every
        # base translation (2 leaders, 24 bases)
        catalog = builtin_catalog()
        group = _product_group(catalog.group(name1), catalog.group(name2), swap=swap)
        bases = base_translations(group)
        for j, (leader, *_) in enumerate(_passing(group, _normaliser_cosets(group)[0])):
            d0 = find_translation_part(group, leader)
            self.assert_images(Automorphism(group, d0, leader))
            for base in [bases[j % len(bases)]] if swap else bases:
                self.assert_images(Automorphism(group, vec_add(d0, base), leader))


def _fresh_entry(name):
    """A catalog entry whose group is built anew, not the shared instance
    that other tests warm."""
    entry = builtin_catalog().entry(name)
    return CatalogEntry(entry.name, entry.document)


class TestSharedWork:
    """Counts of the work the coset walk and the per-D kernel avoid."""

    def test_spectrum_visits_one_linear_part_per_coset(self, monkeypatch):
        visited = []
        real = crysturn.reidemeister._linear_part_set

        def counting(group, linear, *rest):
            visited.append(linear)
            return real(group, linear, *rest)

        monkeypatch.setattr(crysturn.reidemeister, "_linear_part_set", counting)
        group = builtin_catalog().group("3/3/1/1/1")
        computed = spectrum(group)
        assert computed.normaliser_order // group.order == 12
        # only the cosets that pass the determinant test get a set: 2 of 12,
        # which are each other's inverse, so the first one's set serves both
        cosets, _, inverses = _normaliser_cosets(group)
        passing = [
            j for j, (d_mat, _, _) in enumerate(cosets) if not is_always_infinite(group, d_mat)
        ]
        assert len(passing) == 2
        first, second = passing
        assert inverses[first] == second
        assert visited == [cosets[first][0]]

    def test_spectrum_builds_few_fractions(self, monkeypatch):
        # Translations run through the kernels as ints over one denominator:
        # no Fraction here, against 180 when the solve and the base
        # translations still returned Fractions and 12616 with Fraction kernels.
        group = builtin_catalog().group("3/3/1/1/1")
        calls = count_fractions(monkeypatch)
        assert spectrum(group).finite_values == (2,)
        assert calls == []

    def test_translation_solves_stack_generator_blocks(self, monkeypatch):
        # one n-row block per holonomy generator: 8 rows for 4/9/2/1/1
        # (|F| = 6, two generators), where the full stack has 24.  Each group
        # is built anew and factors that stack once, on first use, whichever
        # comes first: the base translations and every solve read the one
        # form, and a solve makes no Smith normal form of its own (each used
        # to make one, of the stack I - A_sigma(i) for its D).
        rows = []
        real, real_rows = crysturn.linalg.smith_normal_form, crysturn.linalg._smith_rows

        def counting(m):
            rows.append(m.nrows)
            return real(m)

        def counting_rows(a, nrows, ncols):
            rows.append(nrows)
            return real_rows(a, nrows, ncols)

        for module in (crysturn.linalg, crysturn.groups):
            monkeypatch.setattr(module, "smith_normal_form", counting)
        monkeypatch.setattr(crysturn.reidemeister, "_smith_rows", counting_rows)
        for i, name in enumerate(builtin_catalog().names()):
            group = _fresh_entry(name).group()
            stack = group.dimension * len(group.generator_indices)
            rows.clear()
            if i % 2:
                base_translations(group)
            for linear in group.normaliser_gens:
                find_translation_part(group, linear)
            assert rows == [stack], name
            base_translations(group)
            _passing_leaders(group, 2)
            assert rows == [stack], name
            if name == "4/9/2/1/1":
                assert stack == 8

    def test_set_moves_translations_once(self, monkeypatch):
        # D.a_C once per linear part and an 8-row solve; 1070 applies when
        # every swept translation recomputed D.a_C and the solve had 24 rows,
        # 159 when each fixing pair formed C.a_A and A.a_E by ``apply``
        group = builtin_catalog().group("4/9/2/1/1")
        d_mat = IntMatrix.from_rows([[1, -1, 0, 0], [-1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
        calls = []
        real = IntMatrix.apply

        def counting(m, v):
            calls.append(None)
            return real(m, v)

        monkeypatch.setattr(IntMatrix, "apply", counting)
        assert reidemeister_set(group, d_mat) == {8}
        assert len(calls) <= 99

    def test_one_snf_per_fixing_pair(self, monkeypatch):
        # a group built anew, which makes its base translations in the set
        group = _fresh_entry("4/9/2/1/1").group()
        d_mat = IntMatrix.from_rows([[1, -1, 0, 0], [-1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
        d_inv = d_mat.int_inverse()
        ident = group.matrix_parts[0]
        pairs = sum(
            1
            for c in group.matrix_parts[1:]
            for a in group.matrix_parts
            if c @ a @ d_mat @ c.int_inverse() @ d_inv == a
            and abs((ident - a @ d_mat).det()) != 1
        )

        calls = []
        real, real_rows = crysturn.linalg.smith_normal_form, crysturn.linalg._smith_rows

        def counting(m):
            calls.append(m)
            return real(m)

        def counting_rows(a, nrows, ncols):
            calls.append(a)
            return real_rows(a, nrows, ncols)

        for module in (crysturn.linalg, crysturn.groups):
            monkeypatch.setattr(module, "smith_normal_form", counting)
        # the fixing pairs eliminate their blocks as raw rows
        monkeypatch.setattr(crysturn.reidemeister, "_smith_rows", counting_rows)
        assert "base_numerators" not in vars(group)
        assert reidemeister_set(group, d_mat) == {8}
        # the generator form, which the translation solve and the base
        # translations share, and one per fixing pair with C != I and
        # |det(I - A.D)| != 1: the other pairs are read off the determinants
        assert "base_numerators" in vars(group)
        assert pairs == 10 and len(calls) <= pairs + 1
        assert len(base_translations(group)) == 12

    @staticmethod
    def count_conjugations(monkeypatch) -> list:
        """Record the matrix of every conjugation of a caller's matrix from
        here on: the checked conjugation that conjugation_permutation,
        Automorphism and the entry points of ``reidemeister`` call."""
        real = crysturn.groups._checked_conjugation
        calls = []

        def counting(group, linear):
            calls.append(linear)
            return real(group, linear)

        for module in (crysturn.groups, crysturn.automorphisms, crysturn.reidemeister):
            if getattr(module, "_checked_conjugation", None) is real:
                monkeypatch.setattr(module, "_checked_conjugation", counting)
        return calls

    def test_one_conjugation_per_linear_part(self, monkeypatch):
        # 4/9/2/1/1 has |F| = 6 and 12 base translations; a set used to make
        # 2 conjugations and 174 products, conjugating again per translation,
        # then 17, when the determinant test formed the products A.D != D
        # again, and a number 5
        group = builtin_catalog().group("4/9/2/1/1")
        d_mat = IntMatrix.from_rows([[1, -1, 0, 0], [-1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
        phi = Automorphism(group, find_translation_part(group, d_mat), d_mat)
        conjugations = self.count_conjugations(monkeypatch)
        products = count_matmul(monkeypatch)
        assert reidemeister_set(group, d_mat) == {8}
        assert conjugations == [d_mat]
        assert len(products) == 2 * group.order
        conjugations.clear()
        products.clear()
        assert reidemeister_number(phi) == 8
        assert conjugations == [] and products == []

    def test_entry_points_invert_nothing(self, monkeypatch):
        # each of them inverted the caller's matrix once, to conjugate by it;
        # sigma is now read from D.A_i = A_j.D
        group = builtin_catalog().group("4/9/2/1/1")
        d_mat = IntMatrix.from_rows([[1, -1, 0, 0], [-1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
        inverses = self.count_calls(monkeypatch, IntMatrix.int_inverse, (IntMatrix,))
        assert conjugation_permutation(group, d_mat)
        d = find_translation_part(group, d_mat)
        assert reidemeister_number(Automorphism(group, d, d_mat)) == 8
        assert not is_always_infinite(group, d_mat)
        assert reidemeister_set(group, d_mat) == {8}
        assert inverses == []

    def test_word_search_conjugates_and_inverts_nothing(self, monkeypatch):
        group = builtin_catalog().group("2/1/1/1/1")
        letters = set(group.normaliser_gens) | {g.int_inverse() for g in group.normaliser_gens}
        ball = {IntMatrix.identity(2)}
        for _ in range(3):
            ball |= {letter @ word for letter in letters for word in ball}
        conjugations = self.count_conjugations(monkeypatch)
        inverses = self.count_calls(monkeypatch, IntMatrix.int_inverse, (IntMatrix,))
        words = _passing_leaders(group, 3)
        assert words and len(ball) - 1 > len(letters)
        # every word gets its sigma by composition from the letters' sigma,
        # which build_group kept with each generator's inverse; an inverse
        # letter's sigma is the inverse permutation
        assert conjugations == []
        assert inverses == []

    @staticmethod
    def count_calls(monkeypatch, real, modules) -> list:
        """Record every call of ``real`` through its binding in ``modules``."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, real.__name__, counting)
        return calls

    @staticmethod
    def count_cached(monkeypatch, name) -> list:
        """Record the group of every computation of the cached property
        ``CrystGroup.<name>`` from here on: its function, wrapped in a
        cached property of its own."""
        real = getattr(CrystGroup, name).func
        calls = []

        def counting(group):
            calls.append(group)
            return real(group)

        prop = functools.cached_property(counting)
        prop.__set_name__(CrystGroup, name)
        monkeypatch.setattr(CrystGroup, name, prop)
        return calls

    def test_group_makes_its_base_offsets_once(self, monkeypatch):
        # a spectrum, an entry check and a set of 3/5/1/2/1 read the offsets
        # of its 3 base translations, which each of them used to make anew
        entry = _fresh_entry("3/5/1/2/1")
        group = entry.group()
        numerators = self.count_cached(monkeypatch, "base_numerators")
        sweeps = self.count_cached(monkeypatch, "base_offsets")
        assert spectrum(group).finite_values == (8,)
        assert check_entry(entry).passed
        (leader, *_), = _passing(group, _normaliser_cosets(group)[0])
        assert reidemeister_set(group, leader) == {8}
        assert numerators == sweeps == [group]
        assert len(group.base_offsets) == len(base_translations(group)) == 3

    def test_catalog_pass_counts(self, monkeypatch):
        # one pass used to make 349 conjugations and 3942 products, when every
        # visited linear part conjugated the holonomy group itself, and 379
        # Smith normal forms, when the 110 fixing pairs with C = I had one
        # each; then 98, 2397 and 269, when the normaliser was closed element
        # by element, the 80 fixing pairs with |det(I - A.D)| = 1 had one
        # each and each sampled word was solved and conjugated again.  27 of
        # the 41 Reidemeister sets have no live pair and are one value each:
        # 557 matrix subtractions, 20 base-offset sweeps and 184 Burnside
        # counts when every set swept the base translations and the
        # determinant test formed each block I - A.D.  The walks used to
        # conjugate the holonomy group by every letter again, and the word
        # search to invert every generator again: 71 conjugations, 102
        # integer inverses and 1585 products, where build_group now keeps
        # each generator's inverse and sigma.  979 applies when the 110
        # fixing pairs with C = I ran the lattice-coset assertion.  759
        # applies, 111 Smith normal forms, 61 subtractions and 97 Burnside
        # counts when both cosets of an inverse pair F.D, F.D^-1 were solved
        # and counted.  100 Smith normal forms outside ``groups`` on each
        # pass, and 25 in it and 51 subtractions on the first, when each of
        # the 36 translation solves formed and factored its own stack
        # I - A_sigma(i), 44 of the subtractions on each pass.  The groups are built anew, so the pass
        # makes the generator form of the 18 that solve or sweep, one Smith
        # normal form each in ``groups``, which the solves and the base
        # translations share, and their base offsets, all kept for the
        # second pass.  The other 19 forms in ``groups`` are the
        # Bieberbach tests, one per holonomy element A != I, eliminated on
        # raw rows (they were ``smith_normal_form`` calls when it took the
        # columns to carry as options); each group keeps its verdict, so the
        # second pass makes none (it made the 19 again).
        # 1189 products when the Bieberbach tests multiplied out the powers of
        # each A that the multiplication table holds.  1167 products, 697
        # applies, 64 Smith normal forms (all of them eliminations of fixing
        # pairs) and 92 Burnside counts when every word-search sample of an
        # entry with an infinite normaliser had its own Reidemeister set (on
        # six entries two of the three lie in inverse cosets, found now by
        # one product per pair of samples) and when every walk multiplied its
        # letters by the leader I of F (101 products).  597 applies when each
        # fixing pair with C != I formed C.a_A and A.a_E by ``apply``.
        catalog = Catalog({name: _fresh_entry(name) for name in builtin_catalog().names()})
        for name in catalog.names():
            catalog.group(name)
        conjugations = self.count_conjugations(monkeypatch)
        products = count_matmul(monkeypatch)
        inverses = self.count_calls(monkeypatch, IntMatrix.int_inverse, (IntMatrix,))
        applies = self.count_calls(monkeypatch, IntMatrix.apply, (IntMatrix,))
        snfs = self.count_calls(monkeypatch, crysturn.linalg.smith_normal_form, (crysturn.linalg,))
        # the fixing pairs' eliminations, on raw rows, count as forms here
        pair_forms = self.count_calls(
            monkeypatch, crysturn.linalg._smith_rows, (crysturn.reidemeister,)
        )
        group_snfs = self.count_calls(
            monkeypatch, crysturn.groups.smith_normal_form, (crysturn.groups,)
        )
        # the Bieberbach tests' eliminations, on raw rows, count as forms in groups
        group_rows = self.count_calls(
            monkeypatch, crysturn.linalg._smith_rows, (crysturn.groups,)
        )
        subtractions = self.count_calls(monkeypatch, IntMatrix.__sub__, (IntMatrix,))
        forms = self.count_cached(monkeypatch, "generator_form")
        numerators = self.count_cached(monkeypatch, "base_numerators")
        sweeps = self.count_cached(monkeypatch, "base_offsets")
        counts = self.count_calls(
            monkeypatch, crysturn.reidemeister._burnside_count, (crysturn.reidemeister,)
        )
        assert all(report.passed for report in check_catalog(catalog))
        assert conjugations == []
        assert inverses == []
        assert len(products) <= 1093
        assert len(applies) <= 381
        assert len(snfs) + len(pair_forms) <= 50
        assert len(group_snfs) + len(group_rows) <= 19 + 18 and len(forms) <= 18
        assert len(snfs) + len(pair_forms) + len(group_snfs) + len(group_rows) <= 87
        assert len(subtractions) <= 24
        assert len(numerators) <= 6 and len(sweeps) <= 6
        assert len(counts) <= 71
        for calls in (snfs, pair_forms, group_snfs, group_rows, subtractions, forms, numerators,
                      sweeps):
            calls.clear()
        assert all(report.passed for report in check_catalog(catalog))
        assert forms == numerators == sweeps == []
        assert group_snfs == group_rows == subtractions == []
        assert len(snfs) + len(pair_forms) <= 50

    def test_set_without_live_pair_reads_no_base_translation(self):
        # both passing cosets of 3/3/1/1/1 have no live pair, so each set is
        # one value and a fresh group makes none of its 8 base translations
        entry = _fresh_entry("3/3/1/1/1")
        group = entry.group()
        assert spectrum(group).finite_values == (2,)
        assert check_entry(entry).passed
        assert "base_numerators" not in vars(group) and "base_offsets" not in vars(group)
        assert len(base_translations(group)) == 8

    def test_number_reads_the_validated_images(self, monkeypatch):
        # the count used to run the image check a second time on the same (d, D)
        automorphisms = _catalog_automorphisms()
        checks = []
        real = crysturn.automorphisms._translation_images

        def counting(*args):
            checks.append(None)
            return real(*args)

        for module in (crysturn.automorphisms, crysturn.reidemeister):
            monkeypatch.setattr(module, "_translation_images", counting)
        for _, phi in automorphisms:
            fresh = Automorphism(phi.group, phi.translation, phi.linear)
            assert len(checks) == 1
            assert reidemeister_number(fresh) == reidemeister_number(phi) != INFINITE
            assert len(checks) == 1 and fresh.images == phi.images
            checks.clear()

    def test_catalog_pass_builds_no_fraction(self, monkeypatch):
        # translations run as integer numerators from the group's scaled
        # translations to the Burnside count; a pass used to build 1373
        # Fractions, in the base translations, the translation solve and the
        # Bieberbach test, and turn most of them straight back into ints
        catalog = builtin_catalog()
        for name in catalog.names():
            catalog.group(name)
        fractions = count_fractions(monkeypatch)
        assert all(report.passed for report in check_catalog(catalog))
        assert fractions == []

    def test_walk_forms_each_coset_once(self, monkeypatch):
        # 3/3/1/1/1: 12 cosets of |F| = 4 under 3 generators.  Each coset
        # but F takes 3 letter products to leave it, F's being the letters
        # themselves, and each new one 3 products A.D: 66, 69 when the letters
        # were multiplied by the leader I of F, where the element closure
        # made 48 x 3 = 144 and its cosets 36 more
        group = builtin_catalog().group("3/3/1/1/1")
        letters = sorted(set(group.normaliser_gens), key=lambda m: m.rows)
        products = count_matmul(monkeypatch)
        walk = list(crysturn.reidemeister._coset_walk(group.matrix_parts, letters))
        new = [step for step in walk if step[-1] is not None]
        assert len(letters) == 3 and len(walk) == 12 * 3 and len(new) == 11
        assert len(products) == 11 * 3 + 11 * 3


@functools.lru_cache(maxsize=None)
def _pair_groups():
    """The finite-normaliser catalog groups and the two dimension-6 products."""
    catalog = builtin_catalog()
    factor = catalog.group("3/3/1/1/1")
    return {
        **{name: group for name, (group, _) in _finite_normaliser_groups().items()},
        "3/3/1/1/1^2 with swap": _product_group(factor, factor, swap=True),
        "3/3/1/1/1 x 3/5/1/2/1": _product_group(factor, catalog.group("3/5/1/2/1")),
    }


@functools.lru_cache(maxsize=None)
def _passing_automorphisms():
    """(name, phi) for each passing coset of a catalog group, from the
    complete walk or, on an infinite normaliser, from words of length <= 2,
    and each base translation, small enough for the union-find oracle."""
    catalog = builtin_catalog()
    found = []
    for name in catalog.names():
        group = catalog.group(name)
        try:
            leaders = [leader for leader, *_ in _passing(group, _normaliser_cosets(group)[0])]
        except ClosureCapExceeded:
            leaders = _passing_leaders(group, 2)
        for leader in leaders:
            d0 = find_translation_part(group, leader)
            for base in base_translations(group):
                phi = Automorphism(group, vec_add(d0, base), leader)
                if candidate_count(phi) <= TestAgainstUnionFind.MAX_CANDIDATES:
                    found.append((name, phi))
    return tuple(found)


class TestInversePairs:
    """The inverse of (d, D) is (-D^-1.d, D^-1), with the same Reidemeister
    number, so a spectrum solves and counts one coset of each pair F.D,
    F.D^-1."""

    def test_inverse_index_holds_the_leaders_inverse(self):
        # against int_inverse, looked up in the rows of the cosets' products
        self_inverse, pairs = 0, 0
        for name, group in _pair_groups().items():
            cosets, _, inverses = _normaliser_cosets(group)
            where = {m: j for j, (_, _, products) in enumerate(cosets) for m in products}
            assert len(inverses) == len(cosets), name
            for j, (leader, _, _) in enumerate(cosets):
                assert inverses[j] == where[leader.int_inverse().rows], (name, j)
                self_inverse += inverses[j] == j
                pairs += inverses[j] > j
        assert (self_inverse, pairs) == (188, 132)

    def test_self_inverse_passing_coset(self):
        # 3/5/1/2/1 has one passing coset, the sixth F.D != F, and it is its
        # own inverse: the spectrum still counts it
        group = builtin_catalog().group("3/5/1/2/1")
        cosets, _, inverses = _normaliser_cosets(group)
        passing = [leader for leader, *_ in _passing(group, cosets)]
        assert passing == [cosets[5][0]] and inverses[5] == 5
        assert spectrum(group).finite_values == (8,)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_inverse_automorphism_has_the_same_number(self, data):
        name, phi = data.draw(st.sampled_from(_passing_automorphisms()))
        group, d_inv = phi.group, phi.linear.int_inverse()
        inverse = Automorphism(group, tuple(-x for x in d_inv.apply(phi.translation)), d_inv)
        expected = union_find_number(phi)
        assert reidemeister_number(phi) == reidemeister_number(inverse) == expected, name

    def test_skipped_coset_has_its_partners_set(self):
        # the five 3/3/1/x/x entries skip one each, the two products 14 and 1
        skipped = 0
        for name, group in _pair_groups().items():
            cosets, _, inverses = _normaliser_cosets(group)
            for j, coset in enumerate(cosets):
                if inverses[j] < j and next(_passing(group, [coset]), None):
                    leader, partner = coset[0], cosets[inverses[j]][0]
                    assert reidemeister_set(group, leader) == reidemeister_set(group, partner), name
                    skipped += 1
        assert skipped == 5 + 14 + 1


class TestWalkAgainstReference:
    """The coset walk, on row plans with a table keyed by rows, against
    :func:`oracles.reference_coset_walk`, which multiplies and looks up
    matrices: the same steps (x, k, y, i) and the same product rows."""

    def test_complete_walks(self):
        # the 11 finite catalog normalisers, the two dimension-6 products
        # and Z2^5, 120 cosets of |F| = 32
        groups = {**_pair_groups(), "Z2^5": _z2_power(5)}
        assert len(groups) == 14
        for name, group in groups.items():
            parts = group.matrix_parts
            letters = _normaliser_letters(group)[0]
            assert list(_coset_walk(parts, letters)) == reference_coset_walk(parts, letters), name

    def test_word_searches(self):
        # check_entry's depth-limited search on the 9 infinite normalisers,
        # over the generators and their inverses
        catalog = builtin_catalog()
        infinite = [name for name in catalog.names() if name not in _finite_normaliser_groups()]
        assert len(infinite) == 9
        for name in infinite:
            group = catalog.group(name)
            parts, depth = group.matrix_parts, _WORD_LENGTH
            letters = _normaliser_letters(group, inverses=True)[0]
            walk = list(_coset_walk(parts, letters, depth))
            assert walk == reference_coset_walk(parts, letters, depth), name


def _transposition(n: int, i: int) -> IntMatrix:
    """The permutation matrix exchanging coordinates i and i + 1."""
    perm = list(range(n))
    perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return IntMatrix.from_rows([[int(c == perm[r]) for c in range(n)] for r in range(n)])


@functools.lru_cache(maxsize=None)
def _z2_power(n):
    """Z^n extended by every diagonal sign matrix (|F| = 2^n), normalised by
    the signed permutations."""
    holonomy = [
        AffineMap(zero_vector(n), IntMatrix.diagonal([-1 if j == i else 1 for j in range(n)]))
        for i in range(n)
    ]
    normaliser = [
        *(_transposition(n, i) for i in range(n - 1)),
        IntMatrix.diagonal([-1] + [1] * (n - 1)),
    ]
    return build_group(n, holonomy, normaliser_gens=normaliser, name=f"Z2^{n}")


class TestDimensionFive:
    """Z^5 extended by every diagonal sign matrix (|F| = 32), normalised by
    the signed permutations (order 3840).  Every coset F.D fails the
    determinant test: some sign choice A makes a cycle of A.D fix a vector."""

    def test_z2_power_5(self, monkeypatch):
        group = _z2_power(5)
        assert group.order == 32

        solves = []
        real = crysturn.reidemeister._translation_part

        def counting(*args):
            solves.append(None)
            return real(*args)

        monkeypatch.setattr(crysturn.reidemeister, "_translation_part", counting)
        computed = spectrum(group)
        assert computed.finite_values == () and computed.contains_infinity
        assert computed.normaliser_order == 3840
        # no coset passes the determinant test, so none is solved (120 were)
        assert solves == []
        verdict = decide_r_infinity(group)
        assert verdict.status is RinfStatus.HOLDS
        assert verdict.normaliser_order == 3840


def _product_group(g1, g2, swap=False):
    """G1 x G2 with block-diagonal holonomy and concatenated translations,
    normalised by the block-diagonal matrices (D1, I) and (I, D2) for the
    factors' normaliser generators, and by the block swap as well when
    ``swap`` (G1 = G2)."""
    n1, n2 = g1.dimension, g2.dimension
    i1, i2 = IntMatrix.identity(n1), IntMatrix.identity(n2)
    normaliser = [
        *(block_diagonal(d, i2) for d in g1.normaliser_gens),
        *(block_diagonal(i1, d) for d in g2.normaliser_gens),
    ]
    if swap:
        normaliser.append(IntMatrix.from_rows(
            [*((0,) * n1 + row for row in i1.rows), *(row + (0,) * n1 for row in i1.rows)]
        ))
    return build_group(n1 + n2, product_generators(g1, g2), normaliser_gens=normaliser)


@functools.lru_cache(maxsize=None)
def _catalog_product(name1, name2):
    catalog = builtin_catalog()
    return _product_group(catalog.group(name1), catalog.group(name2))


class TestProductGroups:
    """Dimensions 5 and 6 from products of catalog groups.  A block-diagonal
    linear part splits the translation condition by block, so each such
    automorphism is phi1 x phi2 with R = R(phi1).R(phi2); with the block
    swap, tau(x, y) = (phi2(y), phi1(x)) has R(tau) = R(phi2.phi1)."""

    def test_spectrum_2_4_1_1_1_times_3_3_1_1_1(self):
        catalog = builtin_catalog()
        group = _product_group(catalog.group("2/4/1/1/1"), catalog.group("3/3/1/1/1"))
        assert group.dimension == 5 and group.order == 12
        computed = spectrum(group)
        assert computed.finite_values == (8,) and computed.contains_infinity
        assert computed.normaliser_order == 12 * 48

    def test_spectrum_3_3_1_1_1_squared_with_swap(self):
        factor = builtin_catalog().group("3/3/1/1/1")
        group = _product_group(factor, factor, swap=True)
        assert group.dimension == 6 and group.order == 16
        computed = spectrum(group)
        assert computed.finite_values == (2, 4) and computed.contains_infinity
        assert computed.normaliser_order == 48 * 48 * 2

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_number_multiplies(self, data):
        automorphisms = _catalog_automorphisms()
        name1, phi1 = data.draw(st.sampled_from(automorphisms))
        name2, phi2 = data.draw(st.sampled_from(
            [(name, phi) for name, phi in automorphisms
             if phi.group.dimension <= 6 - phi1.group.dimension]
        ))
        group = _catalog_product(name1, name2)
        phi = Automorphism(
            group, phi1.translation + phi2.translation, block_diagonal(phi1.linear, phi2.linear)
        )
        assert reidemeister_number(phi) == reidemeister_number(phi1) * reidemeister_number(phi2)
