"""Tests for automorphism construction, translation solving and base sets."""

import functools
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crysturn.automorphisms import (
    Automorphism,
    base_translations,
    conjugation_permutation,
    find_translation_part,
)
from crysturn.catalog import builtin_catalog
from crysturn.groups import AffineMap, ClosureCapExceeded, build_group, matrix_group_closure
from crysturn.linalg import (
    IntMatrix,
    vec_add,
    vector,
    zero_vector,
)
from crysturn.reidemeister import is_always_infinite, reidemeister_number, reidemeister_set
from conftest import ROT3, SWAP2
from oracles import (
    candidate_count,
    conjugate,
    conjugation_keeps_group,
    full_stack_base_translations,
    full_stack_translation_part,
    holonomy_index,
    is_integral,
    naive_witness_words,
    representative,
    union_find_number,
    vec_mod1,
    vec_sub,
)

# Catalog groups for the validation cross-check: translation denominators
# g = 1 and g = 2, dimensions 1 to 4.
ORACLE_GROUPS = (
    "1/1/1/1/1", "2/1/2/1/1", "klein-bottle", "3/2/1/1/2", "3/3/1/1/1", "3/3/1/4/2", "4/9/2/1/1",
)


@st.composite
def conjugation_data(draw):
    """(group, d, D): D a word of up to four normaliser generators or their
    inverses; d drawn with denominators 1 to 12, either outright, as a
    perturbation of the solved translation, or as a valid translation."""
    group = builtin_catalog().group(draw(st.sampled_from(ORACLE_GROUPS)))
    n = group.dimension
    letters = [*group.normaliser_gens, *(g.int_inverse() for g in group.normaliser_gens)]
    linear = IntMatrix.identity(n)
    for letter in draw(st.lists(st.sampled_from(letters), max_size=4)):
        linear = letter @ linear
    rational = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
    random_d = tuple(draw(rational) for _ in range(n))
    solved = find_translation_part(group, linear)
    mode = draw(st.sampled_from(["random", "perturbed", "valid"]))
    if solved is None or mode == "random":
        return group, random_d, linear
    if mode == "perturbed":
        return group, vec_add(solved, random_d), linear
    shift = tuple(draw(st.integers(-3, 3)) for _ in range(n))
    base = draw(st.sampled_from(base_translations(group)))
    return group, vec_add(vec_add(solved, base), shift), linear


@functools.lru_cache(maxsize=None)
def _oracle_linear_parts() -> list:
    """(name, D) for every element of the 11 finite normaliser closures of
    the catalog and every word of naive_witness_words(., 3) of the 9 entries
    with an infinite normaliser."""
    catalog = builtin_catalog()
    found, finite = [], 0
    for name in catalog.names():
        group = catalog.group(name)
        try:
            linears = matrix_group_closure(list(group.normaliser_gens)).elements
            finite += 1
        except ClosureCapExceeded:
            linears = naive_witness_words(group, 3)
        found.extend((name, linear) for linear in linears)
    assert finite == 11 and len(catalog.names()) == 20
    return found


class TestConjugationPermutation:
    def test_identity_matrix(self, p3_group):
        sigma = conjugation_permutation(p3_group, IntMatrix.identity(2))
        assert sigma == tuple(range(3))

    def test_central_holonomy(self, point_reflection_2d):
        sigma = conjugation_permutation(
            point_reflection_2d, IntMatrix.from_rows([[0, 1], [1, 2]])
        )
        assert sigma == (0, 1)

    def test_swap_exchanges_rotations(self, p3_group):
        sigma = conjugation_permutation(p3_group, SWAP2)
        i = holonomy_index(p3_group, ROT3)
        j = holonomy_index(p3_group, ROT3 @ ROT3)
        assert sigma[i] == j and sigma[j] == i

    def test_non_normalising_rejected(self, p3_group):
        with pytest.raises(ValueError):
            conjugation_permutation(p3_group, IntMatrix.from_rows([[1, 1], [0, 1]]))

    def test_homomorphism_property(self, p3_group):
        d1 = SWAP2
        d2 = IntMatrix.from_rows([[1, -1], [1, 0]])
        lhs = conjugation_permutation(p3_group, d1 @ d2)
        sigma1 = conjugation_permutation(p3_group, d1)
        sigma2 = conjugation_permutation(p3_group, d2)
        assert lhs == tuple(sigma1[j] for j in sigma2)

    # the public entry points that take a caller's linear part
    ENTRY_POINTS = (
        conjugation_permutation,
        find_translation_part,
        lambda group, linear: Automorphism(group, zero_vector(group.dimension), linear),
        is_always_infinite,
        reidemeister_set,
    )

    @pytest.mark.parametrize(
        "rows, message", [([[2, 0], [0, 2]], "not unimodular"), ([[1, 0], [0, 0]], "singular")]
    )
    def test_commuting_non_unimodular_rejected(self, point_reflection_2d, rows, message):
        # both commute with -I, so D.A_i = A_i.D for every i: only the
        # determinant test tells them from a normalising matrix
        linear = IntMatrix.from_rows(rows)
        for call in self.ENTRY_POINTS:
            with pytest.raises(ValueError, match=message):
                call(point_reflection_2d, linear)

    @pytest.mark.parametrize("rows", [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]]])
    def test_wrong_shape_rejected(self, rows):
        # checked before any product or determinant, with the message the CLI shows
        group = builtin_catalog().group("3/3/1/1/1")
        message = "^automorphism data does not match the group dimension$"
        for call in self.ENTRY_POINTS:
            with pytest.raises(ValueError, match=message):
                call(group, IntMatrix.from_rows(rows))

    def test_matches_conjugation_by_the_inverse(self):
        # sigma is read from D.A_i = A_j.D; here A_j = D.A_i.D^-1 is formed
        # with the inverse, for every word of length <= 2 in the normaliser
        # generators and their inverses
        catalog = builtin_catalog()
        finite = 0
        for name in catalog.names():
            group = catalog.group(name)
            gens = list(group.normaliser_gens)
            try:
                matrix_group_closure(gens)
            except ClosureCapExceeded:
                continue
            finite += 1
            letters = [IntMatrix.identity(group.dimension), *gens, *(g.int_inverse() for g in gens)]
            for linear in {a @ b for a in letters for b in letters}:
                inv = linear.int_inverse()
                expected = tuple(
                    holonomy_index(group, linear @ a @ inv) for a in group.matrix_parts
                )
                assert conjugation_permutation(group, linear) == expected, (name, linear)
        assert finite == 11


class TestFindTranslationPart:
    def test_lattice_any_matrix(self, z_plane):
        for rows in ([[0, 1], [1, 0]], [[1, 1], [0, 1]], [[2, 1], [1, 1]]):
            d = find_translation_part(z_plane, IntMatrix.from_rows(rows))
            assert d == zero_vector(2)

    def test_point_reflection_half_integral(self, point_reflection_2d):
        d = find_translation_part(
            point_reflection_2d, IntMatrix.from_rows([[0, 1], [1, 2]])
        )
        assert d is not None
        assert all((2 * x) % 1 == 0 for x in d)

    def test_g32121_paper_family(self, g32121):
        d_m = IntMatrix.from_rows([[-1, 1, 1], [0, 1, 2], [0, 1, 1]])
        d = find_translation_part(g32121, d_m)
        assert d is not None
        assert conjugation_keeps_group(g32121, d, d_m)
        # the hand-picked translation (0, 0, 1/2) is valid for this family too
        assert conjugation_keeps_group(g32121, vector([0, 0, "1/2"]), d_m)

    def test_returned_translation_always_valid(self, screw_group, klein_bottle):
        for group in (screw_group, klein_bottle):
            for gen in group.normaliser_gens:
                d = find_translation_part(group, gen)
                if d is not None:
                    assert conjugation_keeps_group(group, d, gen)

    def test_absence_is_sound(self):
        """When no translation is found, a brute-force grid scan agrees."""
        # fourfold screw group: mirroring the screw axis reverses handedness,
        # so no translation can make the mirror an automorphism
        rot4 = IntMatrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        group = build_group(
            3,
            [AffineMap(vector([0, 0, "1/4"]), rot4)],
            normaliser_gens=[IntMatrix.diagonal([1, 1, -1])],
        )
        mirror = IntMatrix.diagonal([1, 1, -1])
        assert find_translation_part(group, mirror) is None
        # any valid translation would live on the 1/8-grid (translation
        # denominators times invariant factors); scan all of it
        grid = [Fraction(k, 8) for k in range(8)]
        for cand in product(grid, repeat=3):
            assert not conjugation_keeps_group(group, cand, mirror)


class TestAgainstFullStack:
    """The k.n-row solve on the holonomy generators against the n.|F|-row
    solve on every holonomy element."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_generator_system_is_exact(self, data):
        name, linear = data.draw(st.sampled_from(_oracle_linear_parts()))
        group = builtin_catalog().group(name)
        d = find_translation_part(group, linear)
        d_full = full_stack_translation_part(group, linear)
        assert (d is None) == (d_full is None)
        full_bases = full_stack_base_translations(group)
        assert {vec_mod1(base) for base in full_bases} == set(base_translations(group))
        if d is None:
            assert reidemeister_set(group, linear) == frozenset()
            return
        assert conjugation_keeps_group(group, d, linear)
        # the Reidemeister set from the oracle's d and bases, one automorphism each
        expected = {
            reidemeister_number(Automorphism(group, vec_add(base, d_full), linear))
            for base in full_bases
        }
        assert reidemeister_set(group, linear) == expected


class TestBaseTranslations:
    def test_lattice(self, z_plane):
        assert base_translations(z_plane) == [zero_vector(2)]

    def test_infinite_dihedral(self, infinite_dihedral):
        got = base_translations(infinite_dihedral)
        assert sorted(got) == [(0,), (Fraction(1, 2),)]

    def test_point_reflection_four_elements(self, point_reflection_2d):
        got = base_translations(point_reflection_2d)
        assert len(got) == 4
        assert sorted(got) == sorted(
            (Fraction(a, 2), Fraction(b, 2)) for a in (0, 1) for b in (0, 1)
        )

    def test_every_entry_is_an_automorphism(self, p3_group, point_reflection_2d, g32121):
        for group in (p3_group, point_reflection_2d, g32121):
            for d in base_translations(group):
                Automorphism(group, d, IntMatrix.identity(group.dimension))

    def test_distinct_modulo_inner(self, point_reflection_2d):
        # distinct base translations differ by a non-integral vector, so the
        # corresponding automorphisms differ by a non-inner one
        catalog = builtin_catalog()
        groups = [point_reflection_2d, *(catalog.group(name) for name in catalog.names())]
        assert len(groups) == 21
        for group in groups:
            bases = base_translations(group)
            for i, d1 in enumerate(bases):
                for d2 in bases[i + 1 :]:
                    assert not is_integral(vec_sub(d1, d2)), group.name

    def test_reduced_and_sorted(self, p3_group, infinite_dihedral):
        catalog = builtin_catalog()
        for group in (p3_group, infinite_dihedral, *map(catalog.group, catalog.names())):
            bases = base_translations(group)
            assert bases == sorted(bases), group.name
            assert all(0 <= x < 1 for d in bases for x in d), group.name

    def test_canonical_4_9_2_1_1(self):
        # the Smith normal form used to list 3/2,0,1,-1 and 2,0,4/3,-4/3 here
        got = base_translations(builtin_catalog().group("4/9/2/1/1"))
        assert len(got) == 12
        assert got == sorted(
            (Fraction(a, 2), Fraction(b, 2), Fraction(c, 3), Fraction(-c, 3) % 1)
            for a in range(2) for b in range(2) for c in range(3)
        )


def _composite(phi: Automorphism, psi: Automorphism) -> Automorphism:
    """phi after psi, from the product of their affine data; validated again."""
    translation = vec_add(phi.translation, phi.linear.apply(psi.translation))
    return Automorphism(phi.group, translation, phi.linear @ psi.linear)


class TestAutomorphism:
    def test_identity_fixes_everything(self, p3_group):
        phi = Automorphism(p3_group, zero_vector(2), IntMatrix.identity(2))
        for rep in p3_group.f_ext:
            assert conjugate(phi, rep) == rep

    def test_negation_on_lattice(self, z_plane):
        phi = Automorphism(z_plane, zero_vector(2), -IntMatrix.identity(2))
        z = AffineMap(vector([3, -4]), IntMatrix.identity(2))
        assert conjugate(phi, z).translation == vector([-3, 4])

    def test_half_shift_on_point_reflection(self, point_reflection_2d):
        phi = Automorphism(point_reflection_2d, vector(["1/2", 0]), IntMatrix.identity(2))
        gen = representative(point_reflection_2d, -IntMatrix.identity(2))
        assert conjugate(phi, gen) == AffineMap(vector([1, 0]), -IntMatrix.identity(2))

    def test_rejects_invalid_data(self, p3_group):
        with pytest.raises(ValueError):
            Automorphism(p3_group, vector(["1/3", 0]), IntMatrix.identity(2))
        with pytest.raises(ValueError):
            Automorphism(p3_group, zero_vector(2), IntMatrix.from_rows([[1, 1], [0, 1]]))

    def test_compose_translations_add(self, point_reflection_2d):
        a = Automorphism(point_reflection_2d, vector(["1/2", 0]), IntMatrix.identity(2))
        b = Automorphism(point_reflection_2d, vector([0, "1/2"]), IntMatrix.identity(2))
        assert _composite(a, b).translation == vector(["1/2", "1/2"])

    def test_compose_formula_by_hand(self, point_reflection_2d):
        a = Automorphism(point_reflection_2d, vector([1, 0]), -IntMatrix.identity(2))
        b = Automorphism(point_reflection_2d, vector([0, 1]), -IntMatrix.identity(2))
        got = _composite(a, b)
        assert got.translation == vector([1, -1])
        assert got.linear == IntMatrix.identity(2)

    def test_compose_agrees_with_application(self, g32121):
        d1 = IntMatrix.from_rows([[-1, 1, 1], [0, 1, 2], [0, 1, 1]])
        phi1 = Automorphism(g32121, find_translation_part(g32121, d1), d1)
        phi2 = Automorphism(g32121, vector([0, 0, "1/2"]), IntMatrix.identity(3))
        composed = _composite(phi1, phi2)
        for rep in g32121.f_ext:
            assert conjugate(composed, rep) == conjugate(phi1, conjugate(phi2, rep))
        z = AffineMap(vector([1, -2, 3]), IntMatrix.identity(3))
        assert conjugate(composed, z) == conjugate(phi1, conjugate(phi2, z))


class TestValidationAgainstOracle:
    """Automorphism validation on integers agrees with Fraction conjugation."""

    MAX_CANDIDATES = 40

    @settings(max_examples=150, deadline=None)
    @given(conjugation_data())
    def test_accepts_exactly_the_oracle_automorphisms(self, data):
        group, d, linear = data
        expected = conjugation_keeps_group(group, d, linear)
        try:
            phi = Automorphism(group, d, linear)
        except ValueError:
            assert not expected
            return
        assert expected
        if candidate_count(phi) <= self.MAX_CANDIDATES:
            assert reidemeister_number(phi) == union_find_number(phi)

    @pytest.mark.parametrize(
        "name, d, accepted",
        [
            # 1/5 does not divide the group's denominator g = 1
            ("3/3/1/1/1", ("1/5", 0, 0), False),
            ("3/3/1/1/1", ("1/2", "1/2", "1/2"), True),
            # the group Z: every rational translation gives an automorphism
            ("1/1/1/1/1", ("1/5",), True),
            ("1/1/1/1/1", ("-7/12",), True),
            # g = 2 with a translation over 6
            ("3/2/1/1/2", ("1/6", 0, 0), False),
        ],
    )
    def test_denominators_outside_the_group(self, name, d, accepted):
        group = builtin_catalog().group(name)
        linear = IntMatrix.identity(group.dimension)
        assert conjugation_keeps_group(group, vector(d), linear) is accepted
        if accepted:
            assert Automorphism(group, vector(d), linear).translation == vector(d)
        else:
            with pytest.raises(ValueError, match="not an automorphism"):
                Automorphism(group, vector(d), linear)
