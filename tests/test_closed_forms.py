"""Tests for closed formulas and the symbolic spectrum algebra."""

import random
from itertools import product

import pytest

from crysturn.automorphisms import Automorphism
from crysturn.closed_forms import (
    SpectrumAlgebraError,
    SpectrumDescription,
    parse_spectrum,
    product_spectrum,
    reidemeister_3_2_1_2_1,
    reidemeister_point_reflection,
)
from crysturn.linalg import IntMatrix, vec_add, vector, zero_vector
from crysturn.reidemeister import INFINITE, reidemeister_number
from oracles import in_lattice_image, reflection_class_count, vec_sub

# The spectra of Z, Z^2, <Z^2, -I> and <Z^n, -I> for n >= 3
LINE, PLANE = parse_spectrum("{2, ∞}"), parse_spectrum("N ∪ {∞}")
PLANE_REFLECTION = parse_spectrum("2N ∪ {3, ∞}")
SPACE_REFLECTION = parse_spectrum("N ∪ {∞} ∖ {1}")


def brute_reflection_classes(b, b_vec, box=4):
    """Directly enumerate classes of x ~ y iff x-y or x+y+b in im(B),
    restricted to one representative set of the plain cosets."""
    from crysturn.linalg import coset_representatives

    reps = coset_representatives(b)
    classes = []
    for x in reps:
        placed = False
        for cls in classes:
            y = cls[0]
            if in_lattice_image(b, vec_sub(x, y)) or in_lattice_image(
                b, vec_add(vec_add(x, y), b_vec)
            ):
                cls.append(x)
                placed = True
                break
        if not placed:
            classes.append([x])
    return len(classes)


class TestReflectionClassCount:
    def test_identity(self):
        assert reflection_class_count(IntMatrix.identity(2), (0, 0)) == 1

    def test_singular_infinite(self):
        assert reflection_class_count(IntMatrix.from_rows([[0] * 2] * 2), (0, 0)) == INFINITE

    def test_odd_det_by_hand(self):
        got = reflection_class_count(IntMatrix.from_rows([[1, 1], [-1, 2]]), (0, 0))
        assert got == 2
        assert got == brute_reflection_classes(IntMatrix.from_rows([[1, 1], [-1, 2]]), (0, 0))

    def test_matches_direct_enumeration(self):
        rng = random.Random(11)
        checked = 0
        while checked < 60:
            n = rng.choice((1, 2, 3))
            b = IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            if not 0 < abs(b.det()) <= 12:
                continue
            b_vec = tuple(rng.randint(-4, 4) for _ in range(n))
            assert reflection_class_count(b, b_vec) == brute_reflection_classes(b, b_vec)
            checked += 1

    def test_parity_always_integral(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.choice((1, 2, 3))
            b = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            b_vec = tuple(rng.randint(-4, 4) for _ in range(n))
            got = reflection_class_count(b, b_vec)
            assert got == INFINITE or isinstance(got, int)


class TestPointReflectionFormula:
    def test_value_three(self):
        got = reidemeister_point_reflection(
            2, zero_vector(2), IntMatrix.from_rows([[0, -1], [1, -1]])
        )
        assert got == 3

    def test_even_family(self):
        for m in (1, 2, 3):
            got = reidemeister_point_reflection(
                2, vector(["1/2", 0]), IntMatrix.from_rows([[0, 1], [1, 2 * m]])
            )
            assert got == 2 * m

    def test_companion_family(self):
        from test_reidemeister import companion_shift

        for m in (1, 2, 3, 4):
            got = reidemeister_point_reflection(3, zero_vector(3), companion_shift(3, m))
            assert got == m + 1

    def test_rejects_non_half_integral(self):
        with pytest.raises(ValueError):
            reidemeister_point_reflection(2, vector(["1/3", 0]), IntMatrix.identity(2))

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            reidemeister_point_reflection(2, zero_vector(2), IntMatrix.diagonal([2, 1]))

    def test_agrees_with_general_algorithm_exhaustive_2d(self, point_reflection_2d):
        halves = [vector([a, b]) for a in (0, "1/2") for b in (0, "1/2")]
        count = 0
        for entries in product(range(-2, 3), repeat=4):
            rows = [entries[:2], entries[2:]]
            m = IntMatrix.from_rows(rows)
            if m.det() not in (1, -1):
                continue
            for d in halves:
                formula = reidemeister_point_reflection(2, d, m)
                phi = Automorphism(point_reflection_2d, d, m)
                assert formula == reidemeister_number(phi)
                count += 1
        assert count > 100

    def test_agrees_with_general_algorithm_sampled_3d(self, point_reflection_3d):
        rng = random.Random(5)
        halves = [0, "1/2"]
        checked = 0
        while checked < 40:
            m = IntMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            )
            if m.det() not in (1, -1):
                continue
            d = vector([rng.choice(halves) for _ in range(3)])
            formula = reidemeister_point_reflection(3, d, m)
            phi = Automorphism(point_reflection_3d, d, m)
            assert formula == reidemeister_number(phi)
            checked += 1


class TestG32121Formula:
    @staticmethod
    def block_matrix(eps, m1, m2, m3, m4):
        return IntMatrix.from_rows(
            [[eps, m1, m2], [0, eps + 2 * m1, 2 * m2], [0, m3, 1 + 2 * m4]]
        )

    def test_paper_family(self, g32121):
        for m in (1, 2, 3):
            d_m = IntMatrix.from_rows([[-1, m, m], [0, -1 + 2 * m, 2 * m], [0, 1, 1]])
            got = reidemeister_3_2_1_2_1(vector([0, 0, "1/2"]), d_m)
            assert got == 4 * m
            phi = Automorphism(g32121, vector([0, 0, "1/2"]), d_m)
            assert reidemeister_number(phi) == got

    def test_orientation_preserving_top_block_infinite(self):
        d = self.block_matrix(1, 0, 0, 1, 0)
        assert reidemeister_3_2_1_2_1(vector([0, 0, "1/2"]), d) == INFINITE

    def test_delta_toggles_plus_four(self, g32121):
        # D' = [[1, 2], [1, 1]], i.e. eps = -1, m1 = 1, m2 = 1, m3 = 1, m4 = 0
        d_mat = self.block_matrix(-1, 1, 1, 1, 0)
        with_half = reidemeister_3_2_1_2_1(vector([0, 0, "1/2"]), d_mat)
        with_zero = reidemeister_3_2_1_2_1(zero_vector(3), d_mat)
        assert with_half == 4
        assert with_zero == 8
        assert reidemeister_number(Automorphism(g32121, vector([0, 0, "1/2"]), d_mat)) == 4
        assert reidemeister_number(Automorphism(g32121, zero_vector(3), d_mat)) == 8

    def test_normal_form_enforced(self):
        with pytest.raises(ValueError):
            reidemeister_3_2_1_2_1(zero_vector(3), IntMatrix.identity(3) + IntMatrix.identity(3))
        with pytest.raises(ValueError):
            reidemeister_3_2_1_2_1(vector(["1/2", 0, 0]), self.block_matrix(-1, 0, 0, 0, 0))

    def test_panel_matches_general_algorithm(self, g32121):
        rng = random.Random(23)
        checked = 0
        while checked < 30:
            eps = rng.choice((-1, 1))
            m1, m2, m3, m4 = (rng.randint(-2, 2) for _ in range(4))
            d_mat = self.block_matrix(eps, m1, m2, m3, m4)
            if abs(d_mat.det()) != 1:
                continue
            d = vector([0, rng.randint(-2, 2), rng.choice((0, "1/2", 1, "3/2"))])
            formula = reidemeister_3_2_1_2_1(d, d_mat)
            general = reidemeister_number(Automorphism(g32121, d, d_mat))
            assert formula == general
            checked += 1


class TestSymbolicSpectra:
    def test_torus_spectra(self):
        assert PLANE == SpectrumDescription(scaled=frozenset({1}), includes_infinity=True)
        assert LINE == SpectrumDescription(finite=frozenset({2}), includes_infinity=True)

    def test_point_reflection_spectra(self):
        plane = PLANE_REFLECTION
        assert plane.contains(2) and plane.contains(3) and plane.contains(8)
        assert not plane.contains(5)
        space = SPACE_REFLECTION
        assert space.contains(INFINITE) and not space.contains(1)
        assert all(space.contains(n) for n in range(2, 30))

    def test_membership_and_removals(self):
        desc = SpectrumDescription(scaled=frozenset({2}), removed=frozenset({2}))
        assert not desc.contains(2)
        assert desc.contains(4)
        assert not desc.contains(3)

    def test_canonicalization(self):
        a = SpectrumDescription(scaled=frozenset({2, 4}), finite=frozenset({6}))
        b = SpectrumDescription(scaled=frozenset({2}))
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SpectrumDescription()


class TestParseSpectrum:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("{2}", SpectrumDescription(finite=frozenset({2}))),
            ("{2,4}", SpectrumDescription(finite=frozenset({2, 4}))),
            ("N", SpectrumDescription(scaled=frozenset({1}))),
            ("2N ∪ {3}", SpectrumDescription(finite=frozenset({3}), scaled=frozenset({2}))),
            ("2N u {3}", SpectrumDescription(finite=frozenset({3}), scaled=frozenset({2}))),
            (
                "N∖{1}",
                SpectrumDescription(scaled=frozenset({1}), removed=frozenset({1})),
            ),
            (
                "2N\\{2}",
                SpectrumDescription(scaled=frozenset({2}), removed=frozenset({2})),
            ),
            ("2N ∪ 3N", SpectrumDescription(scaled=frozenset({2, 3}))),
            (
                "{3,∞}",
                SpectrumDescription(finite=frozenset({3}), includes_infinity=True),
            ),
        ],
    )
    def test_examples(self, text, expected):
        assert parse_spectrum(text) == expected

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_spectrum("2M")


class TestProductSpectrum:
    def test_line_times_plane_reflection(self):
        got = product_spectrum(LINE, PLANE_REFLECTION)
        assert got == SpectrumDescription(
            finite=frozenset({6}), scaled=frozenset({4}), includes_infinity=True
        )

    def test_finite_times_finite(self):
        a = SpectrumDescription(finite=frozenset({2}), includes_infinity=True)
        b = SpectrumDescription(finite=frozenset({4}), includes_infinity=True)
        assert product_spectrum(a, b) == SpectrumDescription(
            finite=frozenset({8}), includes_infinity=True
        )

    def test_torus_times_plane_reflection(self):
        got = product_spectrum(PLANE, PLANE_REFLECTION)
        assert got == SpectrumDescription(
            scaled=frozenset({2, 3}), includes_infinity=True
        )

    def test_removal_scales_through_singleton(self):
        got = product_spectrum(LINE, SPACE_REFLECTION)
        assert got == SpectrumDescription(
            scaled=frozenset({2}), removed=frozenset({2}), includes_infinity=True
        )

    def test_unrepresentable_raises(self):
        two_holes = SPACE_REFLECTION
        with pytest.raises(SpectrumAlgebraError):
            product_spectrum(two_holes, two_holes)
        pair = SpectrumDescription(finite=frozenset({2, 3}))
        with pytest.raises(SpectrumAlgebraError):
            product_spectrum(pair, two_holes)

    def test_membership_against_brute_force(self):
        cases = [
            (LINE, PLANE_REFLECTION),
            (PLANE, PLANE_REFLECTION),
            (
                PLANE_REFLECTION,
                SpectrumDescription(finite=frozenset({4}), includes_infinity=True),
            ),
        ]
        for s1, s2 in cases:
            prod = product_spectrum(s1, s2)
            for n in range(1, 101):
                direct = any(
                    n % a == 0 and s1.contains(a) and s2.contains(n // a)
                    for a in range(1, n + 1)
                    if n % a == 0
                )
                assert prod.contains(n) == direct, (n, prod)
