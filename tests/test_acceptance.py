"""Acceptance suite: one test per top-level criterion.

Each test prints a PASS line on success (run with ``pytest -s`` to see
them); tolerances are exact everywhere, with randomized suites running a
fixed 1000 seeded cases.
"""

import random
from fractions import Fraction
from itertools import product

from crysturn.automorphisms import Automorphism, base_translations, find_translation_part
from crysturn.catalog import builtin_catalog
from crysturn.closed_forms import (
    SpectrumDescription,
    parse_spectrum,
    product_spectrum,
    reidemeister_3_2_1_2_1,
    reidemeister_point_reflection,
)
from crysturn.groups import AffineMap, matrix_group_closure
from crysturn.linalg import (
    IntMatrix,
    coset_representatives,
    mod2_solution_count,
    smith_normal_form,
    vec_add,
    vector,
    zero_vector,
)
from crysturn.reidemeister import (
    RinfStatus,
    decide_r_infinity,
    reidemeister_number,
    spectrum,
)
from oracles import (
    averaging_number,
    element_closure,
    in_lattice_image,
    reflection_class_count,
    smith_diagonal,
    solve_exact,
    vec_sub,
)

CASES = 1000


def _pass(label):
    print(f"\n[PASS] {label}")


def random_matrix(rng, nrows, ncols, bound=5):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]
    )


def random_unimodular(rng, n, steps=6, bound=5):
    """Random products of elementary matrices, entries kept within bound."""
    m = IntMatrix.identity(n)
    for _ in range(steps):
        kind = rng.random()
        rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        if kind < 0.2:
            i = rng.randrange(n)
            rows[i][i] = -1
        else:
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if i == j:
                continue
            rows[i][j] = rng.choice((-1, 1))
        cand = m @ IntMatrix.from_rows(rows)
        if all(abs(x) <= bound for row in cand.rows for x in row):
            m = cand
    return m


# -- criterion 1 -------------------------------------------------------------

TABLE_FINITE_ROWS = {
    "1/1/1/1/1": (2, (2,)),
    "2/4/1/1/1": (12, (4,)),
    "3/3/1/1/1": (48, (2,)),
    "3/3/1/1/4": (48, (2,)),
    "3/3/1/3/1": (48, (2,)),
    "3/3/1/4/1": (48, (2,)),
    "3/3/1/4/2": (48, (2,)),
    "3/5/1/1/1": (12, (8,)),
    "3/5/1/2/1": (24, (8,)),
}


def test_criterion_1_golden_spectra():
    catalog = builtin_catalog()
    for name, (normaliser_order, finite_values) in TABLE_FINITE_ROWS.items():
        group = catalog.group(name)
        closure = element_closure(list(group.normaliser_gens))
        assert closure.order == normaliser_order, name
        computed = spectrum(group)
        assert computed.finite_values == finite_values, name
        assert computed.contains_infinity, name
    _pass("criterion 1: golden table spectra and normaliser orders match exactly")


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_r_infinity_verdicts():
    catalog = builtin_catalog()
    for name in TABLE_FINITE_ROWS:
        verdict = decide_r_infinity(catalog.group(name))
        assert verdict.status is RinfStatus.FAILS, name
    for name in ("1/2/1/1/1", "klein-bottle"):
        verdict = decide_r_infinity(catalog.group(name))
        assert verdict.status is RinfStatus.HOLDS, name
    _pass("criterion 2: no R-infinity on table rows; holds for dihedral and Klein bottle")


# -- criterion 3 -------------------------------------------------------------


def companion_shift(n, m):
    rows = [[0] * n for _ in range(n)]
    rows[0][n - 1] = 1
    for i in range(1, n):
        rows[i][i - 1] = 1
    rows[n - 2][n - 1] = m
    rows[n - 1][n - 1] = m - 1
    return IntMatrix.from_rows(rows)


def test_criterion_3_point_reflection_values():
    catalog = builtin_catalog()
    plane = catalog.group("2/1/2/1/1")
    space = catalog.group("3/1/2/1/1")

    d_mat = IntMatrix.from_rows([[0, -1], [1, -1]])
    assert reidemeister_number(Automorphism(plane, zero_vector(2), d_mat)) == 3
    assert reidemeister_point_reflection(2, zero_vector(2), d_mat) == 3

    for m in (1, 2, 3):
        d_mat = IntMatrix.from_rows([[0, 1], [1, 2 * m]])
        half = vector(["1/2", 0])
        assert reidemeister_number(Automorphism(plane, half, d_mat)) == 2 * m
        assert reidemeister_point_reflection(2, half, d_mat) == 2 * m

    for m in (1, 2, 3, 4):
        d_mat = companion_shift(3, m)
        assert reidemeister_number(Automorphism(space, zero_vector(3), d_mat)) == m + 1
        assert reidemeister_point_reflection(3, zero_vector(3), d_mat) == m + 1
    _pass("criterion 3: point-reflection values agree via algorithm and closed formula")


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_g32121_values():
    group = builtin_catalog().group("3/2/1/2/1")
    half = vector([0, 0, "1/2"])
    for m in (1, 2, 3):
        d_mat = IntMatrix.from_rows([[-1, m, m], [0, -1 + 2 * m, 2 * m], [0, 1, 1]])
        assert reidemeister_3_2_1_2_1(half, d_mat) == 4 * m
        assert reidemeister_number(Automorphism(group, half, d_mat)) == 4 * m
    _pass("criterion 4: 3/2/1/2/1 family gives 4m via formula and algorithm")


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_product_spectra():
    line, plane = parse_spectrum("{2, ∞}"), parse_spectrum("N ∪ {∞}")
    plane_reflection = parse_spectrum("2N ∪ {3, ∞}")
    got_32111 = product_spectrum(line, plane_reflection)
    assert got_32111 == SpectrumDescription(
        finite=frozenset({6}), scaled=frozenset({4}), includes_infinity=True
    )
    got_43111 = product_spectrum(plane, plane_reflection)
    assert got_43111 == SpectrumDescription(
        scaled=frozenset({2, 3}), includes_infinity=True
    )
    p3_spectrum = SpectrumDescription(finite=frozenset({4}), includes_infinity=True)
    got_49211 = product_spectrum(plane_reflection, p3_spectrum)
    assert got_49211 == SpectrumDescription(
        finite=frozenset({12}), scaled=frozenset({8}), includes_infinity=True
    )
    _pass("criterion 5: direct-product spectra match the symbolic results")


# -- criterion 6: property suites --------------------------------------------


def test_criterion_6a_snf_invariants():
    rng = random.Random(601)
    for _ in range(CASES):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        snf = smith_normal_form(m)
        assert snf.p @ m @ snf.q == smith_diagonal(snf, m)
        assert snf.p.det() in (1, -1)
        assert snf.q.det() in (1, -1)
        factors = snf.invariant_factors
        assert all(f > 0 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
    _pass("criterion 6a: 1000 SNF decompositions verified")


def test_criterion_6b_coset_completeness():
    rng = random.Random(602)
    done = 0
    while done < CASES:
        n = rng.choice((1, 1, 2, 2, 3, 3, 4, 5))
        bound = 5 if n <= 3 else 1
        b = random_matrix(rng, n, n, bound)
        d = abs(b.det())
        if d == 0 or d > 36:
            continue
        reps = coset_representatives(b)
        assert len(reps) == d
        for _ in range(3):
            x = tuple(rng.randint(-7, 7) for _ in range(n))
            hits = 0
            for rep in reps:
                z = solve_exact(b, vec_sub(x, rep))
                if all(c.denominator == 1 for c in z):
                    hits += 1
            assert hits == 1
        done += 1
    _pass("criterion 6b: 1000 coset-representative sets complete and irredundant")


def test_criterion_6c_mod2_counts():
    rng = random.Random(603)
    for _ in range(CASES):
        n = rng.randint(1, 5)
        b = random_matrix(rng, n, n)
        rhs = tuple(rng.randint(-5, 5) for _ in range(n))
        count = mod2_solution_count(b, rhs)
        brute = sum(
            1
            for cand in product((0, 1), repeat=n)
            if all((x - y) % 2 == 0 for x, y in zip(b.apply(cand), rhs))
        )
        assert count == brute
        if b.det() % 2:
            assert count == 1
        else:
            assert count % 2 == 0
    _pass("criterion 6c: 1000 GF(2) solution counts match exhaustive enumeration")


def brute_reflection_classes(b, b_vec):
    reps = coset_representatives(b)
    classes = []
    for x in reps:
        for cls in classes:
            y = cls[0]
            if in_lattice_image(b, vec_sub(x, y)) or in_lattice_image(
                b, vec_add(vec_add(x, y), b_vec)
            ):
                cls.append(x)
                break
        else:
            classes.append([x])
    return len(classes)


def test_criterion_6d_reflection_class_counts():
    rng = random.Random(604)
    done = 0
    while done < CASES:
        n = rng.choice((1, 2, 2, 3))
        b = random_matrix(rng, n, n, 4)
        if not 0 < abs(b.det()) <= 12:
            continue
        b_vec = tuple(rng.randint(-5, 5) for _ in range(n))
        got = reflection_class_count(b, b_vec)
        assert got == brute_reflection_classes(b, b_vec)
        done += 1
    _pass("criterion 6d: 1000 reflection class counts match direct enumeration")


def test_criterion_6e_averaging_agrees_with_algorithm():
    catalog = builtin_catalog()
    fixtures = [catalog.group("1/1/1/1/1"), catalog.group("2/1/1/1/1"),
                catalog.group("3/2/1/1/2")]
    rng = random.Random(605)
    done = 0
    while done < CASES:
        group = fixtures[done % 3]
        n = group.dimension
        if group.order == 1:
            d_mat = random_unimodular(rng, n)
        else:
            # P2_1: normalising matrices are a GL_2 block plus a sign
            block = random_unimodular(rng, 2)
            eps = rng.choice((-1, 1))
            d_mat = IntMatrix.from_rows(
                [list(block.rows[0]) + [0], list(block.rows[1]) + [0], [0, 0, eps]]
            )
        ident = IntMatrix.identity(n)
        sizes = [abs((ident - a @ d_mat).det()) for a in group.matrix_parts]
        if sum(sizes) > 40:
            continue
        d = find_translation_part(group, d_mat)
        assert d is not None
        phi = Automorphism(group, d, d_mat)
        assert averaging_number(phi) == reidemeister_number(phi)
        done += 1
    _pass("criterion 6e: 1000 torsion-free cases, averaging equals the general algorithm")


def test_criterion_6f_inner_invariance():
    catalog = builtin_catalog()
    reflect = catalog.group("2/1/2/1/1")
    rotate = catalog.group("2/4/1/1/1")
    pools = {
        id(reflect): [IntMatrix.from_rows([[0, -1], [1, -1]]),
                      IntMatrix.from_rows([[0, 1], [1, 2]]),
                      IntMatrix.from_rows([[1, 1], [1, 2]])],
        id(rotate): list(matrix_group_closure(list(rotate.normaliser_gens)).elements),
    }
    rng = random.Random(606)
    cache = {}
    for case in range(CASES):
        group = reflect if case % 2 else rotate
        d_mat = rng.choice(pools[id(group)])
        bases = base_translations(group)
        base = rng.choice(bases)
        d0 = find_translation_part(group, d_mat)
        if d0 is None:
            continue
        phi = Automorphism(group, vec_add(base, d0), d_mat)
        key = (id(group), phi.translation, d_mat)
        if key not in cache:
            cache[key] = reidemeister_number(phi)
        rep = group.f_ext[rng.randrange(group.order)]
        shift = vector([rng.randint(-3, 3) for _ in range(2)])
        gamma = AffineMap(vec_add(rep.translation, shift), rep.linear)
        # phi after conjugation by gamma
        twisted = Automorphism(
            group, vec_add(phi.translation, d_mat.apply(gamma.translation)), d_mat @ gamma.linear
        )
        assert reidemeister_number(twisted) == cache[key]
    _pass("criterion 6f: 1000 inner twists leave the Reidemeister number unchanged")


def _normal_form_tuples():
    """All (eps, m1..m4) with small entries and a unimodular lower block."""
    out = []
    for eps in (-1, 1):
        for m1 in range(-2, 3):
            for m2 in range(-2, 3):
                for m3 in range(-2, 3):
                    for m4 in range(-2, 3):
                        det = (eps + 2 * m1) * (1 + 2 * m4) - 2 * m2 * m3
                        if det in (1, -1):
                            out.append((eps, m1, m2, m3, m4))
    return out


def test_criterion_6g_quotient_inequality():
    catalog = builtin_catalog()
    total_group = catalog.group("3/2/1/2/1")
    quotient = catalog.group("2/1/2/1/1")
    shapes = _normal_form_tuples()
    rng = random.Random(607)
    for _ in range(CASES):
        eps, m1, m2, m3, m4 = rng.choice(shapes)
        d_mat = IntMatrix.from_rows(
            [[eps, m1, m2], [0, eps + 2 * m1, 2 * m2], [0, m3, 1 + 2 * m4]]
        )
        d2 = rng.randint(-2, 2)
        d3 = rng.choice((0, Fraction(1, 2), 1, Fraction(3, 2)))
        phi = Automorphism(total_group, vector([0, d2, d3]), d_mat)
        lower = IntMatrix.from_rows([[eps + 2 * m1, 2 * m2], [m3, 1 + 2 * m4]])
        induced = Automorphism(quotient, vector([d2, d3]), lower)
        upstairs = reidemeister_number(phi)
        downstairs = reidemeister_number(induced)
        assert upstairs >= downstairs
    _pass("criterion 6g: 1000 quotient comparisons satisfy the induced-map inequality")
