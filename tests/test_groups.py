"""Tests for the affine crystallographic group model."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crysturn.groups
from crysturn.catalog import builtin_catalog, group_document, parse_group_document
from crysturn.groups import (
    _MAX_FINITE_ORDER,
    AffineMap,
    ClosureCapExceeded,
    CrystGroup,
    GroupValidationError,
    _coset_walk,
    _minkowski_bound,
    build_group,
    matrix_group_closure,
)
from crysturn.linalg import IntMatrix, vector, zero_vector
from crysturn.reidemeister import _normaliser_letters
from oracles import (
    compose,
    contains,
    element_closure,
    frontier_build_group,
    holonomy_index,
    inverse,
    is_bieberbach,
    is_identity,
    representative,
    structure_violation,
)

R3 = IntMatrix.from_rows([[0, -1], [1, -1]])  # order-3 rotation of the hexagonal lattice
NEG_I2 = IntMatrix.from_rows([[-1, 0], [0, -1]])
G32121 = IntMatrix.from_rows([[1, -1, 0], [0, -1, 0], [0, 0, -1]])


def amap(translation, matrix):
    return AffineMap(vector(translation), IntMatrix.from_rows(matrix))


def count_fractions(monkeypatch) -> list:
    """Record one entry per Fraction constructed from here on."""
    new = Fraction.__new__
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(None)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return calls


def block_diagonal(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    """The block-diagonal matrix with blocks x and y."""
    left, right = (0,) * x.nrows, (0,) * y.nrows
    return IntMatrix.from_rows([*(row + right for row in x.rows), *(left + row for row in y.rows)])


def product_generators(g1: CrystGroup, g2: CrystGroup) -> list[AffineMap]:
    """Generators of G1 x G2: the generators of each factor, block-diagonal
    with the identity on the other block, translations concatenated with 0."""
    n1, n2 = g1.dimension, g2.dimension
    i1, i2 = IntMatrix.identity(n1), IntMatrix.identity(n2)
    left = [g1.f_ext[i] for i in g1.generator_indices]
    right = [g2.f_ext[i] for i in g2.generator_indices]
    return [
        *(AffineMap(g.translation + zero_vector(n2), block_diagonal(g.linear, i2)) for g in left),
        *(AffineMap(zero_vector(n1) + g.translation, block_diagonal(i1, g.linear)) for g in right),
    ]


def count_matmul(monkeypatch) -> list:
    """Record one entry per IntMatrix product made from here on."""
    matmul = IntMatrix.__matmul__
    calls = []

    def counted(a, b):
        calls.append(None)
        return matmul(a, b)

    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    return calls


@st.composite
def unimodular_affine_maps(draw, n=2):
    """Random affine maps whose linear part is a product of elementary matrices."""
    m = IntMatrix.identity(n)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            rows[i][i] = -1
            step = IntMatrix.from_rows(rows)
        else:
            rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            rows[i][j] = draw(st.integers(-2, 2))
            step = IntMatrix.from_rows(rows)
        m = m @ step
    trans = vector(
        Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4))) for _ in range(n)
    )
    return AffineMap(trans, m)


class TestAffineMap:
    def test_compose_translations(self):
        a = amap([1, 0], [[1, 0], [0, 1]])
        b = amap([0, 1], [[1, 0], [0, 1]])
        assert compose(a, b) == amap([1, 1], [[1, 0], [0, 1]])

    def test_point_reflection_is_involution(self):
        g = AffineMap(vector(["1/2", "1/3"]), NEG_I2)
        assert compose(g, g) == AffineMap.identity(2)

    def test_compose_by_hand(self):
        g1 = AffineMap(vector(["1/2", 0]), R3)
        g2 = AffineMap(zero_vector(2), R3)
        got = compose(g1, g2)
        assert got == AffineMap(vector(["1/2", 0]), IntMatrix.from_rows([[-1, 1], [-1, 0]]))

    def test_identity_inverse(self):
        assert inverse(AffineMap.identity(3)) == AffineMap.identity(3)

    def test_point_reflection_self_inverse(self):
        g = AffineMap(zero_vector(2), NEG_I2)
        assert inverse(g) == g

    def test_shear_inverse(self):
        g = amap([1, 0], [[1, 1], [0, 1]])
        inv = inverse(g)
        assert inv == amap([-1, 0], [[1, -1], [0, 1]])
        assert is_identity(compose(g, inv))

    def test_non_unimodular_inverse_rejected(self):
        with pytest.raises(ValueError):
            inverse(amap([0, 0], [[2, 0], [0, 1]]))

    @given(unimodular_affine_maps(), unimodular_affine_maps(), unimodular_affine_maps())
    def test_associativity(self, a, b, c):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(unimodular_affine_maps())
    def test_two_sided_inverse(self, a):
        assert is_identity(compose(a, inverse(a)))
        assert is_identity(compose(inverse(a), a))


class TestBuildGroup:
    def test_lattice_only(self):
        g = build_group(1, [])
        assert g.order == 1
        assert g.f_ext == (AffineMap.identity(1),)

    def test_point_reflection_plane(self):
        g = build_group(2, [AffineMap(zero_vector(2), NEG_I2)])
        assert g.order == 2
        assert {m for m in g.matrix_parts} == {IntMatrix.identity(2), NEG_I2}

    def test_threefold_rotation_group(self):
        g = build_group(2, [AffineMap(zero_vector(2), R3)])
        assert g.order == 3

    def test_translations_are_canonicalized(self):
        g = build_group(2, [AffineMap(vector(["3/2", "-1/4"]), NEG_I2)])
        rep = representative(g, NEG_I2)
        assert rep.translation == vector(["1/2", "3/4"])

    def test_infinite_closure_hits_cap(self):
        shear = amap([0, 0], [[1, 1], [0, 1]])
        with pytest.raises(ClosureCapExceeded):
            build_group(2, [shear])

    def test_cocycle_violation_detected(self):
        # half translation with the identity matrix part: the lattice would
        # be strictly larger than Z^2
        bad = AffineMap(vector(["1/2", 0]), IntMatrix.identity(2))
        with pytest.raises(GroupValidationError):
            build_group(2, [bad])

    def test_inconsistent_translation_pair_detected(self):
        g1 = AffineMap(zero_vector(2), NEG_I2)
        g2 = AffineMap(vector(["1/2", 0]), NEG_I2)
        with pytest.raises(GroupValidationError):
            build_group(2, [g1, g2])

    def test_conflict_found_before_the_shear(self):
        # walk order: both -I seeds come before the shear is ever reached
        gens = [amap([0, 0], [[-1, 0], [0, -1]]), amap(["1/2", 0], [[-1, 0], [0, -1]]),
                amap([0, 0], [[1, 1], [0, 1]])]
        with pytest.raises(GroupValidationError, match="cocycle"):
            build_group(2, gens)

    def test_shear_certified_before_the_conflict(self):
        gens = [amap(["1/2", 0], [[1, 1], [0, 1]]), amap([0, 0], [[1, 1], [0, 1]])]
        with pytest.raises(ClosureCapExceeded, match="trace 2"):
            build_group(2, gens)

    def test_normaliser_generator_checked(self):
        generators = [AffineMap(zero_vector(2), R3)]
        not_unimodular = "^normaliser generator is not unimodular n x n$"
        for rows in ([[2, 0], [0, 1]], [[0, 0], [0, 0]], [[-1]]):
            with pytest.raises(GroupValidationError, match=not_unimodular):
                build_group(2, generators, normaliser_gens=[IntMatrix.from_rows(rows)])
        with pytest.raises(
            GroupValidationError, match="^supplied matrix does not normalise the holonomy group"
        ):
            build_group(2, generators, normaliser_gens=[IntMatrix.from_rows([[1, 1], [0, 1]])])

    def test_normaliser_generators_kept_as_supplied(self):
        # in the supplied order, duplicates kept, and so written back
        d, e = NEG_I2, IntMatrix.from_rows([[0, 1], [1, 0]])
        g = build_group(2, [AffineMap(zero_vector(2), NEG_I2)], normaliser_gens=[d, d, e])
        assert g.normaliser_gens == (d, d, e)
        assert parse_group_document(json.dumps(group_document(g))).normaliser_gens == (d, d, e)

    def test_output_revalidates(self):
        g = build_group(2, [AffineMap(zero_vector(2), R3)])
        assert structure_violation(g) is None

    @given(st.lists(unimodular_affine_maps(), max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_validator_accepts_every_built_group(self, gens):
        try:
            g = build_group(2, gens)
        except (ClosureCapExceeded, GroupValidationError):
            return
        assert structure_violation(g) is None

    def test_oracle_rejects_groups_that_bypass_the_closure(self):
        # the structure oracle is not vacuous: CrystGroup itself checks
        # nothing; the oracle reads neither the table nor the generators
        ident = AffineMap.identity(2)
        not_closed = CrystGroup(2, [ident, AffineMap(zero_vector(2), R3)], (), (1,))
        assert "leaves the group" in structure_violation(not_closed)
        # (1/3, 0; diag(1, -1)) squares to the translation (2/3, 0), outside
        # Z^2, so its inverse is not (1/3, 0; diag(1, -1)) modulo Z^2
        glide = AffineMap(vector(["1/3", 0]), IntMatrix.diagonal([1, -1]))
        assert "leaves the group" in structure_violation(CrystGroup(2, [ident, glide], (), (1,)))

    def test_table_from_generator_rows(self, monkeypatch):
        # the table filled from the generators' rows is the table of every
        # product, on the catalog and on the signed permutations of Z^3
        # (|F| = 48), where it costs |gens|.|F| products, not |F|^2
        catalog = builtin_catalog()
        groups = [catalog.group(name) for name in catalog.names()]
        signed = [
            IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
            IntMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
            IntMatrix.diagonal([-1, 1, 1]),
        ]
        calls = count_matmul(monkeypatch)
        groups.append(build_group(3, [AffineMap(zero_vector(3), m) for m in signed]))
        assert groups[-1].order == 48
        # the closure's own products give the table too
        assert len(calls) <= len(signed) * 48
        for g in groups:
            parts = g.matrix_parts
            assert g.mult_table == tuple(
                tuple(holonomy_index(g, a @ b) for b in parts) for a in parts
            ), g

    def test_closure_is_the_only_cocycle_check(self, monkeypatch):
        # parsing makes one translation product per generator and element,
        # |gens|.|F| = 12 here; a pairwise cocycle walk would add |F|^2 = 36
        entry = builtin_catalog().entry("4/9/2/1/1")
        apply = IntMatrix.apply
        calls = []

        def counted(m, v):
            calls.append(None)
            return apply(m, v)

        monkeypatch.setattr(IntMatrix, "apply", counted)
        g = parse_group_document(json.dumps(entry.document))
        assert len(calls) <= g.order * len(entry.document["generators"]) == 12


class TestMembership:
    def test_lattice_vector(self):
        g = build_group(2, [])
        assert contains(g, amap([3, -2], [[1, 0], [0, 1]]))

    def test_non_integral_offset(self):
        g = build_group(2, [AffineMap(zero_vector(2), NEG_I2)])
        assert not contains(g, AffineMap(vector(["1/2", 0]), NEG_I2))

    def test_integral_offset_in_g32121(self):
        g = build_group(3, [AffineMap(zero_vector(3), G32121)])
        assert contains(g, AffineMap(vector([1, 2, -1]), G32121))

    def test_closed_under_products(self):
        g = build_group(2, [AffineMap(zero_vector(2), R3)])
        a = amap([1, 2], [[1, 0], [0, 1]])
        b = representative(g, R3)
        assert contains(g, compose(a, b))
        assert contains(g, inverse(b))


class TestBieberbach:
    def test_lattice_is_torsion_free(self):
        assert build_group(3, []).is_bieberbach()

    def test_point_reflection_has_torsion(self):
        g = build_group(2, [AffineMap(zero_vector(2), NEG_I2)])
        assert not g.is_bieberbach()

    def test_screw_axis_group_is_torsion_free(self):
        # 2_1 screw: N_A (x + a) = (0, 0, 2 x_3 + 1) never vanishes
        screw = AffineMap(vector([0, 0, "1/2"]), IntMatrix.diagonal([-1, -1, 1]))
        assert build_group(3, [screw]).is_bieberbach()

    def test_torsion_agrees_with_direct_power(self):
        # if some representative (a, A) with A != I satisfies (a, A)^ord(A) = 1
        # exactly, the group has torsion
        for gens in (
            [AffineMap(zero_vector(2), NEG_I2)],
            [AffineMap(zero_vector(2), R3)],
            [AffineMap(vector(["1/2", 0]), IntMatrix.diagonal([1, -1]))],
            [AffineMap(vector([0, 0, "1/2"]), IntMatrix.diagonal([-1, -1, 1]))],
        ):
            g = build_group(gens[0].dimension, gens)
            for rep in g.f_ext:
                if rep.linear == IntMatrix.identity(g.dimension):
                    continue
                power = rep
                while power.linear != IntMatrix.identity(g.dimension):
                    power = compose(power, rep)
                if is_identity(power):
                    assert not g.is_bieberbach()


FRACTIONS = ("0", "1/2", "1/3", "1/4", "2/3")


@st.composite
def signed_permutation_generators(draw):
    """(n, affine generators): 1-3 signed permutations of Z^n, n = 1..4, one
    of them sometimes times an elementary shear, with translations drawn
    from FRACTIONS for about one generator in four and 0 for the others."""
    n = draw(st.integers(1, 4))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        mats.append(IntMatrix.from_rows(
            [[signs[r] * int(c == perm[r]) for c in range(n)] for r in range(n)]
        ))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        shear = IntMatrix.from_rows([[int(r == c or (r, c) == (i, j)) for c in range(n)]
                                     for r in range(n)])
        k = draw(st.integers(0, len(mats) - 1))
        mats[k] = mats[k] @ shear
    # most random translations conflict, so most generators keep 0
    return n, [
        AffineMap(vector(draw(st.lists(st.sampled_from(FRACTIONS), min_size=n, max_size=n)))
                  if draw(st.integers(0, 3)) == 0 else zero_vector(n), m)
        for m in mats
    ]


def _outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ClosureCapExceeded, GroupValidationError) as exc:
        return type(exc), str(exc)


class TestWalkAgainstFrontierLoops:
    """The coset walk over F = {I} against frontier loops over elements."""

    @given(signed_permutation_generators())
    @settings(max_examples=100, deadline=None)
    def test_closures_match(self, drawn):
        n, gens = drawn
        linears = [g.linear for g in gens]
        got, want = _outcome(matrix_group_closure, linears), _outcome(element_closure, linears)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.elements == want.elements
        got, want = _outcome(build_group, n, gens), _outcome(frontier_build_group, n, gens)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.f_ext == want.f_ext
            assert got.generator_indices == want.generator_indices
            assert got.mult_table == want.mult_table


@st.composite
def conjugated_catalog_products(draw):
    """(n, affine generators): a catalog group, or the product of two with
    n <= 6 and |F| <= 48, conjugated by an affine map (t, U) with U a
    product of elementary n x n matrices, so that translations of
    denominators up to 4 times the group's enter the walk."""
    catalog = builtin_catalog()
    groups = [catalog.group(name) for name in catalog.names()]
    g1 = draw(st.sampled_from(groups))
    partners = [g for g in groups if g.dimension + g1.dimension <= 6 and g.order * g1.order <= 48]
    g2 = draw(st.one_of(st.none(), st.sampled_from(partners)))
    if g2 is None:
        gens = [g1.f_ext[i] for i in g1.generator_indices]
    else:
        gens = product_generators(g1, g2)
    n = gens[0].dimension
    conj = draw(unimodular_affine_maps(n))
    return n, [compose(compose(conj, g), inverse(conj)) for g in gens]


class TestIntegerWalkAgainstFractions:
    """The integer walk of build_group and the Bieberbach test on scaled
    translations against the Fraction frontier loop and the Fraction
    lattice-image test."""

    @given(conjugated_catalog_products())
    @settings(max_examples=100, deadline=None)
    def test_products_and_conjugates(self, drawn):
        n, gens = drawn
        got, want = build_group(n, gens), frontier_build_group(n, gens)
        assert got.f_ext == want.f_ext
        assert got.generator_indices == want.generator_indices
        assert got.mult_table == want.mult_table
        assert got.is_bieberbach() == is_bieberbach(want)

    def test_catalog_bieberbach(self):
        catalog = builtin_catalog()
        verdicts = [catalog.group(name).is_bieberbach() for name in catalog.names()]
        assert verdicts == [is_bieberbach(catalog.group(name)) for name in catalog.names()]
        assert verdicts.count(True) == 6

    def test_fractions_built(self, monkeypatch):
        # the signed permutations of Z^4 (|F| = 384), conjugated by the
        # translation t so that the representatives carry translations of
        # denominator 210; the Fraction walk built 63009 Fractions here, the
        # integer walk builds each entry of each representative's translation
        # once (twice while AffineMap wrapped every Fraction anew)
        n = 4
        t = vector(["1/3", "1/5", "1/7", "1/2"])
        swaps = [(i, i + 1) for i in range(n - 1)]  # adjacent transpositions
        mats = [
            *(IntMatrix.from_rows([[int({r, c} == {i, j} or r == c not in (i, j))
                                    for c in range(n)] for r in range(n)]) for i, j in swaps),
            IntMatrix.diagonal([-1] + [1] * (n - 1)),
        ]
        gens = [AffineMap(tuple(x - y for x, y in zip(t, m.apply(t))), m) for m in mats]
        fractions = count_fractions(monkeypatch)
        group = build_group(n, gens)
        assert group.order == 384 and group.denominator == 210
        assert len(fractions) <= group.order * n


class TestMatrixGroupClosure:
    def test_order_two(self):
        assert matrix_group_closure([NEG_I2]).order == 2

    def test_hexagonal_holohedry(self):
        gens = [
            IntMatrix.from_rows([[1, -1], [1, 0]]),
            IntMatrix.from_rows([[0, 1], [1, 0]]),
        ]
        assert matrix_group_closure(gens).order == 12

    def test_infinite_cyclic_exceeds_cap(self):
        with pytest.raises(ClosureCapExceeded):
            matrix_group_closure([IntMatrix.from_rows([[1, 1], [0, 1]])])

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            matrix_group_closure([IntMatrix.diagonal([2, 1])])

    def test_tables_are_consistent(self):
        # the closure is closed under products and inverses, and the holonomy
        # table of the symmorphic group on the same matrices agrees with it
        gens = [IntMatrix.from_rows([[1, -1], [1, 0]]), IntMatrix.from_rows([[0, 1], [1, 0]])]
        pg = matrix_group_closure(gens)
        elements = set(pg.elements)
        for a in pg.elements:
            assert a.int_inverse() in elements
            for b in pg.elements:
                assert a @ b in elements
        g = build_group(2, [AffineMap(zero_vector(2), m) for m in gens])
        assert set(g.matrix_parts) == set(pg.elements)
        for i, a in enumerate(g.matrix_parts):
            for k, b in enumerate(g.matrix_parts):
                assert g.matrix_parts[g.mult_table[i][k]] == a @ b

    def test_one_product_per_element_and_generator(self, monkeypatch):
        gens = builtin_catalog().group("3/3/1/1/1").normaliser_gens
        calls = count_matmul(monkeypatch)
        assert matrix_group_closure(list(gens)).order == 48
        assert len(calls) <= 48 * len(gens)


class TestFinitenessCertificate:
    def test_weyl_group_f4_reaches_the_bound(self):
        # W(F4) has 1152 elements, the largest finite subgroup of GL_4(Z):
        # the closure must finish exactly at the bound, not one short
        gens = [
            IntMatrix.from_rows(rows)
            for rows in (
                [[-1, 1, 0, 0], [-1, 0, 1, 1], [-1, 0, 0, 1], [0, 0, 0, 1]],
                [[-1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                [[-1, 0, 0, 0], [-2, 1, 0, 0], [-1, 0, 1, 0], [-1, 0, 0, 1]],
                [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]],
            )
        ]
        assert matrix_group_closure(gens).order == 1152 == _MAX_FINITE_ORDER[3]

    def test_tabulated_maxima_divide_minkowski_bound(self):
        assert [_minkowski_bound(n) for n in (1, 2, 3, 4)] == [2, 24, 48, 5760]
        for n, order in enumerate(_MAX_FINITE_ORDER, start=1):
            assert _minkowski_bound(n) % order == 0, n

    def test_infinite_normaliser_stops_within_the_bound(self, monkeypatch):
        gens = list(builtin_catalog().group("4/9/2/1/1").normaliser_gens)
        calls = count_matmul(monkeypatch)
        with pytest.raises(ClosureCapExceeded, match="infinite"):
            matrix_group_closure(gens)
        assert len(calls) <= 1152 * len(gens)

    def test_trace_certifies_infinite_order(self):
        # trace 3 > 2: an eigenvalue off the unit circle, caught at once
        with pytest.raises(ClosureCapExceeded, match="trace 3"):
            matrix_group_closure([IntMatrix.from_rows([[2, 1], [1, 1]])])

    @pytest.mark.parametrize("corner, products", [(1, 1), (-1, 2)])
    def test_shear_is_caught_at_once(self, monkeypatch, corner, products):
        # trace n without being I means a Jordan block, so infinite order:
        # a dimension-8 shear is caught at once and diag(-1, shear), trace 6,
        # at its square, where the size bound alone allows 696729600 elements
        g = [[int(i == j) for j in range(8)] for i in range(8)]
        g[0][0], g[1][2] = corner, 1
        calls = count_matmul(monkeypatch)
        with pytest.raises(ClosureCapExceeded, match="trace 8"):
            matrix_group_closure([IntMatrix.from_rows(g)])
        assert len(calls) == products

    def test_coset_walk_bound_counts_elements(self, monkeypatch):
        # 3/3/1/1/1's normaliser: 12 cosets of |F| = 4, 48 elements, so the
        # bound B(3) = 48 lets the complete walk finish and 47 proves it infinite
        group = builtin_catalog().group("3/3/1/1/1")
        letters = sorted(set(group.normaliser_gens), key=lambda m: m.rows)
        walk = list(_coset_walk(group.matrix_parts, letters))
        assert sum(new is not None for *_, new in walk) == 11
        monkeypatch.setattr(crysturn.groups, "_order_bound", lambda n: 47)
        with pytest.raises(ClosureCapExceeded, match="more than 47 elements"):
            list(_coset_walk(group.matrix_parts, letters))

    def test_only_a_complete_walk_certifies(self):
        # 2/1/1/1/1's normaliser is infinite: the complete walk proves it,
        # and a depth-limited walk is a search that ends without a certificate
        group = builtin_catalog().group("2/1/1/1/1")
        letters = _normaliser_letters(group, inverses=True)[0]
        with pytest.raises(ClosureCapExceeded, match="infinite"):
            list(_coset_walk(group.matrix_parts, letters))
        walk = list(_coset_walk(group.matrix_parts, letters, 3))
        assert sum(new is not None for *_, new in walk) > len(letters)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_minus_identity_is_finite(self, n):
        # trace -n is allowed for -I itself
        assert matrix_group_closure([-IntMatrix.identity(n)]).order == 2


def test_roundtrip_representative_order():
    g = build_group(2, [AffineMap(zero_vector(2), R3)])
    rebuilt = build_group(2, list(g.f_ext[1:]))
    assert rebuilt.f_ext == g.f_ext
