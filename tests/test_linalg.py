"""Tests for the exact linear algebra core."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crysturn.linalg import (
    IntMatrix,
    _det_identity_minus,
    _plan_product,
    _row_plan,
    coset_representatives,
    mod2_solution_count,
    rational_inverse,
    smith_normal_form,
    vector,
)
from oracles import (
    in_lattice_image,
    naive_apply,
    naive_matmul,
    smith_diagonal,
    solve_exact,
    vec_sub,
)


def int_matrices_of_shape(nrows, ncols, max_entry):
    return st.lists(
        st.lists(st.integers(-max_entry, max_entry), min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    ).map(IntMatrix.from_rows)


def int_matrices(max_dim=5, max_entry=5, square=False):
    def build(draw_shape):
        return int_matrices_of_shape(*draw_shape, max_entry)

    if square:
        return st.integers(1, max_dim).flatmap(lambda n: build((n, n)))
    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(build)


@st.composite
def carried_systems(draw):
    """A matrix, columns carried to its right and rows carried below it:
    any shape up to 12 x 8, a k.n x n stack or an n x 2n fixing-pair block."""
    entries = draw(st.sampled_from([
        st.integers(-1, 1), st.integers(-3, 3), st.integers(-10**12, 10**12),
    ]))
    nrows, ncols = draw(st.one_of(
        st.tuples(st.integers(1, 12), st.integers(1, 8)),
        st.tuples(st.integers(1, 3), st.integers(1, 4)).map(lambda kn: (kn[0] * kn[1], kn[1])),
        st.integers(1, 4).map(lambda n: (n, 2 * n)),
    ))

    def block(height, width):
        row = st.tuples(*[entries] * width)
        return draw(st.lists(row, min_size=height, max_size=height))

    m = IntMatrix.from_rows(block(nrows, ncols))
    right = block(draw(st.integers(0, 3)), nrows)
    below = block(draw(st.integers(0, 3)), ncols)
    return m, right, below


@st.composite
def identity_minus_cases(draw):
    """A square M, n = 1..6, with entries from {-1, 0, 1}, -3..3 or +-10^12,
    and whether I - M was made singular: one of its rows set to a multiple
    of another, or to zero when n = 1 or the two rows are one."""
    entries = draw(st.sampled_from([
        st.integers(-1, 1), st.integers(-3, 3), st.integers(-10**12, 10**12),
    ]))
    n = draw(st.integers(1, 6))
    rows = [list(draw(st.tuples(*[entries] * n))) for _ in range(n)]
    singular = draw(st.booleans())
    if singular:
        i, j, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(entries)
        # row i of I - M becomes c times row j of I - M (zero when i = j)
        rows[i] = [(i == k) - (0 if i == j else c * ((j == k) - x)) for k, x in enumerate(rows[j])]
    return IntMatrix.from_rows(rows), singular


class TestDet:
    def test_identity(self):
        assert IntMatrix.identity(2).det() == 1

    def test_diagonal(self):
        assert IntMatrix.diagonal([2, 3]).det() == 6

    def test_two_by_two_cofactor(self):
        # hand expansion: 0*(-1) - (-1)*1 = 1
        assert IntMatrix.from_rows([[0, -1], [1, -1]]).det() == 1

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[0] * 3] * 2).det()

    @given(int_matrices(max_dim=4, square=True))
    def test_matches_fraction_gauss(self, m):
        # independent determinant: Gaussian elimination over Fractions
        n = m.nrows
        a = [[Fraction(x) for x in row] for row in m.rows]
        detval = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot is None:
                detval = Fraction(0)
                break
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                detval = -detval
            detval *= a[col][col]
            for r in range(col + 1, n):
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        assert m.det() == detval

    @given(identity_minus_cases())
    @settings(max_examples=300, deadline=None)
    def test_identity_minus_from_rows(self, case):
        # the determinant test reads det(I - M) off the rows of M, forming no
        # block; it must be the determinant of the block I - M
        m, singular = case
        got = _det_identity_minus(m.rows)
        assert got == (IntMatrix.identity(m.nrows) - m).det()
        if singular:
            assert got == 0


class TestSmithNormalForm:
    def test_zero_matrix(self):
        zero = IntMatrix.from_rows([[0] * 2] * 3)
        snf = smith_normal_form(zero)
        assert snf.invariant_factors == ()
        assert snf.p @ zero @ snf.q == zero

    def test_identity(self):
        ident = IntMatrix.identity(3)
        snf = smith_normal_form(ident)
        assert snf.p @ ident @ snf.q == ident
        assert snf.invariant_factors == (1, 1, 1)

    def test_stacked_involution_block(self):
        # rows of I - I over rows of I - (-I): hand reduction gives (2, 2)
        m = IntMatrix.from_rows([[0, 0], [0, 0], [2, 0], [0, 2]])
        assert smith_normal_form(m).invariant_factors == (2, 2)

    @given(int_matrices())
    @settings(max_examples=200)
    def test_decomposition_invariants(self, m):
        snf = smith_normal_form(m)
        assert snf.p @ m @ snf.q == smith_diagonal(snf, m)
        assert snf.p.det() in (1, -1)
        assert snf.q.det() in (1, -1)
        factors = snf.invariant_factors
        assert all(f > 0 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0

    # P, S and Q themselves, not only the factors: find-d prints Q.d', so a
    # different but valid decomposition would change its output
    PINNED = (
        (  # a fixing-pair block [C - I | I - A.D]
            ((-1, 0, 1, 2, 0, 0), (1, -1, 0, 0, 2, 0), (0, 1, -1, 0, 0, 2)),
            ((-1, 0, 0), (-1, -1, 0), (1, 1, 1)),
            ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 2, 0, 0, 0)),
            ((1, 0, 2, 1, -2, -2), (0, 1, 2, 1, 0, -2), (0, 0, 0, 1, 0, 0),
             (0, 0, 1, 0, -1, -1), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)),
        ),
        (  # a translation solve stacked over two holonomy generators
            ((2, 1, 1), (0, 1, -1), (0, -1, 1), (1, -1, 0), (-1, 1, 0), (1, 1, 2)),
            ((1, 0, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0), (1, 0, -1, 2, 0, 0),
             (0, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 0), (-1, 0, -1, 1, 0, 1)),
            ((1, 0, 0), (0, 1, 0), (0, 0, 4), (0, 0, 0), (0, 0, 0), (0, 0, 0)),
            ((0, 0, 1), (1, -1, 1), (0, 1, -3)),
        ),
        (  # entries near 10^12
            ((10**12, 3, 7), (2, 10**12 + 1, -5), (4, 6, -10**12)),
            ((0, 1, 0), (1, -499999999997000000000003, -500000000000),
             (125000000000124999999999250000000002,
              -62499999999687499999999625000000003624999999993750000000000,
              -62500000000062499999999625000000001000000000001)),
            ((1, 0, 0), (0, 2, 0), (0, 0, 500000000000499999999996000000000002)),
            ((-500000000000, 125000000000124999999998250000000007,
              -250000000000249999999996000000000011),
             (1, -249999999998750000000004, 499999999997500000000007),
             (0, 249999999998750000000002, -499999999997500000000003)),
        ),
    )

    @pytest.mark.parametrize("rows, p, s, q", PINNED)
    def test_pinned_transforms(self, rows, p, s, q):
        m = IntMatrix.from_rows(rows)
        snf = smith_normal_form(m)
        assert (snf.p.rows, smith_diagonal(snf, m).rows, snf.q.rows) == (p, s, q)

    @given(carried_systems())
    @settings(max_examples=300, deadline=None)
    def test_carried_transforms_match_full(self, system):
        # one elimination carries P onto the columns on the right and Q onto
        # the rows below; the result must be P.X and Y.Q of the full transforms,
        # which are themselves carried identities, so they are checked first
        m, right, below = system
        full = smith_normal_form(m)
        assert full.p @ m @ full.q == smith_diagonal(full, m)
        carried = smith_normal_form(m, right=right, below=below)
        assert carried.invariant_factors == full.invariant_factors
        expect_p = naive_matmul(full.p, IntMatrix.from_rows(zip(*right))) if right else None
        expect_q = naive_matmul(IntMatrix.from_rows(below), full.q) if below else None
        assert (carried.p and carried.p.rows) == expect_p
        assert (carried.q and carried.q.rows) == expect_q

    @given(int_matrices(square=True))
    @settings(max_examples=200)
    def test_det_is_product_of_factors(self, m):
        d = m.det()
        if d == 0:
            return
        prod = 1
        for f in smith_normal_form(m).invariant_factors:
            prod *= f
        assert abs(d) == prod


class TestMod2SolutionCount:
    def test_unique_solution(self):
        assert mod2_solution_count(IntMatrix.identity(2), (0, 0)) == 1

    def test_all_of_plane(self):
        assert mod2_solution_count(IntMatrix.diagonal([2, 2]), (0, 0)) == 4

    def test_inconsistent(self):
        assert mod2_solution_count(IntMatrix.diagonal([2, 2]), (1, 0)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mod2_solution_count(IntMatrix.identity(2), (0, 0, 0))

    @given(int_matrices(max_dim=6, square=True), st.data())
    @settings(max_examples=300)
    def test_matches_exhaustive_enumeration(self, b, data):
        n = b.nrows
        rhs = tuple(data.draw(st.integers(-5, 5)) for _ in range(n))
        count = mod2_solution_count(b, rhs)
        brute = 0
        for cand in product((0, 1), repeat=n):
            img = b.apply(cand)
            if all((x - y) % 2 == 0 for x, y in zip(img, rhs)):
                brute += 1
        assert count == brute
        if b.det() % 2 == 1:
            assert count == 1
        else:
            assert count % 2 == 0


class TestCosetRepresentatives:
    def test_identity_single_coset(self):
        assert coset_representatives(IntMatrix.identity(2)) == [(0, 0)]

    def test_diagonal_count(self):
        assert len(coset_representatives(IntMatrix.diagonal([2, 3]))) == 6

    def test_triangular_two_cosets(self):
        b = IntMatrix.from_rows([[1, 1], [0, 2]])
        reps = coset_representatives(b)
        assert len(reps) == 2
        # inequivalence: difference must not lie in the image (brute box search)
        diff = vec_sub(reps[0], reps[1])
        hits = [
            z
            for z in product(range(-6, 7), repeat=2)
            if b.apply(z) == tuple(diff)
        ]
        assert hits == []

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            coset_representatives(IntMatrix.from_rows([[0] * 2] * 2))

    @given(int_matrices(max_dim=3, max_entry=3, square=True), st.data())
    @settings(max_examples=150, deadline=None)
    def test_covers_every_coset_exactly_once(self, b, data):
        d = abs(b.det())
        if d == 0 or d > 24:
            return
        reps = coset_representatives(b)
        assert len(reps) == d
        n = b.nrows
        x = tuple(data.draw(st.integers(-8, 8)) for _ in range(n))
        # x must be equivalent mod im(b) to exactly one representative;
        # equivalence decided by solving b.z = x - rep exactly.
        matches = 0
        for rep in reps:
            z = solve_exact(b, vec_sub(x, rep))
            if all(c.denominator == 1 for c in z):
                matches += 1
        assert matches == 1


class TestInLatticeImage:
    def test_identity_everything(self):
        assert in_lattice_image(IntMatrix.identity(2), vector([5, -3]))

    def test_even_lattice_odd_entry(self):
        assert not in_lattice_image(IntMatrix.diagonal([2, 2]), vector([1, 0]))

    def test_triangular_member(self):
        assert in_lattice_image(IntMatrix.from_rows([[1, 1], [0, 2]]), vector([0, 2]))

    def test_non_integral_vector(self):
        assert not in_lattice_image(IntMatrix.identity(2), vector(["1/2", 0]))

    @given(int_matrices(max_dim=3, max_entry=3, square=True), st.data())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_independent_solver(self, b, data):
        n = b.nrows
        v = tuple(data.draw(st.integers(-4, 4)) for _ in range(n))
        got = in_lattice_image(b, vector(v))
        if b.det() != 0:
            # independent oracle: exact Gaussian solve, then integrality
            z = solve_exact(b, vector(v))
            assert got == all(c.denominator == 1 for c in z)
        else:
            # singular case: a box hit must be reported as a member
            brute = any(
                b.apply(z) == tuple(v) for z in product(range(-8, 9), repeat=n)
            )
            if brute:
                assert got


class TestSolveExact:
    """The rational solver the lattice tests cross-check against."""

    def test_identity(self):
        v = vector([1, 2, 3])
        assert solve_exact(IntMatrix.identity(3), v) == v

    def test_diagonal(self):
        assert solve_exact(IntMatrix.diagonal([2, 3]), vector([1, 1])) == (
            Fraction(1, 2),
            Fraction(1, 3),
        )

    def test_cramer_by_hand(self):
        got = solve_exact(IntMatrix.from_rows([[1, 1], [-1, 2]]), vector([3, 0]))
        assert got == (Fraction(2), Fraction(1))

    def test_singular(self):
        with pytest.raises(ValueError):
            solve_exact(IntMatrix.from_rows([[0] * 2] * 2), vector([1, 0]))

    @given(int_matrices(max_dim=4, square=True), st.data())
    def test_solution_solves(self, b, data):
        if b.det() == 0:
            return
        v = vector(data.draw(st.integers(-9, 9)) for _ in range(b.nrows))
        x = solve_exact(b, v)
        assert tuple(sum(a * xi for a, xi in zip(row, x)) for row in b.rows) == v


def test_rational_inverse_roundtrip():
    m = IntMatrix.from_rows([[2, 1], [1, 1]])
    inv = rational_inverse(m)
    prod = [
        [sum(Fraction(m.rows[i][k]) * inv[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]


def test_int_inverse_unimodular():
    m = IntMatrix.from_rows([[1, 1], [0, 1]])
    assert m.int_inverse() == IntMatrix.from_rows([[1, -1], [0, 1]])
    assert m @ m.int_inverse() == IntMatrix.identity(2)


@st.composite
def unimodular_matrices(draw, max_dim=6):
    """Products of elementary matrices (row additions with large multipliers,
    swaps and sign changes) of size 1 to ``max_dim``."""
    n = draw(st.integers(1, max_dim))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["add", "swap", "negate"]))
        if kind == "add" and i != j:
            k = draw(st.integers(-10**6, 10**6))
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
        elif kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return IntMatrix.from_rows(rows)


class TestIntInverse:
    @settings(max_examples=200, deadline=None)
    @given(unimodular_matrices())
    def test_matches_rational_inverse(self, m):
        inv = m.int_inverse()
        assert inv.rows == rational_inverse(m)
        assert m @ inv == IntMatrix.identity(m.nrows)
        assert inv @ m == IntMatrix.identity(m.nrows)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[2, 0], [0, 1]], "not unimodular"),
            ([[1, 2], [3, 4]], "not unimodular"),
            ([[2, 1, 0], [0, 1, 0], [0, 0, 3]], "not unimodular"),
            ([[1, 2], [2, 4]], "singular"),
            ([[2, 0], [0, 0]], "singular"),
            ([[1, 0], [0, 1], [1, 1]], "square"),
        ],
    )
    def test_rejects_non_unimodular(self, rows, message):
        with pytest.raises(ValueError, match=message):
            IntMatrix.from_rows(rows).int_inverse()


class TestKernelsAgainstNaive:
    """The product and matrix-vector kernels against an index triple loop."""

    BIG = 10**30

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matmul(self, data):
        nrows, inner, ncols = (data.draw(st.integers(1, 5)) for _ in range(3))
        a = data.draw(int_matrices_of_shape(nrows, inner, self.BIG))
        b = data.draw(int_matrices_of_shape(inner, ncols, self.BIG))
        assert (a @ b).rows == naive_matmul(a, b)
        assert (a @ b).shape == (nrows, ncols)

    # Mostly signed-permutation-like entries, which the product adds,
    # subtracts or skips, with a few large ones like the a = 10**12
    # companion matrices, which it multiplies.
    SPARSE = st.sampled_from((0, 0, 0, 1, -1, 1, -1, 10**12, -(10**12)))

    @staticmethod
    def sparse_matrix(data, nrows, ncols):
        rows = data.draw(
            st.lists(
                st.lists(TestKernelsAgainstNaive.SPARSE, min_size=ncols, max_size=ncols),
                min_size=nrows,
                max_size=nrows,
            )
        )
        for i in data.draw(st.sets(st.integers(0, nrows - 1))):
            rows[i] = [0] * ncols
        return IntMatrix.from_rows(rows)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matmul_sparse(self, data):
        nrows, inner, ncols = (data.draw(st.integers(1, 6)) for _ in range(3))
        a = self.sparse_matrix(data, nrows, inner)
        b = self.sparse_matrix(data, inner, ncols)
        product = a @ b
        assert product.rows == naive_matmul(a, b)
        assert product.shape == (nrows, ncols)
        assert all(type(x) is int for row in product.rows for x in row)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_plan_product_matches_matmul(self, data):
        # one row plan of A serves several right factors B, as a walk's
        # letters and holonomy matrices do; each product by the plan is the
        # rows of A @ B, entries of +-1 added or subtracted, others multiplied
        entries = st.sampled_from((0, 1, -1, 2, -2, 10**12, -(10**12)))
        nrows, inner, ncols = (data.draw(st.integers(1, 6)) for _ in range(3))

        def matrix(height, width):
            row = st.lists(entries, min_size=width, max_size=width)
            return IntMatrix.from_rows(data.draw(st.lists(row, min_size=height, max_size=height)))

        a = matrix(nrows, inner)
        plan = _row_plan(a)
        for b in [matrix(inner, ncols) for _ in range(data.draw(st.integers(1, 3)))]:
            assert _plan_product(plan, b.rows) == (a @ b).rows

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_apply(self, data):
        nrows, ncols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        a = data.draw(int_matrices_of_shape(nrows, ncols, self.BIG))
        entries = st.one_of(
            st.integers(-self.BIG, self.BIG),
            st.fractions(max_denominator=10**6),
        )
        v = tuple(data.draw(st.lists(entries, min_size=ncols, max_size=ncols)))
        got = a.apply(v)
        assert got == naive_apply(a, v)
        assert [type(x) for x in got] == [type(x) for x in naive_apply(a, v)]

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_mismatched_shapes_raise(self, data):
        nrows, inner, ncols = (data.draw(st.integers(1, 4)) for _ in range(3))
        other = data.draw(st.integers(1, 4).filter(lambda k: k != inner))
        a = data.draw(int_matrices_of_shape(nrows, inner, 3))
        b = data.draw(int_matrices_of_shape(other, ncols, 3))
        with pytest.raises(ValueError, match="inner dimensions"):
            a @ b
        with pytest.raises(ValueError, match="column count"):
            a.apply((0,) * other)
