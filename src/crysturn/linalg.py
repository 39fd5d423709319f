"""Exact linear algebra over the integers and rationals.

Immutable integer matrices (:class:`IntMatrix`; a product combines rows,
see :meth:`IntMatrix.__matmul__`, and results of integer operations skip
re-validation, see :meth:`IntMatrix._unchecked`), the coset walk's
product of raw rows by a fixed left factor's row plan, made once per walk
(:func:`_row_plan`, :func:`_plan_product`), exact rational vectors,
determinants (:func:`_bareiss`) and the Smith normal form
(:func:`smith_normal_form`), which does every other integer solve, the
inverse (:meth:`IntMatrix.int_inverse`) included.  Its elimination runs in
place on raw row lists (:func:`_smith_rows`), which the fixing pairs of a
Burnside count and the Bieberbach test call directly, each with the columns
it reads carried along.
``BENCHMARK_ONLY`` in ``tests/test_benchmark_names.py`` lists the functions
here that only scripts and the benchmark call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as _mixed_radix
from operator import add as _add, mul as _mul, neg as _neg
from typing import Iterable, NamedTuple, Sequence, Union

Scalar = Union[int, Fraction]
Vec = tuple[Fraction, ...]


def _as_int(x) -> int:
    if isinstance(x, bool):
        raise TypeError("matrix entries must be integers, not bool")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise TypeError(f"expected an exact integer, got {x!r}")


def vector(entries: Iterable) -> Vec:
    """Exact rational vector from ints, Fractions or strings like ``"3/4"``;
    a Fraction entry is kept as it is."""
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def zero_vector(n: int) -> Vec:
    return (Fraction(0),) * n


def vec_add(u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple:
    if len(u) != len(v):
        raise ValueError(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


class _Record:
    """Base of the immutable value classes, written out so that they generate no code
    at import, as a NamedTuple does (three do: ``SnfDecomposition``, ``RinfVerdict``
    and ``EntryReport``): ``__init__`` takes ``_fields`` and fills ``__slots__`` in
    order (:meth:`_set`); equality (within a class), hash, repr and pickling read
    ``_fields``."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class IntMatrix(_Record):
    """Dense integer matrix, row-major, immutable and hashable."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(_as_int(x) for x in row) for row in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must have positive dimensions")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows in matrix")
        object.__setattr__(self, "rows", rows)

    # Written out, not inherited: the conjugation of a D keys a dict by matrices.
    def __eq__(self, other):
        return self.rows == other.rows if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows,))

    @classmethod
    def _unchecked(cls, rows) -> "IntMatrix":
        """Wrap rows that are already a nonempty rectangular tuple of int tuples.

        Only for the results of integer operations on valid matrices, which
        cannot break the invariants ``__init__`` checks.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "IntMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "IntMatrix":
        n = len(entries)
        return cls(tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def vstack(cls, mats: Sequence["IntMatrix"]) -> "IntMatrix":
        if not mats:
            raise ValueError("nothing to stack")
        width = mats[0].ncols
        if any(m.ncols != width for m in mats):
            raise ValueError("column counts differ in vertical stack")
        return cls._unchecked(tuple(row for m in mats for row in m.rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """The product by rows: row i is the sum over j of self[i][j] times
        row j of ``other``.  A zero entry costs nothing and an entry of +-1
        adds the row or its negation, so a signed permutation matrix on the
        left costs at most n row negations instead of n^3 multiplications."""
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions do not match")
        rows = []
        for row in self.rows:
            acc = None
            for a, b in zip(row, other.rows):
                if a:
                    term = b if a == 1 else map(_neg, b) if a == -1 else map(a.__mul__, b)
                    acc = tuple(term) if acc is None else tuple(map(_add, acc, term))
            rows.append(acc or (0,) * other.ncols)
        return IntMatrix._unchecked(tuple(rows))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shapes do not match")
        return IntMatrix._unchecked(
            tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows))
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shapes do not match")
        return IntMatrix._unchecked(
            tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows))
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._unchecked(tuple(tuple(-a for a in row) for row in self.rows))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def apply(self, v: Sequence[Scalar]) -> tuple:
        """Matrix-vector product; int vectors stay int, rationals stay exact."""
        if len(v) != self.ncols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(map(_mul, row, v)) for row in self.rows)

    def det(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if not self.is_square:
            raise ValueError("determinant requires a square matrix")
        return _bareiss([list(row) for row in self.rows])

    def is_unimodular(self) -> bool:
        return self.is_square and self.det() in (1, -1)

    def _check_unimodular(self) -> None:
        """ValueError unless the matrix is square with determinant +-1."""
        if not self.is_square:
            raise ValueError("inverse requires a square matrix")
        det = self.det()
        if det not in (1, -1):
            raise ValueError("matrix is singular" if det == 0 else "matrix is not unimodular")

    def int_inverse(self) -> "IntMatrix":
        """Inverse of a unimodular matrix, exact and integral; ValueError otherwise.

        Q.P from the Smith normal form P.M.Q = I (:func:`smith_normal_form`);
        a determinant is taken only to name the fault of any other matrix.
        """
        snf = smith_normal_form(self)
        if not self.is_square or snf.invariant_factors != (1,) * self.nrows:
            self._check_unimodular()
        return snf.q @ snf.p

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.rows) + "]"


Rows = tuple[tuple[int, ...], ...]  # the rows of a matrix, raw
Plan = tuple[tuple[tuple[int, int], ...], ...]  # per row, the (j, a) of its nonzero entries


def _row_plan(m: IntMatrix) -> Plan:
    """The row plan of a left factor: for each row, the pairs (j, a) of its
    nonzero entries a = m[i][j], made once for a factor that multiplies
    many matrices (:func:`_plan_product`)."""
    return tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in m.rows)


def _plan_product(plan: Plan, rows: Rows) -> Rows:
    """The rows of M.B from M's :func:`_row_plan` and the rows of B, by the
    rule of :meth:`IntMatrix.__matmul__`: row i is the sum of a times row j
    of B over the pairs (j, a) of row i, an entry of +-1 adding the row or
    its negation.  The plan has no zero entries to test, and no
    ``IntMatrix`` is made, so a walk's products and their lookups stay on
    tuples; a one-off product is cheaper through ``@``, which makes no
    plan."""
    out = []
    for terms in plan:
        acc = None
        for j, a in terms:
            b = rows[j]
            term = b if a == 1 else map(_neg, b) if a == -1 else map(a.__mul__, b)
            acc = tuple(term) if acc is None else tuple(map(_add, acc, term))
        out.append(acc or (0,) * len(rows[0]))
    return tuple(out)


def _det_identity_minus(rows: Sequence[Sequence[int]]) -> int:
    """det(I - M) from the rows of a square M, forming no matrix I - M."""
    a = [list(map(_neg, row)) for row in rows]
    for i, row in enumerate(a):
        row[i] += 1
    return _bareiss(a)


def _bareiss(a: list[list[int]]) -> int:
    """The determinant of the square rows ``a``, which it overwrites, by
    fraction-free (Bareiss) elimination."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rational_inverse(m: IntMatrix) -> tuple[Vec, ...]:
    """Exact inverse of a nonsingular square matrix, as rows of Fractions."""
    if not m.is_square:
        raise ValueError("inverse requires a square matrix")
    n = m.nrows
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m.rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def rat_apply(rows: Sequence[Sequence[Fraction]], v: Sequence[Scalar]) -> Vec:
    """Apply a rational matrix (as rows) to a vector."""
    if len(v) != len(rows[0]):
        raise ValueError("vector length does not match column count")
    return tuple(sum(a * x for a, x in zip(row, v)) for row in rows)


class SnfDecomposition(NamedTuple):
    """Smith normal form data.

    The ``invariant_factors`` are positive and each divides the next;
    ``p`` and ``q`` are unimodular and p @ matrix @ q has the invariant
    factors down its diagonal and zeros elsewhere.
    """

    p: IntMatrix
    q: IntMatrix
    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def smith_normal_form(m: IntMatrix) -> SnfDecomposition:
    """Smith normal form P.m.Q = S by elementary row/column ops.

    Pivots are chosen with minimal absolute value; a pivot only advances once
    it divides every entry of the remaining submatrix, which yields the
    divisibility chain directly.  Invariant factors are returned positive.
    The rows [m | I] over I are eliminated by :func:`_smith_rows`, which
    leaves P on the right and Q below.
    """
    nrows, ncols = m.shape
    a = [[*row, *(int(i == j) for j in range(nrows))] for i, row in enumerate(m.rows)]
    a += ([int(i == j) for j in range(ncols)] for i in range(ncols))
    factors = _smith_rows(a, nrows, ncols)
    return SnfDecomposition(
        p=IntMatrix._unchecked(tuple(tuple(row[ncols:]) for row in a[:nrows])),
        q=IntMatrix._unchecked(tuple(map(tuple, a[nrows:]))),
        invariant_factors=factors,
    )


def _smith_rows(a: list[list[int]], nrows: int, ncols: int) -> tuple[int, ...]:
    """The invariant factors of the first ``nrows`` rows of ``a`` over their
    first ``ncols`` columns, eliminated in place on ``a``, a list of row
    lists, by the rule of :func:`smith_normal_form`.

    A row operation acts on the whole row, so the columns a row carries
    past ``ncols`` end as P times them; a column operation acts on every
    row, so the rows past ``nrows`` end as themselves times Q.  Row i of
    the first ``nrows`` ends with the i-th factor at position i.
    """
    t = 0
    while t < nrows and t < ncols:
        # The row-major first entry of least absolute value in the remaining
        # submatrix; none is smaller than 1, so the first 1 ends the search.
        best = 0
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                x = row[j]
                if x:
                    if x < 0:
                        x = -x
                    if x < best or not best:
                        p, q, best = i, j, x
                        if x == 1:
                            break
            if best == 1:
                break
        if not best:
            break
        a[t], a[p] = a[p], a[t]
        if q != t:
            for row in a:
                row[t], row[q] = row[q], row[t]
        top = a[t]
        d = top[t]

        stable = True
        for i in range(t + 1, nrows):
            row = a[i]
            k = row[t] // d
            if k:  # row_i -= k * row_t
                a[i] = row = [x - k * y for x, y in zip(row, top)]
            if row[t]:
                stable = False
        for j in range(t + 1, ncols):
            k = top[j] // d
            if k:
                for row in a:  # col_j -= k * col_t
                    row[j] -= k * row[t]
            if top[j]:
                stable = False
        if not stable:
            continue
        # Row and column are clear; enforce divisibility over the submatrix
        # (a unit pivot divides everything).
        if d not in (1, -1):
            rest = range(t + 1, nrows)
            offender = next((i for i in rest if any(x % d for x in a[i][t + 1 : ncols])), None)
            if offender is not None:
                a[t] = [x + y for x, y in zip(top, a[offender])]
                continue
        if d < 0:
            a[t] = [-x for x in top]
        t += 1
    return tuple(a[i][i] for i in range(t))


def mod2_solution_count(b_mat: IntMatrix, b_vec: Sequence[Scalar]) -> int:
    """Number of solutions over GF(2) of the reduced system b_mat . x = b_vec.

    Returns 0 for an inconsistent system, 2**(n - rank) otherwise; always 1
    when det(b_mat) is odd.
    """
    if not b_mat.is_square:
        raise ValueError("coefficient matrix must be square")
    n = b_mat.nrows
    if len(b_vec) != n:
        raise ValueError("right-hand side length does not match matrix")
    aug = [[x % 2 for x in row] + [_as_int(b) % 2] for row, b in zip(b_mat.rows, b_vec)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        for r in range(n):
            if r != rank and aug[r][col]:
                aug[r] = [(x ^ y) for x, y in zip(aug[r], aug[rank])]
        rank += 1
    if any(row[n] for row in aug[rank:]):
        return 0
    return 2 ** (n - rank)


def coset_representatives(b: IntMatrix) -> list[tuple[int, ...]]:
    """Representatives of the cosets of b . Z^n in Z^n, one per coset.

    Requires det(b) != 0 (finite index); yields exactly |det(b)| vectors in
    the deterministic order induced by mixed-radix enumeration through the
    Smith normal form.
    """
    if not b.is_square:
        raise ValueError("lattice image requires a square matrix")
    if b.det() == 0:
        raise ValueError("matrix is singular: infinitely many cosets")
    snf = smith_normal_form(b)
    p_inv = snf.p.int_inverse()
    factors = snf.invariant_factors
    return [p_inv.apply(combo) for combo in _mixed_radix(*(range(s) for s in factors))]
