"""Affine model of crystallographic groups.

A group element is an :class:`AffineMap` with an integer unimodular matrix
part and a rational translation.  A crystallographic group is the lattice
Z^n plus one representative per holonomy matrix: :func:`build_group`
proves the structure and fills the :class:`CrystGroup` record, whose
docstring lists its fields.  Every closure in the package is one
breadth-first walk over the cosets of a finite matrix group
(:func:`_coset_walk`); a complete walk stops on a certificate that the
group is infinite (:func:`_certify_finite`), with no size limit.  The
walk runs on raw rows: a coset costs |letters| + |F| - 1 products, each
from the row plan of a fixed left factor, made once per walk, and the
looked-up rows (:func:`~crysturn.linalg._plan_product`); its table is
keyed by rows, and only the leaders become
:class:`~crysturn.linalg.IntMatrix` objects.  The group also owns the one
Smith normal form of its generator stack (``CrystGroup.generator_form``),
which its base translations and the translation solve's integer matrix
(``CrystGroup.solve_matrix``) are read from.  A caller's linear part D is
conjugated once (:func:`_checked_conjugation`), which gives sigma_D and
keeps the products A.D that the determinant test reads; the Bieberbach
verdict sums the powers of each A read off the multiplication table and
eliminates its raw rows with :func:`~crysturn.linalg._smith_rows`.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import product as _mixed_radix
from typing import Iterator, Mapping, Optional, Sequence

from .linalg import (
    IntMatrix,
    Rows,
    SnfDecomposition,
    Vec,
    _plan_product,
    _Record,
    _row_plan,
    _smith_rows,
    smith_normal_form,
    vector,
    zero_vector,
)

# Largest order of a finite subgroup of GL_n(Z), n = 1..8 (Feit; Plesken-Pohst)
_MAX_FINITE_ORDER = (2, 12, 48, 1152, 3840, 103680, 2903040, 696729600)


class GroupValidationError(ValueError):
    """The supplied data does not define a valid crystallographic group."""


class ClosureCapExceeded(RuntimeError):
    """The closure walk met a certificate that the matrix group is infinite
    (see :func:`_certify_finite`).  ``perfbench`` reads this name."""


def _minkowski_bound(n: int) -> int:
    """Minkowski's bound M(n): the order of every finite subgroup of GL_n(Z)
    divides the product over primes p of p^(sum_{k>=0} floor(n / (p^k (p-1))))."""
    bound = 1
    for p in range(2, n + 2):
        if all(p % q for q in range(2, p)):
            bound *= p ** sum(n // ((p - 1) * p**k) for k in range(n.bit_length()))
    return bound


def _order_bound(n: int) -> int:
    """Largest order of a finite subgroup of GL_n(Z): tabulated to n = 8, then M(n)."""
    return _MAX_FINITE_ORDER[n - 1] if n <= len(_MAX_FINITE_ORDER) else _minkowski_bound(n)


def _certify_finite(new: Rows, size: int, bound: int) -> None:
    """Raise :class:`ClosureCapExceeded` if taking the matrix with rows
    ``new`` into a closure of ``size`` elements proves the group infinite.
    A finite-order element is diagonalisable with roots of unity as
    eigenvalues, so |trace| > n, or |trace| = n for anything but I and -I (a
    shear, say), means infinite order; past n = 8 this test, not the
    out-of-reach M(n), is what ends a closure."""
    n = len(new)
    trace = sum(new[i][i] for i in range(n))
    if abs(trace) > n or (abs(trace) == n and new != IntMatrix.diagonal([trace // n] * n).rows):
        shown = IntMatrix._unchecked(new)
        raise ClosureCapExceeded(f"matrix group is infinite: {shown} has trace {trace}")
    if size >= bound:
        raise ClosureCapExceeded(f"matrix group is infinite: more than {bound} elements")


Step = tuple[int, int, int, int, Optional[list[Rows]]]  # (x, k, y, i, new)
Letter = tuple[IntMatrix, IntMatrix, tuple[int, ...]]  # (D, D^-1, sigma_D)
Conjugation = tuple[tuple[int, ...], tuple[Rows, ...]]  # (sigma_D, rows of A.D in holonomy order)


def _coset_walk(
    parts: Sequence[IntMatrix],
    letters: Sequence[IntMatrix],
    max_depth: float = math.inf,
) -> Iterator[Step]:
    """Breadth-first walk over the cosets F.D that words in ``letters`` of
    length <= ``max_depth`` reach from coset 0, the finite group F =
    ``parts`` (identity first).

    Yields every step as (x, k, y, i, new): letters[k] times the leader t_x
    of coset x is A_i.t_y.  When coset y is new, i = 0, the product is its
    leader and ``new`` lists the rows of its products A_i.t_y, in holonomy
    order; otherwise ``new`` is None.  One dict of all products, keyed by
    their rows, tells each later letter.leader where it lands, so a coset
    costs |letters| + |F| - 1 products, but for coset 0: its leader is I,
    so its letter products are the letters.  Every left factor is fixed for
    the whole walk, so each letter and holonomy matrix becomes a row plan once
    (:func:`~crysturn.linalg._row_plan`) and each product is formed from a
    plan and raw rows (:func:`~crysturn.linalg._plan_product`); no product
    is wrapped as an :class:`~crysturn.linalg.IntMatrix`.  The leader is the
    coset's first element in the elements' breadth-first order: every
    element of g^-1.Z comes no earlier than its coset's leader.  Positive
    words suffice: a finite closure of invertible matrices is a group, and
    an infinite group has no finite one.  A walk with no depth limit is
    complete: it ends only if N is finite, so it certifies each leader and
    counts every product, all in F.N, which is finite iff N is (see
    :func:`_certify_finite`).  A depth-limited walk ends anyway, as a
    search, and certifies nothing.
    """
    bound = _order_bound(parts[0].nrows) if max_depth == math.inf else 0
    letter_plans = [_row_plan(m) for m in letters]
    part_plans = [_row_plan(a) for a in parts[1:]]
    found = {a.rows: (0, i) for i, a in enumerate(parts)}
    leaders, depths = [parts[0].rows], [0]
    for x, leader in enumerate(leaders):  # the list grows as the walk goes
        if depths[x] == max_depth:
            break
        for k, plan in enumerate(letter_plans):
            cand = _plan_product(plan, leader) if x else letters[k].rows  # leader 0 is I
            landing = found.get(cand)
            if landing is not None:
                yield x, k, *landing, None
                continue
            if bound:
                _certify_finite(cand, len(found) + len(parts) - 1, bound)
            y = len(leaders)
            products = [cand, *(_plan_product(p, cand) for p in part_plans)]
            found.update((m, (y, i)) for i, m in enumerate(products))
            leaders.append(cand)
            depths.append(depths[x] + 1)
            yield x, k, y, 0, products


def _scaled(v: Sequence[Fraction], den: int) -> tuple[int, ...]:
    """v . den as ints; den must be a multiple of every denominator in v."""
    return tuple(x.numerator * (den // x.denominator) for x in v)


class AffineMap(_Record):
    """An affine map (translation, linear): x -> linear.x + translation."""

    __slots__ = _fields = ("translation", "linear")

    def __init__(self, translation: Vec, linear: IntMatrix):
        translation = vector(translation)
        if len(translation) != linear.nrows or not linear.is_square:
            raise ValueError("translation length must match the (square) linear part")
        self._set(translation, linear)

    @classmethod
    def identity(cls, n: int) -> "AffineMap":
        return cls(zero_vector(n), IntMatrix.identity(n))

    @property
    def dimension(self) -> int:
        return len(self.translation)

    def __str__(self) -> str:
        t = ",".join(str(x) for x in self.translation)
        return f"({t}; {self.linear})"


class PointGroup:
    """A finite matrix group, as :func:`matrix_group_closure` returns it:
    distinct square matrices, identity first.  Nothing is checked here."""

    def __init__(self, elements: Sequence[IntMatrix]):
        self.elements = tuple(elements)

    @property
    def order(self) -> int:
        return len(self.elements)


def matrix_group_closure(gens: Sequence[IntMatrix]) -> PointGroup:
    """Close a set of unimodular matrices into a finite matrix group.

    Elements are enumerated breadth-first, identity first, from the sorted
    generators, so the discovery order (and anything derived from it, like
    "first witness" answers) is deterministic: the walk of
    :func:`_coset_walk` over F = {I}, one product per element and
    generator; no multiplication table is built.  Raises
    :class:`ClosureCapExceeded` as soon as a new element certifies that the
    group is infinite (see :func:`_certify_finite`).
    """
    if not gens:
        raise ValueError("at least one generator is required")
    n = gens[0].nrows
    for g in gens:
        if not g.is_unimodular():
            raise ValueError(f"generator is not unimodular: {g}")
        if g.nrows != n:
            raise ValueError("generators of mixed dimensions")
    gen_list = sorted(set(gens), key=lambda m: m.rows)
    ident = IntMatrix.identity(n)
    walk = _coset_walk([ident], gen_list)
    return PointGroup([ident, *(IntMatrix._unchecked(new[0]) for _, _, _, _, new in walk if new)])


class CrystGroup:
    """A crystallographic group with translation lattice exactly Z^n.

    :func:`build_group` makes it: its closure is the proof that the data
    form a group, and it fills every field.  The constructor trusts what it
    is given, checks nothing and forms no product.

    * ``f_ext``: one affine representative per holonomy matrix, identity
      first, translations in [0, 1)^n; ``order`` is its length.
    * ``matrix_parts``: their matrices, in that order; a matrix's position
      is its holonomy index, and no map back is kept
      (:func:`_conjugation` needs none).
    * ``mult_table``: products of holonomy elements by index; row j is left
      multiplication by A_j.
    * ``generator_indices``: the holonomy indices of representatives that,
      with Z^n, generate the group; never empty (the identity alone for the
      trivial group).  The translation solve stacks one block I - A_j per
      index j (``generator_blocks``).
    * ``normaliser_letters``: for each supplied generator D of the
      normaliser of the holonomy group in GL_n(Z), in the supplied order,
      (D, D^-1, sigma_D) with sigma_D its :func:`conjugation_permutation`;
      the normaliser walks read them and neither conjugate nor invert.
      ``None`` means no normaliser data, ``()`` the trivial normaliser
      {I}.  The generators are input data: spectra and R-infinity verdicts
      are always relative to them.  ``normaliser_gens`` reads the D back.
    * ``denominator``: the least common multiple g of the translations'
      denominators, and ``scaled_translations[i]``: g times the translation
      of ``f_ext[i]``, as ints.
    * ``generator_form`` and ``solve_matrix``: the Smith normal form of
      that stack and the integer matrix that does every translation solve;
      ``base_numerators`` and ``base_offsets``: the base translations and
      the integer vectors they move image translations by.  All are made on
      first use and kept, as is the verdict of :meth:`is_bieberbach`.

    Fractions only in and out: translations are Fractions in
    :class:`AffineMap` and in the arguments and results of the public
    functions.  The kernels carry a translation as integer numerators over
    a common denominator, and an image translation as the integer vector it
    differs from a representative's translation by.
    """

    def __init__(
        self,
        dimension: int,
        f_ext: Sequence[AffineMap],
        mult_table: Sequence[tuple[int, ...]],
        generator_indices: Sequence[int],
        normaliser_letters: Optional[Sequence[Letter]] = None,
        labels: Optional[Mapping[str, str]] = None,
        name: str = "",
    ):
        self.dimension = dimension
        self.f_ext = tuple(f_ext)
        self.matrix_parts = tuple(g.linear for g in self.f_ext)
        self.mult_table = tuple(mult_table)
        self.generator_indices = tuple(generator_indices)
        self.normaliser_letters = None if normaliser_letters is None else tuple(normaliser_letters)
        self.labels = dict(labels or {})
        self.name = name
        self.denominator = math.lcm(*(x.denominator for g in self.f_ext for x in g.translation))
        self.scaled_translations = tuple(
            _scaled(g.translation, self.denominator) for g in self.f_ext
        )

    @property
    def normaliser_gens(self) -> Optional[tuple[IntMatrix, ...]]:
        """The supplied normaliser generators, in order, or ``None``."""
        if self.normaliser_letters is None:
            return None
        return tuple(d for d, _, _ in self.normaliser_letters)

    @property
    def order(self) -> int:
        """Order of the holonomy group."""
        return len(self.f_ext)

    def scale(self, d: Vec) -> tuple[int, tuple[int, ...]]:
        """(den, d . den) with den = g . lcm(denominators of d), g = ``denominator``.

        Over den, d and every translation of the group (``scaled_translations``
        times den / g) are integer vectors.
        """
        den = self.denominator * math.lcm(*(x.denominator for x in d))
        return den, _scaled(d, den)

    def is_bieberbach(self) -> bool:
        """Torsion-freeness: no (x + a, A) with A != I has finite order.
        Decided on first use and kept (``_torsion_free``)."""
        return self._torsion_free

    @functools.cached_property
    def _torsion_free(self) -> bool:
        """:meth:`is_bieberbach`, computed.

        (x + a, A) with A of order m is torsion iff (sum_i A^i)(x + a) = 0,
        so torsion with matrix part A exists iff N_A . x = -N_A . a has an
        integral solution.  N_A sums the powers of A = A_i until one is I,
        read off the multiplication table (k <- mult[i][k] until k = 0), so
        no product is formed.  On the translations scaled by g
        (``scaled_translations``) that asks whether t = N_A.(g.a), up to
        sign, lies in g.N_A.Z^n: with P.N_A.Q = S, whether (P.t)_i is a
        multiple of g.s_i for each invariant factor s_i.  Past the rank
        (P.t)_i needs no test: P.t = S.Q^-1.(g.a), and S is 0 there.  Row i
        is written as the raw row [(N_A)_i | t_i] and the rows are
        eliminated in place (:func:`~crysturn.linalg._smith_rows`), so row
        i ends as [S_i | (P.t)_i].
        """
        parts, mult, g, n = self.matrix_parts, self.mult_table, self.denominator, self.dimension
        for i, a in enumerate(self.scaled_translations[1:], start=1):
            acc, k = parts[0], i
            while k:
                acc, k = acc + parts[k], mult[i][k]
            rows = [[*row, t] for row, t in zip(acc.rows, acc.apply(a))]
            factors = _smith_rows(rows, n, n)
            if all(row[n] % (g * s) == 0 for row, s in zip(rows, factors)):
                return False
        return True

    def generator_blocks(self) -> IntMatrix:
        """The blocks I - A_i, one per holonomy generator i
        (``generator_indices``), stacked: k.n rows for k generators."""
        parts = self.matrix_parts  # parts[0] is the holonomy identity
        return IntMatrix.vstack([parts[0] - parts[i] for i in self.generator_indices])

    @functools.cached_property
    def generator_form(self) -> SnfDecomposition:
        """The Smith normal form P.M.Q = S of M = ``generator_blocks``, with
        P and Q: the group's one factorisation of that stack, made on first
        use and kept; ``base_numerators`` and ``solve_matrix`` read it."""
        return smith_normal_form(self.generator_blocks())

    @functools.cached_property
    def solve_matrix(self) -> tuple[int, IntMatrix]:
        """(L, W) for the translation solve of
        :func:`~crysturn.automorphisms._translation_part`, L the lcm of the
        invariant factors s_1..s_r of ``generator_form``.  The solve asks
        for x = g.d with M.x = -t modulo g.Z^kn, t the right-hand side
        scaled by g = ``denominator`` to ints.  It has a solution iff
        (P.t)_i is a multiple of g past the rank r, and then x = Q.x' with
        x'_i = -(P.t)_i / s_i for i < r and 0 past it.  W stacks the n rows
        of -Q.diag(L / s_i).P_{<r}, which give L.x, on the k.n - r
        consistency rows P_{>=r}, so one apply of W does the whole solve."""
        snf = self.generator_form
        factors, p_rows = snf.invariant_factors, snf.p.rows
        lcm = math.lcm(*factors)
        scaled = [[-(lcm // s) * x for x in row] for s, row in zip(factors, p_rows)]
        top = [  # zip(q_row, scaled) stops at the rank: Q's first r columns
            tuple(sum(q * row[c] for q, row in zip(q_row, scaled)) for c in range(len(p_rows)))
            for q_row in snf.q.rows
        ]
        return lcm, IntMatrix._unchecked((*top, *p_rows[snf.rank :]))

    @functools.cached_property
    def base_numerators(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The base translations b (see
        :func:`~crysturn.automorphisms.base_translations`) as (den, the sorted
        numerators den.b reduced into [0, den)^n).  The A with (I - A).b in
        Z^n form a subgroup of F, (I - A.B).b = (I - A).b + A.(I - B).b, so
        the generators' blocks suffice: with P.M.Q = S the
        ``generator_form``, each d' with d'_i in {0, 1/s_i, ...,
        (s_i - 1)/s_i} gives b = Q.d'; den is the lcm of the invariant
        factors s_i."""
        snf = self.generator_form
        factors = snf.invariant_factors
        den = math.lcm(*factors)
        pad = [0] * (self.dimension - len(factors))
        bases = []
        for combo in _mixed_radix(*(range(s) for s in factors)):
            d_prime = [y * (den // s) for y, s in zip(combo, factors)] + pad
            bases.append(tuple(x % den for x in snf.q.apply(d_prime)))
        return den, tuple(sorted(bases))

    @functools.cached_property
    def base_offsets(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """For each base translation b, in the order of ``base_numerators``,
        the integer vectors (I - A).b in holonomy order: conjugation by
        (d + b, D) moves the image translation of (a_C, C) under (d, D) by
        (I - E).b, E = A_sigma(C)."""
        den, bases = self.base_numerators
        offsets = []
        for b in bases:
            moved = [tuple(x - y for x, y in zip(b, a.apply(b))) for a in self.matrix_parts]
            assert not any(x % den for v in moved for x in v), "(I - A).b must be integral"
            offsets.append(tuple(tuple(x // den for x in v) for v in moved))
        return tuple(offsets)

    def __repr__(self) -> str:
        tag = self.name or "?"
        return f"CrystGroup({tag}, dim={self.dimension}, |F|={self.order})"


def conjugation_permutation(group: CrystGroup, linear: IntMatrix) -> tuple[int, ...]:
    """The permutation of holonomy elements induced by A -> D.A.D^-1.

    Entry i is the holonomy index sigma(i) with A_sigma(i) = D.A_i.D^-1.
    Raises ValueError unless the matrix is n x n, checked first, is
    unimodular, tested by its determinant, and normalises the holonomy
    group (see :func:`_checked_conjugation`); nothing is inverted.  The
    normaliser generators are conjugated once, in :func:`build_group`,
    which keeps their sigma (``CrystGroup.normaliser_letters``).
    """
    return _checked_conjugation(group, linear)[0]


def _checked_conjugation(group: CrystGroup, linear: IntMatrix) -> Conjugation:
    """(sigma, the rows of the products A.D) of a caller's matrix D, with
    the checks of :func:`conjugation_permutation` (see :func:`_conjugation`).
    Every public entry point that takes a caller's D conjugates it here
    once; the determinant test reads the products and forms none."""
    if linear.shape != (group.dimension, group.dimension):
        raise ValueError("automorphism data does not match the group dimension")
    linear._check_unimodular()
    return _conjugation(group.matrix_parts, linear)


def _conjugation(parts: Sequence[IntMatrix], linear: IntMatrix) -> Conjugation:
    """The permutation sigma of a unimodular D over the holonomy matrices
    ``parts``, with no inverse, and the rows of the products A_j.D in
    holonomy order: sigma(i) = j says D.A_i = A_j.D, so each D.A_i is
    looked up among the A_j.D, at 2|F| products.  That needs D invertible:
    2.I commutes with every A and would pass, so the caller tests the
    determinant first."""
    products = [a @ linear for a in parts]
    index = {m: j for j, m in enumerate(products)}
    images = tuple(index.get(linear @ a) for a in parts)
    if None in images:
        raise ValueError(f"matrix does not normalise the holonomy group: {linear}")
    return images, tuple(m.rows for m in products)


def build_group(
    dimension: int,
    generators: Sequence[AffineMap],
    normaliser_gens: Optional[Sequence[IntMatrix]] = None,
    labels: Optional[Mapping[str, str]] = None,
    name: str = "",
) -> CrystGroup:
    """Close affine generators over Z^n into a validated crystallographic group.

    The lattice Z^n is implicit; ``generators`` list the extra affine
    generators, and their matrix parts, in the caller's order, are the
    letters of a :func:`_coset_walk` over F = {I}.  Each step carries the
    translation along, reduced into [0,1)^n, as integer numerators over the
    lcm ``den`` of the generators' denominators: every translation of the
    closure lies in (1/den).Z^n, so reduction and comparison are mod den.
    Two translations for one matrix part mean the generators define no
    group with translation lattice Z^n.  Each product generator.element is
    checked, so by induction on word length every product of two elements,
    and (the group being finite) every inverse, lands on its representative
    modulo Z^n: the cocycle condition holds with |generators|.|F| products.
    The steps also give each generator's row of the multiplication table;
    every other row is a generator's row after an earlier one
    (A_y = G.A_x), at |F| lookups.  Each normaliser generator D, the one
    other outside input, must be a unimodular n x n matrix that normalises
    the holonomy group: before the group is made it is inverted once, for
    the word search's inverse letter, and conjugates the holonomy group
    once (:func:`_conjugation`), and the group keeps D, D^-1 and the
    permutation sigma_D (``normaliser_letters``), so no later walk repeats
    either.  Raises :class:`ClosureCapExceeded` when the
    matrix parts generate an infinite group.
    """
    for g in generators:
        if g.dimension != dimension:
            raise GroupValidationError("generator dimension mismatch")
        if not g.linear.is_unimodular():
            raise GroupValidationError(f"generator matrix part is not unimodular: {g.linear}")

    den = math.lcm(*(x.denominator for g in generators for x in g.translation))
    seeds = [tuple(x % den for x in _scaled(g.translation, den)) for g in generators]
    linears = [IntMatrix.identity(dimension)]
    translations = [(0,) * dimension]  # numerators over den
    gen_rows: list[list[int]] = [[] for _ in seeds]  # gen_rows[k][x]: G_k.A_x
    tree = []  # (k, x) with A_y = G_k.A_x, for each new y in order
    letters = [g.linear for g in generators]
    walk = _coset_walk([linears[0]], letters)
    for x, k, y, _, new in walk:
        moved = letters[k].apply(translations[x])
        t = tuple((u + v) % den for u, v in zip(seeds[k], moved))
        if new:
            linears.append(IntMatrix._unchecked(new[0]))
            translations.append(t)
            tree.append((k, x))
        elif translations[y] != t:
            shown = [", ".join(str(Fraction(v, den)) for v in u) for u in (translations[y], t)]
            raise GroupValidationError(
                "cocycle closure violated: two inequivalent translations share a "
                f"matrix part (({shown[0]}) vs ({shown[1]}))"
            )
        gen_rows[k].append(y)
    reps = [
        AffineMap(tuple(Fraction(v, den) for v in t), m) for t, m in zip(translations, linears)
    ]
    rows = [tuple(range(len(reps)))]
    for k, x in tree:
        rows.append(tuple(map(gen_rows[k].__getitem__, rows[x])))

    kept = None
    if normaliser_gens is not None:
        kept = []
        for d in normaliser_gens:
            if not d.is_unimodular() or d.nrows != dimension:
                raise GroupValidationError("normaliser generator is not unimodular n x n")
            try:
                kept.append((d, d.int_inverse(), _conjugation(linears, d)[0]))
            except ValueError:
                raise GroupValidationError(
                    f"supplied matrix does not normalise the holonomy group: {d}"
                ) from None
    # The identity adds nothing to a generating set, but the trivial group
    # keeps it: the translation solve needs at least one block.
    generator_indices = tuple(dict.fromkeys(row[0] for row in gen_rows if row[0])) or (0,)
    return CrystGroup(dimension, reps, rows, generator_indices, kept, labels=labels, name=name)
