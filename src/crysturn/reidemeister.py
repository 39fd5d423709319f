"""Reidemeister numbers and spectra of crystallographic groups.

A Reidemeister number is a positive int or ``INFINITE`` (``math.inf``), so
counts sort and compare naturally.  :func:`reidemeister_number` counts one
automorphism: a determinant test (:func:`_twisted_blocks`), then Burnside's
lemma, split into what the linear part D alone decides
(:func:`_fixing_pairs`) and what the translation part does
(:func:`_burnside_count`).  :func:`reidemeister_set` sweeps the translations
of one D (:func:`_linear_part_set`); :func:`spectrum`,
:func:`decide_r_infinity` and :func:`search_r_infinity_witness` walk the
cosets F.D of the normaliser (:func:`_normaliser_cosets`, :func:`_with_sigmas`).
An automorphism and its inverse have the same Reidemeister number, so the
first two test one coset of each pair F.D, F.D^-1 (:func:`_one_per_pair`).
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .automorphisms import (
    Automorphism,
    Scaled,
    _translation_images,
    _translation_part,
    conjugation_permutation,
)
from .groups import (
    ClosureCapExceeded,
    CrystGroup,
    Step,
    _coset_walk,
    # perfbench/test_bench.py::test_tracer_wraps_every_binding_and_restores_them
    # checks that its tracer wraps this binding; nothing here calls it
    matrix_group_closure,  # noqa: F401
)
from .linalg import IntMatrix, Rows, _det_identity_minus, _Record, smith_normal_form

INFINITE = math.inf
ReidCount = Union[int, float]

# (rows of the products A.D with |det(I - A.D)|, in holonomy order) from _twisted_blocks
Twisted = list[tuple[Rows, int]]
# (c_index, weight, rows), rows of ((P.A)_i, (P.c0)_i, s_i): a live pair of _fixing_pairs
Live = tuple[int, int, tuple[tuple[tuple[int, ...], int, int], ...]]


class NormaliserUnavailable(RuntimeError):
    """No normaliser generators were supplied with the group."""


def is_always_infinite(group: CrystGroup, linear: IntMatrix) -> bool:
    """Whether every automorphism with this linear part has R = infinity.

    True iff some holonomy element A makes I - A.linear singular; this is an
    exact iff, so a False answer guarantees finite Reidemeister numbers for
    every valid translation part.
    """
    conjugation_permutation(group, linear)  # raises unless linear normalises
    return _twisted_blocks(_products(group.matrix_parts, linear)) is None


def _products(parts: Sequence[IntMatrix], linear: IntMatrix) -> Iterator[Rows]:
    """The rows of D, then of A.D for the other matrices A of ``parts``, in
    order (the identity comes first), each by ``@``, since one D would not
    repay the row plans of the walk (:func:`~crysturn.groups._coset_walk`).
    Lazy, so a determinant test stops multiplying at its first singular
    block."""
    yield linear.rows
    for a in parts[1:]:
        yield (a @ linear).rows


def _twisted_blocks(products: Iterable[Rows]) -> Optional[Twisted]:
    """The rows of the products A.D over the holonomy group, in holonomy
    order, each with |det(I - A.D)| read off them, with no block I - A.D
    formed; the determinants are the points the identity of F fixes in the
    Burnside count (see :func:`_fixing_pairs`).

    None as soon as one of them is singular, so a lazy ``products`` stops
    there.
    """
    twisted = []
    for product in products:
        det = abs(_det_identity_minus(product))
        if det == 0:
            return None
        twisted.append((product, det))
    return twisted


def _fixing_pairs(
    group: CrystGroup, sigma: tuple[int, ...], twisted: Twisted
) -> tuple[int, list[Live]]:
    """The part of the Burnside count that depends on the linear part D alone.

    When every I - A.D is nonsingular, twisting by lattice elements leaves
    the finite set X = disjoint union over A of (a_A + Z^n) / (I - A.D)Z^n,
    and the twisted classes are the orbits of the holonomy group F on X.
    Burnside's lemma counts them as (1/|F|) times the fixed points summed
    over C in F.  C maps component A to C.A.E^-1 with E = D.C.D^-1 =
    A_sigma(C), so it fixes component A iff C.A = A.E, which the holonomy
    multiplication table answers.  On a fixed component it sends a_A + z
    to a_A + z + (C - I).z + c_{A,C}, so it fixes [Z^n : L] points there
    when -c_{A,C} lies in L = (C - I)Z^n + (I - A.D)Z^n, and none
    otherwise.

    ``sigma`` is D's permutation of the holonomy group and ``twisted`` is
    :func:`_twisted_blocks` of D, the rows of the products A.D with
    |det(I - A.D)|.
    Returns a constant and the live pairs: the fixed points of every
    translation part are the constant plus the weights of the live pairs
    it satisfies (see :func:`_burnside_count`).  A live pair is (index of
    C, weight [Z^n : L], rows), as below.

    * C = I fixes every component, with offset 0 and L = (I - A.D)Z^n, so
      |det(I - A.D)| points each; these pairs are not visited.
    * L contains (I - A.D)Z^n, which is Z^n when |det(I - A.D)| = 1: one
      point, into the constant, with no Smith normal form.
    * Each other fixing pair gets one Smith normal form, of the rows
      [C - I | I - A.D], formed for it alone (C - I once per C).  Index 1
      means L = Z^n, which holds every offset: one point, into the
      constant.  Any other pair is live: with P.[C - I | I - A.D].Q =
      diag(s_i), it keeps ((P.A)_i, (P.c0)_i, s_i) for each s_i > 1.

    The image translation of (a_C, C) is a_E + z_C with z_C in Z^n
    (:func:`~crysturn.automorphisms._translation_images`), so the offset
    of a pair is c_{A,C} = c0 - A.z_C with c0 = a_C + (C - I).a_A - A.a_E,
    which depends on D alone.  Twisted conjugation keeps the lattice coset
    only if c0 is an integer vector, asserted here once per fixing pair
    with C != I.  The Smith normal form carries [A | c0] and forms neither
    P nor Q.
    """
    constant = sum(det for _, det in twisted)
    mult = group.mult_table
    parts, scaled = group.matrix_parts, group.scaled_translations
    g = group.denominator
    live = []
    # the pairs with C = I are in the constant; a_I = 0 and sigma(I) = I,
    # so they keep the lattice coset
    for c_idx, (c_linear, a_c) in enumerate(zip(parts[1:], scaled[1:]), start=1):
        e_idx = sigma[c_idx]
        shift = None  # the rows of C - I, formed for C's first Smith normal form
        for a_idx, (a_linear, a_a) in enumerate(zip(parts, scaled)):
            if mult[c_idx][a_idx] != mult[a_idx][e_idx]:
                continue
            terms = zip(a_c, c_linear.apply(a_a), a_a, a_linear.apply(scaled[e_idx]))
            c0 = tuple(x + y - z - w for x, y, z, w in terms)  # scaled by g
            assert not any(x % g for x in c0), "twisted conjugation must keep the lattice coset"
            product, det = twisted[a_idx]
            if det == 1:
                constant += 1
                continue
            if shift is None:
                shift = [
                    tuple(x - (i == j) for j, x in enumerate(row))
                    for i, row in enumerate(c_linear.rows)
                ]
            block = tuple(
                s + tuple((i == j) - x for j, x in enumerate(row))
                for i, (s, row) in enumerate(zip(shift, product))
            )
            snf = smith_normal_form(
                IntMatrix._unchecked(block),
                right=(*zip(*a_linear.rows), tuple(x // g for x in c0)),
                below=(),
            )
            weight = math.prod(snf.invariant_factors)
            if weight == 1:
                constant += 1
                continue
            rows = tuple(
                (p_row[:-1], p_row[-1], s)
                for p_row, s in zip(snf.p.rows, snf.invariant_factors)
                if s > 1
            )
            live.append((c_idx, weight, rows))
    return constant, live


def _burnside_count(
    group: CrystGroup,
    images: Sequence[tuple[int, ...]] | dict[int, tuple[int, ...]],
    constant: int,
    live: list[Live],
) -> int:
    """The part of the Burnside count that depends on the translation d.

    images[C] is the integer vector z_C by which the image translation of
    (a_C, C) differs from a_sigma(C), read for the live pairs' C only (see
    :func:`~crysturn.automorphisms._translation_images`).  ``constant`` and
    ``live`` come from :func:`_fixing_pairs`.  A live pair fixes ``weight``
    points when its offset c0 - A.z_C lies in L, and none otherwise; with
    P.L = diag(s_i).Z^n that is divisibility of (P.c0)_i - (P.A)_i.z_C by
    s_i, and only the rows with s_i > 1 can fail it.  The sum is divided by
    the holonomy order.
    """
    total = constant
    for c_idx, weight, rows in live:
        image = images[c_idx]
        if all((lead - sum(map(operator.mul, pa, image))) % s == 0 for pa, lead, s in rows):
            total += weight
    count, rem = divmod(total, group.order)
    assert rem == 0, "Burnside fixed-point sum must be divisible by the holonomy order"
    return count


def reidemeister_number(phi: Automorphism) -> ReidCount:
    """Twisted conjugacy class count of a validated automorphism.

    Infinity when some I - A.D is singular (:func:`_twisted_blocks`);
    otherwise Burnside's count over the holonomy group,
    :func:`_fixing_pairs` for what D decides and :func:`_burnside_count`
    for the translation part.  The image translations are the ones the
    :class:`Automorphism` validated (``phi.images``); they are not checked
    again.
    """
    group = phi.group
    twisted = _twisted_blocks(_products(group.matrix_parts, phi.linear))
    if twisted is None:
        return INFINITE
    return _burnside_count(group, phi.images, *_fixing_pairs(group, phi.sigma, twisted))


def reidemeister_set(group: CrystGroup, linear: IntMatrix) -> frozenset[ReidCount]:
    """All Reidemeister numbers of automorphisms with the given linear part.

    Empty when no valid translation exists, {infinity} when the determinant
    test fires, otherwise the finite values of :func:`_linear_part_set`:
    the solved translation part plus each of the
    :func:`~crysturn.automorphisms.base_translations`, which give every
    automorphism with this linear part up to inner ones.
    """
    sigma = conjugation_permutation(group, linear)
    twisted = _twisted_blocks(_products(group.matrix_parts, linear))
    d = _translation_part(group, linear, sigma)
    if d is None:
        return frozenset()
    if twisted is None:
        return frozenset((INFINITE,))
    return _linear_part_set(group, linear, sigma, twisted, d)


def _linear_part_set(
    group: CrystGroup, linear: IntMatrix, sigma: tuple[int, ...], twisted: Twisted, d: Scaled
) -> frozenset[int]:
    """:func:`reidemeister_set` for a linear part D that passes the
    determinant test, with its permutation ``sigma``, its
    :func:`_twisted_blocks` ``twisted`` and a translation part ``d`` as
    (den, den.d) (see :func:`~crysturn.automorphisms._translation_part`):
    every value is finite.  :func:`_fixing_pairs` runs once, and one check
    of the image translations of d serves every swept d + b, whose vectors
    z_C move by the integer vectors (I - E).b (``CrystGroup.base_offsets``).
    Only the live pairs read them, so without one the set is a single
    :func:`_burnside_count` and the group makes no base translation."""
    constant, live = _fixing_pairs(group, sigma, twisted)
    images = _translation_images(group, sigma, linear, d)
    if not live:
        return frozenset((_burnside_count(group, images, constant, live),))
    read = [(c, images[c], sigma[c]) for c, _, _ in live]
    return frozenset(
        _burnside_count(
            group, {c: tuple(map(operator.add, z, off[e])) for c, z, e in read}, constant, live
        )
        for off in group.base_offsets
    )


class RinfStatus(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNDECIDED_INFINITE = "undecided: normaliser infinite"
    UNDECIDED_NO_DATA = "undecided: no normaliser data"


class RinfVerdict(NamedTuple):
    status: RinfStatus
    witness: Optional[IntMatrix] = None
    normaliser_order: Optional[int] = None


def decide_r_infinity(group: CrystGroup) -> RinfVerdict:
    """Decide whether every automorphism has infinite Reidemeister number.

    Looks for a coset F.D of the normaliser (see :func:`_normaliser_cosets`)
    that admits a translation part and passes the determinant test, both
    constant on a coset, testing one coset of each inverse pair
    (:func:`_one_per_pair`).  Each leader is its coset's first element in
    the normaliser's breadth-first order, so the first passing leader is the
    first passing element; it witnesses failure.  The coset of a leader
    never comes after its inverse coset, which passes with it, so the
    skipped cosets change no witness.  Undecided when the
    normaliser data is missing or the walk certifies that the normaliser is
    infinite.  A decided verdict carries the order of the normaliser.

    The normaliser is the group the supplied generators make.  FAILS and
    its witness are certified for any generators: the witness is the linear
    part of an automorphism with finite R.  HOLDS is relative to them: a
    generator that is left out can hide a witness.
    """
    try:
        cosets, order, inverses = _normaliser_cosets(group)
    except NormaliserUnavailable:
        return RinfVerdict(RinfStatus.UNDECIDED_NO_DATA)
    except ClosureCapExceeded:
        return RinfVerdict(RinfStatus.UNDECIDED_INFINITE)
    for witness, *_ in _passing(group, _one_per_pair(cosets, inverses)):
        return RinfVerdict(RinfStatus.FAILS, witness=witness, normaliser_order=order)
    return RinfVerdict(RinfStatus.HOLDS, normaliser_order=order)


def _compose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation sigma of G.C from outer = sigma_G and inner = sigma_C."""
    return tuple(map(outer.__getitem__, inner))


Coset = tuple[IntMatrix, tuple[int, ...], list[Rows]]  # (leader, sigma, rows of the products)
Passing = tuple[IntMatrix, tuple[int, ...], Twisted, Scaled]  # (leader, sigma, twisted, d)


def _with_sigmas(
    group: CrystGroup, letter_sigmas: Sequence[tuple[int, ...]], walk: Iterable[Step]
) -> Iterator[Coset]:
    """The new cosets of a :func:`_coset_walk`, lazily, as (leader, sigma,
    the rows of the products A.D): ``letter_sigmas[k]`` is the sigma of the
    walk's letter k (see :func:`_normaliser_letters`), and sigma is a
    homomorphism, so a coset's sigma is its letter's after its parent's, at
    |F| lookups; nothing is conjugated.  Only the leader is wrapped as an
    :class:`~crysturn.linalg.IntMatrix`."""
    sigmas = [tuple(range(group.order))]
    for x, k, _, _, products in walk:
        if products:
            sigmas.append(_compose(letter_sigmas[k], sigmas[x]))
            yield IntMatrix._unchecked(products[0]), sigmas[-1], products


def _normaliser_cosets(group: CrystGroup) -> tuple[list[Coset], int, list[int]]:
    """The cosets F.D != F of the normaliser N (see :func:`_with_sigmas`),
    the order of N, and for each coset the index of its inverse coset
    F.D^-1 in the same list.

    The walk runs to its end, so an infinite N raises
    :class:`~crysturn.groups.ClosureCapExceeded`.  By Schreier's lemma
    |N| = (number of cosets) x |N ∩ F|, where N ∩ F is generated by
    t_Y^-1.g.t_X = A_sigma_Y^-1(i) over the leaders t_X and generators g
    with g.t_X = A_i.t_Y, closed through the holonomy table.

    The complete walk lists every step, so letter k permutes the cosets,
    and its steps read backwards give the inverse permutation.  A leader
    t_Y = g_m...g_1 along its tree path has t_Y^-1 = g_1^-1...g_m^-1, so
    the coset of t_Y^-1 is F carried back through the letters of the path,
    from Y's own letter to the first: no product and no inverse is formed.
    """
    letters, letter_sigmas = _normaliser_letters(group)
    mult = group.mult_table
    walk = list(_coset_walk(group.matrix_parts, letters))
    cosets = list(_with_sigmas(group, letter_sigmas, walk))
    sigmas = [tuple(range(group.order)), *(sigma for _, sigma, _ in cosets)]
    schreier = {sigmas[y].index(i) for _, _, y, i, _ in walk}
    reached, frontier = {0}, [0]
    while frontier:
        frontier = list({mult[s][i] for i in frontier for s in schreier} - reached)
        reached.update(frontier)
    back = [[0] * len(sigmas) for _ in letters]  # back[k][y] = x: letter k sends x to y
    tree = [(0, 0)]  # tree[y] = (x, k): leader y is letter k times leader x
    for x, k, y, _, new in walk:
        back[k][y] = x
        if new:
            tree.append((x, k))
    inverses = []
    for leader in range(1, len(sigmas)):
        y, z = leader, 0
        while y:
            y, k = tree[y]
            z = back[k][z]
        inverses.append(z - 1)  # F is its own inverse and not in the list
    return cosets, len(sigmas) * len(reached), inverses


def _one_per_pair(cosets: list[Coset], inverses: list[int]) -> Iterator[Coset]:
    """The cosets F.D of :func:`_normaliser_cosets` that come no later than
    their inverse coset F.D^-1, in order: one of each pair, and each
    self-inverse coset.  The two cosets of a pair pass or fail together and
    have one Reidemeister set (see :func:`spectrum`)."""
    return (coset for j, coset in enumerate(cosets) if inverses[j] >= j)


def _passing(group: CrystGroup, cosets: Iterable[Coset]) -> Iterator[Passing]:
    """(leader, sigma, twisted, d) for each coset that passes the
    determinant test and admits a translation part d, as (den, den.d), in
    order: the linear parts of automorphisms with finite Reidemeister
    numbers."""
    for leader, sigma, products in cosets:
        twisted = _twisted_blocks(products)
        if twisted is not None:
            d = _translation_part(group, leader, sigma)
            if d is not None:
                yield leader, sigma, twisted, d


def _normaliser_letters(
    group: CrystGroup, inverses: bool = False
) -> tuple[list[IntMatrix], list[tuple[int, ...]]]:
    """The distinct normaliser generators, with their inverses when
    ``inverses``, sorted by rows, and each one's sigma, all as
    :func:`~crysturn.groups.build_group` kept them
    (``CrystGroup.normaliser_letters``).  An inverse's sigma is the inverse
    permutation.  An empty list of generators stands for the
    trivial normaliser {I}, with the identity permutation; a group without
    normaliser data raises :class:`NormaliserUnavailable`."""
    kept = group.normaliser_letters
    if kept is None:
        raise NormaliserUnavailable(
            "group carries no normaliser generators; spectra and R-infinity "
            "verdicts need them as input"
        )
    sigmas = {d: sigma for d, _, sigma in kept}
    for _, inv, sigma in kept if inverses else ():
        sigmas.setdefault(inv, tuple(sorted(range(len(sigma)), key=sigma.__getitem__)))
    if not sigmas:
        sigmas[IntMatrix.identity(group.dimension)] = tuple(range(group.order))
    letters = sorted(sigmas, key=lambda m: m.rows)
    return letters, [sigmas[d] for d in letters]


class ComputedSpectrum(_Record):
    """Spectrum of a group with finite normaliser closure.

    Infinity is always in a spectrum: the identity automorphism of an
    infinite crystallographic group has infinitely many twisted classes.
    The closure is the one generated by the *supplied* normaliser
    generators, so the finite part is complete only relative to them;
    ``normaliser_order`` is the order of that closure.
    """

    __slots__ = _fields = ("finite_values", "normaliser_order")
    contains_infinity = True
    normaliser_complete = True

    def __init__(self, finite_values: tuple[int, ...], normaliser_order: Optional[int] = None):
        self._set(finite_values, normaliser_order)


def spectrum(group: CrystGroup) -> ComputedSpectrum:
    """Union of Reidemeister sets over the normaliser.

    One Reidemeister set per coset F.D of the normaliser (see
    :func:`_normaliser_cosets`) covers every element: inner automorphisms
    turn D into A.D without changing R.  The determinant test
    runs first, on the coset's products A.D: a coset that fails it adds
    {infinity} or nothing, and infinity is always in the spectrum (F, with
    d = 0, attains it).  Only the cosets that pass are solved and counted
    (:func:`_linear_part_set`), and of each pair F.D, F.D^-1 only the
    first (:func:`_one_per_pair`):
    phi^-1 = (-D^-1.d, D^-1) has R(phi^-1) = R(phi), because x -> x^-1
    sends the twisted class of x under phi onto that of x^-1 under
    phi^-1, so the other coset passes with it and adds the same set.
    Raises :class:`NormaliserUnavailable` without input data and
    :class:`~crysturn.groups.ClosureCapExceeded` when the walk certifies
    that the normaliser is infinite.

    Each finite value is attained by an automorphism, so it is certified
    for any supplied normaliser generators; that the finite part is
    complete holds only relative to them.
    """
    cosets, order, inverses = _normaliser_cosets(group)
    finite: set[int] = set()
    for passing in _passing(group, _one_per_pair(cosets, inverses)):
        finite.update(_linear_part_set(group, *passing))
    return ComputedSpectrum(tuple(sorted(finite)), order)


def _witness_cosets(group: CrystGroup, max_word_length: int) -> Iterator[Passing]:
    """Breadth-first words in the normaliser generators and their inverses.

    Yields lazily, in discovery order and up to the given length, the
    :func:`_passing` tuple of the first word of each coset F.D that admits
    a translation part and passes the determinant test: one linear part per
    coset of automorphisms with finite Reidemeister numbers.  F itself
    never passes: the identity has R = infinity.  The walk is
    depth-limited, so it ends on an infinite normaliser and certifies
    nothing.
    """
    letters, letter_sigmas = _normaliser_letters(group, inverses=True)
    walk = _coset_walk(group.matrix_parts, letters, max_word_length)
    yield from _passing(group, _with_sigmas(group, letter_sigmas, walk))


def search_r_infinity_witness(
    group: CrystGroup, max_word_length: int
) -> Optional[IntMatrix]:
    """First word of :func:`_witness_cosets`: a matrix disproving R-infinity.

    ``None`` is inconclusive, not a proof that the property holds.
    """
    return next((leader for leader, *_ in _witness_cosets(group, max_word_length)), None)
