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
"""

from __future__ import annotations

import functools
import math
import operator
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .automorphisms import (
    Automorphism,
    Scaled,
    _base_offsets,
    _translation_images,
    _translation_part,
    conjugation_permutation,
)
from .groups import (
    ClosureCapExceeded,
    CrystGroup,
    Step,
    _coset_walk,
    _products,
    # perfbench/test_bench.py::test_tracer_wraps_every_binding_and_restores_them
    # checks that its tracer wraps this binding; nothing here calls it
    matrix_group_closure,  # noqa: F401
)
from .linalg import IntMatrix, _det_identity_minus, _Record, smith_normal_form

INFINITE = math.inf
ReidCount = Union[int, float]

# (products A.D with |det(I - A.D)|, in holonomy order) from _twisted_blocks
Twisted = list[tuple[IntMatrix, int]]
# the base offsets of a group, made on the first call (see _offsets_on_demand)
Offsets = Callable[[], list[tuple[tuple[int, ...], ...]]]


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


def _twisted_blocks(products: Iterable[IntMatrix]) -> Optional[Twisted]:
    """The products A.D over the holonomy group, in holonomy order, each
    with |det(I - A.D)| read off its rows, with no block I - A.D formed;
    the determinants are the points the identity of F fixes in the
    Burnside count (see :func:`_fixing_pairs`).

    None as soon as one of them is singular, so a lazy ``products`` stops
    there.
    """
    twisted = []
    for product in products:
        det = abs(_det_identity_minus(product.rows))
        if det == 0:
            return None
        twisted.append((product, det))
    return twisted


class _LivePair(NamedTuple):
    """A fixing pair (A, C) whose fixed points depend on the translation d.

    ``c_index`` is the holonomy index of C and ``weight`` the index
    [Z^n : L] of the lattice L that [C - I | I - A.D] spans, the product of
    the invariant factors s_i of its Smith normal form P.[C - I | I - A.D].Q.
    ``rows`` keeps, for each i with s_i > 1, the row (P.A)_i, the entry
    (P.lead)_i with lead = g.(a_C + (C - I).a_A) for the group's common
    denominator g, and s_i.  The Smith normal form carries [A | lead] and
    forms neither P nor Q.
    """

    c_index: int
    weight: int
    rows: tuple[tuple[tuple[int, ...], int, int], ...]


def _fixing_pairs(
    group: CrystGroup, sigma: tuple[int, ...], twisted: Twisted
) -> tuple[int, list[_LivePair]]:
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
    :func:`_twisted_blocks` of D, the products A.D with |det(I - A.D)|.
    Returns a constant and the live pairs: the fixed points of every
    translation part are the constant plus the weights of the live pairs
    it satisfies (see :func:`_burnside_count`).

    * C = I fixes every component, with offset 0 and L = (I - A.D)Z^n, so
      |det(I - A.D)| points each; these pairs are not visited.
    * L contains (I - A.D)Z^n, which is Z^n when |det(I - A.D)| = 1: one
      point, into the constant, with no Smith normal form.
    * Each other fixing pair gets one Smith normal form, of the rows
      [C - I | I - A.D], formed for it alone (C - I once per C).  Index 1
      means L = Z^n, which holds every offset: one point, into the
      constant.  Any other pair is live, and only its rows with s_i > 1
      are kept.

    Translations are read scaled by g.  The offset of a pair for a
    translation d over den = g.lift (see :func:`_burnside_count`) is
    lift.lead - A.img_C, and img_C = lift.g.a_E (mod den) for every swept d
    (:func:`~crysturn.automorphisms._translation_images` checks it for the
    translation part, and the integral base offsets keep it).  So the
    offset is lift.(lead - A.g.a_E) modulo den, and it lies in den.Z^n, as
    twisted conjugation requires, iff lead - A.g.a_E lies in g.Z^n: a
    condition on D alone, asserted here once per fixing pair with C != I.
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
            lead = tuple(x + y - z for x, y, z in zip(a_c, c_linear.apply(a_a), a_a))
            assert not any(
                (x - y) % g for x, y in zip(lead, a_linear.apply(scaled[e_idx]))
            ), "twisted conjugation must keep the lattice coset"
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
                for i, (s, row) in enumerate(zip(shift, product.rows))
            )
            snf = smith_normal_form(
                IntMatrix._unchecked(block),
                right=(*zip(*a_linear.rows), lead),
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
            live.append(_LivePair(c_idx, weight, rows))
    return constant, live


def _burnside_count(
    group: CrystGroup,
    den: int,
    images: Sequence[tuple[int, ...]] | dict[int, tuple[int, ...]],
    constant: int,
    live: list[_LivePair],
) -> int:
    """The part of the Burnside count that depends on the translation d.

    ``den`` is any multiple of the group's denominator g that makes the
    image translations integral (the test is homogeneous in den), and
    images[C] is den times the translation part d + D.a_C - E.d of the
    image of (a_C, C), read for the live pairs' C only (see
    :func:`~crysturn.automorphisms._translation_images`).
    ``constant`` and ``live`` come from :func:`_fixing_pairs`.  A live pair
    fixes ``weight`` points when its offset lift.lead - A.img_C = den.c_{A,C}
    lies in den.L, and none otherwise; with P.L = diag(s_i).Z^n that is
    divisibility of row i of P times the offset by den.s_i, and only the
    rows with s_i > 1 can fail it.  The sum is divided by the holonomy
    order.
    """
    lift = den // group.denominator
    total = constant
    for c_idx, weight, rows in live:
        image = images[c_idx]
        if all(
            (lift * lead - sum(map(operator.mul, pa, image))) % (den * s) == 0
            for pa, lead, s in rows
        ):
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
    return _burnside_count(group, *phi.images, *_fixing_pairs(group, phi.sigma, twisted))


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
    return _linear_part_set(group, linear, sigma, twisted, d, _offsets_on_demand(group))


def _linear_part_set(
    group: CrystGroup,
    linear: IntMatrix,
    sigma: tuple[int, ...],
    twisted: Twisted,
    d: Scaled,
    offsets: Offsets,
) -> frozenset[int]:
    """:func:`reidemeister_set` for a linear part D that passes the
    determinant test, with its permutation ``sigma``, its
    :func:`_twisted_blocks` ``twisted`` and a translation part ``d`` as
    (den, den.d) (see :func:`~crysturn.automorphisms._translation_part`):
    every value is finite.  :func:`_fixing_pairs` runs once, and one check
    of the image translations of d serves every swept d + b, whose images
    differ from those of d by the integer vectors (I - E).b
    (:func:`~crysturn.automorphisms._base_offsets`).  Only the live pairs
    read them, so without one the set is a single
    :func:`_burnside_count`, and only a live pair calls ``offsets`` (see
    :func:`_offsets_on_demand`)."""
    constant, live = _fixing_pairs(group, sigma, twisted)
    den, images = _translation_images(group, sigma, linear, d)
    if not live:
        return frozenset((_burnside_count(group, den, images, constant, live),))
    read = [(c, images[c], sigma[c]) for c, _, _ in live]

    def shifted(off: tuple[tuple[int, ...], ...]) -> dict[int, tuple[int, ...]]:
        return {c: tuple(x + den * y for x, y in zip(image, off[e])) for c, image, e in read}

    counts = (_burnside_count(group, den, shifted(off), constant, live) for off in offsets())
    return frozenset(counts)


def _offsets_on_demand(group: CrystGroup) -> Offsets:
    """The group's :func:`~crysturn.automorphisms._base_offsets`, made on
    the first call and kept by the returned function alone: one spectrum or
    entry check makes them at most once, and only if a live pair reads
    them."""
    return functools.cache(functools.partial(_base_offsets, group))


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
    constant on a coset.  Each leader is its coset's first element in the
    normaliser's breadth-first order, so the first passing leader is the
    first passing element; it witnesses failure.  Undecided when the
    normaliser data is missing or the walk certifies that the normaliser is
    infinite.  A decided verdict carries the order of the normaliser.

    The normaliser is the group the supplied generators make.  FAILS and
    its witness are certified for any generators: the witness is the linear
    part of an automorphism with finite R.  HOLDS is relative to them: a
    generator that is left out can hide a witness.
    """
    try:
        cosets, order = _normaliser_cosets(group)
    except NormaliserUnavailable:
        return RinfVerdict(RinfStatus.UNDECIDED_NO_DATA)
    except ClosureCapExceeded:
        return RinfVerdict(RinfStatus.UNDECIDED_INFINITE)
    for witness, *_ in _passing(group, cosets):
        return RinfVerdict(RinfStatus.FAILS, witness=witness, normaliser_order=order)
    return RinfVerdict(RinfStatus.HOLDS, normaliser_order=order)


def _compose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation sigma of G.C from outer = sigma_G and inner = sigma_C."""
    return tuple(map(outer.__getitem__, inner))


Coset = tuple[IntMatrix, tuple[int, ...], list[IntMatrix]]  # (leader, sigma, products)
Passing = tuple[IntMatrix, tuple[int, ...], Twisted, Scaled]  # (leader, sigma, twisted, d)


def _with_sigmas(
    group: CrystGroup, letter_sigmas: Sequence[tuple[int, ...]], walk: Iterable[Step]
) -> Iterator[Coset]:
    """The new cosets of a :func:`_coset_walk`, lazily, with sigma:
    ``letter_sigmas[k]`` is the sigma of the walk's letter k (see
    :func:`_normaliser_letters`), and sigma is a homomorphism, so a coset's
    sigma is its letter's after its parent's, at |F| lookups; nothing is
    conjugated."""
    sigmas = [tuple(range(group.order))]
    for x, k, _, _, products in walk:
        if products:
            sigmas.append(_compose(letter_sigmas[k], sigmas[x]))
            yield products[0], sigmas[-1], products


def _normaliser_cosets(group: CrystGroup) -> tuple[list[Coset], int]:
    """The cosets F.D != F of the normaliser N (see :func:`_with_sigmas`)
    and the order of N.

    The walk runs to its end, so an infinite N raises
    :class:`~crysturn.groups.ClosureCapExceeded`.  By Schreier's lemma
    |N| = (number of cosets) x |N ∩ F|, where N ∩ F is generated by
    t_Y^-1.g.t_X = A_sigma_Y^-1(i) over the leaders t_X and generators g
    with g.t_X = A_i.t_Y, closed through the holonomy table.
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
    return cosets, len(sigmas) * len(reached)


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

    ``normaliser_complete`` echoes the input-trust caveat: the enumeration
    covered every element generated by the *supplied* normaliser generators,
    and the result is only as complete as that data.  ``normaliser_order``
    is the order of that closure.
    """

    __slots__ = _fields = (
        "finite_values", "contains_infinity", "normaliser_complete", "normaliser_order"
    )

    def __init__(
        self,
        finite_values: tuple[int, ...],
        contains_infinity: bool,
        normaliser_complete: bool,
        normaliser_order: Optional[int] = None,
    ):
        if not finite_values and not contains_infinity:
            raise ValueError("a spectrum is never empty")
        self._set(finite_values, contains_infinity, normaliser_complete, normaliser_order)


def spectrum(group: CrystGroup) -> ComputedSpectrum:
    """Union of Reidemeister sets over the normaliser.

    One Reidemeister set per coset F.D of the normaliser (see
    :func:`_normaliser_cosets`) covers every element: inner automorphisms
    turn D into A.D without changing R.  The determinant test
    runs first, on the coset's products A.D: a coset that fails it adds
    {infinity} or nothing, and infinity is always in the spectrum (F, with
    d = 0, attains it).  Only the cosets that pass are solved and counted
    (:func:`_linear_part_set`), all sharing one :func:`_offsets_on_demand`.
    Raises :class:`NormaliserUnavailable` without input data and
    :class:`~crysturn.groups.ClosureCapExceeded` when the walk certifies
    that the normaliser is infinite.

    Each finite value is attained by an automorphism, so it is certified
    for any supplied normaliser generators; that the finite part is
    complete holds only relative to them.
    """
    cosets, order = _normaliser_cosets(group)
    offsets = _offsets_on_demand(group)
    finite: set[int] = set()
    for passing in _passing(group, cosets):
        finite.update(_linear_part_set(group, *passing, offsets))
    return ComputedSpectrum(
        finite_values=tuple(sorted(finite)),
        contains_infinity=True,
        normaliser_complete=True,
        normaliser_order=order,
    )


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
