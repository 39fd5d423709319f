"""Reidemeister numbers and spectra of crystallographic groups.

The Reidemeister number of an automorphism counts its twisted conjugacy
classes; it is a positive integer or infinity.  Infinity is represented by
``math.inf`` so counts sort and compare naturally; all finite values stay
exact ints.

The pipeline: a determinant test decides infinitude outright; otherwise
Burnside's lemma counts the orbits of the holonomy group on the lattice
classes, summing the points each holonomy element C fixes on each
component A it fixes, so the cost does not grow with the determinants.
The identity fixes |det(I - A.D)| points of component A, which the
determinant test has already computed.  Every other fixing pair (A, C)
gets one Smith normal form; when its lattice is all of Z^n it fixes one
point.  Those counts, the Smith normal forms and D's permutation sigma of
the holonomy group (:func:`conjugation_permutation`) depend on the linear
part D alone, so each linear part gets them once, as one constant and a
short list of live pairs.  A Reidemeister set then redoes only the
translation check and, for each translation, the rows with invariant
factor s_i > 1 of the live pairs.  Those rows are read on integer vectors
over the common denominator of the group's translations and the
automorphism's.

The spectrum of a group whose normaliser closure is finite is the union of
the finitely many Reidemeister numbers its automorphisms can take; since
inner automorphisms do not change them, one linear part per coset F.D of
the closure suffices, and only the cosets that pass the determinant test
need a translation solve: the others add at most infinity, which the
identity already gives.

sigma is a homomorphism: the permutation of D = G.C is sigma_G after
sigma_C.  So the walks over the normaliser conjugate the holonomy group
only by their generators, and compose sigma for every other element at
|F| lookups: the coset walk along the closure's Schreier vector, the word
search letter by letter.  The public entry points still conjugate by every
matrix a caller supplies, which also checks that it normalises.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .automorphisms import (
    Automorphism,
    _moved_translations,
    _translation_images,
    _translation_part,
    base_translations,
    conjugation_permutation,
)
from .groups import (
    ClosureCapExceeded,
    CrystGroup,
    PointGroup,
    matrix_group_closure,
)
from .linalg import (
    IntMatrix,
    Vec,
    smith_normal_form,
    vec_add,
)

INFINITE = math.inf
ReidCount = Union[int, float]


class NormaliserUnavailable(RuntimeError):
    """No normaliser generators were supplied with the group."""


def is_always_infinite(group: CrystGroup, linear: IntMatrix) -> bool:
    """Whether every automorphism with this linear part has R = infinity.

    True iff some holonomy element A makes I - A.linear singular; this is an
    exact iff, so a False answer guarantees finite Reidemeister numbers for
    every valid translation part.
    """
    conjugation_permutation(group, linear)  # raises unless linear normalises
    return _twisted_blocks(group, (a @ linear for a in group.matrix_parts)) is None


def _twisted_blocks(
    group: CrystGroup, products: Iterable[IntMatrix]
) -> Optional[tuple[list[IntMatrix], int]]:
    """I - A.D for the products A.D over the holonomy group, in holonomy
    order, and the sum of |det(I - A.D)|: the points the identity of F fixes
    in the Burnside count (see :func:`_fixing_pairs`).

    None as soon as one of them is singular, so a lazy ``products`` stops
    there.
    """
    ident = group.matrix_parts[0]  # the holonomy identity comes first
    blocks = []
    fixed_by_identity = 0
    for product in products:
        block = ident - product
        det = block.det()
        if det == 0:
            return None
        blocks.append(block)
        fixed_by_identity += abs(det)
    return blocks, fixed_by_identity


class _LivePair(NamedTuple):
    """A fixing pair (A, C) whose fixed points depend on the translation d.

    ``c_index`` is the holonomy index of C and ``weight`` the index
    [Z^n : L] of the lattice L that [C - I | I - A.D] spans, the product of
    the invariant factors s_i of its Smith normal form P.[C - I | I - A.D].Q.
    ``rows`` keeps, for each i with s_i > 1, the row (P.A)_i, the entry
    (P.lead)_i with lead = g.(a_C + (C - I).a_A) for the group's common
    denominator g, and s_i.
    """

    c_index: int
    weight: int
    rows: tuple[tuple[tuple[int, ...], int, int], ...]


def _fixing_pairs(
    group: CrystGroup, sigma: tuple[int, ...], twisted: tuple[list[IntMatrix], int]
) -> tuple[int, list[_LivePair]]:
    """The part of the Burnside count that depends on the linear part D alone.

    ``sigma`` is D's permutation of the holonomy group and ``twisted`` is
    :func:`_twisted_blocks` of D.  C fixes component A iff C.A.E^-1 = A with
    E = D.C.D^-1 = A_sigma(C), that is iff C.A = A.E, which the holonomy
    multiplication table answers.  Returns a constant and the live pairs:
    the fixed points of every swept translation are the constant plus the
    weights of the live pairs it satisfies (see :func:`_burnside_count`).

    * C = I fixes every component, with offset 0 and L = (I - A.D)Z^n, so
      |det(I - A.D)| points each; their sum comes with ``twisted``.
    * Each other fixing pair gets one Smith normal form.  Index 1 means
      L = Z^n, which holds every offset: one point, into the constant.
      Any other pair is live, and only its rows with s_i > 1 are kept.

    Translations are read scaled by g.  The offset of a pair for a
    translation d over den = g.lift (see :func:`_burnside_count`) is
    lift.lead - A.img_C, and :func:`~crysturn.automorphisms._translation_images`
    raises for every swept d unless img_C = lift.g.a_E (mod den).  So the
    offset is lift.(lead - A.g.a_E) modulo den, and it lies in den.Z^n, as
    twisted conjugation requires, iff lead - A.g.a_E lies in g.Z^n: a
    condition on D alone, asserted here once per fixing pair.
    """
    blocks, constant = twisted
    mult = group.mult_table
    parts, scaled = group.matrix_parts, group.scaled_translations
    g = group.denominator
    ident = parts[0]
    live = []
    for c_idx, (c_linear, a_c) in enumerate(zip(parts, scaled)):
        e_idx = sigma[c_idx]
        shift = c_linear - ident
        for a_idx, (a_linear, a_a) in enumerate(zip(parts, scaled)):
            if mult[c_idx][a_idx] != mult[a_idx][e_idx]:
                continue
            lead = tuple(x + y for x, y in zip(a_c, shift.apply(a_a)))
            assert not any(
                (x - y) % g for x, y in zip(lead, a_linear.apply(scaled[e_idx]))
            ), "twisted conjugation must keep the lattice coset"
            if c_idx == 0:  # the identity: counted in the constant
                continue
            snf = smith_normal_form(
                IntMatrix._unchecked(
                    tuple(r + s for r, s in zip(shift.rows, blocks[a_idx].rows))
                )
            )
            weight = math.prod(snf.invariant_factors)
            if weight == 1:
                constant += 1
                continue
            columns = tuple(zip(*a_linear.rows))
            p_lead = snf.p.apply(lead)
            rows = tuple(
                (tuple(sum(map(operator.mul, p_row, col)) for col in columns), p_lead[i], s)
                for i, (p_row, s) in enumerate(zip(snf.p.rows, snf.invariant_factors))
                if s > 1
            )
            live.append(_LivePair(c_idx, weight, rows))
    return constant, live


def _burnside_count(
    group: CrystGroup,
    den: int,
    images: list[tuple[int, ...]],
    constant: int,
    live: list[_LivePair],
) -> int:
    """The part of the Burnside count that depends on the translation d.

    ``den`` and ``images`` come from
    :func:`~crysturn.automorphisms._translation_images`: images[C] is den
    times the translation part d + D.a_C - E.d of the image of (a_C, C).
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

    Short-circuits to infinity when some I - A.D is singular.  Otherwise
    twisting by lattice elements leaves the finite set of classes
    X = disjoint union over A of (a_A + Z^n) / (I - A.D)Z^n, and the
    twisted classes are the orbits of the holonomy group F on X.  Burnside's
    lemma counts them as (1/|F|) times the fixed points summed over C in F.
    C maps component A to C.A.E^-1 with E = D.C.D^-1, and on a fixed
    component it sends a_A + z to a_A + z + (C - I).z + c_{A,C}.  So it fixes
    [Z^n : L] points there when -c_{A,C} lies in
    L = (C - I)Z^n + (I - A.D)Z^n, and none otherwise.  C = I fixes
    |det(I - A.D)| points of component A; every other fixing pair gets one
    Smith normal form of [C - I | I - A.D], which decides both, and only
    the pairs with L != Z^n depend on the translation (see
    :func:`_fixing_pairs`).  The cost does not depend on the determinants.
    All of this depends on D alone, so :func:`reidemeister_set` computes it
    once for all its translations.
    """
    group = phi.group
    twisted = _twisted_blocks(group, (a @ phi.linear for a in group.matrix_parts))
    if twisted is None:
        return INFINITE
    moved = _moved_translations(group, phi.linear)
    den, images = _translation_images(group, phi.sigma, moved, phi.translation)
    return _burnside_count(group, den, images, *_fixing_pairs(group, phi.sigma, twisted))


def reidemeister_set(group: CrystGroup, linear: IntMatrix) -> frozenset[ReidCount]:
    """All Reidemeister numbers of automorphisms with the given linear part.

    Empty when no valid translation exists.  When the determinant test fires
    the set is {infinity} outright.  Otherwise the translation solution is
    swept through the base-translation offsets, which exhaust the possible
    values.  The conjugation permutation, the solve, the matrices I - A.D,
    the translations D.a_C and the split of the Burnside count into a
    constant and the live fixing pairs (see :func:`_fixing_pairs`) are
    computed once; each swept translation is checked against every holonomy
    representative, and only its image translations and the kept rows of
    the live pairs are redone.
    """
    sigma = conjugation_permutation(group, linear)
    twisted = _twisted_blocks(group, (a @ linear for a in group.matrix_parts))
    if twisted is None:
        if _translation_part(group, linear, sigma) is None:
            return frozenset()
        return frozenset((INFINITE,))
    return _linear_part_set(group, linear, sigma, twisted, base_translations(group))


def _linear_part_set(
    group: CrystGroup,
    linear: IntMatrix,
    sigma: tuple[int, ...],
    twisted: tuple[list[IntMatrix], int],
    bases: list[Vec],
) -> frozenset[int]:
    """:func:`reidemeister_set` for a linear part D that passes the
    determinant test, with its permutation ``sigma``, its
    :func:`_twisted_blocks` ``twisted`` and the group's base translations
    already known: every value is finite."""
    d = _translation_part(group, linear, sigma)
    if d is None:
        return frozenset()
    moved = _moved_translations(group, linear)
    constant, live = _fixing_pairs(group, sigma, twisted)
    return frozenset(
        _burnside_count(
            group, *_translation_images(group, sigma, moved, vec_add(base, d)), constant, live
        )
        for base in bases
    )


class RinfStatus(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNDECIDED_INFINITE = "undecided: normaliser infinite"
    UNDECIDED_NO_DATA = "undecided: no normaliser data"


@dataclass(frozen=True)
class RinfVerdict:
    status: RinfStatus
    witness: Optional[IntMatrix] = None
    normaliser_order: Optional[int] = None

    @property
    def decided(self) -> bool:
        return self.status in (RinfStatus.HOLDS, RinfStatus.FAILS)


def decide_r_infinity(group: CrystGroup) -> RinfVerdict:
    """Decide whether every automorphism has infinite Reidemeister number.

    Walks one linear part per coset F.D of the normaliser closure (see
    :func:`_coset_leaders`) and looks for one that both admits a translation
    part and passes the determinant test.  Both properties are constant on
    a coset and each leader is the first element of its coset in the
    closure's breadth-first order, so the first passing leader is the first
    passing closure element; it witnesses failure.  Returns an undecided
    verdict instead of guessing when the normaliser data is missing or the
    closure certifies that the normaliser is infinite.  A decided verdict
    carries the order of the closure it enumerated.
    """
    if group.normaliser_gens is None:
        return RinfVerdict(RinfStatus.UNDECIDED_NO_DATA)
    try:
        closure = _normaliser_closure(group)
    except ClosureCapExceeded:
        return RinfVerdict(RinfStatus.UNDECIDED_INFINITE)
    for d_mat, sigma, coset in _coset_leaders(group, closure):
        if _twisted_blocks(group, coset) is None:  # the determinant test
            continue
        if _translation_part(group, d_mat, sigma) is not None:
            return RinfVerdict(RinfStatus.FAILS, witness=d_mat, normaliser_order=closure.order)
    return RinfVerdict(RinfStatus.HOLDS, normaliser_order=closure.order)


def _coset_leaders(
    group: CrystGroup, closure: PointGroup
) -> Iterator[tuple[IntMatrix, tuple[int, ...], list[IntMatrix]]]:
    """Each coset F.D of the closure as (leader, sigma, [A.D for A in F]).

    The leader is the coset's first element in breadth-first order and
    sigma its permutation of the holonomy group.  Composing an automorphism
    with conjugation by a group element (a, A) turns its linear part D into
    A.D and keeps its Reidemeister number, so Reidemeister sets,
    admissibility and the determinant test are constant on F.D.  Costs
    |F| - 1 products per coset (the holonomy identity comes first) and one
    :func:`conjugation_permutation` per closure generator, which raises
    unless it normalises; every element the walk reaches then gets its
    sigma by one composition along the closure's Schreier vector, so a
    caller that stops early pays only for what it visited.
    """
    covered: set[IntMatrix] = set()
    for d_mat, sigma in zip(closure.elements, _closure_sigmas(group, closure)):
        if d_mat not in covered:
            coset = [d_mat, *(a @ d_mat for a in group.matrix_parts[1:])]
            yield d_mat, sigma, coset
            covered.update(coset)


def _compose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation sigma of G.C from outer = sigma_G and inner = sigma_C."""
    return tuple(map(outer.__getitem__, inner))


def _closure_sigmas(group: CrystGroup, closure: PointGroup) -> Iterator[tuple[int, ...]]:
    """sigma of each closure element, in the closure's order, composed along
    its Schreier vector from one :func:`conjugation_permutation` per
    generator; lazy, so each costs |F| lookups only when it is reached."""
    gen_sigmas = [conjugation_permutation(group, g) for g in closure.generators]
    sigmas = []
    for step in closure.schreier:
        if step is None:  # the identity
            sigmas.append(tuple(range(group.order)))
        else:
            k, parent = step
            sigmas.append(_compose(gen_sigmas[k], sigmas[parent]))
        yield sigmas[-1]


def _normaliser_generators(group: CrystGroup) -> list[IntMatrix]:
    """The supplied normaliser generators; an empty list of them stands for
    the trivial normaliser {I}."""
    if group.normaliser_gens is None:
        raise NormaliserUnavailable(
            "group carries no normaliser generators; spectra and R-infinity "
            "verdicts need them as input"
        )
    return list(group.normaliser_gens) or [IntMatrix.identity(group.dimension)]


def _normaliser_closure(group: CrystGroup) -> PointGroup:
    return matrix_group_closure(_normaliser_generators(group))


@dataclass(frozen=True)
class ComputedSpectrum:
    """Spectrum of a group with finite normaliser closure.

    ``normaliser_complete`` echoes the input-trust caveat: the enumeration
    covered every element generated by the *supplied* normaliser generators,
    and the result is only as complete as that data.  ``normaliser_order``
    is the order of that closure.
    """

    finite_values: tuple[int, ...]
    contains_infinity: bool
    normaliser_complete: bool
    normaliser_order: Optional[int] = None

    def __post_init__(self):
        if not self.finite_values and not self.contains_infinity:
            raise ValueError("a spectrum is never empty")


def spectrum(group: CrystGroup) -> ComputedSpectrum:
    """Union of Reidemeister sets over the normaliser closure.

    One Reidemeister set per coset F.D of the closure (see
    :func:`_coset_leaders`) covers every element, since the set is constant
    on each coset.  The determinant test runs first, on the coset's
    products A.D: a coset that fails it has the set {infinity} or the empty
    set, and so adds nothing, because infinity is always in the spectrum
    (the identity coset, with d = 0 and I - I singular, attains it).  Only
    the cosets that pass are solved for a translation and counted, reusing
    the coset's sigma and its matrices I - A.D; the base translations are
    computed once for the group.  Raises :class:`NormaliserUnavailable`
    without input data and propagates
    :class:`~crysturn.groups.ClosureCapExceeded` when the closure certifies
    that the normaliser is infinite.
    """
    closure = _normaliser_closure(group)
    bases = base_translations(group)
    finite: set[int] = set()
    for d_mat, sigma, coset in _coset_leaders(group, closure):
        twisted = _twisted_blocks(group, coset)
        if twisted is not None:
            finite.update(_linear_part_set(group, d_mat, sigma, twisted, bases))
    return ComputedSpectrum(
        finite_values=tuple(sorted(finite)),
        contains_infinity=True,
        normaliser_complete=True,
        normaliser_order=closure.order,
    )


def witness_words(group: CrystGroup, max_word_length: int) -> Iterator[IntMatrix]:
    """Breadth-first words in the normaliser generators and their inverses.

    Yields, in discovery order and up to the given length, each word that
    admits a translation part and passes the determinant test, i.e. each
    linear part of automorphisms with finite Reidemeister numbers.  The empty
    word is skipped: the identity always has R = infinity.  Only the
    letters are conjugated; each word's sigma is composed from its letters'
    (see :func:`_words`).
    """
    if group.normaliser_gens is None:
        raise NormaliserUnavailable("word search requires normaliser generators")
    for word, sigma in _words(group, max_word_length):
        twisted = _twisted_blocks(group, (a @ word for a in group.matrix_parts))
        if twisted is not None and _translation_part(group, word, sigma) is not None:
            yield word


def _words(
    group: CrystGroup, max_word_length: int
) -> Iterator[tuple[IntMatrix, tuple[int, ...]]]:
    """Each nonempty word of :func:`witness_words`' search once, breadth-first
    in discovery order, with its sigma.  Each letter gets one
    :func:`conjugation_permutation`, which raises unless it normalises; a
    word's sigma is its last letter's composed with its prefix's, at |F|
    lookups."""
    letters = [
        (letter, conjugation_permutation(group, letter))
        for letter in sorted(
            {g for g in group.normaliser_gens}
            | {g.int_inverse() for g in group.normaliser_gens},
            key=lambda m: m.rows,
        )
    ]
    ident = IntMatrix.identity(group.dimension)
    seen = {ident}
    frontier = [(ident, tuple(range(group.order)))]
    for _ in range(max_word_length):
        next_frontier = []
        for cur, cur_sigma in frontier:
            for letter, letter_sigma in letters:
                cand = letter @ cur
                if cand not in seen:
                    seen.add(cand)
                    word = (cand, _compose(letter_sigma, cur_sigma))
                    next_frontier.append(word)
                    yield word
        frontier = next_frontier


def search_r_infinity_witness(
    group: CrystGroup, max_word_length: int
) -> Optional[IntMatrix]:
    """First word of :func:`witness_words`: a matrix disproving R-infinity.

    ``None`` is inconclusive, not a proof that the property holds.
    """
    return next(witness_words(group, max_word_length), None)
