"""Automorphisms of crystallographic groups.

Every automorphism of a crystallographic group with translation lattice Z^n
is conjugation by an affine map (d, D), D in the normaliser of the holonomy
group in GL_n(Z), which D permutes by sigma
(:func:`~crysturn.groups.conjugation_permutation`).  This module owns the
translation solve for a given D (:func:`find_translation_part`), the one
check that conjugation by (d, D) keeps the group
(:func:`_translation_images`), the base translations and the offsets they
move image translations by (:func:`base_translations`,
:func:`_base_offsets`) and the validated :class:`Automorphism`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as _mixed_radix
from typing import Optional

from .groups import CrystGroup, conjugation_permutation
from .linalg import IntMatrix, Vec, _Record, smith_normal_form, vector

Scaled = tuple[int, tuple[int, ...]]  # (den, den.d): a translation d over den
Images = tuple[int, tuple[tuple[int, ...], ...]]  # (den, den times each image)


def _stacked_system(group: CrystGroup, linear: IntMatrix, sigma: tuple[int, ...]):
    """The (kn x n) block system and right-hand side for the translation solve.

    One row block per holonomy generator i (``group.generator_indices``):
    I - A_sigma(i), with right-hand side block D.a_i - a_sigma(i), scaled by
    the group's common denominator g to ints; k.n rows for k generators
    instead of n.|F|.  That is exact: conjugation by (d, D) keeps Z^n, so
    once it maps each generator (a_i, A_i) into the group it maps the whole
    group into it, and the image, which contains Z^n and maps onto
    D.F.D^-1 = F, is the group.  For D = I this says that the A with
    (I - A).d in Z^n form a subgroup of F: (I - A.B).d = (I - A).d +
    A.(I - B).d.  :class:`Automorphism` still checks every representative.
    """
    ident = group.matrix_parts[0]  # the holonomy identity comes first
    scaled = group.scaled_translations
    blocks = []
    rhs: list[int] = []
    for i in group.generator_indices:
        j = sigma[i]
        blocks.append(ident - group.matrix_parts[j])
        rhs.extend(x - y for x, y in zip(linear.apply(scaled[i]), scaled[j]))
    return IntMatrix.vstack(blocks), tuple(rhs)


def _rationals(den: int, numerators: tuple[int, ...]) -> Vec:
    """The translation numerators / den as Fractions, at the public boundary."""
    return tuple(Fraction(x, den) for x in numerators)


def find_translation_part(group: CrystGroup, linear: IntMatrix) -> Optional[Vec]:
    """Find d such that conjugation by (d, linear) is an automorphism.

    Works through the Smith normal form of the system stacked over the
    holonomy generators (see :func:`_stacked_system`): with P.M.Q = S and
    t = P.rhs, a solution exists iff the rows of S that are zero see
    integral entries of t; the canonical solution takes d'_i = -t_i / s_i
    on the nonzero rows and d = Q.d'.  The elimination carries rhs and
    reads t and Q, never P.  Returns None when no valid translation
    exists.  The right-hand side is scaled by g, so t is an integer vector,
    the test reads t_i % g and d'_i = -t_i / (s_i g).  Raises ValueError
    unless ``linear`` is an n x n matrix that normalises the holonomy group
    (see :func:`conjugation_permutation`).
    """
    d = _translation_part(group, linear, conjugation_permutation(group, linear))
    return None if d is None else _rationals(*d)


def _translation_part(
    group: CrystGroup, linear: IntMatrix, sigma: tuple[int, ...]
) -> Optional[Scaled]:
    """:func:`find_translation_part` for a linear part whose permutation
    ``sigma`` (see :func:`conjugation_permutation`) is already known, as
    (den, den.d) with den = g times the lcm of the invariant factors."""
    n = group.dimension
    g = group.denominator
    m_mat, rhs = _stacked_system(group, linear, sigma)
    snf = smith_normal_form(m_mat, right=(rhs,))
    t = [row[0] for row in snf.p.rows]
    r = snf.rank
    if any(t[i] % g for i in range(r, m_mat.nrows)):
        return None
    den = g * math.lcm(*snf.invariant_factors)
    d_prime = [0] * n
    for i, s in enumerate(snf.invariant_factors):
        d_prime[i] = -t[i] * (den // (s * g))
    return den, snf.q.apply(d_prime)


def base_translations(group: CrystGroup) -> list[Vec]:
    """The finite set of translations spanning Z^n-fixing automorphisms.

    Every automorphism restricting to the identity on Z^n is inner composed
    with conjugation by (d, I) for exactly one d in this list.  Built from
    the Smith normal form of the I - A_i blocks of the holonomy generators
    (see :func:`_stacked_system`), enumerating d'_i in {0, 1/s_i, ...,
    (s_i - 1)/s_i} and mapping through Q.  Each entry is reduced into
    [0, 1)^n, since (d + z, I) with z in Z^n differs from (d, I) by an
    inner automorphism, and the list is sorted.  Entries may
    induce equal Reidemeister numbers; no pruning is attempted.
    """
    den, bases = _base_numerators(group)
    return [_rationals(den, b) for b in bases]


def _base_numerators(group: CrystGroup) -> tuple[int, list[tuple[int, ...]]]:
    """:func:`base_translations` as (den, sorted numerators over den), den
    the lcm of the invariant factors; numerators reduced into [0, den)."""
    n = group.dimension
    m_mat, _ = _stacked_system(group, IntMatrix.identity(n), tuple(range(group.order)))
    snf = smith_normal_form(m_mat, right=())
    factors = snf.invariant_factors
    den = math.lcm(*factors)
    out = []
    for combo in _mixed_radix(*(range(s) for s in factors)):
        d_prime = [0] * n
        for i, (y, s) in enumerate(zip(combo, factors)):
            d_prime[i] = y * (den // s)
        out.append(tuple(x % den for x in snf.q.apply(d_prime)))
    return den, sorted(out)


def _base_offsets(group: CrystGroup) -> list[tuple[tuple[int, ...], ...]]:
    """For each of the :func:`base_translations` b, the integer vectors
    (I - A).b in holonomy order: conjugation by (d + b, D) moves the image
    translation of (a_C, C) under (d, D) by (I - E).b, E = A_sigma(C)."""
    den, bases = _base_numerators(group)
    offsets = []
    for b in bases:
        moved = [tuple(x - y for x, y in zip(b, a.apply(b))) for a in group.matrix_parts]
        assert not any(x % den for v in moved for x in v), "(I - A).b must be integral"
        offsets.append(tuple(tuple(x // den for x in v) for v in moved))
    return offsets


def _translation_images(
    group: CrystGroup, sigma: tuple[int, ...], linear: IntMatrix, translation: Scaled
) -> Images:
    """Check that conjugation by (d, D) keeps the group.

    ``linear`` is D, with permutation ``sigma``, and ``translation`` is
    (den, den.d), den a multiple of g that makes den.d integral.
    Conjugation sends each representative (a_C, C) to (d + D.a_C - E.d, E)
    with E = D.C.D^-1 = A_sigma(C); every image translation must be
    a_sigma(C) modulo Z^n, or ValueError.  Returns den and the image
    translations times den, in holonomy order.
    """
    den, d = translation
    lift = den // group.denominator
    parts, scaled = group.matrix_parts, group.scaled_translations
    images = []
    for rep, a, j in zip(group.f_ext, scaled, sigma):
        image = tuple(x + lift * y - z for x, y, z in zip(d, linear.apply(a), parts[j].apply(d)))
        if any((x - lift * w) % den for x, w in zip(image, scaled[j])):
            raise ValueError(f"not an automorphism: conjugate of {rep} leaves the group")
        images.append(image)
    return den, tuple(images)


class Automorphism(_Record):
    """A validated automorphism gamma -> (d, D) gamma (d, D)^-1.

    Construction re-derives the defining property instead of trusting the
    caller: D must normalise the holonomy group and every canonical
    representative must conjugate back into the group (see
    :func:`_translation_images`).  ``sigma`` keeps the permutation that D
    induces on the holonomy group (see :func:`conjugation_permutation`) and
    ``images`` the (den, image translations times den) that the check
    validated, which the Reidemeister count reads.
    """

    _fields = ("group", "translation", "linear")
    __slots__ = (*_fields, "sigma", "images")

    def __init__(self, group: CrystGroup, translation: Vec, linear: IntMatrix):
        translation = vector(translation)
        if len(translation) != group.dimension:
            raise ValueError("automorphism data does not match the group dimension")
        sigma = conjugation_permutation(group, linear)
        images = _translation_images(group, sigma, linear, group.scale(translation))
        self._set(group, translation, linear, sigma, images)
