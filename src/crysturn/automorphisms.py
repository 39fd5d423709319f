"""Automorphisms of crystallographic groups.

Every automorphism of a crystallographic group with translation lattice Z^n
is conjugation by an affine map (d, D), D in the normaliser of the holonomy
group in GL_n(Z), which D permutes by sigma
(:func:`~crysturn.groups.conjugation_permutation`).  This module owns the
translation solve for a given D (:func:`find_translation_part`), the one
check that conjugation by (d, D) keeps the group, which gives each image
translation as a_sigma(C) plus an integer vector (:func:`_translation_images`),
the base translations, which the group keeps (:func:`base_translations`),
and the validated :class:`Automorphism`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .groups import CrystGroup, conjugation_permutation
from .linalg import IntMatrix, Vec, _Record, smith_normal_form, vector

Scaled = tuple[int, tuple[int, ...]]  # (den, den.d): a translation d over den
Images = tuple[tuple[int, ...], ...]  # z_C: image translation minus a_sigma(C), per C


def _stacked_system(group: CrystGroup, linear: IntMatrix, sigma: tuple[int, ...]):
    """The (kn x n) block system and right-hand side for the translation solve.

    The blocks are ``group.generator_blocks(sigma)``, I - A_sigma(i) for
    each holonomy generator i, with right-hand side block D.a_i - a_sigma(i),
    scaled by the group's common denominator g to ints; k.n rows for k
    generators instead of n.|F|.  That is exact: conjugation by (d, D) keeps
    Z^n, so once it maps each generator (a_i, A_i) into the group it maps
    the whole group into it, and the image, which contains Z^n and maps onto
    D.F.D^-1 = F, is the group.  :class:`Automorphism` still checks every
    representative.
    """
    scaled = group.scaled_translations
    rhs: list[int] = []
    for i in group.generator_indices:
        rhs.extend(x - y for x, y in zip(linear.apply(scaled[i]), scaled[sigma[i]]))
    return group.generator_blocks(sigma), tuple(rhs)


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
    (see :func:`_stacked_system` and ``CrystGroup.base_numerators``),
    enumerating d'_i in {0, 1/s_i, ..., (s_i - 1)/s_i} and mapping through
    Q.  Each entry is reduced into [0, 1)^n, since (d + z, I) with z in Z^n
    differs from (d, I) by an inner automorphism, and the list is sorted.
    Entries may induce equal Reidemeister numbers; no pruning is attempted.
    """
    den, bases = group.base_numerators
    return [_rationals(den, b) for b in bases]


def _translation_images(
    group: CrystGroup, sigma: tuple[int, ...], linear: IntMatrix, translation: Scaled
) -> Images:
    """Check that conjugation by (d, D) keeps the group.

    ``linear`` is D, with permutation ``sigma``, and ``translation`` is
    (den, den.d), den a multiple of g that makes den.d integral.
    Conjugation sends each representative (a_C, C) to (d + D.a_C - E.d, E)
    with E = D.C.D^-1 = A_sigma(C); every image translation must be
    a_sigma(C) + z_C with z_C in Z^n, or ValueError.  Returns the z_C, in
    holonomy order.
    """
    den, d = translation
    lift = den // group.denominator
    parts, scaled = group.matrix_parts, group.scaled_translations
    images = []
    for rep, a, j in zip(group.f_ext, scaled, sigma):
        moved = zip(d, linear.apply(a), parts[j].apply(d), scaled[j])
        image = tuple(x + lift * (y - w) - z for x, y, z, w in moved)
        if any(x % den for x in image):
            raise ValueError(f"not an automorphism: conjugate of {rep} leaves the group")
        images.append(tuple(x // den for x in image))
    return tuple(images)


class Automorphism(_Record):
    """A validated automorphism gamma -> (d, D) gamma (d, D)^-1.

    Construction re-derives the defining property instead of trusting the
    caller: D must normalise the holonomy group and every canonical
    representative must conjugate back into the group (see
    :func:`_translation_images`).  ``sigma`` keeps the permutation that D
    induces on the holonomy group (see :func:`conjugation_permutation`) and
    ``images`` the integer vectors z_C that the check validated, each image
    translation minus a_sigma(C), which the Reidemeister count reads.
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
