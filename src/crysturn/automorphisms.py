"""Automorphisms of crystallographic groups.

Every automorphism of a crystallographic group with translation lattice Z^n
is conjugation by an affine map (d, D), D in the normaliser of the holonomy
group in GL_n(Z), which D permutes by sigma
(:func:`~crysturn.groups.conjugation_permutation`).  This module owns the
translation solve for a given D (:func:`find_translation_part`), one apply
of the solve matrix that the group keeps (:func:`_translation_part`), the one
check that conjugation by (d, D) keeps the group, which gives each image
translation as a_sigma(C) plus an integer vector (:func:`_translation_images`),
the base translations, which the group keeps (:func:`base_translations`),
and the validated :class:`Automorphism`, which keeps sigma and the products
A.D from the one conjugation of its D.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .groups import CrystGroup, _checked_conjugation, conjugation_permutation
from .linalg import IntMatrix, Vec, _Record, vector

Scaled = tuple[int, tuple[int, ...]]  # (den, den.d): a translation d over den
Images = tuple[tuple[int, ...], ...]  # z_C: image translation minus a_sigma(C), per C


def _rationals(den: int, numerators: tuple[int, ...]) -> Vec:
    """The translation numerators / den as Fractions, at the public boundary."""
    return tuple(Fraction(x, den) for x in numerators)


def find_translation_part(group: CrystGroup, linear: IntMatrix) -> Optional[Vec]:
    """Find d such that conjugation by (d, linear) is an automorphism.

    Returns None when no valid translation exists, otherwise one d; every
    other differs from it by a base translation and an integer vector (see
    :func:`base_translations`), and which one is returned is the solve's
    choice (see :func:`_translation_part`).  Raises ValueError unless
    ``linear`` is an n x n matrix that normalises the holonomy group (see
    :func:`conjugation_permutation`).
    """
    d = _translation_part(group, linear, conjugation_permutation(group, linear))
    return None if d is None else _rationals(*d)


def _translation_part(
    group: CrystGroup, linear: IntMatrix, sigma: tuple[int, ...]
) -> Optional[Scaled]:
    """:func:`find_translation_part` for a linear part whose permutation
    ``sigma`` (see :func:`conjugation_permutation`) is already known, as
    (den, den.d) with den = g.L, L from ``group.solve_matrix``.

    Conjugation by (d, D) sends (a_C, C) to (d + D.a_C - E.d, E), E =
    A_sigma(C), so it keeps the group iff (I - E).d = a_sigma(C) - D.a_C
    modulo Z^n for every C.  One condition per holonomy generator E = A_j,
    with C = sigma^-1(j), suffices: sigma is an automorphism of F, so those
    C generate F, and conjugation by (d, D) keeps Z^n, so once it maps their
    representatives into the group it maps the whole group into it, and
    the image, which contains Z^n and maps onto D.F.D^-1 = F, is the group.
    Indexed by E, the k.n x n system is the group's ``generator_blocks``
    whatever D is, so the solve is k applies of D for the right-hand side
    D.a_C - a_j, scaled by g to ints, and one of the group's
    ``solve_matrix``, whose consistency entries must be multiples of g; no
    Smith normal form is made here.  :class:`Automorphism` still checks
    every representative.
    """
    lcm, solve = group.solve_matrix
    n, g, scaled = group.dimension, group.denominator, group.scaled_translations
    rhs: list[int] = []
    for j in group.generator_indices:
        rhs.extend(x - y for x, y in zip(linear.apply(scaled[sigma.index(j)]), scaled[j]))
    t = solve.apply(rhs)
    if any(x % g for x in t[n:]):
        return None
    return g * lcm, t[:n]


def base_translations(group: CrystGroup) -> list[Vec]:
    """The finite set of translations spanning Z^n-fixing automorphisms.

    Every automorphism restricting to the identity on Z^n is inner composed
    with conjugation by (d, I) for exactly one d in this list.  Built from
    the Smith normal form of the I - A_i blocks of the holonomy generators
    (``CrystGroup.generator_form``, read by ``CrystGroup.base_numerators``),
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
    induces on the holonomy group and ``products`` the rows of the products
    A.D in holonomy order, both from D's one conjugation (see
    :func:`~crysturn.groups._checked_conjugation`); ``images`` keeps the
    integer vectors z_C that the check validated, each image translation
    minus a_sigma(C).  The Reidemeister count reads all three and forms no
    product.
    """

    _fields = ("group", "translation", "linear")
    __slots__ = (*_fields, "sigma", "products", "images")

    def __init__(self, group: CrystGroup, translation: Vec, linear: IntMatrix):
        translation = vector(translation)
        if len(translation) != group.dimension:
            raise ValueError("automorphism data does not match the group dimension")
        sigma, products = _checked_conjugation(group, linear)
        images = _translation_images(group, sigma, linear, group.scale(translation))
        self._set(group, translation, linear, sigma, products, images)
