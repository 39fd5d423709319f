"""Automorphisms of crystallographic groups.

Every automorphism of a crystallographic group with translation lattice Z^n
acts by conjugation with an affine map (d, D), where D lies in the
normaliser of the holonomy group in GL_n(Z).  This module provides:

* the permutation that conjugation by D induces on the holonomy group,
* the solver that, given D, finds a translation d making conjugation by
  (d, D) an automorphism (or reports that none exists),
* the finite set of base translations through which every automorphism
  acting trivially on Z^n factors, up to inner automorphisms,
* a validated :class:`Automorphism` value with application and composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _mixed_radix
from typing import Optional

from .groups import AffineMap, CrystGroup
from .linalg import (
    IntMatrix,
    Vec,
    smith_normal_form,
    vec_add,
    vec_sub,
    vector,
    zero_vector,
)


def conjugation_permutation(group: CrystGroup, linear: IntMatrix) -> tuple[int, ...]:
    """The permutation of holonomy elements induced by A -> D.A.D^-1.

    Entry i is the holonomy index sigma(i) with A_sigma(i) = D.A_i.D^-1.

    Raises ValueError when some conjugate leaves the holonomy group, i.e.
    when the matrix does not normalise it.
    """
    inv = linear.int_inverse()
    images = []
    for a in group.matrix_parts:
        conj = linear @ a @ inv
        try:
            images.append(group.holonomy_index(conj))
        except ValueError:
            raise ValueError(
                f"matrix does not normalise the holonomy group: {linear}"
            ) from None
    if len(set(images)) != len(images):
        raise ValueError("conjugation is not a bijection of the holonomy group")
    return tuple(images)


def _stacked_system(group: CrystGroup, linear: IntMatrix, sigma: tuple[int, ...]):
    """The (nk x n) block system and right-hand side for the translation solve.

    Row block i is I - A_sigma(i); the right-hand side block is
    D.a_i - a_sigma(i).
    """
    n = group.dimension
    ident = IntMatrix.identity(n)
    blocks = []
    rhs: list[Fraction] = []
    for i, rep in enumerate(group.f_ext):
        j = sigma[i]
        blocks.append(ident - group.f_ext[j].linear)
        rhs.extend(vec_sub(linear.apply(rep.translation), group.f_ext[j].translation))
    return IntMatrix.vstack(blocks), tuple(rhs)


def find_translation_part(group: CrystGroup, linear: IntMatrix) -> Optional[Vec]:
    """Find d such that conjugation by (d, linear) is an automorphism.

    Works through the Smith normal form of the stacked system: with
    P.M.Q = S and t = P.rhs, a solution exists iff the rows of S that are
    zero see integral entries of t; the canonical solution takes
    d'_i = -t_i / s_i on the nonzero rows.  Returns None when no valid
    translation exists.
    """
    sigma = conjugation_permutation(group, linear)
    n = group.dimension
    m_mat, rhs = _stacked_system(group, linear, sigma)
    snf = smith_normal_form(m_mat)
    t = snf.p.apply(rhs)
    r = snf.rank
    if any(t[i] % 1 != 0 for i in range(r, m_mat.nrows)):
        return None
    d_prime = [Fraction(0)] * n
    for i, s in enumerate(snf.invariant_factors):
        d_prime[i] = -Fraction(t[i]) / s
    return snf.q.apply(tuple(d_prime))


def base_translations(group: CrystGroup) -> list[Vec]:
    """The finite set of translations spanning Z^n-fixing automorphisms.

    Every automorphism restricting to the identity on Z^n is inner composed
    with conjugation by (d, I) for exactly one d in this list; built from
    the Smith normal form of the stacked I - A_i blocks, enumerating
    d'_i in {0, 1/s_i, ..., (s_i - 1)/s_i} and mapping through Q.  Entries
    may induce equal Reidemeister numbers; no pruning is attempted.
    """
    n = group.dimension
    m_mat, _ = _stacked_system(group, IntMatrix.identity(n), tuple(range(group.order)))
    snf = smith_normal_form(m_mat)
    out = []
    for combo in _mixed_radix(*(range(s) for s in snf.invariant_factors)):
        d_prime = [Fraction(0)] * n
        for i, (y, s) in enumerate(zip(combo, snf.invariant_factors)):
            d_prime[i] = Fraction(y, s)
        out.append(snf.q.apply(tuple(d_prime)))
    return out


@dataclass(frozen=True)
class Automorphism:
    """A validated automorphism gamma -> (d, D) gamma (d, D)^-1.

    Construction re-derives the defining property instead of trusting the
    caller: every canonical representative must conjugate back into the
    group.
    """

    group: CrystGroup
    translation: Vec
    linear: IntMatrix

    def __post_init__(self):
        object.__setattr__(self, "translation", vector(self.translation))
        n = self.group.dimension
        if len(self.translation) != n or self.linear.shape != (n, n):
            raise ValueError("automorphism data does not match the group dimension")
        if not self.linear.is_unimodular():
            raise ValueError("linear part of an automorphism must be unimodular")
        conjugator = AffineMap(self.translation, self.linear)
        conjugator_inv = conjugator.inverse()
        for rep in self.group.f_ext:
            image = conjugator.compose(rep).compose(conjugator_inv)
            if not self.group.contains(image):
                raise ValueError(
                    f"not an automorphism: conjugate of {rep} leaves the group"
                )

    @classmethod
    def identity(cls, group: CrystGroup) -> "Automorphism":
        return cls(group, zero_vector(group.dimension), IntMatrix.identity(group.dimension))

    @classmethod
    def inner(cls, group: CrystGroup, gamma: AffineMap) -> "Automorphism":
        """Conjugation by a group element."""
        if not group.contains(gamma):
            raise ValueError("inner automorphisms require a group element")
        return cls(group, gamma.translation, gamma.linear)

    def __call__(self, gamma: AffineMap) -> AffineMap:
        """Apply to a group element; the image is again a group element."""
        if not self.group.contains(gamma):
            raise ValueError("element does not belong to the group")
        conjugator = AffineMap(self.translation, self.linear)
        image = conjugator.compose(gamma).compose(conjugator.inverse())
        assert self.group.contains(image)
        return image

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: conjugation by the product of the affine data."""
        if self.group is not other.group:
            raise ValueError("cannot compose automorphisms of different groups")
        return Automorphism(
            self.group,
            vec_add(self.translation, self.linear.apply(other.translation)),
            self.linear @ other.linear,
        )
