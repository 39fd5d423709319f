"""Slow, independent counters that the tests check the library against."""

from crysturn.automorphisms import Automorphism
from crysturn.groups import AffineMap, CrystGroup, matrix_group_closure
from crysturn.linalg import (
    IntMatrix,
    Vec,
    coset_representatives,
    is_integral,
    rat_apply,
    rational_inverse,
    vec_add,
    vec_sub,
)
from crysturn.reidemeister import INFINITE, ComputedSpectrum, ReidCount, reidemeister_set


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        self.parent[self.find(i)] = self.find(j)


def conjugation_keeps_group(group: CrystGroup, translation: Vec, linear: IntMatrix) -> bool:
    """Whether conjugation by (translation, linear) is an automorphism, in Fractions.

    Composes the affine maps conj . rep . conj^-1 for every canonical
    representative and asks the group for membership; the library checks
    the same condition on integers over a common denominator.
    """
    if not linear.is_unimodular():
        return False
    conj = AffineMap(translation, linear)
    conj_inv = conj.inverse()
    return all(group.contains(conj.compose(rep).compose(conj_inv)) for rep in group.f_ext)


def candidate_count(phi: Automorphism) -> int:
    """Number of coset candidates the union-find oracle merges."""
    ident = IntMatrix.identity(phi.group.dimension)
    return sum(abs((ident - a @ phi.linear).det()) for a in phi.group.matrix_parts)


def union_find_number(phi: Automorphism) -> ReidCount:
    """Reidemeister number by merging coset candidates pairwise.

    Infinite when some I - A.D is singular.  Otherwise candidates (x + a, A)
    are drawn from coset representatives of im(I - A.D) per holonomy
    element, then merged: two candidates with holonomy parts A, B coalesce
    iff some C in the holonomy group satisfies A = C.B.D.C^-1.D^-1 and the
    associated affine equation has an integral solution.  Quadratic in the
    number of candidates, so only usable for small determinants.
    """
    group = phi.group
    d_mat = phi.linear
    ident = IntMatrix.identity(group.dimension)

    mats = [ident - a @ d_mat for a in group.matrix_parts]
    if any(m.det() == 0 for m in mats):
        return INFINITE

    candidates: list[tuple[int, tuple]] = []
    for idx, rep in enumerate(group.f_ext):
        for x in coset_representatives(mats[idx]):
            candidates.append((idx, vec_add(x, rep.translation)))

    # For each ordered holonomy pair (A, B), the C's with A = C.B.D.C^-1.D^-1.
    d_inv = d_mat.int_inverse()
    mergers: dict[tuple[int, int], list[int]] = {}
    for b_idx, b in enumerate(group.matrix_parts):
        for c_idx, c in enumerate(group.matrix_parts):
            c_inv = group.matrix_parts[group.inv_table[c_idx]]
            a = c @ b @ d_mat @ c_inv @ d_inv
            mergers.setdefault((group.holonomy_index(a), b_idx), []).append(c_idx)

    inverses = {idx: rational_inverse(mats[idx]) for idx in range(group.order)}
    dsu = _UnionFind(len(candidates))
    for i in range(len(candidates)):
        a_idx, xa = candidates[i]
        for j in range(i + 1, len(candidates)):
            if dsu.find(i) == dsu.find(j):
                continue
            b_idx, yb = candidates[j]
            for c_idx in mergers.get((a_idx, b_idx), ()):
                c_rep = group.f_ext[c_idx]
                shift = (c_rep.linear @ group.matrix_parts[b_idx] - group.matrix_parts[a_idx]).apply(
                    phi.translation
                )
                w = vec_sub(vec_sub(xa, c_rep.linear.apply(yb)), shift)
                v = rat_apply(inverses[a_idx], w)
                if is_integral(vec_sub(v, c_rep.translation)):
                    dsu.union(i, j)
                    break
    return len({dsu.find(i) for i in range(len(candidates))})


def full_closure_spectrum(group: CrystGroup) -> ComputedSpectrum:
    """Spectrum as the union of Reidemeister sets over every closure element.

    Visits all |N| elements of the normaliser closure, where the library
    visits one per coset of the holonomy group.
    """
    closure = matrix_group_closure(list(group.normaliser_gens))
    values = set().union(*(reidemeister_set(group, d_mat) for d_mat in closure.elements))
    return ComputedSpectrum(
        finite_values=tuple(sorted(v for v in values if v != INFINITE)),
        contains_infinity=INFINITE in values,
        normaliser_complete=True,
        normaliser_order=closure.order,
    )
