"""Slow, independent checks and counters that the tests hold the library to."""

import math
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from crysturn.automorphisms import Automorphism, find_translation_part
from crysturn.groups import (
    AffineMap,
    CrystGroup,
    GroupValidationError,
    PointGroup,
    _certify_finite,
    _order_bound,
    conjugation_permutation,
)
from crysturn.linalg import (
    IntMatrix,
    Scalar,
    Vec,
    coset_representatives,
    mod2_solution_count,
    rat_apply,
    rational_inverse,
    SnfDecomposition,
    smith_normal_form,
    vec_add,
)
from crysturn.reidemeister import (
    INFINITE,
    ComputedSpectrum,
    ReidCount,
    is_always_infinite,
    reidemeister_set,
)


def vec_sub(u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple:
    if len(u) != len(v):
        raise ValueError(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u: Sequence[Scalar]) -> tuple:
    return tuple(-a for a in u)


def vec_mod1(u: Sequence[Scalar]) -> tuple:
    """Reduce every component into [0, 1)."""
    return tuple(a % 1 for a in u)


def is_integral(u: Sequence[Scalar]) -> bool:
    return all(a % 1 == 0 for a in u)


def in_lattice_image(b: IntMatrix, v: Sequence[Scalar]) -> bool:
    """Whether v = b . z for some integer vector z (b square, may be
    singular), in Fractions through the Smith normal form."""
    if not b.is_square:
        raise ValueError("lattice image requires a square matrix")
    if len(v) != b.ncols:
        raise ValueError("vector length does not match matrix")
    snf = smith_normal_form(b)
    t = snf.p.apply(tuple(Fraction(x) for x in v))
    r = snf.rank
    for i, s in enumerate(snf.invariant_factors):
        if t[i] % s != 0:
            return False
    return all(t[i] == 0 for i in range(r, b.nrows))


def is_bieberbach(group: CrystGroup) -> bool:
    """Torsion-freeness in Fractions: for each representative (a, A) with
    A != I and N_A the sum of the powers of A until one is I, whether
    -N_A.a misses the lattice image N_A.Z^n.  The library tests the same
    condition on the translations scaled by the group's denominator."""
    ident = IntMatrix.identity(group.dimension)
    for rep in group.f_ext:
        if rep.linear == ident:
            continue
        acc, power = ident, rep.linear
        while power != ident:
            acc = acc + power
            power = power @ rep.linear
        if in_lattice_image(acc, vec_neg(acc.apply(rep.translation))):
            return False
    return True


def compose(f: AffineMap, g: AffineMap) -> AffineMap:
    """(d1, D1)(d2, D2) = (d1 + D1.d2, D1.D2)."""
    if f.dimension != g.dimension:
        raise ValueError("dimension mismatch in affine product")
    return AffineMap(vec_add(f.translation, f.linear.apply(g.translation)), f.linear @ g.linear)


def inverse(f: AffineMap) -> AffineMap:
    """(-D^-1.d, D^-1); requires a unimodular linear part."""
    if not f.linear.is_unimodular():
        raise ValueError("inverse requires a unimodular linear part")
    inv = f.linear.int_inverse()
    return AffineMap(vec_neg(inv.apply(f.translation)), inv)


def is_identity(f: AffineMap) -> bool:
    return f == AffineMap.identity(f.dimension)


def holonomy_index(group: CrystGroup, m: IntMatrix) -> int:
    """The index of the holonomy matrix m among the group's representatives;
    ValueError if m is not one of them."""
    return group.matrix_parts.index(m)


def representative(group: CrystGroup, m: IntMatrix) -> AffineMap:
    """The canonical representative with matrix part m."""
    return group.f_ext[holonomy_index(group, m)]


def contains(group: CrystGroup, elem: AffineMap) -> bool:
    """Membership: matrix part in the holonomy group, offset integral."""
    if elem.dimension != group.dimension:
        raise ValueError("dimension mismatch")
    if elem.linear not in group.matrix_parts:
        return False
    return is_integral(vec_sub(elem.translation, representative(group, elem.linear).translation))


def naive_matmul(a: IntMatrix, b: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """The rows of a . b by the textbook triple loop over indices."""
    if a.ncols != b.nrows:
        raise ValueError("inner dimensions do not match")
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            total = 0
            for k in range(a.ncols):
                total += a.rows[i][k] * b.rows[k][j]
            row.append(total)
        rows.append(tuple(row))
    return tuple(rows)


def smith_diagonal(snf: SnfDecomposition, m: IntMatrix) -> IntMatrix:
    """S of the Smith normal form ``snf`` of ``m``: the invariant factors on
    the diagonal, padded with zeros to the shape of ``m``."""
    assert snf.rank <= min(m.nrows, m.ncols), "more invariant factors than the diagonal holds"
    diag = snf.invariant_factors + (0,) * m.nrows
    return IntMatrix.from_rows(
        [[diag[i] if i == j else 0 for j in range(m.ncols)] for i in range(m.nrows)]
    )


def naive_apply(a: IntMatrix, v) -> tuple:
    """a . v by an index loop; ints stay ints and Fractions stay exact."""
    if len(v) != a.ncols:
        raise ValueError("vector length does not match column count")
    out = []
    for i in range(a.nrows):
        total = 0
        for k in range(a.ncols):
            total += a.rows[i][k] * v[k]
        out.append(total)
    return tuple(out)


def structure_violation(group: CrystGroup) -> Optional[str]:
    """The first way the group's data fail to define a crystallographic group
    with translation lattice Z^n, or None; in Fractions, from the affine maps.

    The library proves the structure once, by the closure in ``build_group``;
    this walks every pair of representatives and every inverse instead.
    """
    n = group.dimension
    if not group.f_ext or group.f_ext[0] != AffineMap.identity(n):
        return "first representative is not the identity"
    if len(set(group.matrix_parts)) != group.order:
        return "two representatives share a matrix part"
    for rep in group.f_ext:
        if rep.linear.shape != (n, n) or not rep.linear.is_unimodular():
            return f"matrix part is not unimodular n x n: {rep}"
        if any(not 0 <= x < 1 for x in rep.translation):
            return f"translation not reduced into [0, 1): {rep}"
    for rep in group.f_ext:
        if not contains(group, inverse(rep)):
            return f"inverse leaves the group: {rep}"
        for other in group.f_ext:
            if not contains(group, compose(rep, other)):
                return f"product leaves the group: {rep} * {other}"
    for d in group.normaliser_gens or ():
        if d.shape != (n, n) or not d.is_unimodular():
            return f"normaliser generator is not unimodular n x n: {d}"
        # D.F.D^-1 = F iff D.F = F.D, with no inverse taken
        if {d @ a for a in group.matrix_parts} != {a @ d for a in group.matrix_parts}:
            return f"normaliser generator does not normalise the holonomy group: {d}"
    return None


def element_closure(gens: list[IntMatrix]) -> PointGroup:
    """The closure of unimodular matrices by a frontier loop over elements:
    breadth-first from the identity, the sorted distinct generators on the
    left, each new element certified as the library's walk certifies it."""
    n = gens[0].nrows
    gen_list = sorted(set(gens), key=lambda m: m.rows)
    ident = IntMatrix.identity(n)
    bound = _order_bound(n)
    seen, order, frontier = {ident}, [ident], [ident]
    while frontier:
        next_frontier = []
        for cur in frontier:
            for g in gen_list:
                prod = g @ cur
                if prod not in seen:
                    _certify_finite(prod.rows, len(order), bound)
                    seen.add(prod)
                    next_frontier.append(prod)
                    order.append(prod)
        frontier = next_frontier
    return PointGroup(order)


def reference_coset_walk(
    parts: Sequence[IntMatrix], letters: Sequence[IntMatrix], max_depth: float = math.inf
) -> list[tuple]:
    """The steps (x, k, y, i, new) of the library's coset walk, every
    product made by ``IntMatrix.__matmul__`` and looked up as a matrix: a
    new coset's ``new`` is the rows of A.D for A in ``parts``, in order.
    No finiteness certificate: the caller passes a finite group or a
    depth."""
    found = {a: (0, i) for i, a in enumerate(parts)}
    leaders, depths, steps = [parts[0]], [0], []
    for x, leader in enumerate(leaders):
        if depths[x] == max_depth:
            break
        for k, letter in enumerate(letters):
            cand = letter @ leader
            if cand in found:
                steps.append((x, k, *found[cand], None))
                continue
            y = len(leaders)
            products = [a @ cand for a in parts]
            for i, m in enumerate(products):
                found[m] = (y, i)
            leaders.append(cand)
            depths.append(depths[x] + 1)
            steps.append((x, k, y, 0, [m.rows for m in products]))
    return steps


def frontier_build_group(dimension: int, generators: list[AffineMap]) -> CrystGroup:
    """A group from affine generators by a frontier loop over affine
    elements, with the multiplication table of every product.

    The generators, reduced mod 1, are recorded in the caller's order, then
    each frontier element is multiplied by each of them on the left; a new
    matrix part is certified, a known one must carry the same translation.
    """
    ident = AffineMap.identity(dimension)
    bound = _order_bound(dimension)
    reps = {ident.linear: ident}

    def record(candidate: AffineMap) -> bool:
        known = reps.get(candidate.linear)
        if known is None:
            _certify_finite(candidate.linear.rows, len(reps), bound)
            reps[candidate.linear] = candidate
            return True
        if known.translation != candidate.translation:
            shown = [", ".join(map(str, t)) for t in (known.translation, candidate.translation)]
            raise GroupValidationError(
                "cocycle closure violated: two inequivalent translations share a "
                f"matrix part (({shown[0]}) vs ({shown[1]}))"
            )
        return False

    seeds = [AffineMap(vec_mod1(g.translation), g.linear) for g in generators]
    frontier = [ident] + [s for s in seeds if record(s)]
    while frontier:
        next_frontier = []
        for cur in frontier:
            for s in seeds:
                prod = compose(s, cur)
                prod = AffineMap(vec_mod1(prod.translation), prod.linear)
                if record(prod):
                    next_frontier.append(prod)
        frontier = next_frontier
    position = {m: i for i, m in enumerate(reps)}
    indices = dict.fromkeys(position[s.linear] for s in seeds if position[s.linear])
    table = [tuple(position[a @ b] for b in reps) for a in reps]
    return CrystGroup(
        dimension, list(reps.values()), generator_indices=tuple(indices) or (0,), mult_table=table
    )


def averaging_number(phi: Automorphism) -> ReidCount:
    """Averaged determinant formula, valid for torsion-free groups only."""
    group = phi.group
    if not group.is_bieberbach():
        raise ValueError("averaging formula requires a torsion-free group")
    ident = IntMatrix.identity(group.dimension)
    total = 0
    for a in group.matrix_parts:
        term = (ident - a @ phi.linear).det()
        if term == 0:
            return INFINITE
        total += abs(term)
    count, rem = divmod(total, group.order)
    assert rem == 0, "averaged determinant sum must be divisible by the holonomy order"
    return count


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
    conj_inv = inverse(conj)
    return all(contains(group, compose(compose(conj, rep), conj_inv)) for rep in group.f_ext)


def full_stack_translation_part(group: CrystGroup, linear: IntMatrix) -> Optional[Vec]:
    """A translation d making conjugation by (d, linear) an automorphism, or None.

    Solves one block per holonomy element, indexed by source, n.|F| rows:
    block i is I - A_sigma(i) with right-hand side D.a_i - a_sigma(i), in
    Fractions, with a Smith normal form per D.  The library indexes by image
    and stacks the blocks of the holonomy generators only, I - A_j, which
    it factors once per group.
    """
    sigma = conjugation_permutation(group, linear)
    ident = IntMatrix.identity(group.dimension)
    m_mat = IntMatrix.vstack([ident - group.matrix_parts[j] for j in sigma])
    rhs = [
        x
        for rep, j in zip(group.f_ext, sigma)
        for x in vec_sub(linear.apply(rep.translation), group.f_ext[j].translation)
    ]
    snf = smith_normal_form(m_mat)
    t = snf.p.apply(rhs)
    if not is_integral(t[snf.rank :]):
        return None
    d_prime = [-Fraction(x) / s for x, s in zip(t, snf.invariant_factors)]
    d_prime += [Fraction(0)] * (group.dimension - snf.rank)
    return snf.q.apply(d_prime)


def full_stack_base_translations(group: CrystGroup) -> list[Vec]:
    """Base translations from the n.|F|-row system of every I - A block,
    unreduced, in the order of the Smith normal form's enumeration."""
    ident = IntMatrix.identity(group.dimension)
    snf = smith_normal_form(IntMatrix.vstack([ident - a for a in group.matrix_parts]))
    pad = [Fraction(0)] * (group.dimension - snf.rank)
    return [
        snf.q.apply([Fraction(y, s) for y, s in zip(combo, snf.invariant_factors)] + pad)
        for combo in product(*(range(s) for s in snf.invariant_factors))
    ]


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
    c_invs = [c.int_inverse() for c in group.matrix_parts]
    mergers: dict[tuple[int, int], list[int]] = {}
    for b_idx, b in enumerate(group.matrix_parts):
        for c_idx, (c, c_inv) in enumerate(zip(group.matrix_parts, c_invs)):
            a = c @ b @ d_mat @ c_inv @ d_inv
            mergers.setdefault((holonomy_index(group, a), b_idx), []).append(c_idx)

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


def naive_witness_words(group: CrystGroup, max_word_length: int) -> list[IntMatrix]:
    """The word search with every word's conjugation and determinant test
    made from its matrix: breadth-first words in the normaliser generators
    and their inverses, in discovery order, that admit a translation part
    and have finite Reidemeister numbers."""
    letters = sorted(
        set(group.normaliser_gens) | {g.int_inverse() for g in group.normaliser_gens},
        key=lambda m: m.rows,
    )
    seen = {IntMatrix.identity(group.dimension)}
    frontier, found = list(seen), []
    for _ in range(max_word_length):
        next_frontier = []
        for cur in frontier:
            for cand in (letter @ cur for letter in letters):
                if cand not in seen:
                    seen.add(cand)
                    next_frontier.append(cand)
                    if not is_always_infinite(group, cand) and (
                        find_translation_part(group, cand) is not None
                    ):
                        found.append(cand)
        frontier = next_frontier
    return found


def full_closure_spectrum(group: CrystGroup) -> ComputedSpectrum:
    """Spectrum as the union of Reidemeister sets over every closure element.

    Visits all |N| elements of the normaliser closure, where the library
    visits one per coset of the holonomy group.
    """
    closure = element_closure(list(group.normaliser_gens))
    values = set().union(*(reidemeister_set(group, d_mat) for d_mat in closure.elements))
    assert INFINITE in values, "the identity has R = infinity"
    values.discard(INFINITE)
    return ComputedSpectrum(tuple(sorted(values)), closure.order)


def pairwise_burnside_number(phi: Automorphism) -> ReidCount:
    """Reidemeister number by Burnside's lemma with every fixing pair tested
    in full, in Fractions.

    Infinite when some I - A.D is singular.  Otherwise every pair (A, C)
    with C.A = A.E, E = D.C.D^-1, the identity C = I included, gets one
    Smith normal form P.[C - I | I - A.D].Q of the lattice L its columns
    span, and C fixes [Z^n : L] points of component A iff -c_{A,C} lies in
    L, where c_{A,C} = a_C + (C - I).a_A - A.(d + D.a_C - E.d) must be an
    integer vector.  The library sums the identity's points from the
    determinants, adds one for each pair with L = Z^n, and tests only the
    rows with invariant factor s_i > 1 of the other pairs.
    """
    group = phi.group
    d_mat, d = phi.linear, phi.translation
    ident = IntMatrix.identity(group.dimension)
    blocks = [ident - a @ d_mat for a in group.matrix_parts]
    if any(block.det() == 0 for block in blocks):
        return INFINITE
    d_inv = d_mat.int_inverse()
    total = 0
    for c_rep in group.f_ext:
        c = c_rep.linear
        e = d_mat @ c @ d_inv
        image = vec_sub(vec_add(d, d_mat.apply(c_rep.translation)), e.apply(d))
        for a_rep, block in zip(group.f_ext, blocks):
            a = a_rep.linear
            if c @ a != a @ e:
                continue
            lattice = IntMatrix.from_rows(
                [r + s for r, s in zip((c - ident).rows, block.rows)]
            )
            offset = vec_sub(
                vec_add(c_rep.translation, (c - ident).apply(a_rep.translation)),
                a.apply(image),
            )
            assert is_integral(offset), "twisted conjugation must keep the lattice coset"
            snf = smith_normal_form(lattice)
            target = snf.p.apply([-x for x in offset])
            if all(t % s == 0 for t, s in zip(target, snf.invariant_factors)):
                total += math.prod(snf.invariant_factors)
    count, rem = divmod(total, group.order)
    assert rem == 0, "Burnside fixed-point sum must be divisible by the holonomy order"
    return count


def solve_exact(b: IntMatrix, v) -> Vec:
    """The unique rational solution of b . x = v for nonsingular b, through
    the Fraction Gauss-Jordan inverse rather than the Smith normal form the
    lattice predicates use."""
    return rat_apply(rational_inverse(b), v)


def reflection_class_count(b_mat: IntMatrix, b_vec) -> ReidCount:
    """Classes of x ~ y iff x - y or x + y + b lies in the lattice image.

    Plain cosets of the image pair up under the reflection x -> -x - b except
    for the self-paired ones, counted by the GF(2) solution count, giving
    (|det|_inf + solutions) / 2; infinite when the matrix is singular.
    """
    det = b_mat.det()
    if det == 0:
        return INFINITE
    total = abs(det) + mod2_solution_count(b_mat, b_vec)
    assert total % 2 == 0, "coset count and fixed-coset count must share parity"
    return total // 2


def conjugate(phi: Automorphism, gamma: AffineMap) -> AffineMap:
    """phi(gamma) = (d, D).gamma.(d, D)^-1, composed as affine maps in Fractions."""
    conj = AffineMap(phi.translation, phi.linear)
    return compose(compose(conj, gamma), inverse(conj))
