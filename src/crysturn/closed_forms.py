"""Symbolic spectrum descriptions, and two closed counting formulas.

A symbolic spectrum is a set of positive integers described as a union of
finite sets and scaled copies kN of the naturals, minus a finite set of
exceptions, together with an infinity flag.  The representation covers
exactly the shapes that arise for crystallographic groups (finite sets,
kN, unions, things like 2N minus {2}); products outside the representable
algebra raise instead of approximating.  Catalog annotations are written
in it (:func:`parse_spectrum`).

The closed formulas :func:`reidemeister_point_reflection` and
:func:`reidemeister_3_2_1_2_1` answer nothing the general algorithm does
not; no command calls them, and they stay only as the reference values of
the ``perfbench`` workload ``reidnr-large-det``.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .automorphisms import Automorphism
from .groups import AffineMap, CrystGroup, build_group
from .linalg import IntMatrix, Vec, _Record, mod2_solution_count, vector, zero_vector
from .reidemeister import INFINITE, ReidCount


class SpectrumAlgebraError(ValueError):
    """The requested set is not representable in the component algebra."""


class SpectrumDescription(_Record):
    """Symbolic set of naturals: finite set, union of kN's, finite removals.

    Membership: n is in the set iff (n is in ``finite`` or divisible by some
    k in ``scaled``) and n is not in ``removed``.  Instances canonicalize on
    construction so that equal sets compare equal: dominated scales are
    dropped, covered finite elements are folded away and removals are kept
    only where they bite.
    """

    __slots__ = _fields = ("finite", "scaled", "removed", "includes_infinity")

    def __init__(
        self,
        finite: frozenset[int] = frozenset(),
        scaled: frozenset[int] = frozenset(),
        removed: frozenset[int] = frozenset(),
        includes_infinity: bool = False,
    ):
        finite = frozenset(int(x) for x in finite)
        scaled = frozenset(int(x) for x in scaled)
        removed = frozenset(int(x) for x in removed)
        if any(x < 1 for x in finite | scaled | removed):
            raise ValueError("spectrum components must be positive naturals")
        scaled = frozenset(
            k for k in scaled if not any(o != k and k % o == 0 for o in scaled)
        )
        removed = frozenset(
            n for n in removed if n in finite or any(n % k == 0 for k in scaled)
        )
        finite = frozenset(
            f for f in finite if f not in removed and not any(f % k == 0 for k in scaled)
        )
        removed = frozenset(n for n in removed if any(n % k == 0 for k in scaled))
        if not finite and not scaled and not includes_infinity:
            raise ValueError("a spectrum description is never empty")
        self._set(finite, scaled, removed, includes_infinity)

    def contains(self, value: ReidCount) -> bool:
        if value == INFINITE:
            return self.includes_infinity
        n = int(value)
        if n in self.removed:
            return False
        return n in self.finite or any(n % k == 0 for k in self.scaled)

    def is_finite(self) -> bool:
        return not self.scaled


_TERM_RE = re.compile(r"^(\d*)N$")


def parse_spectrum(text: str) -> SpectrumDescription:
    """Parse table notation like ``"2N ∪ {3}"`` or ``"N∖{1}"``.

    Accepts the unicode union/setminus signs as well as ``u`` and ``\\``;
    ``∞`` (or ``inf``) inside braces sets the infinity flag.
    """
    src = text.strip()
    removed: set[int] = set()
    body = src
    # a trailing setminus block applies to the whole expression
    for sep in ("∖", "\\"):
        if sep in body:
            body, _, tail = body.rpartition(sep)
            tail = tail.strip()
            if not (tail.startswith("{") and tail.endswith("}")):
                raise ValueError(f"malformed removal block in {text!r}")
            removed.update(int(x) for x in tail[1:-1].split(","))
    finite: set[int] = set()
    scaled: set[int] = set()
    infinity = False
    for raw_term in re.split(r"∪|\bu\b", body):
        term = raw_term.strip()
        if not term:
            continue
        if term.startswith("{") and term.endswith("}"):
            for item in term[1:-1].split(","):
                item = item.strip()
                if not item:
                    continue
                if item in ("∞", "inf", "infinity"):
                    infinity = True
                else:
                    finite.add(int(item))
            continue
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"cannot parse spectrum term {term!r} in {text!r}")
        scaled.add(int(m.group(1)) if m.group(1) else 1)
    return SpectrumDescription(
        finite=frozenset(finite),
        scaled=frozenset(scaled),
        removed=frozenset(removed),
        includes_infinity=infinity,
    )


def reidemeister_point_reflection(dim: int, translation: Vec, linear: IntMatrix) -> ReidCount:
    """Closed formula for automorphisms of <Z^n, point reflection>, n >= 2.

    Half the determinant sum over the two holonomy elements, plus the number
    of self-paired cosets of I - linear at offset twice the translation.
    """
    if dim < 2:
        raise ValueError("point reflection groups need dimension >= 2")
    translation = vector(translation)
    if len(translation) != dim or linear.shape != (dim, dim):
        raise ValueError("data does not match the stated dimension")
    if any((2 * x) % 1 != 0 for x in translation):
        raise ValueError("translation must be half-integral for this group")
    if not linear.is_unimodular():
        raise ValueError("linear part must be unimodular")
    ident = IntMatrix.identity(dim)
    total = 0
    for mat in (ident - linear, ident + linear):
        det = mat.det()
        if det == 0:
            return INFINITE
        total += abs(det)
    doubled = tuple(int(2 * x) for x in translation)
    return total // 2 + mod2_solution_count(ident - linear, doubled)


_G32121_GEN = IntMatrix.from_rows([[1, -1, 0], [0, -1, 0], [0, 0, -1]])


@lru_cache(maxsize=1)
def _g32121_group() -> CrystGroup:
    return build_group(3, [AffineMap(zero_vector(3), _G32121_GEN)], name="3/2/1/2/1")


def reidemeister_3_2_1_2_1(translation: Vec, linear: IntMatrix) -> ReidCount:
    """Closed formula for the group 3/2/1/2/1, in the block normal form.

    The linear part must look like [[e, m1, m2], [0, e+2*m1, 2*m2],
    [0, m3, odd]] with e = +-1 and the translation like (0, integer,
    half-integer); arbitrary automorphisms are handled by the general
    algorithm instead of being normalised here.  Adds 4 to half the
    determinant sum exactly when the third translation component is
    integral.
    """
    translation = vector(translation)
    if linear.shape != (3, 3) or len(translation) != 3:
        raise ValueError("expected 3-dimensional data")
    rows = linear.rows
    eps = rows[0][0]
    if (
        eps not in (1, -1)
        or rows[1][0] != 0
        or rows[2][0] != 0
        or rows[1][1] != eps + 2 * rows[0][1]
        or rows[1][2] != 2 * rows[0][2]
        or rows[2][2] % 2 == 0
    ):
        raise ValueError("linear part is not in the block normal form")
    d1, d2, d3 = translation
    if d1 != 0 or d2 % 1 != 0 or (2 * d3) % 1 != 0:
        raise ValueError("translation is not in the normal form (0, Z, Z/2)")
    # must actually define an automorphism of the fixture group
    group = _g32121_group()
    Automorphism(group, translation, linear)
    ident = IntMatrix.identity(3)
    total = 0
    for a in group.matrix_parts:
        det = (ident - a @ linear).det()
        if det == 0:
            return INFINITE
        total += abs(det)
    delta = 1 if d3 % 1 == 0 else 0
    return total // 2 + 4 * delta


def product_spectrum(s1: SpectrumDescription, s2: SpectrumDescription) -> SpectrumDescription:
    """Elementwise product set of two symbolic spectra.

    Exact over the component algebra: pieces multiply as finite*finite
    pointwise, f*(kN) = (f k)N and (k1 N)*(k2 N) = (k1 k2)N; infinity
    absorbs.  Removals only push through a product when the other factor is
    a single finite value; anything else raises
    :class:`SpectrumAlgebraError` rather than returning a lossy answer.
    """
    if s1.removed and s2.removed:
        raise SpectrumAlgebraError("cannot multiply two spectra with removals exactly")
    if s1.removed or s2.removed:
        holed, other = (s1, s2) if s1.removed else (s2, s1)
        plain = other.finite
        if other.scaled or other.removed or len(plain) != 1:
            raise SpectrumAlgebraError(
                "a spectrum with removals can only be scaled by a single value"
            )
        (f,) = plain
        return SpectrumDescription(
            finite=frozenset(f * x for x in holed.finite),
            scaled=frozenset(f * k for k in holed.scaled),
            removed=frozenset(f * r for r in holed.removed),
            includes_infinity=s1.includes_infinity or s2.includes_infinity,
        )
    finite = frozenset(a * b for a in s1.finite for b in s2.finite)
    scaled = (
        {k1 * k2 for k1 in s1.scaled for k2 in s2.scaled}
        | {f * k for f in s1.finite for k in s2.scaled}
        | {f * k for f in s2.finite for k in s1.scaled}
    )
    return SpectrumDescription(
        finite=finite,
        scaled=frozenset(scaled),
        includes_infinity=s1.includes_infinity or s2.includes_infinity,
    )
