"""Cauchy filters on finite cover spaces and the completion construction.

On a finite carrier every filter is principal, so filters are stored by
their smallest member, and the constructions have closed forms over the
generator's members:

- a regular representative is the union of the generator members
  containing the base;
- a filter is (strongly) regular exactly when its base is (strongly)
  rather below itself;
- a space is complete exactly when it is separated;
- the completion of a regular space is its set of blocks.

Extensions along dense embeddings are computed pointwise by filter
transport.  The tests compare each closed form with a definition-level
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from . import coverspace
from .finkernel import (
    Carrier,
    CarrierMismatchError,
    Cover,
    FiniteCoverSpace,
    Subset,
    discrete,
)


class FilterError(ValueError):
    """Raised when an operation requires a Cauchy filter and the input is not."""


class PreconditionError(ValueError):
    """Raised with the list of extension preconditions that failed."""

    def __init__(self, failures: list[str]):
        super().__init__("preconditions failed: " + ", ".join(failures))
        self.failures = failures


@dataclass(frozen=True)
class PrincipalFilter:
    """The filter of all supersets of ``base``.  Proper iff base is inhabited."""

    carrier: Carrier
    base: Subset

    def __post_init__(self) -> None:
        if self.base.carrier != self.carrier:
            raise CarrierMismatchError("filter base on a different carrier")

    def contains(self, u: Subset) -> bool:
        return self.base.issubset(u)

    @property
    def proper(self) -> bool:
        return self.base.inhabited


def principal(s: FiniteCoverSpace, elements) -> PrincipalFilter:
    return PrincipalFilter(s.carrier, Subset.of(s.carrier, elements))


def point_filter(s: FiniteCoverSpace, x: int) -> PrincipalFilter:
    """The neighborhood filter of x: supersets of the smallest neighborhood."""
    return PrincipalFilter(s.carrier, coverspace.neighborhood_base(s, x))


def is_cauchy_filter(s: FiniteCoverSpace, f: PrincipalFilter) -> bool:
    """Proper and meets every distinguished cover; by the subbase
    criterion it is enough that some generator member contains the base."""
    return f.proper and any(f.base.issubset(u) for u in s.generator.members)


def filters_equivalent(
    s: FiniteCoverSpace, f: PrincipalFilter, g: PrincipalFilter
) -> bool:
    """Every distinguished cover has a member lying in both filters;
    equivalently some generator member contains both bases."""
    joint = f.base | g.base
    return any(joint.issubset(u) for u in s.generator.members)


def regular_representative(
    s: FiniteCoverSpace, f: PrincipalFilter
) -> PrincipalFilter:
    """The unique regular filter equivalent to f.

    Closed form: the supersets of the union of all generator members
    containing the base.  ``tests/helpers.py:
    regular_representative_oracle`` computes the same filter from the
    definition (intersection of all Cauchy subfilters); the tests assert
    they agree.
    """
    if not is_cauchy_filter(s, f):
        raise FilterError("regular representative requires a Cauchy filter")
    mask = 0
    for u in s.generator.members:
        if f.base.issubset(u):
            mask |= u.mask
    return PrincipalFilter(s.carrier, Subset(s.carrier, mask))


def is_filter_regular(s: FiniteCoverSpace, f: PrincipalFilter) -> bool:
    """Every member contains a member rather below it.

    Rather-below gets easier as its left side shrinks and its right side
    grows, so some member is rather below U exactly when the base is, and
    that holds for every U exactly when the base is rather below itself.
    """
    return coverspace.rather_below(s, f.base, f.base)


def is_filter_strongly_regular(s: FiniteCoverSpace, f: PrincipalFilter) -> bool:
    """Every member contains a member strongly rather below it; by the
    same monotonicity, the base strongly rather below itself."""
    return coverspace.strongly_rather_below(s, f.base, f.base)


def point_equiv(s: FiniteCoverSpace, x: int, y: int) -> bool:
    """Some member of every distinguished cover contains both points;
    decided on the generator."""
    return any(u.contains(x) and u.contains(y) for u in s.generator.members)


def separated_char_conditions(
    s: FiniteCoverSpace, x: int, y: int
) -> tuple[bool, ...]:
    """The seven equivalent formulations of point equivalence, evaluated
    independently.  The tests assert they are mutually equal."""
    nx = coverspace.neighborhood_base(s, x)
    ny = coverspace.neighborhood_base(s, y)
    fx, fy = point_filter(s, x), point_filter(s, y)
    return (
        ny.issubset(nx),  # x's neighborhood filter inside y's
        filters_equivalent(s, fx, fy),
        nx == ny,
        nx.contains(y),  # every neighborhood of x contains y
        nx.intersects(ny),
        any(nx.issubset(u) and ny.issubset(u) for u in s.generator.members),
        point_equiv(s, x, y),
    )


def is_separated(s: FiniteCoverSpace) -> bool:
    """Equivalent points are equal.  Two points are equivalent exactly
    when some generator member contains both (``point_equiv``), so every
    member must be a singleton: O(k) for k members."""
    return all(w.mask & (w.mask - 1) == 0 for w in s.generator.members)


def is_complete(s: FiniteCoverSpace) -> bool:
    """Separated, and every Cauchy filter is equivalent to a point filter.

    On a finite carrier this is separation alone: separated means every
    generator member is a singleton, so the Cauchy bases are the
    singletons, each its own point filter.
    """
    return is_separated(s)


@dataclass(frozen=True)
class CompletionSpace:
    """The space of regular Cauchy filters.

    ``points`` lists the representative bases in ascending mask order;
    ``structure`` lives on the point carrier, generated by the images of
    the generator members; ``unit`` sends a carrier point to the index of
    its neighborhood filter's representative.
    """

    points: tuple[Subset, ...]
    structure: FiniteCoverSpace
    unit: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.points)


def _build_completion(s: FiniteCoverSpace, regular_check) -> CompletionSpace:
    """The completion of a space whose generator is a partition.

    The callers check (strong) regularity, which on a finite carrier means
    the generator is a partition (``coverspace.satisfies_cr``).  A Cauchy
    base then lies in exactly one block, and its regular representative,
    the union of the members containing it, is that block.  So the points
    are the blocks, the unit sends x to its block, and the structure is
    discrete on the blocks.
    """
    points = s.generator.sorted_members()
    unit = [0] * s.size
    for i, b in enumerate(points):
        if not regular_check(s, PrincipalFilter(s.carrier, b)):
            raise FilterError(f"representative {b!r} fails its regularity condition")
        for x in b.members():
            unit[x] = i
    return CompletionSpace(points, discrete(len(points)), tuple(unit))


def completion(s: FiniteCoverSpace) -> CompletionSpace:
    """The complete space of regular Cauchy filters with its unit map.

    Requires the regularity axiom; without it representatives need not be
    regular and the construction loses its universal property.
    """
    if not coverspace.satisfies_cr(s):
        raise coverspace.RegularityError(
            "completion requires the regularity axiom; reflect first"
        )
    return _build_completion(s, is_filter_regular)


def strong_completion(s: FiniteCoverSpace) -> CompletionSpace:
    """Completion built from strongly regular weakly Cauchy filters.

    On a finite carrier weakly proper principal filters are proper and the
    two rather-below relations coincide, so this is pointwise identical to
    ``completion``; the construction still runs the strong conditions and
    the tests assert the coincidence.
    """
    if not coverspace.is_strongly_regular(s):
        raise coverspace.RegularityError(
            "strong completion requires strong regularity"
        )
    return _build_completion(s, is_filter_strongly_regular)


def finite_subcover(s: FiniteCoverSpace, c: Cover) -> list[Subset]:
    """A finite covering selection from a distinguished cover: one member
    per generator member, smallest first.  Witnesses total boundedness."""
    members = sorted(
        c.members if isinstance(c, Cover) else c,
        key=lambda m: (bin(m.mask).count("1"), m.mask),
    )
    if not coverspace.is_cauchy(s, members):
        raise FilterError("finite subcover requires a distinguished cover")
    chosen: list[Subset] = []
    for w in s.generator.sorted_members():
        pick = next(m for m in members if w.issubset(m))
        if pick not in chosen:
            chosen.append(pick)
    return chosen


def dense_lift(
    f: Sequence[int],
    x: FiniteCoverSpace,
    y: FiniteCoverSpace,
    g: Sequence[int],
    z: FiniteCoverSpace,
) -> tuple[int, ...]:
    """Extend g along the dense embedding f to a map on y.

    For each point of y, transport its neighborhood filter back along f,
    push it forward along g, and take the unique point of z equivalent to
    the result.  ``tests/helpers.py: dense_lift_transport`` recomputes the
    answer through the member-enlargement description of point filters;
    the tests assert the two agree, that the extension restricts to g, and
    that it is a structure-preserving map.
    """
    _check_lift_preconditions(f, x, y, g, z)
    out = []
    for yp in y.carrier.elements():
        base_z = _pushed_base(f, x, g, z, y, yp)
        candidates = [
            zp
            for zp in z.carrier.elements()
            if filters_equivalent(
                z, PrincipalFilter(z.carrier, base_z), point_filter(z, zp)
            )
        ]
        if len(candidates) != 1:
            raise FilterError(
                f"filter at point {yp} matches {len(candidates)} points; "
                "target is not complete"
            )
        out.append(candidates[0])
    return tuple(out)


def _pushed_base(f, x, g, z, y, yp) -> Subset:
    ny = coverspace.neighborhood_base(y, yp)
    pulled = [i for i in x.carrier.elements() if ny.contains(f[i])]
    return Subset.of(z.carrier, {g[i] for i in pulled})


def _check_lift_preconditions(f, x, y, g, z) -> None:
    failures = []
    # the transport below reads neighborhood filters off smallest
    # neighborhoods, which describes them only under the regularity axiom
    if not coverspace.satisfies_cr(x):
        failures.append("x does not satisfy the regularity axiom")
    if not coverspace.satisfies_cr(y):
        failures.append("y does not satisfy the regularity axiom")
    if not coverspace.is_embedding(f, x, y):
        failures.append("f is not an embedding")
    if not coverspace.point_images_dense(f, x, y):
        failures.append("f is not dense")
    if not coverspace.is_cover_map(g, x, z):
        failures.append("g is not a cover map")
    if not is_complete(z):
        failures.append("z is not complete")
    if failures:
        raise PreconditionError(failures)


def subspace(
    s: FiniteCoverSpace, u: Subset
) -> tuple[FiniteCoverSpace, tuple[int, ...]]:
    """The transferred structure on an inhabited subset, with the inclusion
    table back into s."""
    if not u.inhabited:
        raise ValueError("subspace carrier must be inhabited")
    inclusion = u.members()
    from .finkernel import transfer

    return transfer(inclusion, s), inclusion


def spaces_isomorphic(a: FiniteCoverSpace, b: FiniteCoverSpace) -> bool:
    """Whether some bijection of carriers matches the canonical generators."""
    if a.size != b.size:
        return False
    sizes_a = sorted(bin(m.mask).count("1") for m in a.generator.members)
    sizes_b = sorted(bin(m.mask).count("1") for m in b.generator.members)
    if sizes_a != sizes_b:
        return False
    b_masks = {m.mask for m in b.generator.members}
    for perm in permutations(range(a.size)):
        mapped = set()
        for m in a.generator.members:
            mask = 0
            for i in m.members():
                mask |= 1 << perm[i]
            mapped.add(mask)
        if mapped == b_masks:
            return True
    return False
