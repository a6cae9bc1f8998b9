"""Cauchy filters on finite cover spaces and the completion construction.

On a finite carrier every filter is principal, so filters are stored by
their smallest member, and the constructions have closed forms over the
generator's masks and its star table:

- a regular representative is the union of the generator members
  containing the base;
- a filter is regular exactly when its base is rather below itself, and
  strongly regular likewise, since the two rather-below relations agree
  on a finite carrier;
- a space is complete exactly when it is separated: each Cauchy base is
  then a singleton, its own point filter, and the space is discrete;
- the completion of a regular space is its set of blocks, and the strong
  completion is the same space: weakly proper principal filters are proper;
- a dense lift sends each point to the single point of its pushed base.

The tests compare each closed form with a definition-level enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import coverspace
from .finkernel import (
    Carrier,
    CarrierMismatchError,
    Cover,
    FiniteCoverSpace,
    Subset,
    discrete,
    points_of,
    preimage_masks,
    transfer,
    union,
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


def _in_member(s: FiniteCoverSpace, mask: int) -> bool:
    """Some generator member contains the mask."""
    return any(mask & ~w == 0 for w in s.masks)


def is_cauchy_filter(s: FiniteCoverSpace, f: PrincipalFilter) -> bool:
    """Proper and meets every distinguished cover; by the subbase
    criterion it is enough that some generator member contains the base."""
    coverspace._check_subset(s, f.base)
    return f.proper and _in_member(s, f.base.mask)


def filters_equivalent(
    s: FiniteCoverSpace, f: PrincipalFilter, g: PrincipalFilter
) -> bool:
    """Every distinguished cover has a member lying in both filters;
    equivalently some generator member contains both bases."""
    coverspace._check_subset(s, f.base)
    return _in_member(s, (f.base | g.base).mask)


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
    mask = union(w for w in s.masks if f.base.mask & ~w == 0)
    return PrincipalFilter(s.carrier, Subset(s.carrier, mask))


def is_filter_regular(s: FiniteCoverSpace, f: PrincipalFilter) -> bool:
    """Every member contains a member rather below it.

    Rather-below gets easier as its left side shrinks and its right side
    grows, so some member is rather below U exactly when the base is, and
    that holds for every U exactly when the base is rather below itself.
    """
    return coverspace.rather_below(s, f.base, f.base)


def point_equiv(s: FiniteCoverSpace, x: int, y: int) -> bool:
    """Some member of every distinguished cover contains both points;
    decided on the generator: y lies in the star of x."""
    return bool(s.star[x] >> y & 1)


def is_separated(s: FiniteCoverSpace) -> bool:
    """Equivalent points are equal.  Two points are equivalent exactly
    when some generator member contains both (``point_equiv``), so every
    member must be a singleton: O(k) for k members."""
    return all(w & (w - 1) == 0 for w in s.masks)


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


def completion(s: FiniteCoverSpace) -> CompletionSpace:
    """The complete space of regular Cauchy filters with its unit map.

    Requires the regularity axiom; without it representatives need not be
    regular and the construction loses its universal property.  On a
    finite carrier the axiom means the generator is a partition
    (``coverspace.satisfies_cr``).  A Cauchy base then lies in exactly one
    block, and its regular representative, the union of the members
    containing it, is that block, which is rather below itself.  So the
    points are the blocks, the unit sends x to its block, and the
    structure is discrete on the blocks.
    """
    if not coverspace.satisfies_cr(s):
        raise coverspace.RegularityError(
            "completion requires the regularity axiom; reflect first"
        )
    carrier = s.carrier
    unit = [0] * s.size
    for i, b in enumerate(s.masks):
        for x in points_of(b):
            unit[x] = i
    points = tuple([Subset(carrier, b) for b in s.masks])
    return CompletionSpace(points, discrete(len(points)), tuple(unit))


# The strong and complete forms are the plain ones on a finite carrier, as
# the module docstring states; their definitions are the tests' oracles.
is_filter_strongly_regular = is_filter_regular
is_complete = is_separated
strong_completion = completion


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
    for w in s.masks:
        pick = next(m for m in members if w & ~m.mask == 0)
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

    A point p of y goes to the single point of its pushed filter's base
    g(f^{-1}(star(p))): z is complete, hence discrete, so that filter is
    equivalent to the point filter of q exactly when the base lies in
    {q}, and density makes the base inhabited.  ``tests/helpers.py:
    dense_lift_transport`` recomputes the answer through the
    member-enlargement description of point filters.
    """
    _check_lift_preconditions(f, x, y, g, z)
    # y is regular, so each star is a block: push each block's preimage
    bases = {
        w: union(1 << g[i] for i in points_of(pre))
        for w, pre in zip(y.masks, preimage_masks(f, y))
    }
    out = []
    for yp, star in enumerate(y.star):
        base = bases[star]
        if base & (base - 1):
            raise FilterError(
                f"filter at point {yp} matches 0 points; target is not complete"
            )
        out.append(base.bit_length() - 1)
    return tuple(out)


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
    return transfer(inclusion, s), inclusion

