"""Decision procedures for cover-space axioms on finite carriers.

Distinguished-cover membership, the rather-below relations, regularity
checks, the regular reflection, properness, the induced topology, and
structure-preserving map checks.  All questions about a structure reduce
to refinement checks against its generator masks or to lookups in its
star table; each such shortcut is cross-checked against a
definition-level enumeration in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .finkernel import (
    Carrier,
    CarrierMismatchError,
    Cover,
    FiniteCoverSpace,
    Subset,
    distinct_masks,
    generated_space,
    maximal_masks,
    points_of,
    preimage_masks,
    shared_points,
)


class RegularityError(ValueError):
    """Raised when an operation requires the regularity axiom and it fails."""


@dataclass(frozen=True)
class SubbasePresentation:
    """An arbitrary finite list of covers presenting a precover structure."""

    carrier: Carrier
    covers: tuple[Cover, ...]

    def __post_init__(self) -> None:
        for c in self.covers:
            if c.carrier != self.carrier:
                raise CarrierMismatchError("subbase cover on a different carrier")


def close_subbase(b: SubbasePresentation) -> FiniteCoverSpace:
    return close_masks(b.carrier.size, ([m.mask for m in c.members] for c in b.covers))


# The most pairs a meet step of close_masks may form (meets so far times
# members of the next cover); pruning k meets takes up to k^2 steps.  On 30
# points, three covers of 27 random members (19,683 pairs) take 1.4 s, three
# of 31 (29,791) 2.4-4.9 s, four of 31 over 100 s.
MAX_MEET_PAIRS = 20_000


class MeetBudgetError(ValueError):
    """A meet step of close_masks would form more than MAX_MEET_PAIRS pairs."""


def close_masks(n: int, covers: Iterable[Sequence[int]]) -> FiniteCoverSpace:
    """The precover structure on n points generated by covers as masks.

    The closure under the trivial-cover, refinement, and meet rules is
    generated by the meet of all the covers (no covers: the indiscrete
    structure).  It need not satisfy the regularity axiom.  A meet step
    past MAX_MEET_PAIRS refuses before forming any of its pairs.  The first
    cover stands for its own meet with the carrier, so its masks must be
    distinct and lie in the carrier.
    """
    acc: Sequence[int] = [(1 << n) - 1 if n > 0 else Carrier(n).full_mask]  # Carrier refuses n < 1
    for i, c in enumerate(covers):
        if len(acc) * len(c) > MAX_MEET_PAIRS:
            raise MeetBudgetError(
                f"meeting {len(acc)} masks with a cover of {len(c)} members forms "
                f"{len(acc) * len(c)} pairs, more than {MAX_MEET_PAIRS}")
        acc = distinct_masks([u & v for u in acc for v in c]) if i else c
    return generated_space(n, acc)


def is_cauchy(s: FiniteCoverSpace, d: Cover | Iterable[Subset]) -> bool:
    """Whether the family d belongs to the structure of s.

    Decided by refinement against the generator.  A family refined by the
    generator necessarily covers the carrier, so non-covering families are
    never accepted.
    """
    members = list(d.members if isinstance(d, Cover) else d)
    if any(m.carrier.size != s.size for m in members):
        raise CarrierMismatchError("family on a different carrier")
    d_masks = [m.mask for m in members]
    return all(any(w & ~v == 0 for v in d_masks) for w in s.masks)


def rather_below(s: FiniteCoverSpace, v: Subset, u: Subset) -> bool:
    """V is rather below U: the family of subsets W with
    (W meets V implies W inside U) is distinguished.

    That family is downward closed, so refinement against the generator
    amounts to the implication on every member: the star of V (the union
    of its points' stars) lies inside U.  O(|V|).
    """
    _check_subset(s, v)
    _check_subset(s, u)
    outside = ~u.mask
    return not any(s.star[x] & outside for x in points_of(v.mask))


def satisfies_cr(s: FiniteCoverSpace) -> bool:
    """The regularity axiom: for every distinguished cover, the sets rather
    below some of its members form a distinguished family.

    It holds exactly when the generator is a partition.  Rather-below is
    monotone under enlargement, so the generator instance suffices: each
    generator member W needs a generator member U with W rather below U.
    That puts W inside U, so U = W in the antichain, and then every member
    meeting W lies inside W, so equals it: no point is shared.
    ``tests/helpers.py: satisfies_cr_oracle`` evaluates the generator
    instance and the tests compare the two.
    """
    return not shared_points(s.masks)


# On a finite carrier the strong forms are the plain ones: the generator
# refines {X \ V, U} exactly when every member misses V or lies inside U.
# Their definitions are the oracles of ``tests/helpers.py``.
strongly_rather_below = rather_below
is_strongly_regular = satisfies_cr


def regular_reflection(s: FiniteCoverSpace) -> FiniteCoverSpace:
    """The finest regular structure coarser than s.

    The regular structures are the partitions (``satisfies_cr``), and a
    partition is coarser than s exactly when every generator member lies
    inside one block.  The finest is the connected components of the
    overlap graph of the members: each grows from its lowest point by the
    stars of the points it reaches, each star read once.  A point's new
    star is its block.
    """
    blocks, star = [], [0] * s.size
    left = s.carrier.full_mask
    while left:
        block, grown = 0, left & -left
        while grown != block:
            fresh, block = grown & ~block, grown
            for x in points_of(fresh):
                grown |= s.star[x]
        blocks.append(block)
        left &= ~block
        for x in points_of(block):
            star[x] = block
    return FiniteCoverSpace._canonical(s.size, tuple(sorted(blocks)), star)


def is_proper(s: FiniteCoverSpace) -> bool:
    """A family is distinguished whenever adjoining the empty set makes it so.

    On an inhabited carrier the canonical generator has no empty member,
    so the empty set never absorbs a generator member and the check is
    vacuously true.  Kept as an operation for interface fidelity; the
    tests exercise the definition over all families.
    """
    return all(s.masks)


def is_neighborhood(s: FiniteCoverSpace, u: Subset, x: int) -> bool:
    """U is a neighborhood of x: {x} is rather below U."""
    return rather_below(s, Subset.of(s.carrier, [x]), u)


def neighborhood_base(s: FiniteCoverSpace, x: int) -> Subset:
    """The smallest neighborhood of x: its star, the union of all generator
    members containing x.  Every neighborhood of x is exactly a superset
    of it."""
    return Subset(s.carrier, s.star[x])


def interior(s: FiniteCoverSpace, u: Subset) -> Subset:
    """Points whose singleton is rather below u: whose star lies in u."""
    _check_subset(s, u)
    inner = [x for x in points_of(u.mask) if s.star[x] & ~u.mask == 0]
    return Subset.of(s.carrier, inner)


def is_open(s: FiniteCoverSpace, u: Subset) -> bool:
    return interior(s, u).mask == u.mask


def is_limit_point(s: FiniteCoverSpace, u: Subset, x: int) -> bool:
    """Every neighborhood of x intersects u; equivalently the smallest one does."""
    _check_subset(s, u)
    return bool(s.star[x] & u.mask)


def closure_of(s: FiniteCoverSpace, u: Subset) -> Subset:
    _check_subset(s, u)
    return Subset.of(s.carrier, [x for x, star in enumerate(s.star) if star & u.mask])


def is_closed(s: FiniteCoverSpace, u: Subset) -> bool:
    return closure_of(s, u).issubset(u)


def is_dense(s: FiniteCoverSpace, d: Subset) -> bool:
    return closure_of(s, d).mask == s.carrier.full_mask


@dataclass(frozen=True)
class FiniteTopology:
    """A finite topological space, stored as each point's minimal open
    neighbourhood: ``nbhd[x]`` is the smallest open holding x, an int mask.

    A finite topology is a preorder (Alexandrov 1937), so the table
    determines it: U is open exactly when the row of each of its points
    lies inside U.  Each row holds its point and the rows of its points.
    """

    size: int
    nbhd: tuple[int, ...]

    def __post_init__(self) -> None:
        nbhd, full = tuple(self.nbhd), Carrier(self.size).full_mask
        holds = (row >> x & 1 and row & ~full == 0 for x, row in enumerate(nbhd))
        if len(nbhd) != self.size or not all(holds):
            raise ValueError("each point needs one neighbourhood holding it")
        # rows shared by several points are checked once
        if any(nbhd[y] & ~row for row in distinct_masks(nbhd) for y in points_of(row)):
            raise ValueError("neighbourhoods are not transitive")
        object.__setattr__(self, "nbhd", nbhd)

    @property
    def carrier(self) -> Carrier:
        return Carrier(self.size)

    def is_open(self, u: Subset) -> bool:
        _check_subset(self, u)
        return not any(self.nbhd[x] & ~u.mask for x in points_of(u.mask))

    def interior(self, u: Subset) -> Subset:
        """The points whose row lies inside u, so the union of those rows."""
        _check_subset(self, u)
        inner = [x for x in points_of(u.mask) if self.nbhd[x] & ~u.mask == 0]
        return Subset.of(self.carrier, inner)

    def closure(self, u: Subset) -> Subset:
        """The points whose neighbourhood meets u."""
        _check_subset(self, u)
        return Subset.of(self.carrier, [x for x, row in enumerate(self.nbhd) if row & u.mask])

    def minimal_neighborhood(self, x: int) -> Subset:
        return Subset(self.carrier, self.nbhd[x])

    def rather_below(self, v: Subset, u: Subset) -> bool:
        # X must be covered by opens W with (W meets V implies W inside U);
        # minimal neighborhoods are the worst case.
        _check_subset(self, v)
        _check_subset(self, u)
        return not any(row & v.mask and row & ~u.mask for row in self.nbhd)

    def is_regular(self) -> bool:
        """Every open is covered by opens rather below it.  At y the row of y
        must hold every row meeting it, so each row holding y equals it: the
        distinct rows share no point."""
        return not shared_points(distinct_masks(self.nbhd))


def to_topology(s: FiniteCoverSpace) -> FiniteTopology:
    """The topology of open subsets induced by the structure of s.

    U is open when it holds the stars of its points, so the smallest open
    holding x is x grown by stars: its block in the regular reflection,
    which can be larger than its star when s is not regular.
    """
    return FiniteTopology(s.size, regular_reflection(s).star)


def from_topology(t: FiniteTopology) -> FiniteCoverSpace:
    """The cover space whose distinguished covers contain a neighborhood of
    every point: generated by the minimal open neighborhoods.

    The input topology must be regular, otherwise the result would violate
    the regularity axiom.
    """
    if not t.is_regular():
        raise RegularityError("input topology is not regular")
    return generated_space(t.size, t.nbhd)


def is_cover_map(
    f: Sequence[int], x: FiniteCoverSpace, y: FiniteCoverSpace
) -> bool:
    """Preimages of distinguished covers are distinguished.

    Checking y's generator suffices: preimage families of coarser covers
    are coarser.  x's generator refines the preimage family exactly when
    adding its members leaves the maximal members unchanged.  The direct
    test, each member of x inside some preimage, is quadratic: it took 35 s
    for ``locale roundtrip`` on 10,000 discrete points (Python 3.11 on a
    2-vCPU x86-64 VM), where the two walks keep it under its 2 s bound.
    """
    _check_table(f, x, y)
    pre = preimage_masks(f, y)
    return maximal_masks([*pre, *x.masks]) == maximal_masks(pre)


def is_embedding(
    f: Sequence[int], x: FiniteCoverSpace, y: FiniteCoverSpace
) -> bool:
    """f is a structure-preserving map and x carries the pulled-back
    structure: for the generator E of x, the pushed family
    Q = {V : exists U in E with f^{-1}(V) inside U} is distinguished in y.

    Closed form: the maximal preimages of y's generator members are
    exactly E.  Q is downward closed, so y's generator refines Q exactly
    when the preimage family refines E; being a cover map is the converse,
    and families refining each other have the same maximal members.  The
    tests compare this with the enumeration of Q over every subset of y.
    """
    _check_table(f, x, y)
    return maximal_masks(preimage_masks(f, y)) == list(x.masks)


def point_images_dense(
    f: Sequence[int], x: FiniteCoverSpace, y: FiniteCoverSpace
) -> bool:
    """The image of f is dense in y."""
    _check_table(f, x, y)
    image = Subset.of(y.carrier, set(f))
    return is_dense(y, image)


def _check_subset(s: FiniteCoverSpace | FiniteTopology, u: Subset) -> None:
    if u.carrier.size != s.size:
        raise CarrierMismatchError("subset on a different carrier")


def _check_table(f: Sequence[int], x: FiniteCoverSpace, y: FiniteCoverSpace) -> None:
    if len(f) != x.size:
        raise ValueError("function table has wrong length")
    for v in f:
        if not 0 <= v < y.size:
            raise ValueError(f"table value {v} outside target carrier")
