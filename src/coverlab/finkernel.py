"""Finite carriers, subsets, covers, and the principal representation of
cover structures.

Everything downstream rests on one fact about finite carriers: the closure
of finitely many covers under the trivial cover, refinement, and pairwise
meet rules is exactly the set of covers refined by the meet of the
generating covers.  A structure is therefore stored as a single canonical
generator cover (an antichain), and membership questions reduce to
refinement checks against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

# Enumerating all subsets of a carrier is exponential; enumerating all
# covers is doubly exponential.  These caps keep desk-scale experiments
# honest about what they can afford.
SUBSET_ENUM_LIMIT = 12
COVER_ENUM_LIMIT = 4


class CarrierMismatchError(ValueError):
    """Raised when an operation mixes values over different carriers."""


class CarrierSizeError(ValueError):
    """Raised when a carrier exceeds the enumeration guard for an operation."""


def _check_size(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise CarrierSizeError(
            f"carrier size {n} exceeds the {what} enumeration limit {limit}"
        )


@dataclass(frozen=True)
class Carrier:
    """A finite set {0, ..., size-1}.  Empty carriers are rejected."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("carrier must be inhabited")

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def elements(self) -> range:
        return range(self.size)


@dataclass(frozen=True)
class Subset:
    """A subset of a carrier, stored as a bitmask."""

    carrier: Carrier
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask > self.carrier.full_mask:
            raise ValueError(f"mask {self.mask:#x} out of range for carrier")

    @staticmethod
    def of(carrier: Carrier, elements: Iterable[int]) -> "Subset":
        mask = 0
        for x in elements:
            if not 0 <= x < carrier.size:
                raise ValueError(f"element {x} outside carrier of size {carrier.size}")
            mask |= 1 << x
        return Subset(carrier, mask)

    @staticmethod
    def empty(carrier: Carrier) -> "Subset":
        return Subset(carrier, 0)

    @staticmethod
    def full(carrier: Carrier) -> "Subset":
        return Subset(carrier, carrier.full_mask)

    def members(self) -> tuple[int, ...]:
        return tuple(x for x in self.carrier.elements() if self.mask >> x & 1)

    def contains(self, x: int) -> bool:
        return bool(self.mask >> x & 1)

    @property
    def inhabited(self) -> bool:
        return self.mask != 0

    def intersects(self, other: "Subset") -> bool:
        self._same_carrier(other)
        return bool(self.mask & other.mask)

    def issubset(self, other: "Subset") -> bool:
        self._same_carrier(other)
        return self.mask & ~other.mask == 0

    def __le__(self, other: "Subset") -> bool:
        return self.issubset(other)

    def __and__(self, other: "Subset") -> "Subset":
        self._same_carrier(other)
        return Subset(self.carrier, self.mask & other.mask)

    def __or__(self, other: "Subset") -> "Subset":
        self._same_carrier(other)
        return Subset(self.carrier, self.mask | other.mask)

    def complement(self) -> "Subset":
        return Subset(self.carrier, self.carrier.full_mask & ~self.mask)

    def _same_carrier(self, other: "Subset") -> None:
        if self.carrier != other.carrier:
            raise CarrierMismatchError("subsets live on different carriers")

    def __repr__(self) -> str:
        return "{" + ",".join(str(x) for x in self.members()) + "}"


@dataclass(frozen=True)
class Cover:
    """A set of subsets whose union is the whole carrier.

    Duplicates are removed by construction.  The empty subset may occur as
    a member; ``canonicalize`` drops it along with every other
    non-maximal member.
    """

    carrier: Carrier
    members: frozenset[Subset]

    def __post_init__(self) -> None:
        union = 0
        for m in self.members:
            if m.carrier != self.carrier:
                raise CarrierMismatchError("cover member on a different carrier")
            union |= m.mask
        if union != self.carrier.full_mask:
            raise ValueError("members do not cover the carrier")

    @staticmethod
    def of(carrier: Carrier, subsets: Iterable[Subset]) -> "Cover":
        return Cover(carrier, frozenset(subsets))

    @staticmethod
    def of_masks(carrier: Carrier, masks: Iterable[int]) -> "Cover":
        return Cover(carrier, frozenset(Subset(carrier, m) for m in masks))

    def sorted_members(self) -> tuple[Subset, ...]:
        return tuple(sorted(self.members, key=lambda s: s.mask))

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.sorted_members())

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(s) for s in self) + "}"


def refines(c: Cover, d: Cover | Iterable[Subset]) -> bool:
    """True iff every member of c is contained in some member of d."""
    d_members = list(d.members if isinstance(d, Cover) else d)
    for m in d_members:
        if isinstance(c, Cover) and m.carrier != c.carrier:
            raise CarrierMismatchError("refinement across different carriers")
    return all(any(u.mask & ~v.mask == 0 for v in d_members) for u in c.members)


def meet(c: Cover, d: Cover) -> Cover:
    """The cover of pairwise intersections {U ∩ V : U in c, V in d}."""
    if c.carrier != d.carrier:
        raise CarrierMismatchError("meet across different carriers")
    return Cover.of_masks(
        c.carrier, {u.mask & v.mask for u in c.members for v in d.members}
    )


def canonicalize(c: Cover) -> Cover:
    """The antichain of inclusion-maximal members of c.

    The result and c refine each other, so they generate the same
    structure; antichains make that representative unique.
    """
    return Cover.of_masks(c.carrier, maximal_masks(m.mask for m in c.members))


def maximal_masks(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal masks of a family, ascending."""
    family = set(masks)
    return sorted(
        m for m in family if not any(other != m and m & ~other == 0 for other in family)
    )


@dataclass(frozen=True)
class FiniteCoverSpace:
    """A finite carrier with one canonical generator cover.

    The structure it denotes is {D : generator refines D}: the closure of
    the generator under the trivial-cover, refinement, and meet rules.
    The generator must be a covering antichain.
    """

    carrier: Carrier
    generator: Cover

    def __post_init__(self) -> None:
        if self.generator.carrier != self.carrier:
            raise CarrierMismatchError("generator on a different carrier")
        canon = canonicalize(self.generator)
        if canon.members != self.generator.members:
            raise ValueError("generator is not a canonical antichain")

    @property
    def size(self) -> int:
        return self.carrier.size

    def __repr__(self) -> str:
        return f"FiniteCoverSpace(n={self.size}, generator={self.generator!r})"


def space_from_cover(cover: Cover) -> FiniteCoverSpace:
    """The structure generated by a single cover."""
    return FiniteCoverSpace(cover.carrier, canonicalize(cover))


def space_from_masks(n: int, masks: Iterable[Iterable[int]]) -> FiniteCoverSpace:
    """Convenience constructor from element lists, canonicalizing."""
    carrier = Carrier(n)
    return space_from_cover(
        Cover.of(carrier, [Subset.of(carrier, xs) for xs in masks])
    )


def discrete(n: int) -> FiniteCoverSpace:
    """All covers are distinguished: generated by the singleton cover."""
    carrier = Carrier(n)
    return FiniteCoverSpace(
        carrier, Cover.of_masks(carrier, {1 << x for x in range(n)})
    )


def indiscrete(n: int) -> FiniteCoverSpace:
    """Only covers containing the whole carrier: generated by {X}."""
    carrier = Carrier(n)
    return FiniteCoverSpace(carrier, Cover.of_masks(carrier, {carrier.full_mask}))


def pair_index(i: int, j: int, ny: int) -> int:
    """Index of (i, j) in the product carrier ordering."""
    return i * ny + j


def product_subset(u: Subset, v: Subset, carrier: Carrier) -> Subset:
    ny = v.carrier.size
    mask = 0
    for i in u.members():
        for j in v.members():
            mask |= 1 << pair_index(i, j, ny)
    return Subset(carrier, mask)


def product(x: FiniteCoverSpace, y: FiniteCoverSpace) -> FiniteCoverSpace:
    """Product space on the pair carrier, generated by member products.

    If the resulting generator fails the regularity axiom (possible only
    when an input is a bare precover), the regular reflection is applied.
    """
    carrier = Carrier(x.size * y.size)
    members = {
        product_subset(u, v, carrier)
        for u in x.generator.members
        for v in y.generator.members
    }
    result = space_from_cover(Cover.of(carrier, members))
    from . import coverspace  # late import: reflection lives upstream

    if not coverspace.satisfies_cr(result):
        result = coverspace.regular_reflection(result)
    return result


def transfer(f: Sequence[int], y: FiniteCoverSpace) -> FiniteCoverSpace:
    """Pull y's structure back along the function table f : X -> Y.

    The result is the smallest structure making f structure-preserving;
    its generator is the canonicalized preimage of y's generator.
    """
    carrier = Carrier(len(f))
    for v in f:
        if not 0 <= v < y.size:
            raise ValueError(f"table value {v} outside target carrier")
    return space_from_cover(Cover.of_masks(carrier, preimage_masks(f, y)))


def preimage_masks(f: Sequence[int], y: FiniteCoverSpace) -> list[int]:
    """The mask of f^{-1}(W) for each member W of y's generator."""
    return [
        sum(1 << i for i, v in enumerate(f) if w.mask >> v & 1)
        for w in y.generator.members
    ]


def all_subsets(carrier: Carrier, max_carrier: int | None = None) -> list[Subset]:
    """Every subset of the carrier, by ascending mask.  Guarded."""
    _check_size(carrier.size, max_carrier or SUBSET_ENUM_LIMIT, "subset")
    return [Subset(carrier, m) for m in range(carrier.full_mask + 1)]


def all_families(
    carrier: Carrier, max_carrier: int | None = None
) -> Iterator[frozenset[Subset]]:
    """Every family of subsets (covering or not).  Doubly exponential."""
    _check_size(carrier.size, max_carrier or COVER_ENUM_LIMIT, "cover")
    subsets = all_subsets(carrier, max_carrier=carrier.size)
    for bits in range(1 << len(subsets)):
        yield frozenset(s for k, s in enumerate(subsets) if bits >> k & 1)


def all_covers(carrier: Carrier, max_carrier: int | None = None) -> Iterator[Cover]:
    """Every cover of the carrier.  Doubly exponential; guarded."""
    for family in all_families(carrier, max_carrier=max_carrier):
        union = 0
        for s in family:
            union |= s.mask
        if union == carrier.full_mask:
            yield Cover(carrier, family)


def all_canonical_covers(
    carrier: Carrier, max_carrier: int | None = None
) -> list[Cover]:
    """Every covering antichain, i.e. every canonical generator."""
    _check_size(carrier.size, max_carrier or COVER_ENUM_LIMIT, "cover")
    nonempty = [m for m in range(1, carrier.full_mask + 1)]
    out = []
    for r in range(1, len(nonempty) + 1):
        for combo in itertools.combinations(nonempty, r):
            union = 0
            for m in combo:
                union |= m
            if union != carrier.full_mask:
                continue
            if any(
                a != b and a & ~b == 0 for a in combo for b in combo
            ):
                continue
            out.append(Cover.of_masks(carrier, combo))
    return out


def all_partitions(carrier: Carrier, max_carrier: int | None = None) -> list[Cover]:
    """Every partition of the carrier into nonempty blocks, as covers."""
    _check_size(carrier.size, max_carrier or SUBSET_ENUM_LIMIT, "partition")
    n = carrier.size

    def rec(i: int, blocks: list[list[int]]) -> Iterator[list[list[int]]]:
        if i == n:
            yield [b[:] for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    out = []
    for blocks in rec(0, []):
        out.append(
            Cover.of(carrier, [Subset.of(carrier, b) for b in blocks])
        )
    return out
