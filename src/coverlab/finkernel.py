"""Finite carriers, subsets, covers, and the int-mask representation of
cover structures.

Everything downstream rests on one fact about finite carriers: the closure
of finitely many covers under the trivial cover, refinement, and pairwise
meet rules is exactly the set of covers refined by the meet of the
generating covers.  A structure is therefore stored as its canonical
generator, an ascending tuple of int masks (bit x for point x), with its
star table: each point's smallest neighbourhood, the union of the members
holding it, filled by the one downward walk that finds the generator.
``Carrier``, ``Subset`` and ``Cover`` are the API's argument and result
types, unpacked to masks once at the boundary.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Iterable, Iterator, Sequence

# Enumerating all covers is doubly exponential; this cap keeps desk-scale
# experiments honest about what they can afford.
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


def points_of(mask: int) -> list[int]:
    """The points of a mask, ascending: one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def union(masks: Iterable[int]) -> int:
    """The union of the masks."""
    return reduce(operator.or_, masks, 0)


def distinct_masks(masks: Iterable[int]) -> list[int]:
    """The distinct masks, ascending.  Sorted and grouped, not hashed: the
    hash of 1 << x is 2 ** (x % 61), so a set of wide masks probes long
    chains of equal hashes."""
    return [m for m, _ in itertools.groupby(sorted(masks))]


def shared_points(masks: Iterable[int]) -> int:
    """The mask of the points held by more than one of the masks."""
    seen = shared = 0
    for w in masks:
        shared |= seen & w
        seen |= w
    return shared


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
        return tuple(points_of(self.mask))

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
    return Cover.of_masks(c.carrier, {u.mask & v.mask for u in c.members for v in d.members})


def canonicalize(c: Cover) -> Cover:
    """The antichain of inclusion-maximal members of c.

    The result and c refine each other, so they generate the same
    structure; antichains make that representative unique.
    """
    return Cover.of_masks(c.carrier, maximal_masks(m.mask for m in c.members))


def maximal_masks(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal masks of a family, ascending."""
    masks = list(masks)
    return _walk(max(masks, default=0).bit_length(), masks)[0]


def _walk(n: int, masks: Iterable[int]) -> tuple[list[int], list[int]]:
    """The maximal masks of a family on n points, ascending, and their star
    table; a mask outside the points is refused.  A strict superset is
    larger and holds the subset's lowest point, so walking downward each
    mask meets only the kept masks at its lowest point, a repeated mask
    among them its first copy: O(k^2) at worst, O(k) for disjoint or
    chained masks."""
    ws = sorted(masks, reverse=True)
    if ws and (ws[0] >> n or ws[-1] < 0):
        raise ValueError("generator is not an ascending antichain")
    kept, star = [], [0] * n
    held: list[list[int]] = [[] for _ in star]  # point -> kept masks holding it
    for w in ws:
        # the empty mask lies inside every other mask
        larger = held[(w & -w).bit_length() - 1] if w else kept
        if larger and any(w & ~v == 0 for v in larger):
            continue
        kept.append(w)
        for x in points_of(w):
            held[x].append(w)
            star[x] |= w
    kept.reverse()
    return kept, star


@dataclass(frozen=True)
class FiniteCoverSpace:
    """The carrier {0, ..., size-1} with its canonical generator ``masks``,
    an ascending covering antichain, denoting {D : generator refines D}.
    ``star[x]`` is the union of the members holding x; ``carrier`` and
    ``generator`` are views in the boundary types.  The constructor checks
    the masks by the walk that finds a generator and fills its table;
    generators canonical by construction pass their table to ``_canonical``."""

    size: int
    masks: tuple[int, ...]
    star: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        masks = tuple(self.masks)
        kept, star = _walk(Carrier(self.size).size, masks)
        if kept != list(masks):
            raise ValueError("generator is not an ascending antichain")
        self._fill(self.size, masks, star)

    @classmethod
    def _canonical(cls, n: int, masks: tuple[int, ...], star: Sequence[int]) -> FiniteCoverSpace:
        """The space on n points of an ascending antichain and its star
        table, checked only for coverage."""
        return object.__new__(cls)._fill(n, masks, star)

    def _fill(self, n: int, masks: tuple[int, ...], star: Sequence[int]) -> FiniteCoverSpace:
        if masks[:1] == (0,):  # the walk keeps the empty mask only alone
            raise ValueError("generator is not an ascending antichain")
        if not all(star):
            raise ValueError("members do not cover the carrier")
        self.__dict__.update(size=n, masks=masks, star=tuple(star))
        return self

    @property
    def carrier(self) -> Carrier:
        return Carrier(self.size)

    @cached_property
    def generator(self) -> Cover:
        return Cover.of_masks(self.carrier, self.masks)


def generated_space(n: int, masks: Iterable[int]) -> FiniteCoverSpace:
    """The structure on n points generated by a covering family of masks."""
    kept, star = _walk(n if n > 0 else Carrier(n).size, masks)  # Carrier refuses n < 1
    return FiniteCoverSpace._canonical(n, tuple(kept), star)


def space_from_cover(cover: Cover) -> FiniteCoverSpace:
    """The structure generated by a single cover."""
    return generated_space(cover.carrier.size, (m.mask for m in cover.members))


def space_from_masks(n: int, masks: Iterable[Iterable[int]]) -> FiniteCoverSpace:
    """Convenience constructor from element lists, canonicalizing."""
    return generated_space(n, (Subset.of(Carrier(n), xs).mask for xs in masks))


def discrete(n: int) -> FiniteCoverSpace:
    """All covers are distinguished: generated by the singleton cover."""
    singletons = tuple([1 << x for x in range(Carrier(n).size)])
    return FiniteCoverSpace._canonical(n, singletons, singletons)


def indiscrete(n: int) -> FiniteCoverSpace:
    """Only covers containing the whole carrier: generated by {X}."""
    full = Carrier(n).full_mask
    return FiniteCoverSpace._canonical(n, (full,), (full,) * n)


def pair_index(i: int, j: int, ny: int) -> int:
    """Index of (i, j) in the product carrier ordering."""
    return i * ny + j


def product(x: FiniteCoverSpace, y: FiniteCoverSpace) -> FiniteCoverSpace:
    """Product space on the pair carrier, generated by member products
    (copies of v at u's rows), which form an antichain.

    If the result fails the regularity axiom (possible only when an input
    is a bare precover), the regular reflection is applied.
    """
    rows = [[pair_index(i, 0, y.size) for i in points_of(u)] for u in x.masks]
    members = (sum(v << r for r in row) for row in rows for v in y.masks)
    result = generated_space(x.size * y.size, members)
    from . import coverspace  # late import: reflection lives upstream

    if not coverspace.satisfies_cr(result):
        result = coverspace.regular_reflection(result)
    return result


def transfer(f: Sequence[int], y: FiniteCoverSpace) -> FiniteCoverSpace:
    """Pull y's structure back along the function table f : X -> Y.

    The result is the smallest structure making f structure-preserving;
    its generator is the canonicalized preimage of y's generator.
    """
    for v in f:
        if not 0 <= v < y.size:
            raise ValueError(f"table value {v} outside target carrier")
    return generated_space(len(f), preimage_masks(f, y))


def preimage_masks(f: Sequence[int], y: FiniteCoverSpace) -> list[int]:
    """The mask of f^{-1}(W) for each member W of y's generator, as the
    union of the fibres of f over W's points."""
    fibre = [0] * y.size
    for i, v in enumerate(f):
        fibre[v] |= 1 << i
    return [sum(fibre[v] for v in points_of(w)) for w in y.masks]


def all_canonical_covers(carrier: Carrier) -> list[Cover]:
    """Every covering antichain, i.e. every canonical generator."""
    _check_size(carrier.size, COVER_ENUM_LIMIT, "cover")
    full = carrier.full_mask
    return [
        Cover.of_masks(carrier, combo)
        for r in range(1, full + 1)
        for combo in itertools.combinations(range(1, full + 1), r)
        if union(combo) == full
        and not any(a != b and a & ~b == 0 for a in combo for b in combo)
    ]
