"""Extended naturals: binary sequences with at most one set bit.

The completion of the naturals under the tail-cover structure has one
point per natural plus a point at infinity.  Operationally an extended
natural is such a bit sequence; a natural sets exactly its own bit and
infinity sets none.  The conversions to and from filters on the naturals
work on truncated data: a finite bit prefix plus coded subsets that are
finite sets with an optional tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class ExtendedNat:
    """index = None encodes the all-zero sequence (the point at infinity)."""

    index: int | None

    @staticmethod
    def of(n: int) -> "ExtendedNat":
        if n < 0:
            raise ValueError("index must be a natural number")
        return ExtendedNat(n)

    @staticmethod
    def infinity() -> "ExtendedNat":
        return ExtendedNat(None)

    def bit(self, k: int) -> int:
        return 1 if self.index == k else 0

    def prefix(self, horizon: int) -> tuple[int, ...]:
        return tuple([self.bit(k) for k in range(horizon)])


@dataclass(frozen=True)
class NatSet:
    """A decidably-coded subset of the naturals: a finite part plus an
    optional upward-closed tail."""

    finite: frozenset[int]
    tail_from: int | None = None

    def contains(self, n: int) -> bool:
        if n in self.finite:
            return True
        return self.tail_from is not None and n >= self.tail_from


FilterMember = Callable[[NatSet], bool]


def point_filter_member(n: int) -> FilterMember:
    """Membership oracle of the filter of sets containing n."""
    return lambda u: u.contains(n)


def tail_filter_member() -> FilterMember:
    """Membership oracle of the filter of sets containing some full tail."""
    return lambda u: u.tail_from is not None


def filter_of_extnat(x: ExtendedNat, horizon: int) -> FilterMember:
    """The filter encoded by an extended natural, evaluated on coded sets.

    A set belongs if it contains a position where the sequence is one, or
    it contains a full tail below which the sequence is all zero.  Only
    the prefix up to the horizon is consulted; queries needing more raise.
    """

    def member(u: NatSet) -> bool:
        for n in sorted(u.finite):
            if n >= horizon:
                raise ValueError(f"query at {n} exceeds truncation horizon {horizon}")
            if x.bit(n) == 1:
                return True
        if u.tail_from is not None:
            if u.tail_from > horizon:
                raise ValueError(
                    f"tail start {u.tail_from} exceeds truncation horizon {horizon}"
                )
            if x.index is not None and x.index >= u.tail_from:
                return True
            return all(x.bit(n) == 0 for n in range(u.tail_from))
        return False

    return member


def extnat_of_filter(member: FilterMember, horizon: int) -> tuple[int, ...]:
    """Read the bit sequence back off a filter: bit n is set exactly when
    the singleton at n belongs.  Returns the truncated representation."""
    return tuple([1 if member(NatSet(frozenset({n}))) else 0 for n in range(horizon)])
