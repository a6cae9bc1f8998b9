"""Shared generators and small oracles for the test suite."""

from __future__ import annotations

import random

from coverlab import coverspace
from coverlab.finkernel import (
    Carrier,
    Cover,
    FiniteCoverSpace,
    Subset,
    all_canonical_covers,
    all_partitions,
    space_from_cover,
)


def random_cover(rng: random.Random, n: int, max_members: int = 4) -> Cover:
    """A random cover: random nonzero masks, patched to cover the carrier."""
    carrier = Carrier(n)
    full = carrier.full_mask
    masks = {rng.randrange(1, full + 1) for _ in range(rng.randint(1, max_members))}
    union = 0
    for m in masks:
        union |= m
    if union != full:
        masks.add(full & ~union)
    return Cover.of_masks(carrier, masks)


def random_precover_space(rng: random.Random, n: int) -> FiniteCoverSpace:
    """A random structure, not necessarily satisfying the regularity axiom."""
    return space_from_cover(random_cover(rng, n))


def random_partition_space(rng: random.Random, n: int) -> FiniteCoverSpace:
    """A random partition-generated structure; always satisfies regularity."""
    carrier = Carrier(n)
    labels = [rng.randint(0, n - 1) for _ in range(n)]
    blocks: dict[int, list[int]] = {}
    for x, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(x)
    return space_from_cover(
        Cover.of(carrier, [Subset.of(carrier, b) for b in blocks.values()])
    )


def random_subset(rng: random.Random, carrier: Carrier) -> Subset:
    return Subset(carrier, rng.randrange(0, carrier.full_mask + 1))


def cover_space_generators(n: int) -> list[Cover]:
    """Every canonical generator on n points whose structure satisfies the
    regularity axiom, i.e. every cover space on that carrier."""
    return [
        c
        for c in all_canonical_covers(Carrier(n))
        if coverspace.satisfies_cr(space_from_cover(c))
    ]


def all_spaces_up_to(n: int) -> list[FiniteCoverSpace]:
    """Every cover space with carrier size at most n."""
    out = []
    for k in range(1, n + 1):
        out.extend(space_from_cover(c) for c in cover_space_generators(k))
    return out


def all_precovers_up_to(n: int) -> list[FiniteCoverSpace]:
    """Every structure (regular or not) with carrier size at most n."""
    out = []
    for k in range(1, n + 1):
        out.extend(space_from_cover(c) for c in all_canonical_covers(Carrier(k)))
    return out


def all_cauchy_covers(s: FiniteCoverSpace) -> list[frozenset[Subset]]:
    """Every distinguished family of a small space, by brute force."""
    from coverlab.finkernel import all_families

    return [
        fam for fam in all_families(s.carrier) if coverspace.is_cauchy(s, fam)
    ]


def _submasks(m: int) -> list[int]:
    out, sub = [m], m
    while sub:
        sub = (sub - 1) & m
        out.append(sub)
    return out


def _rules_closed(
    masks: frozenset[int], gen_masks, srb_below: list[list[int]]
) -> bool:
    for u in range(len(srb_below)):
        if u in masks:
            continue
        if all(u & w in masks for w in gen_masks):
            return False
        if all(v in masks for v in srb_below[u]):
            return False
    return True


def is_ideal(
    masks: frozenset[int], gen_masks, srb_below: list[list[int]]
) -> bool:
    """Definition-level ideal test: contains the empty subset, downward
    closed, and closed under the generator-trace and strong rather-below
    rules."""
    if 0 not in masks:
        return False
    for m in masks:
        for sub in _submasks(m):
            if sub not in masks:
                return False
    return _rules_closed(masks, gen_masks, srb_below)


def locale_of_space_oracle(s: FiniteCoverSpace) -> set[frozenset[int]]:
    """Every ideal of the coverage presentation of s, by brute force.

    Downward-closed families are generated from antichains of masks, then
    filtered by rule closure; strong rather-below is tabulated from its
    definition.  Doubly exponential: 2^(2^n) candidates.
    """
    carrier = s.carrier
    full = carrier.full_mask
    gen_masks = [m.mask for m in s.generator.members]
    srb_below = [
        [
            v
            for v in range(full + 1)
            if coverspace.strongly_rather_below(
                s, Subset(carrier, v), Subset(carrier, u)
            )
        ]
        for u in range(full + 1)
    ]
    masks = list(range(full + 1))
    ideals = set()
    seen = set()
    for bits in range(1 << len(masks)):
        antichain = [m for k, m in enumerate(masks) if bits >> k & 1]
        if any(
            a != b and a & ~b == 0 for a in antichain for b in antichain
        ):
            continue
        down: set[int] = set()
        for m in antichain:
            down.update(_submasks(m))
        fam = frozenset(down)
        if fam in seen:
            continue
        seen.add(fam)
        if is_ideal(fam, gen_masks, srb_below):
            ideals.add(fam)
    return ideals


def partitions_are_the_cover_spaces(n: int) -> bool:
    """Sanity predicate used by a few tests: on a finite carrier the
    regular structures are exactly the partition-generated ones."""
    part = {frozenset(m.mask for m in c.members) for c in all_partitions(Carrier(n))}
    regs = {
        frozenset(m.mask for m in c.members) for c in cover_space_generators(n)
    }
    return part == regs
