"""Shared generators and small oracles for the test suite."""

from __future__ import annotations

import math
import random
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations
from typing import Iterator

from coverlab import cauchy, coverspace, xreal
from coverlab.finkernel import (
    COVER_ENUM_LIMIT,
    SUBSET_ENUM_LIMIT,
    Carrier,
    Cover,
    FiniteCoverSpace,
    Subset,
    _check_size,
    all_canonical_covers,
    all_subsets,
    meet,
    points_of,
    refines,
    space_from_cover,
)


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


def maximal_masks_oracle(masks) -> list[int]:
    """The inclusion-maximal masks of a family, ascending: every distinct
    mask compared with every other."""
    family = set(masks)
    return sorted(
        m for m in family if not any(o != m and m & ~o == 0 for o in family)
    )


def rather_below_scan(s: FiniteCoverSpace, v: Subset, u: Subset) -> bool:
    """Rather-below by the member scan: every generator member meeting v
    lies inside u."""
    return all(
        (not w.intersects(v)) or w.issubset(u) for w in s.generator.members
    )


def strongly_rather_below_oracle(s: FiniteCoverSpace, v: Subset, u: Subset) -> bool:
    """Strong rather-below from its definition: {X \\ V, U} is
    distinguished."""
    return coverspace.is_cauchy(s, [v.complement(), u])


def neighborhood_base_scan(s: FiniteCoverSpace, x: int) -> Subset:
    """The union of the generator members holding x, by the member scan."""
    mask = 0
    for w in s.generator.members:
        if w.contains(x):
            mask |= w.mask
    return Subset(s.carrier, mask)


def separated_char_conditions(
    s: FiniteCoverSpace, x: int, y: int
) -> tuple[bool, ...]:
    """The seven equivalent formulations of point equivalence, evaluated
    independently.  The tests assert they are mutually equal."""
    nx = coverspace.neighborhood_base(s, x)
    ny = coverspace.neighborhood_base(s, y)
    fx, fy = cauchy.point_filter(s, x), cauchy.point_filter(s, y)
    return (
        ny.issubset(nx),  # x's neighborhood filter inside y's
        cauchy.filters_equivalent(s, fx, fy),
        nx == ny,
        nx.contains(y),  # every neighborhood of x contains y
        nx.intersects(ny),
        any(nx.issubset(u) and ny.issubset(u) for u in s.generator.members),
        cauchy.point_equiv(s, x, y),
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


@lru_cache(maxsize=None)
def _canonical_covers(n: int) -> tuple[Cover, ...]:
    return tuple(all_canonical_covers(Carrier(n)))


def satisfies_cr_oracle(s: FiniteCoverSpace) -> bool:
    """The regularity axiom evaluated on the generator: every generator
    member is rather below some generator member."""
    return all(
        any(coverspace.rather_below(s, w, u) for u in s.generator.members)
        for w in s.generator.members
    )


def is_strongly_regular_oracle(s: FiniteCoverSpace) -> bool:
    """Strong regularity evaluated on the generator."""
    return all(
        any(strongly_rather_below_oracle(s, w, u) for u in s.generator.members)
        for w in s.generator.members
    )


def cr_holds_for_cover(s: FiniteCoverSpace, c) -> bool:
    """Definition-level regularity instance: the rather-below expansion of
    the family c is distinguished."""
    members = list(c.members if isinstance(c, Cover) else c)
    expansion = [
        w
        for w in all_subsets(s.carrier)
        if any(coverspace.rather_below(s, w, u) for u in members)
    ]
    return coverspace.is_cauchy(s, expansion)


def is_separated_oracle(s: FiniteCoverSpace) -> bool:
    """No two distinct points are equivalent, tried pair by pair."""
    return all(
        not cauchy.point_equiv(s, x, y)
        for x in s.carrier.elements()
        for y in s.carrier.elements()
        if x != y
    )


def is_embedding_oracle(f, x: FiniteCoverSpace, y: FiniteCoverSpace) -> bool:
    """A cover map whose pushed family {V : f^{-1}(V) inside some member of
    x's generator}, enumerated over every subset of y, is distinguished."""
    if not coverspace.is_cover_map(f, x, y):
        return False
    pushed = []
    for v in all_subsets(y.carrier):
        pre = 0
        for i, j in enumerate(f):
            if v.contains(j):
                pre |= 1 << i
        if any(pre & ~u.mask == 0 for u in x.generator.members):
            pushed.append(v)
    return coverspace.is_cauchy(y, pushed)


def cover_space_generators(n: int) -> list[Cover]:
    """Every canonical generator on n points whose structure satisfies the
    regularity axiom, i.e. every cover space on that carrier."""
    return [
        c
        for c in _canonical_covers(n)
        if satisfies_cr_oracle(space_from_cover(c))
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
        out.extend(space_from_cover(c) for c in _canonical_covers(k))
    return out


def all_cauchy_covers(s: FiniteCoverSpace) -> list[frozenset[Subset]]:
    """Every distinguished family of a small space, by brute force."""
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


@lru_cache(maxsize=None)
def down_closed_families(size: int) -> tuple[frozenset[int], ...]:
    """Every downward-closed family of masks over a carrier of this size,
    generated from the antichains of masks.  They do not depend on the
    structure, so each size is walked once.  Doubly exponential: 2^(2^n)
    candidates."""
    masks = list(range(1 << size))
    families = {}
    for bits in range(1 << len(masks)):
        antichain = [m for k, m in enumerate(masks) if bits >> k & 1]
        if any(
            a != b and a & ~b == 0 for a in antichain for b in antichain
        ):
            continue
        down: set[int] = set()
        for m in antichain:
            down.update(_submasks(m))
        families.setdefault(frozenset(down), None)
    return tuple(families)


def locale_of_space_oracle(s: FiniteCoverSpace) -> set[frozenset[int]]:
    """Every ideal of the coverage presentation of s, by brute force.

    The downward-closed families of the carrier's size are filtered by
    rule closure; strong rather-below is tabulated from its definition.
    """
    carrier = s.carrier
    full = carrier.full_mask
    gen_masks = [m.mask for m in s.generator.members]
    srb_below = [
        [
            v
            for v in range(full + 1)
            if strongly_rather_below_oracle(s, Subset(carrier, v), Subset(carrier, u))
        ]
        for u in range(full + 1)
    ]
    return {
        fam for fam in down_closed_families(carrier.size)
        if is_ideal(fam, gen_masks, srb_below)
    }


def partitions_are_the_cover_spaces(n: int) -> bool:
    """Sanity predicate used by a few tests: on a finite carrier the
    regular structures are exactly the partition-generated ones."""
    part = {frozenset(m.mask for m in c.members) for c in all_partitions(Carrier(n))}
    regs = {
        frozenset(m.mask for m in c.members) for c in cover_space_generators(n)
    }
    return part == regs


def regular_reflection_oracle(s: FiniteCoverSpace) -> FiniteCoverSpace:
    """The finest regular structure coarser than s, by brute force: the
    meet of every canonical cover refined by the generator whose structure
    satisfies the regularity axiom.  Carriers of at most 4 points."""
    acc = Cover.of_masks(s.carrier, {s.carrier.full_mask})
    for e in _canonical_covers(s.size):
        if refines(s.generator, e) and satisfies_cr_oracle(space_from_cover(e)):
            acc = meet(acc, e)
    return space_from_cover(acc)


def filter_refinable_oracle(s: FiniteCoverSpace, f, below) -> bool:
    """Every member of the principal filter f contains a member ``below``
    it, checked over every pair of supersets of the base."""
    supersets = [u for u in all_subsets(s.carrier) if f.base.issubset(u)]
    return all(any(below(s, v, u) for v in supersets) for u in supersets)


def is_complete_oracle(s: FiniteCoverSpace) -> bool:
    """Separated, and every Cauchy filter (one per subset of the carrier)
    is equivalent to some point filter."""
    if not is_separated_oracle(s):
        return False
    for a in all_subsets(s.carrier):
        f = cauchy.PrincipalFilter(s.carrier, a)
        if not cauchy.is_cauchy_filter(s, f):
            continue
        if not any(
            cauchy.filters_equivalent(s, f, cauchy.point_filter(s, x))
            for x in s.carrier.elements()
        ):
            return False
    return True


def completion_oracle(s: FiniteCoverSpace, strong: bool = False):
    """The completion from its definition: the regular representatives of
    every Cauchy filter, deduplicated and checked for filter regularity
    over all supersets, with the generator and unit read off them.
    ``strong`` runs the strong conditions.  Raises like the library when
    the space fails its regularity precondition."""
    if strong:
        regular, below = is_strongly_regular_oracle, strongly_rather_below_oracle
    else:
        regular, below = satisfies_cr_oracle, coverspace.rather_below
    if not regular(s):
        raise coverspace.RegularityError("regularity precondition fails")
    bases = set()
    for a in all_subsets(s.carrier):
        f = cauchy.PrincipalFilter(s.carrier, a)
        if cauchy.is_cauchy_filter(s, f):
            bases.add(cauchy.regular_representative(s, f).base)
    points = tuple(sorted(bases, key=lambda b: b.mask))
    for b in points:
        if not filter_refinable_oracle(s, cauchy.PrincipalFilter(s.carrier, b), below):
            raise cauchy.FilterError(f"representative {b!r} fails its regularity condition")
    point_carrier = Carrier(len(points))
    images = set()
    for u in s.generator.members:
        mask = 0
        for i, base in enumerate(points):
            if base.issubset(u):
                mask |= 1 << i
        images.add(Subset(point_carrier, mask))
    index = {b: i for i, b in enumerate(points)}
    unit = tuple(
        index[cauchy.regular_representative(s, cauchy.point_filter(s, x)).base]
        for x in s.carrier.elements()
    )
    return cauchy.CompletionSpace(
        points, space_from_cover(Cover.of(point_carrier, images)), unit
    )


def regular_representative_oracle(s: FiniteCoverSpace, f):
    """The regular representative from its definition: intersect all
    Cauchy subfilters of f.

    A subfilter of a principal filter enlarges the base, and the
    intersection of principal filters is the filter of the union of their
    bases.
    """
    if not cauchy.is_cauchy_filter(s, f):
        raise cauchy.FilterError("regular representative requires a Cauchy filter")
    mask = 0
    for b in all_subsets(s.carrier):
        if f.base.issubset(b) and cauchy.is_cauchy_filter(
            s, cauchy.PrincipalFilter(s.carrier, b)
        ):
            mask |= b.mask
    return cauchy.PrincipalFilter(s.carrier, Subset(s.carrier, mask))


def dense_lift_transport(f, x, y, g, z) -> tuple[int, ...]:
    """Second route to ``cauchy.dense_lift``: the extension's neighborhood
    filter at a point is the rather-below enlargement of the transported
    filter; match it against the point filters of z directly."""
    cauchy._check_lift_preconditions(f, x, y, g, z)
    out = []
    for yp in y.carrier.elements():
        # yp's neighborhood filter back along f and forward along g: g of
        # every point of x whose image lies in the star of yp
        ny = y.star[yp]
        base_z = Subset.of(z.carrier, {g[i] for i in range(x.size) if ny >> f[i] & 1})
        z_subsets = all_subsets(z.carrier)
        enlarged = [
            u
            for u in z_subsets
            if any(
                base_z.issubset(v) and coverspace.rather_below(z, v, u)
                for v in z_subsets
            )
        ]
        nbhd_mask = z.carrier.full_mask
        for u in enlarged:
            nbhd_mask &= u.mask
        matches = [
            zp
            for zp in z.carrier.elements()
            if coverspace.neighborhood_base(z, zp).mask == nbhd_mask
        ]
        if len(matches) != 1:
            raise cauchy.FilterError(
                f"transported filter at point {yp} matches {len(matches)} points"
            )
        out.append(matches[0])
    return tuple(out)


def spaces_isomorphic(a: FiniteCoverSpace, b: FiniteCoverSpace) -> bool:
    """Whether some bijection of carriers matches the canonical generators,
    tried over every permutation."""
    sizes = [sorted(w.bit_count() for w in t.masks) for t in (a, b)]
    if a.size != b.size or sizes[0] != sizes[1]:
        return False
    rows = [points_of(w) for w in a.masks]
    target = set(b.masks)
    return any(
        {sum(1 << perm[i] for i in row) for row in rows} == target
        for perm in permutations(range(a.size))
    )


def finite_subcover_oracle(domain, cover):
    """The greedy subcover by a full scan per pick: the member containing
    the frontier that reaches furthest right, first in input order."""
    chosen = []
    pos = domain.lo
    while pos <= domain.hi:
        best = None
        for iv in cover:
            if iv.contains(pos) and (best is None or iv.hi > best.hi):
                best = iv
        if best is None:
            raise xreal.UncoveredPointError(pos)
        chosen.append(best)
        pos = best.hi
    return chosen


def geometric_index_oracle(r: Fraction, eps: Fraction) -> int:
    """Smallest n with |r|^(n+1) / (1 - |r|) <= eps, stepping n by one on
    the integer powers of |r|'s numerator and denominator."""
    a = abs(r)
    t = eps * (1 - a)
    num, den, n = a.numerator, a.denominator, 0
    while num * t.denominator > den * t.numerator:
        num, den, n = num * a.numerator, den * a.denominator, n + 1
    return n


def exp_real_oracle(x: xreal.Real) -> xreal.Real:
    """The exponential of a real as its power series with Real terms
    scale(x^k, 1/k!), the powers a shared chain of interval products."""
    m = xreal._magnitude_bound(x) + 1
    b = m.numerator // m.denominator + 1

    powers: list[xreal.Real] = [xreal.real_of_rat(1)]
    powers_lock = threading.Lock()

    def term(k: int) -> xreal.Real:
        with powers_lock:
            while len(powers) <= k:
                powers.append(xreal.mul(powers[-1], x))
            p = powers[k]
        return xreal.scale(p, Fraction(1, math.factorial(k)))

    return xreal.sum_series(
        term, xreal._factorial_tail(b), xreal._factorial_tail_index(b))


def partial_sum_oracle(terms, n: int) -> xreal.Real:
    """The sum of exact terms 0..n, each divided onto the grid in full.

    terms is a function of the index giving exact fractions, or a pair
    (t_0, step) walked inside each query with t_k = step(t_{k-1}, k), so
    the bits of t_k grow with k.  On the grid per = _snap(eps/(2(n+1))) a
    term q adds ceil(q/per) - 1 and floor(q/per) + 1."""

    def fn(eps: Fraction) -> xreal.RInterval:
        per = xreal._snap(eps / (2 * (n + 1)))
        lo = hi = 0
        if isinstance(terms, tuple):
            values = accumulate(range(1, n + 1), terms[1], initial=terms[0])
        else:
            values = map(terms, range(n + 1))
        for t in values:
            f, r = divmod(t.numerator * per.denominator, t.denominator * per.numerator)
            lo, hi = lo + f - (r == 0), hi + f + 1
        return xreal.RInterval(lo * per, hi * per)

    return xreal.Real(fn, name=lambda: f"partial_sum_oracle({n})")


def sum_series_oracle(terms, tail_bound, tail_index) -> xreal.Real:
    """A series as the limit of partial_sum_oracle at the tail index of a
    quarter of the precision, with the library's term budget."""

    def modulus(eps: Fraction) -> int:
        n = tail_index(eps / 4)
        if n >= xreal.MAX_SERIES_TERMS:
            raise xreal.SeriesBudgetError(f"series needs index {n} or more")
        assert tail_bound(n) <= eps / 4
        return n

    return xreal.limit(xreal.ConvergentSeq(lambda n: partial_sum_oracle(terms, n), modulus))


def exp_rational_oracle(q: Fraction) -> xreal.Real:
    """e^q from its exact terms q^k/k!, walked as t_k = t_{k-1} * q / k."""
    b = abs(q).numerator // abs(q).denominator + 1
    return sum_series_oracle((Fraction(1), lambda t, k: t * q / k),
                             xreal._factorial_tail(b), xreal._factorial_tail_index(b))


def geometric_oracle(r: Fraction) -> xreal.Real:
    """1 / (1 - r) from its exact terms r^k, walked as t_k = t_{k-1} * r."""
    return sum_series_oracle((Fraction(1), lambda t, k: t * r),
                             lambda n: abs(r) ** (n + 1) / (1 - abs(r)),
                             lambda eps: geometric_index_oracle(r, eps))
