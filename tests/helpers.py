"""Shared generators and small oracles for the test suite."""

from __future__ import annotations

import json
import math
import random
import re
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, groupby, permutations
from typing import Iterator

from coverlab import cauchy, coverspace, realexpr, xreal
from coverlab.finkernel import (
    COVER_ENUM_LIMIT,
    Carrier,
    CarrierMismatchError,
    Cover,
    FiniteCoverSpace,
    Subset,
    _check_size,
    all_canonical_covers,
    generated_space,
    meet,
    points_of,
    refines,
    space_from_cover,
)
from coverlab.realexpr import MAX_DEPTH, MAX_LITERAL_DIGITS, ExprError
from coverlab.spacefile import MAX_NESTING, SpaceFileError

# Enumerating all subsets of a carrier is exponential; the cap keeps the
# oracles honest about what they can afford.
SUBSET_ENUM_LIMIT = 12


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


def maximal_masks_grouped(masks) -> list[int]:
    """``finkernel.maximal_masks`` as it was: the same downward walk over
    the distinct masks, sorted and grouped first."""
    kept: list[int] = []
    held: dict[int, list[int]] = {}
    for w in reversed([m for m, _ in groupby(sorted(masks))]):
        larger = held.get((w & -w).bit_length() - 1, ()) if w else kept
        if any(w & ~v == 0 for v in larger):
            continue
        kept.append(w)
        for x in points_of(w):
            held.setdefault(x, []).append(w)
    kept.reverse()
    return kept


def star_table_oracle(n: int, masks) -> tuple[int, ...]:
    """The star table of an ascending covering antichain on n points, by
    the check ``FiniteCoverSpace`` ran before it shared the generator's
    walk: each mask downward against the masks above it and the checked
    masks holding its lowest point.  Raises the constructor's ValueError."""
    masks, top = tuple(masks), Carrier(n).full_mask + 1
    star = [0] * n
    held: list[list[int]] = [[] for _ in star]
    for w, above in zip(reversed(masks), (top, *reversed(masks))):
        low = (w & -w).bit_length() - 1
        if not 0 < w < above or any(w & ~v == 0 for v in held[low]):
            raise ValueError("generator is not an ascending antichain")
        for x in points_of(w):
            held[x].append(w)
            star[x] |= w
    if not all(star):
        raise ValueError("members do not cover the carrier")
    return tuple(star)


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


def exp_termwise_oracle(x: xreal.Real) -> xreal.Real:
    """The exponential of a real as its power series with Real terms
    scale(x^k, 1/k!), the powers a shared chain of interval products, all
    in the Fraction combinators below."""
    b = math.floor(magnitude_bound_oracle(x) + 1) + 1

    powers: list[xreal.Real] = [rat_oracle(1)]
    powers_lock = threading.Lock()

    def term(k: int) -> xreal.Real:
        with powers_lock:
            while len(powers) <= k:
                powers.append(mul_oracle(powers[-1], x))
            p = powers[k]
        return scale_oracle(p, Fraction(1, math.factorial(k)))

    return sum_series_oracle(term, factorial_tail_within(b), factorial_tail_index_oracle(b))


def partial_sum_oracle(terms, n: int) -> xreal.Real:
    """The sum of exact terms 0..n, each divided onto the grid in full.

    terms is a function of the index giving exact fractions, or a pair
    (t_0, step) walked inside each query with t_k = step(t_{k-1}, k), so
    the bits of t_k grow with k.  On the grid per = snap_oracle(eps/(2(n+1)))
    a term q adds ceil(q/per) - 1 and floor(q/per) + 1."""

    def fn(eps: Fraction) -> xreal.RInterval:
        per = snap_oracle(eps / (2 * (n + 1)))
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


def exact_series_oracle(terms, tail_bound, tail_index) -> xreal.Real:
    """A series as the limit of partial_sum_oracle at the tail index of a
    quarter of the precision, with the library's term budget."""

    def modulus(eps: Fraction) -> int:
        n = tail_index(eps / 4)
        if n >= xreal.MAX_SERIES_TERMS:
            raise xreal.SeriesBudgetError(f"series needs index {n} or more")
        assert Fraction(*tail_bound(n)) <= eps / 4
        return n

    return limit_oracle(xreal.ConvergentSeq(lambda n: partial_sum_oracle(terms, n), modulus))


def exp_rational_oracle(q: Fraction) -> xreal.Real:
    """e^q from its exact terms q^k/k!, walked as t_k = t_{k-1} * q / k."""
    b = abs(q).numerator // abs(q).denominator + 1
    return exact_series_oracle((Fraction(1), lambda t, k: t * q / k),
                               lambda n: (2 * b ** (n + 1), math.factorial(n + 1)),
                               factorial_tail_index_oracle(b))


def geometric_oracle(r: Fraction) -> xreal.Real:
    """1 / (1 - r) from its exact terms r^k, walked as t_k = t_{k-1} * r."""
    return exact_series_oracle((Fraction(1), lambda t, k: t * r),
                               lambda n: (abs(r) ** (n + 1) / (1 - abs(r))).as_integer_ratio(),
                               lambda eps: geometric_index_oracle(r, eps))


def fixed_point_sum_oracle(terms, n: int, growth: int = 0) -> xreal.Real:
    """The fixed-point walk of exact terms with the ratio as a Fraction:
    (t_0, ratio), ratio(k) a Fraction or ratio one Fraction for every k,
    its numerator and denominator read per term, on the precision
    snap_oracle(eps)."""

    def fn(eps: Fraction) -> xreal.RInterval:
        w, (t0, ratio) = snap_oracle(eps), terms
        k = w.denominator.bit_length() - w.numerator.bit_length()
        p = max(0, k + 2 * (n + 2).bit_length() + growth + 1)
        lo = l = (t0.numerator << p) // t0.denominator
        hi = u = -(-t0.numerator << p) // t0.denominator
        for i in range(1, n + 1):
            r = ratio if isinstance(ratio, Fraction) else ratio(i)
            a, d = r.numerator, r.denominator
            if a < 0:
                l, u = u, l
            l, u = l * a // d, -(-u * a // d)
            lo, hi = lo + l, hi + u
        return xreal.RInterval(Fraction(lo - 1, 1 << p), Fraction(hi + 1, 1 << p))

    return xreal.Real(fn, name=lambda: f"fixed_point_sum_oracle({n})")


def walk_oracle(terms, n: int, k: int, growth: int) -> xreal.Answer:
    """xreal._walk as it was before each upper end became the lower end
    plus a small integer and the exponential's ratio a/(d k) became data:
    two products and two divisions a step, a per-index ratio called, a
    constant's sign tested once.  The budget check and its message are the
    same, on xreal's MAX_SERIES_WORK and the evaluation's work so far."""
    t0, ratio = terms
    p = max(0, k + 2 * (n + 2).bit_length() + growth + 1)
    a, d = ratio if isinstance(ratio, tuple) else ratio(n) if n else (0, 1)
    q = abs(a).bit_length() + d.bit_length()
    work, spent = n * (p + growth) * (1 + q // 256), xreal._SERIES_WORK.get()
    if spent[0] + work > xreal.MAX_SERIES_WORK:
        before = f" after {spent[0]} in this evaluation" if spent[0] else ""
        raise xreal.SeriesBudgetError(
            f"summing {n} terms at {p} bits with {q}-bit ratios is {work} units of "
            f"work{before}, more than {xreal.MAX_SERIES_WORK}")
    spent[0] += work
    lo = l = (t0.numerator << p) // t0.denominator
    hi = u = -(-t0.numerator << p) // t0.denominator
    c = d - 1  # for a constant ratio, ceil(x/d) is (x + c) // d
    if not isinstance(ratio, tuple):
        for i in range(1, n + 1):
            a, d = ratio(i)
            if a < 0:
                l, u = u, l
            l, u = l * a // d, -(-u * a // d)
            lo, hi = lo + l, hi + u
    elif a < 0:
        for _ in range(n):
            l, u = u * a // d, (l * a + c) // d
            lo, hi = lo + l, hi + u
    else:
        for _ in range(n):
            l, u = l * a // d, (u * a + c) // d
            lo, hi = lo + l, hi + u
    if hi - lo + 2 > 1 << p - k:
        raise xreal.InvariantError(f"partial_sum({n}): answer wider than requested 2^{-k}")
    return lo - 1, hi + 1, 1 << p


def find_apartness_oracle(x: xreal.Real, eps_floor) -> Fraction | None:
    """find_apartness on Fractions: delta = 1, 1/2, ... while it is at
    least the floor, each probe the RInterval x.approx(delta)."""
    eps_floor = Fraction(eps_floor)
    delta = Fraction(1)
    while delta >= eps_floor:
        got = x.approx(delta)
        if got.lo >= delta or got.hi <= -delta:
            return delta
        delta /= 2
    return None


def fold_oracle(node) -> Fraction:
    """The value of a tree of rationals only, as ParserOracle reads it,
    folded in Fractions as realexpr.evaluate did before it folded on
    integer pairs; an exact zero divisor raises ExprError."""
    if node[0] == "lit":
        return node[1]
    if node[0] == "neg":
        return -fold_oracle(node[1])
    op, a, b = node[0], fold_oracle(node[1]), fold_oracle(node[2])
    if op == "/":
        if b == 0:
            raise ExprError("division by exact zero")
        return a / b
    return a + b if op == "+" else a - b if op == "-" else a * b


# The combinators of xreal as they were in Fraction arithmetic, before their
# answers became integer triples: each answer is an RInterval of Fractions,
# rounded out onto the grid snap_oracle(eps/4) by Fraction floor and ceiling.
# None of them calls an xreal combinator; xreal.Real only caches and checks.


def rat_oracle(q) -> xreal.Real:
    q = Fraction(q)
    return xreal.Real(lambda eps: xreal.RInterval(q - eps / 3, q + eps / 3))


def round_out_oracle(lo: Fraction, hi: Fraction, eps: Fraction) -> xreal.RInterval:
    g = snap_oracle(eps / 4)
    return xreal.RInterval(lo // g * g, -(-hi // g) * g)


def add_oracle(x: xreal.Real, y: xreal.Real) -> xreal.Real:
    def fn(eps: Fraction) -> xreal.RInterval:
        s = snap_oracle(eps / 4)
        a, b = x.approx(s), y.approx(s)
        return round_out_oracle(a.lo + b.lo, a.hi + b.hi, eps)

    return xreal.Real(fn)


def neg_oracle(x: xreal.Real) -> xreal.Real:
    def fn(eps: Fraction) -> xreal.RInterval:
        a = x.approx(eps)
        return xreal.RInterval(-a.hi, -a.lo)

    return xreal.Real(fn)


def scale_oracle(x: xreal.Real, c) -> xreal.Real:
    c = Fraction(c)
    if c == 0:
        return rat_oracle(0)

    def fn(eps: Fraction) -> xreal.RInterval:
        a = x.approx(snap_oracle(eps / (2 * abs(c))))
        lo, hi = sorted((a.lo * c, a.hi * c))
        return round_out_oracle(lo, hi, eps)

    return xreal.Real(fn)


def magnitude_bound_oracle(x: xreal.Real) -> Fraction:
    a = x.approx(Fraction(1))
    return max(abs(a.lo), abs(a.hi))


def mul_oracle(x: xreal.Real, y: xreal.Real) -> xreal.Real:
    def fn(eps: Fraction) -> xreal.RInterval:
        bx = magnitude_bound_oracle(x)
        by = magnitude_bound_oracle(y)
        ex = snap_oracle(min(Fraction(1), eps / (4 * (by + 1))))
        ey = snap_oracle(min(Fraction(1), eps / (4 * (bx + 1))))
        a = x.approx(ex)
        b = y.approx(ey)
        products = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
        return round_out_oracle(min(products), max(products), eps)

    return xreal.Real(fn)


def inv_oracle(x: xreal.Real, delta) -> xreal.Real:
    delta = Fraction(delta)
    witness = x.approx(delta)
    if not (witness.lo >= delta or witness.hi <= -delta):
        raise xreal.ApartnessError(witness, delta)

    def fn(eps: Fraction) -> xreal.RInterval:
        e = eps / 2
        got = x.approx(snap_oracle(e * delta * delta / (1 + e * delta)))
        lo = max(got.lo, witness.lo)
        hi = min(got.hi, witness.hi)
        return round_out_oracle(1 / hi, 1 / lo, eps)

    return xreal.Real(fn)


def limit_oracle(seq: xreal.ConvergentSeq) -> xreal.Real:
    def fn(eps: Fraction) -> xreal.RInterval:
        s = snap_oracle(eps / 4)
        inner = seq.terms(seq.modulus(s)).approx(s)
        return round_out_oracle(inner.lo - s / 2, inner.hi + s / 2, eps)

    return xreal.Real(fn)


def real_terms_sum_oracle(terms, n: int) -> xreal.Real:
    """partial_sum's Real-term path: each term's answer at per, floored and
    ceiled onto per = snap_oracle(eps/(2(n+1)))."""

    def fn(eps: Fraction) -> xreal.RInterval:
        per = snap_oracle(eps / (2 * (n + 1)))
        lo = hi = 0
        for k in range(n + 1):
            got = terms(k).approx(per)
            lo, hi = lo + got.lo // per, hi - (-got.hi // per)
        return xreal.RInterval(lo * per, hi * per)

    return xreal.Real(fn)


def sum_series_oracle(terms, tail_within, tail_index, growth: int = 0) -> xreal.Real:
    """sum_series: Real terms through limit_oracle, exact terms (t_0, ratio),
    ratio(k) an integer pair, walked by fixed_point_sum_oracle."""

    def modulus(eps: Fraction) -> int:
        n = tail_index(eps / 4)
        if n >= xreal.MAX_SERIES_TERMS:
            raise xreal.SeriesBudgetError(f"series needs index {n} or more")
        if not tail_within(n, eps / 4):
            raise xreal.TailBoundError(f"the tail bound at index {n} exceeds requested {eps / 4}")
        return n

    if not isinstance(terms, tuple):
        return limit_oracle(xreal.ConvergentSeq(lambda n: real_terms_sum_oracle(terms, n), modulus))
    t0, ratio = terms

    def fn(eps: Fraction) -> xreal.RInterval:
        s = snap_oracle(eps / 4)
        walk = fixed_point_sum_oracle((t0, lambda k: Fraction(*ratio(k))), modulus(s), growth)
        got = walk.approx(s)
        return round_out_oracle(got.lo - s / 4, got.hi + s / 4, eps)

    return xreal.Real(fn)


def factorial_tail_within(b: int):
    """2 b^(n+1)/(n+1)! <= e, the tail test of e^q for |q| < b."""
    return lambda n, e: 2 * b ** (n + 1) <= e * math.factorial(n + 1)


def exp_series_oracle(q) -> xreal.Real:
    """exp_rational's sum, the ratio q/k as a pair, on the oracles above."""
    q = Fraction(q)
    b = abs(q).numerator // abs(q).denominator + 1
    return sum_series_oracle((Fraction(1), lambda k: (q.numerator, q.denominator * k)),
                             factorial_tail_within(b), factorial_tail_index_oracle(b),
                             -(-14427 * b // 10000))


def exp_real_oracle(x: xreal.Real) -> xreal.Real:
    """exp_real: the ends of one answer for x under exp_series_oracle."""
    b = math.floor(magnitude_bound_oracle(x) + 1) + 1
    g = exp_series_oracle(b).approx(Fraction(1)).hi

    def fn(eps: Fraction) -> xreal.RInterval:
        a = x.approx(snap_oracle(min(Fraction(1), eps / (4 * g))))
        e = snap_oracle(eps / 8)
        return round_out_oracle(exp_series_oracle(a.lo).approx(e).lo,
                                exp_series_oracle(a.hi).approx(e).hi, eps)

    return xreal.Real(fn)


def limit_at_zero_oracle(f, limit_modulus) -> xreal.Real:
    def fn(eps: Fraction) -> xreal.RInterval:
        m = snap_oracle(eps / 8)
        delta = Fraction(limit_modulus(m))
        q = delta / 2
        inner = f(q, q / 2).approx(snap_oracle(eps / 4))
        return round_out_oracle(inner.lo - m, inner.hi + m, eps)

    return xreal.Real(fn)


def factorial_tail_index_oracle(b: int):
    """The least n >= 2b with 2 b^(n+1)/(n+1)! <= eps, stepping n by one on
    the integer numerator and denominator, stopped at the term budget."""

    def index(eps: Fraction) -> int:
        n = 2 * b
        if n >= xreal.MAX_SERIES_TERMS:
            return n
        num, den = 2 * b ** (n + 1), math.factorial(n + 1)
        while num * eps.denominator > eps.numerator * den and n < xreal.MAX_SERIES_TERMS:
            n, num, den = n + 1, num * b, den * (n + 2)
        return n

    return index


def snap_oracle(e: Fraction) -> Fraction:
    """The largest power of two at most e, by a Fraction power and a
    Fraction comparison."""
    g = Fraction(2) ** (e.numerator.bit_length() - e.denominator.bit_length())
    return g if g <= e else g / 2


def epsilon_net_oracle(domain, eps) -> list[Fraction]:
    """The net lo + width i/k, i = 0..k, k = ceil(width/eps), in Fraction
    arithmetic."""
    eps = Fraction(eps)
    k = math.ceil(domain.width / eps)
    return [domain.lo + domain.width * i / k for i in range(k + 1)]


def ball_cover_oracle(domain, eps) -> list[xreal.RInterval]:
    """The balls q - eps, q + eps about the points of epsilon_net_oracle."""
    eps = Fraction(eps)
    return [xreal.RInterval(q - eps, q + eps) for q in epsilon_net_oracle(domain, eps)]


def eval_expression(text: str, eps) -> xreal.RInterval:
    """The answer of ``realexpr.answer`` as an RInterval."""
    lo, hi, den = realexpr.answer(text, Fraction(eps))
    return xreal.RInterval(Fraction(lo, den), Fraction(hi, den))


def answer_of(iv: xreal.RInterval) -> xreal.Answer:
    """The interval as a triple (lo, hi, den) over the product of its
    denominators, not in lowest terms."""
    lo, hi = iv.lo, iv.hi
    return lo.numerator * hi.denominator, hi.numerator * lo.denominator, lo.denominator * hi.denominator


def format_interval_oracle(iv: xreal.RInterval, eps: Fraction, eps_text: str) -> str:
    """The decimal line of ``real eval`` in Fraction arithmetic: the
    midpoint times 10^digits rounded half up, digits least with
    10^digits * eps >= 1."""
    digits = 0
    while 10**digits * eps < 1:
        digits += 1
    scaled = (iv.lo + iv.hi) / 2 * 10**digits
    rounded = math.floor(scaled + Fraction(1, 2))
    whole, frac = divmod(abs(rounded), 10**digits)
    text = "-" * (rounded < 0) + realexpr.decimal_digits(whole)
    tail = f".{realexpr.decimal_digits(frac).zfill(digits)}" if digits else ""
    return f"{text}{tail} ± {eps_text}"


def format_fraction_oracle(q: Fraction) -> str:
    """str(q), its integers printed by ``realexpr.decimal_digits``, for
    ends past the interpreter's 4300-digit int-to-str limit."""
    text = realexpr.decimal_digits(q.numerator)
    return text if q.denominator == 1 else f"{text}/{realexpr.decimal_digits(q.denominator)}"


def parse_spacefile_oracle(text: str) -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
    """The carrier and covers of a space file, each subset a sorted tuple
    of its points and each cover a sorted tuple of distinct subsets, with
    the same checks and messages as ``spacefile.parse_spacefile`` but no
    carrier budget: the parser as it was before subsets became masks."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpaceFileError(f"not valid JSON at line {e.lineno} column {e.colno}") from e
    except RecursionError as e:
        raise SpaceFileError("JSON nested too deeply") from e
    if nesting_depth_oracle(doc) > MAX_NESTING:  # no document that reads is this deep
        raise SpaceFileError("JSON nested too deeply")
    if not isinstance(doc, dict):
        raise SpaceFileError("top level must be an object")
    fmt = doc.get("format")
    if fmt != 1 or isinstance(fmt, bool):
        raise SpaceFileError(f"format must be 1, got {fmt!r}")
    n = doc.get("carrier")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SpaceFileError(f"carrier must be a positive integer, got {n!r}")
    raw = doc.get("covers")
    if not isinstance(raw, list):
        raise SpaceFileError("covers must be a list")
    covers = []
    for i, cover in enumerate(raw):
        if not isinstance(cover, list) or not cover:
            raise SpaceFileError(f"covers[{i}] must be a nonempty list of subsets")
        subsets = []
        for j, subset in enumerate(cover):
            if not isinstance(subset, list):
                raise SpaceFileError(f"covers[{i}][{j}] must be a list of indices")
            for k, x in enumerate(subset):
                if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n:
                    raise SpaceFileError(
                        f"covers[{i}][{j}][{k}]: index {x!r} outside 0..{n - 1}"
                    )
            subsets.append(tuple(sorted(set(subset))))
        covers.append(tuple(sorted(set(subsets))))
    return n, tuple(covers)


def nesting_depth_oracle(value) -> int:
    """How deep lists and objects nest in value, the outermost counting one,
    walked depth first on an explicit stack."""
    depth, stack = 0, [(value, 1)]
    while stack:
        v, d = stack.pop()
        if isinstance(v, (list, dict)):
            depth = max(depth, d)
            stack.extend((c, d + 1) for c in (v.values() if isinstance(v, dict) else v))
    return depth


def trisection_steps_oracle(width: Fraction, eps: Fraction) -> int:
    """Smallest k with width * (2/3)^k <= eps, stepping (3/2)^k up by one
    Fraction product at a time."""
    k = 0
    grow = Fraction(1)
    target = Fraction(width, 1) / eps
    while grow < target:
        grow *= Fraction(3, 2)
        k += 1
    return k


class FiniteTopologyOracle:
    """A finite topological space as its explicit family of opens, closed
    under finite intersection and arbitrary union, containing the empty
    set and the whole carrier.  Every question is answered by a scan of
    the family."""

    def __init__(self, carrier: Carrier, opens) -> None:
        self.carrier = carrier
        self.opens = frozenset(opens)
        masks = {o.mask for o in self.opens}
        for o in self.opens:
            if o.carrier != self.carrier:
                raise CarrierMismatchError("open on a different carrier")
        if 0 not in masks or self.carrier.full_mask not in masks:
            raise ValueError("opens must contain the empty set and the carrier")
        for a in masks:
            for b in masks:
                if a & b not in masks or a | b not in masks:
                    raise ValueError("opens not closed under intersection/union")

    def is_open(self, u: Subset) -> bool:
        return u in self.opens

    def interior(self, u: Subset) -> Subset:
        mask = 0
        for o in self.opens:
            if o.issubset(u):
                mask |= o.mask
        return Subset(self.carrier, mask)

    def closure(self, u: Subset) -> Subset:
        return self.interior(u.complement()).complement()

    def minimal_neighborhood(self, x: int) -> Subset:
        mask = self.carrier.full_mask
        for o in self.opens:
            if o.contains(x):
                mask &= o.mask
        return Subset(self.carrier, mask)

    def rather_below(self, v: Subset, u: Subset) -> bool:
        # X must be covered by opens W with (W meets V implies W inside U);
        # minimal neighborhoods are the worst case.
        return all(
            (not self.minimal_neighborhood(x).intersects(v))
            or self.minimal_neighborhood(x).issubset(u)
            for x in self.carrier.elements()
        )

    def is_regular(self) -> bool:
        """Every open is covered by opens rather below it."""
        return all(
            all(self.rather_below(self.minimal_neighborhood(x), o)
                for x in o.members())
            for o in self.opens
        )


def to_topology_oracle(s: FiniteCoverSpace) -> FiniteTopologyOracle:
    """The opens of s, every subset tried: U is open when the singleton of
    each of its points is rather below U by the member scan."""
    return FiniteTopologyOracle(s.carrier, [
        u for u in all_subsets(s.carrier)
        if all(rather_below_scan(s, Subset(s.carrier, 1 << x), u) for x in u.members())
    ])


def from_topology_oracle(t: FiniteTopologyOracle) -> FiniteCoverSpace:
    """The cover space generated by the minimal open neighborhoods of a
    regular topology."""
    if not t.is_regular():
        raise coverspace.RegularityError("input topology is not regular")
    members = {t.minimal_neighborhood(x).mask for x in t.carrier.elements()}
    return generated_space(t.carrier.size, members)


def topology_from_opens(carrier: Carrier, opens) -> coverspace.FiniteTopology:
    """The library's topology with an explicit family of opens: each
    point's row is the intersection of the opens holding it."""
    t = FiniteTopologyOracle(carrier, opens)
    return coverspace.FiniteTopology(
        carrier.size, tuple(t.minimal_neighborhood(x).mask for x in carrier.elements()))


def opens_of(t) -> frozenset[Subset]:
    """Every open of a small topology, every subset tried."""
    return frozenset(u for u in all_subsets(t.carrier) if t.is_open(u))


def all_topologies(carrier: Carrier) -> list[FiniteTopologyOracle]:
    """Every topology on a small carrier: the families of subsets holding
    the empty set and the carrier and closed under intersection and
    union, out of all 2^(2^n) families."""
    full = carrier.full_mask
    out = []
    for family in all_families(carrier):
        masks = {o.mask for o in family}
        if (0 in masks and full in masks
                and all(a & b in masks and a | b in masks for a in masks for b in masks)):
            out.append(FiniteTopologyOracle(carrier, family))
    return out


# The expression reader as it was before its token scan became one
# ``finditer`` loop and its two binary levels one ``expr``: the oracle the
# reader is held against, token for token and message for message.
_TOKEN_ORACLE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/();]))"
)


def tokenize_oracle(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_ORACLE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprError(f"unexpected character {stripped[0]!r} at position {pos}")
        if m.group("num"):
            if sum(c.isdigit() for c in m.group("num")) > MAX_LITERAL_DIGITS:
                raise ExprError(f"numeric literal at position {m.start('num')} has more "
                                f"than {MAX_LITERAL_DIGITS} digits")
            out.append(("num", m.group("num"), m.start("num")))
        elif m.group("name"):
            out.append(("name", m.group("name"), m.start("name")))
        else:
            out.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return out


class ParserOracle:
    """Recursive descent over the grammar of ``coverlab.realexpr``.  Input
    nested deeper than MAX_DEPTH is refused, counting both the factors open
    at once (the parser's own recursion) and the depth of the tree built."""

    def __init__(self, text: str):
        self.tokens = tokenize_oracle(text)
        self.i = 0
        self.open = 0  # factors being parsed, each inside the one before
        self.depth = 0  # depth of the subtree parsed last

    def _within(self, depth: int, tok) -> int:
        if depth > MAX_DEPTH:
            raise ExprError(f"nesting deeper than {MAX_DEPTH} at position {tok[2]}")
        return depth

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, kind=None, value=None):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        if kind and tok[0] != kind or value and tok[1] != value:
            raise ExprError(f"unexpected {tok[1]!r} at position {tok[2]}")
        self.i += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            tok = self.peek()
            raise ExprError(f"trailing {tok[1]!r} at position {tok[2]}")
        return node

    def expr(self):
        node, depth = self.term(), self.depth
        while self.peek() and self.peek()[1] in "+-":
            op = self.take()
            node = (op[1], node, self.term())
            depth = self._within(1 + max(depth, self.depth), op)
        self.depth = depth
        return node

    def term(self):
        node, depth = self.factor(), self.depth
        while self.peek() and self.peek()[1] in "*/":
            op = self.take()
            node = (op[1], node, self.factor())
            depth = self._within(1 + max(depth, self.depth), op)
        self.depth = depth
        return node

    def factor(self):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        self.open = self._within(self.open + 1, tok)
        if tok[1] == "-":
            self.take()
            node = ("neg", self.factor())
            self.depth = self._within(self.depth + 1, tok)
        else:
            node = self.atom()
        self.open -= 1
        return node

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            self.depth = 1
            return ("lit", Fraction(tok[1]))
        if tok[1] == "(":
            self.take()
            node = self.expr()
            self.take(value=")")
            return node
        if tok[0] == "name":
            return self.call()
        raise ExprError(f"unexpected {tok[1]!r} at position {tok[2]}")

    def call(self):
        tok = self.take("name")
        name = tok[1]
        self.take(value="(")
        if name == "inv":
            arg = self.expr()
            self.take(value=";")
            delta = self.number()
            self.take(value=")")
            self.depth = self._within(self.depth + 1, tok)
            return ("inv", arg, delta)
        if name == "exp":
            arg = self.expr()
            self.take(value=")")
            self.depth = self._within(self.depth + 1, tok)
            return ("exp", arg)
        if name == "limit":
            form = self.take("name")[1]
            args = []
            while self.peek() and self.peek()[1] == ";":
                self.take()
                args.append(self.number())
            self.take(value=")")
            self.depth = 1
            return ("limit", form, tuple(args))
        raise ExprError(f"unknown function {name!r}")

    def number(self) -> Fraction:
        sign = Fraction(1)
        if self.peek() and self.peek()[1] == "-":
            self.take()
            sign = Fraction(-1)
        tok = self.take("num")
        value = sign * Fraction(tok[1])
        if self.peek() and self.peek()[1] == "/":
            self.take()
            denom = Fraction(self.take("num")[1])
            if denom == 0:
                raise ExprError("zero denominator in literal")
            value /= denom
        return value
