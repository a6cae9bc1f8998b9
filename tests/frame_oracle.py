"""The tabulated frame of coverage ideals, kept as the oracle for the
closed form in ``coverlab.locales``: finite frames presented by coverage
rules on the powerset, their points, and the verification of the
equivalence with cover spaces, all worked from the definitions.

The frame attached to a space has one element per rule-closed downward
closed family of subsets (ideal).  Three rule schemata are instantiated on
the space's generator: a subset is covered by its traces on the generator;
by everything strongly rather below it; and the empty subset by nothing.
Meets are intersections, joins are closures of unions, and points are the
join-prime elements.  The frame is built as the closure of the basic opens
(the ideals generated by one subset) under joins: every ideal is the join
of the basic opens of its members.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from coverlab import cauchy, coverspace
from coverlab.finkernel import (
    Carrier,
    Cover,
    FiniteCoverSpace,
    Subset,
    space_from_cover,
)


class LocaleConditionError(ValueError):
    """Raised when a locale operation's properness/regularity input
    conditions fail."""


def _submasks(m: int) -> Iterable[int]:
    sub = m
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & m


class CoveragePresentation:
    """The rule system presenting the frame of a finite cover space.

    Rules are instantiated on the generator only; closure under the
    generator rule implies closure under the rule for every distinguished
    cover, since traces on a coarser cover contain traces on the
    generator.  The tests cross-check this against the all-covers rules.

    V is strongly rather below U when {X \\ V, U} is refined by the
    generator, that is when V misses every generator member not inside U.
    So the subsets strongly rather below U are the submasks of one largest
    mask, ``srb_max[U]``.  ``traces[U]`` holds the traces of U on the
    generator.
    """

    def __init__(self, space: FiniteCoverSpace):
        self.space = space
        self.n = space.size
        self.full = space.carrier.full_mask
        self.gen_masks = tuple(sorted(m.mask for m in space.generator.members))
        srb_max = []
        for u in range(self.full + 1):
            outside = 0
            for w in self.gen_masks:
                if w & ~u:
                    outside |= w
            srb_max.append(self.full & ~outside)
        self.srb_max: tuple[int, ...] = tuple(srb_max)
        self.traces = tuple(
            frozenset(u & w for w in self.gen_masks) for u in range(self.full + 1)
        )

    def srb_below(self, u_mask: int) -> tuple[int, ...]:
        """Masks strongly rather below the given subset."""
        return tuple(sorted(_submasks(self.srb_max[u_mask])))


@dataclass(frozen=True)
class FrameElement:
    """A rule-closed downward-closed family of subsets, stored as masks."""

    carrier: Carrier
    ideal: frozenset[int]

    def __le__(self, other: "FrameElement") -> bool:
        return self.ideal <= other.ideal

    def subsets(self) -> tuple[Subset, ...]:
        return tuple(Subset(self.carrier, m) for m in sorted(self.ideal))


@dataclass(frozen=True)
class LocalePoint:
    """A point: the filter of everything above a join-prime element."""

    prime: FrameElement


def ideal_closure(
    p: CoveragePresentation, seed: Iterable[Subset | int]
) -> FrameElement:
    """The smallest ideal containing the seed: saturate the two covering
    rules until a fixed point.

    Every mask enters together with its submasks, so the family stays
    downward closed and holds everything strongly rather below u exactly
    when it holds ``srb_max[u]``.
    """
    masks = {0}
    seed_masks = {s.mask if isinstance(s, Subset) else int(s) for s in seed}
    for m in sorted(seed_masks, reverse=True):  # supersets before subsets
        if m not in masks:
            masks.update(_submasks(m))
    changed = True
    while changed:
        changed = False
        for u in range(p.full + 1):
            if u in masks:
                continue
            if p.srb_max[u] in masks or masks.issuperset(p.traces[u]):
                masks.update(_submasks(u))
                changed = True
    return FrameElement(p.space.carrier, frozenset(masks))


def basic_open(p: CoveragePresentation, u: Subset) -> FrameElement:
    """The frame element generated by a single subset."""
    return ideal_closure(p, [u])


class FiniteLocale:
    """An explicitly tabulated finite frame.

    The element table must be closed under intersections and least upper
    bounds; for a coverage presentation that is the set of all its ideals.
    Meets are intersections; joins are least upper bounds in the table,
    which for presented frames coincide with closures of unions (the
    tests check the two routes against each other).
    """

    def __init__(
        self,
        elements: Sequence[FrameElement],
        presentation: CoveragePresentation | None = None,
    ):
        self.presentation = presentation
        self.elements = tuple(
            sorted(elements, key=lambda e: (len(e.ideal), sorted(e.ideal)))
        )
        if not self.elements:
            raise ValueError("a frame needs at least one element")
        self.index = {e: i for i, e in enumerate(self.elements)}
        bottom_masks = frozenset.intersection(*(e.ideal for e in self.elements))
        self.bottom = FrameElement(self.elements[0].carrier, bottom_masks)
        self.top = max(self.elements, key=lambda e: len(e.ideal))
        if self.bottom not in self.index:
            raise ValueError("element table is not closed under meets")
        if not all(e.ideal <= self.top.ideal for e in self.elements):
            raise ValueError("element table has no top")

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, a: FrameElement, b: FrameElement) -> bool:
        return a.ideal <= b.ideal

    def meet(self, a: FrameElement, b: FrameElement) -> FrameElement:
        got = FrameElement(a.carrier, a.ideal & b.ideal)
        if got not in self.index:
            raise ValueError("meet fell outside the element table")
        return got

    def join(self, parts: Iterable[FrameElement]) -> FrameElement:
        union: set[int] = set()
        for a in parts:
            union |= a.ideal
        uppers = [e for e in self.elements if union <= e.ideal]
        least = min(uppers, key=lambda e: len(e.ideal))
        if not all(least.ideal <= e.ideal for e in uppers):
            raise ValueError("element table is not join-complete")
        return least

    def negation(self, b: FrameElement) -> FrameElement:
        """The largest element meeting b in bottom."""
        return self.join(
            a for a in self.elements if (a.ideal & b.ideal) == self.bottom.ideal
        )

    def rather_below(self, b: FrameElement, a: FrameElement) -> bool:
        return self.join([self.negation(b), a]) == self.top

    def is_regular(self) -> bool:
        """Every element is the join of the elements rather below it."""
        return all(
            self.join(b for b in self.elements if self.rather_below(b, a)) == a
            for a in self.elements
        )

    @cached_property
    def _primes(self) -> tuple[FrameElement, ...]:
        return self.join_primes()

    def join_primes(self) -> tuple[FrameElement, ...]:
        """Elements that are not the join of everything strictly below."""
        out = []
        for p in self.elements:
            if p == self.bottom:
                continue
            below = [q for q in self.elements if q.ideal < p.ideal]
            if self.join(below) != p:
                out.append(p)
        return tuple(out)


def locale_of_space(s: FiniteCoverSpace) -> FiniteLocale:
    """Every ideal of the coverage presentation of s, as the closure of
    the basic opens under joins.

    Every ideal is the closure of the union of the basic opens of its
    members, so a worklist from bottom that joins in one basic open at a
    time reaches each of them, at about |frame| * 2^n closures.
    """
    pres = CoveragePresentation(s)
    bottom = ideal_closure(pres, ()).ideal
    basics = {ideal_closure(pres, [u]).ideal for u in range(pres.full + 1)}
    seen = {bottom}
    todo = [bottom]
    while todo:
        e = todo.pop()
        for b in basics:
            if b <= e:
                continue
            joined = ideal_closure(pres, e | b).ideal
            if joined not in seen:
                seen.add(joined)
                todo.append(joined)
    return FiniteLocale(
        [FrameElement(s.carrier, e) for e in seen], presentation=pres
    )


def locale_points(m: FiniteLocale) -> tuple[LocalePoint, ...]:
    """All points, via the join-prime characterization."""
    return tuple(LocalePoint(p) for p in m._primes)


def locale_points_oracle(
    m: FiniteLocale, exhaustive_limit: int = 12
) -> tuple[LocalePoint, ...]:
    """Definition-level point enumeration: filters (all principal on a
    finite lattice) whose membership is forced along every join.

    Joins of arbitrary element sets are checked exhaustively on small
    frames; larger frames fall back to binary joins, which suffice in a
    finite distributive lattice.
    """
    out = []
    for p in m.elements:
        filt = frozenset(a for a in m.elements if m.leq(p, a))
        if _completely_prime(m, p, filt, exhaustive_limit):
            out.append(LocalePoint(p))
    return tuple(out)


def _completely_prime(m, p, filt, exhaustive_limit) -> bool:
    elems = m.elements
    if len(elems) <= exhaustive_limit:
        for r in range(len(elems) + 1):
            for combo in itertools.combinations(elems, r):
                if m.join(combo) in filt and not any(a in filt for a in combo):
                    return False
        return True
    if m.bottom in filt:
        return False
    for a in elems:
        for b in elems:
            if m.join([a, b]) in filt and a not in filt and b not in filt:
                return False
    return True


def points_of_open(m: FiniteLocale, a: FrameElement) -> tuple[LocalePoint, ...]:
    """Points whose filter contains the open: primes below it."""
    return tuple(
        LocalePoint(p) for p in m._primes if m.leq(p, a)
    )


def largest_open_within(
    m: FiniteLocale, pts: Iterable[LocalePoint]
) -> FrameElement:
    """Right adjoint of the extent map: the join of every open whose
    points all lie in the given set."""
    allowed = {p.prime for p in pts}
    primes = m._primes
    return m.join(
        a
        for a in m.elements
        if all(p in allowed for p in primes if m.leq(p, a))
    )


def locale_is_proper(m: FiniteLocale) -> bool:
    """The only open with no points is bottom."""
    return largest_open_within(m, ()) == m.bottom


def point_space(m: FiniteLocale) -> FiniteCoverSpace:
    """The cover space on the points: distinguished covers are those whose
    members' best open approximations join to the top.

    The generator is the family of prime extents; the tests check it
    against the join condition over all families.
    """
    primes = m._primes
    if not primes:
        raise LocaleConditionError("locale has no points; carrier would be empty")
    carrier = Carrier(len(primes))
    members = set()
    for p in primes:
        mask = 0
        for i, q in enumerate(primes):
            if m.leq(q, p):
                mask |= 1 << i
        members.add(Subset(carrier, mask))
    return space_from_cover(Cover.of(carrier, members))


def point_cover_is_distinguished(
    m: FiniteLocale, family: Iterable[Subset]
) -> bool:
    """Definition-level membership for covers of the point space: the
    joins of the best open approximations reach the top."""
    primes = m._primes
    opens = []
    for u in family:
        pts = tuple(
            LocalePoint(primes[i]) for i in u.members()
        )
        opens.append(largest_open_within(m, pts))
    return m.join(opens) == m.top


def frame_map_of_cover_map(
    f: Sequence[int], m: FiniteLocale, n: FiniteLocale
) -> tuple[int, ...]:
    """The frame map induced by a structure-preserving map of point spaces.

    Requires the source locale proper and the target regular.  Returns a
    table indexed by n's elements with values indexing m's elements.
    """
    if not locale_is_proper(m):
        raise LocaleConditionError("source locale is not proper")
    if not n.is_regular():
        raise LocaleConditionError("target locale is not regular")
    m_primes = m._primes
    n_primes = n._primes
    out = []
    for a in n.elements:
        parts = []
        for b in n.elements:
            if not n.rather_below(b, a):
                continue
            ext_b = {i for i, q in enumerate(n_primes) if n.leq(q, b)}
            pulled = tuple(
                LocalePoint(m_primes[i])
                for i in range(len(m_primes))
                if f[i] in ext_b
            )
            parts.append(largest_open_within(m, pulled))
        out.append(m.index[m.join(parts)])
    return tuple(out)


def cover_map_of_frame_map(
    gstar: Sequence[int], m: FiniteLocale, n: FiniteLocale
) -> tuple[int, ...]:
    """The point map induced by a frame map table (indexed like
    ``frame_map_of_cover_map`` output)."""
    m_primes = m._primes
    n_primes = n._primes
    out = []
    for q in m_primes:
        member_ideal = None
        for j, a in enumerate(n.elements):
            if m.leq(q, m.elements[gstar[j]]):
                member_ideal = (
                    a.ideal if member_ideal is None else member_ideal & a.ideal
                )
        if member_ideal is None:
            raise LocaleConditionError("point filter pushes to an empty filter")
        prime = FrameElement(n.elements[0].carrier, member_ideal)
        try:
            out.append(n_primes.index(prime))
        except ValueError:
            raise LocaleConditionError(
                "pushed filter is not principal at a point"
            ) from None
    return tuple(out)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the point-space comparison for one cover space."""

    checks: tuple[tuple[str, bool, str], ...]
    eta: tuple[int, ...] | None
    point_count: int | None

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def verify_equivalence(s: FiniteCoverSpace) -> EquivalenceReport:
    """Check that the unit from a proper strongly complete space to the
    points of its frame is a structure isomorphism.

    The unit sends a carrier point to the filter of frame elements lying
    above some basic open it is a neighborhood of.  Every verified
    condition is listed in the report; precondition failures short-circuit.
    """
    checks: list[tuple[str, bool, str]] = []
    proper = coverspace.is_proper(s)
    checks.append(("space_proper", proper, ""))
    strongly_complete = coverspace.is_strongly_regular(s) and cauchy.is_complete(s)
    checks.append(
        ("space_strongly_complete", strongly_complete,
         "" if strongly_complete else "precondition")
    )
    if not (proper and strongly_complete):
        return EquivalenceReport(tuple(checks), None, None)

    m = locale_of_space(s)
    checks.append(("locale_regular", m.is_regular(), ""))
    checks.append(("locale_proper", locale_is_proper(m), ""))
    primes = m._primes
    checks.append(
        ("point_count_matches", len(primes) == s.size,
         f"{len(primes)} points vs carrier {s.size}")
    )

    pres = m.presentation
    carrier = s.carrier
    eta: list[int] = []
    eta_ok = True
    basics = [
        basic_open(pres, Subset(carrier, u)) for u in range(carrier.full_mask + 1)
    ]
    for x in carrier.elements():
        around = [
            b for u, b in enumerate(basics)
            if coverspace.is_neighborhood(s, Subset(carrier, u), x)
        ]
        filt = {a for a in m.elements if any(m.leq(b, a) for b in around)}
        minimum = None
        for a in filt:
            minimum = a.ideal if minimum is None else minimum & a.ideal
        q = FrameElement(carrier, minimum) if minimum is not None else None
        if q is None or q not in filt or q not in primes:
            eta_ok = False
            eta.append(-1)
        else:
            eta.append(primes.index(q))
    checks.append(("eta_lands_on_points", eta_ok, ""))
    bijective = eta_ok and sorted(eta) == list(range(len(primes)))
    checks.append(("eta_bijective", bijective, str(tuple(eta))))
    if bijective:
        ps = point_space(m)
        forward = coverspace.is_cover_map(eta, s, ps)
        checks.append(("eta_cover_map", forward, ""))
        inverse = [0] * len(primes)
        for x, i in enumerate(eta):
            inverse[i] = x
        backward = coverspace.is_cover_map(inverse, ps, s)
        checks.append(("eta_inverse_cover_map", backward, ""))
    return EquivalenceReport(tuple(checks), tuple(eta), len(primes))
