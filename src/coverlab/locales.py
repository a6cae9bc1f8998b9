"""Finite frames presented by coverage rules on the powerset, their points,
and the verification of the equivalence with cover spaces.

The frame attached to a space has one element per rule-closed downward
closed family of subsets (ideal).  Three rule schemata are instantiated on
the space's generator: a subset is covered by its traces on the generator;
by everything strongly rather below it; and the empty subset by nothing.
V is strongly rather below U when V misses every generator member not
inside U.  Call a generator member isolated when it meets no other member.

The ideals are exactly E(S) = {u : every isolated member inside u is in S},
one for each set S of isolated members:

- A proper subset v of a member w has everything strongly rather below it
  inside v \\ w, which is empty: the members not inside v cover the points
  outside v, and w is one of them.  So v is in every ideal.
- A member w that meets another member w' has everything strongly rather
  below it inside w \\ w', a proper subset of w.  So w is in every ideal.
- By the trace rule, u is in an ideal I exactly when its traces are, and
  each trace is a proper subset of a member, a member meeting another, or
  an isolated member inside u.  So u is in I exactly when every isolated
  member inside u is in I, and I = E(S) for the isolated members S in I.
- Conversely, an isolated w inside u is strongly rather below u, and it is
  its own trace on itself, so each E(S) is closed under both rules; and w
  is in E(S) exactly when w is in S, so distinct S give distinct ideals.

So the frame is the Boolean algebra on the isolated members (the atoms),
and an element is an int mask over them: meets, joins and negation are
bitwise, the points are the atoms, and the frame is regular and proper.
The tests hold this against the tabulated frame built from the rules.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import cauchy, coverspace
from .finkernel import FiniteCoverSpace, Subset, discrete, points_of, shared_points, union


class LocaleConditionError(ValueError):
    """Raised when a locale operation's properness/regularity input
    conditions fail."""


class CoveragePresentation:
    """The rule system presenting the frame of a finite cover space, kept
    as its atoms (the isolated generator members, ascending) and their
    indices."""

    def __init__(self, space: FiniteCoverSpace):
        self.space = space
        self.full = space.carrier.full_mask
        shared = shared_points(space.masks)
        self.atoms: tuple[int, ...] = tuple([w for w in space.masks if not w & shared])
        self.index = {w: i for i, w in enumerate(self.atoms)}


@dataclass(frozen=True)
class LocalePoint:
    """A point: the filter of everything above a join-prime element."""

    prime: int


def basic_open(p: CoveragePresentation, u: Subset) -> int:
    """The frame element generated by a single subset: the atoms inside it,
    read off the stars of u's points, as an atom is the star of each of
    its points (an isolated member is the only one holding them)."""
    stars = {p.space.star[x] for x in points_of(u.mask)}
    return sum(1 << p.index[w] for w in stars if w in p.index and w & ~u.mask == 0)


class FiniteLocale:
    """The frame of a coverage presentation: the Boolean algebra on its
    atoms, with each element an int mask over them."""

    def __init__(self, presentation: CoveragePresentation):
        self.presentation = presentation
        self.atoms = presentation.atoms
        self.bottom = 0
        self.top = (1 << len(self.atoms)) - 1
        self.elements = range(self.top + 1)
        # maximal_subsets' choices: one-point atoms, larger atoms' points
        self.singles = sum(w for w in self.atoms if w & (w - 1) == 0)
        self.multi = [(i, [1 << x for x in points_of(w)])
                      for i, w in enumerate(self.atoms) if w & (w - 1)]

    def __len__(self) -> int:
        if self.top >= sys.maxsize:
            raise OverflowError(f"a frame of {len(self.atoms)} atoms has more elements than "
                                "len() can return; read top + 1 instead")
        return self.top + 1

    def leq(self, a: int, b: int) -> bool:
        return a & ~b == 0

    def meet(self, a: int, b: int) -> int:
        return a & b

    def join(self, parts: Iterable[int]) -> int:
        return union(parts)

    def negation(self, b: int) -> int:
        """The largest element meeting b in bottom."""
        return self.top & ~b

    def rather_below(self, b: int, a: int) -> bool:
        return self.join([self.negation(b), a]) == self.top

    def is_regular(self) -> bool:
        """Every element is the join of the elements rather below it: every
        element is the join of its atoms, and each atom is rather below
        itself."""
        return all(self.rather_below(1 << i, 1 << i) for i in range(len(self.atoms)))


def locale_of_space(s: FiniteCoverSpace) -> FiniteLocale:
    """The frame of every ideal of the coverage presentation of s."""
    return FiniteLocale(CoveragePresentation(s))


def locale_points(m: FiniteLocale) -> tuple[LocalePoint, ...]:
    """All points: the atoms, ascending by mask."""
    return tuple([LocalePoint(1 << i) for i in range(len(m.atoms))])


def maximal_subsets(m: FiniteLocale, a: int) -> tuple[Subset, ...]:
    """The inclusion-maximal subsets in the ideal of a, ascending by mask:
    the carrier minus one point of every atom outside a."""
    pres = m.presentation
    inside = sum(m.atoms[i] for i in points_of(a))  # a's carrier mask
    base = pres.full & ~(m.singles & ~inside)
    choices = [bits for i, bits in m.multi if not a >> i & 1]
    masks = sorted(base & ~sum(pick) for pick in itertools.product(*choices))
    return tuple([Subset(pres.space.carrier, u) for u in masks])


def points_of_open(m: FiniteLocale, a: int) -> tuple[LocalePoint, ...]:
    """Points whose filter contains the open: the atoms below it."""
    return tuple([LocalePoint(1 << i) for i in range(len(m.atoms)) if a >> i & 1])


def largest_open_within(m: FiniteLocale, pts: Iterable[LocalePoint]) -> int:
    """Right adjoint of the extent map: the join of every open whose
    points all lie in the given set, which is the join of those points."""
    return m.join(p.prime for p in pts)


def locale_is_proper(m: FiniteLocale) -> bool:
    """The only open with no points is bottom."""
    return largest_open_within(m, ()) == m.bottom


def point_space(m: FiniteLocale) -> FiniteCoverSpace:
    """The cover space on the points: distinguished covers are those whose
    members' best open approximations join to the top.  Each atom's extent
    is its own point, so the space is discrete."""
    if not m.atoms:
        raise LocaleConditionError("locale has no points; carrier would be empty")
    return discrete(len(m.atoms))


def frame_map_of_cover_map(
    f: Sequence[int], m: FiniteLocale, n: FiniteLocale
) -> tuple[int, ...]:
    """The frame map induced by a structure-preserving map of point spaces:
    each of n's atoms pulls back to the atoms of m that f sends to it.

    The map needs the source proper and the target regular, which every
    frame of a presentation is.  Returns a table indexed by n's elements
    with values indexing m's elements.
    """
    pulled = [0] * len(n.atoms)
    for i, j in enumerate(f):
        pulled[j] |= 1 << i
    out = [0]
    for j, atom in enumerate(pulled):
        out.extend(b | atom for b in out[: 1 << j])
    return tuple(out)


def cover_map_of_frame_map(
    gstar: Sequence[int], m: FiniteLocale, n: FiniteLocale
) -> tuple[int, ...]:
    """The point map induced by a frame map table (indexed like
    ``frame_map_of_cover_map`` output): each point of m goes to the one
    atom of n whose image holds it."""
    out = []
    for q in locale_points(m):
        hits = [j for j in range(len(n.atoms)) if m.leq(q.prime, gstar[1 << j])]
        if len(hits) != 1:
            raise LocaleConditionError("pushed filter is not principal at a point")
        out.append(hits[0])
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
    above some basic open it is a neighborhood of, which is the filter of
    the basic open of its star; that lands on a point exactly when it is
    one atom.  An atom inside a star meets a member holding the point, so
    is that member and the star itself.  Every verified condition is
    listed in the report; precondition failures short-circuit.
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
    k = len(m.atoms)
    checks.append(("point_count_matches", k == s.size, f"{k} points vs carrier {s.size}"))

    eta = [m.presentation.index.get(w, -1) for w in s.star]
    eta_ok = -1 not in eta
    checks.append(("eta_lands_on_points", eta_ok, ""))
    bijective = eta_ok and sorted(eta) == list(range(k))
    checks.append(("eta_bijective", bijective, str(tuple(eta))))
    if bijective:
        ps = point_space(m)
        forward = coverspace.is_cover_map(eta, s, ps)
        checks.append(("eta_cover_map", forward, ""))
        inverse = [0] * k
        for x, i in enumerate(eta):
            inverse[i] = x
        backward = coverspace.is_cover_map(inverse, ps, s)
        checks.append(("eta_inverse_cover_map", backward, ""))
    return EquivalenceReport(tuple(checks), tuple(eta), k)
