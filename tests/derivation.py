"""Bounded rule-application oracle for distinguished-cover membership.

An independent check on the refinement criterion: starting from a subbase,
apply the structure rules (the trivial cover is in; anything refined by a
member is in; pointwise intersections of members are in) for a bounded
number of rounds, and answer membership queries from the saturated set.

Meets are applied with a constant second family.  The general rule with a
varying family adds nothing: the meet of all the families involved refines
its output, so one refinement step recovers it.  ``full_cg=True`` applies
the varying-family rule literally (feasible only on tiny instances); a test
confirms both modes saturate to the same set.
"""

from __future__ import annotations

import itertools
from functools import cache

from coverlab.finkernel import Carrier, Cover, Subset


class DerivationOracle:
    """Saturates rule applications to a fixed depth, then answers queries."""

    def __init__(
        self,
        carrier: Carrier,
        subbase: list[Cover],
        depth: int = 6,
        full_cg: bool = False,
    ) -> None:
        self.carrier = carrier
        self.depth = depth
        derived: set[frozenset[int]] = {frozenset({carrier.full_mask})}
        for c in subbase:
            derived.add(frozenset(m.mask for m in c.members))
        for _ in range(depth):
            new = set(derived)
            pool = list(derived)
            for a in pool:
                for b in pool:
                    new.add(frozenset(u & v for u in a for v in b))
            if full_cg:
                for a in pool:
                    members = sorted(a)
                    for choice in itertools.product(pool, repeat=len(members)):
                        new.add(
                            frozenset(
                                u & v
                                for u, fam in zip(members, choice)
                                for v in fam
                            )
                        )
            if new == derived:
                break
            derived = new
        self._derived = derived
        # Raw subbases rarely saturate to the same derived set, but often
        # to covers with the same maximal members, which alone decide
        # refinement; answers are memoised on those.
        self._maximal = frozenset(
            frozenset(u for u in c if not any(u != v and u & ~v == 0 for v in c))
            for c in derived
        )

    def is_cauchy(self, family) -> bool:
        """Membership query: some derived cover refines the family.

        The final refinement step implements the coarsening rule; pushing
        it past meets is harmless because meets of coarsenings are
        coarsenings of meets.
        """
        masks = frozenset(
            m.mask if isinstance(m, Subset) else int(m) for m in family
        )
        return _some_refines(self._maximal, masks)

    @property
    def derived_count(self) -> int:
        return len(self._derived)


@cache
def _some_refines(covers: frozenset[frozenset[int]], masks: frozenset[int]) -> bool:
    """Some cover has each member inside a member of the family."""
    return any(all(any(u & ~v == 0 for v in masks) for u in c) for c in covers)
