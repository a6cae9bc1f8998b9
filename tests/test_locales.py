import itertools
import random
import sys

import pytest

import frame_oracle as fo
from coverlab import cauchy, coverspace
from coverlab.finkernel import (
    Carrier,
    Subset,
    discrete,
    indiscrete,
    maximal_masks,
    space_from_masks,
)
from coverlab.locales import (
    LocaleConditionError,
    LocalePoint,
    basic_open,
    cover_map_of_frame_map,
    frame_map_of_cover_map,
    largest_open_within,
    locale_is_proper,
    locale_of_space,
    locale_points,
    maximal_subsets,
    point_space,
    points_of_open,
    verify_equivalence,
)
from helpers import (
    all_families,
    all_precovers_up_to,
    all_spaces_up_to,
    all_subsets,
    locale_of_space_oracle,
    random_partition_space,
    random_precover_space,
    strongly_rather_below_oracle,
)


def ideal_set(m, a):
    """The ideal E(S) that the element a of a library frame stands for: the
    subsets all of whose isolated members inside them are atoms of a."""
    return frozenset(
        u
        for u in range(m.presentation.full + 1)
        if all(a >> i & 1 for i, w in enumerate(m.atoms) if w & ~u == 0)
    )


def locale_target_space():
    from coverlab.finkernel import indiscrete

    return indiscrete(1)


def chain_locale():
    """A hand-built three-element chain; not regular, so never arises from
    a coverage presentation, but a legal tabulated frame for the point
    operations."""
    c = Carrier(2)
    els = [
        fo.FrameElement(c, frozenset({0})),
        fo.FrameElement(c, frozenset({0, 1})),
        fo.FrameElement(c, frozenset({0, 1, 3})),
    ]
    return fo.FiniteLocale(els)


class TestIdealClosure:
    def test_whole_carrier_generates_top(self):
        s = discrete(2)
        pres = fo.CoveragePresentation(s)
        got = fo.ideal_closure(pres, [Subset.full(s.carrier)])
        assert got.ideal == frozenset(range(4))

    def test_empty_seed_on_discrete(self):
        pres = fo.CoveragePresentation(discrete(2))
        assert fo.ideal_closure(pres, []).ideal == frozenset({0})

    def test_singleton_seed_on_discrete(self):
        s = discrete(2)
        pres = fo.CoveragePresentation(s)
        got = fo.ideal_closure(pres, [Subset.of(s.carrier, [0])])
        assert got.ideal == frozenset({0, 0b01})

    def test_extensive_monotone_idempotent(self):
        rng = random.Random(3)
        for _ in range(60):
            s = random_partition_space(rng, rng.randint(1, 3))
            pres = fo.CoveragePresentation(s)
            seed_a = {rng.randrange(pres.full + 1) for _ in range(2)}
            seed_b = seed_a | {rng.randrange(pres.full + 1)}
            a = fo.ideal_closure(pres, seed_a)
            b = fo.ideal_closure(pres, seed_b)
            assert seed_a <= a.ideal
            assert a.ideal <= b.ideal
            assert fo.ideal_closure(pres, a.ideal) == a

    def test_generator_rule_implies_every_cover_rule(self):
        # an ideal closed under the generator-trace rule is closed under
        # the trace rule for every distinguished cover
        from helpers import all_cauchy_covers

        for s in all_precovers_up_to(3):
            m = fo.locale_of_space(s)
            for element in m.elements:
                for fam in all_cauchy_covers(s):
                    for u in range(s.carrier.full_mask + 1):
                        traces = {u & v.mask for v in fam}
                        if traces <= element.ideal:
                            assert u in element.ideal


class TestLocaleConstruction:
    def test_boolean_frame_of_discrete(self):
        m = locale_of_space(discrete(2))
        assert len(m) == 4
        assert {ideal_set(m, e) for e in m.elements} == {
            frozenset({0}),
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({0, 1, 2, 3}),
        }

    def test_two_element_frame_of_point(self):
        m = locale_of_space(indiscrete(1))
        assert len(m) == 2

    def test_len_refuses_past_sys_maxsize(self):
        # len() returns at most sys.maxsize = 2^k - 1, so a frame of k atoms is
        # too large for it; top + 1 still counts the elements
        k = sys.maxsize.bit_length()
        assert len(locale_of_space(discrete(k - 1))) == 2 ** (k - 1)
        for n in (k, 70):
            m = locale_of_space(discrete(n))
            assert m.top + 1 == 2 ** n
            with pytest.raises(OverflowError, match=r"read top \+ 1 instead$"):
                len(m)

    def test_distributivity_tabulated(self):
        for s in all_precovers_up_to(2) + [space_from_masks(3, [[0, 1], [1, 2]])]:
            m = locale_of_space(s)
            for a, b, c in itertools.product(m.elements, repeat=3):
                lhs = m.meet(a, m.join([b, c]))
                rhs = m.join([m.meet(a, b), m.meet(a, c)])
                assert lhs == rhs

    def test_join_matches_closure_route(self):
        rng = random.Random(5)
        for s in all_precovers_up_to(3):
            m = locale_of_space(s)
            pres = fo.CoveragePresentation(s)
            for _ in range(10):
                parts = rng.sample(m.elements, k=min(len(m.elements), rng.randint(1, 3)))
                union = set()
                for p in parts:
                    union |= ideal_set(m, p)
                assert ideal_set(m, m.join(parts)) == fo.ideal_closure(pres, union).ideal

    def test_negation_laws(self):
        for s in all_precovers_up_to(3):
            m = locale_of_space(s)
            for b in m.elements:
                nb = m.negation(b)
                assert m.meet(b, nb) == m.bottom
                for a in m.elements:
                    if m.meet(a, b) == m.bottom:
                        assert m.leq(a, nb)

    def test_every_locale_of_a_space_is_regular(self):
        for s in all_precovers_up_to(3):
            assert locale_of_space(s).is_regular()


class TestStrongRatherBelowClosedForm:
    def test_matches_definition_up_to_four_points(self):
        for s in all_precovers_up_to(4):
            pres = fo.CoveragePresentation(s)
            for u in all_subsets(s.carrier):
                expected = tuple(
                    v.mask
                    for v in all_subsets(s.carrier)
                    if strongly_rather_below_oracle(s, v, u)
                )
                assert pres.srb_below(u.mask) == expected
                assert pres.srb_max[u.mask] == max(expected)


def _matches_tabulated(s, walk=None):
    """The library frame of s against the tabulated one and, when given,
    the antichain walk: ideals, basic opens, points, the maximal subsets of
    every element, and the equivalence report."""
    m = locale_of_space(s)
    t = fo.locale_of_space(s)
    ideals = [ideal_set(m, a) for a in m.elements]
    assert len(set(ideals)) == len(ideals)
    assert set(ideals) == {e.ideal for e in t.elements}, s
    if walk is not None:
        assert set(ideals) == walk, s
    for u in all_subsets(s.carrier):
        got = ideal_set(m, basic_open(m.presentation, u))
        assert got == fo.basic_open(t.presentation, u).ideal
    points = {ideal_set(m, p.prime) for p in locale_points(m)}
    assert len(points) == len(locale_points(m))
    assert points == {p.prime.ideal for p in fo.locale_points(t)}
    for a, ideal in zip(m.elements, ideals):
        assert [u.mask for u in maximal_subsets(m, a)] == maximal_masks(ideal)
    got, want = verify_equivalence(s), fo.verify_equivalence(s)
    assert (got.checks, got.eta, got.point_count) == (
        want.checks, want.eta, want.point_count
    )


class TestJoinClosureBuild:
    def test_matches_antichain_walk_up_to_four_points(self):
        for s in all_precovers_up_to(4):
            _matches_tabulated(s, locale_of_space_oracle(s))

    def test_matches_join_closure_on_five_and_six_points(self):
        rng = random.Random(22)
        spaces = [discrete(5), discrete(6)]
        for _ in range(8):
            spaces.append(random_precover_space(rng, rng.choice((5, 6))))
            spaces.append(random_partition_space(rng, rng.choice((5, 6))))
        for s in spaces:
            _matches_tabulated(s)

    def test_random_partitions_have_boolean_frames(self):
        rng = random.Random(20)
        for _ in range(12):
            s = random_partition_space(rng, rng.choice((5, 6)))
            k = len(s.generator.members)
            m = locale_of_space(s)
            assert len(m) == 2 ** k
            assert len(locale_points(m)) == k

    def test_random_precovers_give_closed_tables(self):
        rng = random.Random(21)
        for _ in range(12):
            s = random_precover_space(rng, rng.choice((5, 6)))
            m = fo.locale_of_space(s)
            pres = m.presentation
            table = set(m.elements)
            for e in m.elements:
                assert fo.ideal_closure(pres, e.ideal) == e
            for u in range(pres.full + 1):
                assert fo.ideal_closure(pres, [u]) in table
            for a, b in itertools.product(m.elements, repeat=2):
                assert fo.FrameElement(a.carrier, a.ideal & b.ideal) in table
                assert fo.ideal_closure(pres, a.ideal | b.ideal) in table


class TestPoints:
    def test_boolean_frame_points_are_atoms(self):
        m = locale_of_space(discrete(2))
        pts = locale_points(m)
        assert len(pts) == 2
        assert {ideal_set(m, p.prime) for p in pts} == {
            frozenset({0, 1}),
            frozenset({0, 2}),
        }

    def test_two_element_frame_has_one_point(self):
        m = locale_of_space(indiscrete(1))
        pts = locale_points(m)
        assert len(pts) == 1 and pts[0].prime == m.top

    def test_chain_has_two_points(self):
        m = chain_locale()
        pts = fo.locale_points(m)
        assert len(pts) == 2
        assert {len(p.prime.ideal) for p in pts} == {2, 3}

    def test_matches_filter_oracle(self):
        for s in all_precovers_up_to(3):
            m = locale_of_space(s)
            want = fo.locale_points_oracle(fo.locale_of_space(s))
            got = [ideal_set(m, p.prime) for p in locale_points(m)]
            assert sorted(got, key=sorted) == sorted(
                (p.prime.ideal for p in want), key=sorted
            )
        assert fo.locale_points(chain_locale()) == fo.locale_points_oracle(
            chain_locale()
        )


class TestExtentAdjunction:
    def test_top_and_bottom_extents(self):
        m = locale_of_space(discrete(3))
        assert len(points_of_open(m, m.top)) == 3
        assert points_of_open(m, m.bottom) == ()

    def test_pointless_open_for_proper_locale(self):
        for s in all_spaces_up_to(3):
            m = locale_of_space(s)
            assert locale_is_proper(m)
            assert largest_open_within(m, ()) == m.bottom

    def test_adjunction_law(self):
        for s in all_precovers_up_to(2) + [space_from_masks(3, [[0], [1, 2]])]:
            m = locale_of_space(s)
            pts = locale_points(m)
            for a in m.elements:
                for r in range(len(pts) + 1):
                    for chosen in itertools.combinations(pts, r):
                        lhs = set(points_of_open(m, a)) <= set(chosen)
                        rhs = m.leq(a, largest_open_within(m, chosen))
                        assert lhs == rhs

    def test_properness_matches_pointless_characterization(self):
        for s in all_precovers_up_to(3):
            m = locale_of_space(s)
            pointless_only_bottom = all(
                points_of_open(m, a) != () or a == m.bottom for a in m.elements
            )
            assert locale_is_proper(m) == pointless_only_bottom
        # the chain has a pointless... every element above bottom has a point
        assert fo.locale_is_proper(chain_locale())


class TestPointSpace:
    def test_boolean_frame_gives_discrete(self):
        assert point_space(locale_of_space(discrete(2))) == discrete(2)

    def test_two_element_frame_gives_single_point(self):
        assert point_space(locale_of_space(indiscrete(1))) == indiscrete(1)

    def test_round_trip_discrete_3(self):
        assert point_space(locale_of_space(discrete(3))) == discrete(3)

    def test_chain_gives_indiscrete_pair(self):
        assert fo.point_space(chain_locale()) == indiscrete(2)

    def test_generator_matches_join_definition(self):
        for s in all_spaces_up_to(3):
            ps = point_space(locale_of_space(s))
            t = fo.locale_of_space(s)
            for fam in all_families(ps.carrier):
                assert coverspace.is_cauchy(
                    ps, fam
                ) == fo.point_cover_is_distinguished(t, fam)

    def test_distinguished_covers_are_refined_by_extent_families(self):
        # each distinguished family is refined member-by-member by the
        # extents of its best open approximations, which join to the top
        for s in all_spaces_up_to(2):
            m = locale_of_space(s)
            ps = point_space(m)
            primes = [p.prime for p in locale_points(m)]
            for fam in all_families(ps.carrier):
                if not coverspace.is_cauchy(ps, fam):
                    continue
                fam = sorted(fam, key=lambda u: u.mask)
                opens = [
                    largest_open_within(
                        m, tuple(LocalePoint(primes[i]) for i in u.members())
                    )
                    for u in fam
                ]
                assert m.join(opens) == m.top
                extents = [
                    Subset.of(
                        ps.carrier,
                        [i for i, q in enumerate(primes) if m.leq(q, a)],
                    )
                    for a in opens
                ]
                for extent, u in zip(extents, fam):
                    assert extent.issubset(u)
                assert coverspace.is_cauchy(ps, extents)

    def test_strongly_complete_point_spaces(self):
        # points of a regular locale form a strongly complete space
        for s in all_spaces_up_to(3):
            ps = point_space(locale_of_space(s))
            assert coverspace.is_strongly_regular(ps)
            assert cauchy.is_complete(ps)

    def test_proper_locale_gives_proper_point_space(self):
        for s in all_spaces_up_to(3):
            m = locale_of_space(s)
            if locale_is_proper(m):
                assert coverspace.is_proper(point_space(m))


class TestFrameMaps:
    def test_identity_round_trip(self):
        m = locale_of_space(discrete(2))
        table = frame_map_of_cover_map((0, 1), m, m)
        assert cover_map_of_frame_map(table, m, m) == (0, 1)
        # identity frame map: every element maps to itself
        assert table == tuple(range(len(m)))

    def test_swap_is_atom_swap(self):
        m = locale_of_space(discrete(2))
        table = frame_map_of_cover_map((1, 0), m, m)
        atoms = [i for i, e in enumerate(m.elements) if len(ideal_set(m, e)) == 2]
        a, b = atoms
        assert table[a] == b and table[b] == a
        assert cover_map_of_frame_map(table, m, m) == (1, 0)

    def test_collapse_into_point(self):
        m = locale_of_space(discrete(2))
        n = locale_of_space(discrete(1))
        table = frame_map_of_cover_map((0, 0), m, n)
        assert cover_map_of_frame_map(table, m, n) == (0, 0)

    def test_preserves_meets_and_joins(self):
        rng = random.Random(11)
        for _ in range(20):
            s = random_partition_space(rng, rng.randint(1, 3))
            t = random_partition_space(rng, rng.randint(1, 3))
            sm, tm = locale_of_space(s), locale_of_space(t)
            sp, tp = point_space(sm), point_space(tm)
            f = tuple(rng.randrange(tp.size) for _ in range(sp.size))
            if not coverspace.is_cover_map(f, sp, tp):
                continue
            table = frame_map_of_cover_map(f, sm, tm)
            gstar = {tm.elements[i]: sm.elements[table[i]] for i in range(len(tm))}
            for a, b in itertools.product(tm.elements, repeat=2):
                assert gstar[tm.meet(a, b)] == sm.meet(gstar[a], gstar[b])
                assert gstar[tm.join([a, b])] == sm.join([gstar[a], gstar[b]])
            assert gstar[tm.bottom] == sm.bottom
            assert cover_map_of_frame_map(table, sm, tm) == f

    def test_constant_maps_round_trip(self):
        m = locale_of_space(discrete(2))
        for const in ((0, 0), (1, 1)):
            table = frame_map_of_cover_map(const, m, m)
            assert cover_map_of_frame_map(table, m, m) == const

    def test_non_boolean_source(self):
        # the chain is proper, so maps out of its point space induce frame
        # maps; collapse both points into the one-point target
        m = chain_locale()
        n = fo.locale_of_space(locale_target_space())
        table = fo.frame_map_of_cover_map((0, 0), m, n)
        assert fo.cover_map_of_frame_map(table, m, n) == (0, 0)
        gstar = {n.elements[i]: m.elements[table[i]] for i in range(len(n))}
        assert gstar[n.bottom] == m.bottom
        assert gstar[n.top] == m.top

    def test_table_that_is_not_a_frame_map(self):
        # every element pulled back to the top: each point lands on both atoms
        m = locale_of_space(discrete(2))
        with pytest.raises(LocaleConditionError):
            cover_map_of_frame_map((m.top,) * len(m), m, m)

    def test_condition_errors(self):
        m = fo.locale_of_space(discrete(2))
        with pytest.raises(fo.LocaleConditionError):
            fo.frame_map_of_cover_map((0, 1), m, chain_locale())  # chain not regular


class TestLocaleLemmas:
    def test_basic_open_join_reaches_top_iff_distinguished(self):
        # for a proper strongly regular space, a family is distinguished
        # exactly when its basic opens join to the top
        for s in all_spaces_up_to(3):
            m = locale_of_space(s)
            pres = m.presentation
            for fam in all_families(s.carrier):
                joined = m.join([basic_open(pres, u) for u in fam] + [m.bottom])
                assert coverspace.is_cauchy(s, fam) == (joined == m.top)

    def test_strongly_below_with_dominated_basic_open(self):
        # if U' is strongly below U and the basic open of U is under the
        # join of the basic opens of the V's, the complement of U' plus
        # the V's is distinguished
        rng = random.Random(13)
        exercised = 0
        for _ in range(200):
            s = random_partition_space(rng, rng.randint(1, 3))
            m = locale_of_space(s)
            pres = m.presentation
            full = s.carrier.full_mask
            u = Subset(s.carrier, rng.randrange(full + 1))
            u_prime = Subset(s.carrier, u.mask & rng.randrange(full + 1))
            if not strongly_rather_below_oracle(s, u_prime, u):
                continue
            vs = [Subset(s.carrier, rng.randrange(full + 1)) for _ in range(2)]
            joined = m.join([basic_open(pres, v) for v in vs])
            if m.leq(basic_open(pres, u), joined):
                exercised += 1
                fam = [u_prime.complement()] + vs
                assert coverspace.is_cauchy(s, fam)
        assert exercised > 20

    def test_point_cover_lemma(self):
        # a neighborhood whose basic open is dominated by a join passes
        # neighborhood-hood to one of the joinands
        for s in all_spaces_up_to(3):
            m = locale_of_space(s)
            pres = m.presentation
            subsets = all_subsets(s.carrier)
            for u in subsets:
                bu = basic_open(pres, u)
                for vs in itertools.combinations(subsets, 2):
                    if not m.leq(bu, m.join([basic_open(pres, v) for v in vs])):
                        continue
                    for x in s.carrier.elements():
                        if coverspace.is_neighborhood(s, u, x):
                            assert any(
                                coverspace.is_neighborhood(s, v, x) for v in vs
                            )

    def test_point_space_neighborhoods_contain_extents(self):
        for s in all_spaces_up_to(3):
            m = locale_of_space(s)
            ps = point_space(m)
            primes = [p.prime for p in locale_points(m)]
            for u in all_subsets(ps.carrier):
                for i in range(ps.size):
                    if not coverspace.is_neighborhood(ps, u, i):
                        continue
                    assert any(
                        m.leq(primes[i], a)
                        and Subset.of(
                            ps.carrier,
                            [j for j, q in enumerate(primes) if m.leq(q, a)],
                        ).issubset(u)
                        for a in m.elements
                    )


class TestVerifyEquivalence:
    def test_discrete_spaces(self):
        for n in (1, 2, 3):
            report = verify_equivalence(discrete(n))
            assert report.passed
            assert report.point_count == n

    def test_single_point(self):
        report = verify_equivalence(indiscrete(1))
        assert report.passed and report.point_count == 1

    def test_completion_of_reflected_precover(self):
        s = space_from_masks(3, [[0, 1], [1, 2]])
        r = coverspace.regular_reflection(s)
        comp = cauchy.completion(r)
        report = verify_equivalence(comp.structure)
        assert report.passed

    def test_precondition_failure(self):
        report = verify_equivalence(space_from_masks(3, [[0, 1], [1, 2]]))
        assert not report.passed
        names = {name for name, ok, _ in report.checks if not ok}
        assert "space_strongly_complete" in names

    def test_non_separated_partition_fails_precondition(self):
        report = verify_equivalence(space_from_masks(3, [[0], [1, 2]]))
        assert not report.passed
