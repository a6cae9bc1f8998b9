import random

import pytest

from coverlab import cauchy
from coverlab.coverspace import (
    MAX_MEET_PAIRS,
    MeetBudgetError,
    RegularityError,
    SubbasePresentation,
    close_masks,
    close_subbase,
    from_topology,
    interior,
    is_cauchy,
    is_closed,
    is_cover_map,
    is_dense,
    is_embedding,
    is_limit_point,
    is_neighborhood,
    is_proper,
    is_strongly_regular,
    closure_of,
    rather_below,
    regular_reflection,
    satisfies_cr,
    strongly_rather_below,
    to_topology,
)
from coverlab.finkernel import (
    Carrier,
    Cover,
    Subset,
    all_canonical_covers,
    discrete,
    indiscrete,
    refines,
    space_from_cover,
    space_from_masks,
    product,
    transfer,
)
from helpers import (
    all_cauchy_covers,
    all_families,
    all_precovers_up_to,
    all_spaces_up_to,
    all_subsets,
    cr_holds_for_cover,
    opens_of,
    partitions_are_the_cover_spaces,
    random_partition_space,
    random_precover_space,
    random_subset,
    strongly_rather_below_oracle,
    topology_from_opens,
)


def sub(s, xs):
    return Subset.of(s.carrier, xs)


def fam(s, *subsets):
    return [Subset.of(s.carrier, xs) for xs in subsets]


class TestCloseSubbase:
    def test_empty_subbase_is_indiscrete(self):
        got = close_subbase(SubbasePresentation(Carrier(2), ()))
        assert got == indiscrete(2)

    def test_meet_then_antichain(self):
        carrier = Carrier(3)
        b = SubbasePresentation(
            carrier,
            (
                Cover.of(carrier, fam(space_from_masks(3, [[0, 1, 2]]), [0, 1], [1, 2])),
                Cover.of(carrier, fam(space_from_masks(3, [[0, 1, 2]]), [0], [1, 2])),
            ),
        )
        got = close_subbase(b)
        assert {m.mask for m in got.generator.members} == {0b001, 0b110}

    def test_single_cover(self):
        carrier = Carrier(2)
        b = SubbasePresentation(
            carrier, (Cover.of_masks(carrier, {0b01, 0b10}),)
        )
        assert close_subbase(b) == discrete(2)

    def test_meet_budget_refuses_before_forming_pairs(self):
        class Unmet(list):
            def __iter__(self):
                raise AssertionError("a pair was formed past the budget")

        rng = random.Random(5)
        first = [rng.getrandbits(30) | 1 << x for x in range(30)]
        assert len(set(first)) == 30
        # 30 meets so far times 667 members passes MAX_MEET_PAIRS = 20,000
        assert MAX_MEET_PAIRS == 20_000
        with pytest.raises(MeetBudgetError, match="20010 pairs, more than 20000"):
            close_masks(30, [first, Unmet([1] * 667)])
        # 30 * 666 = 19,980 pairs stay within it
        assert close_masks(30, [first, [(1 << 30) - 1] * 666]) == close_masks(30, [first])
        # a single cover of MAX_MEET_PAIRS members answers
        assert close_masks(20_000, [[1 << x for x in range(20_000)]]) == discrete(20_000)

    def test_first_cover_is_held_to_the_budget(self):
        # the first cover is taken without a meet, but not without the check
        class Unread(list):
            def __iter__(self):
                raise AssertionError("a cover past the budget was read")

        with pytest.raises(MeetBudgetError, match="^meeting 1 masks with a cover of 20001 "
                           "members forms 20001 pairs, more than 20000$"):
            close_masks(30, [Unread([1] * 20_001)])


class TestIsCauchy:
    def test_examples(self):
        s = space_from_masks(3, [[0], [1, 2]])
        assert not is_cauchy(s, fam(s, [0, 1], [2]))
        assert is_cauchy(s, fam(s, [0, 1, 2]))
        assert is_cauchy(s, fam(s, [0], [1], [1, 2]))

    def test_accepted_families_cover(self):
        rng = random.Random(23)
        for _ in range(50):
            s = random_precover_space(rng, 3)
            for fam_ in all_families(s.carrier):
                if is_cauchy(s, fam_):
                    union = 0
                    for m in fam_:
                        union |= m.mask
                    assert union == s.carrier.full_mask


class TestRatherBelow:
    def test_examples(self):
        d2, i2 = discrete(2), indiscrete(2)
        assert rather_below(d2, sub(d2, [0]), sub(d2, [0]))
        assert not rather_below(i2, sub(i2, [0]), sub(i2, [0]))
        assert rather_below(i2, sub(i2, [0]), sub(i2, [0, 1]))

    def test_empty_below_everything(self):
        rng = random.Random(29)
        for _ in range(50):
            s = random_precover_space(rng, 3)
            u = random_subset(rng, s.carrier)
            assert rather_below(s, Subset.empty(s.carrier), u)

    def test_rb_props_randomized(self):
        rng = random.Random(31)
        for _ in range(300):
            s = random_precover_space(rng, rng.randint(1, 4))
            v, u = random_subset(rng, s.carrier), random_subset(rng, s.carrier)
            v2, u2 = random_subset(rng, s.carrier), random_subset(rng, s.carrier)
            if rather_below(s, v, u):
                assert v.issubset(u)  # item 1
                if v2.issubset(v) and u.issubset(u2):
                    assert rather_below(s, v2, u2)  # item 2
                if rather_below(s, v2, u2):
                    assert rather_below(s, v & v2, u & u2)  # item 3
            assert rather_below(s, v, Subset.full(s.carrier))  # item 4
            assert rather_below(s, Subset.empty(s.carrier), u)  # item 5

    def test_rbs_props_randomized(self):
        rng = random.Random(37)
        for _ in range(300):
            s = random_precover_space(rng, rng.randint(1, 4))
            v, u = random_subset(rng, s.carrier), random_subset(rng, s.carrier)
            v2, u2 = random_subset(rng, s.carrier), random_subset(rng, s.carrier)
            if strongly_rather_below(s, v, u):
                assert rather_below(s, v, u)  # item 1
                if v2.issubset(v) and u.issubset(u2):
                    assert strongly_rather_below(s, v2, u2)  # item 2
                if strongly_rather_below(s, v2, u2):
                    assert strongly_rather_below(s, v & v2, u & u2)  # item 3
            assert strongly_rather_below(s, v, Subset.full(s.carrier))  # item 4
            assert strongly_rather_below(s, Subset.empty(s.carrier), u)  # item 5

    def test_strong_examples(self):
        d2, i2 = discrete(2), indiscrete(2)
        assert strongly_rather_below(d2, sub(d2, [0]), sub(d2, [0]))
        assert not strongly_rather_below(i2, sub(i2, [0]), sub(i2, [0]))

    def test_two_relations_coincide_exhaustively(self):
        # classical engine: the complement formulation, evaluated from its
        # definition, equals the original and the library's strong relation
        for s in all_precovers_up_to(3):
            for v in all_subsets(s.carrier):
                for u in all_subsets(s.carrier):
                    want = strongly_rather_below_oracle(s, v, u)
                    assert rather_below(s, v, u) == want
                    assert strongly_rather_below(s, v, u) == want


class TestRegularityChecks:
    def test_examples(self):
        for n in (1, 2, 3):
            assert satisfies_cr(discrete(n)) and is_strongly_regular(discrete(n))
            assert satisfies_cr(indiscrete(n)) and is_strongly_regular(indiscrete(n))

    def test_overlapping_generator_fails(self):
        s = space_from_masks(3, [[0, 1], [1, 2]])
        # oracle: evaluate the axiom on the generator from the definition,
        # scanning all 8 subsets for the rather-below expansion
        expansion = [
            w
            for w in all_subsets(s.carrier)
            if any(rather_below(s, w, u) for u in s.generator.members)
        ]
        assert is_cauchy(s, expansion) == satisfies_cr(s) is False

    def test_generator_shortcut_matches_all_covers(self):
        for s in all_precovers_up_to(3):
            definition = all(
                cr_holds_for_cover(s, fam_) for fam_ in all_cauchy_covers(s)
            )
            assert satisfies_cr(s) == definition

    def test_strong_regularity_equals_cr_on_finite_carriers(self):
        for s in all_precovers_up_to(3):
            assert satisfies_cr(s) == is_strongly_regular(s)

    def test_cover_spaces_are_partitions(self):
        assert partitions_are_the_cover_spaces(2)
        assert partitions_are_the_cover_spaces(3)


class TestRegularReflection:
    def test_fixes_cover_spaces(self):
        for s in all_spaces_up_to(3):
            assert regular_reflection(s) == s

    def test_indiscrete_fixed(self):
        assert regular_reflection(indiscrete(3)) == indiscrete(3)

    def test_maximal_among_regular_coarsenings(self):
        for s in all_precovers_up_to(3):
            r = regular_reflection(s)
            assert satisfies_cr(r)
            assert refines(s.generator, r.generator)  # contained in s
            for e in all_canonical_covers(s.carrier):
                if refines(s.generator, e) and satisfies_cr(space_from_cover(e)):
                    assert refines(r.generator, e)  # contains that coarsening

    def test_sampled_n4(self):
        rng = random.Random(41)
        for _ in range(5):
            s = random_precover_space(rng, 4)
            r = regular_reflection(s)
            assert satisfies_cr(r)
            assert refines(s.generator, r.generator)


class TestProper:
    def test_always_proper_examples(self):
        assert is_proper(discrete(2))
        assert is_proper(indiscrete(3))

    def test_agreement_with_definition(self):
        rng = random.Random(43)
        for _ in range(10):
            s = random_precover_space(rng, 3)
            assert is_proper(s)
            empty = Subset.empty(s.carrier)
            for fam_ in all_families(s.carrier):
                if is_cauchy(s, set(fam_) | {empty}):
                    assert is_cauchy(s, fam_)


class TestTopologyBridge:
    def test_discrete_indiscrete(self):
        t = to_topology(discrete(3))
        assert len(opens_of(t)) == 8
        t = to_topology(indiscrete(3))
        assert {o.mask for o in opens_of(t)} == {0, 0b111}

    def test_overlapping_generator_opens(self):
        s = space_from_masks(3, [[0, 1], [1, 2]])
        t = to_topology(s)
        assert {o.mask for o in opens_of(t)} == {0, 0b111}
        assert t.is_regular()

    def test_interior_two_routes(self):
        rng = random.Random(47)
        for _ in range(100):
            s = random_partition_space(rng, rng.randint(1, 4))
            t = to_topology(s)
            for u in all_subsets(s.carrier):
                assert interior(s, u) == t.interior(u)

    def test_closure_two_routes(self):
        rng = random.Random(53)
        for _ in range(100):
            s = random_partition_space(rng, rng.randint(1, 4))
            t = to_topology(s)
            for u in all_subsets(s.carrier):
                assert closure_of(s, u) == t.closure(u)
                assert is_closed(s, u) == (t.closure(u) == u)

    def test_cover_int(self):
        # distinguished covers stay distinguished after taking interiors
        rng = random.Random(59)
        for _ in range(200):
            s = random_partition_space(rng, rng.randint(1, 4))
            fam_ = [random_subset(rng, s.carrier) for _ in range(3)]
            fam_.append(Subset.full(s.carrier))
            if is_cauchy(s, fam_):
                assert is_cauchy(s, [interior(s, u) for u in fam_])

    def test_top_regular(self):
        rng = random.Random(61)
        for _ in range(100):
            s = random_partition_space(rng, rng.randint(1, 4))
            assert to_topology(s).is_regular()

    def test_top_neighborhood(self):
        # U is a topological neighborhood of x iff the singleton sits rather below U
        rng = random.Random(67)
        for _ in range(50):
            s = random_partition_space(rng, rng.randint(1, 4))
            t = to_topology(s)
            for u in all_subsets(s.carrier):
                for x in s.carrier.elements():
                    topological = t.minimal_neighborhood(x).issubset(u)
                    assert topological == is_neighborhood(s, u, x)

    def test_from_topology_examples(self):
        full = topology_from_opens(Carrier(2), all_subsets(Carrier(2)))
        assert from_topology(full) == discrete(2)
        indis = topology_from_opens(
            Carrier(2), {Subset.empty(Carrier(2)), Subset.full(Carrier(2))}
        )
        assert from_topology(indis) == indiscrete(2)

    def test_from_topology_partition(self):
        carrier = Carrier(4)
        blocks = [Subset.of(carrier, [0, 1]), Subset.of(carrier, [2, 3])]
        opens = {Subset.empty(carrier), Subset.full(carrier), *blocks}
        got = from_topology(topology_from_opens(carrier, opens))
        assert {m.mask for m in got.generator.members} == {0b0011, 0b1100}

    def test_from_topology_rejects_nonregular(self):
        carrier = Carrier(2)
        sierpinski = frozenset(
            {Subset.empty(carrier), Subset.of(carrier, [0]), Subset.full(carrier)}
        )
        with pytest.raises(RegularityError):
            from_topology(topology_from_opens(carrier, sierpinski))

    def test_round_trip(self):
        for s in all_spaces_up_to(3):
            t = to_topology(s)
            assert opens_of(to_topology(from_topology(t))) == opens_of(t)

    def test_dense_subsets(self):
        s = indiscrete(3)
        assert is_dense(s, sub(s, [1]))
        d = discrete(2)
        assert not is_dense(d, sub(d, [0]))
        assert is_limit_point(s, sub(s, [0]), 2)


class TestSoberInstances:
    def _open_filters(self, t):
        opens = sorted(opens_of(t), key=lambda o: o.mask)
        import itertools

        for r in range(1, len(opens) + 1):
            for combo in itertools.combinations(opens, r):
                chosen = set(combo)
                if Subset.empty(t.carrier) in chosen:
                    continue
                up_closed = all(
                    o in chosen
                    for c in chosen
                    for o in opens
                    if c.issubset(o)
                )
                meet_closed = all(
                    (a & b) in chosen or not t.is_open(a & b)
                    for a in chosen
                    for b in chosen
                )
                inter_open = all(t.is_open(a & b) for a in chosen for b in chosen)
                if up_closed and meet_closed and inter_open:
                    yield chosen

    def _completely_prime(self, t, filt):
        opens = list(opens_of(t))
        import itertools

        for r in range(len(opens) + 1):
            for combo in itertools.combinations(opens, r):
                union = Subset.empty(t.carrier)
                for o in combo:
                    union = union | o
                if t.is_open(union) and union in filt:
                    if not any(o in filt for o in combo):
                        return False
        return True

    def test_strongly_complete_spaces_have_sober_topology(self):
        for s in all_spaces_up_to(3):
            if not (is_strongly_regular(s) and cauchy.is_complete(s)):
                continue
            t = to_topology(s)
            for filt in self._open_filters(t):
                if not self._completely_prime(t, filt):
                    continue
                matching = [
                    x
                    for x in s.carrier.elements()
                    if filt == {o for o in opens_of(t) if t.minimal_neighborhood(x).issubset(o)}
                ]
                assert len(matching) == 1

    def test_sober_strongly_regular_topology_gives_complete_space(self):
        for s in all_spaces_up_to(3):
            t = to_topology(s)
            sober = all(
                len([
                    x
                    for x in s.carrier.elements()
                    if filt == {o for o in opens_of(t) if t.minimal_neighborhood(x).issubset(o)}
                ]) == 1
                for filt in self._open_filters(t)
                if self._completely_prime(t, filt)
            )
            if sober:
                assert cauchy.is_complete(from_topology(t))


class TestCoverMaps:
    def test_identity_and_indiscrete_target(self):
        s = space_from_masks(3, [[0], [1, 2]])
        assert is_cover_map([0, 1, 2], s, s)
        assert is_cover_map([0, 1, 0], s, indiscrete(3))

    def test_constant_vs_identity_into_discrete(self):
        assert is_cover_map([0, 0], indiscrete(2), discrete(2))
        assert not is_cover_map([0, 1], indiscrete(2), discrete(2))

    def test_generator_check_matches_all_covers(self):
        rng = random.Random(71)
        for _ in range(60):
            x = random_precover_space(rng, 3)
            y = random_precover_space(rng, rng.randint(1, 3))
            f = [rng.randrange(y.size) for _ in range(x.size)]
            definition = all(
                is_cauchy(
                    x,
                    [
                        Subset.of(
                            x.carrier,
                            [i for i in x.carrier.elements() if v.contains(f[i])],
                        )
                        for v in fam_
                    ],
                )
                for fam_ in all_cauchy_covers(y)
            )
            assert is_cover_map(f, x, y) == definition

    def test_cover_map_rb(self):
        rng = random.Random(73)
        for _ in range(200):
            x = random_precover_space(rng, 3)
            y = random_precover_space(rng, 3)
            f = [rng.randrange(3) for _ in range(3)]
            if not is_cover_map(f, x, y):
                continue
            v, u = random_subset(rng, y.carrier), random_subset(rng, y.carrier)
            if rather_below(y, v, u):
                fv = Subset.of(x.carrier, [i for i in range(3) if v.contains(f[i])])
                fu = Subset.of(x.carrier, [i for i in range(3) if u.contains(f[i])])
                assert rather_below(x, fv, fu)

    def test_embedding_examples(self):
        d2, i2 = discrete(2), indiscrete(2)
        assert is_embedding([0, 1], d2, d2)
        assert not is_embedding([0, 1], d2, i2)
        s = space_from_masks(3, [[0, 1], [1, 2]])
        included = transfer([0, 1], s)
        assert is_embedding([0, 1], included, s)

    def test_transferred_structures_are_embeddings(self):
        rng = random.Random(79)
        for _ in range(100):
            y = random_precover_space(rng, rng.randint(2, 4))
            size = rng.randint(1, y.size)
            f = sorted(rng.sample(range(y.size), size))
            x = transfer(f, y)
            assert is_embedding(f, x, y)

    def test_embeddings_closed_under_products(self):
        rng = random.Random(83)
        for _ in range(40):
            y1 = random_partition_space(rng, rng.randint(2, 3))
            y2 = random_partition_space(rng, rng.randint(2, 3))
            f1 = sorted(rng.sample(range(y1.size), rng.randint(1, y1.size)))
            f2 = sorted(rng.sample(range(y2.size), rng.randint(1, y2.size)))
            x1, x2 = transfer(f1, y1), transfer(f2, y2)
            px = product(x1, x2)
            py = product(y1, y2)
            f = [
                pair_index_of(f1[i1], f2[i2], y2.size)
                for i1 in range(x1.size)
                for i2 in range(x2.size)
            ]
            assert is_embedding(f, px, py)


def pair_index_of(i, j, ny):
    return i * ny + j
