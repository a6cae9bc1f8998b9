"""The closed forms of the finite kernel against their definition-level
oracles: regularity, separation, embeddings, filter regularity,
completeness, completion, the regular reflection, the CLI witnesses, the
lowest-point antichain walk, the star table that walk fills, the induced
topology's neighbourhood table and the pruned meet of a subbase.  Exhaustive up to
carrier size 4, seeded random cases above.  Last, the table of hostile and large
inputs that the CLI answers in bounded time, and a count of the ``Subset``
values the CLI builds."""

import importlib
import itertools
import json
import pkgutil
import random
import time

import pytest

from bounded_time import BOUNDED_TIME, CHAIN_200, DISCRETE_200
from coverlab import cauchy, cli, coverspace, finkernel
from coverlab.cauchy import (
    PrincipalFilter,
    completion,
    dense_lift,
    is_complete,
    is_filter_regular,
    is_filter_strongly_regular,
    is_separated,
    strong_completion,
)
from coverlab.coverspace import (
    FiniteTopology,
    RegularityError,
    from_topology,
    is_cover_map,
    is_embedding,
    is_strongly_regular,
    regular_reflection,
    satisfies_cr,
    to_topology,
)
from coverlab.finkernel import (
    Carrier,
    Cover,
    Subset,
    canonicalize,
    discrete,
    distinct_masks,
    indiscrete,
    maximal_masks,
    points_of,
    refines,
    transfer,
)
from coverlab.locales import locale_of_space, point_space
from helpers import (
    FiniteTopologyOracle,
    all_families,
    all_precovers_up_to,
    all_spaces_up_to,
    all_subsets,
    all_topologies,
    completion_oracle,
    dense_lift_transport,
    filter_refinable_oracle,
    from_topology_oracle,
    is_complete_oracle,
    is_embedding_oracle,
    is_separated_oracle,
    is_strongly_regular_oracle,
    maximal_masks_grouped,
    maximal_masks_oracle,
    neighborhood_base_scan,
    opens_of,
    random_partition_space,
    random_precover_space,
    random_subset,
    rather_below_scan,
    regular_reflection_oracle,
    satisfies_cr_oracle,
    star_table_oracle,
    strongly_rather_below_oracle,
    to_topology_oracle,
    topology_from_opens,
)

PRECOVERS_4 = all_precovers_up_to(4)


def _random_cases(seed, count=40):
    """Seeded partitions and precovers on 5-10 points, plus discrete(n)
    so that separated spaces occur."""
    rng = random.Random(seed)
    cases = [discrete(n) for n in range(5, 11)]
    for _ in range(count):
        n = rng.randint(5, 10)
        make = random_partition_space if rng.random() < 0.5 else random_precover_space
        cases.append(make(rng, n))
    return cases


def _completion_or_error(build, s):
    try:
        return build(s)
    except RegularityError:
        return RegularityError


class TestRegularity:
    def test_exhaustive(self):
        for s in PRECOVERS_4:
            assert satisfies_cr(s) == satisfies_cr_oracle(s)
            assert is_strongly_regular(s) == is_strongly_regular_oracle(s)

    def test_seeded_five_to_ten(self):
        for s in _random_cases(seed=306):
            assert satisfies_cr(s) == satisfies_cr_oracle(s)
            assert is_strongly_regular(s) == is_strongly_regular_oracle(s)


class TestSeparation:
    def test_exhaustive(self):
        for s in PRECOVERS_4:
            assert is_separated(s) == is_separated_oracle(s)

    def test_seeded_five_to_ten(self):
        for s in _random_cases(seed=307):
            assert is_separated(s) == is_separated_oracle(s)


class TestEmbedding:
    def _check(self, y, tables, sources):
        """Each table into y against the given sources on its length, and
        against the transferred structure, which always makes it an
        embedding."""
        for f in tables:
            for x in sources(len(f)):
                assert is_embedding(f, x, y) == is_embedding_oracle(f, x, y)
            x = transfer(f, y)
            assert is_embedding(f, x, y) and is_embedding_oracle(f, x, y)

    def test_exhaustive_small_tables(self):
        # every table from up to two points, or three into up to three,
        # against every structure on its source
        def sources(m):
            return [x for x in PRECOVERS_4 if x.size == m]

        for y in PRECOVERS_4:
            lengths = (1, 2, 3) if y.size <= 3 else (1, 2)
            tables = [
                t for m in lengths for t in itertools.product(range(y.size), repeat=m)
            ]
            self._check(y, tables, sources)

    def test_seeded_five_to_ten(self):
        rng = random.Random(308)
        for y in _random_cases(seed=309):
            tables = [
                [rng.randrange(y.size) for _ in range(rng.randint(1, y.size))]
                for _ in range(6)
            ]
            self._check(
                y,
                tables,
                lambda m: (discrete(m), indiscrete(m), random_precover_space(rng, m)),
            )


def _cr_witness_scan(s):
    """The regularity witness by the rather-below scan: the first member,
    by ascending mask, rather below no generator member."""
    for w in s.generator.sorted_members():
        if not any(coverspace.rather_below(s, w, u) for u in s.generator.members):
            return {"generator_member": list(w.members())}
    return None


def _separation_witness_scan(s):
    """The separation witness by the point-pair scan."""
    for x in s.carrier.elements():
        for y in s.carrier.elements():
            if x < y and cauchy.point_equiv(s, x, y):
                return {"points": [x, y]}
    return None


class TestWitnesses:
    def test_exhaustive(self):
        for s in PRECOVERS_4:
            assert cli._cr_witness(s) == _cr_witness_scan(s)
            assert cli._separation_witness(s) == _separation_witness_scan(s)

    def test_seeded_five_to_ten(self):
        for s in _random_cases(seed=310):
            assert cli._cr_witness(s) == _cr_witness_scan(s)
            assert cli._separation_witness(s) == _separation_witness_scan(s)


class TestFilterRegularity:
    def test_every_base_exhaustive(self):
        for s in PRECOVERS_4:
            for base in all_subsets(s.carrier):
                f = PrincipalFilter(s.carrier, base)
                assert is_filter_regular(s, f) == filter_refinable_oracle(
                    s, f, coverspace.rather_below
                )
                assert is_filter_strongly_regular(s, f) == filter_refinable_oracle(
                    s, f, strongly_rather_below_oracle
                )


class TestCompleteness:
    def test_exhaustive(self):
        for s in PRECOVERS_4:
            assert is_complete(s) == is_complete_oracle(s)

    def test_seeded_five_to_ten(self):
        for s in _random_cases(seed=301):
            assert is_complete(s) == is_complete_oracle(s)

    def test_subset_guard_kept_for_separated_carriers(self):
        # the subset guard is gone: completeness is separation
        assert is_complete(discrete(13))
        assert not is_complete(finkernel.indiscrete(13))


class TestCompletion:
    @pytest.mark.parametrize("strong", [False, True])
    def test_exhaustive(self, strong):
        build = strong_completion if strong else completion
        for s in all_spaces_up_to(4):
            assert build(s) == completion_oracle(s, strong=strong)

    def test_seeded_five_to_ten(self):
        for s in _random_cases(seed=302):
            got = _completion_or_error(completion, s)
            assert got == _completion_or_error(completion_oracle, s)


class TestRegularReflection:
    def test_exhaustive(self):
        for s in PRECOVERS_4:
            assert regular_reflection(s) == regular_reflection_oracle(s)

    def test_seeded_properties_five_to_ten(self):
        rng = random.Random(303)
        for _ in range(60):
            s = random_precover_space(rng, rng.randint(5, 10))
            r = regular_reflection(s)
            assert satisfies_cr(r)
            assert refines(s.generator, r.generator)  # coarser than s
            for block in r.generator.members:
                inside = [w.mask for w in s.generator.members if w.mask & ~block.mask == 0]
                # the members inside a block are connected by overlaps, so
                # no regular coarsening of s can split the block
                reached, todo = {inside[0]}, [inside[0]]
                while todo:
                    w = todo.pop()
                    for v in inside:
                        if v & w and v not in reached:
                            reached.add(v)
                            todo.append(v)
                assert len(reached) == len(inside)
                union = 0
                for w in inside:
                    union |= w
                assert union == block.mask


class TestMaximalMasks:
    def test_matches_canonicalize(self):
        rng = random.Random(304)
        for _ in range(100):
            masks = {rng.randrange(0, 64) for _ in range(rng.randint(1, 6))} | {63}
            cover = Cover.of_masks(finkernel.Carrier(6), masks)
            expected = maximal_masks_oracle(masks)
            assert sorted(m.mask for m in canonicalize(cover).members) == expected
            assert maximal_masks(masks) == expected
            assert maximal_masks(sorted(masks) * 2) == expected

    def test_every_family_up_to_four_points(self):
        # every family of masks, the empty mask included, with a duplicate
        # and in descending order
        for n in range(1, 5):
            for family in all_families(finkernel.Carrier(n)):
                masks = sorted((m.mask for m in family), reverse=True)
                expected = maximal_masks_oracle(masks)
                assert maximal_masks(masks) == expected
                assert maximal_masks(masks + masks[:1]) == expected

    def test_seeded_families_up_to_twelve_points(self):
        rng = random.Random(311)
        for _ in range(3000):
            n = rng.randint(1, 12)
            k = rng.randint(0, 40)
            if rng.random() < 0.5:  # small masks, so that many nest
                masks = [rng.randrange(1 << rng.randint(0, n)) for _ in range(k)]
            else:
                masks = [rng.randrange(1 << n) for _ in range(k)]
            masks += rng.sample(masks, min(len(masks), 3))
            assert maximal_masks(masks) == maximal_masks_oracle(masks)

    def test_matches_the_grouped_walk(self):
        # against the walk over distinct_masks that it replaced: every
        # family up to four points with each of its masks twice, then seeded
        # families up to 200 points with repeats and empty masks
        for n in range(1, 5):
            for family in range(1 << (1 << n)):
                masks = points_of(family) * 2
                assert maximal_masks(masks) == maximal_masks_grouped(masks)
        rng = random.Random(317)
        for _ in range(2000):
            n = rng.choice([5, 8, 12, 30, 200])
            masks = [rng.getrandbits(rng.randint(0, n)) for _ in range(rng.randint(0, 40))]
            masks += rng.choices(masks, k=min(len(masks), 5)) + [0] * rng.randint(0, 2)
            rng.shuffle(masks)
            assert maximal_masks(masks) == maximal_masks_grouped(masks)


class TestDistinctMasks:
    """distinct_masks against sorted(set(...))."""

    def test_every_family_up_to_four_points(self):
        # every family, descending, with its first mask repeated at the end
        for n in range(1, 5):
            for family in range(1 << (1 << n)):
                masks = points_of(family)[::-1]
                assert distinct_masks(masks + masks[:1]) == sorted(set(masks))

    def test_seeded_wide_masks(self):
        # masks up to 10,000 bits, many of them single high bits whose
        # hashes collide, with repeats
        rng = random.Random(316)
        for _ in range(300):
            n = rng.choice([5, 12, 61, 64, 200, 10_000])
            masks = [1 << rng.randrange(n) if rng.random() < 0.5 else rng.getrandbits(n)
                     for _ in range(rng.randint(0, 60))]
            masks += rng.sample(masks, min(len(masks), 5))
            rng.shuffle(masks)
            assert distinct_masks(masks) == sorted(set(masks))
            assert distinct_masks(iter(masks)) == sorted(set(masks))


def _check_star_table(s, pairs):
    """The star table's answers against the member scan."""
    for x in s.carrier.elements():
        assert coverspace.neighborhood_base(s, x) == neighborhood_base_scan(s, x)
    for v, u in pairs:
        assert coverspace.rather_below(s, v, u) == rather_below_scan(s, v, u)


class TestStarTable:
    def test_exhaustive(self):
        for s in PRECOVERS_4:
            subsets = all_subsets(s.carrier)
            _check_star_table(s, itertools.product(subsets, repeat=2))

    def test_seeded_up_to_twelve_points(self):
        rng = random.Random(312)
        for _ in range(300):
            n = rng.randint(5, 12)
            make = random_partition_space if rng.random() < 0.5 else random_precover_space
            s = make(rng, n)
            full = s.carrier.full_mask
            pairs = []
            for _ in range(20):
                v = Subset(s.carrier, rng.randrange(full + 1))
                # u a superset of v half the time, so both answers occur
                extra = rng.randrange(full + 1) if rng.random() < 0.5 else 0
                pairs.append((v, Subset(s.carrier, v.mask | extra)))
            _check_star_table(s, pairs)

    def test_space_checks_its_masks(self):
        assert finkernel.FiniteCoverSpace(3, (0b001, 0b110)).star == (1, 6, 6)
        for masks in [(0b110, 0b001), (0b001, 0b001, 0b110), (0b001, 0b010),
                      (0, 0b111), (0b001, 0b011, 0b110), (0b011, 0b1100)]:
            with pytest.raises(ValueError):
                finkernel.FiniteCoverSpace(3, masks)


def _oracle_answer(n, masks):
    """The star table the oracle gives for masks, or its error message."""
    try:
        return star_table_oracle(n, masks)
    except ValueError as e:
        return str(e)


def _built_answer(build, n, masks):
    try:
        return build(n, masks)
    except ValueError as e:
        return str(e)


def _checked_answer(n, masks):
    """The star table of the checked constructor, or its error message."""
    got = _built_answer(finkernel.FiniteCoverSpace, n, masks)
    return got if isinstance(got, str) else got.star


def _scanned_stars(s):
    return tuple(neighborhood_base_scan(s, x).mask for x in s.carrier.elements())


def _check_generated(n, masks):
    """generated_space against the maximal-masks oracle and the member
    scan, or its refusal against the oracle's."""
    maximal = maximal_masks_oracle(masks)
    got = _built_answer(finkernel.generated_space, n, masks)
    expected = _oracle_answer(n, maximal)
    if isinstance(got, str):
        assert got == expected
    else:
        assert list(got.masks) == maximal
        assert got.star == _scanned_stars(got) == expected


def _check_constructor(n, masks):
    """The checked constructor against the walk it used to run."""
    assert _checked_answer(n, masks) == _oracle_answer(n, masks)


def _seeded_families(rng, n, count):
    """Families of masks on n points, nested half the time, with repeats
    and empty masks."""
    out = []
    for _ in range(count):
        k = rng.randint(0, 40)
        if rng.random() < 0.5:
            masks = [rng.getrandbits(rng.randint(0, n)) for _ in range(k)]
        else:
            masks = [rng.getrandbits(n) for _ in range(k)]
        masks += rng.choices(masks, k=min(k, 3)) + [0] * rng.randint(0, 1)
        if rng.random() < 0.5:  # a covering family
            masks.append(((1 << n) - 1) & ~finkernel.union(masks))
        rng.shuffle(masks)
        out.append(masks)
    return out


def _wide_families(rng, n):
    """A disjoint, a nested and a mixed covering family on n points, each
    with repeats and shuffled: random blocks of the points; the blocks with
    runs of nested parts of some of them; the blocks with parts, masks
    straddling two blocks, and the empty mask."""
    points = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(10, 60)))
    runs = [points[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    blocks = [sum(1 << x for x in run) for run in runs]
    parts = []
    for run in rng.sample(runs, 8):
        for k in sorted(rng.sample(range(1, len(run) + 1), min(len(run), 3))):
            parts.append(sum(1 << x for x in run[-k:]))  # nested, the block among them
    straddling = [(blocks[i] | blocks[i + 1]) & rng.getrandbits(n)
                  | blocks[i] for i in rng.sample(range(len(blocks) - 1), 5)]
    families = [blocks, blocks + parts, blocks + parts + straddling + [0]]
    for masks in families:
        masks += rng.choices(masks, k=4)
        rng.shuffle(masks)
    return families


class TestOneWalk:
    """The walk that finds a generator and fills its star table at once,
    and the spaces whose tables are written down by construction."""

    def test_every_family_up_to_four_points(self):
        # the empty mask and non-antichains included; each family ascending,
        # and with its lowest mask repeated at the end for generated_space
        for n in range(1, 5):
            for family in range(1 << (1 << n)):
                masks = points_of(family)
                _check_generated(n, masks + masks[:1])
                _check_constructor(n, masks)

    def test_seeded_five_to_twelve_points(self):
        rng = random.Random(318)
        for _ in range(150):
            n = rng.randint(5, 12)
            for masks in _seeded_families(rng, n, 10):
                _check_generated(n, masks)
                _check_constructor(n, masks)
                _check_constructor(n, sorted(set(masks)))

    def test_seeded_wide_carriers(self):
        rng = random.Random(319)
        for n in (200, 700, 2000):
            for masks in _seeded_families(rng, n, 3):
                _check_generated(n, masks)
                _check_constructor(n, sorted(set(masks)))

    def test_disjoint_nested_and_mixed_families_at_scale(self):
        # the walk skips its scan for a mask whose lowest point no kept mask
        # holds: always so for disjoint blocks, never for a block's own parts
        rng = random.Random(322)
        for n in (200, 1000, 10_000):
            for masks in _wide_families(rng, n):
                assert finkernel.maximal_masks(masks) == maximal_masks_oracle(masks)
                _check_generated(n, masks)

    def test_a_mask_outside_the_carrier_is_refused(self):
        for masks in [(0b1000,), (0b001, 0b110, 0b1000), (-1,), (0b111, -0b10)]:
            for build in (finkernel.generated_space, finkernel.FiniteCoverSpace):
                with pytest.raises(ValueError, match="not an ascending antichain"):
                    build(3, masks)

    def test_tables_written_by_construction(self):
        rng = random.Random(320)
        spaces = [*PRECOVERS_4, *_random_cases(321), discrete(300), indiscrete(300)]
        spaces += [discrete(n) for n in range(1, 13)] + [indiscrete(n) for n in range(1, 13)]
        for s in spaces:
            built = [s, regular_reflection(s)]
            if satisfies_cr(s):
                built.append(completion(s).structure)
                built.append(point_space(locale_of_space(s)))
            for t in built:
                assert t.star == _scanned_stars(t) == star_table_oracle(t.size, t.masks)
        wide = [random_precover_space(rng, 200) for _ in range(3)]
        for s in wide:
            t = regular_reflection(s)
            assert t.star == _scanned_stars(t) == star_table_oracle(t.size, t.masks)


def _check_strong_relation(s, pairs):
    """Both rather-below relations against the definition of the strong one."""
    for v, u in pairs:
        expected = strongly_rather_below_oracle(s, v, u)
        assert coverspace.rather_below(s, v, u) == expected
        assert coverspace.strongly_rather_below(s, v, u) == expected


class TestStrongRatherBelow:
    def test_every_pair_exhaustive(self):
        for s in PRECOVERS_4:
            subsets = all_subsets(s.carrier)
            _check_strong_relation(s, itertools.product(subsets, repeat=2))

    def test_seeded_five_to_twelve(self):
        rng = random.Random(313)
        for _ in range(200):
            n = rng.randint(5, 12)
            make = random_partition_space if rng.random() < 0.5 else random_precover_space
            s = make(rng, n)
            pairs = []
            for _ in range(30):
                v = random_subset(rng, s.carrier)
                # u random, or grown from v or from v's star, so that both
                # answers occur
                star = finkernel.union(s.star[x] for x in v.members())
                grown = rng.choice([0, v.mask, star])
                u = Subset(s.carrier, grown | rng.randrange(s.carrier.full_mask + 1))
                pairs.append((v, u))
            _check_strong_relation(s, pairs)


def _space_or_error(build, t):
    try:
        return build(t)
    except RegularityError:
        return RegularityError


def _check_topology(t, o, subsets, pairs):
    """The neighbourhood table t against the enumerating oracle o."""
    assert t.carrier == o.carrier
    for x in o.carrier.elements():
        assert t.minimal_neighborhood(x) == o.minimal_neighborhood(x)
    assert opens_of(t) == o.opens
    for u in subsets:
        assert t.is_open(u) == o.is_open(u)
        assert t.interior(u) == o.interior(u)
        assert t.closure(u) == o.closure(u)
    for v, u in pairs:
        assert t.rather_below(v, u) == o.rather_below(v, u)
    # the oracle's regularity scan is quadratic in the opens
    if len(o.opens) <= 64:
        assert t.is_regular() == o.is_regular()
        assert _space_or_error(from_topology, t) == _space_or_error(from_topology_oracle, o)


def _random_pairs(rng, t, count=40):
    """Random (v, u) pairs, u grown from v's neighbourhoods half the time,
    so that both answers of rather-below occur."""
    pairs = []
    for _ in range(count):
        v = random_subset(rng, t.carrier)
        grown = finkernel.union(t.nbhd[x] for x in v.members()) if rng.random() < 0.5 else 0
        pairs.append((v, Subset(t.carrier, grown | rng.randrange(t.carrier.full_mask + 1))))
    return pairs


def _random_topology(rng, n):
    """The opens generated by unions and intersections from the empty set,
    the carrier and up to three random subsets: at most 20 opens, most
    often not regular."""
    full = (1 << n) - 1
    opens = {0, full} | {rng.randrange(full + 1) for _ in range(rng.randint(1, 3))}
    while True:
        grown = opens.union(*({a & b, a | b} for a in opens for b in opens))
        if grown == opens:
            break
        opens = grown
    carrier = Carrier(n)
    return FiniteTopologyOracle(carrier, [Subset(carrier, m) for m in opens])


class TestTopologyTable:
    def test_every_precover_up_to_four_points(self):
        for s in PRECOVERS_4:
            subsets = all_subsets(s.carrier)
            _check_topology(to_topology(s), to_topology_oracle(s), subsets,
                            itertools.product(subsets, repeat=2))

    def test_every_topology_up_to_three_points(self):
        regular = []
        for n in (1, 2, 3):
            for o in all_topologies(Carrier(n)):
                t = topology_from_opens(o.carrier, o.opens)
                subsets = all_subsets(o.carrier)
                _check_topology(t, o, subsets, itertools.product(subsets, repeat=2))
                regular.append(t.is_regular())
        assert len(regular) == 1 + 4 + 29
        assert 0 < regular.count(False) < len(regular)  # Sierpinski among them

    def test_sierpinski(self):
        carrier = Carrier(2)
        t = topology_from_opens(carrier, [Subset.empty(carrier), Subset.of(carrier, [0]),
                                          Subset.full(carrier)])
        assert t.nbhd == (0b01, 0b11)
        assert not t.is_regular()
        assert t.closure(Subset.of(carrier, [0])) == Subset.full(carrier)
        assert t.interior(Subset.of(carrier, [1])) == Subset.empty(carrier)

    def test_seeded_spaces_five_to_ten(self):
        rng = random.Random(316)
        for s in _random_cases(seed=317):
            t = to_topology(s)
            _check_topology(t, to_topology_oracle(s),
                            [random_subset(rng, s.carrier) for _ in range(40)],
                            _random_pairs(rng, t))

    def test_seeded_topologies_five_to_ten(self):
        rng = random.Random(318)
        for _ in range(60):
            o = _random_topology(rng, rng.randint(5, 10))
            t = topology_from_opens(o.carrier, o.opens)
            _check_topology(t, o, [random_subset(rng, o.carrier) for _ in range(40)],
                            _random_pairs(rng, t))

    def test_table_is_checked(self):
        assert FiniteTopology(3, [0b001, 0b011, 0b100]).nbhd == (0b001, 0b011, 0b100)
        for size, rows in [(3, (0b001, 0b011)),  # one row short
                           (2, (0b10, 0b10)),  # a row without its point
                           (2, (0b01, 0b110)),  # a row outside the carrier
                           (3, (0b011, 0b110, 0b100))]:  # 1 in row 0, row 1 not inside it
            with pytest.raises(ValueError):
                FiniteTopology(size, rows)


def _lift_case(rng):
    """A seeded dense-lift instance on 5-8 points: the completion unit of a
    regular space with a cover map into a complete target, or, half the
    time, the same with one precondition broken."""
    n = rng.randint(5, 8)
    x = random_partition_space(rng, n)
    comp = completion(x)
    f, y = comp.unit, comp.structure
    z = discrete(rng.randint(1, 4))
    zmap = [rng.randrange(z.size) for _ in range(comp.size)]
    g = tuple(zmap[b] for b in f)
    broken = rng.choice([None, None, None, None, "x", "y", "g", "z"])
    if broken == "x":  # x need not be regular, nor f an embedding
        x = random_precover_space(rng, n)
    elif broken == "y":  # the image misses the added point: not dense
        y = discrete(comp.size + 1)
    elif broken == "g":  # blocks need not go to single points
        g = tuple(rng.randrange(z.size) for _ in range(n))
    elif broken == "z":
        z = random_precover_space(rng, z.size + 1)
    return f, x, y, g, z


def _lift_or_error(lift, f, x, y, g, z):
    try:
        return lift(f, x, y, g, z)
    except (cauchy.FilterError, cauchy.PreconditionError) as e:
        return type(e), str(e)


class TestDenseLift:
    def test_seeded_five_to_eight(self):
        rng = random.Random(314)
        outcomes = set()
        for _ in range(150):
            f, x, y, g, z = _lift_case(rng)
            got = _lift_or_error(dense_lift, f, x, y, g, z)
            assert got == _lift_or_error(dense_lift_transport, f, x, y, g, z)
            refused = isinstance(got[0], type)
            outcomes.add(refused)
            if not refused:
                assert tuple(got[i] for i in f) == g
                assert is_cover_map(got, y, z)
        assert outcomes == {True, False}  # both tables and refusals occur


def _strong_completion_discrete_2000():
    assert strong_completion(discrete(2000)).unit == tuple(range(2000))


def _topology_round_trip(s):
    t = to_topology(s)
    assert t.is_regular()
    assert to_topology(from_topology(t)) == t


def _topology_discrete_2000():
    _topology_round_trip(discrete(2000))
    assert from_topology(to_topology(discrete(2000))) == discrete(2000)


def _topology_chain_2000():
    # not regular: every star overlaps the next, so the only opens are
    # the empty set and the carrier
    _topology_round_trip(finkernel.space_from_masks(2000, [[x, x + 1] for x in range(1999)]))


def _dense_lift_identity_300():
    d = discrete(300)
    identity = tuple(range(300))
    assert dense_lift(identity, d, d, identity, d) == identity


def test_cross_python_runs_every_bounded_time_row(tmp_path):
    # tests/cross_python.py prints what each row gives under interpreters
    # that lack pytest, each space file written as tmp/<row id>.json
    import cross_python

    argvs = [argv for _, argv, _ in cross_python.runs(str(tmp_path))]
    for row, (argv, data, _) in BOUNDED_TIME.items():
        path = tmp_path / f"{row}.json"
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        assert (argv if data is None else [*argv, str(path)]) in argvs
        assert data is None or path.read_bytes() == data


def _coverlab_modules():
    """The coverlab package and every module in it, imported."""
    import coverlab

    return [coverlab] + [importlib.import_module(f"coverlab.{m.name}")
                         for m in pkgutil.iter_modules(coverlab.__path__)]


class TestNoEnumeration:
    """The CLI's axioms, completion, reflection and locale paths and the
    embedding test run without enumerating subsets or canonical covers."""

    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumeration on a closed-form path")

        for module in _coverlab_modules():
            if hasattr(module, "all_canonical_covers"):
                monkeypatch.setattr(module, "all_canonical_covers", refuse)

    def _run(self, tmp_path, capsys, argv, doc):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        code = cli.main([*argv, str(path)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return code, json.loads(captured.out)

    def test_axioms_and_complete_on_twelve_points(
        self, tmp_path, capsys, no_enumeration
    ):
        doc = {"format": 1, "carrier": 12, "covers": [[[x] for x in range(12)]]}
        code, out = self._run(tmp_path, capsys, ["axioms"], doc)
        assert code == 0
        assert {r["check"]: r["verdict"] for r in out["reports"]}["complete"] == "pass"
        code, out = self._run(tmp_path, capsys, ["complete"], doc)
        assert code == 0
        assert out["unit"] == list(range(12))

    def test_reflect_non_regular_six_points(self, tmp_path, capsys, no_enumeration):
        doc = {"format": 1, "carrier": 6, "covers": [[[0, 1], [1, 2], [3, 4], [4, 5]]]}
        code, out = self._run(tmp_path, capsys, ["reflect"], doc)
        assert code == 0
        assert out["space"]["covers"] == [[[0, 1, 2], [3, 4, 5]]]
        assert out["reports"][0]["verdict"] == "pass"

    @pytest.mark.parametrize("kind, command, code", [
        ("discrete", "axioms", 0),
        ("discrete", "complete", 0),
        ("discrete", "reflect", 0),
        ("chain", "axioms", 1),
        ("chain", "complete", 0),
        ("chain", "reflect", 0),
    ])
    def test_two_hundred_points_in_bounded_time(
        self, tmp_path, capsys, no_enumeration, kind, command, code
    ):
        if kind == "discrete":
            cover = [[x] for x in range(200)]
        else:  # overlapping chain {0,1}, {1,2}, ..., {198,199}
            cover = [[x, x + 1] for x in range(199)]
        doc = {"format": 1, "carrier": 200, "covers": [cover]}
        started = time.perf_counter()
        got, out = self._run(tmp_path, capsys, [command], doc)
        assert time.perf_counter() - started < 2.0
        assert got == code
        if command == "complete":
            assert out["space"]["carrier"] == (200 if kind == "discrete" else 1)

    def test_embedding_on_two_hundred_points(self, no_enumeration):
        chain = finkernel.space_from_masks(200, [[x, x + 1] for x in range(199)])
        f = list(range(100))
        assert is_embedding(f, transfer(f, chain), chain)
        assert not is_embedding(f, discrete(100), chain)
        s = discrete(200)
        comp = completion(s)
        assert is_embedding(comp.unit, s, comp.structure)

    @pytest.mark.parametrize("argv, data, code", list(BOUNDED_TIME.values()),
                             ids=list(BOUNDED_TIME))
    def test_bounded_time_table(
        self, tmp_path, capsys, no_enumeration, argv, data, code
    ):
        # each case returns its documented exit code, never a traceback
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        if data is not None:
            path = tmp_path / "case.json"
            path.write_bytes(data)
            argv = [*argv, str(path)]
        started = time.perf_counter()
        got = cli.main(argv)
        assert time.perf_counter() - started < 2.0
        assert got == code
        assert "Traceback" not in capsys.readouterr().err

    def test_exp_of_a_real_near_300(self, capsys):
        # e^(1 + 299) at eps 1 used to recurse through 300 levels of products
        started = time.perf_counter()
        code = cli.main(["real", "eval", "exp(exp(0) + 299)", "--eps", "1"])
        assert time.perf_counter() - started < 10
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("call", [_strong_completion_discrete_2000,
                                      _dense_lift_identity_300,
                                      _topology_discrete_2000,
                                      _topology_chain_2000],
                             ids=["strong-completion-discrete-2000",
                                  "dense-lift-identity-300",
                                  "topology-discrete-2000",
                                  "topology-chain-2000"])
    def test_library_bounded_time(self, no_enumeration, call):
        started = time.perf_counter()
        call()
        assert time.perf_counter() - started < 1.0

    def test_guard_is_active(self, no_enumeration):
        with pytest.raises(AssertionError):
            finkernel.all_canonical_covers(finkernel.Carrier(2))
        # subsets are enumerated only by the test oracles
        for module in _coverlab_modules():
            assert not hasattr(module, "all_subsets"), module.__name__
            assert not hasattr(module, "SUBSET_ENUM_LIMIT"), module.__name__


@pytest.mark.parametrize("data", [DISCRETE_200, CHAIN_200], ids=["discrete", "chain"])
@pytest.mark.parametrize("argv", [["axioms"], ["complete"], ["reflect"],
                                  ["locale", "roundtrip"]], ids=" ".join)
def test_subset_values_stay_linear(tmp_path, capsys, monkeypatch, argv, data):
    # the library works on masks; Subset values appear only at the API
    # boundary, so per-loop object churn shows up here as a count
    built = []
    post_init = finkernel.Subset.__post_init__

    def counted(self):
        built.append(self.mask)
        post_init(self)

    monkeypatch.setattr(finkernel.Subset, "__post_init__", counted)
    path = tmp_path / "space.json"
    path.write_bytes(data)
    cli.main([*argv, str(path)])
    capsys.readouterr()
    assert len(built) <= 3 * 200


def test_axioms_witness_unchanged_on_non_separated():
    s = finkernel.space_from_masks(3, [[0, 1], [2]])
    assert not is_complete(s) and not is_complete_oracle(s)
    assert cli._completeness_witness(s) == {"reason": "not separated", "points": [0, 1]}
    assert cli._completeness_witness(discrete(3)) is None


def test_points_are_blocks_by_mask():
    s = finkernel.space_from_masks(5, [[0, 3], [1], [2, 4]])
    comp = completion(s)
    assert comp.points == tuple(Subset.of(s.carrier, b) for b in ([1], [0, 3], [2, 4]))
    assert comp.unit == (1, 0, 2, 1, 2)
    assert comp.structure == discrete(3)
