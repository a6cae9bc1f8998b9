import random

import pytest

from coverlab import coverspace
from coverlab.cauchy import (
    FilterError,
    PreconditionError,
    PrincipalFilter,
    completion,
    dense_lift,
    filters_equivalent,
    finite_subcover,
    is_cauchy_filter,
    is_complete,
    is_filter_regular,
    is_separated,
    point_equiv,
    point_filter,
    principal,
    regular_representative,
    strong_completion,
    subspace,
)
from coverlab.coverspace import (
    RegularityError,
    is_cover_map,
    is_embedding,
    rather_below,
    satisfies_cr,
)
from coverlab.finkernel import (
    Cover,
    Subset,
    discrete,
    indiscrete,
    product,
    space_from_masks,
)
from helpers import (
    all_spaces_up_to,
    all_subsets,
    dense_lift_transport,
    random_partition_space,
    random_precover_space,
    random_subset,
    regular_representative_oracle,
    separated_char_conditions,
    spaces_isomorphic,
)


def sub(s, xs):
    return Subset.of(s.carrier, xs)


class TestCauchyFilter:
    def test_examples(self):
        d2 = discrete(2)
        assert is_cauchy_filter(d2, principal(d2, [0]))
        s = space_from_masks(3, [[0], [1, 2]])
        assert not is_cauchy_filter(s, principal(s, [0, 1]))
        assert not is_cauchy_filter(s, principal(s, []))

    def test_point_filters_are_cauchy_on_cover_spaces(self):
        # needs the regularity axiom: on a bare precover the neighborhood
        # base can outgrow every generator member
        rng = random.Random(3)
        for _ in range(100):
            s = random_partition_space(rng, rng.randint(1, 4))
            for x in s.carrier.elements():
                assert is_cauchy_filter(s, point_filter(s, x))


class TestGeneratorShortcutCrossChecks:
    def test_cauchy_filter_matches_all_covers_definition(self):
        # proper and meeting every distinguished family, checked literally
        from helpers import all_cauchy_covers

        for s in all_spaces_up_to(3):
            covers = all_cauchy_covers(s)
            for base in all_subsets(s.carrier):
                f = PrincipalFilter(s.carrier, base)
                definition = f.proper and all(
                    any(f.contains(u) for u in fam) for fam in covers
                )
                assert is_cauchy_filter(s, f) == definition

    def test_equivalence_matches_all_covers_definition(self):
        # every distinguished family has a member lying in both filters
        from helpers import all_cauchy_covers

        for s in all_spaces_up_to(3):
            covers = all_cauchy_covers(s)
            for a in all_subsets(s.carrier):
                f = PrincipalFilter(s.carrier, a)
                if not is_cauchy_filter(s, f):
                    continue
                for b in all_subsets(s.carrier):
                    g = PrincipalFilter(s.carrier, b)
                    if not is_cauchy_filter(s, g):
                        continue
                    definition = all(
                        any(f.contains(u) and g.contains(u) for u in fam)
                        for fam in covers
                    )
                    assert filters_equivalent(s, f, g) == definition

    def test_point_equivalence_matches_all_covers_definition(self):
        from helpers import all_cauchy_covers

        for s in all_spaces_up_to(3):
            covers = all_cauchy_covers(s)
            for x in s.carrier.elements():
                for y in s.carrier.elements():
                    definition = all(
                        any(u.contains(x) and u.contains(y) for u in fam)
                        for fam in covers
                    )
                    assert point_equiv(s, x, y) == definition


class TestEquivalence:
    def test_examples(self):
        d2, i2 = discrete(2), indiscrete(2)
        f = principal(d2, [0])
        assert filters_equivalent(d2, f, f)
        assert filters_equivalent(i2, principal(i2, [0]), principal(i2, [1]))
        assert not filters_equivalent(d2, principal(d2, [0]), principal(d2, [1]))

    def test_rather_below_transport(self):
        # equivalent filters exchange members across a rather-below pair;
        # instances are built so the hypotheses actually fire: both bases
        # inside one generator member, v a member of f, u the union of
        # generator members meeting v
        rng = random.Random(5)
        exercised = 0
        for _ in range(300):
            s = random_precover_space(rng, rng.randint(2, 4))
            home = rng.choice(sorted(s.generator.members, key=lambda m: m.mask))
            pool = home.members()
            a = Subset.of(s.carrier, rng.sample(pool, rng.randint(1, len(pool))))
            b = Subset.of(s.carrier, rng.sample(pool, rng.randint(1, len(pool))))
            f, g = PrincipalFilter(s.carrier, a), PrincipalFilter(s.carrier, b)
            assert filters_equivalent(s, f, g)
            v = a | Subset(s.carrier, rng.randrange(s.carrier.full_mask + 1))
            mask = 0
            for w in s.generator.members:
                if w.intersects(v):
                    mask |= w.mask
            u = Subset(s.carrier, mask | v.mask)
            if rather_below(s, v, u) and f.contains(v):
                exercised += 1
                assert g.contains(u)
        assert exercised > 100

    def test_transitive_on_cover_spaces(self):
        rng = random.Random(7)
        for _ in range(300):
            s = random_partition_space(rng, rng.randint(1, 4))
            bases = [random_subset(rng, s.carrier) for _ in range(3)]
            fs = [PrincipalFilter(s.carrier, b) for b in bases]
            if not all(is_cauchy_filter(s, f) for f in fs):
                continue
            if filters_equivalent(s, fs[0], fs[1]) and filters_equivalent(
                s, fs[1], fs[2]
            ):
                assert filters_equivalent(s, fs[0], fs[2])

    def test_transitivity_needs_regularity(self):
        # on this non-regular structure the relation is not transitive
        s = space_from_masks(3, [[0, 1], [1, 2]])
        f, g, h = (principal(s, [x]) for x in (0, 1, 2))
        assert filters_equivalent(s, f, g)
        assert filters_equivalent(s, g, h)
        assert not filters_equivalent(s, f, h)


class TestRegularRepresentative:
    def test_examples(self):
        d2 = discrete(2)
        assert regular_representative(d2, principal(d2, [0])).base == sub(d2, [0])
        i3 = indiscrete(3)
        assert regular_representative(i3, principal(i3, [1])).base == sub(i3, [0, 1, 2])
        s = space_from_masks(3, [[0, 1], [1, 2]])
        assert regular_representative(s, principal(s, [1])).base == sub(s, [0, 1, 2])

    def test_requires_cauchy(self):
        s = space_from_masks(3, [[0], [1, 2]])
        with pytest.raises(FilterError):
            regular_representative(s, principal(s, [0, 1]))

    def test_matches_subfilter_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            s = random_precover_space(rng, rng.randint(1, 4))
            base = random_subset(rng, s.carrier)
            f = PrincipalFilter(s.carrier, base)
            if not is_cauchy_filter(s, f):
                continue
            assert regular_representative(s, f) == regular_representative_oracle(s, f)

    def test_postconditions_on_cover_spaces(self):
        rng = random.Random(13)
        for _ in range(200):
            s = random_partition_space(rng, rng.randint(1, 4))
            base = random_subset(rng, s.carrier)
            f = PrincipalFilter(s.carrier, base)
            if not is_cauchy_filter(s, f):
                continue
            rep = regular_representative(s, f)
            assert is_cauchy_filter(s, rep)
            assert is_filter_regular(s, rep)
            assert filters_equivalent(s, rep, f)
            assert regular_representative(s, rep) == rep

    def test_unique_regular_equivalent(self):
        for s in all_spaces_up_to(3):
            for base in all_subsets(s.carrier):
                f = PrincipalFilter(s.carrier, base)
                if not is_cauchy_filter(s, f):
                    continue
                rep = regular_representative(s, f)
                for other_base in all_subsets(s.carrier):
                    g = PrincipalFilter(s.carrier, other_base)
                    if (
                        is_cauchy_filter(s, g)
                        and is_filter_regular(s, g)
                        and filters_equivalent(s, g, f)
                    ):
                        assert g == rep


class TestSeparation:
    def test_examples(self):
        assert is_separated(discrete(3))
        assert not is_separated(indiscrete(2))
        s = space_from_masks(3, [[0], [1, 2]])
        assert point_equiv(s, 1, 2)
        assert not is_separated(s)

    def test_seven_conditions_mutually_equal(self):
        for s in all_spaces_up_to(3):
            for x in s.carrier.elements():
                for y in s.carrier.elements():
                    conditions = separated_char_conditions(s, x, y)
                    assert len(set(conditions)) == 1

    def test_condition_six_matches_all_covers(self):
        from helpers import all_cauchy_covers

        for s in all_spaces_up_to(3):
            for x in s.carrier.elements():
                for y in s.carrier.elements():
                    generator_level = separated_char_conditions(s, x, y)[5]
                    definition = all(
                        any(
                            coverspace.is_neighborhood(s, u, x)
                            and coverspace.is_neighborhood(s, u, y)
                            for u in fam
                        )
                        for fam in all_cauchy_covers(s)
                    )
                    assert generator_level == definition


class TestCompleteness:
    def test_examples(self):
        assert is_complete(discrete(4))
        assert not is_complete(indiscrete(2))

    def test_completion_output_complete(self):
        for s in all_spaces_up_to(3):
            comp = completion(s)
            assert is_complete(comp.structure)


class TestCompletion:
    def test_discrete_fixed(self):
        for n in (1, 2, 3):
            comp = completion(discrete(n))
            assert spaces_isomorphic(comp.structure, discrete(n))
            assert comp.unit == tuple(range(n))

    def test_indiscrete_collapses(self):
        comp = completion(indiscrete(3))
        assert comp.size == 1
        assert comp.unit == (0, 0, 0)

    def test_points_are_blocks(self):
        s = space_from_masks(4, [[0, 1], [2], [3]])
        comp = completion(s)
        assert [b.members() for b in comp.points] == [(0, 1), (2,), (3,)]
        assert comp.unit == (0, 0, 1, 2)

    def test_requires_regularity(self):
        with pytest.raises(RegularityError):
            completion(space_from_masks(3, [[0, 1], [1, 2]]))

    def test_size_guard_with_override(self):
        # the subset guard is gone: the completion enumerates nothing
        big = space_from_masks(13, [[x] for x in range(13)])
        comp = completion(big)
        assert comp.size == 13

    def test_exhaustive_postconditions(self):
        for s in all_spaces_up_to(3):
            comp = completion(s)
            assert is_separated(comp.structure)
            assert is_complete(comp.structure)
            assert is_embedding(comp.unit, s, comp.structure)
            assert coverspace.point_images_dense(comp.unit, s, comp.structure)
            again = completion(comp.structure)
            assert spaces_isomorphic(again.structure, comp.structure)

    def test_unit_injective_iff_separated(self):
        for s in all_spaces_up_to(3):
            comp = completion(s)
            injective = len(set(comp.unit)) == s.size
            assert injective == is_separated(s)


class TestStrongCompletion:
    def test_examples(self):
        for n in (1, 2, 3):
            a = strong_completion(discrete(n))
            b = completion(discrete(n))
            assert a == b
        assert strong_completion(indiscrete(3)).size == 1

    def test_pointwise_identical_to_completion(self):
        rng = random.Random(17)
        for _ in range(50):
            s = random_partition_space(rng, rng.randint(1, 4))
            a, b = strong_completion(s), completion(s)
            assert a.points == b.points
            assert a.structure == b.structure
            assert a.unit == b.unit

    def test_requires_strong_regularity(self):
        with pytest.raises(RegularityError):
            strong_completion(space_from_masks(3, [[0, 1], [1, 2]]))


class TestFiniteSubcover:
    def test_trivial_member(self):
        i3 = indiscrete(3)
        c = Cover.of(i3.carrier, [sub(i3, [0, 1, 2]), sub(i3, [0])])
        assert finite_subcover(i3, c) == [sub(i3, [0, 1, 2])]

    def test_discrete_all_subsets(self):
        d3 = discrete(3)
        c = Cover.of(d3.carrier, [u for u in all_subsets(d3.carrier) if u.inhabited])
        got = finite_subcover(d3, c)
        assert got == [sub(d3, [0]), sub(d3, [1]), sub(d3, [2])]

    def test_block_cover(self):
        s = space_from_masks(3, [[0], [1, 2]])
        c = Cover.of(s.carrier, [sub(s, [0, 1]), sub(s, [1, 2])])
        assert set(finite_subcover(s, c)) == {sub(s, [0, 1]), sub(s, [1, 2])}

    def test_requires_distinguished(self):
        d2 = discrete(2)
        with pytest.raises(FilterError):
            finite_subcover(indiscrete(2), Cover.of(d2.carrier, [sub(d2, [0]), sub(d2, [1])]))

    def test_output_covers(self):
        rng = random.Random(19)
        for _ in range(100):
            s = random_partition_space(rng, rng.randint(1, 4))
            members = {random_subset(rng, s.carrier) for _ in range(4)}
            members.add(Subset.full(s.carrier))
            c = Cover.of(s.carrier, members)
            got = finite_subcover(s, c)
            union = 0
            for m in got:
                union |= m.mask
            assert union == s.carrier.full_mask
            assert all(m in c.members for m in got)

    def test_products_stay_totally_bounded(self):
        # distinguished covers of finite products always admit finite
        # covering selections
        rng = random.Random(23)
        for _ in range(30):
            a = random_partition_space(rng, rng.randint(1, 3))
            b = random_partition_space(rng, rng.randint(1, 3))
            p = product(a, b)
            members = set(p.generator.members)
            members.add(Subset.full(p.carrier))
            got = finite_subcover(p, Cover.of(p.carrier, members))
            union = 0
            for m in got:
                union |= m.mask
            assert union == p.carrier.full_mask


def _lift_instance(rng):
    s = random_partition_space(rng, rng.randint(1, 4))
    comp = completion(s)
    blocks = {i: comp.unit[i] for i in s.carrier.elements()}
    z = discrete(rng.randint(1, 3))
    zmap = [rng.randrange(z.size) for _ in range(comp.size)]
    g = tuple(zmap[blocks[i]] for i in s.carrier.elements())
    return s, comp, g, z


class TestDenseLift:
    def test_unit_against_itself_is_identity(self):
        for s in all_spaces_up_to(3):
            comp = completion(s)
            lifted = dense_lift(comp.unit, s, comp.structure, comp.unit, comp.structure)
            assert lifted == tuple(range(comp.size))

    def test_randomized_instances(self):
        rng = random.Random(29)
        for _ in range(60):
            s, comp, g, z = _lift_instance(rng)
            lifted = dense_lift(comp.unit, s, comp.structure, g, z)
            assert tuple(lifted[comp.unit[x]] for x in s.carrier.elements()) == g
            assert is_cover_map(lifted, comp.structure, z)
            assert lifted == dense_lift_transport(comp.unit, s, comp.structure, g, z)

    def test_unique_extension(self):
        import itertools

        rng = random.Random(31)
        for _ in range(20):
            s, comp, g, z = _lift_instance(rng)
            if z.size**comp.size > 81:
                continue
            lifted = dense_lift(comp.unit, s, comp.structure, g, z)
            for h in itertools.product(range(z.size), repeat=comp.size):
                if tuple(h[comp.unit[x]] for x in s.carrier.elements()) != g:
                    continue
                if not is_cover_map(list(h), comp.structure, z):
                    continue
                assert h == lifted

    def test_constant_map_lifts_constant(self):
        s = indiscrete(2)
        comp = completion(s)
        lifted = dense_lift(comp.unit, s, comp.structure, (0, 0), discrete(1))
        assert lifted == (0,)

    def test_precondition_failures_reported_individually(self):
        d1, d2, i2 = discrete(1), discrete(2), indiscrete(2)
        with pytest.raises(PreconditionError) as e:
            dense_lift([0], d1, d2, [0], d2)  # image {0} is not dense
        assert e.value.failures == ["f is not dense"]
        with pytest.raises(PreconditionError) as e:
            dense_lift([0, 1], d2, d2, [0, 1], i2)  # target incomplete
        assert e.value.failures == ["z is not complete"]
        with pytest.raises(PreconditionError) as e:
            dense_lift([0, 1], d2, i2, [0, 0], d1)  # not an embedding into i2
        assert "f is not an embedding" in e.value.failures
        nonregular = space_from_masks(3, [[0, 1], [1, 2]])
        with pytest.raises(PreconditionError) as e:
            dense_lift([0, 1, 2], nonregular, nonregular, [0, 0, 0], d1)
        assert "y does not satisfy the regularity axiom" in e.value.failures


class TestSubspacesAndCompactness:
    def test_complete_ambient_closed_iff_complete(self):
        for s in all_spaces_up_to(3):
            ambient = completion(s).structure
            for u in all_subsets(ambient.carrier):
                if not u.inhabited:
                    continue
                piece, _ = subspace(ambient, u)
                assert is_complete(piece) == coverspace.is_closed(ambient, u)

    def test_incomplete_ambient_breaks_the_equivalence(self):
        s = space_from_masks(3, [[0], [1, 2]])
        u = sub(s, [1])
        piece, _ = subspace(s, u)
        assert is_complete(piece)
        assert not coverspace.is_closed(s, u)

    def test_subspace_structures_satisfy_regularity(self):
        rng = random.Random(37)
        for _ in range(100):
            s = random_partition_space(rng, rng.randint(1, 4))
            u = random_subset(rng, s.carrier)
            if not u.inhabited:
                continue
            piece, _ = subspace(s, u)
            assert satisfies_cr(piece)


class TestIsomorphism:
    def test_relabelled_partitions(self):
        a = space_from_masks(4, [[0, 1], [2, 3]])
        b = space_from_masks(4, [[0, 3], [1, 2]])
        assert spaces_isomorphic(a, b)

    def test_different_block_profiles(self):
        a = space_from_masks(3, [[0], [1, 2]])
        b = space_from_masks(3, [[0], [1], [2]])
        assert not spaces_isomorphic(a, b)
