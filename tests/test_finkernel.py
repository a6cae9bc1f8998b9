import random

import pytest
from hypothesis import given, strategies as st

from coverlab.finkernel import (
    Carrier,
    CarrierMismatchError,
    Cover,
    FiniteCoverSpace,
    Subset,
    all_canonical_covers,
    canonicalize,
    discrete,
    indiscrete,
    meet,
    pair_index,
    product,
    refines,
    space_from_cover,
    space_from_masks,
    transfer,
)
from helpers import all_partitions, random_cover


def cov(n, *subsets):
    carrier = Carrier(n)
    return Cover.of(carrier, [Subset.of(carrier, xs) for xs in subsets])


def masks(cover):
    return {m.mask for m in cover.members}


@st.composite
def covers(draw, n=3):
    carrier = Carrier(n)
    full = carrier.full_mask
    ms = set(draw(st.lists(st.integers(0, full), min_size=1, max_size=4)))
    union = 0
    for m in ms:
        union |= m
    if union != full:
        ms.add(full & ~union)
    return Cover.of_masks(carrier, ms)


class TestCarrierAndSubset:
    def test_empty_carrier_rejected(self):
        with pytest.raises(ValueError):
            Carrier(0)

    def test_subset_round_trip(self):
        c = Carrier(4)
        s = Subset.of(c, [0, 2])
        assert s.members() == (0, 2)
        assert s.contains(2) and not s.contains(1)
        assert s.complement().members() == (1, 3)

    def test_carrier_mismatch(self):
        a = Subset.of(Carrier(2), [0])
        b = Subset.of(Carrier(3), [0])
        with pytest.raises(CarrierMismatchError):
            a & b


class TestCover:
    def test_must_cover(self):
        with pytest.raises(ValueError):
            cov(2, [0])

    def test_duplicates_removed(self):
        c = Carrier(2)
        cover = Cover.of(c, [Subset.of(c, [0]), Subset.of(c, [0]), Subset.of(c, [1])])
        assert len(cover.members) == 2

    def test_empty_member_allowed(self):
        assert masks(cov(2, [], [0, 1])) == {0, 0b11}


class TestRefines:
    def test_singletons_under_whole(self):
        assert refines(cov(2, [0], [1]), cov(2, [0, 1]))

    def test_whole_not_under_singletons(self):
        assert not refines(cov(2, [0, 1]), cov(2, [0], [1]))

    def test_reflexive_and_transitive(self):
        rng = random.Random(7)
        for _ in range(200):
            a = random_cover(rng, 3)
            b = random_cover(rng, 3)
            c = random_cover(rng, 3)
            assert refines(a, a)
            if refines(a, b) and refines(b, c):
                assert refines(a, c)

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatchError):
            refines(cov(2, [0, 1]), cov(3, [0, 1, 2]))


class TestMeet:
    def test_example_pairwise_intersections(self):
        got = meet(cov(3, [0, 1], [1, 2]), cov(3, [0], [1, 2]))
        # oracle: every pairwise intersection, computed independently
        expected = {
            u & v
            for u in (0b011, 0b110)
            for v in (0b001, 0b110)
        }
        assert masks(got) == expected == {0b001, 0b010, 0, 0b110}

    def test_trivial_cover_is_identity(self):
        rng = random.Random(11)
        for _ in range(100):
            c = random_cover(rng, 3)
            trivial = cov(3, [0, 1, 2])
            assert masks(meet(c, trivial)) == masks(c)

    def test_self_meet_example(self):
        got = meet(cov(2, [0], [1]), cov(2, [0], [1]))
        assert masks(got) == {0b01, 0b10, 0}

    def test_commutative_associative_up_to_canonicalize(self):
        rng = random.Random(13)
        for _ in range(100):
            a, b, c = (random_cover(rng, 3) for _ in range(3))
            assert masks(canonicalize(meet(a, b))) == masks(canonicalize(meet(b, a)))
            assert masks(canonicalize(meet(meet(a, b), c))) == masks(
                canonicalize(meet(a, meet(b, c)))
            )

    @given(covers(), covers())
    def test_meet_refines_both(self, a, b):
        m = meet(a, b)
        assert refines(m, a) and refines(m, b)


class TestCanonicalize:
    def test_drops_dominated(self):
        assert masks(canonicalize(cov(2, [0], [0, 1]))) == {0b11}

    def test_drops_empty(self):
        assert masks(canonicalize(cov(2, [], [0, 1]))) == {0b11}

    def test_idempotent_and_mutually_refining(self):
        rng = random.Random(17)
        for _ in range(100):
            c = random_cover(rng, 4)
            k = canonicalize(c)
            assert masks(canonicalize(k)) == masks(k)
            assert refines(c, k) and refines(k, c)


class TestSpaceConstruction:
    def test_generator_must_be_antichain(self):
        c = Carrier(2)
        with pytest.raises(ValueError):
            FiniteCoverSpace(c.size, (0b01, 0b11))

    def test_discrete_indiscrete(self):
        assert masks(discrete(3).generator) == {1, 2, 4}
        assert masks(indiscrete(3).generator) == {0b111}


class TestProduct:
    def test_discrete_squared(self):
        got = product(discrete(2), discrete(2))
        assert masks(got.generator) == {1 << i for i in range(4)}

    def test_indiscrete_squared(self):
        got = product(indiscrete(2), indiscrete(2))
        assert masks(got.generator) == {0b1111}

    def test_mixed(self):
        got = product(discrete(2), indiscrete(2))
        left = (1 << pair_index(0, 0, 2)) | (1 << pair_index(0, 1, 2))
        right = (1 << pair_index(1, 0, 2)) | (1 << pair_index(1, 1, 2))
        assert masks(got.generator) == {left, right}

    def test_size_guard(self):
        # the product enumerates nothing, so no carrier guard applies
        assert product(discrete(4), discrete(4)) == discrete(16)

    def test_precover_product_applies_reflection(self):
        # the member products of these generators violate regularity, so
        # the reflection collapses the product structure
        from coverlab.coverspace import satisfies_cr

        p = space_from_masks(3, [[0, 1], [1, 2]])
        got = product(p, indiscrete(1))
        assert satisfies_cr(got)
        assert got == indiscrete(3)

    def test_partition_products_are_block_products(self):
        a = space_from_masks(3, [[0], [1, 2]])
        b = space_from_masks(2, [[0], [1]])
        got = product(a, b)
        assert got.size == 6
        assert len(got.generator.members) == 4


class TestTransfer:
    def test_identity(self):
        rng = random.Random(19)
        for _ in range(50):
            s = space_from_cover(random_cover(rng, 3))
            assert transfer([0, 1, 2], s) == s

    def test_constant_to_point(self):
        got = transfer([0, 0, 0], indiscrete(1))
        assert got == indiscrete(3)

    def test_inclusion_example(self):
        s = space_from_masks(3, [[0, 1], [1, 2]])
        got = transfer([0, 1], s)
        assert masks(got.generator) == {0b11}


class TestEnumeration:
    def test_partition_counts_are_bell_numbers(self):
        assert [len(all_partitions(Carrier(n))) for n in (1, 2, 3, 4)] == [1, 2, 5, 15]

    def test_canonical_cover_count_small(self):
        assert len(all_canonical_covers(Carrier(1))) == 1
        assert len(all_canonical_covers(Carrier(2))) == 2
        assert len(all_canonical_covers(Carrier(3))) == 9

    def test_canonical_covers_are_antichains_and_cover(self):
        for c in all_canonical_covers(Carrier(3)):
            assert masks(canonicalize(c)) == masks(c)
