import itertools

from coverlab.coverspace import SubbasePresentation, close_subbase, is_cauchy
from coverlab.finkernel import Carrier
from derivation import DerivationOracle
from helpers import all_covers, all_families


def all_raw_covers(n):
    return list(all_covers(Carrier(n)))


def subbases_up_to(n, max_covers):
    pool = all_raw_covers(n)
    yield []
    for r in range(1, max_covers + 1):
        for combo in itertools.combinations(pool, r):
            yield list(combo)


class TestOracleAgreement:
    def test_exhaustive_n1_n2(self):
        for n in (1, 2):
            carrier = Carrier(n)
            families = list(all_families(carrier))
            for subbase in subbases_up_to(n, 3):
                oracle = DerivationOracle(carrier, subbase)
                space = close_subbase(
                    SubbasePresentation(carrier, tuple(subbase))
                )
                for fam in families:
                    assert oracle.is_cauchy(fam) == is_cauchy(space, fam)

    def test_sampled_n3(self):
        carrier = Carrier(3)
        pool = all_raw_covers(3)
        families = list(all_families(carrier))
        combos = itertools.islice(
            itertools.combinations(pool, 3), 0, 3000, 37
        )
        for combo in combos:
            subbase = list(combo)
            oracle = DerivationOracle(carrier, subbase)
            space = close_subbase(SubbasePresentation(carrier, tuple(subbase)))
            for fam in families:
                assert oracle.is_cauchy(fam) == is_cauchy(space, fam)


class TestFullRuleEquivalence:
    def test_varying_family_rule_adds_nothing(self):
        # the general rule with one family per member saturates to the same
        # set as constant-family meets on every tiny instance
        carrier = Carrier(2)
        pool = all_raw_covers(2)
        for r in (1, 2):
            for combo in itertools.combinations(pool, r):
                fast = DerivationOracle(carrier, list(combo), depth=4)
                full = DerivationOracle(carrier, list(combo), depth=4, full_cg=True)
                for fam in all_families(carrier):
                    assert fast.is_cauchy(fam) == full.is_cauchy(fam)


class TestDepthSaturation:
    def test_depth_six_saturates_small_instances(self):
        carrier = Carrier(3)
        pool = all_raw_covers(3)
        for combo in itertools.islice(itertools.combinations(pool, 3), 0, 500, 17):
            shallow = DerivationOracle(carrier, list(combo), depth=6)
            deep = DerivationOracle(carrier, list(combo), depth=9)
            assert shallow.derived_count == deep.derived_count
