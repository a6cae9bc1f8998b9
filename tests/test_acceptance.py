"""Acceptance suite: every criterion at its stated tolerance.

The conftest hook prints one PASS/FAIL line per criterion in the terminal
summary, derived from these tests' outcomes.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from coverlab import coverspace, locales, xreal
from coverlab.cauchy import (
    PrincipalFilter,
    completion,
    dense_lift,
    filters_equivalent,
    is_cauchy_filter,
    is_complete,
    is_separated,
    strong_completion,
)
from coverlab.coverspace import (
    SubbasePresentation,
    close_subbase,
    interior,
    is_cauchy,
    is_cover_map,
    is_embedding,
    is_proper,
    is_strongly_regular,
    rather_below,
    strongly_rather_below,
    to_topology,
)
from coverlab.finkernel import (
    Carrier,
    Subset,
    all_canonical_covers,
    canonicalize,
    discrete,
    space_from_cover,
)
from coverlab.locales import (
    basic_open,
    largest_open_within,
    locale_is_proper,
    locale_of_space,
    locale_points,
    point_space,
    points_of_open,
    verify_equivalence,
)
from derivation import DerivationOracle
from helpers import (
    all_covers,
    all_families,
    all_spaces_up_to,
    all_subsets,
    dense_lift_transport,
    random_partition_space,
    random_subset,
    separated_char_conditions,
    spaces_isomorphic,
    strongly_rather_below_oracle,
)


class TestCriterion01ClosureDecision:
    def test_closure_decision_soundness(self):
        started = time.perf_counter()
        # exhaustive over presentations for n <= 2 (all raw covers)
        for n in (1, 2):
            carrier = Carrier(n)
            pool = list(all_covers(carrier))
            families = list(all_families(carrier))
            subbases = [[]]
            for r in (1, 2, 3):
                subbases.extend(list(c) for c in itertools.combinations(pool, r))
            for subbase in subbases:
                self._agree(carrier, subbase, families)
        # n = 3: spaces are exhausted through canonical presentations;
        # every space presentable by up to three covers arises from up to
        # three canonical covers, because canonicalizing each subbase
        # cover preserves the generated structure (bridge checked below:
        # exhaustively for single covers, randomized for combinations);
        # raw presentations are then sampled densely on top
        carrier = Carrier(3)
        families = list(all_families(carrier))
        canon = all_canonical_covers(carrier)
        subbases = [[]]
        for r in (1, 2, 3):
            subbases.extend(list(c) for c in itertools.combinations(canon, r))
        for subbase in subbases:
            self._agree(carrier, subbase, families)

        raw = list(all_covers(carrier))
        for c in raw:
            assert close_subbase(
                SubbasePresentation(carrier, (c,))
            ) == close_subbase(SubbasePresentation(carrier, (canonicalize(c),)))
        rng = random.Random(112358)
        for _ in range(3000):
            combo = tuple(
                raw[rng.randrange(len(raw))] for _ in range(rng.randint(2, 3))
            )
            reduced = tuple(canonicalize(c) for c in combo)
            assert close_subbase(
                SubbasePresentation(carrier, combo)
            ) == close_subbase(SubbasePresentation(carrier, reduced))

        sampled = [[c] for c in raw]
        sampled.extend(
            list(c)
            for c in itertools.islice(itertools.combinations(raw, 2), 0, None, 7)
        )
        sampled.extend(
            list(c)
            for c in itertools.islice(itertools.combinations(raw, 3), 0, None, 499)
        )
        for subbase in sampled:
            self._agree(carrier, subbase, families)
        assert time.perf_counter() - started < 300

    @staticmethod
    def _agree(carrier, subbase, families):
        oracle = DerivationOracle(carrier, subbase, depth=6)
        space = close_subbase(SubbasePresentation(carrier, tuple(subbase)))
        for fam in families:
            assert oracle.is_cauchy(fam) == is_cauchy(space, fam)


class TestCriterion02AxiomSuites:
    def test_axiom_suites_on_randomized_spaces(self):
        rng = random.Random(90210)
        failures = 0
        fired = {"filter_rb": 0, "transitivity": 0, "cover_int": 0}
        for _ in range(1000):
            s = random_partition_space(rng, rng.randint(1, 4))
            failures += not self._rb_props(rng, s)
            failures += not self._rbs_props(rng, s)
            failures += not self._int_char(s)
            failures += not self._cover_int(rng, s, fired)
            failures += not to_topology(s).is_regular()
            failures += not self._filter_rb(rng, s, fired)
            failures += not self._filter_equiv_transitive(rng, s, fired)
        assert failures == 0
        # the conditional lemmas must actually have been exercised
        assert all(count > 100 for count in fired.values()), fired

    @staticmethod
    def _rb_props(rng, s):
        c = s.carrier
        for _ in range(4):
            v, u = random_subset(rng, c), random_subset(rng, c)
            v2, u2 = random_subset(rng, c), random_subset(rng, c)
            if rather_below(s, v, u):
                if not v.issubset(u):
                    return False
                if v2.issubset(v) and u.issubset(u2) and not rather_below(s, v2, u2):
                    return False
                if rather_below(s, v2, u2) and not rather_below(s, v & v2, u & u2):
                    return False
            if not rather_below(s, v, Subset.full(c)):
                return False
            if not rather_below(s, Subset.empty(c), u):
                return False
        return True

    @staticmethod
    def _rbs_props(rng, s):
        c = s.carrier
        for _ in range(4):
            v, u = random_subset(rng, c), random_subset(rng, c)
            v2, u2 = random_subset(rng, c), random_subset(rng, c)
            if strongly_rather_below(s, v, u):
                if not rather_below(s, v, u):
                    return False
                if v2.issubset(v) and u.issubset(u2) and not strongly_rather_below(
                    s, v2, u2
                ):
                    return False
                if strongly_rather_below(s, v2, u2) and not strongly_rather_below(
                    s, v & v2, u & u2
                ):
                    return False
            if not strongly_rather_below(s, v, Subset.full(c)):
                return False
            if not strongly_rather_below(s, Subset.empty(c), u):
                return False
        return True

    @staticmethod
    def _int_char(s):
        t = to_topology(s)
        return all(interior(s, u) == t.interior(u) for u in all_subsets(s.carrier))

    @staticmethod
    def _cover_int(rng, s, fired):
        for _ in range(2):
            fam = [random_subset(rng, s.carrier) for _ in range(3)]
            fam.append(Subset.full(s.carrier))
            if is_cauchy(s, fam):
                fired["cover_int"] += 1
                if not is_cauchy(s, [interior(s, u) for u in fam]):
                    return False
        return True

    @staticmethod
    def _filter_rb(rng, s, fired):
        # bias: bases inside a common generator member, v enlarging the
        # base, u swallowing everything v touches
        c = s.carrier
        for _ in range(4):
            home = rng.choice(sorted(s.generator.members, key=lambda m: m.mask))
            pool = home.members()
            f = PrincipalFilter(
                c, Subset.of(c, rng.sample(pool, rng.randint(1, len(pool))))
            )
            g = PrincipalFilter(
                c, Subset.of(c, rng.sample(pool, rng.randint(1, len(pool))))
            )
            assert filters_equivalent(s, f, g)
            v = f.base | Subset(c, rng.randrange(c.full_mask + 1))
            mask = v.mask
            for w in s.generator.members:
                if w.intersects(v):
                    mask |= w.mask
            u = Subset(c, mask)
            if rather_below(s, v, u) and f.contains(v):
                fired["filter_rb"] += 1
                if not g.contains(u):
                    return False
        return True

    @staticmethod
    def _filter_equiv_transitive(rng, s, fired):
        c = s.carrier
        for _ in range(4):
            home = rng.choice(sorted(s.generator.members, key=lambda m: m.mask))
            pool = home.members()
            fs = [
                PrincipalFilter(
                    c, Subset.of(c, rng.sample(pool, rng.randint(1, len(pool))))
                )
                for _ in range(3)
            ]
            if filters_equivalent(s, fs[0], fs[1]) and filters_equivalent(
                s, fs[1], fs[2]
            ):
                fired["transitivity"] += 1
                if not filters_equivalent(s, fs[0], fs[2]):
                    return False
        return True


class TestCriterion03Completion:
    def test_completion_exhaustive(self):
        spaces = all_spaces_up_to(3)
        # 1 + 2 + 5 structures satisfy the regularity axiom at sizes 1..3
        assert len(spaces) == 8
        for s in spaces:
            comp = completion(s)
            assert is_separated(comp.structure)
            assert is_complete(comp.structure)
            assert is_embedding(comp.unit, s, comp.structure)
            assert coverspace.point_images_dense(comp.unit, s, comp.structure)
            twice = completion(comp.structure)
            assert spaces_isomorphic(twice.structure, comp.structure)
        for n in (1, 2, 3):
            assert spaces_isomorphic(completion(discrete(n)).structure, discrete(n))
            from coverlab.finkernel import indiscrete

            assert completion(indiscrete(n)).size == 1


class TestCriterion04DenseLift:
    def test_dense_lift_randomized(self):
        rng = random.Random(41214)
        ran = 0
        while ran < 200:
            s = random_partition_space(rng, rng.randint(1, 4))
            comp = completion(s)
            z = discrete(rng.randint(1, 3))
            zmap = [rng.randrange(z.size) for _ in range(comp.size)]
            g = tuple(zmap[comp.unit[x]] for x in s.carrier.elements())
            lifted = dense_lift(comp.unit, s, comp.structure, g, z)
            assert tuple(lifted[comp.unit[x]] for x in s.carrier.elements()) == g
            assert is_cover_map(lifted, comp.structure, z)
            assert lifted == dense_lift_transport(comp.unit, s, comp.structure, g, z)
            ran += 1


class TestCriterion05LocaleEquivalence:
    def test_equivalence_exhaustive(self):
        eligible = [
            s
            for s in all_spaces_up_to(3)
            if is_proper(s) and is_strongly_regular(s) and is_complete(s)
        ]
        # exactly the fully separated structures: one per carrier size
        assert len(eligible) == 3
        for s in eligible:
            rep = verify_equivalence(s)
            assert rep.passed, rep.checks
            assert rep.point_count == s.size
        for n in (1, 2, 3, 4):
            m = locale_of_space(discrete(n))
            assert len(locale_points(m)) == n


class TestCriterion06LocaleLemmaSuite:
    def test_lemma_suite(self):
        precovers = []
        for k in (1, 2, 3):
            precovers.extend(
                space_from_cover(c) for c in all_canonical_covers(Carrier(k))
            )
        spaces = all_spaces_up_to(3)

        # regularity of the constructed frame, for every structure
        for s in precovers:
            assert locale_of_space(s).is_regular()

        for s in spaces:
            m = locale_of_space(s)
            pres = m.presentation

            # distinguished exactly when basic opens join to the top
            for fam in all_families(s.carrier):
                joined = m.join([basic_open(pres, u) for u in fam] + [m.bottom])
                assert is_cauchy(s, fam) == (joined == m.top)

            # properness transfers from frame characterization
            pointless_only_bottom = all(
                points_of_open(m, a) != () or a == m.bottom for a in m.elements
            )
            assert locale_is_proper(m) == pointless_only_bottom
            assert is_proper(point_space(m))

            # dominated neighborhoods pass to a joinand
            subsets = all_subsets(s.carrier)
            brackets = {u.mask: basic_open(pres, u) for u in subsets}
            for u in subsets:
                for vs in itertools.combinations(subsets, 2):
                    if not m.leq(
                        brackets[u.mask], m.join([brackets[v.mask] for v in vs])
                    ):
                        continue
                    for x in s.carrier.elements():
                        if coverspace.is_neighborhood(s, u, x):
                            assert any(
                                coverspace.is_neighborhood(s, v, x) for v in vs
                            )

            # point-space membership matches extent families reaching top,
            # and neighborhoods in the point space contain extents
            ps = point_space(m)
            primes = [p.prime for p in locale_points(m)]
            for fam in all_families(ps.carrier):
                if not is_cauchy(ps, fam):
                    continue
                opens = [
                    largest_open_within(
                        m,
                        tuple(
                            locales.LocalePoint(primes[i]) for i in u.members()
                        ),
                    )
                    for u in sorted(fam, key=lambda u: u.mask)
                ]
                assert m.join(opens) == m.top
            for u in all_subsets(ps.carrier):
                for i in range(ps.size):
                    if coverspace.is_neighborhood(ps, u, i):
                        assert any(
                            m.leq(primes[i], a)
                            and all(
                                u.contains(j)
                                for j, q in enumerate(primes)
                                if m.leq(q, a)
                            )
                            for a in m.elements
                        )


class TestCriterion07DedekindRoundTrip:
    def test_round_trip(self):
        rng = random.Random(777)
        eps_values = [F(1, 10**3), F(1, 10**6), F(1, 10**9)]
        for _ in range(100):
            q = F(rng.randint(-50, 50), rng.randint(1, 50))
            x = xreal.real_of_rat(q)
            seed = xreal.RInterval(q - F(rng.randint(1, 5)), q + F(rng.randint(1, 5)))

            # cut built from the real, then realized again
            rebuilt = xreal.real_of_cut(xreal.cut_of_real(x), seed)
            for eps in eps_values:
                hull = x.approx(eps).hull(rebuilt.approx(eps))
                assert hull.width <= 2 * eps

            # real built from the rational cut, then cut again: answers stay
            # legal for the original cut
            loc = xreal.rational_cut(q)
            realized = xreal.real_of_cut(loc, seed)
            recut = xreal.cut_of_real(realized)
            for _ in range(5):
                a = q - F(rng.randint(1, 60), rng.randint(1, 9))
                b = q + F(rng.randint(1, 60), rng.randint(1, 9))
                if recut.loc(a, b) is xreal.Side.LEFT:
                    assert a < q
                else:
                    assert b > q

            # the shrink iteration count is the exact ceiling
            for eps in eps_values:
                fresh_loc = xreal.rational_cut(q)
                fresh = xreal.real_of_cut(fresh_loc, seed)
                fresh.approx(eps)
                assert fresh_loc.calls == xreal.trisection_steps(seed.width, eps)


class TestCriterion08ExactReals:
    def test_exact_reals(self):
        started = time.perf_counter()
        s = xreal.add(xreal.real_of_rat(F(1, 3)), xreal.real_of_rat(F(1, 6)))
        assert s.approx(F(1, 10**12)).contains(F(1, 2))

        e1 = xreal.exp_rational(1)
        got = e1.approx(F(1, 10**9))
        assert got.width <= F(1, 10**9)
        partial = sum(F(1, math.factorial(n)) for n in range(16))  # oracle
        tail = F(2, math.factorial(16))
        assert got.lo <= partial + tail and got.hi >= partial

        rng = random.Random(888)
        for _ in range(100):
            q = F(rng.randint(1, 99), rng.randint(1, 99)) * rng.choice([1, -1])
            x = xreal.real_of_rat(q)
            delta = xreal.find_apartness(x, F(1, 2**40))
            assert delta is not None
            one = xreal.mul(x, xreal.inv(x, delta)).approx(F(1, 10**9))
            assert one.contains(F(1))
        assert time.perf_counter() - started < 60


class TestCriterion09InverseModulus:
    def test_inverse_modulus_formula(self):
        rng = random.Random(999)
        for _ in range(10**4):
            eps = F(rng.randint(1, 80), rng.randint(1, 80))
            delta = F(rng.randint(1, 80), rng.randint(1, 80))
            sign = rng.choice([1, -1])
            z = sign * (delta + F(rng.randint(1, 99), rng.randint(1, 99)))
            bound = eps * delta * delta / (1 + eps * delta)
            x = z + bound * F(rng.randint(-999, 999), 1000)
            assert abs(z) > delta
            assert abs(z - x) < bound
            assert abs(F(1) / z - F(1) / x) < eps


class TestCriterion10HeineBorel:
    def test_ball_covers(self):
        domain = xreal.RInterval(F(0), F(1))
        for eps in (F(3, 10), F(1, 10), F(1, 100)):
            net = xreal.epsilon_net(domain, eps)
            balls = [xreal.RInterval(p - eps, p + eps) for p in net]
            chosen = xreal.finite_subcover(domain, balls)
            assert len(chosen) <= math.ceil(1 / eps) + 1
            # coverage certificate: a chain over the closed interval
            assert chosen[0].lo < 0 and chosen[-1].hi > 1
            for a, b in zip(chosen, chosen[1:]):
                assert b.lo < a.hi

        gapped = [
            xreal.RInterval(F(-1), F(1, 2)),
            xreal.RInterval(F(3, 5), F(2)),
        ]
        with pytest.raises(xreal.UncoveredPointError) as e:
            xreal.finite_subcover(domain, gapped)
        witness = e.value.point
        assert F(0) <= witness <= F(1)
        assert not any(iv.contains(witness) for iv in gapped)


class TestCriterion11UniformConvergence:
    def test_uniform_convergence(self):
        verdict = xreal.uniform_convergence_check(
            family=lambda n, x: xreal.real_of_rat(x / (n + 1)),
            domain=xreal.RInterval(F(0), F(1)),
            candidate_modulus=lambda eps: math.ceil(2 / eps),
            grid_eps=F(1, 16),
            probe_indices=[1, 4, 16, 64, 256],
            eps_values=[F(1, 2), F(1, 4), F(1, 16)],
        )
        assert isinstance(verdict, xreal.Verified)

        verdict = xreal.uniform_convergence_check(
            family=lambda n, x: xreal.real_of_rat(x ** (n + 1)),
            domain=xreal.RInterval(F(0), F(1)),
            candidate_modulus=lambda eps: math.ceil(2 / eps),
            grid_eps=F(1, 16),
            probe_indices=[8, 64, 256],
            eps_values=[F(1, 4)],
        )
        assert isinstance(verdict, xreal.Refuted)
        assert verdict.eps == F(1, 4)
        assert verdict.separation >= F(1, 4)
        exact_gap = abs(
            verdict.x ** (verdict.base_index + 1) - verdict.x ** (verdict.n + 1)
        )
        assert exact_gap >= F(1, 4)


class TestCriterion12FiniteCoincidences:
    def test_coincidences(self):
        precovers = []
        for k in (1, 2, 3):
            precovers.extend(
                space_from_cover(c) for c in all_canonical_covers(Carrier(k))
            )
        # the two rather-below relations agree on every pair of subsets
        for s in precovers:
            for v in all_subsets(s.carrier):
                for u in all_subsets(s.carrier):
                    assert rather_below(s, v, u) == strongly_rather_below(s, v, u)
                    assert rather_below(s, v, u) == strongly_rather_below_oracle(s, v, u)
        # the two completions agree pointwise
        for s in all_spaces_up_to(3):
            a, b = completion(s), strong_completion(s)
            assert a.points == b.points
            assert a.structure == b.structure
            assert a.unit == b.unit
        # all seven separation conditions agree on every pair of points
        for s in all_spaces_up_to(3):
            for x in s.carrier.elements():
                for y in s.carrier.elements():
                    assert len(set(separated_char_conditions(s, x, y))) == 1
