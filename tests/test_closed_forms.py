"""The closed forms of the finite kernel against their definition-level
oracles: regularity, separation, embeddings, filter regularity,
completeness, completion, the regular reflection, the CLI witnesses, the
lowest-point antichain walk and the star table.  Exhaustive up to carrier
size 4, seeded random cases above.  Last, the table of hostile and large
inputs that the CLI answers in bounded time, and a count of the ``Subset``
values the CLI builds."""

import itertools
import json
import random
import sys
import time

import pytest

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
    RegularityError,
    is_cover_map,
    is_embedding,
    is_strongly_regular,
    regular_reflection,
    satisfies_cr,
)
from coverlab.finkernel import (
    Cover,
    Subset,
    all_subsets,
    canonicalize,
    discrete,
    indiscrete,
    maximal_masks,
    refines,
    transfer,
)
from helpers import (
    all_families,
    all_precovers_up_to,
    all_spaces_up_to,
    completion_oracle,
    dense_lift_transport,
    filter_refinable_oracle,
    is_complete_oracle,
    is_embedding_oracle,
    is_separated_oracle,
    is_strongly_regular_oracle,
    maximal_masks_oracle,
    neighborhood_base_scan,
    random_partition_space,
    random_precover_space,
    random_subset,
    rather_below_scan,
    regular_reflection_oracle,
    satisfies_cr_oracle,
    strongly_rather_below_oracle,
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


def _dense_lift_identity_300():
    d = discrete(300)
    identity = tuple(range(300))
    assert dense_lift(identity, d, d, identity, d) == identity


def _space_bytes(n, cover):
    return json.dumps({"format": 1, "carrier": n, "covers": [cover]}).encode()


_DISCRETE_200 = _space_bytes(200, [[x] for x in range(200)])
_CHAIN_200 = _space_bytes(200, [[x, x + 1] for x in range(199)])
_PAIRS_100 = _space_bytes(200, [[2 * x, 2 * x + 1] for x in range(100)])
_DISCRETE_1000 = _space_bytes(1000, [[x] for x in range(1000)])
_DISCRETE_2000 = _space_bytes(2000, [[x] for x in range(2000)])
_CHAIN_2000 = _space_bytes(2000, [[x, x + 1] for x in range(1999)])
BOUNDED_TIME = {
    "deep-nesting": (["axioms"], b"[" * 5000 + b"]" * 5000, 2),
    "not-utf8": (["axioms"], b"\xff\xfe", 2),
    "carrier-true": (["axioms"], b'{"format": 1, "carrier": true, "covers": [[[0]]]}', 2),
    "format-true": (["axioms"], b'{"format": true, "carrier": 1, "covers": [[[0]]]}', 2),
    "eps-1e999999999": (["real", "eval", "1", "--eps", "1e999999999"], None, 2),
    "eps-1e-999999999": (["real", "eval", "1", "--eps", "1e-999999999"], None, 2),
    "build-discrete-200": (["locale", "build"], _DISCRETE_200, 0),
    "points-discrete-200": (["locale", "points"], _DISCRETE_200, 0),
    "roundtrip-discrete-200": (["locale", "roundtrip"], _DISCRETE_200, 0),
    "build-chain-200": (["locale", "build"], _CHAIN_200, 0),
    "points-chain-200": (["locale", "points"], _CHAIN_200, 0),
    "roundtrip-chain-200": (["locale", "roundtrip"], _CHAIN_200, 1),
    "points-100-pairs": (["locale", "points"], _PAIRS_100, 1),
    "points-discrete-1000": (["locale", "points"], _DISCRETE_1000, 0),
    "axioms-discrete-2000": (["axioms"], _DISCRETE_2000, 0),
    "complete-discrete-2000": (["complete"], _DISCRETE_2000, 0),
    "reflect-discrete-2000": (["reflect"], _DISCRETE_2000, 0),
    "roundtrip-discrete-2000": (["locale", "roundtrip"], _DISCRETE_2000, 0),
    "axioms-chain-2000": (["axioms"], _CHAIN_2000, 1),
    "complete-chain-2000": (["complete"], _CHAIN_2000, 0),
    "reflect-chain-2000": (["reflect"], _CHAIN_2000, 0),
    "roundtrip-chain-2000": (["locale", "roundtrip"], _CHAIN_2000, 1),
    # about 189,000 terms, past xreal.MAX_SERIES_TERMS: refused at once
    "geometric-9999/10000": (
        ["real", "eval", "limit(geometric; 9999/10000)", "--eps", "1/1000"], None, 1
    ),
    # needs over 2,000,000 terms: the index search stops at the budget
    "exp-1000000": (["real", "eval", "exp(1000000)", "--eps", "1"], None, 1),
    # the exponential of a real is two rational exponentials at the ends of
    # one answer for its argument, not a series of interval products
    "exp-exp-5": (["real", "eval", "exp(exp(5))", "--eps", "1"], None, 0),
    # e^20 is about 4.9e8: the bound on e^|x| already passes the term budget
    "exp-exp-20": (["real", "eval", "exp(exp(20))", "--eps", "1"], None, 1),
    # past the interpreter's 4300-digit int-to-str limit
    "third-1e-5000": (["real", "eval", "1/3", "--eps", "1e-5000"], None, 0),
    "third-1e-100000-bounds": (
        ["real", "eval", "1/3", "--eps", "1e-100000", "--bounds"], None, 0
    ),
    # exact series terms are carried as integer bounds on a fixed-point grid,
    # so a term's bits follow the precision, not its index
    "exp-exp-1/2-1e-1000": (["real", "eval", "exp(exp(1/2))", "--eps", "1e-1000"], None, 0),
    "exp-7000": (["real", "eval", "exp(7000)", "--eps", "1"], None, 0),
    "exp-exp-0-plus-999": (["real", "eval", "exp(exp(0) + 999)", "--eps", "1"], None, 0),
    # past realexpr.MAX_LITERAL_DIGITS: a parse error, not int()'s message
    "literal-5000-digits": (["real", "eval", "1" * 5000 + "/3", "--eps", "1"], None, 2),
    # ceil(1/eps) + 1 net points, refused past cli.MAX_NET_POINTS
    "heine-borel-1/10000": (["demo", "heine-borel", "--eps", "1/10000"], None, 0),
    "heine-borel-1/100000": (["demo", "heine-borel", "--eps", "1/100000"], None, 1),
}
BOUNDED_TIME_IDS = list(BOUNDED_TIME)
BOUNDED_TIME_CASES = list(BOUNDED_TIME.values())


class TestNoEnumeration:
    """The CLI's axioms, completion, reflection and locale paths and the
    embedding test run without enumerating subsets or canonical covers."""

    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumeration on a closed-form path")

        for name, module in list(sys.modules.items()):
            if name == "coverlab" or name.startswith("coverlab."):
                for fn in ("all_subsets", "all_canonical_covers"):
                    if hasattr(module, fn):
                        monkeypatch.setattr(module, fn, refuse)

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

    @pytest.mark.parametrize("argv, data, code", BOUNDED_TIME_CASES,
                             ids=BOUNDED_TIME_IDS)
    def test_bounded_time_table(
        self, tmp_path, capsys, no_enumeration, argv, data, code
    ):
        # each case returns its documented exit code, never a traceback
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
                                      _dense_lift_identity_300],
                             ids=["strong-completion-discrete-2000",
                                  "dense-lift-identity-300"])
    def test_library_bounded_time(self, no_enumeration, call):
        started = time.perf_counter()
        call()
        assert time.perf_counter() - started < 1.0

    def test_guard_is_active(self, no_enumeration):
        with pytest.raises(AssertionError):
            finkernel.all_subsets(finkernel.Carrier(2))


@pytest.mark.parametrize("data", [_DISCRETE_200, _CHAIN_200], ids=["discrete", "chain"])
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
