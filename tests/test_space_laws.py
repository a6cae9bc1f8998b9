"""Laws of the finite half: the universal properties of the paper's
constructions, stated between different functions so that they hold at
any size (Chen, Cheung & Yiu, metamorphic testing, HKUST-CS98-01, 1998).
The definitional oracles stop at 4 points; these laws run on seeded
spaces of 5-12 points and of 200-2,000 points.

- ``regular_reflection`` is idempotent, the identity from s to its
  reflection is a cover map, and a cover map from s into a regular space
  is one from the reflection;
- f is a cover map from ``transfer(f, y)`` to y, and h into
  ``transfer(f, y)`` is a cover map exactly when f . h is;
- ``completion``'s unit is a cover map, its structure is complete, and
  completing it again gives the identity unit;
- at the CLI, ``complete`` and ``reflect`` run on their own ``--out``
  files print those files again.
"""

import json
import random

from coverlab import cauchy, cli, coverspace, spacefile
from coverlab.finkernel import discrete, generated_space, indiscrete, transfer

SMALL = range(5, 13)
LARGE = (200, 600, 2000)


def _space(rng: random.Random, n: int, regular: bool = False):
    """Blocks of a random labelling and, unless regular, up to three random
    bridges of two to four points, which overlap the blocks they meet, so
    the reflection merges those blocks."""
    labels = [rng.randrange(max(1, n // rng.choice((1, 2, 4)))) for _ in range(n)]
    blocks: dict[int, int] = {}
    for x, label in enumerate(labels):
        blocks[label] = blocks.get(label, 0) | 1 << x
    masks = list(blocks.values())
    if not regular:
        for _ in range(rng.randrange(4)):
            masks.append(sum({1 << rng.randrange(n) for _ in range(rng.randint(2, 4))}))
    return generated_space(n, masks)


def _spaces(seed: int, regular: bool = False):
    rng = random.Random(seed)
    sizes = [*[rng.choice(SMALL) for _ in range(60)], *LARGE]
    return rng, [_space(rng, n, regular) for n in sizes]


def _table(rng: random.Random, n: int, m: int) -> tuple[int, ...]:
    """A map from n points onto at most m, often onto fewer."""
    k = rng.randint(1, m)
    return tuple([rng.randrange(k) for _ in range(n)])


class TestReflection:
    def test_idempotent_and_under_the_identity(self):
        _, spaces = _spaces(401)
        for s in spaces:
            r = coverspace.regular_reflection(s)
            assert coverspace.satisfies_cr(r)
            assert coverspace.regular_reflection(r) == r
            assert coverspace.is_cover_map(tuple(range(s.size)), s, r)

    def test_maps_into_a_regular_space_factor_through_it(self):
        rng, spaces = _spaces(402)
        seen = set()
        for s in spaces:
            r = coverspace.regular_reflection(s)
            for _ in range(4):
                y = _space(rng, rng.randint(1, 8), regular=True)
                g = _table(rng, s.size, y.size)
                law = coverspace.is_cover_map(g, s, y)
                assert coverspace.is_cover_map(g, r, y) == law, (s, y, g)
                seen.add(law)
        assert seen == {True, False}


class TestTransfer:
    def test_initial_structure(self):
        rng, spaces = _spaces(403)
        seen = set()
        for y in spaces:
            n = rng.randint(y.size // 2 + 1, 2 * y.size)
            f = _table(rng, n, y.size)
            x = transfer(f, y)
            assert coverspace.is_cover_map(f, x, y)
            m = rng.randint(1, 12) if y.size <= 12 else rng.randint(n // 2, 2 * n)
            h = _table(rng, m, n)
            fh = tuple([f[i] for i in h])
            for z in (discrete(m), indiscrete(m), _space(rng, m), transfer(fh, y)):
                law = coverspace.is_cover_map(fh, z, y)
                assert coverspace.is_cover_map(h, z, x) == law, (y, f, h, z)
                seen.add(law)
        assert seen == {True, False}


class TestCompletion:
    def test_unit_is_a_cover_map_into_a_complete_space(self):
        _, spaces = _spaces(404, regular=True)
        for s in spaces:
            comp = cauchy.completion(s)
            assert coverspace.is_cover_map(comp.unit, s, comp.structure)
            assert cauchy.is_complete(comp.structure)
            again = cauchy.completion(comp.structure)
            assert again.unit == tuple(range(comp.size))
            assert again.structure == comp.structure


class TestCommandFixedPoints:
    def test_complete_and_reflect_reprint_their_out_files(self, tmp_path, capsys):
        _, spaces = _spaces(405)
        for i, s in enumerate([*spaces[:-len(LARGE):6], *spaces[-len(LARGE):]]):
            given = tmp_path / f"s{i}.json"
            given.write_text(spacefile.json_text(spacefile.document(spacefile.of_space(s))))
            for command in ("complete", "reflect"):
                first, second = tmp_path / f"{command}{i}a.json", tmp_path / f"{command}{i}b.json"
                printed = []
                for src, out in ((given, first), (first, second)):
                    assert cli.main([command, str(src), "--out", str(out)]) == 0
                    printed.append(json.loads(capsys.readouterr().out)["space"])
                assert second.read_bytes() == first.read_bytes(), (command, s)
                assert printed[1] == printed[0] == json.loads(first.read_text())
