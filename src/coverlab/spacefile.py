"""Reading and writing finite-space files.

A space file is a JSON document with a versioned ``format`` field, a
carrier size, and a list of covers, each cover a list of subsets, each
subset a sorted list of element indices.  Emission is canonical (sorted
subsets, sorted covers), so parse-emit-parse is the identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .coverspace import close_masks
from .finkernel import FiniteCoverSpace, points_of

FORMAT_VERSION = 1


class SpaceFileError(ValueError):
    """Malformed space file; the message carries the JSON path."""


@dataclass(frozen=True)
class SpaceFile:
    carrier: int
    covers: tuple[tuple[tuple[int, ...], ...], ...]


def parse_spacefile(text: str) -> SpaceFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpaceFileError(f"not valid JSON at line {e.lineno} column {e.colno}") from e
    except RecursionError as e:
        raise SpaceFileError("JSON nested too deeply") from e
    if not isinstance(doc, dict):
        raise SpaceFileError("top level must be an object")
    fmt = doc.get("format")
    if fmt != FORMAT_VERSION or isinstance(fmt, bool):
        raise SpaceFileError(f"format must be {FORMAT_VERSION}, got {fmt!r}")
    n = doc.get("carrier")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SpaceFileError(f"carrier must be a positive integer, got {n!r}")
    raw = doc.get("covers")
    if not isinstance(raw, list):
        raise SpaceFileError("covers must be a list")
    covers = []
    for i, cover in enumerate(raw):
        if not isinstance(cover, list) or not cover:
            raise SpaceFileError(f"covers[{i}] must be a nonempty list of subsets")
        subsets = []
        for j, subset in enumerate(cover):
            if not isinstance(subset, list):
                raise SpaceFileError(f"covers[{i}][{j}] must be a list of indices")
            for k, x in enumerate(subset):
                if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n:
                    raise SpaceFileError(
                        f"covers[{i}][{j}][{k}]: index {x!r} outside 0..{n - 1}"
                    )
            subsets.append(tuple(sorted(set(subset))))
        covers.append(tuple(sorted(set(subsets))))
    return SpaceFile(n, tuple(covers))


def covers_valid(sf: SpaceFile) -> tuple[bool, dict]:
    """Whether every listed cover unions to the carrier; witness names the
    first failing cover and its missing points."""
    for i, cover in enumerate(sf.covers):
        seen = set()
        for subset in cover:
            seen.update(subset)
        missing = sorted(set(range(sf.carrier)) - seen)
        if missing:
            return False, {"cover": i, "missing_points": missing}
    return True, {}


def to_space(sf: SpaceFile) -> FiniteCoverSpace:
    """The structure the file's covers generate; they must cover the
    carrier (``covers_valid``)."""
    return close_masks(
        sf.carrier, ([sum(1 << x for x in xs) for xs in cover] for cover in sf.covers)
    )


def of_space(s: FiniteCoverSpace) -> SpaceFile:
    members = tuple(tuple(points_of(w)) for w in s.masks)
    return SpaceFile(s.size, (tuple(sorted(members)),))


def emit_spacefile(sf: SpaceFile) -> str:
    doc = {
        "format": FORMAT_VERSION,
        "carrier": sf.carrier,
        "covers": [
            sorted([sorted(subset) for subset in set(cover)])
            for cover in sf.covers
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
