"""Reading and writing finite-space files.

A space file is a JSON document with a versioned ``format`` field, a
carrier size of at most ``MAX_CARRIER`` points, and a list of covers, each
cover a list of subsets, each subset a list of element indices.  Parsing
turns each subset into an int mask (bit x for point x) as it checks the
indices, so ``SpaceFile.covers`` holds each cover as its distinct masks,
ascending.  Emission lists each subset's points ascending and a cover's
subsets in lexicographic order, so parse-emit-parse is the identity.

``json_text`` writes a document byte for byte as ``json.dumps(doc,
indent=2)`` does, without falling back to ``json``'s pure-Python encoder;
the CLI prints its reports with it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .coverspace import close_masks
from .finkernel import FiniteCoverSpace, distinct_masks, points_of, union

FORMAT_VERSION = 1
# The largest carrier a file may declare, refused before any mask is built.
# A mask spans the carrier, so a discrete file of n points holds n^2/2 bits
# of masks: at 10,000 points `locale roundtrip` takes 0.9 s, the slowest
# subcommand, and 2.6 s at 20,000; a cover [[0]] lists 9,999 missing points.
MAX_CARRIER = 10_000
# The deepest nesting of lists and objects a file may hold.  json.loads gives
# up at about 990 levels under Python 3.10 and 3.11, 1,500 under 3.12 and
# 10,000 under 3.13, so a file nested deeper than this bound is refused with
# the same message under each.
MAX_NESTING = 500


class SpaceFileError(ValueError):
    """Malformed space file; the message carries the JSON path."""


@dataclass(frozen=True)
class SpaceFile:
    carrier: int
    covers: tuple[tuple[int, ...], ...]


def parse_spacefile(text: str) -> SpaceFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpaceFileError(f"not valid JSON at line {e.lineno} column {e.colno}") from e
    except RecursionError as e:
        raise SpaceFileError("JSON nested too deeply") from e
    except ValueError as e:  # int() refuses a literal past sys.get_int_max_str_digits()
        raise SpaceFileError(f"integer literal of more than {sys.get_int_max_str_digits()} "
                             "digits") from e
    # only a refusal or a key besides the three looks at the depth, so a
    # file as emit_spacefile writes it pays nothing
    try:
        sf = _read(doc)
        if len(doc) == 3 or not _nested_deeper(doc):
            return sf
    except SpaceFileError:
        if not _nested_deeper(doc):
            raise
    raise SpaceFileError("JSON nested too deeply")


def _read(doc) -> SpaceFile:
    if not isinstance(doc, dict):
        raise SpaceFileError("top level must be an object")
    fmt = doc.get("format")
    if fmt != FORMAT_VERSION or isinstance(fmt, bool):
        raise SpaceFileError(f"format must be {FORMAT_VERSION}, got {_quote(fmt)}")
    n = doc.get("carrier")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SpaceFileError(f"carrier must be a positive integer, got {_quote(n)}")
    if n > MAX_CARRIER:
        raise SpaceFileError(f"carrier {n} is more than {MAX_CARRIER} points")
    raw = doc.get("covers")
    if not isinstance(raw, list):
        raise SpaceFileError("covers must be a list")
    covers = []
    for i, cover in enumerate(raw):
        if not isinstance(cover, list) or not cover:
            raise SpaceFileError(f"covers[{i}] must be a nonempty list of subsets")
        masks = []
        for j, subset in enumerate(cover):
            if not isinstance(subset, list):
                raise SpaceFileError(f"covers[{i}][{j}] must be a list of indices")
            mask = 0
            for k, x in enumerate(subset):
                # json.loads gives exact ints, so this also refuses bools
                if type(x) is not int or not 0 <= x < n:
                    raise SpaceFileError(
                        f"covers[{i}][{j}][{k}]: index {_quote(x)} outside 0..{n - 1}"
                    )
                mask |= 1 << x
            masks.append(mask)
        covers.append(tuple(distinct_masks(masks)))
    return SpaceFile(n, tuple(covers))


def _nested_deeper(value) -> bool:
    """Whether lists and objects nest in value more than MAX_NESTING deep,
    read level by level rather than by recursion."""
    level = [value]
    for _ in range(MAX_NESTING + 1):
        level = [c for c in level if isinstance(c, (list, dict))]
        if not level:
            return False
        level = [v for c in level for v in (c.values() if isinstance(c, dict) else c)]
    return True


def _quote(value) -> str:
    """repr(value) for a message, cut past 80 characters."""
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:60]}... ({len(text)} characters)"


def covers_valid(sf: SpaceFile) -> tuple[bool, dict]:
    """Whether every listed cover unions to the carrier; witness names the
    first failing cover and its missing points."""
    full = (1 << sf.carrier) - 1
    for i, cover in enumerate(sf.covers):
        missing = full ^ union(cover)
        if missing:
            return False, {"cover": i, "missing_points": points_of(missing)}
    return True, {}


def to_space(sf: SpaceFile) -> FiniteCoverSpace:
    """The structure the file's covers generate; they must cover the
    carrier (``covers_valid``)."""
    return close_masks(sf.carrier, sf.covers)


def of_space(s: FiniteCoverSpace) -> SpaceFile:
    return SpaceFile(s.size, (s.masks,))


def document(sf: SpaceFile) -> dict:
    """The JSON document of a space file, as ``emit_spacefile`` writes it."""
    return {
        "format": FORMAT_VERSION,
        "carrier": sf.carrier,
        "covers": [sorted(map(points_of, cover)) for cover in sf.covers],
    }


def emit_spacefile(sf: SpaceFile) -> str:
    return json_text(document(sf)) + "\n"


_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# how json writes each scalar, by exact type
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: _FLOAT_NAMES.get(repr(x)) or repr(x),
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def json_text(doc: dict | list) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, for a dict or list
    document with str keys and str, int, float, bool, None, list, tuple
    and dict values (scalars of exactly these types)."""
    out: list[str] = []
    _write(doc, out, "\n")
    return "".join(out)


def _write(o, out: list[str], newline: str) -> None:
    """Append the text of a list, tuple or dict o to out; newline is a line
    break followed by o's own indentation."""
    inner = newline + "  "
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        head = "{" + inner
        for k, v in o.items():
            head += encode_basestring_ascii(k) + ": "
            scalar = _SCALAR_TEXT.get(type(v))
            if scalar is None:
                out.append(head)
                _write(v, out, inner)
            else:
                out.append(head + scalar(v))
            head = "," + inner
        out.append(newline + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        head = "[" + inner
        for v in o:
            scalar = _SCALAR_TEXT.get(type(v))
            if scalar is None:
                out.append(head)
                _write(v, out, inner)
            else:
                out.append(head + scalar(v))
            head = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
