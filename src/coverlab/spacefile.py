"""Reading and writing finite-space files.

A space file is a JSON document with a versioned ``format`` field, a
carrier size of at most ``MAX_CARRIER`` points, and a list of covers, each
cover a list of subsets, each subset a list of element indices.  Parsing
turns each subset into an int mask (bit x for point x) as it checks the
indices, so ``SpaceFile.covers`` holds each cover as its distinct masks,
ascending.  Emission lists each subset's points ascending and a cover's
subsets in lexicographic order, so parse-emit-parse is the identity.

``read_text`` and ``write_text`` move the CLI's file bytes with ``os.read``
and ``os.write`` loops.  ``json_text`` writes a document as ``json.dumps(doc,
indent=2)`` does, by exact type; the CLI prints its reports with it, those
of ``demo heine-borel`` too, so the finite modules are read at call time.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from . import coverspace, finkernel

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

    exit_code = 2  # the CLI's code for a parse error


def read_text(path: str) -> str:
    """A UTF-8 file's text, line ends read as text mode reads them, as JSON errors count lines."""
    fd = os.open(path, os.O_RDONLY)
    try:
        data = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as e:
        raise SpaceFileError(f"not UTF-8 text: byte {e.start} cannot be decoded") from e
    except IsADirectoryError as e:  # named by open(), but not by os.read
        raise IsADirectoryError(e.errno, e.strerror, path) from None
    finally:
        os.close(fd)


def write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8, replacing what the file held."""
    data, fd = text.encode(), os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


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
        covers.append(tuple(finkernel.distinct_masks(masks)))
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
        missing = full ^ finkernel.union(cover)
        if missing:
            return False, {"cover": i, "missing_points": finkernel.points_of(missing)}
    return True, {}


def to_space(sf: SpaceFile) -> finkernel.FiniteCoverSpace:
    """The structure the file's covers generate; they must cover the
    carrier (``covers_valid``)."""
    return coverspace.close_masks(sf.carrier, sf.covers)


def of_space(s: finkernel.FiniteCoverSpace) -> SpaceFile:
    return SpaceFile(s.size, (s.masks,))


def document(sf: SpaceFile) -> dict:
    """The JSON document of a space file, as ``emit_spacefile`` writes it."""
    return {
        "format": FORMAT_VERSION,
        "carrier": sf.carrier,
        "covers": [sorted(map(finkernel.points_of, cover)) for cover in sf.covers],
    }


def emit_spacefile(sf: SpaceFile) -> str:
    return json_text(document(sf)) + "\n"


_SCALAR_TEXT = {  # json's text of each scalar, by exact type
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: repr(x) if x - x == 0 else json.dumps(x),  # json names nan and inf
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
MAX_KEY_TEXTS = 256
_KEY_TEXT: dict[str, str] = {}  # '"key": ' of the first MAX_KEY_TEXTS keys met


def json_text(doc: dict | list) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, for a dict or list
    document with str keys and str, int, float, bool, None, list, tuple
    and dict values (scalars of exactly these types)."""
    out: list[str] = []
    _write(doc, out.append, "\n")
    return "".join(out)


def _key_text(k: str) -> str:
    text = encode_basestring_ascii(k) + ": "
    if len(_KEY_TEXT) < MAX_KEY_TEXTS:
        _KEY_TEXT[k] = text
    return text


def _write(o, put, newline: str) -> None:
    """Put the text of a list, tuple or dict o; newline is a line break
    followed by o's own indentation."""
    inner = newline + "  "
    if (t := type(o)) is dict or t is not list and t is not tuple and isinstance(o, dict):
        sep, head, keys, scalars = "," + inner, "{" + inner, _KEY_TEXT, _SCALAR_TEXT
        for k, v in o.items():
            head += keys.get(k) or _key_text(k)
            scalar = scalars.get(type(v))
            if scalar is None:
                put(head)
                _write(v, put, inner)
            else:
                put(head + scalar(v))
            head = sep
        put(newline + "}" if o else "{}")
    elif t is list or t is tuple or isinstance(o, (list, tuple)):
        sep, head, scalars = "," + inner, "[" + inner, _SCALAR_TEXT
        for v in o:
            scalar = scalars.get(type(v))
            if scalar is None:
                put(head)
                _write(v, put, inner)
            else:
                put(head + scalar(v))
            head = sep
        put(newline + "]" if o else "[]")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
