"""Record the CLI's answers on the frames of every non-partition structure
on 3 and 4 points.

Those frames have no closed form, so ``oracle.check_locale`` compares the
CLI's answers with this record.  Run from the repository root:

    python3 perfbench/record_frames.py

It rewrites ``perfbench/recorded_frames.json`` from the program in ``src``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from coverlab import cli  # noqa: E402
from coverlab.finkernel import Carrier, all_canonical_covers  # noqa: E402

from decks import render_spacefile  # noqa: E402
from oracle import frame_key, is_partition  # noqa: E402


def answer(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return json.loads(out.getvalue())


def main() -> None:
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", "record-frames.json")
    record = {}
    for n in (3, 4):
        for cover in all_canonical_covers(Carrier(n)):
            gen = sorted(m.mask for m in cover.members)
            if is_partition(gen):
                continue
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_spacefile(n, [gen]))
            built = answer(["locale", "build", path])
            verdicts = {r["check"]: r["verdict"] == "pass" for r in built["reports"]}
            record[frame_key(n, gen)] = {
                "elements": built["elements"],
                "regular": verdicts["locale_regular"],
                "proper": verdicts["locale_proper"],
                "points": answer(["locale", "points", path])["points"],
            }
    os.remove(path)
    with open(os.path.join(HERE, "recorded_frames.json"), "w", encoding="utf-8") as fh:
        rows = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(record.items())]
        fh.write("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"recorded {len(record)} frames")


if __name__ == "__main__":
    main()
