"""The command lines of ``cross_python.py`` against ``transcript.sha256``:
every printed block (argv, stdout with ``ms`` blanked, stderr, exit code
and ``--out`` file) must hash as committed.  A change that alters output on
purpose runs ``cross_python.py --write`` and names the rows it changed."""

import cross_python


def test_every_block_hashes_as_committed(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to this width
    differ = cross_python.differences()
    assert not differ, "printed blocks differ from transcript.sha256:\n" + "\n".join(differ)
