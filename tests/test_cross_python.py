"""``cross_python.py --check`` under every other Python 3.10-3.14 found.

Each ``python3.N`` on PATH that starts runs the transcript check in its own
process, so a difference between interpreters, such as a message that
argparse words differently in a later release, fails here and not only in
a run by hand.  A name that is absent or does not start (a version manager's
shim for a version not selected prints an error and exits non-zero) is
skipped, and so is the interpreter running pytest, which
``test_transcript.py`` already covers.
"""

import os
import shutil
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(TESTS, "..", "src")


@pytest.mark.parametrize("name", [f"python3.{minor}" for minor in range(10, 15)])
def test_transcript_check_passes_under(name):
    exe = shutil.which(name)
    if exe is None:
        pytest.skip(f"{name} is not on PATH")
    started = subprocess.run([exe, "-c", "import sys; print(sys.executable)"],
                             capture_output=True, text=True, timeout=60)
    if started.returncode != 0:
        pytest.skip(f"{name} does not start")
    if os.path.realpath(started.stdout.strip()) == os.path.realpath(sys.executable):
        pytest.skip(f"{name} runs pytest: test_transcript.py checks it")
    run = subprocess.run([exe, os.path.join(TESTS, "cross_python.py"), "--check"],
                         capture_output=True, text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"})
    assert run.returncode == 0, f"{name}: --check exited {run.returncode}\n{run.stderr}"
