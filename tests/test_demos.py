"""Each demo prints its committed transcript, with warnings as errors.

A demo runs as a copy beside a link to the fixtures, so what it writes
(demo 03's DOT file under build/) goes to the test's own directory, not
into the checkout; the path demo 03 prints reads ``<checkout>`` in the
transcript.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import binrisk

ROOT = Path(__file__).resolve().parents[1]
TRANSCRIPTS = Path(__file__).resolve().parent / "transcripts"


def test_every_demo_has_a_transcript():
    assert sorted(p.stem for p in (ROOT / "demos").glob("*.py")) == \
        sorted(p.stem for p in TRANSCRIPTS.glob("*.txt"))


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_prints_its_transcript(tmp_path, name):
    checkout = tmp_path.resolve()
    (checkout / "demos").mkdir()
    shutil.copy(ROOT / "demos" / name, checkout / "demos")
    (checkout / "fixtures").symlink_to(ROOT / "fixtures", target_is_directory=True)
    src = str(Path(binrisk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-W", "error", str(checkout / "demos" / name)],
                          capture_output=True, text=True, env=env, cwd=checkout, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    want = (TRANSCRIPTS / name.replace(".py", ".txt")).read_text(encoding="utf-8")
    assert proc.stdout.replace(str(checkout), "<checkout>") == want
