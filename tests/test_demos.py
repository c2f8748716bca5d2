"""Demo outputs pinned across commits.

Each script in ``demos/`` runs in a subprocess and the sha256 of its
stdout lives in ``tests/golden/demos.json``. The demos call the package the
way a user would, so a change that breaks one, or changes what it prints,
fails here. Each runs in an empty temporary directory, so a demo that opens
a file by a path relative to the working directory fails too. Regenerate
the pins with::

    PYTHONPATH=src python tests/test_demos.py --write

which prints each pin it moves (demo name, ``output`` and the new digest,
or ``removed``), or ``no pin moved``.
"""

import glob
import hashlib
import os
import subprocess
import sys
import tempfile

import pytest

import pins

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(os.path.basename(path)
               for path in glob.glob(os.path.join(ROOT, "demos", "*.py")))
PINS_PATH = os.path.join(ROOT, "tests", "golden", "demos.json")


def demo_digest(name):
    """sha256 of the demo's stdout; a non-zero exit raises."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as cwd:
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "demos", name)], env=env,
            cwd=cwd, capture_output=True, check=True, timeout=300).stdout
    return hashlib.sha256(out).hexdigest()


def _pins():
    return pins.load(PINS_PATH)


def test_pins_cover_every_demo():
    assert sorted(_pins()) == DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output(name):
    assert demo_digest(name) == _pins()[name]


if __name__ == "__main__":
    pins.write_main(__file__, lambda: [
        (PINS_PATH, {name: demo_digest(name) for name in DEMOS}, "output")])
