"""Pin files: JSON maps from a key to a pinned value, under tests/golden.

The pin tests read them with ``load``. Each test module regenerates its own
with ``--write`` through ``write_main``, which rewrites every file it is
given and prints each pin that moved, or ``no pin moved``.
"""

import json
import os
import sys


def load(path):
    with open(path) as fh:
        return json.load(fh)


def _flat(pins, label):
    """{(key, label): value}; a pin that is a mapping gives one entry per
    field, labelled with the field's name."""
    return {(key, name): value for key, pin in pins.items()
            for name, value in (pin.items() if isinstance(pin, dict)
                                else [(label, pin)])}


def write(path, pins, label):
    """Rewrite the pin file at path with pins. Returns a line for each pin
    that moved: its key, its label (or the field that moved), then the new
    value, or ``removed``."""
    before = _flat(load(path), label) if os.path.exists(path) else {}
    after = _flat(pins, label)
    moved = [f"{key} {name} {after.get((key, name), 'removed')}"
             for key, name in sorted(set(before) | set(after))
             if (key, name) not in after or (key, name) not in before
             or before[key, name] != after[key, name]]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return moved


def write_main(script, files):
    """The --write command of the test module at script: files() returns
    (path, pins, label) triples, which are written; each moved pin is
    printed, or ``no pin moved``."""
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python tests/"
                 f"{os.path.basename(script)} --write")
    moved = [line for path, pins, label in files()
             for line in write(path, pins, label)]
    print("\n".join(moved) or "no pin moved")
