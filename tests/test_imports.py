"""Every imported name is read.

Each Python file under src/, tests/, demos/ and bench/ is parsed with ast; a name
that an import statement binds must be read somewhere in its file, or be
listed in the file's __all__. Run alone with::

    PYTHONPATH=src python -m pytest -q tests/test_imports.py
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKED = ("src", "tests", "demos", "bench")


def unused_imports(source):
    """(line, name) of each imported name that source never reads."""
    tree = ast.parse(source)
    bound, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name)
                      for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(e.value for e in node.value.elts
                        if isinstance(e, ast.Constant))
    return [(line, name) for line, name in bound if name not in read]


def _python_files():
    for top in CHECKED:
        for dirpath, _dirs, files in os.walk(os.path.join(ROOT, top)):
            yield from (os.path.join(dirpath, f) for f in sorted(files)
                        if f.endswith(".py"))


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\nimport numpy.linalg\n"
              "from json import dumps, loads as load_json\n"
              "__all__ = ['dumps']\nprint(numpy.linalg, osp)\n")
    assert unused_imports(source) == [(2, "os"), (4, "load_json")]


def test_no_unused_imports():
    found = []
    for path in _python_files():
        with open(path, encoding="utf-8") as fh:
            found += [f"{os.path.relpath(path, ROOT)}:{line}: {name}"
                      for line, name in unused_imports(fh.read())]
    assert not found, "imported but never read:\n" + "\n".join(found)
