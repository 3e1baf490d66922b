"""Every public name of the package has a user besides the tests.

A name exported through `fractalsturm.__all__`, and each public method,
classmethod and property of an exported class, must be used by the
package itself (outside `__init__.py`), used by the benchmark, or
documented in the README.  Submodules and exception classes are exempt:
callers catch the exceptions, and the submodules hold the names.
Importing the package and its CLI loads nothing of scipy that
`import scipy.linalg` does not load itself.
"""

import ast
import functools
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import fractalsturm
from fractalsturm import FractalSturmError

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(fractalsturm.__file__).resolve().parent


def _referenced_names(paths) -> set[str]:
    """Names read, attributes taken, and names imported in the given files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def _exempt(name: str) -> bool:
    obj = getattr(fractalsturm, name)
    return inspect.ismodule(obj) or (
        isinstance(obj, type) and issubclass(obj, FractalSturmError)
    )


def _members(cls) -> list[str]:
    """Public methods, classmethods and properties that cls defines itself."""
    kinds = (classmethod, staticmethod, property, functools.cached_property)
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))
    ]


def _orphans(candidates) -> list[str]:
    """The candidates (label, name, README prefix) with no user besides the tests."""
    library = _referenced_names(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    bench = _referenced_names((ROOT / "perfbench").glob("*.py"))
    readme = (ROOT / "README.md").read_text()
    return [
        label
        for label, name, prefix in candidates
        if name not in library
        and name not in bench
        and not re.search(rf"`{prefix}{re.escape(name)}(?!\w)[^`]*`", readme)
    ]


def _exported() -> list[str]:
    return [name for name in sorted(fractalsturm.__all__) if not _exempt(name)]


def test_every_public_name_has_a_user_besides_the_tests():
    orphans = _orphans((name, name, "") for name in _exported())
    assert not orphans, f"public names used only by tests: {orphans}"


def test_every_public_member_has_a_user_besides_the_tests():
    classes = [name for name in _exported() if inspect.isclass(getattr(fractalsturm, name))]
    orphans = _orphans(
        (f"{cls}.{member}", member, rf"(?:{cls}\.)?")
        for cls in classes
        for member in _members(getattr(fractalsturm, cls))
    )
    assert not orphans, f"public members used only by tests: {orphans}"


def test_import_loads_nothing_of_scipy_beyond_linalg():
    # Measured against `import scipy.linalg` alone, since what that loads
    # depends on the scipy version (before gh-23420 it loads scipy.sparse).
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    code = (
        "import sys, scipy.linalg\n"
        "before = set(sys.modules)\n"
        "import fractalsturm, fractalsturm.cli\n"
        "print(' '.join(m for m in set(sys.modules) - before if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
