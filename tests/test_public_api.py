"""Every public name of the package has a user besides the tests.

A name exported through `fractalsturm.__all__` must be used by the
package itself (outside `__init__.py`), used by the benchmark, or
documented in the README.  Submodules and exception classes are exempt:
callers catch the exceptions, and the submodules hold the names.
"""

import ast
import inspect
import re
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


def test_every_public_name_has_a_user_besides_the_tests():
    library = _referenced_names(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    bench = _referenced_names((ROOT / "perfbench").glob("*.py"))
    readme = (ROOT / "README.md").read_text()
    orphans = [
        name
        for name in sorted(fractalsturm.__all__)
        if not _exempt(name)
        and name not in library
        and name not in bench
        and not re.search(rf"`{re.escape(name)}(?!\w)[^`]*`", readme)
    ]
    assert not orphans, f"public names used only by tests: {orphans}"
