"""The README's Python example runs against the package as documented."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    # the first line is eigenvalues(disc, 4) of the Neumann Cantor string
    first = out.getvalue().splitlines()[0]
    assert ast.literal_eval(first)[0] == 0.0
