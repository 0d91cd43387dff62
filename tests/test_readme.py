"""The README quickstart runs, and the values its comments quote are the computed ones.

A comment that begins with a number, or with a tuple of numbers, quotes the
value of its line's expression: exactly, or to the digits written when
``...`` follows them.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
NUMBER = r"[-+]?\d[\d.]*(?:e[-+]?\d+)?(?:\.\.\.)?"
QUOTE = re.compile(rf"\s*(\((?:{NUMBER},\s*)*{NUMBER}\)|{NUMBER})")


def quickstart():
    return re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)


def matches(quoted, value):
    if quoted.endswith("..."):
        shown = repr(value) if quoted[0] != "+" or value < 0.0 else "+" + repr(value)
        return shown.startswith(quoted[:-3])
    return float(quoted) == value


def checked_quotes(source):
    """Run ``source`` statement by statement; assert each quoted value; return how many."""
    lines = source.splitlines()
    namespace, checked = {}, 0
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        quote = QUOTE.match(lines[stmt.end_lineno - 1].partition("#")[2])
        if quote is None:
            continue
        quoted = re.findall(NUMBER, quote.group(1))
        values = value if isinstance(value, tuple) else (value,)
        assert len(quoted) == len(values), stmt.lineno
        for q, v in zip(quoted, values):
            assert matches(q, float(v)), (stmt.lineno, q, v)
            checked += 1
    return checked


def test_quickstart_quotes_computed_values():
    assert checked_quotes(quickstart()) >= 7  # T, c, both MPCs and the three Hessian entries


def test_quickstart_scalar_lines_run_without_numpy():
    # every line above the quickstart's ``import numpy``, in an interpreter that cannot import it
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here), str(here.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import test_readme\n"
        "print(test_readme.checked_quotes(test_readme.quickstart().partition('import numpy')[0]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) >= 7
