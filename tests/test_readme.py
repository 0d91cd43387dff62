"""The README quickstart runs, and the values its comments quote are the computed ones.

A comment that begins with a number, or with a tuple of numbers, quotes the
value of its line's expression: exactly, or to the digits written when
``...`` follows them.
"""

import ast
import re
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


def test_quickstart_quotes_computed_values():
    source = quickstart()
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
    assert checked >= 7  # T, c, both MPCs and the three Hessian entries
