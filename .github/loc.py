"""Print the size of ``src/blockrank``: its total lines and its code lines,
then each module's.

A code line is not blank, not a full-line comment and not inside a
module, class or function docstring.  Run from the repository root:
``python .github/loc.py``.
"""

import ast
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of the lines that the docstrings in ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


sizes = {}  # module: (total, code)
for path in sorted(Path("src/blockrank").glob("*.py")):
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    lines = source.splitlines()
    sizes[path.stem] = (len(lines), sum(
        1 for number, line in enumerate(lines, 1)
        if line.strip() and not line.strip().startswith("#") and number not in skip))
total, code = map(sum, zip(*sizes.values()))
print(f"src/blockrank: {total} lines, {code} of them code")
for module, (lines, code) in sorted(sizes.items(), key=lambda item: -item[1][0]):
    print(f"  {module}.py: {lines} lines, {code} of them code")
