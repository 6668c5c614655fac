"""Rules the package's source keeps, read from its syntax trees."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nomec"

# (module, enclosing function) of each builtin sum() call allowed: Python
# 3.12 and later compensate a float sum(), and every golden pins the bits of
# left-to-right sums, so only integer counts may use it
SUM_ALLOWED = {("cli.py", "main")}   # the count of failed rows


class _SumCalls(ast.NodeVisitor):
    """(enclosing function or None, line) of every call of the name sum."""

    def __init__(self):
        self.scope = [None]
        self.calls = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "sum":
            self.calls.append((self.scope[-1], node.lineno))
        self.generic_visit(node)


def test_builtin_sum_only_counts():
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _SumCalls()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        found += [(path.name, scope, line) for scope, line in visitor.calls]
    assert found, "the allowed count in cli.main is no longer found"
    assert [call for call in found if call[:2] not in SUM_ALLOWED] == []
