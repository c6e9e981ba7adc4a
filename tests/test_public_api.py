import ast
import inspect
from pathlib import Path

import greenpot

SRC = Path(greenpot.__file__).parent


def called_names() -> set:
    """Names called anywhere in the package, except a function calling itself."""
    names = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owners.setdefault(node, set()).add(fn.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name and name not in owners.get(node, ()):
                names.add(name)
    return names


def test_every_public_function_has_a_caller_in_the_package():
    # a public function that only tests call is never measured by a run
    functions = [name for name in greenpot.__all__
                 if inspect.isfunction(getattr(greenpot, name))]
    assert functions
    assert sorted(set(functions) - called_names()) == []
