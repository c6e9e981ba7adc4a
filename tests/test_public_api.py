import ast
import inspect
from collections import defaultdict
from pathlib import Path

import greenpot

SRC = Path(greenpot.__file__).parent


def _trees() -> list:
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))]


def _enclosing(tree) -> dict:
    """Each node's enclosing function definitions."""
    owners = defaultdict(list)
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if node is not fn:
                    owners[node].append(fn)
    return owners


def _callee(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _parameters(fn) -> set:
    a = fn.args
    return {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}


def called_names() -> set:
    """Names called anywhere in the package, except a function calling itself."""
    names = set()
    for tree in _trees():
        owners = _enclosing(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            if name and name not in {fn.name for fn in owners[node]}:
                names.add(name)
    return names


def passed_arguments() -> tuple[dict, dict, set]:
    """What the package's calls pass, by callee name.

    Returns the keywords passed to each name (None for a ** mapping), the
    most positional arguments passed to it (infinite for a * sequence), and
    the keywords passed to callables that are parameters of the enclosing
    function, such as a sweep handed in as run. A function calling itself
    does not count.
    """
    keywords, positional, through_parameters = defaultdict(set), defaultdict(int), set()
    for tree in _trees():
        owners = _enclosing(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            if not name or name in {fn.name for fn in owners[node]}:
                continue
            passed = {k.arg for k in node.keywords}
            keywords[name] |= passed
            count = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            positional[name] = max(positional[name], count)
            if (isinstance(node.func, ast.Name)
                    and any(name in _parameters(fn) for fn in owners[node])):
                through_parameters |= passed
    return keywords, positional, through_parameters


def public_definitions():
    """(qualified name, call name, definition) of every public function and
    every public method of a public class."""
    public = set(greenpot.__all__)
    for tree in _trees():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in public:
                yield node.name, node.name, node
            if isinstance(node, ast.ClassDef) and node.name in public:
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item.name, item


def defaulted_parameters(fn) -> list[tuple[str, int | None]]:
    """(name, call position) of each parameter with a default; None for
    keyword-only ones. A method's self or cls takes no call position."""
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args]
    bound = 1 if names and names[0] in ("self", "cls") else 0
    first = len(names) - len(a.defaults)
    out = [(name, k - bound) for k, name in enumerate(names) if k >= first]
    out += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
            if d is not None]
    return out


def test_every_public_function_has_a_caller_in_the_package():
    # a public function that only tests call is never measured by a run
    functions = [name for name in greenpot.__all__
                 if inspect.isfunction(getattr(greenpot, name))]
    assert functions
    assert sorted(set(functions) - called_names()) == []


def test_every_defaulted_parameter_is_passed_in_the_package():
    # a setting that only tests pass selects a path that no run measures
    keywords, positional, through_parameters = passed_arguments()
    unused = []
    for qualname, call_name, fn in public_definitions():
        for param, pos in defaulted_parameters(fn):
            if (param in keywords[call_name] or None in keywords[call_name]
                    or param in through_parameters
                    or (pos is not None and pos < positional[call_name])):
                continue
            unused.append(f"{qualname}({param})")
    assert sorted(unused) == []
