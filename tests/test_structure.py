import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import greenpot
from greenpot.green import GreenSystem
from greenpot.riesz import KernelMatrix

SRC = Path(greenpot.__file__).parent

# The one place that turns a failed Cholesky into a SolverError.
LINALG_HANDLERS = {("solvers.py", "_cholesky")}


def _catches_linalg_error(handler: ast.ExceptHandler) -> bool:
    return handler.type is not None and any(
        getattr(node, "attr", getattr(node, "id", None)) == "LinAlgError"
        for node in ast.walk(handler.type))


def owned_nodes():
    """(file, innermost enclosing function, node) of every source node."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner[node] = fn.name  # inner functions come later and win
        for node in ast.walk(tree):
            yield path.name, owner.get(node, "<module>"), node


def linalg_handlers() -> set:
    """(file, innermost enclosing function) of every handler of LinAlgError."""
    return {(name, fn) for name, fn, node in owned_nodes()
            if isinstance(node, ast.ExceptHandler) and _catches_linalg_error(node)}


def test_linalg_error_is_mapped_in_one_place():
    # every other factorization goes through solvers._cholesky, which raises
    # SolverError itself
    assert linalg_handlers() == LINALG_HANDLERS


def test_only_solvers_calls_cho_factor():
    # a factorization elsewhere would need its own failure mapping
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and any(a.name == "cho_factor" for a in node.names)
                    or getattr(node, "attr", None) == "cho_factor"):
                users.add(path.name)
    assert users == {"solvers.py"}


def test_no_gauss_function_takes_a_system_beside_its_field():
    # a field carries the system it was built on (ExternalField.system), so
    # a function taking both could pair a field with another system
    tree = ast.parse((SRC / "gauss.py").read_text(encoding="utf-8"))
    both = set()
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
            params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            kinds = {ast.unparse(p.annotation) for p in params if p.annotation}
            if {"GreenSystem", "ExternalField"} <= kinds:
                both.add(fn.name)
    assert both == set()


def test_certificates_go_through_solvers():
    # outside solvers.py (whose _certify is every positive-definiteness
    # certificate) only the Dirac sweep factors, in the upper form its Green
    # outputs are pinned to
    callers = {(name, fn) for name, fn, node in owned_nodes()
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None))
               == "_cholesky"}
    assert {c for c in callers if c[0] != "solvers.py"} == {
        ("balayage.py", "dirac_sweep_matrix")}


def test_no_module_imports_scipy_sparse():
    # support_descriptor counts Omega's components in numpy; scipy.sparse's
    # graph routines cost every run their import
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n == "scipy.sparse" or n.startswith("scipy.sparse.")
                   for n in names):
                users.add(path.name)
    assert users == set()


def test_cli_import_leaves_csgraph_out():
    code = ("import sys, greenpot.cli; "
            "print('scipy.sparse.csgraph' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.stdout.strip() == "False"


def _assigned_attrs(node) -> list:
    """Attribute targets of an assignment node, tuple targets unpacked."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
               else [])
    found = []
    for target in targets:
        found += [t for t in ast.walk(target) if isinstance(t, ast.Attribute)]
    return found


def test_green_systems_come_from_system_and_restrict():
    # green._system certifies every Green matrix a system is built on;
    # restrict shares an already certified one
    makers = {(name, fn) for name, fn, node in owned_nodes()
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              == "GreenSystem"}
    assert makers == {("green.py", "_system"), ("green.py", "restrict")}


def test_only_system_hands_a_guide():
    # outside solvers.py, whose FactorSlot holds a guide and whose solver
    # takes it, a guide is set in one place, and no slot is made with one
    setters = {(name, fn) for name, fn, node in owned_nodes()
               if any(t.attr == "guide" for t in _assigned_attrs(node))}
    assert {s for s in setters if s[0] != "solvers.py"} == {("green.py", "_system")}
    seeded = {(name, fn) for name, fn, node in owned_nodes()
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "FactorSlot"
              and (node.args or node.keywords)}
    assert {s for s in seeded if s[0] != "solvers.py"} == set()


def test_kernels_and_green_systems_carry_only_what_a_solve_reads():
    # no solve reads a kernel's alpha or dimension, and the green task takes
    # the symmetrization residual from green._build beside the system
    assert [f.name for f in fields(KernelMatrix)] == ["entries", "solve", "slot"]
    assert [f.name for f in fields(GreenSystem)] == ["cfg", "green"]


def test_only_solvers_and_riesz_tile_or_gather():
    # whole-matrix passes read their matrix in place; _TILE's row blocks
    # and tiles and _gather's copies serve the solvers' free blocks, the
    # certificate's restore, and the kernel's blocks and symmetry check
    names = {"_TILE", "_gather"}
    users = {name for name, _, node in owned_nodes()
             if getattr(node, "id", getattr(node, "attr", None)) in names
             or isinstance(node, ast.ImportFrom)
             and any(a.name in names for a in node.names)}
    assert users == {"solvers.py", "riesz.py"}
