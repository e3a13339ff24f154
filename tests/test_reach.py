"""Every public name of the package is reached from somewhere that runs.

A public top-level function or class of ``src/jbalance/*.py``, and every
public method of a public class, must be referenced by name in one of:

* the package's own code, as a name, an attribute or an import (docstrings
  and string labels do not count);
* ``tests/test_acceptance.py``, the paper's acceptance criteria;
* ``perfbench/*.py``, as a name or a string constant (the tracer wraps
  functions and methods it names by string).

The check matches bare names: a dead method that shares its name with a
live one (``value``, ``hessian``) is not caught.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "jbalance").glob("*.py"))

# name -> why it stays without a caller
ALLOWED = {
    "qk_operator": "the Bergman-kernel operator Q_k, kept for the planned "
                   "quantum-limit rates report",
    "t_map": "the paper's T map, pinned by Donaldson's monotonicity test "
             "(test_i_mu0_decreases_under_t_map)",
}


def public_definitions(tree):
    """(qualified name, bare name) of the module's public top-level functions
    and classes and of the public methods of its public classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def referenced_names(tree, strings=False):
    """The names a module uses: Name ids, Attribute attributes and imported
    names, and with ``strings`` its string constants too."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_name_is_reached():
    reached = set()
    for path in SRC:
        reached |= referenced_names(parse(path))
    reached |= referenced_names(parse(ROOT / "tests" / "test_acceptance.py"))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        reached |= referenced_names(parse(path), strings=True)
    unreached = [f"{path.stem}.{qualified}"
                 for path in SRC for qualified, name in public_definitions(parse(path))
                 if name not in reached and name not in ALLOWED]
    assert not unreached, f"public names no workflow reaches: {unreached}"


def test_allowlist_names_exist():
    defined = {name for path in SRC for _, name in public_definitions(parse(path))}
    assert set(ALLOWED) <= defined
