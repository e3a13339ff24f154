"""Every public name of the package is reached from somewhere that runs.

A public top-level function or class of ``src/jbalance/*.py``, and every
public method of a public class, must be referenced by name in one of:

* the package's own code, as a name, an attribute or an import (docstrings
  and string labels do not count);
* ``tests/test_acceptance.py``, the paper's acceptance criteria;
* ``perfbench/*.py``, as a name or a string constant (the tracer wraps
  functions and methods it names by string).

A classmethod counts as reached only through ``Class.method``, so one
class's live ``from_json`` does not hide another's dead one.  Other names
match bare: a dead method that shares its name with a live one (``value``,
``hessian``) is not caught.
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


def _is_classmethod(node):
    return any(isinstance(d, ast.Name) and d.id == "classmethod" for d in node.decorator_list)


def public_definitions(tree):
    """(qualified name, the name a use must show) of the module's public
    top-level functions and classes and of the public methods of its public
    classes: the bare name, or ``Class.method`` for a classmethod."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    qualified = f"{node.name}.{item.name}"
                    yield qualified, qualified if _is_classmethod(item) else item.name


def referenced_names(tree, strings=False):
    """The names a module uses: Name ids, Attribute attributes (and
    ``Owner.attribute`` where the owner is a name or an attribute) and
    imported names, and with ``strings`` its string constants too."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            owner = getattr(node.value, "id", getattr(node.value, "attr", None))
            if owner is not None:
                names.add(f"{owner}.{node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def unreached(tree, reached):
    """The qualified public names of the module ``tree`` that ``reached``
    does not show."""
    return [qualified for qualified, name in public_definitions(tree)
            if name not in reached and name not in ALLOWED]


def test_every_public_name_is_reached():
    reached = set()
    for path in SRC:
        reached |= referenced_names(parse(path))
    reached |= referenced_names(parse(ROOT / "tests" / "test_acceptance.py"))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        reached |= referenced_names(parse(path), strings=True)
    missing = [f"{path.stem}.{qualified}" for path in SRC
               for qualified in unreached(parse(path), reached)]
    assert not missing, f"public names no workflow reaches: {missing}"


def test_a_classmethod_is_reached_only_through_its_class():
    module = ast.parse("class A:\n    @classmethod\n    def load(cls): pass\n\n"
                       "class B:\n    @classmethod\n    def load(cls): pass\n"
                       "    def save(self): pass\n")
    uses = ast.parse("A\nB\nmod.B.load()\nx.save()\n")
    assert unreached(module, referenced_names(uses)) == ["A.load"]


def test_allowlist_names_exist():
    defined = {name for path in SRC for _, name in public_definitions(parse(path))}
    assert set(ALLOWED) <= defined
