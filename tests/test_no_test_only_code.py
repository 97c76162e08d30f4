"""Every public function, class and method in ``src/mrbnn`` has a user
outside the tests.

A module-level ``def`` or ``class``, or a ``def`` (a method or a property)
in the body of a module-level class, whose name does not start with ``_``
is used when its name appears in ``src/mrbnn`` as a name, an attribute, an
imported name or an identifier string (a ``getattr`` key, say), in a
``bench/*.py`` file the same way, or as a word of ``README.md``. Its own
``def`` line does not count. A method is listed as ``Class.method`` and
found by its own name, on whatever object it is read. Code whose only
users are tests is deleted rather than kept; the allowlist holds the few
names a test of the paper's claims reads on purpose.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "mrbnn").glob("*.py"))

ALLOWED = {
    "population_design": "read by tests/test_acceptance.py",
    "ste_gradient": "read by tests/test_acceptance.py",
    "decompose_fc": "read by tests/test_acceptance.py",
    "decompose_conv": "read by tests/test_acceptance.py",
    "DotDecomposition.reconstruct":
        "read by tests/test_acceptance.py's criterion 6 (decomposition)",
    "FpvMap.delta_mean_nm":
        "read by tests/test_acceptance.py's criterion 4 (FPV statistics)",
    "FpvMap.delta_std_nm":
        "read by tests/test_acceptance.py's criterion 4 (FPV statistics)",
}


def _public(nodes):
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def public_definitions():
    """{name: module file} of the public module-level defs and classes,
    and as ``Class.method`` of the public defs in those classes' bodies."""
    out = {}
    for path in SRC:
        for node in _public(ast.parse(path.read_text()).body):
            out[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body):
                    out[f"{node.name}.{method.name}"] = path.name
    return out


def referenced_names(paths):
    """The names, attributes, imported names and identifier strings of
    the given Python files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                names.add(node.value)
    return names


def unused_names():
    used = referenced_names([*SRC, *sorted((ROOT / "bench").glob("*.py"))])
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    return {name: module for name, module in public_definitions().items()
            if name.rsplit(".", 1)[-1] not in used}


def test_every_public_name_has_a_user():
    unused = {name: module for name, module in unused_names().items()
              if name not in ALLOWED}
    assert not unused, ("public names only tests use; delete them or give "
                        f"them a user: {unused}")


def test_allowlist_is_needed():
    # an allowed name that gains a user, or is deleted, leaves the list
    assert set(ALLOWED) <= set(unused_names())
