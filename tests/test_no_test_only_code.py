"""Every public function and class in ``src/mrbnn`` has a user outside the
tests.

A module-level ``def`` or ``class`` whose name does not start with ``_`` is
used when its name appears in ``src/mrbnn`` as a name, an attribute, an
imported name or an identifier string (a ``getattr`` key, say), in a
``bench/*.py`` file the same way, or as a word of ``README.md``. Its own
``def`` line does not count. Code whose only users are tests is deleted
rather than kept; the allowlist holds the few names a test of the paper's
claims reads on purpose.
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
}


def public_definitions():
    """{name: module file} of the public module-level defs and classes."""
    out = {}
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                out[node.name] = path.name
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
            if name not in used}


def test_every_public_name_has_a_user():
    unused = {name: module for name, module in unused_names().items()
              if name not in ALLOWED}
    assert not unused, ("public names only tests use; delete them or give "
                        f"them a user: {unused}")


def test_allowlist_is_needed():
    # an allowed name that gains a user, or is deleted, leaves the list
    assert set(ALLOWED) <= set(unused_names())
