"""Every public ``SceneGraph`` method or property has a caller.

A public entry point into the graph that nothing in the package reads
is a second way to do what another one does, or code no caller needs.
The check reads the source: a method counts as used when some module in
``src/stepqa`` reads an attribute of its name outside the method's own
body, or when ``perfbench/spans.py`` wraps it as a ``SceneGraph``
target. The match is by name, so it can miss a dead method whose name
another class also uses; it never flags one that has a caller.
"""

import ast
from pathlib import Path

import pytest

import stepqa
from stepqa.scene_graph import SceneGraph

SRC = Path(stepqa.__file__).parent
SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def public_members(cls):
    """The names of the class's public methods and properties."""
    return sorted(
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and (callable(value) or isinstance(value, property))
    )


class AttributeReads(ast.NodeVisitor):
    """Collects the attribute names read in a module, except a read inside
    a function of the same name, so a method calling itself is no caller."""

    def __init__(self) -> None:
        self.functions: list[str] = []
        self.read: set[str] = set()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr not in self.functions:
            self.read.add(node.attr)
        self.generic_visit(node)


def attributes_read(paths):
    reads = AttributeReads()
    for path in paths:
        reads.visit(ast.parse(path.read_text(encoding="utf-8")))
    return reads.read


def span_targets(owner):
    """The attributes ``spans.py`` wraps on ``owner``: the third argument of
    each ``Target(metric, owner, attr)`` call written out in the file."""
    out = set()
    for node in ast.walk(ast.parse(SPANS.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Target" and len(node.args) >= 3:
            given, attr = node.args[1], node.args[2]
            if isinstance(given, ast.Constant) and given.value == owner and isinstance(attr, ast.Constant):
                out.add(attr.value)
    return out


READ = attributes_read(sorted(SRC.rglob("*.py")))
WRAPPED = span_targets("stepqa.scene_graph:SceneGraph")


@pytest.mark.parametrize("name", public_members(SceneGraph))
def test_each_public_graph_member_has_a_caller(name):
    assert name in READ or name in WRAPPED, f"SceneGraph.{name} has no caller in src/stepqa and is no span target"


def test_the_check_sees_the_harness_targets_and_no_self_call():
    assert {"resolve_label", "find_nodes", "descendants"} <= WRAPPED
    reads = AttributeReads()
    reads.visit(ast.parse("def walk(g):\n    return g.walk(g.parent)\n\ndef other(g):\n    return g.children\n"))
    assert reads.read == {"parent", "children"}
