"""Enum members are read through module names, never off their class.

On Python 3.11 the enum metaclass defines ``__getattr__``, so a read
such as ``Layer.ROOM`` takes the slow attribute-hook path on every
plan. Each enum's members are therefore bound once, right below the
class in its own module (``FLOOR, ROOM, BIG_OBJECT, SMALL_OBJECT =
Layer``), and every other read in the package goes through those names.
"""

import ast
import enum
import importlib
from pathlib import Path

import pytest

import stepqa

SRC = Path(stepqa.__file__).parent
MODULES = sorted(f"stepqa.{p.stem}" for p in SRC.glob("*.py") if p.stem != "__init__")
# A member's module name is its own name plus this suffix, so that the
# target kinds do not shadow the layers (TargetKind.ROOM is ROOM_TARGET).
SUFFIX = {"TargetKind": "_TARGET"}


def defined_enums():
    """Every enum class the package defines, with its module."""
    out = []
    for name in MODULES:
        module = importlib.import_module(name)
        for obj in vars(module).values():
            if isinstance(obj, enum.EnumMeta) and obj.__module__ == name:
                out.append((module, obj))
    return out


ENUMS = defined_enums()


def module_name(member: enum.Enum) -> str:
    return member.name + SUFFIX.get(type(member).__name__, "")


def test_the_package_defines_the_six_enums():
    assert sorted(cls.__name__ for _, cls in ENUMS) == [
        "EpisodeStatus",
        "Layer",
        "ParseSource",
        "PerceptionRange",
        "PlanKind",
        "TargetKind",
    ]


@pytest.mark.parametrize("module,cls", ENUMS, ids=[cls.__name__ for _, cls in ENUMS])
def test_each_member_is_a_module_name_in_its_own_module(module, cls):
    for member in cls:
        assert getattr(module, module_name(member)) is member


def test_no_member_is_bound_under_a_second_name():
    members = {member for _, cls in ENUMS for member in cls}
    for name in MODULES:
        for attr, value in vars(importlib.import_module(name)).items():
            if isinstance(value, enum.Enum) and value in members:
                assert attr == module_name(value), (name, attr, value)


class MemberReads(ast.NodeVisitor):
    """Collects each ``<EnumClass>.<MEMBER>`` read outside that enum's own
    class body, following import aliases of the class."""

    def __init__(self, members: dict[str, set[str]]) -> None:
        self.members = members
        self.aliases = {name: name for name in members}
        self.classes: list[str] = []
        self.found: list[tuple[int, str]] = []

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name in self.members:
                self.aliases[alias.asname or alias.name] = alias.name

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id in self.aliases:
            cls = self.aliases[node.value.id]
            if node.attr in self.members[cls] and cls not in self.classes:
                self.found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        self.generic_visit(node)


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_no_member_is_read_off_its_class(path):
    reads = MemberReads({cls.__name__: set(cls.__members__) for _, cls in ENUMS})
    reads.visit(ast.parse(path.read_text(encoding="utf-8")))
    assert reads.found == [], f"{path.name}: read these through module names: {reads.found}"


def test_the_check_sees_a_member_read_through_an_alias():
    reads = MemberReads({"Layer": {"ROOM"}})
    reads.visit(ast.parse("from .scene_graph import Layer as L\nx = L.ROOM\nLayer.from_tag('V2')\n"))
    assert reads.found == [(2, "L.ROOM")]
