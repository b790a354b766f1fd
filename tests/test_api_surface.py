"""Every name that `nilrig/__init__.py` exports has a production caller:
some code in `src/`, `scripts/` or `perfbench/` other than `__init__.py`
and the name's own definition refers to it.  A name that only its tests
reach belongs in `tests/helpers.py` or nowhere.  The same holds for each
public member of an exported class, read as an attribute (`obj.member`):
a parameter or local variable of the same name does not count."""

import ast
import dataclasses
from enum import Enum
from pathlib import Path

import nilrig

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "nilrig" / "__init__.py"

# Reserved for the one-parameter families of ROADMAP item 8; the README
# ("Public API") says why the API keeps them without a caller.
RESERVED = {"deformed_2step", "FamilyParams"}


def _exported() -> set[str]:
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _references(node: ast.AST, inside: tuple[str, ...], names: set[str],
                attrs: set[str]) -> None:
    """Add to `names` each bare name and to `attrs` each attribute that
    `node` reads outside a definition of that same name (so recursion, a
    class's own methods and the assignment that defines a field do not
    count)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside + (node.name,)
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in inside:
            names.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        if node.attr not in inside:
            attrs.add(node.attr)
    for child in ast.iter_child_nodes(node):
        _references(child, inside, names, attrs)


def _production_references() -> tuple[set[str], set[str]]:
    """(names, attrs), as `_references` collects them, over the code in
    `src/` other than `__init__.py`, `scripts/` and `perfbench/`."""
    files = [p for p in (ROOT / "src").rglob("*.py") if p != INIT]
    files += list((ROOT / "scripts").glob("*.py")) + list((ROOT / "perfbench").glob("*.py"))
    names: set[str] = set()
    attrs: set[str] = set()
    for path in files:
        _references(ast.parse(path.read_text(encoding="utf-8")), (), names, attrs)
    return names, attrs


def test_every_exported_name_has_a_production_caller():
    exported = _exported()
    assert RESERVED <= exported
    names, attrs = _production_references()
    uncalled = sorted(exported - RESERVED - names - attrs)
    assert not uncalled, f"exported names with no caller outside tests: {uncalled}"


def _members(cls: type) -> set[str]:
    """Public class attributes, dataclass fields and slots that `cls` and
    its bases in nilrig define (so `Q`, which is `fractions.Fraction`, has
    none); an Enum's members are values, not API."""
    names = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    for base in cls.__mro__:
        if base.__module__.startswith("nilrig"):
            names |= set(vars(base)) | set(getattr(base, "__slots__", ()))
    if issubclass(cls, Enum):
        names -= set(cls.__members__)
    return {name for name in names if not name.startswith("_")}


def test_every_member_of_an_exported_class_has_a_production_reader():
    classes = [getattr(nilrig, name) for name in _exported()]
    _, attrs = _production_references()
    unread = sorted(f"{cls.__name__}.{member}"
                    for cls in classes if isinstance(cls, type)
                    for member in _members(cls) - attrs)
    assert not unread, f"public members with no reader outside tests: {unread}"
