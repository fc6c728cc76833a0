import ast
import importlib
import inspect
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from qutrit_qkd import cli

import test_boundary

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src" / "qutrit_qkd"
MODULES = ("bell", "cli", "linalg", "protocol", "reconcile", "transcript", "trits",
           "tritcrypt")
# the package's classes by name: the roots of README's `Class.attr` names
CLASSES = {name: obj for module in MODULES
           for name, obj in vars(importlib.import_module(f"qutrit_qkd.{module}")).items()
           if isinstance(obj, type) and obj.__module__ == f"qutrit_qkd.{module}"}


def api_note_bullets():
    notes = README.read_text().split("\n## API notes\n", 1)[1].split("\n## ", 1)[0]
    return re.split(r"\n(?=- )", notes)


def readme_names():
    """Each backticked `module.name`, `module.Class.attr` or `Class.attr` of the
    package that README writes, outside the bullets that list removed names,
    as (root, rest); a `*` or a `<placeholder>` after the name makes it a
    prefix, written with a `*`."""
    roots = "|".join(("qutrit_qkd", *MODULES, *CLASSES))
    pattern = re.compile(rf"`({roots})\.(\w+(?:\.\w+)*)([*<]?)")
    chunks = re.split(r"\n(?=- |#)", README.read_text())
    return sorted({(root, name + "*" * bool(prefix)) for chunk in chunks
                   if not chunk.startswith("- Removed")
                   for root, name, prefix in pattern.findall(chunk)})


def attributes(owner) -> set:
    """The names ``owner`` has: for a class also its dataclass fields and the
    attributes that its code, or its bases', sets with ``object.__setattr__``."""
    names = set(dir(owner))
    if isinstance(owner, type):
        if is_dataclass(owner):
            names |= {f.name for f in fields(owner)}
        for cls in owner.__mro__:
            if cls.__module__.startswith("qutrit_qkd."):
                names |= {node.args[1].value
                          for node in ast.walk(ast.parse(inspect.getsource(cls)))
                          if isinstance(node, ast.Call)
                          and ast.unparse(node.func) == "object.__setattr__"
                          and isinstance(node.args[1], ast.Constant)}
    return names


def test_api_notes_name_something():
    assert len(readme_names()) >= 80


@pytest.mark.parametrize("root, name", readme_names())
def test_api_notes_name_existing_api(root, name):
    """Every package name README writes outside its "Removed" bullets exists."""
    owner = CLASSES.get(root) or importlib.import_module(
        root if root == "qutrit_qkd" else f"qutrit_qkd.{root}")
    *path, last = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    names = attributes(owner)
    assert (any(n.startswith(last[:-1]) for n in names) if last.endswith("*")
            else last in names)


def test_boundary_table_matches_api_notes():
    """The entry points README lists as boundary-checked are those the
    boundary table tries, no more and no fewer."""
    bullet, = [b for b in api_note_bullets() if b.startswith("- Boundary-checked entry points")]
    named = set(re.findall(rf"`((?:{'|'.join(MODULES)})\.[\w.]+)`", bullet))
    assert named == test_boundary.entry_points()
    assert len(named) >= 26


def test_recognized_keys_match_config_parsers():
    text = README.read_text().split("Recognized keys:", 1)[1].split(".\n", 1)[0]
    keys = re.findall(r"`(\w+)`", text)
    assert keys == [f.name for f in fields(cli.RunConfig)]


def test_no_dead_private_names():
    """Every module-level private function, class or constant of the package
    is read somewhere in it, so no helper outlives its last caller."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defined = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                continue
            defined |= {(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")}
    loaded = {node.id if isinstance(node, ast.Name) else node.attr
              for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    assert len(defined) >= 90
    assert sorted(f"{module}.{name}" for module, name in defined if name not in loaded) == []


def test_swap_12_only_in_protocol():
    """The lab's 1<->2 relabel is protocol's alone: ``SWAP_12`` is assigned and
    read in ``protocol.py`` and named by no other module, not even in an import."""
    stored, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and node.id == "SWAP_12":
                (stored if isinstance(node.ctx, ast.Store) else read).add(path.stem)
            elif (isinstance(node, ast.Attribute) and node.attr == "SWAP_12"
                  or isinstance(node, ast.alias) and node.name == "SWAP_12"):
                read.add(path.stem)
    assert (stored, read) == ({"protocol"}, {"protocol"})
