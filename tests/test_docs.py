import ast
import importlib
import re
from dataclasses import fields
from pathlib import Path

import pytest

from qutrit_qkd import cli

import test_boundary

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src" / "qutrit_qkd"
MODULES = ("bell", "cli", "linalg", "protocol", "reconcile", "transcript", "trits",
           "tritcrypt")


def api_note_bullets():
    notes = README.read_text().split("\n## API notes\n", 1)[1].split("\n## ", 1)[0]
    return re.split(r"\n(?=- )", notes)


def api_note_names():
    """Each `module.name` that README's "API notes" write, outside the
    bullets that list removed names."""
    pattern = re.compile(rf"`({'|'.join(MODULES)})\.(\w+)")
    return sorted({name for bullet in api_note_bullets() if not bullet.startswith("- Removed")
                   for name in pattern.findall(bullet)})


def test_api_notes_name_something():
    assert len(api_note_names()) >= 17


@pytest.mark.parametrize("module, name", api_note_names())
def test_api_notes_name_existing_api(module, name):
    getattr(importlib.import_module(f"qutrit_qkd.{module}"), name)


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
