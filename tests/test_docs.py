import importlib
import re
from dataclasses import fields
from pathlib import Path

import pytest

from qutrit_qkd import cli

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("bell", "cli", "linalg", "protocol", "reconcile", "transcript", "trits",
           "tritcrypt")


def api_note_names():
    """Each `module.name` that README's "API notes" write, outside the
    bullets that list removed names."""
    notes = README.read_text().split("\n## API notes\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.split(r"\n(?=- )", notes)
    pattern = re.compile(rf"`({'|'.join(MODULES)})\.(\w+)")
    return sorted({name for bullet in bullets if not bullet.startswith("- Removed")
                   for name in pattern.findall(bullet)})


def test_api_notes_name_something():
    assert len(api_note_names()) >= 17


@pytest.mark.parametrize("module, name", api_note_names())
def test_api_notes_name_existing_api(module, name):
    getattr(importlib.import_module(f"qutrit_qkd.{module}"), name)


def test_recognized_keys_match_config_parsers():
    text = README.read_text().split("Recognized keys:", 1)[1].split(".\n", 1)[0]
    keys = re.findall(r"`(\w+)`", text)
    assert keys == [f.name for f in fields(cli.RunConfig)]
