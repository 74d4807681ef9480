"""The example scripts import names that exist.

No test runs ``examples/`` (each takes minutes), so a renamed or deleted
library name would break them silently.  This parses each script with
``ast``, imports every ``repro`` module it names in a ``from ...
import``, and checks each imported name is there.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _repro_imports(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module.split(".")[0] == "repro"
        ):
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.py")), ids=lambda path: path.name
)
def test_example_imports_exist(path):
    imports = list(_repro_imports(path))
    assert imports, f"{path.name} imports nothing from repro"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        assert hasattr(module, name), f"{path.name}: {module_name}.{name}"
