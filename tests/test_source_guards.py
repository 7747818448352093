"""Guards on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "prmhull"
ENV_READERS = {"environ", "getenv", "environb", "getenvb"}


def _env_reads(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENV_READERS
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENV_READERS for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    # behaviour is set by arguments only, so a run is reproducible from its argv
    assert _env_reads(ast.parse(path.read_text(), str(path))) == []


def test_guard_sees_environment_reads():
    src = "import os\nfrom os import getenv\nx = os.environ.get('A')\ny = os.getenv('B')\n"
    assert _env_reads(ast.parse(src)) == [2, 3, 4]
