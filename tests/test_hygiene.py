"""Source hygiene: no module under src/ or demos/ imports a name it never uses.

Package __init__.py files are exempt (their imports are the re-exported
API), and so is `from __future__`.  tests/ is not scanned.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "demos")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name that the module never references."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from math import pi as PI, tau\n"
        "print(os.path.sep, PI)\n"
    )
    assert unused_imports(source) == [(3, "json"), (4, "tau")]


def test_no_unused_imports():
    offenders = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path.read_text()):
                offenders.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert offenders == []
