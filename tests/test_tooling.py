"""Source hygiene: every private module-level name of the package is used."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sqdigits"


def _private_module_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def test_no_dead_private_helpers():
    # a module-level _name that appears only where it is defined is dead code
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    text = "\n".join(sources.values())
    dead = [
        f"{module}: {name}"
        for module, source in sources.items()
        for name in _private_module_names(ast.parse(source))
        if name.startswith("_") and not name.startswith("__")
        and len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2
    ]
    assert dead == []
