"""Source hygiene: every private module-level name, every public function and
constant and every import of the package is used, and each capacity refusal is
raised in one place."""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sqdigits"
# public functions that only tests call, each with the reason it stays in src/
UNREFERENCED_ALLOWED = {
    "carry.count_second_diff_mismatch": "ROADMAP item 10: wire into verify once the reference is re-recorded",
    "fourier.digit_sum_decay_bound": "ROADMAP item 10: wire into verify once the reference is re-recorded",
    "harness.digit_sums_array": "wrapped by name in perfbench/tracer.py; leaves with ROADMAP item 4 stage B",
    "harness.phase_array": "wrapped by name in perfbench/tracer.py; leaves with ROADMAP item 4 stage B",
}


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


def test_public_functions_are_referenced():
    # a public module-level function of src/ that no file of src/, scripts/ or
    # perfbench/ names in code outside its own def belongs in tests/ or nowhere;
    # a re-export in __init__.py runs nothing, and a name in a string or a
    # comment (a docstring, a tracer's table of names) calls nothing, so
    # neither is a reference
    files = [
        path for part in ("src", "scripts", "perfbench") for path in sorted((ROOT / part).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    names = Counter(
        token.string
        for path in files
        for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        if token.type == tokenize.NAME
    )
    unreferenced = {
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
        and names[node.name] < 2
    }
    assert unreferenced == set(UNREFERENCED_ALLOWED)


def _public_constants(tree):
    """The UPPER_CASE names a module's top-level assignments bind."""
    for name in _private_module_names(tree):
        if re.fullmatch(r"[A-Z][A-Z0-9_]*", name):
            yield name


def test_public_constants_are_read():
    # a module-level constant of src/ that no code of src/ or scripts/ reads
    # (as a name or an attribute) is a leftover, even if tests still name it
    files = [path for part in ("src", "scripts") for path in sorted((ROOT / part).rglob("*.py"))]
    read = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _public_constants(ast.parse(path.read_text()))
        if name not in read
    ]
    assert unread == []


def _module_imports(tree):
    """The names a module's top-level imports bind, except from __future__."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_unused_imports():
    # __init__.py imports to re-export; every other module uses what it imports
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        # the base of an attribute (np in np.asarray) is itself an ast.Name
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in _module_imports(tree) if name not in used]
    assert unused == []


def _message_template(node):
    """The literal text of a message string, each formatted value written as {}."""
    parts = node.values if isinstance(node, ast.JoinedStr) else [node]
    return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in parts)


def test_each_capacity_refusal_is_raised_once():
    # a cap checked in two places drifts apart; each is raised by the one
    # function that owns it, and others call that function
    raised = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "CapacityError"):
                template = _message_template(node.exc.args[0])
                raised.setdefault(template, []).append(f"{path.name}:{node.lineno}")
    assert {template: where for template, where in raised.items() if len(where) > 1} == {}
