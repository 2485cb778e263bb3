"""Layout checks on the source tree, by the standard library's `ast` alone:
every public function and class of `src/beamlab` has a caller outside the
unit tests, and no module of `src/beamlab` or `scripts/` imports a name it
never uses."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "beamlab"
# where a caller may live: the library, its scripts, the benchmark, the
# acceptance suite and the README
CALLER_FILES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                       *(p for p in (ROOT / "perfbench").rglob("*") if p.is_file()),
                       ROOT / "tests" / "test_acceptance.py", ROOT / "README.md"])


def public_definitions(path):
    """(name, line) of each public top-level function and class of a module
    that no decorator registers."""
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and not (isinstance(node, ast.FunctionDef) and node.decorator_list)):
            yield node.name, node.lineno


def uncalled_names():
    lines = {path: path.read_text(errors="replace").splitlines() for path in CALLER_FILES}
    uncalled = []
    for module in sorted(PACKAGE.glob("*.py")):
        for name, lineno in public_definitions(module):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line)
                       for path, text in lines.items()
                       for number, line in enumerate(text, 1)
                       if (path, number) != (module, lineno)):
                uncalled.append(f"{module.stem}.{name}")
    return uncalled


def unused_imports(path):
    """'module:line name' for each imported name that its scope never reads.
    An import inside a function belongs to that function; `__future__`
    imports and lines marked `noqa: F401` are skipped."""
    source = path.read_text()
    tree = ast.parse(source)
    marked = {number for number, line in enumerate(source.splitlines(), 1)
              if "noqa: F401" in line}
    scopes = [tree, *(node for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))]
    owner = {}
    for scope in scopes:        # inner scopes come later and take their imports
        for node in ast.walk(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                owner[node] = scope
    unused = []
    for node, scope in owner.items():
        if (node.lineno in marked
                or isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for alias in node.names:
            bound = alias.asname or alias.name.partition(".")[0]
            if bound not in read:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {bound}")
    return unused


def test_every_public_name_of_the_library_has_a_caller_outside_the_tests():
    assert uncalled_names() == []


@pytest.mark.parametrize("path", [
    *(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"),
    *sorted((ROOT / "scripts").glob("*.py"))], ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path) == []
