import ast
import re
import sys
from pathlib import Path

import appnet

SRC = Path(appnet.__file__).parent


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_the_package_imports_only_the_standard_library_and_itself():
    allowed = set(sys.stdlib_module_names) | {"appnet"}
    outside = {
        f"{path.relative_to(SRC)}: {root}"
        for path in sorted(SRC.rglob("*.py"))
        for root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in allowed
    }
    assert not outside


def test_the_readme_layout_table_names_every_module():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in layout.splitlines() if line.startswith("| `appnet.")]
    named = {name for row in rows for name in re.findall(r"`appnet\.(\w+)`", row)}
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert named == modules
