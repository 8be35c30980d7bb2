import ast
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
