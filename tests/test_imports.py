"""Import hygiene: every module under the package uses what it imports,
and every name it exports exists.

No linter ships with the project, so this stdlib AST scan is the guard.
The package ``__init__`` is skipped by the scan: its imports are re-exports.
"""

import ast
import importlib
from pathlib import Path

import guidedproc

PACKAGE = Path(guidedproc.__file__).resolve().parent


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import math\nimport os as _os\nfrom json import dumps, loads\nloads\n")
    assert unused_imports(module) == ["_os", "dumps", "math"]


def test_every_exported_name_resolves():
    modules = [guidedproc] + [
        importlib.import_module(f"guidedproc.{p.stem}")
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "__init__.py"
    ]
    missing = {
        m.__name__: [n for n in m.__all__ if not hasattr(m, n)]
        for m in modules
        if hasattr(m, "__all__")
    }
    assert {name: names for name, names in missing.items() if names} == {}
