"""No module of the package imports an underscore name from another of
its modules: what one module shares with another is public."""

import ast
import pathlib

import cutgame

PACKAGE = pathlib.Path(cutgame.__file__).parent


def private_imports(root: pathlib.Path) -> list[str]:
    """``file:line: name`` for each underscore name that a module under
    ``root`` imports from the package ``root`` (relatively, or by the
    package's own name); dunder names are not private."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != root.name:
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append(f"{path.relative_to(root).as_posix()}:{node.lineno}: {alias.name}")
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    assert private_imports(PACKAGE) == []


def test_private_imports_are_found(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("from .b import public, _private\nfrom os import _exit\n")
    (pkg / "sub" / "c.py").write_text("from ..a import __all__\nfrom pkg.b import (\n    _hidden,\n)\n")
    assert private_imports(pkg) == ["a.py:1: _private", "sub/c.py:2: _hidden"]
