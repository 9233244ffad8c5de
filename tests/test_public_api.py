import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kernelgames"

#: public names kept without a caller in the library or the bench
KEPT = {
    # Kernel.to_json is the only writer of the `file` kernel format that the
    # CLI reads and the README documents
    "to_json",
}


def _definitions(tree):
    """Names of the module-level functions and classes, and of the methods
    of those classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, *functions)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, functions))


def test_every_public_name_has_a_caller():
    """Each public function, method or class of the package is named
    somewhere besides its own definition: elsewhere in `src/` (the
    `__init__` exports do not count) or in the bench's non-test modules.

    Names are matched as whole words in the source text, so a name that is
    also a common word (`n`, `scale`, `norm`) always looks used; the check
    misses those.
    """
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
             if not p.name.startswith("test_")]
    text = "\n".join(p.read_text() for p in modules + bench)
    defined = [name for p in modules for name in _definitions(ast.parse(p.read_text()))
               if not name.startswith("_")]
    dead = sorted(
        name for name in set(defined) - KEPT
        if len(re.findall(rf"\b{name}\b", text)) <= defined.count(name))
    assert not dead, f"public names with no caller: {dead}"
