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
    """Names of the module-level functions, classes and assigned names, and
    of the methods of those classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, *functions)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, functions))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _uncalled(private):
    """The names that ``test_every_*_name_has_a_caller`` finds without one."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
             if not p.name.startswith("test_")]
    text = "\n".join(p.read_text() for p in modules + bench)
    defined = [name for p in modules
               for name in _definitions(ast.parse(p.read_text()))
               if name.startswith("_") == private and not name.startswith("__")]
    return sorted(name for name in set(defined) - KEPT
                  if len(re.findall(rf"\b{name}\b", text)) <= defined.count(name))


def test_every_public_name_has_a_caller():
    """Each public function, method, class or module-level name of the
    package is named somewhere besides its own definition: elsewhere in
    `src/` (the `__init__` exports do not count) or in the bench's non-test
    modules.

    Names are matched as whole words in the source text, so a name that is
    also a common word (`n`, `scale`, `norm`) always looks used; the check
    misses those.
    """
    dead = _uncalled(private=False)
    assert not dead, f"public names with no caller: {dead}"


def test_every_private_name_has_a_caller():
    """Each `_`-prefixed module-level name (function, class or assigned
    name) and method of the package, dunders aside, is named somewhere
    besides its own definition, by the rule of the public check above."""
    dead = _uncalled(private=True)
    assert not dead, f"private names with no caller: {dead}"


def _cholesky_sites(tree, module):
    """(module, enclosing function) of each use of a name `cholesky`: an
    attribute such as `np.linalg.cholesky`, a bare name or an import."""
    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "cholesky"
                or isinstance(node, ast.Name) and node.id == "cholesky"
                or isinstance(node, ast.alias) and node.name == "cholesky"):
            yield module, where
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)
    yield from visit(tree, None)


def test_one_cholesky_call_site():
    """The library's one PSD verdict is `kernels.psd_within`: no other code
    in `src/` factors a matrix by Cholesky to decide positivity."""
    sites = [site for p in sorted(PACKAGE.glob("*.py"))
             for site in _cholesky_sites(ast.parse(p.read_text()), p.stem)]
    assert sites == [("kernels", "psd_within")]


def _folded(node):
    """The value of a number literal, or of arithmetic whose operands are
    all number literals (``2.0 ** -52``); None for anything else."""
    if isinstance(node, ast.Constant):
        return node.value if type(node.value) in (int, float) else None
    if isinstance(node, ast.UnaryOp):
        operands = [node.operand]
    elif isinstance(node, ast.BinOp):
        operands = [node.left, node.right]
    else:
        return None
    if any(_folded(child) is None for child in operands):
        return None
    return eval(compile(ast.Expression(node), "<constant>", "eval"), {})


def _small_float_sites(tree, module):
    """(module, enclosing function, value) of each float literal, or constant
    arithmetic on literals, whose value x has 0 < |x| < 1e-3, except the
    value of a module-level assignment to an UPPER_CASE name: that is where
    a criterion is named."""
    named = {id(node.value) for node in tree.body
             if isinstance(node, ast.Assign)
             and all(isinstance(t, ast.Name) and t.id.isupper()
                     for t in node.targets)}

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if id(node) in named:
            return
        value = _folded(node)
        if value is not None:
            if 0.0 < abs(value) < 1e-3:
                yield module, where, value
            return
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)
    yield from visit(tree, None)


def test_small_float_sites_fold_constant_arithmetic():
    tree = ast.parse("def f(x):\n    return x * 2.0 ** -52 + (-1e-9) + 3 ** 2 + 1e-3\n")
    assert list(_small_float_sites(tree, "m")) == [
        ("m", "f", 2.0 ** -52), ("m", "f", -1e-9)]


def test_every_criterion_is_a_named_constant():
    """Each tolerance, cutoff or floor of the library is one module-level
    UPPER_CASE constant, read by name where a verdict applies it, so no
    criterion is written twice or set at a call site.

    `checks.py` is left out: its battery thresholds are the batteries' own
    acceptance criteria, each read once in its battery.
    """
    sites = [site for p in sorted(PACKAGE.glob("*.py")) if p.name != "checks.py"
             for site in _small_float_sites(ast.parse(p.read_text()), p.stem)]
    assert not sites, f"criteria written as literals: {sites}"
