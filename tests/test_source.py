"""Checks on the package source itself."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path
from typing import Iterable

SRC = Path(__file__).resolve().parent.parent / "src" / "raycalib"

# tokens after which a string token opens a statement: a string that is a
# whole statement (a docstring) is documentation, not a use
_STATEMENT_START = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
                    tokenize.ENCODING}


def _private_definitions(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and constants named _x, not __x__."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _code_words(text: str, tree: ast.Module) -> Counter:
    """Identifiers in a source's code and its non-docstring strings, without
    its comments, docstrings and import statements (an import alone is not a
    use)."""
    imports = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.update(range(node.lineno, node.end_lineno + 1))
    words: Counter = Counter()
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    for i, tok in enumerate(tokens):
        if tok.start[0] in imports or tok.type == tokenize.COMMENT:
            continue
        if tok.type == tokenize.STRING:
            before = tokens[i - 1].type if i else tokenize.ENCODING
            if before in _STATEMENT_START and tokens[i + 1].type == tokenize.NEWLINE:
                continue  # a docstring
            words.update(re.findall(r"\w+", tok.string))
        elif tok.type == tokenize.NAME:
            words[tok.string] += 1
    return words


def test_every_private_top_level_name_is_used():
    # a private name that the package defines but never uses is dead code;
    # the tests importing one does not keep it alive
    words: Counter = Counter()
    defined: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        words += _code_words(text, tree)
        for name in _private_definitions(tree):
            defined.setdefault(name, []).append(path.name)
    assert "_unproject_cells" in defined and "_BLOCK" in defined
    unused = {name: files for name, files in defined.items() if words[name] <= len(files)}
    assert not unused, f"private names defined but never used in src/raycalib: {unused}"


def _trees() -> list[tuple[str, ast.Module]]:
    return [(p.name, ast.parse(p.read_text(encoding="utf-8"))) for p in sorted(SRC.glob("*.py"))]


def _loaded_names(nodes: Iterable[ast.AST]) -> set[str]:
    return {n.id for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_parameter_is_read():
    # a parameter its function never reads is plumbing that carries nothing.
    # Top-level functions and methods only: a nested closure's signature is
    # fixed by its caller (Correspondences._from_grid calls rays_of(sl, px))
    unread = []
    for name, tree in _trees():
        for node in tree.body:
            methods = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in methods:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                a = fn.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg,
                                          a.kwarg) if p is not None]
                read = _loaded_names(fn.body)
                unread += [f"{name}:{fn.name}({p})" for p in params if p not in read]
    assert not unread, f"parameters never read in src/raycalib: {unread}"


def test_every_import_is_used():
    # an imported name that its module never reads is dead; the package's
    # re-exports are used through __all__
    unused = []
    for name, tree in _trees():
        read = _loaded_names([tree])
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(al.asname or al.name).partition(".")[0] for al in node.names]
                unused += [f"{name}:{b}" for b in bound if b not in read]
    assert not unused, f"imported names never used in src/raycalib: {unused}"


def test_no_module_reads_the_environment():
    # a fit is set by its arguments alone: a constant such as refine's
    # standard-error stop or its coarse-stage threshold, read from the
    # process environment, would be a knob no caller or test sets
    names = {"environ", "environb", "getenv", "getenvb"}
    reads = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in names:
                reads.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{name}:{node.lineno}" for al in node.names if al.name in names]
    assert not reads, f"src/raycalib reads the process environment at {reads}"


def test_fit_takes_no_flat_index_subset():
    # which cells np.arange(0, n, step) takes depends on the grid's width
    # and not on the cells' places in the image, so a mirrored field's fit
    # would refine other cells; fit.py picks cells by grid column and row
    # (_coarse_cells)
    tree = ast.parse((SRC / "fit.py").read_text(encoding="utf-8"))
    strided = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "arange" and len(node.args) + len(node.keywords) >= 3
    ]
    assert not strided, f"fit.py takes np.arange(start, stop, step) subsets at lines {strided}"


def test_every_error_class_is_raised():
    # an error class that no code raises is dead: an export, an exit code and
    # a parametrized exit-code test case that no input can reach
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {"CalibError"}
    for node in errors.body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(b, ast.Name) and b.id in classes for b in node.bases
        ):
            classes.add(node.name)
    classes.remove("CalibError")
    raised = set()
    for name, tree in _trees():
        if name == "errors.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                raised.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", ""))
    assert "DegenerateGeometry" in classes
    never = sorted(classes - raised)
    assert not never, f"CalibError subclasses that src/raycalib never raises: {never}"


# the coefficients that a family's box (models._BOX) bounds, and its
# constants: the ends 0 and 1 and the floor inside an open end
_BOXED = {"xi", "alpha", "beta"}
_BOX_CONSTANTS = {0.0, 1.0, 1e-6}
_BOUND_TEXT = re.compile(r"\b(xi|alpha|beta)\s*(>=|<=|>|<|must be)")


def _is_coefficient(node: ast.AST) -> bool:
    """xi, alpha or beta, a subscript of a dist or ks tuple, or of a parameter
    vector (kappa, cand) past its four intrinsics."""
    if isinstance(node, ast.Name):
        return node.id in _BOXED
    if not isinstance(node, ast.Subscript):
        return False
    base = ast.unparse(node.value)
    if base.endswith("dist") or base == "ks":
        return True
    index = node.slice
    return (base in ("kappa", "cand") and isinstance(index, ast.Constant)
            and isinstance(index.value, int) and index.value >= 4)


def _box_constants(node: ast.AST) -> list:
    return [n.value for n in ast.walk(node) if isinstance(n, ast.Constant)
            and isinstance(n.value, float) and n.value in _BOX_CONSTANTS]


def test_each_box_is_stated_once():
    # the parameter boxes live in models._BOX alone: outside it, no string
    # states a bound ("xi>=0", "alpha must be in [0, 1]"), and no comparison
    # or clamp holds a box coefficient against a box constant
    found = []
    for name, tree in _trees():
        table = [node for node in tree.body if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("_BOX", "_OPEN_FLOOR") for t in node.targets)]
        skip = {id(n) for node in table for n in ast.walk(node)}
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings and _BOUND_TEXT.search(node.value)):
                found.append(f"{name}:{node.lineno} {node.value!r}")
            parts = []
            if isinstance(node, ast.Compare):
                parts = [node.left, *node.comparators]
            elif isinstance(node, ast.Call) and ast.unparse(node.func) in (
                    "min", "max", "np.clip", "np.minimum", "np.maximum"):
                parts = list(node.args)
            elif isinstance(node, ast.Assign) and any(_is_coefficient(t) for t in node.targets):
                parts = [node.value, *node.targets]
            if any(_is_coefficient(p) for p in parts) and _box_constants(node):
                found.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    assert not found, f"box bounds stated outside models._BOX: {found}"
