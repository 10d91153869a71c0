"""Checks on the package source itself."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

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
