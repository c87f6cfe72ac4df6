"""Checks on the source tree itself, not on its behaviour."""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "streamtrees"


def _defined_names(path: Path) -> set[str]:
    """Every function, method and class defined in a module, dunders excluded."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def _code_names(path: Path) -> set[str]:
    """The names a module's code uses: NAME tokens, so no comment or string
    counts, and not the name a ``def`` or ``class`` statement defines."""
    tokens = list(tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline))
    return {
        tok.string
        for prev, tok in zip([None] + tokens, tokens)
        if tok.type == tokenize.NAME and (prev is None or prev.string not in ("def", "class"))
    }


def _readme_code_words(text: str) -> set[str]:
    """The words of README's code blocks and inline code spans, not of its prose."""
    block = re.compile(r"```.*?```", re.S)
    code = block.findall(text) + re.findall(r"`([^`\n]+)`", block.sub("", text))
    return set(re.findall(r"\w+", "\n".join(code)))


def test_src_holds_no_code_that_only_tests_use():
    """Each def and class is used by code in src or the benchmark, or by README's code."""
    used = set().union(
        *(_code_names(p) for p in sorted(SRC.glob("*.py"))),
        *(_code_names(p) for p in sorted((ROOT / "perfbench").glob("*.py"))),
        _readme_code_words((ROOT / "README.md").read_text(encoding="utf-8")),
    )
    names = set().union(*(_defined_names(p) for p in SRC.glob("*.py") if p.name != "__init__.py"))
    assert sorted(names - used) == []
