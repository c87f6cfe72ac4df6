"""Checks on the source tree itself, not on its behaviour."""

import ast
import re
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


def test_src_holds_no_code_that_only_tests_use():
    """Each def and class is used in src, by the benchmark, or named in README."""
    src_text = "\n".join(p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py")))
    outside = "\n".join(
        [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
        + [(ROOT / "README.md").read_text(encoding="utf-8")]
    )
    names = set().union(*(_defined_names(p) for p in SRC.glob("*.py") if p.name != "__init__.py"))
    unused = []
    for name in sorted(names):
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(async\s+)?(def|class)\s+{re.escape(name)}\b")
        uses = [line for line in src_text.splitlines() if word.search(line) and not definition.match(line)]
        if not uses and not word.search(outside):
            unused.append(name)
    assert unused == []
