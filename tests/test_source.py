"""Checks on the source tree itself, not on its behaviour."""

import ast
import dataclasses
import io
import re
import tokenize
from pathlib import Path

from streamtrees.experiments import PRESET_NAMES, preset
from streamtrees.hat import HatConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "streamtrees"


def _definitions(path: Path) -> tuple[set[str], set[str]]:
    """The functions and classes a module defines, and apart from them the
    methods its classes define; dunders excluded."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    methods = {
        node
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    names, method_names = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not (node.name.startswith("__") and node.name.endswith("__")):
            (method_names if node in methods else names).add(node.name)
    return names, method_names


def _code_names(path: Path) -> tuple[set[str], set[str]]:
    """The names a module's code uses, and of them the ones it reads as an
    attribute (``.name``): NAME tokens, so no comment or string counts, and
    not the name a ``def`` or ``class`` statement defines."""
    tokens = list(tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline))
    names, attributes = set(), set()
    for prev, tok in zip([None] + tokens, tokens):
        if tok.type != tokenize.NAME or (prev is not None and prev.string in ("def", "class")):
            continue
        names.add(tok.string)
        if prev is not None and prev.string == ".":
            attributes.add(tok.string)
    return names, attributes


def _readme_code(text: str) -> str:
    """README's code blocks and inline code spans, not its prose."""
    block = re.compile(r"```.*?```", re.S)
    return "\n".join(block.findall(text) + re.findall(r"`([^`\n]+)`", block.sub("", text)))


def test_src_holds_no_code_that_only_tests_use():
    """Each def and class is used by code in src or the benchmark, or by
    README's code; a method counts as used only where it is read as an
    attribute, so a local variable of the same name does not hide it."""
    used, attributes = set(), set()
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        names, attrs = _code_names(path)
        used |= names
        attributes |= attrs
    readme = _readme_code((ROOT / "README.md").read_text(encoding="utf-8"))
    used |= set(re.findall(r"\w+", readme))
    attributes |= set(re.findall(r"\.(\w+)", readme))
    defined, methods = set(), set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            names, method_names = _definitions(path)
            defined |= names
            methods |= method_names
    assert sorted(defined - used) == []
    assert sorted(methods - attributes) == []


def _defaulted_parameters(path: Path):
    """``(callee name, parameter, position)`` for each defaulted parameter of
    each def in a module. A method is called by its own name, minus ``self``;
    an ``__init__`` by its class's name. Keyword-only parameters have no
    position."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = {
        node: cls
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef)
    }
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        cls = owner.get(func)
        name = cls.name if cls is not None and func.name == "__init__" else func.name
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list)
        bound = cls is not None and not static
        positional = func.args.posonlyargs + func.args.args
        for k in range(len(positional) - len(func.args.defaults), len(positional)):
            yield name, positional[k].arg, k - bound
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _calls(tree: ast.AST):
    """``(callee name, positional count, keyword names)`` for each call; a call
    with ``*args`` or ``**kwargs`` passes every parameter (count and names None).
    A call on a module the source binds with ``import``, such as ``json.dump``
    or ``np.zeros``, calls that module's function, not one of the program's,
    and is left out; ``from streamtrees import experiments`` binds the
    program's own module, so ``experiments.run_grid`` counts."""
    modules = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    }
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in modules:
            continue
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
            yield name, None, None
        else:
            yield name, len(call.args), {k.arg for k in call.keywords}


def test_calls_leave_out_calls_on_imported_modules():
    tree = ast.parse(
        "import json\nimport numpy as np\nfrom streamtrees import experiments\n"
        "json.dump(obj, fh, indent=1)\nnp.zeros(3)\nexperiments.run_grid(config)\n"
        "tracer.dump(path)\nwrite_outputs(config, results)\n"
    )
    assert sorted(name for name, _, _ in _calls(tree)) == ["dump", "run_grid", "write_outputs"]


def _aliases(tree: ast.AST):
    """``(name, alias)`` for each keyword argument ``alias=name``: a flag table
    stores a class as ``cls=SeaGenerator`` and calls it as ``info.cls(...)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg and isinstance(node.value, ast.Name):
            yield node.value.id, node.arg


def test_every_parameter_is_passed_by_program_code():
    """Each defaulted parameter of a def in src is passed, by keyword or by
    position, by some call in src, the benchmark or README's Python blocks
    to a callee of that name: a parameter only tests pass is a knob the
    program never turns. ``cli.main``'s ``argv`` is the one entry point
    that only tests give an argument."""
    sources = [path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    calls: dict[str, list] = {}
    aliases: dict[str, set[str]] = {}
    for tree in map(ast.parse, sources):
        for name, count, keywords in _calls(tree):
            calls.setdefault(name, []).append((count, keywords))
        for name, alias in _aliases(tree):
            aliases.setdefault(name, set()).add(alias)
    unpassed = []
    for path in sorted(SRC.glob("*.py")):
        for name, param, position in _defaulted_parameters(path):
            if (path.name, name, param) == ("cli.py", "main", "argv"):
                continue
            if not any(count is None or param in keywords or (position is not None and count > position)
                       for callee in {name} | aliases.get(name, set())
                       for count, keywords in calls.get(callee, ())):
                unpassed.append(f"{path.name}:{name}({param})")
    assert unpassed == []


def test_every_learner_setting_is_set_by_program_code():
    """Each learner setting is set by a learner line of some preset, by a
    ``HatConfig`` or ``StrategyConfig`` call in the benchmark, or by README's
    code: a setting that only tests set is a value the program never varies,
    and belongs in a constant."""
    settings = {f.name for f in dataclasses.fields(HatConfig)}
    set_by = {key for name in PRESET_NAMES for spec in preset(name).learners for key, _ in spec.overrides}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) in ("HatConfig", "StrategyConfig"):
                set_by |= {k.arg for k in call.keywords}
    # learner flags on README's config lines and in its Python calls alike
    set_by |= set(re.findall(r"(\w+)=", _readme_code((ROOT / "README.md").read_text(encoding="utf-8"))))
    assert sorted(settings - set_by) == []


def _config_readers() -> dict[str, set[str]]:
    """For each learner setting, the functions in src that read it off a
    config (``config.x``, ``cfg.x`` or ``self.config.x``); ``__post_init__``
    validates through ``self`` and does not count."""
    readers = {f.name: set() for f in dataclasses.fields(HatConfig)}
    for path in SRC.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Attribute) or node.attr not in readers:
                    continue
                owner = node.value
                if (isinstance(owner, ast.Name) and owner.id in ("config", "cfg")) or (
                        isinstance(owner, ast.Attribute) and owner.attr == "config"):
                    readers[node.attr].add(func.name)
    return readers


def test_each_learner_setting_is_read_in_one_function():
    readers = _config_readers()
    # each tree builds its leaves, and both pass on whether they buffer
    assert readers.pop("eidetic") == {"__init__", "_new_node"}
    assert {name: funcs for name, funcs in readers.items() if len(funcs) != 1} == {}
    assert readers["used_attribute_policy"] == {"evaluate_split"}
    assert readers["alternate_depth_cap"] == {"_train_subtree"}
