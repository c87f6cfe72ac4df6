"""Parser for the MOA-style stream option strings and the generator factory.

Grammar: ``NAME (-flag value | -flag | -flag ( SUBSPEC ))*`` with whitespace
between tokens and parentheses delimiting nested sub-stream specs. Every
parse error carries the character offset it was detected at.

``GENERATORS`` declares each generator once: its flags with their kinds and
constructor keywords, its seed flags and its class. The parser reads the
kinds, and ``build_generator`` passes the given flags to the class by
keyword, so each default lives only in the constructor.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from .streams import (
    AbruptDriftGenerator,
    HyperplaneGenerator,
    RecurrentConceptDriftStream,
    SeaGenerator,
    StaggerGenerator,
)


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class OutOfScopeError(ValueError):
    """Raised when a recognized generator is not supported by this package."""


# Each flag maps to (kind, constructor keyword). Kinds: "int" / "float" /
# "str" take one argument, "bool" none, "spec" a parenthesized sub-spec. A
# keyword of None means the flag parses but is not passed to the constructor.
@dataclass(frozen=True)
class GeneratorInfo:
    flags: dict
    seed_flags: tuple
    cls: type | None = None  # None: recognized, but not buildable here

    @property
    def in_scope(self) -> bool:
        return self.cls is not None

    @property
    def default_seed(self) -> int | None:
        """The constructor's default seed; None for a generator not built here."""
        if self.cls is None:
            return None
        return inspect.signature(self.cls).parameters["seed"].default


GENERATORS: dict[str, GeneratorInfo] = {
    "AbruptDriftGenerator": GeneratorInfo(
        # -c marks drift in P(Y|X), the only drift this generator produces
        flags={"c": ("bool", None), "o": ("float", "magnitude"), "z": ("int", "n_values"),
               "n": ("int", "n_attributes"), "v": ("int", "class_count"),
               "r": ("int", "seed"), "b": ("int", "drift_point"), "d": ("str", "recurrent")},
        seed_flags=("r",),
        cls=AbruptDriftGenerator,
    ),
    "RecurrentConceptDriftStream": GeneratorInfo(
        flags={"x": ("int", "position"), "y": ("int", "period"), "z": ("int", "width"),
               "s": ("spec", "base"), "d": ("spec", "drift"), "r": ("int", "seed")},
        seed_flags=("r",),
        cls=RecurrentConceptDriftStream,
    ),
    "STAGGERGenerator": GeneratorInfo(
        flags={"i": ("int", "seed"), "f": ("int", "function")},
        seed_flags=("i",),
        cls=StaggerGenerator,
    ),
    "SEAGenerator": GeneratorInfo(
        flags={"f": ("int", "function"), "i": ("int", "seed"), "n": ("float", "noise")},
        seed_flags=("i",),
        cls=SeaGenerator,
    ),
    "HyperplaneGenerator": GeneratorInfo(
        flags={"k": ("int", "drift_attributes"), "t": ("float", "magnitude"),
               "i": ("int", "seed"), "a": ("int", "n_attributes"), "s": ("float", "sigma"),
               "n": ("float", "noise")},
        seed_flags=("i",),
        cls=HyperplaneGenerator,
    ),
    # recognized so the published testbench rows parse, but not buildable here
    "AgrawalGenerator": GeneratorInfo({"f": ("int", None), "i": ("int", None)}, ("i",)),
    "RandomTreeGenerator": GeneratorInfo({"r": ("int", None), "i": ("int", None)}, ("r", "i")),
    "LEDGeneratorDrift": GeneratorInfo({"d": ("int", None), "i": ("int", None)}, ("i",)),
    "WaveformGeneratorDrift": GeneratorInfo(
        {"d": ("int", None), "i": ("int", None), "n": ("bool", None)}, ("i",)),
    "RandomRBFGeneratorDrift": GeneratorInfo(
        {"s": ("float", None), "k": ("int", None), "i": ("int", None), "r": ("int", None)},
        ("i", "r"),
    ),
}


@dataclass(frozen=True)
class StreamSpec:
    """Parsed option string: generator name plus (flag, value) pairs in
    first-appearance order. Sub-spec flags carry a nested StreamSpec."""

    generator_name: str
    items: tuple

    def canonical(self) -> str:
        parts = [self.generator_name]
        for flag, value in self.items:
            if isinstance(value, StreamSpec):
                parts.append(f"-{flag} ({value.canonical()})")
            elif value is True:
                parts.append(f"-{flag}")
            elif isinstance(value, float):
                parts.append(f"-{flag} {value!r}")
            else:
                parts.append(f"-{flag} {value}")
        return " ".join(parts)

    def reseeded(self, variant: int) -> "StreamSpec":
        """Shift every seed flag (recursively) by 1000 * variant.

        variant 0 returns an equivalent spec with seed flags made explicit
        (absent ones take the constructor's default), so multi-seed experiment
        grids are fully determined by the spec text. A generator not built
        here has no default, and its absent seed flags stay absent.
        """
        info = GENERATORS[self.generator_name]
        items = []
        seen = set()
        for flag, value in self.items:
            if isinstance(value, StreamSpec):
                items.append((flag, value.reseeded(variant)))
            elif flag in info.seed_flags:
                items.append((flag, value + 1000 * variant))
                seen.add(flag)
            else:
                items.append((flag, value))
        default = info.default_seed
        for f in info.seed_flags:
            if f not in seen and default is not None:
                items.append((f, default + 1000 * variant))
        return StreamSpec(self.generator_name, tuple(items))


# --------------------------------------------------------------------------
# tokenizer / parser
# --------------------------------------------------------------------------

def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            tokens.append(("paren", ch, i))
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in "()":
            j += 1
        word = text[i:j]
        if word.startswith("-") and len(word) > 1 and word[1].isalpha():
            tokens.append(("flag", word[1:], i))
        else:
            tokens.append(("word", word, i))
        i = j
    return tokens


def parse_stream_spec(text: str) -> StreamSpec:
    """Parse one option string into a StreamSpec; errors carry offsets."""
    if not text or not text.strip():
        raise ParseError("empty stream specification", 0)
    tokens = _tokenize(text)
    spec, pos = _parse_spec(tokens, 0)
    if pos != len(tokens):
        kind, val, off = tokens[pos]
        if kind == "paren" and val == ")":
            raise ParseError("unbalanced parentheses: unexpected ')'", off)
        raise ParseError(f"unexpected trailing token {val!r}", off)
    return spec


def _parse_spec(tokens, pos: int):
    kind, name, off = tokens[pos]
    if kind != "word":
        raise ParseError(f"expected generator name, got {name!r}", off)
    info = GENERATORS.get(name)
    if info is None:
        raise ParseError(f"unknown generator name {name!r}", off)
    pos += 1
    items = []
    while pos < len(tokens):
        kind, value, off = tokens[pos]
        if kind == "paren":
            if value == ")":
                break  # caller closes the sub-spec
            raise ParseError("unexpected '('", off)
        if kind == "word":
            raise ParseError(f"expected a flag, got {value!r}", off)
        flag = value
        if flag not in info.flags:
            raise ParseError(f"unknown flag -{flag} for {name}", off)
        if any(f == flag for f, _ in items):
            raise ParseError(f"flag -{flag} given twice", off)
        fkind = info.flags[flag][0]
        pos += 1
        if fkind == "bool":
            items.append((flag, True))
            continue
        if fkind == "spec":
            if pos >= len(tokens) or tokens[pos][:2] != ("paren", "("):
                raise ParseError(f"flag -{flag} expects a parenthesized sub-spec", off)
            open_off = tokens[pos][2]
            pos += 1
            if pos >= len(tokens):
                raise ParseError("unbalanced parentheses: missing sub-spec", open_off)
            sub, pos = _parse_spec(tokens, pos)
            if pos >= len(tokens) or tokens[pos][:2] != ("paren", ")"):
                raise ParseError("unbalanced parentheses: missing ')'", open_off)
            pos += 1
            items.append((flag, sub))
            continue
        if pos >= len(tokens) or tokens[pos][0] != "word":
            raise ParseError(f"flag -{flag} is missing its argument", off)
        raw = tokens[pos][1]
        arg_off = tokens[pos][2]
        pos += 1
        if fkind == "int":
            try:
                items.append((flag, int(raw)))
            except ValueError:
                raise ParseError(f"flag -{flag} expects an integer, got {raw!r}", arg_off) from None
        elif fkind == "float":
            try:
                items.append((flag, float(raw)))
            except ValueError:
                raise ParseError(f"flag -{flag} expects a number, got {raw!r}", arg_off) from None
        else:
            items.append((flag, raw))
    return StreamSpec(name, tuple(items)), pos


# --------------------------------------------------------------------------
# generator factory
# --------------------------------------------------------------------------

def build_generator(spec: StreamSpec):
    """Instantiate the stateful generator a StreamSpec describes.

    Only the flags the spec gives reach the constructor, so every default
    lives in the generator class.
    """
    info = GENERATORS[spec.generator_name]
    if not info.in_scope:
        raise OutOfScopeError(f"{spec.generator_name} is out of scope for this package")
    kwargs = {}
    for flag, value in spec.items:
        kind, keyword = info.flags[flag]
        if keyword is None:
            continue
        if kind == "spec":
            value = build_generator(value)
        elif keyword == "recurrent":
            if value != "Recurrent":
                raise ValueError(f"unsupported drift pattern {value!r} (only Recurrent)")
            value = True
        kwargs[keyword] = value
    return info.cls(**kwargs)


def build_stream(text: str, variant: int = 0):
    """Parse, reseed for the given variant, and build in one step."""
    return build_generator(parse_stream_spec(text).reseeded(variant))
