"""Attribute schemas and labeled instances shared by generators and learners."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple


@dataclass(frozen=True)
class NominalAttribute:
    n_values: int

    def __post_init__(self) -> None:
        if self.n_values < 2:
            raise ValueError(f"nominal attribute needs >= 2 values, got {self.n_values}")


@dataclass(frozen=True)
class NumericAttribute:
    low: float = 0.0
    high: float = 1.0


Attribute = NominalAttribute | NumericAttribute


@dataclass(frozen=True)
class Schema:
    """Ordered attribute descriptors plus the class count."""

    attributes: tuple[Attribute, ...]
    class_count: int
    # stored, not a property: check_shape reads it on every train
    n_attributes: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ValueError("schema needs at least one attribute")
        if self.class_count < 2:
            raise ValueError(f"class_count must be >= 2, got {self.class_count}")
        object.__setattr__(self, "n_attributes", len(self.attributes))

    def is_nominal(self, index: int) -> bool:
        return isinstance(self.attributes[index], NominalAttribute)

    def n_values(self, index: int) -> int:
        attr = self.attributes[index]
        if not isinstance(attr, NominalAttribute):
            raise ValueError(f"attribute {index} is numeric")
        return attr.n_values

    @staticmethod
    def uniform_nominal(n_attributes: int, n_values: int, class_count: int) -> "Schema":
        return Schema(tuple(NominalAttribute(n_values) for _ in range(n_attributes)), class_count)

    @staticmethod
    def unit_numeric(n_attributes: int, class_count: int = 2) -> "Schema":
        return Schema(tuple(NumericAttribute(0.0, 1.0) for _ in range(n_attributes)), class_count)


class Instance(NamedTuple):
    """One labeled example: attribute values in schema order, class index, weight."""

    values: tuple
    class_label: int
    weight: float = 1.0


# Instance from one ``(values, class_label, weight)`` tuple, built in C: a
# fifth of the cost of NamedTuple's Python-level ``__new__`` or ``_replace``
new_instance = partial(tuple.__new__, Instance)

