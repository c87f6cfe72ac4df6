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
    """A real-valued attribute; learners read no range off it."""


Attribute = NominalAttribute | NumericAttribute


@dataclass(frozen=True)
class Schema:
    """Ordered attribute descriptors plus the class count, and the attribute
    layout every leaf on the schema shares: the indices of each kind, and
    ``numeric_column[i]``, attribute ``i``'s place in ``numeric_attrs``
    (None for a nominal one), which is its column in a leaf's statistics."""

    attributes: tuple[Attribute, ...]
    class_count: int
    # stored once, not properties: check_shape reads n_attributes on every train,
    # and every leaf on the schema holds the layout tuples
    n_attributes: int = field(init=False, compare=False, repr=False)
    nominal_attrs: tuple[int, ...] = field(init=False, compare=False, repr=False)
    numeric_attrs: tuple[int, ...] = field(init=False, compare=False, repr=False)
    numeric_column: tuple[int | None, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ValueError("schema needs at least one attribute")
        if self.class_count < 2:
            raise ValueError(f"class_count must be >= 2, got {self.class_count}")
        n = len(self.attributes)
        kinds = [isinstance(attr, NominalAttribute) for attr in self.attributes]
        nominal = tuple(i for i in range(n) if kinds[i])
        numeric = tuple(i for i in range(n) if not kinds[i])
        column = dict(zip(numeric, range(n)))
        object.__setattr__(self, "n_attributes", n)
        object.__setattr__(self, "nominal_attrs", nominal)
        object.__setattr__(self, "numeric_attrs", numeric)
        object.__setattr__(self, "numeric_column", tuple(map(column.get, range(n))))

    @staticmethod
    def uniform_nominal(n_attributes: int, n_values: int, class_count: int) -> "Schema":
        return Schema(tuple(NominalAttribute(n_values) for _ in range(n_attributes)), class_count)

    @staticmethod
    def unit_numeric(n_attributes: int) -> "Schema":
        """Numeric attributes in [0, 1] and two classes."""
        return Schema(tuple(NumericAttribute() for _ in range(n_attributes)), 2)


class Instance(NamedTuple):
    """One labeled example: attribute values in schema order, class index, weight."""

    values: tuple
    class_label: int
    weight: float = 1.0


# Instance from one ``(values, class_label, weight)`` tuple, built in C: a
# fifth of the cost of NamedTuple's Python-level ``__new__`` or ``_replace``
new_instance = partial(tuple.__new__, Instance)

