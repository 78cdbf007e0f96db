"""Slotted record base classes, written out so that no padcrypt module
imports `dataclasses`.

Importing `dataclasses` loads `inspect`, and each decorated class runs an
`exec`; on a cold CLI call that costs more than the command's own work.
"""

from __future__ import annotations


class Record:
    """A record whose fields are the names in its class's `__slots__`.

    `__init__` takes the fields in slot order, by position or by name; `==`
    compares them between records of one class and `repr` shows them, both
    skipping slot names that start with "_" (caches derived from the
    fields) and `repr` also skipping the names in `_unshown`.  A Record is
    mutable and unhashable, as a plain dataclass is.
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]
    _fields: tuple[str, ...] = ()
    _unshown: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
            raise TypeError(
                f"{type(self).__qualname__}() takes the fields {', '.join(fields)}")
        for name in fields:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields
                          if f not in self._unshown)
        return f"{type(self).__qualname__}({shown})"

    # pickle and copy save every slot, caches included, and restore them
    # with object.__setattr__, which a frozen record's own __setattr__ refuses

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class FrozenRecord(Record):
    """A Record whose fields cannot be assigned or deleted once set, and
    which hashes by its fields, as a frozen dataclass does."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
