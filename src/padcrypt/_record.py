"""A slotted record base class, written out so that no padcrypt module
imports `dataclasses`.

Importing `dataclasses` loads `inspect`, and each decorated class runs an
`exec`; on a cold CLI call that costs more than the command's own work.
"""

from __future__ import annotations


class Record:
    """An immutable record whose fields are the names in its class's
    `__slots__`.

    `__init__` takes the fields in slot order, by position or by name; `==`
    compares them between records of one class, `hash` hashes them and
    `repr` shows them, all skipping slot names that start with "_" (caches
    derived from the fields) and `repr` also skipping the names in
    `_unshown`.  Fields cannot be assigned or deleted once set, and a record
    with a dict or list field is unhashable, as a frozen dataclass is.
    """

    __slots__ = ()
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

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields
                          if f not in self._unshown)
        return f"{type(self).__qualname__}({shown})"

    # pickle and copy save every slot, caches included, and restore them
    # with object.__setattr__, which a record's own __setattr__ refuses

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

