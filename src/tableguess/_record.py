"""``Record``, the base of every frozen record type in tableguess.

A subclass lists its fields as class annotations, in order. ``Record``
gives it keyword or positional construction, equality with records of the
same class, a hash and a ``Name(field=value, ...)`` repr over those
fields, pickling, and a ``dataclasses.FrozenInstanceError`` on any
attribute assignment or deletion. Unlike ``dataclasses``, it builds no
code per class, which keeps importing the records cheap; ``dataclasses``
is imported only to raise that error.

A record stores its fields in its ``__dict__``. A subclass that declares
slots, or checks or derives values, defines ``__init__`` and stores
through ``object.__setattr__``.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a subclass with no annotations of its own keeps its base's fields
        if "__annotations__" in cls.__dict__:
            cls._fields = cls.__match_args__ = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        # the usual call names every field by keyword, in field order
        if args or tuple(kwargs) != fields:
            kwargs = _by_field(type(self).__name__, fields, args, kwargs)
        vars(self).update(kwargs)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _frozen(f"cannot delete field {name!r}")


def _by_field(name: str, fields: tuple[str, ...], args: tuple, kwargs: dict) -> dict:
    """A call's arguments by field name, in field order; a TypeError when
    one is missing, unknown or given twice."""
    values = dict(zip(fields, args), **kwargs)
    if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
        raise TypeError(f"{name}() takes exactly the fields {fields}")
    return {field: values[field] for field in fields}


def _frozen(message: str) -> Exception:
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)
