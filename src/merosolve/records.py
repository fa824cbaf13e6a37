"""Immutable records: the data that the pipeline passes from stage to stage.

A record class lists its fields in ``__slots__`` and writes its own
``__init__``, which stores each field with :func:`setfield`.  The base
derives equality, hashing, the repr and ``replace`` from the slots at call
time, so defining a record generates no code at import.  Equality is strict
about type: two records are equal only when they are of the same class and
their fields are equal in order, so ``Const(2) != Y(2)`` and
``Y(2) != (2,)``.  Equal records hash equal.
"""

from __future__ import annotations

setfield = object.__setattr__


def field_repr(obj) -> str:
    """``Name(field=value, ...)`` over the ``__slots__`` of ``obj``."""
    body = ", ".join(f"{name}={getattr(obj, name)!r}" for name in obj.__slots__)
    return f"{type(obj).__qualname__}({body})"


class Record:
    """Base of the immutable records; subclasses set ``__slots__`` to
    their fields, in ``__init__`` parameter order."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    __repr__ = field_repr

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

    def replace(self, **changes):
        """A copy with the given fields changed, built through
        ``__init__`` so that its checks run again."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(changes)
        return self.__class__(**values)
