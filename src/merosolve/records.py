"""Immutable records: the data that the pipeline passes from stage to stage.

A record class lists its fields in ``__slots__`` and the base builds the
record from them: positional arguments fill the slots in order, keywords by
name.  A record writes its own ``__init__`` only to check or default a field,
and that ``__init__`` hands the fields on to the base's.  The base derives
equality, hashing, the repr and ``replace`` from the slots at call time, so
defining a record generates no code at import.  Equality is strict about
type, so ``Const(2) != Y(2)`` and ``Y(2) != (2,)``; equal records hash equal.
"""

from __future__ import annotations

setfield = object.__setattr__


def _field_values(cls, args: tuple, kwargs: dict) -> tuple:
    """A ``cls`` record's fields in slot order; a missing, repeated, extra
    or unknown field raises ``TypeError`` naming the class and the field."""
    names, given = cls.__slots__, len(args)
    if given > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} fields, "
                        f"got {given}")
    rest = names[given:]
    if kwargs.keys() != set(rest):
        for name in kwargs:
            if name in names[:given]:
                raise TypeError(f"{cls.__qualname__}() got field {name!r} twice")
            if name not in names:
                raise TypeError(f"{cls.__qualname__}() has no field {name!r}")
        missing = [name for name in rest if name not in kwargs]
        raise TypeError(f"{cls.__qualname__}() is missing field {missing[0]!r}")
    return args + tuple([kwargs[name] for name in rest])


class Record:
    """Base of the immutable records; subclasses set ``__slots__`` to
    their fields, in constructor order."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = _field_values(type(self), args, kwargs)
        for name, value in zip(names, args):
            setfield(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

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
