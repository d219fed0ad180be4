"""Immutable value records, the base of the library's plain value classes.

A subclass lists its fields, in order, as ``__slots__``.  Instances are
built positionally; they are equal when their classes are the same and
their fields are equal, they hash and print by their fields, and they
refuse assignment and deletion.  Pickling and copying rebuild a value
through its constructor, so a class's own checks run again.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__name__} expects fields {self.__slots__}, got {len(fields)} values"
            )
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The field tuple's getter, made once per class, so that == and
        # hash read every field in one call.  attrgetter of a single name
        # returns the bare value, hence the one-element tuple.
        get = attrgetter(*cls.__slots__)
        cls._fields = staticmethod(get if len(cls.__slots__) > 1 else lambda x: (get(x),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields(self)
