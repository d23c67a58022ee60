"""The base of the package's immutable value classes.

A value class names in ``_fields`` the fields that ``==`` and ``hash`` read,
in order, and sets them in its own ``__init__``: one ``object.__setattr__``
a field on the hot path, ``_assign`` elsewhere.  A value's hash is that of
the tuple of its compared fields, computed once.  No code is generated.
"""

from operator import attrgetter


class Value:
    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()
    _shown: tuple[str, ...] = ()  # fields that repr shows after _fields and == ignores

    def __init_subclass__(cls):
        if cls._fields:  # _key(value) is the tuple of the compared fields
            get = attrgetter(*cls._fields)
            cls._key = staticmethod(get if len(cls._fields) > 1 else lambda v: (get(v),))

    def _assign(self, *values):
        for name, value in zip(self._fields + self._shown, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._key(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields + self._shown)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __reduce__(self):  # copy and pickle rebuild a value through its constructor
        return type(self), tuple(getattr(self, name) for name in self._fields + self._shown)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
