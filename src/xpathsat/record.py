"""Immutable records: the base of the package's AST nodes, trees and verdicts.

A subclass names its fields, in order, in `__match_args__`, and in `__slots__`
too unless it keeps a `__dict__`.  It gets equality by exact type and fields, a
hash, the repr `Name(field=value, ...)`, pickling and copying through the
constructor, and refuses assignment.  A class built per query step or tree node
writes its own `__init__` with `_set`, at half the cost of `Record.__init__`.
"""

from operator import attrgetter

_set = object.__setattr__


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # one field reads as its value, more as a tuple, none as the class
        cls._key = attrgetter(*cls.__match_args__) if cls.__match_args__ else type

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            _set(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)
