"""Immutable value records: the one owner of their semantics.

A record class lists its fields in ``__slots__``, in order, and sets them in
its own ``__init__`` with ``object.__setattr__``.  Everything else is read
from the slots: ``==`` and ``hash`` over the field tuple, the text
``Name(field=value, ...)``, ``__match_args__``, and pickling and copying
through ``(cls, fields)``, which runs ``__init__`` and its checks again.
Setting or deleting an attribute is an AttributeError.  A field holding a
dict makes the record unhashable, as the dict is.
"""


class _Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __setattr__(self, name, *value):
        raise AttributeError(
            "%s is immutable: cannot set or delete %r" % (type(self).__name__, name)
        )

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(["%s=%r" % (f, getattr(self, f)) for f in self.__slots__])
        return "%s(%s)" % (type(self).__qualname__, shown)

    def __reduce__(self):
        return (self.__class__, self._values())
