"""Plain records: classes whose fields are their __slots__, in order.

Record gives a subclass the constructor, repr and == that @dataclass would,
without that import, which loads inspect.  Fields are taken by position or
keyword; one named in _defaults may be left out, and a default that is a
type (list, dict) is called afresh for each record.  == holds between
records of one class with equal fields; a Record is unhashable.
FrozenRecord adds a hash of the fields and refuses assignment and deletion
with AttributeError.  copy and pickle rebuild a record through its
constructor; a subclass whose constructor takes other values than its
fields, as HomogeneousPolynomial's takes exponent tuples, overrides
__reduce__.
"""


class Record:
    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            args = self._complete(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def _complete(self, args, kwargs) -> list:
        """Every field's value, from the values given by position, then by
        keyword (kwargs is consumed), then the defaults."""
        fields = self.__slots__
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
                if isinstance(value, type):
                    value = value()
            else:
                raise TypeError(f"{type(self).__name__}() missing the field {name!r}")
            values.append(value)
        if kwargs or len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}, "
                            f"each once; got {len(args)} by position and {sorted(kwargs)}")
        return values

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __reduce__(self):
        # pickle and copy rebuild a record through its constructor
        return type(self), self._values()


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
