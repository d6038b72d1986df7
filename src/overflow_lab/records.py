"""Plain value and result classes: the fields are the annotated class
attributes, in order (``_fields``), and a class attribute of the same name is a
field's default.  Records take fields by position or by name, run
``__post_init__``, compare by class and field values, and are frozen and hash
by them.  Defining one runs no ``exec`` and imports nothing."""


class Record:
    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {key: vars(cls)[key] for key in cls._fields if key in vars(cls)}

    def __init__(self, *args, **kwargs):
        values = dict(self._defaults, **dict(zip(self._fields, args)), **kwargs)
        if len(args) > len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}; got "
                            f"{len(args)} by position and {sorted(kwargs)} by name")
        vars(self).update(values)
        if hasattr(self, "__post_init__"):  # checks, or normalises by object.__setattr__
            self.__post_init__()

    def __setattr__(self, key, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {key!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        items = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({items})"
