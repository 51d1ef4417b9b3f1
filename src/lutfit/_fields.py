"""One reader for the JSON files of run configs and artifacts, their fields,
and the frozen value types they are read into.

JSON true/false parses as bool, a subclass of int; the reader never takes
it for a number. A number must be finite as a float, and errors name the
field by its dotted path, such as plan.sub_ranges[1].exponent.

The value types are built by frozen, not dataclasses: importing
dataclasses loads inspect, ast, dis and tokenize, and the decorator execs
generated source for every class, about 15 ms of each command's start-up.
"""

import json
import operator
import sys
from contextlib import contextmanager

NUMBER = (int, float)
NULL = type(None)
REQUIRED = object()

_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string",
          list: "a list", dict: "an object", NULL: "null"}


class ConfigError(ValueError):
    """A malformed run config or artifact; the message names the offending field."""


class FieldError(ValueError):
    """A check that failed on one field; field is the field's name in the JSON
    form, which naming joins onto the path of its owner."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def read_json(path: str, what: str):
    """The JSON value of the file at path. A file that is not UTF-8 JSON, or
    nests deeper than the parser can recurse, is a ConfigError naming the
    file as what (such as 'config file')."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None
        except RecursionError:
            raise ConfigError(f"{what} {path} nests too deeply to read") from None


def _matches(value, types: tuple) -> bool:
    """isinstance, except that true/false is not a number and a number is finite."""
    if isinstance(value, bool):
        return bool in types
    # abs(v) <= max rejects NaN, the infinities and integers past the float range
    return isinstance(value, types) and (
        not isinstance(value, NUMBER) or abs(value) <= sys.float_info.max
    )


def _describe(types: tuple) -> str:
    """'an integer', 'a finite number or null', ..."""
    return " or ".join(_NAMES[t] for t in types if not (t is int and float in types))


def json_field(data: dict, name: str, types, owner: str = "", default=REQUIRED, items=None,
               length: int | None = None, choices=None):
    """data[name], checked against types (a type or a tuple of them).

    A missing field is default, or an error if there is none. items, when
    given, are the types every element of a list value must have, and length
    that list's length; choices are the values a scalar may take (a range for
    an integer interval). Errors are ConfigError naming owner.name: `missing
    field <path>` or `invalid field <path>: expected ..., got ...`.
    """
    path = f"{owner}.{name}" if owner else name
    if name not in data:
        if default is REQUIRED:
            raise ConfigError(f"missing field {path}")
        return default
    value = data[name]
    types = types if isinstance(types, tuple) else (types,)
    if items is None:
        if _matches(value, types) and (choices is None or value in choices):
            return value
        if choices is None:
            expected = _describe(types)
        elif isinstance(choices, range):
            expected = f"an integer in {choices[0]}..{choices[-1]}"
        else:
            expected = "one of " + ", ".join(map(repr, choices))
    else:
        items = items if isinstance(items, tuple) else (items,)
        if value is None and NULL in types or isinstance(value, list) and (
            length in (None, len(value)) and all(_matches(v, items) for v in value)
        ):
            return value
        expected = "null or " if NULL in types else ""
        expected += f"a list of {length} items" if length else "a list of items"
        expected += f", each {_describe(items)}"
    raise ConfigError(f"invalid field {path}: expected {expected}, got {value!r}")


@contextmanager
def naming(owner: str = ""):
    """Re-raise a ValueError of the block as a ConfigError naming the field at
    owner, or at owner.field for a FieldError. A ConfigError, which names its
    own field, passes through as it is."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        field = exc.field if isinstance(exc, FieldError) else ""
        path = ".".join(name for name in (owner, field) if name)
        raise ConfigError(f"invalid field {path}: {exc}") from None


def frozen(cls):
    """cls as an immutable value type over its annotated fields, in order.

    A class attribute named for a field is its default, one object that
    every instance shares, so a default must itself be immutable. The
    constructor takes the fields by position or keyword, then runs
    cls.__post_init__ if there is one; a class that defines __init__ keeps
    its own. Instances compare and hash by their field values, print as
    Name(field=value, ...), raise on assignment, and pickle by their
    __dict__.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} fields, got {len(args)}")
        given = dict(zip(names, args))
        for name in kwargs:
            if name in given or name not in names:
                problem = "multiple values for" if name in given else "an unexpected"
                raise TypeError(f"{cls.__name__}() got {problem} field {name!r}")
        given.update(kwargs)
        for name in names:
            if name in given:
                value = given[name]
            elif name in defaults:
                value = defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
            # not through self.__dict__, whose use would slow every later
            # attribute read of the instance
            object.__setattr__(self, name, value)
        if post_init is not None:
            post_init(self)

    # the field values: a tuple, or the bare value of a lone field
    values = operator.attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {cls.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {cls.__name__}")

    if "__init__" not in cls.__dict__:
        cls.__init__ = __init__
    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    cls.__match_args__ = names
    return cls


def fields(cls) -> tuple[str, ...]:
    """The field names of a frozen class, in order."""
    return cls.__match_args__


def replace(obj, **changes):
    """A copy of the frozen obj with changes, built by its constructor, so
    that the checks of its __post_init__ run again."""
    return type(obj)(**{**{name: getattr(obj, name) for name in fields(type(obj))}, **changes})
