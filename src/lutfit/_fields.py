"""One reader for the JSON files of run configs and artifacts, and their fields.

JSON true/false parses as bool, a subclass of int; the reader never takes
it for a number. A number must be finite as a float, and errors name the
field by its dotted path, such as plan.sub_ranges[1].exponent.
"""

import json
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
