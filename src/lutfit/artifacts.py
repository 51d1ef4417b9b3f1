"""Artifact serialization: fitted tables, quantized tables, hardware exports.

Two JSON artifact kinds exist: "fit" holds a real-valued fitted table
(fixed-point-rounded slopes/intercepts, real breakpoints) and "qtable"
holds a quantized table. Both carry provenance (config hash, seed, tool
version) and round-trip bit-exactly. The C header and hex mem-init formats
are one-way hardware exports.

All writes go through a temp file and an atomic rename, so a failed export
never leaves a partial artifact behind.
"""

import json
import math
import os
import tempfile
from dataclasses import dataclass

from . import __version__
from ._fields import NULL, NUMBER, ConfigError, json_field, naming, read_json
from .fxp import DatapathConfig
from .nonlin import Kind, NonLinSpec
from .pwl import PwlTable
from .quant import PowTwoScale, QPwlTable, check_format

SCHEMA_VERSION = 1

EXPORT_FORMATS = ("data", "header", "memh")


@dataclass(frozen=True)
class Provenance:
    config_hash: str
    seed: int
    tool_version: str = __version__

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "tool_version": self.tool_version,
        }


def atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _spec_to_dict(spec: NonLinSpec) -> dict:
    return {
        "kind": spec.kind.value,
        "search_range": list(spec.search_range),
        "scale_carrying": spec.scale_carrying,
    }


def _spec_from_dict(data: dict) -> NonLinSpec:
    kind = Kind(json_field(data, "kind", str, "function", choices=[k.value for k in Kind]))
    search_range = tuple(json_field(data, "search_range", list, "function", items=NUMBER, length=2))
    with naming("function"):
        spec = NonLinSpec(kind=kind, search_range=search_range)
    # the key restates the kind, so it must agree with it
    if json_field(data, "scale_carrying", bool, "function") != spec.scale_carrying:
        raise ConfigError(f"invalid field function.scale_carrying: {kind.value} must have "
                          f"scale_carrying={spec.scale_carrying}")
    return spec


def fit_artifact_text(table: PwlTable, provenance: Provenance) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "artifact_kind": "fit",
        "function": _spec_to_dict(table.spec),
        "slopes": list(table.slopes),
        "intercepts": list(table.intercepts),
        "breakpoints": list(table.breakpoints),
        "provenance": provenance.to_dict(),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def qtable_artifact_text(qtable: QPwlTable, provenance: Provenance) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "artifact_kind": "qtable",
        "function": _spec_to_dict(qtable.spec),
        "slopes_fxp": list(qtable.slopes_fxp),
        "intercepts_fxp": list(qtable.intercepts_fxp),
        "breakpoints_q": list(qtable.breakpoints_q),
        "frac_bits": qtable.frac_bits,
        "scale_exponent": None if qtable.scale is None else qtable.scale.exponent,
        "source_segments": list(qtable.source_segments),
        "saturated": list(qtable.saturated),
        "provenance": provenance.to_dict(),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_fit_artifact(path: str, table: PwlTable, provenance: Provenance):
    atomic_write(path, fit_artifact_text(table, provenance))


def write_qtable_artifact(path: str, qtable: QPwlTable, provenance: Provenance):
    atomic_write(path, qtable_artifact_text(qtable, provenance))


def _comment_safe(data: dict, name: str) -> str:
    """A provenance string that cannot end the export comment it is written into."""
    value = json_field(data, name, str, "provenance")
    if "*/" in value or any(ord(c) < 32 or ord(c) == 127 for c in value):
        raise ConfigError(
            f"invalid field provenance.{name}: holds '*/' or a control character: {value!r}"
        )
    return value


def _provenance_from_dict(data: dict) -> Provenance:
    return Provenance(
        config_hash=_comment_safe(data, "config_hash"),
        seed=json_field(data, "seed", int, "provenance"),
        tool_version=_comment_safe(data, "tool_version"),
    )


def read_artifact(path: str):
    """Load a JSON artifact; returns (table, Provenance).

    The table is a PwlTable for "fit" artifacts and a QPwlTable for
    "qtable" artifacts. A value the table rejects is named by its field.
    """
    data = read_json(path, "artifact")
    if not isinstance(data, dict):
        raise ConfigError("artifact must be a JSON object")
    json_field(data, "schema_version", int, choices=(SCHEMA_VERSION,))
    kind = json_field(data, "artifact_kind", str, choices=("fit", "qtable"))
    spec = _spec_from_dict(json_field(data, "function", dict))
    provenance = _provenance_from_dict(json_field(data, "provenance", dict))
    if kind == "fit":
        with naming():
            table = PwlTable(
                slopes=tuple(json_field(data, "slopes", list, items=NUMBER)),
                intercepts=tuple(json_field(data, "intercepts", list, items=NUMBER)),
                breakpoints=tuple(json_field(data, "breakpoints", list, items=NUMBER)),
                spec=spec,
            )
        return table, provenance
    exponent = json_field(data, "scale_exponent", (int, NULL))
    with naming("scale_exponent"):
        scale = None if exponent is None else PowTwoScale(exponent)
    with naming():
        qtable = QPwlTable(
            slopes_fxp=tuple(json_field(data, "slopes_fxp", list, items=int)),
            intercepts_fxp=tuple(json_field(data, "intercepts_fxp", list, items=int)),
            breakpoints_q=tuple(json_field(data, "breakpoints_q", list, items=int)),
            frac_bits=json_field(data, "frac_bits", int),
            spec=spec,
            scale=scale,
            source_segments=tuple(json_field(data, "source_segments", list, items=int)),
            saturated=tuple(json_field(data, "saturated", list, items=str)),
        )
    return qtable, provenance


def _c_int_type(bits: int) -> str:
    for width in (8, 16, 32, 64):
        if bits <= width:
            return f"int{width}_t"
    raise ValueError(f"no integer type for {bits} bits")


def render_c_header(
    qtable: QPwlTable,
    provenance: Provenance,
    name: str,
    datapath: DatapathConfig = DatapathConfig(),
) -> str:
    """C header with the integer arrays plus frac-bits/scale-exponent macros.

    The table must be in datapath's format (check_format). Slopes and
    intercepts are datapath.param_bits wide, breakpoints datapath.input_bits.
    """
    check_format(qtable, datapath)
    prefix = name.upper()
    lines = [
        f"/* {name}: {qtable.entries}-entry pwl table",
        f" * generated by lutfit {provenance.tool_version}",
        f" * config {provenance.config_hash} seed {provenance.seed}",
        " */",
        "#include <stdint.h>",
        "",
        f"#define {prefix}_ENTRIES {qtable.entries}",
        f"#define {prefix}_FRAC_BITS {qtable.frac_bits}",
    ]
    if qtable.scale is not None:
        lines.append(f"#define {prefix}_SCALE_EXP {qtable.scale.exponent}")
    for label, values, bits in (
        ("SLOPES", qtable.slopes_fxp, datapath.param_bits),
        ("INTERCEPTS", qtable.intercepts_fxp, datapath.param_bits),
        ("BREAKPOINTS", qtable.breakpoints_q, datapath.input_bits),
    ):
        body = ", ".join(str(v) for v in values)
        lines.append(
            f"static const {_c_int_type(bits)} {prefix}_{label}[{len(values)}] = {{{body}}};"
        )
    return "\n".join(lines) + "\n"


def render_memh(
    qtable: QPwlTable, provenance: Provenance, datapath: DatapathConfig = DatapathConfig()
) -> str:
    """Hex memory-init text: one packed line per LUT entry.

    The table must be in datapath's format (check_format). Fields are
    {slope, intercept, breakpoint}, two's complement, slope and intercept
    datapath.param_bits wide and the breakpoint datapath.input_bits wide,
    most significant field first, entry 0 first. The last entry has no
    breakpoint of its own; its breakpoint field is zero.
    """
    check_format(qtable, datapath)
    param_bits, breakpoint_bits = datapath.param_bits, datapath.input_bits
    digits = math.ceil((2 * param_bits + breakpoint_bits) / 4)
    lines = [
        f"// lutfit {provenance.tool_version} memh export, "
        f"config {provenance.config_hash} seed {provenance.seed}",
        f"// {qtable.entries} entries; fields msb-first: "
        f"slope[{param_bits}] intercept[{param_bits}] breakpoint[{breakpoint_bits}], "
        f"two's complement; {qtable.frac_bits} fractional bits"
        + ("" if qtable.scale is None else f"; scale exponent {qtable.scale.exponent}"),
        "// last entry's breakpoint field is padding (zero)",
    ]
    for i in range(qtable.entries):
        breakpoint = qtable.breakpoints_q[i] if i < qtable.entries - 1 else 0
        word = 0
        for value, bits in (
            (qtable.slopes_fxp[i], param_bits),
            (qtable.intercepts_fxp[i], param_bits),
            (breakpoint, breakpoint_bits),
        ):
            word = (word << bits) | (value & ((1 << bits) - 1))
        lines.append(format(word, f"0{digits}X"))
    return "\n".join(lines) + "\n"
