"""Run configuration: per-function defaults, file loading, hashing.

A run config is a single JSON tree (schema_version 1). Every artifact the
tool writes embeds the sha256 hash of the canonical config encoding, so
equal hashes imply byte-identical artifacts.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

from ._fields import NULL, NUMBER, ConfigError, json_field, naming
from .evalbench import DEFAULT_SCALE_EXPONENTS
from .evolve import GaConfig, MutationKind
from .fxp import MAX_ACC_BITS, DatapathConfig, fits, to_mantissa
from .nonlin import SCALE_CARRYING, Kind, NonLinSpec, default_spec
from .pwl import MIN_GAP
from .quant import PowTwoScale, RangeScalingPlan, SubRange, get_plan

SCHEMA_VERSION = 1

# Per-function rounding-mutation probability.
RM_PROB = {
    Kind.GELU: 0.05,
    Kind.HSWISH: 0.05,
    Kind.EXP: 0.05,
    Kind.DIV: 0.0,
    Kind.RSQRT: 0.0,
}

# Per-(function, entry count) grid-exponent ranges for rounding mutation.
RM_RANGES = {
    (Kind.GELU, 8): (0, 6),
    (Kind.GELU, 16): (0, 6),
    (Kind.HSWISH, 8): (0, 6),
    (Kind.HSWISH, 16): (2, 6),
    (Kind.EXP, 8): (2, 6),
    (Kind.EXP, 16): (0, 6),
}


@dataclass(frozen=True)
class RunConfig:
    """One run's settings. Each has one home: the entry count is
    ga.n_breakpoints + 1, lambda is datapath.frac_bits and the fit seeds are
    seeds.

    plan is the wide-range scaling plan, a preset name or an inline plan. A
    wide-range function given none gets its int8 preset; a scale-carrying
    function has none."""

    function: Kind
    search_range: tuple[float, float] | None = None
    ga: GaConfig = field(default_factory=GaConfig)
    scale_exponents: tuple[int, ...] = DEFAULT_SCALE_EXPONENTS
    plan: str | RangeScalingPlan | None = None
    datapath: DatapathConfig = field(default_factory=DatapathConfig)
    seeds: tuple[int, ...] = (0,)
    out_dir: str = "out"

    def __post_init__(self):
        if not self.scale_exponents:
            raise ConfigError("invalid field scale_exponents: at least one exponent required")
        for i, e in enumerate(self.scale_exponents):
            with naming(f"scale_exponents[{i}]"):
                PowTwoScale(e)
        if not self.seeds:
            raise ConfigError("invalid field seeds: at least one seed required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"invalid field seeds: {list(self.seeds)} repeats a seed")
        if self.plan is None and self.function not in SCALE_CARRYING:
            object.__setattr__(self, "plan", f"{self.function.value}-int8")

    @property
    def entries(self) -> int:
        return self.ga.n_breakpoints + 1

    def spec(self) -> NonLinSpec:
        base = default_spec(self.function)
        if self.search_range is None:
            return base
        return replace(base, search_range=self.search_range)

    def scaling_plan(self) -> RangeScalingPlan:
        """The multi-range scaling plan of a wide-range run (preset or inline)."""
        return self.plan if isinstance(self.plan, RangeScalingPlan) else get_plan(self.plan)


def default_ga_config(kind: Kind | str, entries: int = 8) -> GaConfig:
    """Stock GA hyperparameters for one operator at one entry count.

    Scale-carrying operators default to rounding mutation with their
    per-function probability and grid range; div/rsqrt have a zero
    rounding-mutation probability, so they default to Gaussian mutation.
    """
    kind = Kind(kind)
    if entries not in (8, 16):
        raise ConfigError(f"entries must be 8 or 16, got {entries}")
    rm_prob = RM_PROB[kind]
    return GaConfig(
        n_breakpoints=entries - 1,
        rm_prob=rm_prob,
        rm_range=RM_RANGES.get((kind, entries), (0, 6)),
        mutation_kind=MutationKind.ROUNDING if rm_prob > 0 else MutationKind.GAUSSIAN,
    )


def _plan_to_value(plan):
    if plan is None or isinstance(plan, str):
        return plan
    return {
        "inner_range": list(plan.inner_range),
        "sub_ranges": [
            {
                "lo": sr.lo,
                "hi": None if math.isinf(sr.hi) else sr.hi,
                "exponent": sr.scale.exponent,
            }
            for sr in plan.sub_ranges
        ],
    }


def _known(data: dict, keys, owner: str = "") -> dict:
    """data, after rejecting any key the schema does not know."""
    for key in data:
        if key not in keys:
            raise ConfigError(f"unknown field {owner}.{key}" if owner else f"unknown field {key}")
    return data


def _object(data: dict, name: str) -> dict:
    """An optional object-valued section holding only the keys the schema gives it."""
    return _known(json_field(data, name, dict, default={}), _SCHEMA[name], name)


def _plan_from_value(value, function: Kind):
    """Plan field: a preset name, an inline plan object, or None."""
    if value is None:
        return None
    if isinstance(value, str):
        try:
            preset = get_plan(value)
        except KeyError as exc:
            raise ConfigError(f"invalid field plan: {exc.args[0]}") from None
        if preset.op_kind is not function:
            raise ConfigError(
                f"invalid field plan: preset {value!r} is for {preset.op_kind.value}, "
                f"not {function.value}"
            )
        return value
    _known(value, ("inner_range", "sub_ranges"), "plan")
    inner_range = json_field(value, "inner_range", list, "plan", items=NUMBER, length=2)
    sub_ranges = []
    with naming("plan"):
        for i, sr in enumerate(json_field(value, "sub_ranges", list, "plan", items=dict)):
            owner = f"plan.sub_ranges[{i}]"
            _known(sr, ("lo", "hi", "exponent"), owner)
            hi = json_field(sr, "hi", (*NUMBER, NULL), owner, default=None)
            lo = float(json_field(sr, "lo", NUMBER, owner))
            with naming(f"{owner}.exponent"):
                scale = PowTwoScale(json_field(sr, "exponent", int, owner))
            sub_ranges.append(SubRange(lo, math.inf if hi is None else float(hi), scale))
        return RangeScalingPlan(tuple(inner_range), tuple(sub_ranges), op_kind=function)


def config_to_dict(cfg: RunConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "function": cfg.function.value,
        "entries": cfg.entries,
        "search_range": list(cfg.search_range) if cfg.search_range else None,
        "ga": {
            "n_breakpoints": cfg.ga.n_breakpoints,
            "population_size": cfg.ga.population_size,
            "cross_prob": cfg.ga.cross_prob,
            "mutate_prob": cfg.ga.mutate_prob,
            "rm_prob": cfg.ga.rm_prob,
            "rm_range": list(cfg.ga.rm_range),
            "iterations": cfg.ga.iterations,
            # Schema v1 restates lambda in the ga section.
            "fxp_frac_bits": cfg.datapath.frac_bits,
            "mutation_kind": cfg.ga.mutation_kind.value,
            "gaussian_sigma": cfg.ga.gaussian_sigma,
        },
        # Schema v1 restates the signed input width as a quant section.
        "quant": {"bits": cfg.datapath.input_bits, "signed": True},
        "scale_exponents": list(cfg.scale_exponents),
        "plan": _plan_to_value(cfg.plan),
        "datapath": {
            "input_bits": cfg.datapath.input_bits,
            "param_bits": cfg.datapath.param_bits,
            "frac_bits": cfg.datapath.frac_bits,
            "acc_bits": cfg.datapath.acc_bits,
        },
        "seeds": list(cfg.seeds),
        "output": {"dir": cfg.out_dir},
    }


# The keys config_to_dict writes, at every level, are the keys a config may hold.
_SCHEMA = config_to_dict(RunConfig(Kind.GELU))

# The GA's scalar fields and their JSON types.
_GA_SCALARS = {
    "n_breakpoints": int,
    "population_size": int,
    "iterations": int,
    "cross_prob": NUMBER,
    "mutate_prob": NUMBER,
    "rm_prob": NUMBER,
    "gaussian_sigma": (*NUMBER, NULL),
}


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _known(data, _SCHEMA)
    json_field(data, "schema_version", int, default=SCHEMA_VERSION, choices=(SCHEMA_VERSION,))
    function = Kind(json_field(data, "function", str, choices=[k.value for k in Kind]))
    entries = json_field(data, "entries", int, default=8, choices=(8, 16))

    ga_data = json_field(data, "ga", dict, default={})
    if "seed" in ga_data:
        raise ConfigError("invalid field ga.seed: the fit seeds are the seeds field")
    _known(ga_data, _SCHEMA["ga"], "ga")
    stock_ga = default_ga_config(function, entries)
    ga_kwargs = {
        key: json_field(ga_data, key, types, "ga", default=getattr(stock_ga, key))
        for key, types in _GA_SCALARS.items()
    }
    ga_kwargs["rm_range"] = tuple(
        json_field(ga_data, "rm_range", list, "ga", default=stock_ga.rm_range, items=int, length=2)
    )
    ga_kwargs["mutation_kind"] = MutationKind(json_field(
        ga_data, "mutation_kind", str, "ga", default=stock_ga.mutation_kind.value,
        choices=[m.value for m in MutationKind],
    ))
    with naming("ga"):
        ga = replace(stock_ga, **ga_kwargs)
    if ga.n_breakpoints != entries - 1:
        raise ConfigError(
            f"invalid field ga.n_breakpoints: {ga.n_breakpoints} does not match "
            f"entries {entries} (expected {entries - 1})"
        )
    if ga.mutation_kind is MutationKind.ROUNDING and ga.rm_prob == 0:
        raise ConfigError("invalid field ga.mutation_kind: rm never snaps with ga.rm_prob 0")

    # lambda is datapath.frac_bits, which schema v1 also accepts as
    # ga.fxp_frac_bits; it is no wider than the int64 datapath's mantissas.
    lambdas = range(MAX_ACC_BITS + 1)
    via_ga = json_field(ga_data, "fxp_frac_bits", int, "ga", default=DatapathConfig().frac_bits,
                        choices=lambdas)
    dp_data = _object(data, "datapath")
    frac_bits = json_field(dp_data, "frac_bits", int, "datapath", default=via_ga, choices=lambdas)
    if frac_bits != via_ga and "fxp_frac_bits" in ga_data:
        raise ConfigError(
            f"invalid field datapath.frac_bits: {frac_bits} does not match "
            f"ga.fxp_frac_bits {via_ga} (both set lambda)"
        )
    with naming("datapath"):
        datapath = DatapathConfig(frac_bits=frac_bits, **{
            key: json_field(dp_data, key, types, "datapath")
            for key, types in (("input_bits", int), ("param_bits", int), ("acc_bits", (int, NULL)))
            if key in dp_data
        })

    # quant only restates the datapath's signed input width
    quant = _object(data, "quant")
    bits = json_field(quant, "bits", int, "quant", default=datapath.input_bits)
    if bits != datapath.input_bits:
        raise ConfigError(
            f"invalid field quant.bits: {bits} does not match datapath.input_bits "
            f"{datapath.input_bits}"
        )
    if not json_field(quant, "signed", bool, "quant", default=True):
        raise ConfigError("invalid field quant.signed: the datapath input is signed, got false")

    search_range = json_field(data, "search_range", (list, NULL), default=None,
                              items=NUMBER, length=2)
    cfg = RunConfig(
        function=function,
        search_range=None if search_range is None else tuple(search_range),
        ga=ga,
        scale_exponents=tuple(
            json_field(data, "scale_exponents", list, default=DEFAULT_SCALE_EXPONENTS, items=int)
        ),
        plan=_plan_from_value(json_field(data, "plan", (str, dict, NULL), default=None), function),
        datapath=datapath,
        seeds=tuple(json_field(data, "seeds", list, default=(0,), items=int)),
        out_dir=json_field(_object(data, "output"), "dir", str, "output", default="out"),
    )
    if function not in SCALE_CARRYING and cfg.scale_exponents != DEFAULT_SCALE_EXPONENTS:
        raise ConfigError(
            f"invalid field scale_exponents: a {function.value} table is evaluated over its "
            f"scaling plan, not a scale sweep; got {list(cfg.scale_exponents)}"
        )
    with naming():
        spec = cfg.spec()
    # The GA places a breakpoint up to MIN_GAP below the range's top; a
    # wide-range breakpoint is a mantissa at lambda in the signed input.
    top = spec.search_range[1] - MIN_GAP
    if not spec.scale_carrying and not (
        math.isfinite(top * 2.0**frac_bits)
        and fits(to_mantissa(top, frac_bits), datapath.input_bits)
    ):
        raise ConfigError(
            f"invalid field datapath.frac_bits: breakpoint {top} at {frac_bits} fractional bits "
            f"does not fit the signed datapath.input_bits {datapath.input_bits}"
        )
    return cfg


def load_config(path: str | None = None, fields: dict | None = None) -> RunConfig:
    """The run config of the JSON file at path, or of an empty tree, with fields
    (dotted field paths such as ga.iterations, mapped to JSON values) written
    over it; a section that is not an object is left for the reader to reject."""
    data = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    for name, value in (fields or {}).items():
        *sections, key = name.split(".")
        node = data
        for section in sections:
            if isinstance(node, dict):
                node = node.setdefault(section, {})
        if isinstance(node, dict):
            node[key] = value
    return config_from_dict(data)


def config_hash(cfg: RunConfig) -> str:
    """sha256 over the canonical config, minus the output section.

    The hash covers everything that determines artifact content, so runs of
    one config into different directories stay byte-identical.
    """
    data = config_to_dict(cfg)
    data.pop("output")
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
