"""Run configuration: per-function defaults, file loading, hashing.

A run config is a single JSON tree (schema_version 1). Every artifact the
tool writes embeds the sha256 hash of the canonical config encoding, so
equal hashes imply byte-identical artifacts.
"""

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, replace

from .evalbench import DEFAULT_SCALE_EXPONENTS
from .evolve import GaConfig, MutationKind
from .intsim import DatapathConfig
from .nonlin import Kind, NonLinSpec, default_spec
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


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    """One run's settings. Each has one home: the entry count is
    ga.n_breakpoints + 1, lambda is datapath.frac_bits and the fit seeds are
    seeds (ga.seed is the per-fit copy the fit command fills in)."""

    function: Kind
    search_range: tuple[float, float] | None = None
    ga: GaConfig = field(default_factory=GaConfig)
    scale_exponents: tuple[int, ...] = DEFAULT_SCALE_EXPONENTS
    plan: str | RangeScalingPlan | None = None
    datapath: DatapathConfig = field(default_factory=DatapathConfig)
    seeds: tuple[int, ...] = (0,)
    out_dir: str = "out"

    def __post_init__(self):
        for i, e in enumerate(self.scale_exponents):
            try:
                PowTwoScale(e)
            except ValueError as exc:
                raise ConfigError(f"invalid field scale_exponents[{i}]: {exc}") from None

    @property
    def entries(self) -> int:
        return self.ga.n_breakpoints + 1

    def spec(self) -> NonLinSpec:
        base = default_spec(self.function)
        if self.search_range is None:
            return base
        return replace(base, search_range=self.search_range)

    def scaling_plan(self) -> RangeScalingPlan:
        """The multi-range scaling plan for a wide-range run (preset or inline)."""
        if isinstance(self.plan, RangeScalingPlan):
            return self.plan
        return get_plan(self.plan or f"{self.function.value}-int8")


def default_ga_config(
    kind: Kind | str,
    entries: int = 8,
    mutation_kind: MutationKind | None = None,
    seed: int = 0,
) -> GaConfig:
    """Stock GA hyperparameters for one operator at one entry count.

    Scale-carrying operators default to rounding mutation with their
    per-function probability and grid range; div/rsqrt have a zero
    rounding-mutation probability, so they default to Gaussian mutation.
    """
    kind = Kind(kind)
    if entries not in (8, 16):
        raise ConfigError(f"entries must be 8 or 16, got {entries}")
    rm_prob = RM_PROB[kind]
    if mutation_kind is None:
        mutation_kind = MutationKind.ROUNDING if rm_prob > 0 else MutationKind.GAUSSIAN
    return GaConfig(
        n_breakpoints=entries - 1,
        rm_prob=rm_prob,
        rm_range=RM_RANGES.get((kind, entries), (0, 6)),
        mutation_kind=mutation_kind,
        seed=seed,
    )


def default_run_config(
    kind: Kind | str,
    entries: int = 8,
    seeds=(0,),
    out_dir: str = "out",
) -> RunConfig:
    kind = Kind(kind)
    return RunConfig(
        function=kind,
        ga=default_ga_config(kind, entries),
        plan=None if kind in (Kind.GELU, Kind.HSWISH, Kind.EXP) else f"{kind.value}-int8",
        seeds=tuple(seeds),
        out_dir=out_dir,
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


def _plan_from_value(value, function: Kind):
    """Plan field: a preset name, an inline plan object, or None."""
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
    if value is None or isinstance(value, RangeScalingPlan):
        return value
    try:
        sub_ranges = tuple(
            SubRange(
                lo=float(sr["lo"]),
                hi=math.inf if sr.get("hi") is None else float(sr["hi"]),
                scale=PowTwoScale(int(sr["exponent"])),
            )
            for sr in value["sub_ranges"]
        )
        return RangeScalingPlan(
            inner_range=tuple(value["inner_range"]),
            sub_ranges=sub_ranges,
            op_kind=function,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid field plan: {exc}") from None


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


def _is_int(value) -> bool:
    """A JSON integer: an int that is not true/false."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(data: dict, key: str, default) -> tuple[int, ...]:
    """A list-of-integers field; errors name the field."""
    value = data.get(key, default)
    if not isinstance(value, (list, tuple)) or not all(_is_int(v) for v in value):
        raise ConfigError(f"invalid field {key}: expected a list of integers, got {value!r}")
    return tuple(value)


def _section(data: dict, key: str) -> dict:
    """An optional object-valued section; errors name it."""
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"invalid field {key}: expected an object, got {value!r}")
    return value


def _require(mapping: dict, key: str, section: str):
    if key not in mapping:
        raise ConfigError(f"missing field {section}.{key}" if section else f"missing field {key}")
    return mapping[key]


def _check_quant(quant: dict, input_bits: int):
    """The quant section only restates the datapath's signed input width."""
    bits = quant.get("bits", input_bits)
    if type(bits) is not int or bits != input_bits:
        raise ConfigError(
            f"invalid field quant.bits: {bits!r} does not match datapath.input_bits {input_bits}"
        )
    if quant.get("signed", True) is not True:
        raise ConfigError(
            f"invalid field quant.signed: the datapath input is signed, got {quant['signed']!r}"
        )


def _search_range(value) -> tuple[float, float] | None:
    """search_range: null for the stock range, or two finite numbers."""
    if value is None:
        return None
    # abs(v) <= max also rejects a JSON integer beyond the float range
    if not (isinstance(value, (list, tuple)) and len(value) == 2 and all(
        type(v) in (int, float) and abs(v) <= sys.float_info.max for v in value
    )):
        raise ConfigError(f"invalid field search_range: expected two finite numbers, got {value!r}")
    return tuple(value)


# GA fields that count something, so must be integers.
_GA_COUNTS = ("n_breakpoints", "population_size", "iterations")


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    try:
        function = Kind(_require(data, "function", ""))
    except ValueError as exc:
        raise ConfigError(f"invalid field function: {exc}") from None
    entries = data.get("entries", 8)
    if not _is_int(entries) or entries not in (8, 16):
        raise ConfigError(f"invalid field entries: must be 8 or 16, got {entries!r}")

    defaults = default_run_config(function, entries)
    ga_data = _section(data, "ga")
    if "seed" in ga_data:
        raise ConfigError("invalid field ga.seed: the fit seeds are the seeds field")
    ga_kwargs = {}
    for key, value in ga_data.items():
        if key == "fxp_frac_bits":
            continue  # lambda, which the datapath section owns
        if key == "mutation_kind":
            try:
                value = MutationKind(value)
            except ValueError:
                raise ConfigError(
                    f"invalid field ga.mutation_kind: {value!r} (use 'gaussian' or 'rm')"
                ) from None
        elif key == "rm_range":
            if not (isinstance(value, (list, tuple)) and len(value) == 2
                    and all(_is_int(v) for v in value)):
                raise ConfigError(f"invalid field ga.rm_range: expected two integers, got {value!r}")
            value = tuple(value)
        elif key in _GA_COUNTS and not _is_int(value):
            raise ConfigError(f"invalid field ga.{key}: expected an integer, got {value!r}")
        ga_kwargs[key] = value
    try:
        ga = replace(defaults.ga, **ga_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid field ga: {exc}") from None
    if ga.n_breakpoints != entries - 1:
        raise ConfigError(
            f"invalid field ga.n_breakpoints: {ga.n_breakpoints} does not match "
            f"entries {entries} (expected {entries - 1})"
        )

    # lambda is datapath.frac_bits; schema v1 also accepts it as ga.fxp_frac_bits
    dp_data = _section(data, "datapath")
    frac_bits = dp_data.get("frac_bits", ga_data.get("fxp_frac_bits", 5))
    if ga_data.get("fxp_frac_bits", frac_bits) != frac_bits:
        raise ConfigError(
            f"invalid field datapath.frac_bits: {frac_bits!r} does not match "
            f"ga.fxp_frac_bits {ga_data['fxp_frac_bits']!r} (both set lambda)"
        )
    dp_kwargs = {
        "input_bits": dp_data.get("input_bits", 8),
        "param_bits": dp_data.get("param_bits", 16),
        "frac_bits": frac_bits,
        "acc_bits": dp_data.get("acc_bits"),
    }
    for key, value in dp_kwargs.items():
        if not (_is_int(value) or key == "acc_bits" and value is None):
            raise ConfigError(f"invalid field datapath.{key}: expected an integer, got {value!r}")
    try:
        datapath = DatapathConfig(**dp_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid field datapath: {exc}") from None
    _check_quant(_section(data, "quant"), datapath.input_bits)

    output = _section(data, "output")
    out_dir = output.get("dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"invalid field output.dir: expected a string, got {out_dir!r}")
    cfg = RunConfig(
        function=function,
        search_range=_search_range(data.get("search_range")),
        ga=ga,
        scale_exponents=_int_list(data, "scale_exponents", DEFAULT_SCALE_EXPONENTS),
        plan=_plan_from_value(data.get("plan", defaults.plan), function),
        datapath=datapath,
        seeds=_int_list(data, "seeds", (0,)),
        out_dir=out_dir,
    )
    try:
        cfg.spec()
    except ValueError as exc:
        raise ConfigError(f"invalid field search_range: {exc}") from None
    if not cfg.seeds:
        raise ConfigError("invalid field seeds: at least one seed required")
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return config_from_dict(data)


def canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: RunConfig) -> str:
    """sha256 over the canonical config, minus the output section.

    The hash covers everything that determines artifact content, so runs of
    one config into different directories stay byte-identical.
    """
    data = config_to_dict(cfg)
    data.pop("output")
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()
