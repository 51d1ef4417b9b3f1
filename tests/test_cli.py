import concurrent.futures
import json
import math
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lutfit import pwl
from lutfit._fields import replace
from lutfit.artifacts import (
    Provenance,
    atomic_write,
    read_artifact,
    render_c_header,
    render_memh,
    write_fit_artifact,
    write_qtable_artifact,
)
from lutfit.cli import cmd_eval, cmd_export, cmd_fit, main
from lutfit.config import (
    ConfigError,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_ga_config,
    load_config,
)
from lutfit.evalbench import eval_range_q, sweep_scales
from lutfit.evolve import MutationKind
from lutfit.fxp import DatapathConfig, int_bounds
from lutfit.nonlin import Kind, NonLinSpec, default_spec
from lutfit.pwl import BreakpointSet, derive_table, fxp_round_table
from lutfit.quant import PowTwoScale, QPwlTable, quantize_table

GELU = default_spec(Kind.GELU)


def tiny_config(tmp_path, **kw):
    cfg = config_from_dict({"function": "gelu", "ga": {"population_size": 10, "iterations": 5},
                            "output": {"dir": str(tmp_path / "out")}})
    return replace(cfg, **kw)


def _signed_field(word: int, shift: int, bits: int) -> int:
    """The two's-complement field of a packed memh word."""
    v = (word >> shift) & ((1 << bits) - 1)
    return v - (1 << bits) if v >> (bits - 1) else v


def sample_qtable():
    bps = BreakpointSet(points=(-2.0, 0.5, 2.0))
    table = fxp_round_table(derive_table(GELU, bps), 5)
    return quantize_table(table, PowTwoScale(-5))


# --- configuration ---------------------------------------------------------


def test_default_ga_configs_match_stock_hyperparameters():
    cfg = default_ga_config("gelu", 8)
    assert cfg.n_breakpoints == 7
    assert cfg.population_size == 50
    assert cfg.cross_prob == 0.7
    assert cfg.mutate_prob == 0.2
    assert cfg.iterations == 500
    assert config_from_dict({"function": "gelu"}).datapath.frac_bits == 5
    assert cfg.rm_prob == 0.05
    assert cfg.rm_range == (0, 6)
    assert cfg.mutation_kind is MutationKind.ROUNDING

    assert default_ga_config("exp", 8).rm_range == (2, 6)
    assert default_ga_config("exp", 16).rm_range == (0, 6)
    assert default_ga_config("hswish", 16).rm_range == (2, 6)
    assert default_ga_config("gelu", 16).n_breakpoints == 15

    for fn in ("div", "rsqrt"):
        cfg = default_ga_config(fn, 8)
        assert cfg.rm_prob == 0.0
        assert cfg.mutation_kind is MutationKind.GAUSSIAN


def test_config_round_trip_and_hash(tmp_path):
    cfg = tiny_config(tmp_path)
    data = config_to_dict(cfg)
    assert data["output"] == {"dir": cfg.out_dir}
    again = config_from_dict(json.loads(json.dumps(data)))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
    # lambda is one setting that schema v1 writes in two places
    assert data["ga"]["fxp_frac_bits"] == data["datapath"]["frac_bits"] == 5
    via_ga = config_from_dict({"function": "gelu", "ga": {"fxp_frac_bits": 6}})
    via_datapath = config_from_dict({"function": "gelu", "datapath": {"frac_bits": 6}})
    assert via_ga == via_datapath
    assert via_ga.datapath.frac_bits == 6
    assert config_hash(via_ga) == config_hash(via_datapath)


def _inline_plan(**first):
    """A div config with an inline plan whose first sub-range is updated by first."""
    return {"function": "div", "plan": {"inner_range": [0.5, 4.0], "sub_ranges": [
        {"lo": 4.0, "hi": 32.0, "exponent": -3, **first},
        {"lo": 32.0, "hi": None, "exponent": -6},
    ]}}


# Configs the reader rejects, each with the start of its error message.
MALFORMED_CONFIG = {
    # true/false and strings are not numbers, nor is a fraction an integer
    "plan-exponent-fraction": (_inline_plan(exponent=-3.7),
                               "invalid field plan.sub_ranges[0].exponent:"),
    "plan-exponent-bool": (_inline_plan(exponent=True),
                           "invalid field plan.sub_ranges[0].exponent:"),
    "plan-lo-string": (_inline_plan(lo="4.0"), "invalid field plan.sub_ranges[0].lo:"),
    "cross_prob-bool": ({"function": "gelu", "ga": {"cross_prob": True}},
                        "invalid field ga.cross_prob:"),
    "cross_prob-string": ({"function": "gelu", "ga": {"cross_prob": "0.7"}},
                          "invalid field ga.cross_prob:"),
    "gaussian_sigma-bool": ({"function": "gelu", "ga": {"gaussian_sigma": True}},
                            "invalid field ga.gaussian_sigma:"),
    # lambda is no wider than the mantissas the int64 datapath holds
    "frac_bits-64": ({"function": "gelu", "datapath": {"frac_bits": 64}},
                     "invalid field datapath.frac_bits:"),
    "frac_bits-1100": ({"function": "gelu", "datapath": {"frac_bits": 1100}},
                       "invalid field datapath.frac_bits:"),
    "fxp_frac_bits-1100": ({"function": "gelu", "ga": {"fxp_frac_bits": 1100}},
                           "invalid field ga.fxp_frac_bits:"),
    # rounding mutation's 2^-i grids are no finer than lambda's, which keeps
    # a snap's x * 2^i inside the float range
    "rm_range-1100": ({"function": "gelu",
                       "ga": {"rm_prob": 0.0001, "rm_range": [1000, 1100], "iterations": 20}},
                      "invalid field ga.rm_range:"),
    # a key the schema does not know, at any level
    "unknown-section": ({"function": "gelu", "datapth": {"frac_bits": 6}},
                        "unknown field datapth"),
    "unknown-ga-key": ({"function": "gelu", "ga": {"popsize": 10}}, "unknown field ga.popsize"),
    "unknown-plan-key": (_inline_plan(scale=-3), "unknown field plan.sub_ranges[0].scale"),
    # a range check of a section names the field it failed on
    "cross_prob-2": ({"function": "gelu", "ga": {"cross_prob": 2.0}},
                     "invalid field ga.cross_prob:"),
    "acc_bits-64": ({"function": "gelu", "datapath": {"acc_bits": 64}},
                    "invalid field datapath.acc_bits:"),
    "plan-exponent-5000": (_inline_plan(exponent=5000),
                           "invalid field plan.sub_ranges[0].exponent:"),
    # one fit per non-negative seed, and one sweep row per scale
    "seeds-repeated": ({"function": "gelu", "seeds": [0, 1, 0]}, "invalid field seeds:"),
    "seeds-negative": ({"function": "gelu", "seeds": [0, -1]}, "invalid field seeds[1]:"),
    "scale_exponents-empty": ({"function": "gelu", "scale_exponents": []},
                              "invalid field scale_exponents:"),
    "scale_exponents-repeated": ({"function": "gelu", "scale_exponents": [-3, -3, -1]},
                                 "invalid field scale_exponents:"),
    # the GA repairs every individual into the range at the minimum gap
    "search_range-too-narrow": ({"function": "gelu", "search_range": [0, 0.1]},
                                "invalid field search_range:"),
    # wide enough for the gaps, but the fixup rounds below the floor
    "search_range-rounds-too-narrow": ({"function": "gelu",
                                        "search_range": [0.25, 0.41000000000000003]},
                                       "invalid field search_range:"),
    # the fitness grid is bounded, so a wide range fails before any array
    # is built, and the reference must be finite at both range ends
    "search_range-wide": ({"function": "gelu", "search_range": [-1e6, 1e6]},
                          "invalid field search_range:"),
    "search_range-wide-exp": ({"function": "exp", "search_range": [-1e6, 0]},
                              "invalid field search_range:"),
    "search_range-inf-steps": ({"function": "gelu", "search_range": [-1e308, -1e307]},
                               "invalid field search_range:"),
    "search_range-exp-overflow": ({"function": "exp", "search_range": [0, 800]},
                                  "invalid field search_range:"),
    "search_range-huge": ({"function": "gelu", "search_range": [-1e300, 1e300]},
                          "invalid field search_range:"),
    # every slope and intercept is finite at lambda: exp reaches 8.2e307 at 709
    "search_range-exp-params": ({"function": "exp", "search_range": [700, 709]},
                                "invalid field search_range:"),
    # the floats are fine enough to space breakpoints MIN_GAP apart: at 1e18
    # they lie 128 apart, and at 33000 x + MIN_GAP rounds past derive_table's
    # tolerance
    "search_range-coarse": ({"function": "gelu", "search_range": [1e18, 1.0000000000000005e18]},
                            "invalid field search_range:"),
    "search_range-gap-rounds": ({"function": "gelu", "search_range": [33000, 33005]},
                                "invalid field search_range:"),
    # no setting is accepted and then ignored
    "scale_exponents-wide-range": ({"function": "div", "scale_exponents": [-3]},
                                   "invalid field scale_exponents:"),
    "rm-without-rm_prob": ({"function": "div", "ga": {"mutation_kind": "rm"}},
                           "invalid field ga.mutation_kind:"),
    # a wide-range breakpoint is a lambda mantissa in the signed input: at
    # lambda 6, 3.98 needs 9 bits
    "frac_bits-wide-range-input": ({"function": "div", "datapath": {"frac_bits": 6}},
                                   "invalid field datapath.frac_bits:"),
    # rsqrt's rescale 2^(e/2) is a shift only for an even exponent
    "plan-exponent-odd-rsqrt": ({"function": "rsqrt", "plan": {
        "inner_range": [0.25, 4.0], "sub_ranges": [{"lo": 4.0, "hi": 8.0, "exponent": -1},
                                                   {"lo": 8.0, "hi": None, "exponent": -3}]}},
        "invalid field plan.sub_ranges[0].exponent:"),
}


def test_wide_range_config_limits_are_tight():
    # the largest GA breakpoint, 3.98, is 127 at the stock lambda 5; at
    # lambda 6 it fits a 16-bit input
    for function in ("div", "rsqrt"):
        config_from_dict({"function": function, "datapath": {"frac_bits": 6, "input_bits": 16}})
    # an even rsqrt exponent is a shift, as in the stock plan
    config_from_dict({"function": "rsqrt", "plan": {
        "inner_range": [0.25, 4.0], "sub_ranges": [{"lo": 4.0, "hi": 16.0, "exponent": -2},
                                                   {"lo": 16.0, "hi": None, "exponent": -4}]}})


def test_config_errors_name_offending_field():
    with pytest.raises(ConfigError, match="function"):
        config_from_dict({"entries": 8})
    with pytest.raises(ConfigError, match="entries"):
        config_from_dict({"function": "gelu", "entries": 12})
    with pytest.raises(ConfigError, match="mutation_kind"):
        config_from_dict({"function": "gelu", "ga": {"mutation_kind": "bogus"}})
    with pytest.raises(ConfigError, match="seeds"):
        config_from_dict({"function": "gelu", "seeds": []})
    with pytest.raises(ConfigError, match="schema_version"):
        config_from_dict({"function": "gelu", "schema_version": 99})
    with pytest.raises(ConfigError, match="field plan: unknown plan 'div-int4'"):
        config_from_dict({"function": "div", "plan": "div-int4"})
    with pytest.raises(ConfigError, match="field plan: preset 'rsqrt-int8' is for rsqrt"):
        config_from_dict({"function": "div", "plan": "rsqrt-int8"})
    # the open-ended sub-range's exponent is range-checked too
    with pytest.raises(ConfigError,
                       match=r"field plan\.sub_ranges\[0\]\.exponent: scale exponent 5000 outside"):
        config_from_dict({"function": "div", "plan": {
            "inner_range": [0.5, 4.0], "sub_ranges": [{"lo": 4.0, "hi": None, "exponent": 5000}]}})
    for key, value in (("seeds", "ab"), ("seeds", [0, 1.5]), ("seeds", [True]),
                       ("scale_exponents", ["x"]), ("scale_exponents", -5)):
        with pytest.raises(ConfigError, match=f"field {key}"):
            config_from_dict({"function": "gelu", key: value})
    with pytest.raises(ConfigError, match="field ga.n_breakpoints"):
        config_from_dict({"function": "gelu", "entries": 8, "ga": {"n_breakpoints": 15}})
    # malformed sections and fields exit 2 naming the field, never a traceback
    for extra, field in (
        ({"ga": [1]}, "ga"),
        ({"datapath": [1]}, "datapath"),
        ({"output": "x"}, "output"),
        ({"search_range": [0, "a"]}, "search_range"),
        ({"search_range": [-math.inf, 4]}, "search_range"),
        ({"ga": {"rm_range": 5}}, "ga.rm_range"),
        ({"ga": {"population_size": 2.5}}, "ga.population_size"),
        ({"ga": {"iterations": -1}}, "ga.iterations"),
        # lambda has one value; the fit seeds are the seeds field
        ({"ga": {"fxp_frac_bits": 6}, "datapath": {"frac_bits": 4}}, "datapath.frac_bits"),
        ({"ga": {"seed": 7}}, "ga.seed"),
        # 2^e must be a normal double
        ({"scale_exponents": [-6, 100000]}, r"scale_exponents\[1\]"),
        ({"scale_exponents": [-2000]}, r"scale_exponents\[0\]"),
    ):
        with pytest.raises(ConfigError, match=f"invalid field {field}:"):
            config_from_dict({"function": "gelu", **extra})
    # quant only restates the datapath's signed input width
    for quant, field in (({"bits": 16}, "quant.bits"), ({"signed": False}, "quant.signed"),
                         ([16], "quant")):
        with pytest.raises(ConfigError, match=f"invalid field {field}:"):
            config_from_dict({"function": "gelu", "quant": quant})
    for config, message in MALFORMED_CONFIG.values():
        with pytest.raises(ConfigError) as exc:
            config_from_dict(config)
        assert str(exc.value).startswith(message), exc.value


def test_config_null_plan_is_the_stock_preset():
    # a wide-range config without a plan runs its int8 preset, so it is the
    # stock config and hashes as such
    stock = config_from_dict({"function": "div"})
    for data in ({"function": "div", "plan": None}, config_to_dict(stock)):
        assert config_from_dict(json.loads(json.dumps(data))) == stock
    assert config_to_dict(stock)["plan"] == "div-int8"


def test_config_inline_scaling_plan_round_trip():
    from lutfit.quant import RangeScalingPlan

    data = {
        "function": "div",
        "plan": {
            "inner_range": [0.5, 4.0],
            "sub_ranges": [
                {"lo": 4.0, "hi": 32.0, "exponent": -3},
                {"lo": 32.0, "hi": None, "exponent": -6},
            ],
        },
    }
    cfg = config_from_dict(data)
    assert isinstance(cfg.plan, RangeScalingPlan)
    assert cfg.scaling_plan() is cfg.plan
    again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)

    bad = dict(data, plan={"inner_range": [0.5, 4.0], "sub_ranges": [{"lo": 4.0}]})
    with pytest.raises(ConfigError, match="plan"):
        config_from_dict(bad)


def test_load_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"function": "exp", "entries": 16, "seeds": [3, 4]}))
    cfg = load_config(str(path))
    assert cfg.function is Kind.EXP
    assert cfg.entries == 16
    assert cfg.seeds == (3, 4)
    assert cfg.ga.rm_range == (0, 6)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000, "{not json"],
                         ids=["nested", "malformed"])
def test_main_unreadable_json_names_the_file(tmp_path, capsys, text):
    # nesting past the parser's recursion exits 2 as a decode error does,
    # naming the file, never with a traceback
    path = tmp_path / "x.json"
    path.write_text(text)
    out = str(tmp_path / "out")
    for argv, what in ((["fit", "--config", str(path)], "config file"),
                       (["eval", "--table", str(path)], "artifact")):
        assert main([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what} {path} "), err
    assert not os.path.exists(out)


# --- artifacts -------------------------------------------------------------


def test_fit_artifact_round_trip(tmp_path):
    bps = BreakpointSet(points=(-1.3, 0.7))
    table = fxp_round_table(derive_table(GELU, bps), 5)
    path = str(tmp_path / "t.fit.json")
    write_fit_artifact(path, table, Provenance("abc", 7))
    loaded, prov = read_artifact(path)
    assert loaded == table
    assert prov == Provenance("abc", 7)


def test_qtable_artifact_round_trip(tmp_path):
    qt = sample_qtable()
    path = str(tmp_path / "t.qtable.json")
    write_qtable_artifact(path, qt, Provenance("abc", 0))
    loaded, _ = read_artifact(path)
    assert loaded == qt


def test_read_artifact_rejects_unknown_kind(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"schema_version": 1, "artifact_kind": "mystery"}))
    with pytest.raises(ValueError):
        read_artifact(str(path))


def test_read_artifact_names_ill_typed_qtable_field(tmp_path):
    path = str(tmp_path / "t.qtable.json")
    write_qtable_artifact(path, sample_qtable(), Provenance("abc", 0))
    with open(path) as fh:
        data = json.load(fh)
    # a scale exponent past the normal doubles is as malformed as a wrong type
    # and so is a missing scale on a scale-carrying table
    for field, value in (("frac_bits", "5"), ("frac_bits", True), ("scale_exponent", 5000),
                         ("scale_exponent", None)):
        with open(path, "w") as fh:
            json.dump({**data, field: value}, fh)
        with pytest.raises(ValueError, match=f"field {field}"):
            read_artifact(path)


def test_read_artifact_requires_provenance(tmp_path):
    path = str(tmp_path / "t.qtable.json")
    write_qtable_artifact(path, sample_qtable(), Provenance("abc", 0))
    with open(path) as fh:
        data = json.load(fh)
    del data["provenance"]
    with open(path, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(ValueError, match="missing field provenance"):
        read_artifact(path)


def test_memh_hand_packed_example():
    qt = QPwlTable(
        slopes_fxp=(8,),
        intercepts_fxp=(152,),
        breakpoints_q=(),
        frac_bits=5,
        spec=GELU,
        scale=PowTwoScale(-3),
    )
    # entry fields: slope 0.25 -> 0008 (16b), intercept 4.75 -> 0098 (16b),
    # breakpoint padding 0 in the single-entry case
    text = render_memh(qt, Provenance("h", 0), DatapathConfig(param_bits=16, input_bits=8))
    lines = [l for l in text.splitlines() if not l.startswith("//")]
    assert lines == ["0008009800"]


def test_memh_breakpoint_field_and_saturation_pattern():
    qt = QPwlTable(
        slopes_fxp=(8, -32768),
        intercepts_fxp=(152, -1),
        breakpoints_q=(-5,),
        frac_bits=5,
        spec=GELU,
        scale=PowTwoScale(-3),
    )
    text = render_memh(qt, Provenance("h", 0), DatapathConfig(param_bits=16, input_bits=8))
    lines = [l for l in text.splitlines() if not l.startswith("//")]
    assert lines[0] == "00080098FB"  # breakpoint -5 -> 0xFB two's complement
    assert lines[1] == "8000FFFF00"  # minimum slope pattern encodes without wrap
    assert "msb-first" in text
    # the same boundary at 8-bit parameter fields
    qt8 = QPwlTable(
        slopes_fxp=(-128,), intercepts_fxp=(-1,), breakpoints_q=(), frac_bits=5, spec=GELU,
        scale=PowTwoScale(-3),
    )
    text = render_memh(qt8, Provenance("h", 0), DatapathConfig(param_bits=8, input_bits=8))
    assert [l for l in text.splitlines() if not l.startswith("//")] == ["80FF00"]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((8, 12, 16)), st.sampled_from((8, 16)), st.integers(1, 16), st.data())
def test_memh_words_decode_to_table_fields(param_bits, breakpoint_bits, entries, data):
    params = st.integers(*int_bounds(param_bits))
    slopes = data.draw(st.lists(params, min_size=entries, max_size=entries))
    intercepts = data.draw(st.lists(params, min_size=entries, max_size=entries))
    breakpoints = sorted(data.draw(st.lists(
        st.integers(*int_bounds(breakpoint_bits)),
        min_size=entries - 1, max_size=entries - 1, unique=True,
    )))
    qt = QPwlTable(
        slopes_fxp=tuple(slopes), intercepts_fxp=tuple(intercepts),
        breakpoints_q=tuple(breakpoints), frac_bits=5, spec=GELU, scale=PowTwoScale(-5),
    )
    text = render_memh(qt, Provenance("h", 0),
                       DatapathConfig(param_bits=param_bits, input_bits=breakpoint_bits))
    words = [int(l, 16) for l in text.splitlines() if not l.startswith("//")]
    assert len(words) == entries
    assert all(w >> (2 * param_bits + breakpoint_bits) == 0 for w in words)
    assert [_signed_field(w, param_bits + breakpoint_bits, param_bits) for w in words] == slopes
    assert [_signed_field(w, breakpoint_bits, param_bits) for w in words] == intercepts
    assert [_signed_field(w, 0, breakpoint_bits) for w in words[:-1]] == breakpoints
    assert _signed_field(words[-1], 0, breakpoint_bits) == 0


def test_memh_rejects_unrepresentable_fields():
    qt = QPwlTable(
        slopes_fxp=(300,),
        intercepts_fxp=(0,),
        breakpoints_q=(),
        frac_bits=5,
        spec=GELU,
        scale=PowTwoScale(0),
    )
    with pytest.raises(ValueError):
        render_memh(qt, Provenance("h", 0), DatapathConfig(param_bits=8, input_bits=8))


def test_c_header_render():
    qt = sample_qtable()
    text = render_c_header(qt, Provenance("deadbeef", 3), "gelu_8e")
    assert "#define GELU_8E_ENTRIES 4" in text
    assert "#define GELU_8E_FRAC_BITS 5" in text
    assert "#define GELU_8E_SCALE_EXP -5" in text
    assert "GELU_8E_SLOPES[4]" in text
    assert "GELU_8E_BREAKPOINTS[3]" in text
    assert "deadbeef" in text


def test_atomic_write_leaves_no_partial_file(tmp_path):
    target = tmp_path / "sub" / "file.txt"
    atomic_write(str(target), "hello")
    assert target.read_text() == "hello"
    assert [p.name for p in (tmp_path / "sub").iterdir()] == ["file.txt"]


# --- commands --------------------------------------------------------------


def test_cmd_fit_writes_expected_artifacts(tmp_path):
    cfg = tiny_config(tmp_path)
    written = cmd_fit(cfg)
    names = sorted(os.path.basename(p) for p in written)
    assert names == [
        "gelu_8e_best.fit.json",
        "gelu_8e_fitlog.csv",
        "gelu_8e_seed0.fit.json",
    ]
    table, prov = read_artifact(written[0])
    assert table.entries == 8
    assert prov.config_hash == config_hash(cfg)
    for v in table.slopes + table.intercepts:
        assert v == round(v * 32) / 32  # lambda = 5 grid
    log = (tmp_path / "out" / "gelu_8e_fitlog.csv").read_text().splitlines()
    assert log[0] == "seed,generation,best_mse"
    assert len(log) == 1 + 6  # five generations plus the final entry


def test_cmd_fit_rounds_to_datapath_frac_bits(tmp_path):
    cfg = tiny_config(tmp_path, datapath=DatapathConfig(frac_bits=6))
    table, _ = read_artifact(cmd_fit(cfg)[0])
    values = table.slopes + table.intercepts
    assert all(v == round(v * 64) / 64 for v in values)
    assert any(v != round(v * 32) / 32 for v in values)  # not the stock lambda = 5


def test_cmd_fit_is_byte_deterministic(tmp_path):
    cfg_a = tiny_config(tmp_path, out_dir=str(tmp_path / "a"))
    cfg_b = tiny_config(tmp_path, out_dir=str(tmp_path / "b"))
    for path_a, path_b in zip(cmd_fit(cfg_a), cmd_fit(cfg_b)):
        assert open(path_a, "rb").read() == open(path_b, "rb").read()


def test_cmd_fit_parallel_matches_sequential(tmp_path):
    cfg_seq = tiny_config(tmp_path, out_dir=str(tmp_path / "seq"))
    cfg_seq = replace(cfg_seq, seeds=(0, 1))
    cfg_par = replace(cfg_seq, out_dir=str(tmp_path / "par"))
    seq = [open(p, "rb").read() for p in cmd_fit(cfg_seq, jobs=1)]
    par = [open(p, "rb").read() for p in cmd_fit(cfg_par, jobs=2)]
    assert seq == par


class FakeExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    created = []

    def __init__(self, max_workers):
        FakeExecutor.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_main_fit_pool_has_one_worker_per_seed_at_most(tmp_path, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(FakeExecutor, "created", [])
    fit = ["fit", "--function", "gelu", "--iterations", "2", "--out", str(tmp_path)]
    assert main([*fit, "--seeds", "0,1", "--jobs", "4"]) == 0
    assert FakeExecutor.created == [2]
    assert main([*fit, "--seeds", "0,1,2", "--jobs", "2"]) == 0
    assert FakeExecutor.created == [2, 2]
    # one seed or one job runs in-process
    assert main([*fit, "--seeds", "0", "--jobs", "4"]) == 0
    assert main([*fit, "--seeds", "0,1", "--jobs", "1"]) == 0
    assert FakeExecutor.created == [2, 2]


def test_main_fit_rejects_jobs_below_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(FakeExecutor, "created", [])
    out = str(tmp_path / "out")
    for jobs in ("0", "-2"):
        assert main(["fit", "--function", "gelu", "--seeds", "0,1", "--iterations", "2",
                     "--jobs", jobs, "--out", out]) == 2
        assert "--jobs" in capsys.readouterr().err
    assert FakeExecutor.created == []
    assert not os.path.exists(out)


def test_main_fit_builds_one_fitness_scorer(tmp_path):
    # evolve and fitness_mse share one scorer, so the grid and its reference
    # values are built once
    pwl.fitness_scorer.cache_clear()
    assert main(["fit", "--function", "gelu", "--seeds", "0", "--iterations", "3",
                 "--out", str(tmp_path)]) == 0
    info = pwl.fitness_scorer.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_cmd_fit_multi_seed_best_selection(tmp_path):
    cfg = tiny_config(tmp_path)
    cfg = replace(cfg, seeds=(0, 1, 2))
    written = cmd_fit(cfg)
    from lutfit.pwl import fitness_mse

    per_seed = {}
    best = None
    for p in written:
        if "seed" in os.path.basename(p):
            t, prov = read_artifact(p)
            per_seed[prov.seed] = fitness_mse(t)
        elif p.endswith("best.fit.json"):
            best = read_artifact(p)
    best_table, best_prov = best
    assert best_prov.seed == min(per_seed, key=per_seed.get)


def test_cmd_eval_scale_carrying(tmp_path):
    cfg = tiny_config(tmp_path)
    fit_paths = cmd_fit(cfg)
    table_path = fit_paths[0]
    written = cmd_eval(cfg, table_path)
    csv_path = [p for p in written if p.endswith(".csv")][0]
    rows = open(csv_path).read().splitlines()
    assert rows[0] == "scale_exp,mse"
    assert len(rows) == 1 + 6  # default sweep -6..-1
    report_path = [p for p in written if p.endswith(".json")][0]
    report = json.loads(open(report_path).read())
    per_scale = {int(k): v for k, v in report["per_scale"].items()}
    assert "method" not in report  # the fit artifact does not record it
    assert report["average_mse"] == pytest.approx(
        sum(per_scale.values()) / len(per_scale), rel=1e-12
    )


def test_cmd_eval_wide_range(tmp_path):
    cfg = config_from_dict({"function": "div", "ga": {"population_size": 10, "iterations": 5},
                            "output": {"dir": str(tmp_path / "out")}})
    paths = cmd_fit(cfg)
    written = cmd_eval(cfg, paths[0])
    report = json.loads(open(written[-1]).read())
    assert report["plan"] == "div-int8"
    assert report["mse"] > 0


def test_cmd_eval_rejects_quantized_artifact(tmp_path):
    qt = sample_qtable()
    path = str(tmp_path / "t.qtable.json")
    write_qtable_artifact(path, qt, Provenance("x", 0))
    cfg = tiny_config(tmp_path)
    with pytest.raises(ConfigError, match="not a fitted-table artifact"):
        cmd_eval(cfg, path)


def test_cmd_export_wide_range_table(tmp_path):
    cfg = config_from_dict({"function": "rsqrt", "ga": {"population_size": 10, "iterations": 5},
                            "output": {"dir": str(tmp_path / "out")}})
    paths = cmd_fit(cfg)
    # wide-range tables need no scale exponent; fields are 8-bit fixed point
    path = cmd_export(replace(cfg, out_dir=str(tmp_path / "exp")), paths[0], "data")
    qt, _ = read_artifact(path)
    assert qt.scale is None
    assert all(-128 <= v <= 127 for v in qt.slopes_fxp + qt.intercepts_fxp + qt.breakpoints_q)


def test_cmd_eval_rejects_function_mismatch(tmp_path):
    cfg = tiny_config(tmp_path)
    paths = cmd_fit(cfg)
    exp_cfg = replace(cfg, function=Kind.EXP)
    with pytest.raises(ConfigError, match="does not match"):
        cmd_eval(exp_cfg, paths[0])


def test_cmd_export_formats_and_round_trip(tmp_path):
    cfg = tiny_config(tmp_path)
    paths = cmd_fit(cfg)
    table_path = paths[0]

    exp_cfg = replace(cfg, out_dir=str(tmp_path / "exp"))
    data_path = cmd_export(exp_cfg, table_path, "data", scale_exp=-5)
    qt, _ = read_artifact(data_path)
    again = cmd_export(replace(cfg, out_dir=str(tmp_path / "exp2")), data_path, "data")
    qt2, _ = read_artifact(again)
    assert qt2 == qt  # export/import round trip is the identity

    header_path = cmd_export(exp_cfg, table_path, "header", scale_exp=-5)
    assert open(header_path).read().startswith("/*")
    memh_path = cmd_export(exp_cfg, table_path, "memh", scale_exp=-5)
    body = [l for l in open(memh_path).read().splitlines() if not l.startswith("//")]
    assert len(body) == qt.entries


def test_cmd_export_requires_scale_for_scale_carrying(tmp_path):
    cfg = tiny_config(tmp_path)
    paths = cmd_fit(cfg)
    with pytest.raises(ConfigError, match="scale-exp"):
        cmd_export(cfg, paths[0], "memh")


def test_cmd_export_lists_supported_formats(tmp_path):
    with pytest.raises(ConfigError, match="data, header, memh"):
        cmd_export(tiny_config(tmp_path), "whatever.json", "yaml")


def test_main_end_to_end(tmp_path, capsys):
    out = str(tmp_path / "run")
    rc = main([
        "fit", "--function", "gelu", "--entries", "8",
        "--seeds", "0", "--iterations", "5", "--out", out,
    ])
    assert rc == 0
    fit_file = os.path.join(out, "gelu_8e_seed0.fit.json")
    assert os.path.exists(fit_file)

    rc = main(["eval", "--table", fit_file, "--out", out, "--scales=-5,-4"])
    assert rc == 0
    rc = main(["export", "--table", fit_file, "--format", "memh",
               "--scale-exp", "-5", "--out", out])
    assert rc == 0
    capsys.readouterr()

    rc = main(["export", "--table", fit_file, "--format", "nope", "--out", out])
    assert rc == 2
    assert "supported formats" in capsys.readouterr().err


MALFORMED_FIT = {
    "function": lambda d: d.pop("function"),
    "function.kind": lambda d: d["function"].pop("kind"),
    "function.search_range": lambda d: d["function"].update(search_range="wide"),
    "slopes": lambda d: d.update(slopes="steep"),
    "breakpoints": lambda d: d.pop("breakpoints"),
    "breakpoints:nan": lambda d: d["breakpoints"].__setitem__(1, math.nan),
    "slopes:inf": lambda d: d["slopes"].__setitem__(1, math.inf),
    # finite, but its mantissa at lambda fractional bits is not
    "slopes:1e308": lambda d: d["slopes"].__setitem__(1, 1e308),
    # well-typed values the table rejects
    "function.search_range:reversed": lambda d: d["function"].update(search_range=[4, -4]),
    "function.scale_carrying:false": lambda d: d["function"].update(scale_carrying=False),
    "breakpoints:descending": lambda d: d.update(breakpoints=[0.7, -1.3]),
    "intercepts:extra": lambda d: d["intercepts"].append(0.0),
    # a number is not a boolean
    "function.scale_carrying": lambda d: d["function"].update(scale_carrying=1),
    "provenance": lambda d: d.update(provenance=[1]),
    "provenance.seed": lambda d: d["provenance"].update(seed="x; DROP"),
    "provenance.config_hash": lambda d: d["provenance"].update(config_hash=5),
    "provenance.tool_version": lambda d: d["provenance"].pop("tool_version"),
    # strings that would end the header's block comment or the memh comment line
    "provenance.config_hash:comment-end":
        lambda d: d["provenance"].update(config_hash="x */ int evil; /*"),
    "provenance.tool_version:newline": lambda d: d["provenance"].update(tool_version="1\n7f"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FIT))
def test_main_malformed_artifact_names_field(tmp_path, capsys, case):
    field = case.partition(":")[0]
    bps = BreakpointSet(points=(-1.3, 0.7))
    path = str(tmp_path / "t.fit.json")
    write_fit_artifact(path, fxp_round_table(derive_table(GELU, bps), 5), Provenance("abc", 0))
    with open(path) as fh:
        data = json.load(fh)
    MALFORMED_FIT[case](data)
    with open(path, "w") as fh:
        json.dump(data, fh)
    out = str(tmp_path / "out")
    for argv in (
        ["eval", "--table", path, "--out", out],
        ["export", "--table", path, "--format", "memh", "--scale-exp", "-5", "--out", out],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"field {field}" in err, err
    assert not os.path.exists(out)


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIG))
def test_main_malformed_config_names_field(tmp_path, capsys, case):
    config, message = MALFORMED_CONFIG[case]
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    table_path = str(tmp_path / "t.fit.json")
    _write_fit(table_path, config["function"])
    out = str(tmp_path / "out")
    for argv in (["fit", "--iterations", "1"], ["eval", "--table", table_path]):
        assert main([*argv, "--config", str(cfg_path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}"), err
    assert not os.path.exists(out)


# The values the fuzz test sets each config leaf to: zero and a sign, the
# float range's ends and a number past it, a fraction, and sizes past what
# the GA and the datapath take.
EXTREMES = (0, -1, 1e-300, -1e-300, 1e300, -1e300, -2**63, 10**400, 0.5, 1e6, 64, 1000)

# Search ranges that once ended in a traceback or an error naming no field.
EXTREME_RANGES = (
    ("gelu", [-1e6, 1e6]),
    ("exp", [-1e6, 0]),
    ("gelu", [-1e308, -1e307]),
    ("exp", [0, 800]),
    ("exp", [700, 720]),
    ("gelu", [-1e300, 1e300]),
    ("exp", [700, 709]),
    ("gelu", [1e18, 1.0000000000000005e18]),
    ("gelu", [33000, 33005]),
)


def _leaves(node, path=()):
    """(path, value) of every leaf of a JSON tree, the items of a list included."""
    if not isinstance(node, (dict, list)):
        yield path, node
        return
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield from _leaves(value, (*path, key))


@pytest.mark.parametrize("function", ["gelu", "exp", "div", "rsqrt"])
def test_main_fit_of_any_config_exits_0_or_2(tmp_path, monkeypatch, capsys, function):
    """Every config either fits or is rejected naming a field, never a
    traceback: each leaf of the stock config set to each extreme value, and
    each extreme search range. The reader rejects an extreme range before any
    array is built, so a grid's memory is never at stake."""
    monkeypatch.chdir(tmp_path)
    stock = config_to_dict(config_from_dict(
        {"function": function, "ga": {"iterations": 2, "population_size": 4}}))
    configs = [{**stock, "search_range": search_range}
               for fn, search_range in EXTREME_RANGES if fn == function]
    for path, _ in _leaves(stock):
        for value in EXTREMES:
            config = json.loads(json.dumps(stock))
            node = config
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            configs.append(config)
    failed = []
    for config in configs:
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        try:
            code = main(["fit", "--config", str(cfg_path)])
        except Exception as exc:  # a traceback, the failure this test looks for
            code = repr(exc)
        if code not in (0, 2):
            failed.append((config, code))
        capsys.readouterr()
    assert not failed, failed


def test_main_eval_reports_the_plan_that_ran(tmp_path, capsys):
    table_path = str(tmp_path / "t.fit.json")
    _write_fit(table_path, "div")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"function": "div", "plan": None}))
    reports = []
    for name, extra in (("null", ["--config", str(cfg_path)]), ("stock", [])):
        out = str(tmp_path / name)
        assert main(["eval", "--table", table_path, "--out", out, *extra]) == 0
        with open(os.path.join(out, "t_report.json")) as fh:
            reports.append(json.load(fh))
    assert reports[0] == reports[1]
    assert reports[0]["plan"] == "div-int8"


def test_main_out_of_range_scale_exponents_name_the_flag(tmp_path, capsys):
    table_path = str(tmp_path / "t.fit.json")
    _write_fit(table_path, "gelu")
    out = str(tmp_path / "out")
    for exponent in ("1100", "-2000"):
        for argv, field in (
            (["eval", "--table", table_path, f"--scales=-5,{exponent}"], "scale_exponents[1]"),
            (["export", "--table", table_path, "--format", "memh", "--scale-exp", exponent],
             "--scale-exp"),
        ):
            assert main([*argv, "--out", out]) == 2
            err = capsys.readouterr().err
            assert field in err and exponent in err, err
    assert not os.path.exists(out)


def test_main_eval_takes_function_and_entries_from_artifact(tmp_path, capsys):
    table_path = str(tmp_path / "t.fit.json")
    _write_fit(table_path, "gelu")
    for flag in (["--function", "gelu"], ["--entries", "8"]):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--table", table_path, *flag, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_main_eval_accumulator_overflow_exits_2(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["fit", "--function", "exp", "--seeds", "0", "--iterations", "5",
                 "--out", out]) == 0
    cfg_path = tmp_path / "narrow.json"
    cfg_path.write_text(json.dumps(
        {"function": "exp", "datapath": {"param_bits": 8, "acc_bits": 16}}
    ))
    capsys.readouterr()
    rc = main(["eval", "--table", os.path.join(out, "exp_8e_seed0.fit.json"),
               "--config", str(cfg_path), "--scales=-12", "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: shifted intercept") and "acc_bits=16" in err, err


def test_main_conflicting_function_flag(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"function": "gelu"}))
    rc = main([
        "fit", "--function", "exp", "--config", str(cfg_path), "--out", str(tmp_path)
    ])
    assert rc == 2
    assert "conflicts" in capsys.readouterr().err


# Each flag and the config field it sets: (command, flag arguments, the same
# value as a config tree). The base config sets every field to another value,
# so equal outputs also show that the flag overrides the file.
FLAG_AS_FIELD = {
    "iterations": ("fit", ["--iterations", "7"], {"ga": {"iterations": 7}}),
    "mutation": ("fit", ["--mutation", "gaussian"], {"ga": {"mutation_kind": "gaussian"}}),
    "seeds": ("fit", ["--seeds", "3,1"], {"seeds": [3, 1]}),
    "out": ("fit", ["--out", "elsewhere"], {"output": {"dir": "elsewhere"}}),
    "scales": ("eval", ["--scales=-7,-3"], {"scale_exponents": [-7, -3]}),
}


@pytest.mark.parametrize("case", sorted(FLAG_AS_FIELD))
def test_main_flag_equals_its_config_field(tmp_path, capsys, monkeypatch, case):
    command, flags, fields = FLAG_AS_FIELD[case]
    monkeypatch.chdir(tmp_path)
    _write_fit("t.fit.json", "gelu")
    base = {"function": "gelu", "ga": {"population_size": 10, "iterations": 3}}
    merged = json.loads(json.dumps(base))
    for key, value in fields.items():
        merged[key] = {**merged[key], **value} if key in merged else value
    argv = ["fit"] if command == "fit" else ["eval", "--table", "t.fit.json"]
    outputs = []
    for config, extra in ((base, flags), (merged, [])):
        with open("c.json", "w") as fh:
            json.dump(config, fh)
        assert main([*argv, "--config", "c.json", *extra]) == 0
        paths = capsys.readouterr().out.split()
        outputs.append({p: open(p, "rb").read() for p in paths})
        shutil.rmtree(os.path.dirname(paths[0]))
    assert outputs[0] == outputs[1]


def test_main_bad_flag_values_name_the_field(tmp_path, capsys):
    table_path = str(tmp_path / "t.fit.json")
    _write_fit(table_path, "gelu")
    div_path = str(tmp_path / "div.fit.json")
    _write_fit(div_path, "div")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"function": "gelu", "ga": 5}))
    out = str(tmp_path / "out")
    fit = ["fit", "--function", "gelu"]
    for argv, field in (
        ([*fit, "--seeds", ","], "seeds"),
        ([*fit, "--seeds", "0,0"], "seeds"),
        ([*fit, "--seeds=0,-1"], "seeds[1]"),
        ([*fit, "--iterations", "-1"], "ga.iterations"),
        (["eval", "--table", table_path, "--scales", ","], "scale_exponents"),
        (["eval", "--table", table_path, "--scales=-3,-3,-1"], "scale_exponents"),
        # a wide-range eval sweeps no scales; rm under a zero rm_prob never snaps
        (["eval", "--table", div_path, "--scales=-3"], "scale_exponents"),
        (["fit", "--function", "div", "--mutation", "rm"], "ga.mutation_kind"),
        # a flag is written into its section only when that is an object
        (["fit", "--config", str(cfg_path), "--iterations", "3"], "ga"),
    ):
        assert main([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid field {field}:"), err
    assert not os.path.exists(out)


def _write_fit(path: str, function: str):
    spec = default_spec(function)
    points = {"gelu": (-1.3, 0.7), "exp": (-5.0, -2.0), "div": (1.0, 2.0),
              "rsqrt": (1.0, 2.0)}[function]
    bps = BreakpointSet(points=points)
    write_fit_artifact(path, fxp_round_table(derive_table(spec, bps), 5), Provenance("abc", 0))


def test_main_export_field_widths_come_from_config(tmp_path, capsys):
    table_path = str(tmp_path / "t.fit.json")
    _write_fit(table_path, "gelu")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"function": "gelu", "datapath": {"param_bits": 12}}))
    out = str(tmp_path / "out")
    for fmt in ("data", "memh", "header"):
        argv = ["export", "--table", table_path, "--format", fmt, "--scale-exp", "-5",
                "--config", str(cfg_path), "--out", out]
        assert main(argv) == 0
    capsys.readouterr()
    qt, _ = read_artifact(os.path.join(out, "t.qtable.json"))
    text = open(os.path.join(out, "t.memh")).read()
    assert "slope[12] intercept[12] breakpoint[8]" in text
    words = [l for l in text.splitlines() if not l.startswith("//")]
    assert {len(w) for w in words} == {8}  # 12 + 12 + 8 bits
    words = [int(w, 16) for w in words]
    assert [_signed_field(w, 20, 12) for w in words] == list(qt.slopes_fxp)
    assert [_signed_field(w, 8, 12) for w in words] == list(qt.intercepts_fxp)
    assert [_signed_field(w, 0, 8) for w in words[:-1]] == list(qt.breakpoints_q)
    header = open(os.path.join(out, "t.h")).read()
    assert "static const int16_t T_SLOPES[3]" in header
    assert "static const int8_t T_BREAKPOINTS[2]" in header


def test_main_quant_section_only_restates_input_width(tmp_path):
    # a 16-bit datapath sweeps a 16-bit quantizer, with or without the
    # quant section restating it
    table_path = str(tmp_path / "t.fit.json")
    _write_fit(table_path, "gelu")
    table, _ = read_artifact(table_path)
    per_scale = sweep_scales(table, (-6, -5), DatapathConfig(input_bits=16)).per_scale
    assert per_scale[0] != sweep_scales(table, (-6,)).per_scale[0]
    for name, extra in (("wide", {}), ("both", {"quant": {"bits": 16, "signed": True}})):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(
            {"function": "gelu", "datapath": {"input_bits": 16}, **extra}
        ))
        argv = ["eval", "--table", table_path, "--config", str(cfg_path), "--scales=-6,-5",
                "--out", str(tmp_path / name)]
        assert main(argv) == 0
        with open(tmp_path / name / "t_report.json") as fh:
            assert json.load(fh)["per_scale"] == {str(e): m for e, m in per_scale}
    assert load_config(str(tmp_path / "wide.json")) == load_config(str(tmp_path / "both.json"))


def test_main_config_function_must_match_artifact(tmp_path, capsys):
    table_path = str(tmp_path / "t.fit.json")
    _write_fit(table_path, "gelu")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"function": "exp"}))
    out = str(tmp_path / "out")
    for argv in (
        ["eval", "--table", table_path],
        ["export", "--table", table_path, "--format", "memh", "--scale-exp", "-5"],
    ):
        assert main([*argv, "--config", str(cfg_path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert "artifact function gelu does not match config function exp" in err, err
    assert not os.path.exists(out)


def test_main_config_search_range_must_match_artifact(tmp_path, capsys):
    # eval and export run on the artifact's range; a config range that
    # differs exits 2, one that restates it changes nothing
    table_path = str(tmp_path / "t.fit.json")
    _write_fit(table_path, "gelu")
    commands = (
        ["eval", "--table", table_path],
        ["export", "--table", table_path, "--format", "memh", "--scale-exp", "-5"],
    )
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"function": "gelu", "search_range": [-1.0, 1.0]}))
    out = str(tmp_path / "out")
    for argv in commands:
        assert main([*argv, "--config", str(cfg_path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert ("artifact search_range [-4.0, 4.0] does not match config "
                "search_range [-1.0, 1.0]") in err, err
    assert not os.path.exists(out)
    cfg_path.write_text(json.dumps({"function": "gelu", "search_range": [-4, 4]}))
    for argv in commands:
        assert main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "restated")]) == 0
        assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    restated, plain = tmp_path / "restated", tmp_path / "plain"
    assert sorted(p.name for p in restated.iterdir()) == sorted(p.name for p in plain.iterdir())
    for path in restated.iterdir():
        assert path.read_bytes() == (plain / path.name).read_bytes(), path.name


def test_main_eval_is_independent_of_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a dot product of more than 10,000 elements across
    # threads, which moves the last bits of the sum; main runs BLAS on one
    # thread, so an int16 eval writes the same bytes under any inherited count
    table_path = str(tmp_path / "t.fit.json")
    _write_fit(table_path, "gelu")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"function": "gelu", "datapath": {"input_bits": 16},
                                    "scale_exponents": [-12, -11]}))
    for e in (-12, -11):
        q_min, q_max = eval_range_q(GELU, PowTwoScale(e), 16)
        assert q_max - q_min + 1 > 10_000
    src = os.path.dirname(os.path.dirname(pwl.__file__))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "lutfit.cli", "eval", "--table", table_path,
             "--config", str(cfg_path), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(outputs[0]) == ["t_report.json", "t_scales.csv"]
    assert outputs[0] == outputs[1]


def test_main_export_qtable_frac_bits_must_match_config(tmp_path, capsys):
    table_path = str(tmp_path / "t.fit.json")
    _write_fit(table_path, "gelu")
    out = str(tmp_path / "out")
    argv = ["export", "--table", table_path, "--format", "data", "--scale-exp", "-5"]
    assert main([*argv, "--out", out]) == 0
    qtable_path = capsys.readouterr().out.strip()
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"function": "gelu", "datapath": {"frac_bits": 6}}))
    out6 = str(tmp_path / "out6")
    for fmt in ("data", "header", "memh"):
        argv = ["export", "--table", qtable_path, "--format", fmt, "--config", str(cfg_path),
                "--out", out6]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "table frac_bits 5 does not match datapath.frac_bits 6" in err, err
    assert not os.path.exists(out6)
    # the stock config (frac_bits 5) exports the same qtable
    assert main(["export", "--table", qtable_path, "--format", "header", "--out", out6]) == 0


def test_main_export_rejects_a_scale_exp_it_would_ignore(tmp_path, capsys):
    # a div table is exported at datapath.frac_bits, and a quantized table at
    # the scale it was stored at; a --scale-exp either would ignore exits 2
    gelu, div = str(tmp_path / "gelu.fit.json"), str(tmp_path / "div.fit.json")
    _write_fit(gelu, "gelu")
    _write_fit(div, "div")
    stored = str(tmp_path / "stored")
    for argv in (["--table", gelu, "--scale-exp", "-5"], ["--table", div]):
        assert main(["export", *argv, "--format", "data", "--out", stored]) == 0
    capsys.readouterr()
    out = str(tmp_path / "out")
    for table, scale_exp in ((div, "-5"), (os.path.join(stored, "div.qtable.json"), "-5"),
                             (os.path.join(stored, "gelu.qtable.json"), "-2")):
        for fmt in ("data", "header", "memh"):
            argv = ["export", "--table", table, "--format", fmt, "--scale-exp", scale_exp,
                    "--out", out]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "invalid --scale-exp" in err, err
    assert not os.path.exists(out)
    # the stored exponent restates the qtable's scale and exports as without it
    qtable = os.path.join(stored, "gelu.qtable.json")
    for flags, directory in (([], "plain"), (["--scale-exp", "-5"], "restated")):
        argv = ["export", "--table", qtable, "--format", "header", *flags]
        assert main([*argv, "--out", str(tmp_path / directory)]) == 0
    header = (tmp_path / "restated" / "gelu.h").read_text()
    assert "#define GELU_SCALE_EXP -5" in header
    assert header == (tmp_path / "plain" / "gelu.h").read_text()


def test_main_wide_range_qtable_reexports_as_stored(tmp_path, capsys):
    # a div or rsqrt qtable holds no scale; it re-exports in every format,
    # and its data export is the file it was read from
    stored, again = tmp_path / "stored", tmp_path / "again"
    for function in ("div", "rsqrt"):
        table = str(tmp_path / f"{function}.fit.json")
        _write_fit(table, function)
        assert main(["export", "--table", table, "--format", "data", "--out", str(stored)]) == 0
        qtable = stored / f"{function}.qtable.json"
        for fmt in ("data", "header", "memh"):
            argv = ["export", "--table", str(qtable), "--format", fmt, "--out", str(again)]
            assert main(argv) == 0, capsys.readouterr().err
        assert (again / qtable.name).read_bytes() == qtable.read_bytes()
        assert f"#define {function.upper()}_ENTRIES 3" in (again / f"{function}.h").read_text()


@pytest.mark.parametrize("stem", ["gelu-best", "gelu best v2", "8e_gelu"])
def test_main_header_export_needs_a_c_identifier_stem(tmp_path, capsys, stem):
    # the header's identifiers are the upper-cased stem plus _ENTRIES, ...
    table = str(tmp_path / f"{stem}.fit.json")
    _write_fit(table, "gelu")
    out = tmp_path / "out"
    argv = ["export", "--table", table, "--scale-exp", "-5", "--out", str(out)]
    assert main([*argv, "--format", "header"]) == 2
    err = capsys.readouterr().err
    assert (f"invalid --table: the header's identifier prefix is the upper-cased file stem, "
            f"and {stem.upper()!r} is not a C identifier") in err, err
    assert not out.exists()
    # the other formats do not name anything after the stem
    for fmt in ("data", "memh"):
        assert main([*argv, "--format", fmt]) == 0


def test_main_wide_range_eval_plan_must_lie_inside_the_table_range(tmp_path, capsys):
    # div-int8 folds every input into (0.5, 4.0); a table fitted on (1.0, 4.0)
    # would extrapolate below 1.0, so the eval exits 2 with or without the
    # config the table was fitted under
    spec = NonLinSpec(Kind.DIV, (1.0, 4.0))
    table = fxp_round_table(derive_table(spec, BreakpointSet((1.5, 2.0, 3.0))), 5)
    table_path = str(tmp_path / "div.fit.json")
    write_fit_artifact(table_path, table, Provenance("abc", 0))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"function": "div", "search_range": [1.0, 4.0]}))
    out = tmp_path / "out"
    for flags in ([], ["--config", str(cfg_path)]):
        assert main(["eval", "--table", table_path, *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("invalid field plan: inner range [0.5, 4.0] is not inside the table's "
                "search_range [1.0, 4.0]") in err, err
    assert not out.exists()


def test_main_export_checks_field_widths_in_every_format(tmp_path, capsys):
    # a slope mantissa of 300 needs 10 bits; a data export holds the same
    # fields as memh and header, so all three reject it
    qt = QPwlTable(slopes_fxp=(0, 300), intercepts_fxp=(0, 0), breakpoints_q=(0,), frac_bits=5,
                   spec=GELU, scale=PowTwoScale(-5))
    qtable_path = str(tmp_path / "wide.qtable.json")
    write_qtable_artifact(qtable_path, qt, Provenance("abc", 0))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"function": "gelu", "datapath": {"param_bits": 8}}))
    out = str(tmp_path / "out")
    for fmt in ("data", "header", "memh"):
        argv = ["export", "--table", qtable_path, "--format", fmt, "--config", str(cfg_path),
                "--out", out]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "slope 300 does not fit datapath.param_bits 8" in err, err
    assert not os.path.exists(out)
    # the stock 16-bit parameter fields hold it
    assert main(["export", "--table", qtable_path, "--format", "data", "--out", out]) == 0


# Two fixed tables written as fit artifacts, exported in every format by the
# CLI; the sha256 of each output pins the export bytes.
PINNED_EXPORT_TABLES = {
    "gelu_8e": ("gelu", (-2.5, -1.5, -0.75, 0.0, 0.75, 1.5, 2.5), ["--scale-exp", "-5"]),
    "rsqrt_16e": (
        "rsqrt",
        (0.375, 0.5, 0.625, 0.75, 0.875, 1.0, 1.25, 1.5, 1.75, 2.0, 2.375, 2.75, 3.0,
         3.25, 3.5),
        [],
    ),
}

PINNED_EXPORT_SHA256 = {
    "gelu_8e.h": "f751634b1617ed0dca504a5a7b1e180ac13c326ab37b041dba5c86a52d51b295",
    "gelu_8e.memh": "ad83a0eb507750e45469c7becccc9e558e08205464068db6ec640e5609fd05e9",
    "gelu_8e.qtable.json": "6f9110a96639b5f20d836f0b6ced92d6bb77e2e19d6170e48637cf08ae07ac7c",
    "rsqrt_16e.h": "170ae8a0af1445b8e2956225fbc1f856e05bf441a90174dbad5568bc2cf1021d",
    "rsqrt_16e.memh": "77ec41a672ce137fec1a28e7d918331270394b1b184c2c0ef248ed54ea623bdc",
    "rsqrt_16e.qtable.json": "50f558eb5dc78c6bd2b31b0896dabc0207a50560c1ce047a2a8ea492b31ed4d1",
}


def test_main_export_bytes_are_pinned(tmp_path, capsys):
    import hashlib

    digests = {}
    for stem, (function, points, extra) in PINNED_EXPORT_TABLES.items():
        spec = default_spec(function)
        table = fxp_round_table(
            derive_table(spec, BreakpointSet(points=points)), 5
        )
        path = str(tmp_path / f"{stem}.fit.json")
        write_fit_artifact(path, table, Provenance("pinned", 0))
        for fmt in ("memh", "header", "data"):
            out = str(tmp_path / fmt)
            assert main(["export", "--table", path, "--format", fmt, "--out", out, *extra]) == 0
            (written,) = capsys.readouterr().out.split()
            with open(written, "rb") as fh:
                digests[os.path.basename(written)] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == PINNED_EXPORT_SHA256
