"""Golden pins: sha256 of the fit artifacts for every (function, entries) pair.

Stock hyperparameters, seeds 0 and 1, 60 generations, written through
cmd_fit. Any change to the GA's draws, its fitness arithmetic or the
artifact text moves these digests; a change that is meant to alter fits
must update them and say why.

The fitness log records every generation's best fitness to the last bit,
so its digest also catches float-order changes in the fitness kernel that
the fixed-point rounding of the artifacts hides. GELU has no log pin: its
reference uses math.erf, which CPython takes from the platform's C
library, so its last bits may differ between platforms.

div and rsqrt have no rounding-mutation grid, so their stock fits use
Gaussian mutation; the Gaussian pins add two scale-carrying operators, whose
Gaussian fits clip against other range ends.

Every fit artifact embeds its config_hash, so the stock configs' hashes are
pinned on their own as well, and so are the gated values of a stock int8
eval of one fixed table per operator. The same fixed tables pin both
quantizers (every field of the quantized-table artifact) and the float
model of the wide-range ones.
"""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from lutfit.artifacts import Provenance, qtable_artifact_text, write_fit_artifact
from lutfit.cli import cmd_fit, main
from lutfit.config import config_from_dict, config_hash
from lutfit.evolve import MutationKind
from lutfit.fxp import DatapathConfig
from lutfit.nonlin import default_spec
from lutfit.pwl import BreakpointSet, derive_table, fitness_grid, fxp_round_table
from lutfit.quant import (
    PowTwoScale,
    eval_qpwl_real,
    fxp_quantize_table,
    get_plan,
    quantize_table,
    select_subrange,
)

GENERATIONS = 60

GOLDEN = {
    ("gelu", 8): (
        "c94cd84c6aedcb48ff09acbb168e4a36c95062ec74fd140973b88c0a286fd416",
        "2128161a0d887585e4f48b63f33f84cba529e45dd1f2fb9f7b5605d85a966d06",
    ),
    ("gelu", 16): (
        "271cc120e9816e11079632c676ab2c7b84fcb58bb13081e7b5de7ccf9ae633ee",
        "38060f5fee085d2ee337348300de2069d005c1139941fd102bb4eb6998f321d1",
    ),
    ("hswish", 8): (
        "5ed68c54954e77c093d5d186c4bb59aa7aaa8d87645063074cc880b5d7d76fe3",
        "34750b6377d0cac484f0840a4dd69953e806cc9eb05886f9928c51c329f91fb4",
    ),
    ("hswish", 16): (
        "d025f7a7cd042de252bdf957e07383e7ba90210b4d748f4b2e6abda24030ce17",
        "6984f8c19da03edcec8a7bf59816f0a1609633da56f5f0802442d840167b80dd",
    ),
    ("exp", 8): (
        "c7203f2e41622fbd179deb6df7cbaf7a7563936a6e99bc8e3c9c5ead65967ea0",
        "aa15786a55490081593e1ce2008ebd372c43e06d0cd1a125b57e5bf5d8b47d15",
    ),
    ("exp", 16): (
        "bf1b02e15c3128f75d30c0f5893f80968fc5b99796a6ed76f3b09cd800197cea",
        "ada26eb3bcf621819ba36e7f8c453f7a7cb0bb0675a074b4f0a2f08ea5ecbfa2",
    ),
    ("div", 8): (
        "6e34469458adc9a820ad4e2ba6ca340aebaeefe5f9d83a16b46d0bae3f067f97",
        "971f753b08f273991b13c234aecfaf430ddcfc7cb83d01afcf9091fe194f1332",
    ),
    ("div", 16): (
        "6be7ebb71e7275364f7c386858bb179462d4d1164abe52714c2b1a6704c6a3d0",
        "09ea0afbef126908505a6a918ce7f85a3273e4ad1368e1a345087d8762aa5a28",
    ),
    ("rsqrt", 8): (
        "369f6942dcd9f851d59a2e01e828f12209797801cf0529146ead4dd9590ea3c0",
        "22d9533a88f5d82510c2803a2b2c051bc940047fb9417c44e956c411efdce069",
    ),
    ("rsqrt", 16): (
        "7b6453044507e3d1987232d6fd21c4135b3390c6496ebbf50149090c52db4399",
        "fe0efbf6c53bff02588adf8bbd4edab3277d7bc34cf9669494c0ed42ad09ed0b",
    ),
}

FITLOG_GOLDEN = {
    ("hswish", 8): "2bb29f7c048115d3f30865bd479679df260e389e69110bf9de12a39a391d6795",
    ("hswish", 16): "5bf5bb60ebe71ecf349193e65aeb051a85d5dbedf759758c02a866842b381bac",
    ("exp", 8): "8b6d4c66d4918358c15e899c3814fc2144ba015cb069bfa1701b3012f6728f82",
    ("exp", 16): "890191f6d47e7ebeefcd79e1c87a5ea70e71f407ddabac30a1501fafebeff50e",
    ("div", 8): "cd8d621e2ba6c759fe6a757b0087cc5dbbb84eb9b0be56b2197f10371a6fd2be",
    ("div", 16): "411048b7c46959df3fef6b0b54f82cd5f7b8a00e16fb5c50665db925b6eeaa8e",
    ("rsqrt", 8): "f10a677c2ec0d5101b7bdc149cc1f4c9806dc7aeb6ac74588762a52538868138",
    ("rsqrt", 16): "0dbd72c55b4854cb9b325ba462465cda2188f3efc9ef874603727b5200762a23",
}


@pytest.mark.parametrize("function,entries", sorted(GOLDEN))
def test_fit_artifacts_match_golden_digests(tmp_path, function, entries):
    cmd_fit(config_from_dict({"function": function, "entries": entries, "seeds": [0, 1],
                              "ga": {"iterations": GENERATIONS}, "output": {"dir": str(tmp_path)}}))
    digests = []
    for seed in (0, 1):
        path = os.path.join(str(tmp_path), f"{function}_{entries}e_seed{seed}.fit.json")
        with open(path, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    assert tuple(digests) == GOLDEN[(function, entries)]
    if (function, entries) in FITLOG_GOLDEN:
        path = os.path.join(str(tmp_path), f"{function}_{entries}e_fitlog.csv")
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == FITLOG_GOLDEN[(function, entries)]


# Gaussian-mutation fits of scale-carrying operators: (seed 0, seed 1, fitlog).
GAUSSIAN_GOLDEN = {
    ("hswish", 8): (
        "8d6726eca6bdfdfc45ac9d205ba545aab003a6c3c4430038814568eceb0feb35",
        "eb5f644c53324e1d58ea1ca4e928b7604cdc2185b49a30baac810fb2c4efa0c3",
        "a5be8e1ae31e6c042ce7714bd700dc9fb43a26b70de0daaea1c91fc8ebb3fa9a",
    ),
    ("exp", 16): (
        "c4f078c117d634115d80bb1c10b2b24f53242ab7acf4d7425607f3e9db0bf117",
        "56bb5d95f5509d6b698c23f38edadccdca3663cf83a29f53e0c3fffb24241df5",
        "692175b2755c2e2c43446c71bd94e31eb929befe67aac673eca01140fad949a1",
    ),
}


def test_stock_wide_range_fits_are_gaussian():
    # so the div and rsqrt pins above cover gaussian_mutate
    for function in ("div", "rsqrt"):
        for entries in (8, 16):
            ga = config_from_dict({"function": function, "entries": entries}).ga
            assert ga.mutation_kind is MutationKind.GAUSSIAN


@pytest.mark.parametrize("function,entries", sorted(GAUSSIAN_GOLDEN))
def test_gaussian_fit_artifacts_match_golden_digests(tmp_path, function, entries):
    cmd_fit(config_from_dict({
        "function": function, "entries": entries, "seeds": [0, 1],
        "ga": {"iterations": GENERATIONS, "mutation_kind": "gaussian"},
        "output": {"dir": str(tmp_path)},
    }))
    stem = os.path.join(str(tmp_path), f"{function}_{entries}e")
    digests = []
    for path in (f"{stem}_seed0.fit.json", f"{stem}_seed1.fit.json", f"{stem}_fitlog.csv"):
        with open(path, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    assert tuple(digests) == GAUSSIAN_GOLDEN[(function, entries)]


# Stock 500-generation seed-0 fits of the two fit-stock operators that
# tests/test_acceptance.py's full-length pins (8 entries, artifacts only) do
# not cover: (artifact, fitlog). The fitlog carries the fitness bits that
# the rounded artifact hides.
FULL_LENGTH_GOLDEN = {
    ("exp", 16): (
        "8afb0d87cbe9abcf2fc07301f464239b824c427145ace1602756466bb329a813",
        "c70088b48f0e5748054ce518d60d90017ee7432929338e1138c9060e86b8e0dd",
    ),
    ("rsqrt", 16): (
        "fe69d5c7eeb6fc7389d51e50bb2d6b38339e5bfae67a35b4ed56e951d7b0b1eb",
        "951fd50a4f121537ee1df0ae4b1e09bba8f0c6963f0f32bce519cc4c92b2aec0",
    ),
}


@pytest.mark.parametrize("function,entries", sorted(FULL_LENGTH_GOLDEN))
def test_full_length_sixteen_entry_fits_match_golden_digests(tmp_path, function, entries):
    cmd_fit(config_from_dict({"function": function, "entries": entries, "seeds": [0],
                              "output": {"dir": str(tmp_path)}}))
    stem = os.path.join(str(tmp_path), f"{function}_{entries}e")
    digests = []
    for path in (f"{stem}_seed0.fit.json", f"{stem}_fitlog.csv"):
        with open(path, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    assert tuple(digests) == FULL_LENGTH_GOLDEN[(function, entries)]


# config_hash of the stock config of every (function, entries) pair.
STOCK_CONFIG_HASH = {
    ("gelu", 8): "473a7e06530fbdedf3bd3b733403c7e93532297c56ae41e70c42c246b3cdc3ef",
    ("gelu", 16): "0ae2600e41a02d8340fab74cfbfef4e592f43d44c0aff79ff1ca65329c04918c",
    ("hswish", 8): "4f763626e4d3fcaa6556f35116ee2e8bfab2e7bc488ae48b7c64f89fed85a8f5",
    ("hswish", 16): "e03e4f02421fc1b7b8238010e40e0f3522024a74c5be068717f55e6fcf7a36bc",
    ("exp", 8): "f12c3b0ec260f38a997d352220d3d8569f0d68981ea21704423684f3943f9812",
    ("exp", 16): "6d37dc7c341a93bc3e0a41ed791f2f123b98c81aabb6f1eebf03ce33c022f815",
    ("div", 8): "e87bebbe7473eae41e89de0f15c7cf2dce4a932d47d63092dc95c34089348bfd",
    ("div", 16): "771e55aa87e087a75726e6e09175bffa4f16173afb6d0bbf23423c4f235667f9",
    ("rsqrt", 8): "909e6bc98d6a3fea5394bfd5ae2ac6a11ce86888eeecd8268a6f701f46d65581",
    ("rsqrt", 16): "1794c619a86501bd608fdb59173ba1d61f3cfff516d4f7c14162fcb8bbeaf4c9",
}


def test_stock_config_hashes_are_pinned():
    hashes = {key: config_hash(config_from_dict({"function": key[0], "entries": key[1]}))
              for key in STOCK_CONFIG_HASH}
    assert hashes == STOCK_CONFIG_HASH


# One fixed-breakpoint 8-entry table per operator, rounded to lambda = 5 and
# evaluated by `lutfit eval` under its stock config: the int8 sweep over
# 2^-6..2^-1 for scale-carrying operators, the stock plan for div and rsqrt.
# The hswish and exp tables collapse breakpoints at the finest scales.
EVAL_TABLES = {
    "gelu": (-2.5, -1.5, -0.75, 0.0, 0.75, 1.5, 2.5),
    "hswish": (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0),
    "exp": (-6.0, -4.5, -3.25, -2.25, -1.5, -0.875, -0.375),
    "div": (0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5),
    "rsqrt": (0.375, 0.5, 0.75, 1.0, 1.5, 2.25, 3.0),
}

EVAL_GOLDEN = {
    "gelu": {
        "per_scale": {
            "-1": 0.00029785802725213763,
            "-2": 0.0003111950738466202,
            "-3": 0.0003183792031246329,
            "-4": 0.00032092174370273785,
            "-5": 0.00032341439153516047,
            "-6": 0.0005970861536855735,
        },
        "average_mse": 0.00036147576552447713,
    },
    "hswish": {
        "per_scale": {
            "-1": 0.000453176062091504,
            "-2": 0.00045211226851851906,
            "-3": 0.0004477998130341884,
            "-4": 0.00044795914419143006,
            "-5": 0.0004505945576561824,
            "-6": 0.001004832486311594,
        },
        "average_mse": 0.0005427457219672364,
    },
    "exp": {
        "per_scale": {
            "-1": 0.00015770614828383475,
            "-2": 8.773588303740444e-05,
            "-3": 9.48121239216426e-05,
            "-4": 9.655791012109672e-05,
            "-5": 0.00016917268675582464,
            "-6": 0.00014229798772854655,
        },
        "average_mse": 0.00012471378997472494,
    },
    "div": {"mse": 4.367182169817507e-05},
    "rsqrt": {"mse": 2.4460180907995974e-05},
}


@pytest.mark.parametrize("function", sorted(EVAL_TABLES))
def test_stock_eval_reports_are_pinned(tmp_path, function):
    spec = default_spec(function)
    table = derive_table(spec, BreakpointSet(EVAL_TABLES[function]))
    path = str(tmp_path / f"{function}.fit.json")
    write_fit_artifact(path, fxp_round_table(table, 5), Provenance("pinned", 0))
    assert main(["eval", "--table", path, "--out", str(tmp_path)]) == 0
    with open(tmp_path / f"{function}_report.json") as fh:
        report = json.load(fh)
    assert {key: report[key] for key in EVAL_GOLDEN[function]} == EVAL_GOLDEN[function]


def eval_table(function):
    table = derive_table(default_spec(function), BreakpointSet(EVAL_TABLES[function]))
    return fxp_round_table(table, 5)


# sha256 over the quantized-table artifacts of quantize_table at every scale
# exponent -12..-1 (in that order), per operator and input width. The int8
# sweeps collapse breakpoints at the finer scales.
QUANTIZE_GOLDEN = {
    ("exp", 8): "f3cef02a2d59bd41de46307f5596038ae1ea58f40eb347223293e9cd47af2f31",
    ("exp", 16): "1a6fd0985673c6c4fb4c787f9003249cf9ea1512814556f0e51d8f735fa4b9f2",
    ("gelu", 8): "15c5c6b2b566b23d321409690211ce45fe94eb2c8660b8128adb6c0ad6a85625",
    ("gelu", 16): "918bc2d303af99261146f4594ff1347c86d95cdae616886a9d91a884fef4b5eb",
    ("hswish", 8): "6c50c002b42337a2f825f6f09f431c5d8f24cfa5fc4d472ecd8799fc9cfdb53c",
    ("hswish", 16): "94dc86abadc8a1efd395bd4af6cea20bacb79e680d030a011a61cf0631674c67",
}


@pytest.mark.parametrize("function,bits", sorted(QUANTIZE_GOLDEN))
def test_quantize_table_artifacts_are_pinned(function, bits):
    digest = hashlib.sha256()
    collapsed = 0
    for e in range(-12, 0):
        datapath = DatapathConfig(input_bits=bits)
        qtable = quantize_table(eval_table(function), PowTwoScale(e), datapath)
        collapsed += len(qtable.dropped_segments)
        digest.update(qtable_artifact_text(qtable, Provenance("pinned", 0)).encode())
    assert digest.hexdigest() == QUANTIZE_GOLDEN[(function, bits)]
    assert collapsed > 0 if bits == 8 else collapsed == 0


# Narrow enough that both wide-range tables saturate and collapse.
NARROW = DatapathConfig(frac_bits=7, param_bits=8)

# (quantized-table artifact, eval_qpwl_real bytes on wide_range_mse's samples
# of the stock plan) of fxp_quantize_table under the stock and NARROW datapaths.
FXP_QUANTIZE_GOLDEN = {
    ("div", "stock"): (
        "812dfa358471e19cc5812012396d89a614116b3ebdfd2868bd89e0a835aef7c6",
        "5caf11f23f0bc2f3bf83db8fdfc7a25695259edf522bb1ce7a94b1b92edb609e",
    ),
    ("div", "narrow"): (
        "9dc29b66cbf6014de0f1f74030beda0583efe1f9af9b1c42a67444a120926b79",
        "9ba3e5f13c880c36d1bf387f4fce0aec217fb0ae65b5b390cb0a8a47fac2f808",
    ),
    ("rsqrt", "stock"): (
        "c688e28942d13232472fab3b92ff71ab539d745ab58f42d18bb41bb0db3b736b",
        "82517e5ab7cd7e29d72b21c771489772e16ad7fba6d8708bf1da47d0dd59429f",
    ),
    ("rsqrt", "narrow"): (
        "8bc4be757e62b19d66d1c083f717ae4f0095a96c50d0b80d6899bc8bd90dd1cb",
        "5787f2d5149244efc78a09044cd3f4faf76939700d9ae9013f828d46e612e8fc",
    ),
}


def wide_range_samples(plan):
    """wide_range_mse's inputs, folded into the plan's inner range."""
    xs = [fitness_grid(plan.inner_range)[0]]
    for sr in plan.sub_ranges:
        if math.isfinite(sr.hi):
            xs.append(sr.lo + (sr.hi - sr.lo) * np.arange(1024) / 1024)
    samples = np.concatenate(xs)
    exponents, _ = select_subrange(samples, plan)
    return samples * np.ldexp(1.0, exponents)


@pytest.mark.parametrize("function,datapath", sorted(FXP_QUANTIZE_GOLDEN))
def test_fxp_quantize_table_artifacts_and_float_model_are_pinned(function, datapath):
    narrow = datapath == "narrow"
    qtable = fxp_quantize_table(eval_table(function), NARROW if narrow else DatapathConfig())
    assert bool(qtable.saturated) == narrow
    ys = eval_qpwl_real(qtable, wide_range_samples(get_plan(f"{function}-int8")))
    digests = (
        hashlib.sha256(qtable_artifact_text(qtable, Provenance("pinned", 0)).encode()).hexdigest(),
        hashlib.sha256(ys.tobytes()).hexdigest(),
    )
    assert digests == FXP_QUANTIZE_GOLDEN[(function, datapath)]
