"""Write one workload's input files with lutfit's public table functions.

Usage: python geninputs.py PLAN_JSON INPUT_DIR

PLAN_JSON holds {"tables": {file: {"function", "entries", "spacing",
"fractions"}}, "configs": {file: run-config object}, "frac_bits", "label",
"seed"}. Tables go through
repaired_breakpoints -> derive_table -> fxp_round_table -> write_fit_artifact,
so they do not depend on the genetic search. Exits non-zero if lutfit is
imported from anywhere but the src/ directory next to this benchmark.
"""

import json
import os
import sys


def place(spacing: str, fractions, lo: float, hi: float) -> list:
    """Breakpoints at the given fractions of [lo, hi]: evenly spaced
    ("linear"), evenly spaced in log x ("log"), or denser toward hi with
    spacing shrinking linearly ("square")."""
    if spacing == "log":
        return [lo * (hi / lo) ** f for f in fractions]
    if spacing == "square":
        return [hi - (hi - lo) * (1.0 - f) ** 2 for f in fractions]
    return [lo + (hi - lo) * f for f in fractions]


def main(plan_path: str, input_dir: str) -> int:
    import lutfit
    from lutfit.artifacts import Provenance, write_fit_artifact
    from lutfit.nonlin import default_spec
    from lutfit.pwl import derive_table, fxp_round_table, repaired_breakpoints

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(lutfit.__file__).startswith(src + os.sep):
        print(f"lutfit imported from {lutfit.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    os.makedirs(input_dir, exist_ok=True)
    for name, cfg in plan["configs"].items():
        with open(os.path.join(input_dir, name), "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
    for name, t in plan["tables"].items():
        spec = default_spec(t["function"])
        points = place(t["spacing"], t["fractions"], *spec.search_range)
        table = derive_table(spec, repaired_breakpoints(points, spec.search_range))
        table = fxp_round_table(table, plan["frac_bits"])
        write_fit_artifact(os.path.join(input_dir, name), table,
                           Provenance(config_hash=plan["label"], seed=plan["seed"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
