"""Record benchmark/reference.json from the code as it stands:

    python3 benchmark/record_reference.py

It keeps every workload's outputs at the recorded seed (ledger rows, lab
rows, final error norms) and sets the error ceiling of each forced
workload to CEILING_FACTOR times the largest final error over
CEILING_SEEDS.  The file was written once, at the commit that introduced
the benchmark; later changes are checked against it and must not rewrite
it to make a check pass.
"""

import json
import sys

sys.dont_write_bytecode = True

from checks import REFERENCE_PATH  # noqa: E402
from run import run_rep  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

CEILING_SEEDS = range(10)
CEILING_FACTOR = 1.5


def _recorded(workload, seed):
    result = run_rep(workload, seed, traced=False, index=0, recording=True)
    if result["failed"]:
        raise SystemExit(f"{workload} seed {seed} failed: {result['checks']} "
                         f"{result.get('error')}")
    return result


def main():
    reference = {"seed": REFERENCE_SEED}
    ceiling = {}
    for name, spec in WORKLOADS.items():
        result = _recorded(name, REFERENCE_SEED)
        if spec["kind"] == "lab":
            reference[name] = {"rows": result["rows"]}
            continue
        reference[name] = {"ledger": result["ledger"]}
        if spec["forcing"] != "none":
            reference[name]["errors"] = result["errors"]
            for seed in CEILING_SEEDS:
                errors = _recorded(name, seed)["errors"]
                for key, value in errors.items():
                    ceiling[key] = max(ceiling.get(key, 0.0), CEILING_FACTOR * value)
    reference["error_ceiling"] = ceiling
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
