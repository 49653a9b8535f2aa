"""vmsns benchmark: run one workload (or all) and print its metrics.

    python3 benchmark/run.py --workload vortex_n24 --seed 0 --seconds 40 --trace 0
    python3 benchmark/run.py --workload all

Run from the root of a checkout; the program is imported from its ``src``.
Each repetition of a workload is a fresh interpreter (benchmark/worker.py),
so set-up includes ``import vmsns`` and peak memory is the workload's own.
Repetitions continue while the next one fits in ``--seconds`` (at least
three untraced, or one traced plus one untraced with ``--trace 1``); the
metrics are medians over them.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics from the traced repetitions
and the tracing overhead against the untraced ones.  The last line of
output is one JSON object: correct, attempted, failed, metrics.
Everything the run writes goes under ``.bench_out/``.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

sys.dont_write_bytecode = True

from environment import THREAD_ENV  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, config_text  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

#: untraced repetitions per run, at least: set-up is a median of these
MIN_REPS = 3
#: a run must end within 180 s: no repetition starts unless it should end
#: by HARD_LIMIT_S, and one still going at RUN_LIMIT_S is killed
HARD_LIMIT_S = 120.0
RUN_LIMIT_S = 170.0
#: a tail percentile is reported only with this many samples beyond it
MIN_BEYOND = 10

END_TO_END = {"setup_s": "s", "wall_s": "s", "step_p50_s": "s",
              "peak_rss_mb": "MB"}


def tail_percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile, or None unless at least ``min_beyond``
    samples lie strictly above it."""
    xs = sorted(samples)
    if not xs:
        return None
    value = xs[max(math.ceil(q * len(xs)) - 1, 0)]
    if sum(x > value for x in xs) < min_beyond:
        return None
    return value


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _planned_ops(workload):
    spec = WORKLOADS[workload]
    own = spec["steps"] + 2 if spec["kind"] == "stepping" else len(spec["levels"]) + 1
    return own + 1          # plus at least one output check


def run_rep(workload, seed, traced, index, recording=False, timeout=RUN_LIMIT_S):
    """One repetition in a fresh interpreter; returns its result dict.
    A worker that dies without a result counts every operation failed."""
    wdir = os.path.join(OUT, workload)
    out_dir = os.path.join(wdir, "output")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    spec = {"workload": workload, "seed": seed, "traced": traced,
            "recording": recording, "root": ROOT, "out_dir": out_dir,
            "result": os.path.join(wdir, f"rep{index}.json"),
            "spans": os.path.join(wdir, f"spans-seed{seed}-rep{index}.json")}
    if WORKLOADS[workload]["kind"] == "stepping":
        spec["config"] = os.path.join(wdir, f"seed{seed}.cfg")
        rel_out = os.path.relpath(out_dir, ROOT)
        with open(spec["config"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(config_text(workload, seed, rel_out))
    spec_path = os.path.join(wdir, f"rep{index}.spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    if os.path.exists(spec["result"]):
        os.remove(spec["result"])

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)
        detail = proc.stderr[-2000:]
    except subprocess.TimeoutExpired:
        detail = f"repetition killed after {timeout:.0f} s"
    try:
        with open(spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        ops = _planned_ops(workload)
        return {"traced": traced, "attempted": ops, "failed": ops,
                "error": detail or "worker wrote no result", "checks": {},
                "step_s": []}
    if result["error"] is None and result["failed"]:
        result["error"] = detail
    return result


def _reps(workload, seed, seconds, trace):
    """Repetitions for one run: untraced only, or alternating untraced and
    traced with ``trace``; a new one starts only if it should fit."""
    reps, start = [], perf_counter()
    while True:
        began = perf_counter()
        reps.append(run_rep(workload, seed, trace and len(reps) % 2 == 1, len(reps),
                            timeout=RUN_LIMIT_S - (began - start)))
        now = perf_counter()
        last, elapsed = now - began, now - start
        if elapsed + last > HARD_LIMIT_S:
            return reps
        if len(reps) >= (2 if trace else MIN_REPS) and elapsed + last > seconds:
            return reps


def _end_to_end(untraced):
    steps = [x for r in untraced for x in r["step_s"]]
    return {
        "setup_s": (_median(r.get("setup_s") for r in untraced), len(untraced), "reps"),
        "wall_s": (_median(r.get("wall_s") for r in untraced), len(untraced), "reps"),
        "step_p50_s": (_median(steps), len(steps), "steps"),
        "peak_rss_mb": (_median(r.get("peak_rss_mb") for r in untraced),
                        len(untraced), "reps"),
    }


def _per_layer(traced, untraced):
    layers = [r["layer"] for r in traced if "layer" in r]
    out = {name: (_median(m[name] for m in layers), len(layers), "traced reps")
           for name in LAYER_UNITS if name != "trace.overhead_s"}
    walls = [_median(r.get("wall_s") for r in group) for group in (traced, untraced)]
    overhead = None if None in walls else walls[0] - walls[1]
    out["trace.overhead_s"] = (overhead, min(len(traced), len(untraced)), "rep pairs")
    return out


def _env_note(env):
    """Warn when the environment differs from the previous result kept in
    .bench_out, so numbers from two machines are not compared silently."""
    path = os.path.join(OUT, "last_env.json")
    try:
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
    except (OSError, ValueError):
        previous = None
    if previous and previous.get("fingerprint") != env.get("fingerprint"):
        changed = sorted(k for k in env if k not in ("fingerprint", "git_commit")
                         and env[k] != previous.get(k))
        print(f"warning: environment differs from the previous result "
              f"({', '.join(changed)}); do not compare their numbers",
              file=sys.stderr)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(env, fh, indent=1)


def run_workload(workload, seed, seconds, trace):
    reps = _reps(workload, seed, seconds, trace)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if trace:
        metrics, units = _per_layer(traced, untraced), LAYER_UNITS
    else:
        metrics, units = _end_to_end(untraced), END_TO_END
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    env = next((r["env"] for r in reps if "env" in r), {})

    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"reps {len(untraced)} untraced + {len(traced)} traced")
    for name, (value, n, what) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {units[name]:6s} median of {n} {what}")
    steps = [x for r in untraced for x in r["step_s"]]
    p90 = None if trace else tail_percentile(steps, 0.9)
    if p90 is not None:
        print(f"  {'step_p90_s':40s} {p90:>14.6g} {'s':6s} p90 of {len(steps)} "
              f"steps, {sum(x > p90 for x in steps)} beyond it")
    print(f"  operations: {attempted} attempted, {failed} failed")
    for i, r in enumerate(reps):
        bad = {k: v for k, v in r.get("checks", {}).items() if v != "ok"}
        if r.get("error") or bad:
            print(f"  rep {i}: {bad or ''} {r.get('error') or ''}".rstrip(),
                  file=sys.stderr)
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if env:
        _env_note(env)

    summary = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": trace, "env": env, "attempted": attempted,
               "failed": failed,
               "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                           for k, (v, n, _) in metrics.items()},
               "step_p90_s": p90,
               "reps": [{k: r.get(k) for k in ("traced", "wall_s", "setup_s",
                                               "peak_rss_mb", "step_s",
                                               "picard", "errors", "checks",
                                               "error", "layer",
                                               "closure_residual_s")}
                        for r in reps]}
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    correct = failed == 0 and all(v is not None for v, _, _ in metrics.values())
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, (v, _, _) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "vmsns", "__init__.py")):
        print(f"no vmsns sources under {os.path.join(ROOT, 'src')}: run the "
              f"benchmark from a full checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace)
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{k}": v for name, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
