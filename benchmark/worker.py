"""One repetition of one workload, in a fresh interpreter.

    python3 benchmark/worker.py <spec.json>

The spec names the workload, seed, whether to trace, and where to write.
The clock starts at the first statement below, so the workload's time
includes ``import vmsns``.  The untraced run times one boundary
(``solver.step``, or ``spectral_lab.build_star_space`` for the lab); the
traced run wraps every public function.  Output checks run after the
clock stops.  The result goes to the spec's ``result`` path as JSON.
"""

from time import perf_counter

T0 = perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

BOUNDARY = {"stepping": "solver.step", "lab": "spectral_lab.build_star_space"}


def _stepping(spec, captured):
    import vmsns.cli as cli

    argv = ["--config", spec["config"]]
    captured["rc_run"] = cli.main(["run"] + argv)
    captured["rc_check"] = cli.main(["check"] + argv)


def _lab(spec, captured):
    from vmsns import io, spectral_lab

    path = os.path.join(spec["out_dir"], "equivalence.csv")
    captured["report"] = spectral_lab.run_equivalence_suite(
        levels=tuple(WORKLOADS[spec["workload"]]["levels"]), dim=2,
        seed=spec["seed"])
    captured["suite_end"] = perf_counter()
    io.write_equivalence_csv(captured["report"], path)
    captured["read_back"] = io.read_equivalence_csv(path)


def _capture_run(captured):
    """After ``vmsns.solver`` executes, keep what ``solver.run`` returns
    (the CLI discards it) so its states can be checked."""

    def on_exec(module):
        if module.__name__ != "vmsns.solver":
            return
        run = module.run

        def capturing_run(*args, **kwargs):
            captured["result"] = result = run(*args, **kwargs)
            return result

        module.run = capturing_run

    return on_exec


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[spec["workload"]]
    kind = workload["kind"]
    root = spec["root"]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    tracer = tracing.Tracer()
    captured = {}
    tracing.install(tracer, only=None if spec["traced"] else {BOUNDARY[kind]},
                    on_exec=_capture_run(captured))
    top = tracer.begin(tracing.ROOT, T0)
    out = {"workload": spec["workload"], "seed": spec["seed"],
           "traced": spec["traced"], "error": None}
    load = importlib.import_module
    if spec["traced"]:
        load = tracer.wrap("import.vmsns", load)
    try:
        load("vmsns")
        (_stepping if kind == "stepping" else _lab)(spec, captured)
    except Exception:
        out["error"] = traceback.format_exc()
    tracer.end(top)
    tracer.enabled = False
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    spans = tracer.spans
    boundary = [s for s in spans if s[0] == BOUNDARY[kind]]
    out["wall_s"] = spans[0][3] - spans[0][2]
    out["setup_s"] = boundary[0][2] - T0 if boundary else None
    if kind == "stepping":
        out["step_s"] = [s[3] - s[2] for s in boundary]
    else:
        # one lab level runs from its star-space build to the next one;
        # the last ends where the suite returned
        marks = [s[2] for s in boundary] + [captured.get("suite_end")]
        out["step_s"] = [b - a for a, b in zip(marks, marks[1:]) if b is not None]

    import environment
    out["env"] = environment.record(root)
    found = _check_outputs(spec, workload, captured, out)
    origin = getattr(sys.modules.get("vmsns"), "__file__", None)
    found["imported_from_checkout"] = (
        "ok" if origin and origin.startswith(os.path.join(src, ""))
        else f"failed: vmsns came from {origin}")

    if spec["traced"]:
        out["layer"] = metrics = _layer_metrics(spans, spec["out_dir"], out)
        parts = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS + ("import",))
        residual = metrics["unattributed_s"] + parts - metrics["trace.wall_s"]
        out["closure_residual_s"] = residual
        found["trace_closure"] = "ok" if abs(residual) <= 1e-9 * metrics["trace.wall_s"] \
            else f"failed: self times miss the wall time by {residual!r} s"
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump({"workload": spec["workload"], "seed": spec["seed"],
                       "fields": ["name", "parent", "start_s", "end_s", "attrs"],
                       "spans": [[s[0], s[1], s[2] - T0, s[3] - T0, s[4]]
                                 for s in spans]}, fh)
    out["checks"] = found
    out["attempted"] += len(found)
    out["failed"] += sum(v != "ok" for v in found.values())
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


def _layer_metrics(spans, out_dir, out):
    metrics = tracing.layer_metrics(spans)
    picard = out.get("picard", [])
    iters = sum(picard)
    metrics["solver.picard_iters"] = iters
    metrics["solver.picard_per_step"] = iters / len(picard) if picard else 0.0
    metrics["solver.useful_solve_ratio"] = len(picard) / iters if iters else 0.0
    files = [os.path.join(out_dir, f) for f in os.listdir(out_dir)]
    metrics["io.files_written"] = len(files)
    metrics["io.bytes_written"] = sum(os.path.getsize(f) for f in files)
    return metrics


def _check_outputs(spec, workload, captured, out):
    """Count the workload's own operations (steps and the exit codes of
    ``run`` and ``check``, or lab levels and the CSV round trip) into
    ``out`` and return the outcome of each output check."""
    import checks

    recording = spec.get("recording", False)
    reference = None
    if spec["seed"] == REFERENCE_SEED and not recording:
        reference = checks.load_reference()[spec["workload"]]
    if workload["kind"] == "stepping":
        planned = workload["steps"]
        result = captured.get("result")
        done = len(result.records) if result is not None else max(len(out["step_s"]) - 1, 0)
        out["attempted"] = planned + 2
        out["failed"] = ((planned - done) + (captured.get("rc_run") != 0)
                         + (captured.get("rc_check") != 0))
        if result is None or captured.get("rc_run") != 0:
            out["error"] = out["error"] or f"vmsns run exited with {captured.get('rc_run')}"
            return {}
        ceiling = {}
        if workload["forcing"] != "none" and not recording:
            ceiling = checks.load_reference()["error_ceiling"]
        found, out["errors"] = checks.check_stepping(
            result, os.path.join(spec["out_dir"], "ledger.csv"), spec["out_dir"],
            planned, ceiling, reference)
        out["picard"] = [s.picard_iters for s in result.states[1:]]
        out["ledger"] = checks.ledger_rows(result.records)
        return found
    levels = workload["levels"]
    out["attempted"] = len(levels) + 1
    out["failed"] = len(levels) * ("report" not in captured) + ("read_back" not in captured)
    if "read_back" not in captured:
        return {}
    out["rows"] = checks.report_rows(captured["report"])
    return checks.check_lab(captured["report"], captured["read_back"], levels, reference)


if __name__ == "__main__":
    main(sys.argv[1])
