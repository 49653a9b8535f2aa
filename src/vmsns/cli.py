"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 configuration error (an output
file that cannot be written among them), 3 solver nonconvergence/divergence,
4 invariant or ledger-audit failure (a partial ledger among them),
5 internal error (a failed factorization or residual gate, or no memory).
"""

import argparse
import contextlib
import math
import os
import sys
from dataclasses import replace

from . import io as io_mod
from .config import parse_config_file
from .errors import (ConfigurationError, InternalError, InvariantViolation,
                     SolverDivergence, SolverNonconvergence, UsageError,
                     VmsnsError)

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; remap to the CLI's
    usage-error channel instead."""

    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="vmsns",
                     description="subgrid-stabilized incompressible flow "
                                 "solver and spectral diagnostics")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{run,study,spectra,check,init}")

    def add(name, help_text, levels=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="path to a run configuration file")
        p.add_argument("--out", default=None,
                       help="output directory (overrides the configured one)")
        if levels:
            p.add_argument("--levels", type=int, default=3,
                           help="number of refinement levels (default 3)")
        return p

    add("run", "run one configured scenario and write its energy ledger")
    add("study", "run a refinement family and report rates and totals",
        levels=True)
    add("spectra", "evaluate the stability-lemma suite on a mesh family",
        levels=True)
    add("check", "audit a previously written energy ledger")
    add("init", "run the initialization projection only and emit the state")
    return parser


def _load_config(args):
    cfg = parse_config_file(args.config)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def _run_and_write(cfg):
    """Run ``cfg`` and write its ledger, and its VTK snapshots when asked
    for, into ``cfg.out_dir``; returns the RunResult and the ledger path.
    A failed run still writes the ledger of the steps it took, and its own
    error propagates even when that write fails."""
    from . import solver

    io_mod.ensure_dir(cfg.out_dir)
    ledger_path = os.path.join(cfg.out_dir, io_mod.LEDGER_NAME)
    try:
        result = solver.run(cfg)
    except VmsnsError as exc:
        records = getattr(exc, "records", None)
        if records:
            with contextlib.suppress(ConfigurationError):
                io_mod.write_energy_ledger(records, ledger_path)
        raise
    io_mod.write_energy_ledger(result.records, ledger_path)
    if "vtk" in cfg.formats:
        for k, state in enumerate(result.states):
            io_mod.write_fields_vtk(
                state, os.path.join(cfg.out_dir, f"fields_{k:04d}.vtk"))
    return result, ledger_path


def _cmd_run(args):
    cfg = _load_config(args)
    result, ledger_path = _run_and_write(cfg)
    worst = max((abs(r.imbalance) / r.relative_scale(cfg.dt)
                 for r in result.records), default=0.0)
    steps = len(result.records)
    print(f"ran {steps} steps to t={result.states[-1].t!r} "
          f"on a {cfg.dim}-D mesh (n={cfg.n}); "
          f"worst relative energy imbalance {worst:.3e}")
    print(f"linear solves over {steps} steps: "
          f"{result.picard_iters} Picard iterations "
          f"({result.picard_iters / max(steps, 1):.2f} per step, "
          f"at most {result.max_picard_iters}), "
          f"{result.factorizations} factorizations, "
          f"{result.sweeps} correction sweeps")
    print(f"ledger: {ledger_path}")
    return 0


def _run_level(cfg, n, out_dir):
    from . import scenarios
    from .diagnostics import a_priori_bound, energy_totals, error_norms

    level_cfg = replace(cfg, n=n, out_dir=out_dir)
    result, _ = _run_and_write(level_cfg)
    fields = scenarios.fields_for(level_cfg)
    row = {
        "n": n,
        "h": result.disc.mesh.h_max,
        "totals": energy_totals(result),
        "bound": a_priori_bound(result),
    }
    if fields.exact_velocity is not None:
        row.update(error_norms(result.states[-1], fields))
    return row


def _cmd_study(args):
    cfg = _load_config(args)
    out_root = io_mod.ensure_dir(cfg.out_dir)
    rows = [_run_level(cfg, cfg.n * 2 ** k, os.path.join(out_root, f"level_{k}"))
            for k in range(args.levels)]

    totals_rows = [(k, r["n"], r["h"], r["totals"], r["bound"])
                   for k, r in enumerate(rows)]
    io_mod.write_table_csv(("level", "n", "h", "energy_total", "data_bound"),
                           totals_rows, os.path.join(out_root, "totals.csv"))
    print("level   n        h      energy_total        data_bound")
    for k, r in enumerate(rows):
        print(f"{k:5d} {r['n']:3d} {r['h']:.6f} {r['totals']:.12e} {r['bound']:.12e}")

    if "err_vel_l2" in rows[0]:
        keys = ("err_vel_l2", "err_vel_h1", "err_p_l2")
        table = []
        for k, r in enumerate(rows):
            rates = []
            for key in keys:
                if k == 0:
                    rates.append(None)
                else:
                    rates.append(math.log2(rows[k - 1][key] / r[key]))
            table.append((k, r["n"], r["h"]) + tuple(r[key] for key in keys)
                         + tuple(rates))
        header = (("level", "n", "h") + keys
                  + tuple(f"rate_{key}" for key in keys))
        io_mod.write_table_csv(header, table,
                               os.path.join(out_root, "rates.csv"))
        print("level   n   err_vel_l2    err_vel_h1    err_p_l2      "
              "rate_l2 rate_h1 rate_p")
        for row in table:
            k, n, _, e1, e2, e3, r1, r2, r3 = row
            fmt_rate = lambda v: "  --  " if v is None else f"{v:6.3f}"
            print(f"{k:5d} {n:3d} {e1:.6e} {e2:.6e} {e3:.6e} "
                  f"{fmt_rate(r1)} {fmt_rate(r2)} {fmt_rate(r3)}")
    return 0


def _cmd_spectra(args):
    from .spectral_lab import run_equivalence_suite

    cfg = _load_config(args)
    out_root = io_mod.ensure_dir(cfg.out_dir)
    ns = tuple(cfg.n * 2 ** k for k in range(args.levels))
    report = run_equivalence_suite(levels=ns, dim=cfg.dim)
    path = os.path.join(out_root, "equivalence.csv")
    io_mod.write_equivalence_csv(report, path)
    lemmas = []
    for row in report.rows:
        if row.lemma not in lemmas:
            lemmas.append(row.lemma)
    print("lemma                  rows   value range")
    for lemma in lemmas:
        rows = report.by_lemma(lemma)
        vals = [r.value for r in rows]
        print(f"{lemma:22s} {len(rows):4d}   [{min(vals):.6g}, {max(vals):.6g}]")
    print(f"report: {path}")
    return 0


def _cmd_check(args):
    cfg = _load_config(args)
    path = os.path.join(cfg.out_dir, io_mod.LEDGER_NAME)
    records = io_mod.read_energy_ledger(path)
    io_mod.check_energy_ledger(records)
    if len(records) != cfg.n_steps:
        end = f" (last t={records[-1].t!r})" if records else ""
        raise InvariantViolation(
            f"{path}: {len(records)} rows{end} hold the energy identity, "
            f"but the configuration takes {cfg.n_steps} steps")
    print(f"{path}: {len(records)} rows, energy identity holds at every step")
    return 0


def _cmd_init(args):
    from . import solver
    from .diagnostics import kinetic_energy
    from .fe import quad_norm

    cfg = _load_config(args)
    out_root = io_mod.ensure_dir(cfg.out_dir)
    result = solver.run(replace(cfg, T=0))
    state = result.states[0]
    path = os.path.join(out_root, "init_state.vtk")
    io_mod.write_fields_vtk(state, path)
    V = result.disc.V
    ke, _ = kinetic_energy(V, state.u, state.tilde)
    print(f"projected initial state: kinetic energy {ke!r}, "
          f"subscale magnitude {quad_norm(V, state.tilde)!r}, "
          f"continuity residual {state.continuity_residual:.3e}")
    print(f"state: {path}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "study": _cmd_study,
    "spectra": _cmd_spectra,
    "check": _cmd_check,
    "init": _cmd_init,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "levels", 1) < 1:
            raise UsageError("--levels must be >= 1")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SolverNonconvergence, SolverDivergence) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5
    except MemoryError:
        print("internal error: out of memory", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
