"""The benchmark's workloads and the inputs each one receives.

The seed is the benchmark's argument; the program only ever sees what is
generated from it: a config file for the stepping workloads (``physics.nu``
and ``mesh.box`` drawn within +-5% of nominal) and the lab's ``seed=``.
Mesh size, ``dt`` and the step count never depend on the seed, so the
work per run does not either.
"""

import random

#: seed whose outputs are pinned by reference.json (recorded at the commit
#: that introduced the benchmark)
REFERENCE_SEED = 0

#: relative half-width of the seeded draws of physics.nu and mesh.box
SEED_SPREAD = 0.05

#: lab refinement levels
LAB_LEVELS = (4, 8, 12)

WORKLOADS = {
    "vortex_n24": {
        "kind": "stepping",
        "initial": "decaying_vortex",
        "forcing": "none",
        "n": 24,
        "steps": 4,
        "formats": "csv",
        "why": "Dense factorization, solves and Schur products take most of "
               "the step here; the sparse step must show here, and I/O does "
               "almost nothing.",
    },
    "mms_n8_io": {
        "kind": "stepping",
        "initial": "manufactured_poly",
        "forcing": "manufactured_poly",
        "n": 8,
        "steps": 300,
        "formats": "csv,vtk",
        "why": "Each dense solve is tiny, so per-step fixed costs dominate: "
               "assembly, subgrid projections, forcing loads, ledger and VTK "
               "writes, read-back and audit.",
    },
    "spectra_4_8_12": {
        "kind": "lab",
        "levels": LAB_LEVELS,
        "why": "Only the lab runs: star-space builds, generalized eigensolves "
               "and saddle projections; solver changes should leave it "
               "unchanged.",
    },
}

NOMINAL_NU = 0.01
DT = 0.01


def _draw(rng, nominal):
    return nominal * (1.0 + SEED_SPREAD * (2.0 * rng.random() - 1.0))


def config_text(workload, seed, out_dir):
    """Config file text for a stepping workload; byte-identical per
    (workload, seed, out_dir).  Floats are written with repr so the file
    pins the drawn values exactly."""
    spec = WORKLOADS[workload]
    if spec["kind"] != "stepping":
        raise ValueError(f"{workload} takes no config file")
    rng = random.Random(f"{workload}:{seed}")
    nu = _draw(rng, NOMINAL_NU)
    box = (0.0, _draw(rng, 1.0), 0.0, _draw(rng, 1.0))
    lines = [
        f"# {workload}, seed {seed}",
        "mesh.dim = 2",
        f"mesh.n = {spec['n']}",
        "mesh.box = " + ", ".join(repr(v) for v in box),
        f"physics.nu = {nu!r}",
        f"physics.initial = {spec['initial']}",
        f"physics.forcing = {spec['forcing']}",
        "physics.convection = on",
        f"time.dt = {DT!r}",
        f"time.T = {spec['steps'] * DT!r}",
        "time.snapshot_every = 1",
        f"output.dir = {out_dir}",
        f"output.formats = {spec['formats']}",
    ]
    return "\n".join(lines) + "\n"
