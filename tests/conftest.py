"""Test-session setup shared by every module in this directory.

BLAS is pinned to one thread before numpy is first imported, as the
benchmark pins it.  The suite's matrices are small and dense, so a
multithreaded BLAS mostly adds synchronisation, and on a machine with
few cores its run time depends on what else is running; the wall-clock
budgets of the acceptance gates assume single-threaded BLAS.  A value
already set in the environment wins.

Star spaces are built once per session (``star``), so the lab's tests
and the acceptance gates share the level-16 build.
"""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture(scope="session")
def star():
    """star(dim, n): the star space on the unit n-grid, built once."""
    from vmsns.mesh import build_structured
    from vmsns.spectral_lab import build_star_space

    spaces = {}

    def get(dim, n):
        if (dim, n) not in spaces:
            spaces[dim, n] = build_star_space(build_structured(dim, n))
        return spaces[dim, n]

    return get
