"""Structured simplicial meshes: counts, measures, quality."""

import math

import numpy as np
import pytest

from vmsns.errors import ConfigurationError, InvariantViolation
from vmsns.mesh import (
    Mesh,
    build_structured,
    cell_diameters,
    extract_edges,
    signed_volumes,
)

import oracles as orc


def test_unit_square_counts():
    m = build_structured(2, 1)
    assert m.n_vertices == 4
    assert m.n_cells == 2
    assert m.boundary_facets.shape == (4, 2)
    m4 = build_structured(2, 4)
    assert m4.n_vertices == 25
    assert m4.n_cells == 32
    assert m4.boundary_facets.shape == (16, 2)
    assert abs(m4.h_max - math.sqrt(2.0) / 4.0) < 1e-14


def test_unit_cube_counts():
    m = build_structured(3, 1)
    assert m.n_vertices == 8
    assert m.n_cells == 6
    # 6 faces x 2 triangles
    assert m.boundary_facets.shape == (12, 3)


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_positive_orientation_and_total_volume(dim, n):
    m = build_structured(dim, n)
    vols = signed_volumes(m.vertices, m.cells)
    assert np.all(vols > 0.0)
    assert abs(vols.sum() - 1.0) < 1e-13


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_build_matches_a_loop_over_grid_cells(dim, n):
    box = [(-1.0, 2.0), (0.0, 1.0), (0.5, 1.5)][:dim]
    m = build_structured(dim, n, box)
    vertices, cells = orc.loop_structured_mesh(dim, n, box)
    assert np.array_equal(m.vertices, vertices)
    assert m.cells.dtype == cells.dtype and np.array_equal(m.cells, cells)
    # the grid index of each vertex: every index once, and the vertex at it
    assert m.grid.shape == (m.n_vertices, dim)
    assert np.unique(m.grid, axis=0).shape[0] == (n + 1) ** dim
    assert m.grid.min() == 0 and m.grid.max() == n
    for a, (lo, hi) in enumerate(box):
        assert np.array_equal(m.vertices[:, a],
                              np.linspace(lo, hi, n + 1)[m.grid[:, a]])


def test_structured_mesh_is_uniform():
    q = orc.mesh_quality(build_structured(2, 5))
    assert abs(q.uniformity_ratio - 1.0) < 1e-12
    assert abs(q.h_max - q.h_min) < 1e-14


def test_equilateral_inradius_ratio():
    # rho / h = 1 / (2 sqrt(3)) for the equilateral triangle
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    cells = np.array([[0, 1, 2]])
    m = Mesh(
        dim=2,
        vertices=verts,
        cells=cells,
        boundary_facets=np.array([[0, 1], [0, 2], [1, 2]]),
        h_max=1.0,
    )
    q = orc.mesh_quality(m)
    assert abs(q.min_inradius_ratio - 1.0 / (2.0 * math.sqrt(3.0))) < 1e-13


def test_degenerate_cell_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2], [0, 2, 3]])  # first cell is flat
    m = Mesh(
        dim=2,
        vertices=verts,
        cells=cells,
        boundary_facets=np.array([[0, 1]]),
        h_max=2.0,
    )
    with pytest.raises(InvariantViolation):
        orc.mesh_quality(m)


def test_nonuniform_mesh_rejected():
    verts = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0],
                      [10.1, 10.0], [10.1, 10.1], [10.0, 10.1]])
    cells = np.array([[0, 1, 2], [3, 4, 5]])
    m = Mesh(
        dim=2,
        vertices=verts,
        cells=cells,
        boundary_facets=np.array([[0, 1]]),
        h_max=15.0,
    )
    with pytest.raises(InvariantViolation):
        orc.mesh_quality(m, uniformity_bound=4.0)


def test_edges_of_single_triangle_pair():
    m = build_structured(2, 1)
    edges, cell_edges = extract_edges(m.cells)
    assert edges.shape == (5, 2)  # 4 sides + 1 diagonal
    assert np.all(edges[:, 0] < edges[:, 1])
    assert cell_edges.shape == (2, 3)
    # the shared diagonal appears in both cells' edge lists
    shared = set(cell_edges[0]) & set(cell_edges[1])
    assert len(shared) == 1


def test_diameters_match_h_bounds():
    m = build_structured(2, 3, ((0.0, 3.0), (0.0, 3.0)))
    diam = cell_diameters(m.vertices, m.cells)
    assert abs(diam.max() - m.h_max) < 1e-14


def test_bad_arguments():
    with pytest.raises(ConfigurationError):
        build_structured(1, 4)
    with pytest.raises(ConfigurationError):
        build_structured(2, 0)
    with pytest.raises(ConfigurationError):
        build_structured(2, 2, ((0.0, 1.0),))
    with pytest.raises(ConfigurationError):
        build_structured(2, 2, ((0.0, 0.0), (0.0, 1.0)))


def test_validate_catches_flipped_cell():
    m = build_structured(2, 2)
    cells = m.cells.copy()
    cells[0] = cells[0][[1, 0, 2]]
    bad = Mesh(
        dim=2,
        vertices=m.vertices,
        cells=cells,
        boundary_facets=m.boundary_facets,
        h_max=m.h_max,
    )
    with pytest.raises(InvariantViolation):
        bad.validate()


def _loop_boundary(cells):
    """Boundary facets by a per-cell loop over facet tuples."""
    counts = {}
    for cell in cells.tolist():
        for drop in range(len(cell)):
            facet = tuple(sorted(cell[:drop] + cell[drop + 1:]))
            counts[facet] = counts.get(facet, 0) + 1
    facets = sorted(f for f, c in counts.items() if c == 1)
    return np.array(facets), max(counts.values())


@pytest.mark.parametrize("dim,n,box", [
    (2, 1, None), (2, 5, [(0.0, 0.97), (1.0, 3.0)]), (3, 1, None),
    (3, 3, [(-1.0, 2.0), (0.0, 1.0), (0.5, 1.5)])])
def test_boundary_and_conformity_match_a_per_cell_count(dim, n, box):
    m = build_structured(dim, n, box)
    facets, most = _loop_boundary(m.cells)
    assert most == 2
    assert np.array_equal(m.boundary_facets, facets)

    def rebuilt(**changes):
        fields = dict(dim=dim, vertices=m.vertices, cells=m.cells,
                      boundary_facets=m.boundary_facets, h_max=m.h_max)
        return Mesh(**{**fields, **changes})

    rebuilt(boundary_facets=m.boundary_facets[::-1, ::-1]).validate()
    with pytest.raises(InvariantViolation, match="more than two cells"):
        rebuilt(cells=np.concatenate([m.cells, m.cells[:1]])).validate()
    with pytest.raises(InvariantViolation,
                       match=rf"\({len(facets) - 1} stored, {len(facets)} derived\)"):
        rebuilt(boundary_facets=m.boundary_facets[1:]).validate()
