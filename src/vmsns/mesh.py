"""Conforming simplicial meshes on axis-aligned boxes.

One family for d = 2 and 3, shape-regular and quasi-uniform by
construction: the Kuhn subdivision (H. W. Kuhn, 1960) of an n-by-n(-by-n)
grid of boxes into d! simplices each, one per ordering of the axes, each
walking from the low corner of its box to the high corner.  In 2D that is
the split of every rectangle along its low--high diagonal into two
congruent triangles; in 3D the six tetrahedra fall into a fixed set of
congruence classes.

A refinement family is the same box at n, 2n, 4n, ...: cell shapes -- and
hence all quality ratios -- are the same on every level, and the mesh size
h halves exactly.
"""

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .errors import ConfigurationError, InvariantViolation

__all__ = [
    "Mesh",
    "build_structured",
    "extract_edges",
]


# ---------------------------------------------------------------------------
# geometry helpers (shared with the FE layer)
# ---------------------------------------------------------------------------

def signed_volumes(vertices, cells):
    """Signed volume of every cell, using the stored vertex order.

    For a d-simplex with vertices x_0..x_d this is det[x_1-x_0, ..
    x_d-x_0] / d!.  Positive for correctly oriented cells.
    """
    x = vertices[cells]                      # (nc, d+1, d)
    edges = x[:, 1:, :] - x[:, :1, :]        # (nc, d, d)
    d = vertices.shape[1]
    fact = {1: 1.0, 2: 2.0, 3: 6.0}[d]
    return np.linalg.det(edges) / fact


def cell_diameters(vertices, cells):
    """Diameter (longest edge) of every cell."""
    x = vertices[cells]                      # (nc, d+1, d)
    i, j = np.triu_indices(cells.shape[1], k=1)
    return np.linalg.norm(x[:, i, :] - x[:, j, :], axis=2).max(axis=1)


def _facet_count(cells):
    """Every facet (codimension-1 sub-simplex) and the number of cells
    containing it.

    Returns the facets as rows of ascending vertex indices, in
    lexicographic order, and their counts.  Conformity means every count
    is 1 (boundary) or 2 (interior).
    """
    nloc = cells.shape[1]
    facets = np.stack([np.delete(cells, drop, axis=1) for drop in range(nloc)],
                      axis=1).reshape(-1, nloc - 1)
    return np.unique(np.sort(facets, axis=1), axis=0, return_counts=True)


def _edge_pairs(simplices):
    """The edges of every simplex as vertex pairs sorted ascending, shape
    (n_simplices, n_local_edges, 2).  Local edges are the vertex pairs
    (i, j), i < j, in lexicographic order."""
    i, j = np.triu_indices(simplices.shape[1], k=1)
    return np.sort(np.stack([simplices[:, i], simplices[:, j]], axis=-1), axis=-1)


def extract_edges(cells):
    """Global edge numbering from cell connectivity.

    Returns
    -------
    edges : ndarray, shape (n_edges, 2)
        Unique vertex pairs, each sorted ascending, in first-seen order.
    cell_edges : ndarray, shape (n_cells, n_local_edges)
        For each cell, the global edge index of its local edges.  Local
        edges are the vertex pairs (i, j), i < j, in lexicographic order --
        (0,1), (0,2), (1,2) on triangles and (0,1), (0,2), (0,3), (1,2),
        (1,3), (2,3) on tetrahedra.
    """
    pairs = _edge_pairs(cells).reshape(-1, 2)
    _, first, inverse = np.unique(pairs @ [int(cells.max()) + 1, 1],
                                  return_index=True, return_inverse=True)
    # number the unique edges in the order they are first seen
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    return pairs[first[order]], number[inverse].reshape(cells.shape[0], -1)


# ---------------------------------------------------------------------------
# mesh container
# ---------------------------------------------------------------------------

@dataclass
class Mesh:
    """A conforming simplicial mesh.

    Attributes
    ----------
    dim : int
        Geometric dimension, 2 or 3.
    vertices : ndarray, shape (n_vertices, dim)
    cells : ndarray, shape (n_cells, dim + 1)
        Vertex indices of each simplex, positively oriented.
    boundary_facets : ndarray, shape (n_bfacets, dim)
        Vertex indices of each boundary facet (edges in 2D, triangles in
        3D), sorted ascending within a row.
    h_max : float
        Largest cell diameter.
    grid : ndarray, shape (n_vertices, dim), or None
        Integer grid index (i, j[, k]) of each vertex of a structured mesh.
    tabulations : dict
        Per-cell finite element tables keyed by (degree, quadrature
        order), filled by ``FeSpace.tabulation`` and shared by every
        space on the mesh.
    """

    dim: int
    vertices: np.ndarray = field(repr=False)
    cells: np.ndarray = field(repr=False)
    boundary_facets: np.ndarray = field(repr=False)
    h_max: float = 0.0
    grid: np.ndarray = field(default=None, repr=False)
    tabulations: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_cells(self):
        return self.cells.shape[0]

    def validate(self, facet_count=None):
        """Check orientation and conformity; raise InvariantViolation.

        ``facet_count`` is :func:`_facet_count` of the cells, when the
        caller already has it.
        """
        vols = signed_volumes(self.vertices, self.cells)
        scale = self.h_max ** self.dim if self.h_max > 0 else 1.0
        if np.any(vols <= 1e-14 * scale):
            bad = int(np.argmin(vols))
            raise InvariantViolation(
                f"cell {bad} has non-positive volume {vols[bad]:.3e}"
            )
        facets, counts = facet_count or _facet_count(self.cells)
        if np.any(counts > 2):
            raise InvariantViolation("a facet is shared by more than two cells")
        boundary = facets[counts == 1]
        stored = np.unique(np.sort(self.boundary_facets, axis=1), axis=0)
        if not np.array_equal(boundary, stored):
            raise InvariantViolation(
                "stored boundary facets disagree with cell connectivity "
                f"({len(stored)} stored, {len(boundary)} derived)"
            )
        return self


def _finish(dim, vertices, cells, boundary_facets, facet_count=None,
            grid=None):
    m = Mesh(
        dim=dim,
        vertices=np.ascontiguousarray(vertices, dtype=float),
        cells=np.ascontiguousarray(cells, dtype=np.int64),
        boundary_facets=np.ascontiguousarray(boundary_facets, dtype=np.int64),
        h_max=float(cell_diameters(vertices, cells).max()),
        grid=grid,
    )
    return m.validate(facet_count)


# ---------------------------------------------------------------------------
# structured builders
# ---------------------------------------------------------------------------

def build_structured(dim, n, domain=None):
    """Regular simplicial subdivision of an axis-aligned box.

    Parameters
    ----------
    dim : {2, 3}
    n : int
        Cells per side of the underlying grid (n >= 1).  The simplicial
        mesh has d! n^d cells: 2 n^2 triangles or 6 n^3 tetrahedra.
    domain : sequence of (lo, hi) pairs, optional
        One pair per axis; defaults to the unit box.

    Returns
    -------
    Mesh
    """
    if dim not in (2, 3):
        raise ConfigurationError(f"mesh dimension must be 2 or 3, got {dim}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ConfigurationError(f"cells-per-side must be a positive integer, got {n!r}")
    if domain is None:
        domain = [(0.0, 1.0)] * dim
    box = [(float(lo), float(hi)) for lo, hi in domain]
    if len(box) != dim:
        raise ConfigurationError(f"domain must give {dim} (lo, hi) pairs")
    if any(hi <= lo for lo, hi in box):
        raise ConfigurationError("domain box has a non-positive side length")

    # vertex numbers run through the grid indices (i, j[, k]) with x
    # fastest in 2D and z fastest in 3D
    grid = np.indices((n + 1,) * dim).reshape(dim, -1).T
    stride = (n + 1) ** np.arange(dim - 1, -1, -1)
    if dim == 2:
        grid, stride = grid[:, ::-1], stride[::-1]
    axes = [np.linspace(lo, hi, n + 1) for lo, hi in box]
    vertices = np.column_stack([axes[a][grid[:, a]] for a in range(dim)])

    # Kuhn subdivision: one simplex per permutation of the axes, walking
    # from the low corner to the high corner of each grid box
    eye = np.eye(dim, dtype=np.int64)
    walks = np.array([np.cumsum([[0] * dim, *eye[list(perm)]], axis=0)
                      for perm in permutations(range(dim))])
    # cells of each grid cell (its low corner, in vertex order) in turn
    corners = grid[np.all(grid < n, axis=1)]
    cells = ((corners[:, None, None, :] + walks) @ stride).reshape(-1, dim + 1)
    # half the Kuhn permutations are odd; swapping the last two vertices
    # turns those to positive orientation
    flip = signed_volumes(vertices, cells) < 0
    cells[np.ix_(flip, [-2, -1])] = cells[np.ix_(flip, [-1, -2])]

    facets, counts = _facet_count(cells)
    return _finish(dim, vertices, cells, facets[counts == 1], (facets, counts),
                   grid)
