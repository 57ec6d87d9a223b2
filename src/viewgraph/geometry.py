"""View graph on the unit sphere: camera directions, edge lengths, spatial similarity.

A shape is observed from ``V`` viewpoints on the unit sphere. The viewpoints
form the nodes of a fully connected graph; each edge carries a similarity
``exp(-sigma * E)`` where ``E = 0.5 * (1 - cos(theta))`` normalizes the arc
length between the two viewpoints into [0, 1]. ``sigma`` controls how fast
the similarity decays with the edge length; ``sigma = 0`` makes every pair
equally similar, which disables the spatial weighting downstream.
"""

import math
from dataclasses import dataclass

import numpy as np

# Directions within this distance of unit norm are renormalized on ingestion;
# beyond it they are rejected. Chosen to survive a round trip through 32-bit
# floats written by external feature extractors.
DIRECTION_NORM_TOL = 1e-6

_GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

# Platonic vertex counts with a regular polyhedron inscribed in the sphere.
PLATONIC_COUNTS = (4, 6, 8, 12, 20)


@dataclass(frozen=True)
class ViewGraph:
    """Immutable view graph: unit directions plus the pairwise similarity matrix.

    Attributes:
        directions: (V, 3) array, each row exactly unit norm.
        similarity: (V, V) symmetric matrix with unit diagonal, entries in (0, 1].
        sigma: decay parameter used to build ``similarity``.
    """

    directions: np.ndarray
    similarity: np.ndarray
    sigma: float

    @property
    def num_views(self) -> int:
        return self.directions.shape[0]


def _tetrahedron() -> np.ndarray:
    v = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=np.float64
    )
    return v / math.sqrt(3.0)


def _octahedron() -> np.ndarray:
    return np.concatenate([np.eye(3), -np.eye(3)])


def _cube() -> np.ndarray:
    corners = [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    return np.array(corners, dtype=np.float64) / math.sqrt(3.0)


def _icosahedron() -> np.ndarray:
    p = _GOLDEN_RATIO
    base = []
    for a in (-1.0, 1.0):
        for b in (-p, p):
            base.append([0.0, a, b])
            base.append([a, b, 0.0])
            base.append([b, 0.0, a])
    v = np.array(base, dtype=np.float64)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _dodecahedron() -> np.ndarray:
    p = _GOLDEN_RATIO
    q = 1.0 / p
    verts = [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    for a in (-q, q):
        for b in (-p, p):
            verts.append([0.0, a, b])
            verts.append([a, b, 0.0])
            verts.append([b, 0.0, a])
    v = np.array(verts, dtype=np.float64)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


_PLATONIC_BUILDERS = {
    4: _tetrahedron,
    6: _octahedron,
    8: _cube,
    12: _icosahedron,
    20: _dodecahedron,
}


def fibonacci_sphere(count: int) -> np.ndarray:
    """Spiral lattice of ``count`` near-uniform unit vectors (golden-angle spacing)."""
    if count < 1:
        raise ValueError(f"need at least one point, got {count}")
    n = np.arange(count, dtype=np.float64)
    z = 1.0 - (2.0 * n + 1.0) / count
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * n
    points = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def default_viewpoints(num_views: int) -> np.ndarray:
    """Deterministic camera rig of ``num_views`` unit vectors.

    For 4, 6, 8, 12 or 20 views, the vertex set of the corresponding regular
    polyhedron inscribed in the unit sphere; any other count >= 2 falls back
    to a Fibonacci spiral lattice. Rows are sorted lexicographically by
    (x, y, z) so the ordering is reproducible.

    Raises:
        ValueError: if ``num_views < 2``.
    """
    if num_views < 2:
        raise ValueError(f"need at least 2 viewpoints, got {num_views}")
    if num_views in _PLATONIC_BUILDERS:
        points = _PLATONIC_BUILDERS[num_views]()
    else:
        points = fibonacci_sphere(num_views)
    order = np.lexsort((points[:, 2], points[:, 1], points[:, 0]))
    return np.ascontiguousarray(points[order])


class DirectionError(ValueError):
    """A direction too far from unit norm; ``rig`` is the index of its rig in
    a stacked build (0 for a single rig)."""

    def __init__(self, message: str, rig: int):
        super().__init__(message)
        self.rig = rig


def build_view_graph(directions: np.ndarray, sigma: float) -> ViewGraph | list[ViewGraph]:
    """Build the fully connected view graph of one rig, or of a stack of rigs.

    ``directions`` is (V, 3), which gives one ViewGraph, or (M, V, 3), which
    gives a list of M ViewGraphs built in one pass; their arrays are read-only
    views of the stacked arrays. Directions within ``DIRECTION_NORM_TOL`` of
    unit norm are renormalized; anything further off is a DirectionError
    naming the worst direction (NaN counts as worst) of the first bad rig.
    The similarity matrix is symmetric by construction with an exactly-unit
    diagonal (the self-pair has edge length zero and is kept: downstream
    cumulative sums include it).
    """
    directions = np.asarray(directions, dtype=np.float64)
    if directions.ndim not in (2, 3) or directions.shape[-1] != 3:
        raise ValueError(
            f"directions must be (V, 3) or (M, V, 3), got shape {directions.shape}"
        )
    stack = directions[None] if directions.ndim == 2 else directions
    rigs, views = stack.shape[:2]
    if views < 1:
        raise ValueError("need at least one direction")
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(stack, axis=-1)
    off = np.abs(norms - 1.0)
    # not-all-within rather than any-outside, so NaN norms are rejected too
    within = np.all(off <= DIRECTION_NORM_TOL, axis=-1)
    if not within.all():
        rig = int(np.argmin(within))
        bad = int(np.argmax(np.where(np.isnan(off[rig]), np.inf, off[rig])))
        raise DirectionError(
            f"direction {bad} is not unit norm (|v| = {norms[rig, bad]:.9g})", rig
        )
    unit = stack / norms[..., None]

    # One clip of the edge length is enough: rounding is monotone, so a
    # cosine just outside [-1, 1] gives an edge just outside [0, 1].
    sim = unit @ unit.swapaxes(-1, -2)
    np.subtract(1.0, sim, out=sim)
    sim *= 0.5
    np.clip(sim, 0.0, 1.0, out=sim)
    sim *= -sigma
    # exp above the diagonal only; mirroring it makes symmetry hold
    # bit-for-bit, and the diagonal is set to exactly one.
    lower = np.tri(views, dtype=bool)
    np.exp(sim, out=sim, where=~lower)
    np.copyto(sim, sim.swapaxes(-1, -2), where=lower)
    sim.reshape(rigs, views * views)[:, :: views + 1] = 1.0

    unit.setflags(write=False)
    sim.setflags(write=False)
    graphs = [ViewGraph(directions=u, similarity=s, sigma=float(sigma))
              for u, s in zip(unit, sim)]
    return graphs[0] if directions.ndim == 2 else graphs
