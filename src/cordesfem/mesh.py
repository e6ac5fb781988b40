"""Conforming triangulations of convex polygons with newest-vertex bisection.

Elements are stored peak-first: the local vertex 0 is the peak (newest
vertex) and the refinement edge is the opposite edge (local vertices 1, 2).
Face normals are canonical: for interior faces the tangent runs from the
lexicographically smaller endpoint to the larger and the normal is the
clockwise rotation of the tangent; boundary faces always carry the outward
normal. The normal of a face therefore depends on its endpoint coordinates
only, never on the refinement level.

The face numbering is the only edge identity: `face_verts` holds the sorted
vertex pair of each face, `face_elems` its minus and plus element, and
`elem_faces[e, l]` the face opposite local vertex l, so column 0 is the
refinement edge. A boundary face has no plus element (-1), so the interior
faces are those with `face_elems[:, 1] >= 0`. Newest-vertex bisection works
on it with arrays: a boolean closure over faces, midpoints numbered by
first occurrence, and up to four children per element from fixed slots.
`dissection_keys` orders the elements by nested dissection, which the
spaces number their dofs in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# nested dissection does not bisect parts of at most ND_LEAF elements
ND_LEAF = 8


class MeshError(ValueError):
    """Invalid mesh topology or geometry."""


@dataclass(frozen=True)
class MeshLevel:
    """One level of the adaptive hierarchy, immutable once a function returns
    it; the face data derive from `vertices` and `tri`."""

    vertices: np.ndarray  # (nv, 2)
    tri: np.ndarray  # (ne, 3) peak-first, counterclockwise
    ancestor: np.ndarray  # (ne,) element id in the previous MeshLevel, or -1

    # face data, filled in __post_init__
    face_verts: np.ndarray = field(default=None, repr=False)
    face_elems: np.ndarray = field(default=None, repr=False)  # (nf, 2), minus first
    face_normals: np.ndarray = field(default=None, repr=False)
    elem_faces: np.ndarray = field(default=None, repr=False)  # (ne, 3)

    def __post_init__(self):
        v, t = self.vertices, self.tri
        if not np.all(np.isfinite(v)):
            raise MeshError("non-finite vertex coordinates")
        areas = signed_areas(v, t)
        if np.any(areas <= 0.0):
            raise MeshError("element with nonpositive signed area")
        fv, fe, fn, ef = _build_faces(v, t)
        object.__setattr__(self, "face_verts", fv)
        object.__setattr__(self, "face_elems", fe)
        object.__setattr__(self, "face_normals", fn)
        object.__setattr__(self, "elem_faces", ef)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_elements(self) -> int:
        return len(self.tri)

    @property
    def n_faces(self) -> int:
        return len(self.face_verts)

    def areas(self) -> np.ndarray:
        return signed_areas(self.vertices, self.tri)

    def boundary_vertex_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[self.face_verts[self.face_elems[:, 1] < 0].ravel()] = True
        return mask


def signed_areas(vertices: np.ndarray, tri: np.ndarray) -> np.ndarray:
    p0 = vertices[tri[:, 0]]
    d1 = vertices[tri[:, 1]] - p0
    d2 = vertices[tri[:, 2]] - p0
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def canonical_normal(p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Normal of the segment p0-p1 from the lexicographic tangent rule, for
    endpoints of shape (2,) or a batch of shape (n, 2)."""
    p0, p1 = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
    x0, y0, x1, y1 = p0[..., 0], p0[..., 1], p1[..., 0], p1[..., 1]
    swap = (x0 > x1) | ((x0 == x1) & (y0 > y1))
    t = np.where(swap[..., None], p0 - p1, p1 - p0)
    L = np.hypot(t[..., 0], t[..., 1])
    if np.any(L == 0.0):
        raise MeshError("degenerate face with coincident endpoints")
    return np.stack([t[..., 1], -t[..., 0]], axis=-1) / L[..., None]


def _build_faces(vertices, tri):
    # the three edges of element e are rows 3e..3e+2, local edge l opposite
    # local vertex l, counterclockwise; faces come out sorted by their key
    # v0 * nv + v1, v0 < v1
    nv = len(vertices)
    edges = tri[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2)
    ends = np.sort(edges, axis=1)
    keys, face_of, count = np.unique(
        ends[:, 0] * nv + ends[:, 1], return_inverse=True, return_counts=True
    )
    fv = np.stack(np.divmod(keys, nv), axis=1)
    if np.any(count > 2):
        key = tuple(int(v) for v in fv[np.argmax(count)])
        raise MeshError(f"face {key} shared by more than two elements")
    # edge rows 3e + l of each face, and its adjacent elements, in element order
    rows = np.argsort(face_of.ravel(), kind="stable")
    first = np.cumsum(count) - count
    interior = count == 2
    fe = np.full((len(fv), 2), -1, dtype=np.int64)
    fe[:, 0] = rows[first] // 3
    fe[interior, 1] = rows[first[interior] + 1] // 3
    p0, p1 = vertices[fv[:, 0]], vertices[fv[:, 1]]
    fn = canonical_normal(p0, p1)
    # the first element is counterclockwise, so the clockwise rotation of
    # p1 - p0 points out of it where its edge runs from fv[:, 0] to fv[:, 1];
    # a boundary face carries that outward normal
    t = p1 - p0
    out = np.stack([t[:, 1], -t[:, 0]], axis=1)
    out[edges[rows[first], 0] != fv[:, 0]] *= -1.0
    bd = ~interior
    fn[bd] = out[bd] / np.hypot(out[bd, 0], out[bd, 1])[:, None]
    # minus side: the element for which n is outward pointing
    swap = interior & (np.einsum("fi,fi->f", out, fn) < 0.0)
    fe[swap] = fe[swap, ::-1]
    return fv, fe, fn, face_of.reshape(-1, 3)


def unit_square_mesh(n: int) -> MeshLevel:
    """Structured triangulation of (0,1)^2 with 2*n^2 right triangles.

    Refinement edges are the square diagonals (hypotenuses).
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    v00 = ((n + 1) * np.arange(n)[:, None] + np.arange(n)).ravel()
    v10, v01 = v00 + n + 1, v00 + 1
    # per cell: peak v00 with hypotenuse v10-v01, then peak v11 with v01-v10
    tri = np.stack([v00, v10, v01, v10 + 1, v01, v10], axis=1)
    return _initial_mesh(vertices, tri.reshape(-1, 3))


def convex_polygon_mesh(points) -> MeshLevel:
    """Fan triangulation of a convex polygon given by its counterclockwise
    vertices: each fan triangle (0, i, i + 1) starts at its peak, the vertex
    opposite its longest edge. Nonconvex input is rejected."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3:
        raise MeshError("polygon needs at least 3 vertices")
    d1, d2 = np.roll(pts, -1, axis=0) - pts, np.roll(pts, -2, axis=0) - pts
    if np.any(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] <= 0.0):
        raise MeshError("polygon is not strictly convex counterclockwise")
    i = np.arange(1, len(pts) - 1)
    fan = np.stack([np.zeros_like(i), i, i + 1], axis=1)
    # a rotation keeps the triangle counterclockwise; the edge lengths come
    # from a dot product per edge, so near-ties break as for one np.linalg.norm
    edge = pts[np.roll(fan, -1, axis=1)] - pts[np.roll(fan, -2, axis=1)]
    peak = np.argmax(np.sqrt(edge[..., None, :] @ edge[..., None])[..., 0, 0], axis=1)
    tri = np.take_along_axis(fan, (peak[:, None] + np.arange(3)) % 3, axis=1)
    return _initial_mesh(pts.copy(), tri)


def _initial_mesh(vertices, tri) -> MeshLevel:
    """The first level: no element has an ancestor."""
    return MeshLevel(vertices, tri, np.full(len(tri), -1, dtype=np.int64))


def refine_conforming(mesh: MeshLevel, marked) -> MeshLevel:
    """Newest-vertex bisection of the marked elements with conformity closure.

    Returns a new conforming MeshLevel; an empty marked set yields an
    identical copy. Every new element records the id of the element of
    `mesh` it came from.
    """
    ne, nv = mesh.n_elements, mesh.n_vertices
    marked = np.fromiter(marked, dtype=np.int64)
    if marked.size and (marked.min() < 0 or marked.max() >= ne):
        raise MeshError("marked set contains ids outside the mesh")

    # closure by edge marking: split refinement edges until no element has a
    # split non-refinement edge without its refinement edge split too; every
    # round splits at least one more face, so the loop ends
    ef = mesh.elem_faces
    split = np.zeros(mesh.n_faces, dtype=bool)
    split[ef[marked, 0]] = True
    while True:
        grow = ~split[ef[:, 0]] & (split[ef[:, 1]] | split[ef[:, 2]])
        if not grow.any():
            break
        split[ef[grow, 0]] = True

    # new vertices are numbered in the order an element sweep meets the split
    # faces: per element the refinement edge, then edge (peak, b), then (c, peak)
    sweep = ef[:, [0, 2, 1]]
    faces, first = np.unique(sweep[split[sweep]], return_index=True)
    faces = faces[np.argsort(first)]
    mid = np.full(mesh.n_faces, -1, dtype=np.int64)
    mid[faces] = nv + np.arange(len(faces))
    ends = mesh.vertices[mesh.face_verts[faces]]
    vertices = np.concatenate([mesh.vertices, 0.5 * (ends[:, 0] + ends[:, 1])])

    # children in depth-first order [A1, A2, B1, B2]: bisection makes the
    # midpoint m the peak of (m, peak, b) and (m, c, peak), whose refinement
    # edges (peak, b) and (c, peak) may be split once more, at m1 and m2
    s0, s1, s2 = split[ef].T
    m, m2, m1 = mid[ef].T
    peak, b, c = mesh.tri.T
    slots = np.stack([
        np.where(s2, [m1, m, peak], np.where(s0, [m, peak, b], mesh.tri.T)),
        [m1, b, m],
        np.where(s1, [m2, m, c], [m, c, peak]),
        [m2, peak, m],
    ]).transpose(2, 0, 1)
    keep = np.stack([np.ones(ne, dtype=bool), s2, s0, s1], axis=1)
    return MeshLevel(vertices, slots[keep],
                     np.repeat(np.arange(ne, dtype=np.int64), keep.sum(axis=1)))


def uniform_refine(mesh: MeshLevel) -> MeshLevel:
    return refine_conforming(mesh, range(mesh.n_elements))


def halve(mesh: MeshLevel) -> MeshLevel:
    """Two uniform bisection sweeps (h halves, shapes repeat); `ancestor` is
    composed to refer to `mesh` before the level is shared, with no rebuild."""
    fine = uniform_refine(mesh)
    finer = uniform_refine(fine)
    object.__setattr__(finer, "ancestor", fine.ancestor[finer.ancestor])
    return finer


def dissection_keys(mesh: MeshLevel) -> tuple[np.ndarray, int]:
    """Nested-dissection keys of the elements, and the tree depth. Each
    level splits every part at once, at the median of its centroids along
    its longer side; elements of the first half with a face on the second
    separate them. A key has one base-3 digit per level: 0 or 1 for the
    half, 2 from the level where the element became a separator or its part
    a leaf of at most ND_LEAF elements, so halves sort before separators."""
    ne = mesh.n_elements
    eu, ev = mesh.face_elems[mesh.face_elems[:, 1] >= 0].T
    centroids = mesh.vertices[mesh.tri].mean(axis=1)
    depth = 1 + max(0, int(np.ceil(np.log2(ne / ND_LEAF))))
    keys = np.zeros(ne, dtype=np.int64)
    part = np.zeros(ne, dtype=np.int64)  # heap index of each element's part
    live = np.arange(ne)  # elements still to be split
    for level in range(depth):
        live = live[np.argsort(part[live], kind="stable")]
        c = centroids[live]
        starts = np.flatnonzero(np.diff(part[live], prepend=-1))
        counts = np.diff(starts, append=len(live))
        grp = np.repeat(np.arange(len(starts)), counts)
        extent = np.maximum.reduceat(c, starts) - np.minimum.reduceat(c, starts)
        live = live[np.lexsort((c[np.arange(len(c)), extent.argmax(1)[grp]], grp))]
        side = np.full(ne, -1)
        side[live] = np.arange(len(live)) - starts[grp] >= counts[grp] // 2
        done = np.zeros(ne, dtype=bool)
        done[live] = (counts <= ND_LEAF)[grp] | (level == depth - 1)
        side[done] = -1
        # no face joins live elements of two parts: the split cut it
        cut = side[eu] + side[ev] == 1
        done[np.where(side[eu[cut]] == 0, eu[cut], ev[cut])] = True
        w = 3 ** (depth - 1 - level)
        keys[done] += 3 * w - 1  # digit 2 here and at every level below
        live = live[~done[live]]
        if len(live) == 0:
            break
        keys[live] += side[live] * w
        part[live] = 2 * part[live] + 1 + side[live]
        inner = ~done[eu] & ~done[ev]
        eu, ev = eu[inner], ev[inner]
    return keys, depth


def write_mesh_txt(mesh: MeshLevel, path) -> None:
    """Plain-text export: header, `v x y` lines, `e i j k` lines."""
    lines = [f"mesh d=2 nv={mesh.n_vertices} ne={mesh.n_elements}"]
    lines += [f"v {x!r} {y!r}" for x, y in mesh.vertices.tolist()]
    lines += [f"e {a} {b} {c}" for a, b, c in mesh.tri.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_vtk(mesh: MeshLevel, path, cell_data: dict | None = None) -> None:
    """Legacy-VTK unstructured grid export for visualization."""
    ne = mesh.n_elements
    lines = ["# vtk DataFile Version 3.0", "mesh", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {mesh.n_vertices} double"]
    lines += [f"{x} {y} 0.0" for x, y in mesh.vertices.tolist()]
    lines.append(f"CELLS {ne} {4 * ne}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.tri.tolist()]
    lines.append(f"CELL_TYPES {ne}")
    lines += ["5"] * ne
    if cell_data:
        lines.append(f"CELL_DATA {ne}")
        for name, values in cell_data.items():
            lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
            lines += [f"{val}" for val in np.asarray(values).tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
