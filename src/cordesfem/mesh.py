"""Conforming triangulations of convex polygons with newest-vertex bisection.

Elements are stored peak-first: the local vertex 0 is the peak (newest
vertex) and the refinement edge is the opposite edge (local vertices 1, 2).
Face normals are canonical: for interior faces the tangent runs from the
lexicographically smaller endpoint to the larger and the normal is the
clockwise rotation of the tangent; boundary faces always carry the outward
normal. The normal of a face therefore depends on its endpoint coordinates
only, never on the refinement level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

INTERIOR = 0
BOUNDARY = 1


class MeshError(ValueError):
    """Invalid mesh topology or geometry."""


@dataclass(frozen=True)
class SizeData:
    h_elem: np.ndarray  # h_K = |K|^(1/2)
    h_face: np.ndarray  # h_F = length(F)


@dataclass(frozen=True)
class MeshLevel:
    """One level of the adaptive hierarchy. Immutable after construction."""

    vertices: np.ndarray  # (nv, 2)
    tri: np.ndarray  # (ne, 3) peak-first, counterclockwise
    level: np.ndarray  # (ne,) bisection generation per element
    ancestor: np.ndarray  # (ne,) element id in the previous MeshLevel, or -1
    k: int = 0

    # face data, filled in __post_init__
    face_verts: np.ndarray = field(default=None, repr=False)
    face_kind: np.ndarray = field(default=None, repr=False)
    face_elems: np.ndarray = field(default=None, repr=False)  # (nf, 2), minus first
    face_normals: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        v, t = self.vertices, self.tri
        if not np.all(np.isfinite(v)):
            raise MeshError("non-finite vertex coordinates")
        areas = signed_areas(v, t)
        if np.any(areas <= 0.0):
            raise MeshError("element with nonpositive signed area")
        fv, fk, fe, fn = _build_faces(v, t)
        object.__setattr__(self, "face_verts", fv)
        object.__setattr__(self, "face_kind", fk)
        object.__setattr__(self, "face_elems", fe)
        object.__setattr__(self, "face_normals", fn)

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

    def sizes(self) -> SizeData:
        h_elem = np.sqrt(self.areas())
        e = self.vertices[self.face_verts[:, 1]] - self.vertices[self.face_verts[:, 0]]
        return SizeData(h_elem, np.hypot(e[:, 0], e[:, 1]))

    def boundary_vertex_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[self.face_verts[self.face_kind == BOUNDARY].ravel()] = True
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
    # local vertex l; faces come out sorted by their vertex pair
    ends = np.sort(tri[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2), axis=1)
    fv, face_of, count = np.unique(
        ends, axis=0, return_inverse=True, return_counts=True
    )
    if np.any(count > 2):
        key = tuple(int(v) for v in fv[np.argmax(count)])
        raise MeshError(f"face {key} shared by more than two elements")
    # adjacent elements of each face in element order
    side = np.argsort(face_of.ravel(), kind="stable") // 3
    first = np.cumsum(count) - count
    interior = count == 2
    fe = np.full((len(fv), 2), -1, dtype=np.int64)
    fe[:, 0] = side[first]
    fe[interior, 1] = side[first[interior] + 1]
    fk = np.where(interior, INTERIOR, BOUNDARY).astype(np.int8)
    p0, p1 = vertices[fv[:, 0]], vertices[fv[:, 1]]
    out0 = _outward_normal(vertices, tri[fe[:, 0]], p0, p1)
    fn = np.where(interior[:, None], canonical_normal(p0, p1), out0)
    # minus side: the element for which n is outward pointing
    swap = np.einsum("fi,fi->f", out0, fn) < 0.0
    fe[swap] = fe[swap, ::-1]
    return fv, fk, fe, fn


def _outward_normal(vertices, elem_verts, p0, p1):
    """Unit normals of the segments p0-p1, (n, 2), pointing out of the
    elements with vertices elem_verts, (n, 3)."""
    t = p1 - p0
    n = np.stack([t[:, 1], -t[:, 0]], axis=1)
    n /= np.hypot(n[:, 0], n[:, 1])[:, None]
    centroid = vertices[elem_verts].mean(axis=1)
    mid = 0.5 * (p0 + p1)
    outward = np.einsum("fi,fi->f", n, mid - centroid) > 0.0
    return np.where(outward[:, None], n, -n)


def _ccw(vertices, peak, b, c):
    """Order (b, c) so that (peak, b, c) is counterclockwise."""
    d1 = vertices[b] - vertices[peak]
    d2 = vertices[c] - vertices[peak]
    if d1[0] * d2[1] - d1[1] * d2[0] > 0.0:
        return peak, b, c
    return peak, c, b


def unit_square_mesh(n: int) -> MeshLevel:
    """Structured triangulation of (0,1)^2 with 2*n^2 right triangles.

    Refinement edges are the square diagonals (hypotenuses).
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    tris = []
    for i in range(n):
        for j in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v01))  # peak v00, hypotenuse v10-v01
            tris.append((v11, v01, v10))  # peak v11, hypotenuse v01-v10
    tri = np.array(tris, dtype=np.int64)
    ne = len(tri)
    return MeshLevel(
        vertices,
        tri,
        np.zeros(ne, dtype=np.int64),
        np.full(ne, -1, dtype=np.int64),
        k=0,
    )


def convex_polygon_mesh(points) -> MeshLevel:
    """Fan triangulation of a convex polygon given by its counterclockwise
    vertices. Nonconvex input is rejected."""
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    if m < 3:
        raise MeshError("polygon needs at least 3 vertices")
    for i in range(m):
        a, b, c = pts[i], pts[(i + 1) % m], pts[(i + 2) % m]
        cr = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if cr <= 0.0:
            raise MeshError("polygon is not strictly convex counterclockwise")
    tris = []
    for i in range(1, m - 1):
        # peak at the vertex opposite the longest edge of the fan triangle
        verts = [0, i, i + 1]
        lengths = [
            np.linalg.norm(pts[verts[(j + 1) % 3]] - pts[verts[(j + 2) % 3]])
            for j in range(3)
        ]
        peak = verts[int(np.argmax(lengths))]
        rest = [v for v in verts if v != peak]
        tris.append(_ccw(pts, peak, rest[0], rest[1]))
    tri = np.array(tris, dtype=np.int64)
    ne = len(tri)
    return MeshLevel(
        pts.copy(),
        tri,
        np.zeros(ne, dtype=np.int64),
        np.full(ne, -1, dtype=np.int64),
        k=0,
    )


def refine_conforming(mesh: MeshLevel, marked) -> MeshLevel:
    """Newest-vertex bisection of the marked elements with conformity closure.

    Returns a new conforming MeshLevel with k incremented; an empty marked
    set yields an identical copy. Every new element records the id of the
    element of `mesh` it came from.
    """
    marked = set(int(m) for m in marked)
    if not marked <= set(range(mesh.n_elements)):
        raise MeshError("marked set contains ids outside the mesh")

    tri = mesh.tri

    def edge_key(a, b):
        return (int(min(a, b)), int(max(a, b)))

    # closure by edge marking: mark refinement edges until no element has a
    # marked non-refinement edge without its refinement edge marked too
    marked_edges: set[tuple[int, int]] = set()
    for e in marked:
        marked_edges.add(edge_key(tri[e, 1], tri[e, 2]))
    max_rounds = mesh.n_elements + mesh.n_faces + 2
    for _ in range(max_rounds):
        changed = False
        for e in range(mesh.n_elements):
            ref_edge = edge_key(tri[e, 1], tri[e, 2])
            if ref_edge in marked_edges:
                continue
            others = (
                edge_key(tri[e, 0], tri[e, 1]),
                edge_key(tri[e, 2], tri[e, 0]),
            )
            if others[0] in marked_edges or others[1] in marked_edges:
                marked_edges.add(ref_edge)
                changed = True
        if not changed:
            break
    else:  # pragma: no cover - broken refinement-edge assignment
        raise MeshError("conformity closure failed to terminate")

    vertices = [tuple(p) for p in mesh.vertices]
    midpoint: dict[tuple[int, int], int] = {}

    def mid(a, b):
        key = edge_key(a, b)
        vi = midpoint.get(key)
        if vi is None:
            pm = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
            vi = len(vertices)
            vertices.append((pm[0], pm[1]))
            midpoint[key] = vi
        return vi

    new_tri: list[tuple[int, int, int]] = []
    new_level: list[int] = []
    new_anc: list[int] = []

    def emit(verts, level, anc):
        new_tri.append(verts)
        new_level.append(level)
        new_anc.append(anc)

    def bisect(verts, level, anc, depth):
        peak, b, c = verts
        if edge_key(b, c) not in marked_edges:
            emit(verts, level, anc)
            return
        if depth > 2:  # pragma: no cover
            raise MeshError("bisection recursion exceeded bound; "
                            "refinement-edge assignment is broken")
        m = mid(b, c)
        # children: newest vertex m becomes the peak; refinement edges are the
        # former edges (peak, b) and (peak, c)
        bisect((m, peak, b), level + 1, anc, depth + 1)
        bisect((m, c, peak), level + 1, anc, depth + 1)

    for e in range(mesh.n_elements):
        bisect(tuple(int(v) for v in tri[e]), int(mesh.level[e]), e, 0)

    return MeshLevel(
        np.array(vertices, dtype=float),
        np.array(new_tri, dtype=np.int64),
        np.array(new_level, dtype=np.int64),
        np.array(new_anc, dtype=np.int64),
        k=mesh.k + 1,
    )


def uniform_refine(mesh: MeshLevel) -> MeshLevel:
    return refine_conforming(mesh, range(mesh.n_elements))


def min_angle(mesh: MeshLevel) -> float:
    """Smallest interior angle over all elements, in radians."""
    v = mesh.vertices[mesh.tri]  # (ne, 3, 2)
    angles = []
    for i in range(3):
        a = v[:, (i + 1) % 3] - v[:, i]
        b = v[:, (i + 2) % 3] - v[:, i]
        cosang = np.einsum("ij,ij->i", a, b) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        )
        angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return float(np.min(angles))


def shape_regularity(mesh: MeshLevel) -> float:
    """Max over elements of longest edge / shortest altitude."""
    v = mesh.vertices[mesh.tri]
    e0 = np.linalg.norm(v[:, 2] - v[:, 1], axis=1)
    e1 = np.linalg.norm(v[:, 0] - v[:, 2], axis=1)
    e2 = np.linalg.norm(v[:, 1] - v[:, 0], axis=1)
    longest = np.max([e0, e1, e2], axis=0)
    alt = 2.0 * mesh.areas() / longest
    return float(np.max(longest / alt))


def write_mesh_txt(mesh: MeshLevel, path) -> None:
    """Plain-text export: header, `v x y` lines, `e i j k` lines."""
    with open(path, "w") as fh:
        fh.write(f"mesh d=2 nv={mesh.n_vertices} ne={mesh.n_elements}\n")
        for x, y in mesh.vertices:
            fh.write(f"v {float(x)!r} {float(y)!r}\n")
        for a, b, c in mesh.tri:
            fh.write(f"e {a} {b} {c}\n")


def write_vtk(mesh: MeshLevel, path, cell_data: dict | None = None) -> None:
    """Legacy-VTK unstructured grid export for visualization."""
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nmesh\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_vertices} double\n")
        for x, y in mesh.vertices:
            fh.write(f"{x} {y} 0.0\n")
        ne = mesh.n_elements
        fh.write(f"CELLS {ne} {4 * ne}\n")
        for a, b, c in mesh.tri:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {ne}\n")
        fh.write("5\n" * ne)
        if cell_data:
            fh.write(f"CELL_DATA {ne}\n")
            for name, values in cell_data.items():
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                for val in values:
                    fh.write(f"{val}\n")
