"""Meshes: bisection refinement, conformity, canonical normals, sizes, export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import min_angle, shape_regularity

from cordesfem import refine_conforming, uniform_refine, unit_square_mesh
from cordesfem.mesh import (
    MeshError,
    canonical_normal,
    convex_polygon_mesh,
    halve,
    write_mesh_txt,
)


# ------------------------------------------------------------------ construction


def test_two_triangle_square_counts():
    m = unit_square_mesh(1)
    assert m.n_vertices == 4
    assert m.n_elements == 2
    assert m.n_faces == 5
    assert int(np.sum(m.face_elems[:, 1] >= 0)) == 1


def test_two_triangle_square_sizes():
    m = unit_square_mesh(1)
    assert np.allclose(np.sqrt(m.areas()), np.sqrt(0.5))
    e = m.vertices[m.face_verts[:, 1]] - m.vertices[m.face_verts[:, 0]]
    lengths = sorted(np.hypot(e[:, 0], e[:, 1]))
    assert np.allclose(lengths, [1, 1, 1, 1, np.sqrt(2)])


def test_structured_grid_conformity():
    m = unit_square_mesh(2)
    assert m.n_elements == 8
    _assert_conforming(m)


def test_nonconvex_polygon_rejected():
    pts = np.array([[0, 0], [2, 0], [2, 2], [1, 0.5], [0, 2]], dtype=float)
    with pytest.raises(MeshError):
        convex_polygon_mesh(pts)


def test_convex_polygon_accepted():
    pts = np.array([[0, 0], [2, 0], [3, 1.5], [1, 3], [-1, 1]], dtype=float)
    m = convex_polygon_mesh(pts)
    _assert_conforming(m)
    assert abs(np.sum(m.areas()) - _polygon_area(pts)) < 1e-12


def _polygon_area(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


# ------------------------------------------------------------------- refinement


def _assert_conforming(m):
    # every interior face is induced with the same vertex pair by both elements
    for f in range(m.n_faces):
        if m.face_elems[f, 1] >= 0:
            va, vb = m.face_verts[f]
            for e in m.face_elems[f]:
                tri = set(m.tri[e])
                assert {va, vb} <= tri
        else:
            assert m.face_elems[f, 1] == -1


def test_refine_marked_single_element():
    m = unit_square_mesh(1)
    fine = refine_conforming(m, {0})
    assert fine.n_elements == 4
    _assert_conforming(fine)
    # marked element 0 no longer survives unrefined
    assert not np.any((fine.ancestor == 0) & _same_area(fine, m, 0))


def _same_area(fine, coarse, parent):
    return np.isclose(fine.areas(), coarse.areas()[parent])


def test_refine_empty_marked_set():
    m = unit_square_mesh(2)
    fine = refine_conforming(m, set())
    assert fine.n_elements == m.n_elements
    assert np.array_equal(fine.tri, m.tri)


def test_nestedness_child_areas_sum_to_parent():
    m = unit_square_mesh(2)
    fine = refine_conforming(m, {0, 5})
    for parent in range(m.n_elements):
        mask = fine.ancestor == parent
        assert abs(np.sum(fine.areas()[mask]) - m.areas()[parent]) < 1e-12


def test_min_angle_bounded_over_ten_uniform_rounds():
    m = unit_square_mesh(1)
    bound = min_angle(m)
    for _ in range(10):
        m = uniform_refine(m)
        _assert_conforming(m)
        # NVB generates finitely many similarity classes; for this initial
        # mesh the observed minimum never drops below the starting 45 deg
        # by more than the class bound (half the initial angle)
        assert min_angle(m) >= 0.5 * bound - 1e-12
    assert m.n_elements == 2 * 2**10


def test_shape_regularity_saturates_adaptive(rng):
    m = unit_square_mesh(2)
    ratios = []
    for _ in range(10):
        marked = set(rng.choice(m.n_elements, size=max(1, m.n_elements // 4),
                                replace=False).tolist())
        m = refine_conforming(m, marked)
        _assert_conforming(m)
        ratios.append(shape_regularity(m))
    # finitely many similarity classes -> the ratio saturates
    assert max(ratios) <= 2.0 * ratios[0] + 1e-12


# ---------------------------------------------------------------------- normals


def test_canonical_normal_examples():
    assert np.allclose(canonical_normal(np.array([0.0, 0]), np.array([1.0, 0])),
                       [0, -1])
    assert np.allclose(canonical_normal(np.array([0.0, 0]), np.array([0.0, 1])),
                       [1, 0])
    # orientation depends only on the vertex pair, not the argument order
    assert np.allclose(canonical_normal(np.array([1.0, 0]), np.array([0.0, 0])),
                       [0, -1])


def test_degenerate_face_rejected():
    with pytest.raises(MeshError):
        canonical_normal(np.array([0.5, 0.5]), np.array([0.5, 0.5]))


def test_boundary_normals_outward():
    m = unit_square_mesh(2)
    for f in range(m.n_faces):
        if m.face_elems[f, 1] < 0:
            mid = m.vertices[m.face_verts[f]].mean(axis=0)
            n = m.face_normals[f]
            # stepping outward leaves the unit square
            out = mid + 1e-3 * n
            assert not (0 <= out[0] <= 1 and 0 <= out[1] <= 1)
            if np.isclose(mid[0], 0.0):
                assert np.allclose(n, [-1, 0])


def test_normal_stability_under_refinement():
    m = unit_square_mesh(2)
    fine = refine_conforming(m, {0})
    coarse_map = {tuple(sorted(m.face_verts[f])): m.face_normals[f]
                  for f in range(m.n_faces)}
    survived = 0
    for f in range(fine.n_faces):
        key = tuple(sorted(fine.face_verts[f]))
        if key in coarse_map:
            survived += 1
            assert np.allclose(fine.face_normals[f], coarse_map[key], atol=1e-14)
    assert survived > 0


# ----------------------------------------------------------------------- export


def test_mesh_txt_roundtrip_format(tmp_path):
    m = unit_square_mesh(2)
    path = tmp_path / "mesh.txt"
    write_mesh_txt(m, path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split()
    assert header[0] == "mesh" and header[1] == "d=2"
    assert header[2] == f"nv={m.n_vertices}" and header[3] == f"ne={m.n_elements}"
    vlines = [l for l in lines[1:] if l.startswith("v ")]
    elines = [l for l in lines[1:] if l.startswith("e ")]
    assert len(vlines) == m.n_vertices and len(elines) == m.n_elements
    verts = np.array([[float(t) for t in l.split()[1:]] for l in vlines])
    assert np.allclose(verts, m.vertices)


PENTAGON = np.array([[0, 0], [2, 0], [3, 1.5], [1, 3], [-1, 1]], dtype=float)


def _reference_polygon_mesh(points):
    """The fan triangles of `convex_polygon_mesh` from its former loops: each
    fan triangle's peak, then its other two vertices ordered by the sign of
    a cross product; MeshError for input that is not strictly convex."""
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
        verts = [0, i, i + 1]
        lengths = [np.linalg.norm(pts[verts[(j + 1) % 3]] - pts[verts[(j + 2) % 3]])
                   for j in range(3)]
        peak = verts[int(np.argmax(lengths))]
        b, c = [v for v in verts if v != peak]
        d1, d2 = pts[b] - pts[peak], pts[c] - pts[peak]
        tris.append((peak, b, c) if d1[0] * d2[1] - d1[1] * d2[0] > 0.0
                    else (peak, c, b))
    return np.array(tris, dtype=np.int64)


def _assert_polygon_mesh_matches_reference(pts):
    try:
        want = _reference_polygon_mesh(pts)
    except MeshError:
        with pytest.raises(MeshError):
            convex_polygon_mesh(pts)
        return
    got = convex_polygon_mesh(pts).tri
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _regular_polygon(n):
    angles = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(angles), np.sin(angles)])


@pytest.mark.parametrize("pts", [PENTAGON] + [_regular_polygon(n)
                                              for n in range(3, 13)])
def test_polygon_mesh_matches_loop_reference(pts):
    # the edges of a regular polygon tie, so its peaks follow argmax's ties
    _assert_polygon_mesh_matches_reference(pts)


def test_near_regular_polygon_meshes_match_loop_reference():
    # regular polygons moved by a few ulps: their edge lengths tie to the
    # last bit, so the peaks follow the lengths' rounding
    rng = np.random.default_rng(5)
    for n in np.tile(np.arange(3, 13), 200):
        angles = 2.0 * np.pi * np.arange(n) / n + rng.integers(-3, 4, n) * 2.0**-52
        scale = 1.0 + rng.integers(-3, 4, (n, 1)) * 2.0**-52
        pts = np.column_stack([np.cos(angles), np.sin(angles)]) * scale
        _assert_polygon_mesh_matches_reference(pts)


@st.composite
def _polygons(draw):
    # counterclockwise points at increasing angles, from sorted draws (which
    # may nearly coincide) or from gaps (equal gaps tie edge lengths), at
    # equal radii (convex) or random ones (mostly not), under a map of
    # positive determinant
    n = draw(st.integers(min_value=3, max_value=12))
    unit = st.floats(min_value=0.0, max_value=1.0)
    if draw(st.booleans()):
        angles = 2.0 * np.pi * np.sort(draw(st.lists(unit, min_size=n, max_size=n)))
    else:
        gaps = draw(st.lists(st.floats(min_value=0.1, max_value=1.0),
                             min_size=n, max_size=n))
        angles = 2.0 * np.pi * np.cumsum(gaps) / sum(gaps)
    radii = draw(st.one_of(st.just([1.0] * n), st.lists(
        st.floats(min_value=0.5, max_value=1.5), min_size=n, max_size=n)))
    pts = np.column_stack([np.cos(angles), np.sin(angles)]) * np.array(radii)[:, None]
    return pts @ np.array([[1.0, 0.0], [draw(unit), 0.2 + draw(unit)]])


@given(_polygons())
@settings(max_examples=200, deadline=None)
def test_random_polygon_mesh_matches_loop_reference(pts):
    _assert_polygon_mesh_matches_reference(pts)


def _reference_refine(mesh, marked):
    """Element-by-element newest-vertex bisection: closure sweeps over all
    elements with edges as vertex pairs, then recursive bisection."""
    tri = mesh.tri

    def key(a, b):
        return (int(min(a, b)), int(max(a, b)))

    split = {key(tri[e, 1], tri[e, 2]) for e in marked}
    changed = True
    while changed:
        changed = False
        for p, b, c in tri:
            ref, sides = key(b, c), (key(p, b), key(c, p))
            if ref not in split and (sides[0] in split or sides[1] in split):
                split.add(ref)
                changed = True

    vertices = [tuple(x) for x in mesh.vertices]
    midpoint = {}
    out_tri, out_anc = [], []

    def bisect(verts, anc):
        p, b, c = verts
        if key(b, c) not in split:
            out_tri.append(verts)
            out_anc.append(anc)
            return
        if key(b, c) not in midpoint:
            midpoint[key(b, c)] = len(vertices)
            pm = 0.5 * (mesh.vertices[b] + mesh.vertices[c])
            vertices.append((pm[0], pm[1]))
        m = midpoint[key(b, c)]
        bisect((m, p, b), anc)
        bisect((m, c, p), anc)

    for e in range(mesh.n_elements):
        bisect(tuple(int(v) for v in tri[e]), e)
    return (np.array(vertices, dtype=float), np.array(out_tri, dtype=np.int64),
            np.array(out_anc, dtype=np.int64))


def _outward_normal(vertices, elem_verts, p0, p1):
    """Unit normals of the segments p0-p1, (n, 2), pointing out of the
    elements with vertices elem_verts, (n, 3), by their centroids."""
    t = p1 - p0
    n = np.stack([t[:, 1], -t[:, 0]], axis=1)
    n /= np.hypot(n[:, 0], n[:, 1])[:, None]
    centroid = vertices[elem_verts].mean(axis=1)
    mid = 0.5 * (p0 + p1)
    outward = np.einsum("fi,fi->f", n, mid - centroid) > 0.0
    return np.where(outward[:, None], n, -n)


def _reference_faces(vertices, tri):
    """The face arrays numbered by a 2-D `np.unique(axis=0)` over the
    sorted vertex pairs, and every face's outward normal taken from its
    first element's centroid, as `mesh._build_faces` did before its 1-D keys
    and orientation-based normals."""
    ends = np.sort(tri[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2), axis=1)
    fv, face_of, count = np.unique(
        ends, axis=0, return_inverse=True, return_counts=True
    )
    side = np.argsort(face_of.ravel(), kind="stable") // 3
    first = np.cumsum(count) - count
    interior = count == 2
    fe = np.full((len(fv), 2), -1, dtype=np.int64)
    fe[:, 0] = side[first]
    fe[interior, 1] = side[first[interior] + 1]
    p0, p1 = vertices[fv[:, 0]], vertices[fv[:, 1]]
    out0 = _outward_normal(vertices, tri[fe[:, 0]], p0, p1)
    fn = np.where(interior[:, None], canonical_normal(p0, p1), out0)
    swap = np.einsum("fi,fi->f", out0, fn) < 0.0
    fe[swap] = fe[swap, ::-1]
    return fv, fe, fn, face_of.reshape(-1, 3)


FACE_ARRAYS = ("face_verts", "face_elems", "face_normals", "elem_faces")


def _assert_faces_match_reference(m):
    for name, want in zip(FACE_ARRAYS, _reference_faces(m.vertices, m.tri)):
        got = getattr(m, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("make", [
    lambda: unit_square_mesh(1),
    lambda: unit_square_mesh(5),
    lambda: uniform_refine(uniform_refine(unit_square_mesh(3))),
    lambda: halve(unit_square_mesh(1)),
    lambda: halve(unit_square_mesh(3)),
    lambda: convex_polygon_mesh(PENTAGON),
    lambda: halve(convex_polygon_mesh(PENTAGON)),
])
def test_faces_bitwise_match_two_column_unique_reference(make):
    _assert_faces_match_reference(make())


@st.composite
def _marking_sequences(draw):
    start = draw(st.sampled_from(["square1", "square2", "square3", "pentagon"]))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=5))
    seed = draw(st.integers(0, 2**32 - 1))
    return start, fractions, seed


@given(_marking_sequences())
@settings(max_examples=40, deadline=None)
def test_refinement_bitwise_matches_elementwise_reference(case):
    start, fractions, seed = case
    rng = np.random.default_rng(seed)
    if start == "pentagon":
        m = convex_polygon_mesh(PENTAGON)
    else:
        m = unit_square_mesh(int(start[-1]))
    for frac in fractions:
        size = int(round(frac * m.n_elements))
        marked = set(rng.choice(m.n_elements, size=size, replace=False).tolist())
        fine = refine_conforming(m, marked)
        ref = _reference_refine(m, marked)
        for name, want in zip(("vertices", "tri", "ancestor"), ref):
            got = getattr(fine, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name
        _assert_faces_match_reference(fine)
        m = fine


@pytest.mark.parametrize("make", [
    lambda: unit_square_mesh(3),
    lambda: convex_polygon_mesh(PENTAGON),
    lambda: refine_conforming(unit_square_mesh(2), {0, 5, 6}),
])
def test_elem_faces_are_opposite_edges(make):
    m = make()
    assert m.elem_faces.shape == (m.n_elements, 3)
    for l in range(3):
        others = np.sort(np.delete(m.tri, l, axis=1), axis=1)
        assert np.array_equal(m.face_verts[m.elem_faces[:, l]], others)


@pytest.mark.parametrize("bad", [{8}, {0, 100}, {-1}, [3, -2]])
def test_refine_rejects_ids_outside_mesh(bad):
    with pytest.raises(MeshError):
        refine_conforming(unit_square_mesh(2), bad)


@pytest.mark.parametrize("marked", [
    range(2, 6), np.array([2, 3, 4, 5]), np.arange(2, 6, dtype=np.int32),
    [np.int64(5), np.int64(2), 3, 4], set(),
])
def test_refine_accepts_any_iterable_of_ids(marked):
    m = unit_square_mesh(2)
    want = refine_conforming(m, set(int(e) for e in marked))
    got = refine_conforming(m, marked)
    for name in ("vertices", "tri", "ancestor"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@given(st.sets(st.integers(min_value=0, max_value=7), max_size=8))
@settings(max_examples=25, deadline=None)
def test_refinement_always_conforming(marked):
    m = unit_square_mesh(2)
    fine = refine_conforming(m, marked)
    _assert_conforming(fine)
    assert abs(np.sum(fine.areas()) - 1.0) < 1e-12
