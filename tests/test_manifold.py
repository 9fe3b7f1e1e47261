import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy import sparse

from curvflow.errors import (
    CurvFlowError,
    DegenerateTriangle,
    InnerSolverFailure,
    InvalidGridSpec,
    MeshFormatError,
    NonTriangleFace,
    SizeMismatch,
)
from curvflow import manifold as manifold_module
from curvflow.manifold import (
    _PCG_RTOL,
    _matvec,
    _max,
    _min,
    _simplicial,
    _solve,
    DiscreteManifold,
    build_torus_grid,
    dirichlet_energy,
    integrate,
    laplacian_apply,
    load_off_mesh,
    product,
)

from conftest import (
    BIPYRAMID_OFF,
    OCTAHEDRON_OFF,
    TWO_PI,
    circle,
    make_icosphere,
    make_s3,
    write_off,
)
from reference_cotangent import cotangent_arrays
from reference_grid import coo_product_stiffness, factorwise_edge_energy, torus_grid_arrays

EPS = np.finfo(float).eps


def test_circle_volume_exact():
    man = circle(8)
    assert man.volume == pytest.approx(TWO_PI, abs=1e-14)
    assert man.dim == 1
    assert man.node_count == 8
    assert np.all(man.mass > 0)


def test_torus2d_volume_and_kernel():
    man = build_torus_grid([4, 4], [1.0, 1.0])
    assert man.volume == pytest.approx(1.0, abs=1e-14)
    ones = np.ones(man.node_count)
    assert np.max(np.abs(man.stiffness @ ones)) == 0.0


def test_grid_spec_errors():
    with pytest.raises(InvalidGridSpec):
        build_torus_grid([8], [1.0, 2.0])
    with pytest.raises(InvalidGridSpec):
        build_torus_grid([2], [1.0])
    with pytest.raises(InvalidGridSpec):
        build_torus_grid([8], [-1.0])
    with pytest.raises(InvalidGridSpec):
        build_torus_grid([], [])
    with pytest.raises(InvalidGridSpec, match="length"):  # the first bad side raises first
        build_torus_grid([8, 2, 8], [-1.0, 1.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # each error must come without a RuntimeWarning
        with pytest.raises(InvalidGridSpec, match="N/L"):
            build_torus_grid([3], [5e-324])  # h = L/N rounds to 0
        with pytest.raises(InvalidGridSpec, match="N/L"):
            build_torus_grid([4], [1e-310])  # 1/h overflows
        with pytest.raises(CurvFlowError, match="stiffness"):
            build_torus_grid([3, 3], [3e-300, 3e300])  # the weight (1/h_0) h_1 overflows


def test_hand_built_manifold_is_checked():
    S = circle(4).stiffness
    for mass in ([1.0, 1.0, 0.0, 1.0], [1.0, -1.0, 1.0, 1.0], [1.0, np.nan, 1.0, 1.0],
                 [1.0, 1.0, np.inf, 1.0]):
        with pytest.raises(CurvFlowError, match="mass"):
            DiscreteManifold(coordinates=np.zeros((4, 1)), mass=np.array(mass), stiffness=S, dim=1)
    for bad in (np.inf, -np.inf, np.nan):
        T = S.copy()
        T.data[2] = bad
        with pytest.raises(CurvFlowError, match="stiffness"):
            DiscreteManifold(coordinates=np.zeros((4, 1)), mass=np.ones(4), stiffness=T, dim=1)
    # _matvec hands S's arrays to a kernel that checks neither their type nor their bounds
    for T in (S.tocsc(), S.tocoo(), S.astype(np.float32), S.astype(np.int64), S.toarray()):
        with pytest.raises(CurvFlowError, match="float64 CSR"):
            DiscreteManifold(coordinates=np.zeros((4, 1)), mass=np.ones(4), stiffness=T, dim=1)
    with pytest.raises(SizeMismatch, match=r"stiffness has shape \(8, 8\), expected \(4, 4\)"):
        DiscreteManifold(coordinates=np.zeros((4, 1)), mass=np.ones(4),
                         stiffness=circle(8).stiffness, dim=1)


def _grid_gaps(counts, lengths):
    """(largest S move in ulps, S's pattern equal, coordinates equal, mass
    equal) of build_torus_grid against the n-D index assembly."""
    coords, mass, S = torus_grid_arrays(counts, lengths)
    man = build_torus_grid(counts, lengths)
    T = man.stiffness
    pattern = np.array_equal(T.indptr, S.indptr) and np.array_equal(T.indices, S.indices)
    ulps = math.inf
    if pattern:
        ulps = float(np.max(np.abs(T.data - S.data) / np.spacing(np.abs(S.data))))
    return ulps, pattern, np.array_equal(man.coordinates, coords), np.array_equal(man.mass, mass)


# every grid the test suite and the bench build from fixed counts and sides
# (the circles drawn at random are the last test's)
BUILT_GRIDS = [([n], [L]) for n, L in [
    (3, TWO_PI), (8, TWO_PI), (16, 1.0), (16, TWO_PI), (32, 1.0), (32, TWO_PI), (64, 1.0),
    (64, TWO_PI), (128, TWO_PI), (256, TWO_PI), (512, TWO_PI), (1024, TWO_PI)]] + [
    ([4, 4], [1.0] * 2), ([8, 8], [1.0] * 2), ([16, 16], [1.0] * 2), ([8, 8], [TWO_PI] * 2),
    ([24, 24], [TWO_PI] * 2), ([32, 32], [TWO_PI] * 2), ([8, 8, 8], [TWO_PI] * 3)]


@pytest.mark.parametrize("counts,lengths", BUILT_GRIDS)
def test_torus_grid_is_the_index_assembly_bit_for_bit(counts, lengths):
    assert _grid_gaps(counts, lengths) == (0.0, True, True, True)


# grids where the product's weight (1/h_0) h_1 rounds apart from (h_0 h_1) / h_0^2,
# or its diagonal 2a + 2b from a + a + b + b
@pytest.mark.parametrize("counts,lengths", [
    ([5, 6, 7], [1.0, 2.0, 3.0]), ([3, 3], [0.1, 0.7]), ([16, 24], [TWO_PI] * 2),
    ([12, 12, 12], [TWO_PI] * 3), ([1000, 3], [TWO_PI] * 2), ([1000, 1000], [TWO_PI] * 2)])
def test_torus_grid_is_the_index_assembly_to_an_ulp(counts, lengths):
    ulps, *equal = _grid_gaps(counts, lengths)
    assert 0.0 < ulps <= 1.0 and all(equal)


def _factor(S, seed=0):
    """A 1-D manifold on S as given, with masses drawn from seed."""
    n = S.shape[0]
    rng = np.random.default_rng(seed)
    return DiscreteManifold(coordinates=np.arange(n, dtype=float)[:, None],
                            mass=rng.uniform(0.5, 2.0, n), stiffness=S, dim=1)


def _stored_zeros():
    # a 6-circle with two stored zeros: +0.0 at (0, 1) and -0.0 on the diagonal at (1, 1)
    S = circle(6).stiffness.copy()
    S.data[[1, 4]] = 0.0, -0.0
    return _factor(S)


def _unsorted_with_duplicates():
    # the 7-circle's entries shuffled within their rows, five of them stored twice
    # more with other values and the diagonal (3, 3) three times more
    rng = np.random.default_rng(1)
    S = circle(7).stiffness.tocoo()
    rows = np.concatenate([S.row, S.row[:5], S.row[:5], [3, 3, 3]])
    cols = np.concatenate([S.col, S.col[:5], S.col[:5], [3, 3, 3]])
    vals = np.concatenate([S.data, rng.standard_normal(13)])
    order = np.lexsort((rng.random(len(rows)), rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=7))])
    S = sparse.csr_matrix((vals[order], cols[order].astype(np.int32), indptr.astype(np.int32)),
                          shape=(7, 7))
    assert not S.has_sorted_indices
    return _factor(S, seed=2)


def _diagonal_missing():
    # a 6-circle whose rows 2 and 4 store no diagonal
    S = circle(6).stiffness.tolil()
    S[2, 2] = S[4, 4] = 0.0
    S = S.tocsr()
    S.eliminate_zeros()
    return _factor(S, seed=3)


PRODUCT_CASES = {
    "32x32": lambda request: [circle(32)] * 2,
    "1000x3": lambda request: [circle(1000), circle(3)],
    "1000x1000": lambda request: [circle(1000)] * 2,
    "8x8x8": lambda request: [circle(8)] * 3,
    "icosphere2_x_s1_5": lambda request: [request.getfixturevalue("icosphere2"), circle(5, 5.0)],
    "bipyramid_x_s1_7": lambda request: [request.getfixturevalue("bipyramid"), circle(7, 3.0)],
    "stored_zeros": lambda request: [_stored_zeros(), circle(4), _stored_zeros()],
    "unsorted_duplicates": lambda request: [_unsorted_with_duplicates(), circle(5),
                                            _unsorted_with_duplicates()],
    "diagonal_missing": lambda request: [_diagonal_missing(), circle(3), _diagonal_missing()],
}


@pytest.mark.parametrize("case", list(PRODUCT_CASES))
def test_product_stiffness_is_the_coo_assembly_byte_for_byte(case, request):
    # each product, left to right, against the COO triplets summed by tocsr: indptr,
    # indices and data byte for byte, their dtypes, and the canonical format
    factors = PRODUCT_CASES[case](request)
    man, S, M = factors[0], factors[0].stiffness, factors[0].mass
    for f in factors[1:]:
        man, S, M = product(man, f), coo_product_stiffness(S, M, f.stiffness, f.mass), np.kron(M, f.mass)
        got = man.stiffness
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(S, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.has_canonical_format and S.has_canonical_format
        assert man.mass.tobytes() == M.tobytes()
    if case == "stored_zeros":
        assert np.count_nonzero(man.stiffness.data == 0) > 0


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=3, max_value=40), length=st.floats(min_value=0.1, max_value=50.0))
def test_circle_is_the_index_assembly_to_an_ulp(n, length):
    # 1 / h against h / h^2: a quarter of circles differ, by one ulp
    ulps, *equal = _grid_gaps([n], [length])
    assert ulps <= 1.0 and all(equal)


def test_stiffness_symmetric_exact(circle128):
    S = circle128.stiffness
    assert abs(S - S.T).max() == 0.0


def test_integrate_constants(circle256):
    man = circle256
    assert integrate(man, np.ones(256)) == pytest.approx(TWO_PI, rel=1e-14)
    assert integrate(man, np.zeros(256)) == 0.0


def test_integrate_cos_squared(circle256):
    x = circle256.coordinates[:, 0]
    assert integrate(circle256, np.cos(x) ** 2) == pytest.approx(math.pi, abs=1e-6)


def test_integrate_size_mismatch(circle64):
    with pytest.raises(SizeMismatch):
        integrate(circle64, np.ones(7))


def test_dirichlet_energy_constant_zero(circle128):
    assert dirichlet_energy(circle128, 3.7 * np.ones(128)) == 0.0


def test_dirichlet_energy_sin(circle256):
    x = circle256.coordinates[:, 0]
    # int_0^{2pi} cos^2 = pi
    assert dirichlet_energy(circle256, np.sin(x)) == pytest.approx(math.pi, rel=1e-3)


def test_dirichlet_energy_shift_invariant(circle128):
    rng = np.random.default_rng(11)
    u = rng.standard_normal(128)
    e0 = dirichlet_energy(circle128, u)
    e1 = dirichlet_energy(circle128, u + 42.0)
    assert e1 == pytest.approx(e0, rel=1e-10)


def test_laplacian_constant_zero(circle128):
    lap = laplacian_apply(circle128, np.full(128, 2.5))
    assert np.max(np.abs(lap)) == 0.0


def test_laplacian_cos(circle256):
    x = circle256.coordinates[:, 0]
    lap = laplacian_apply(circle256, np.cos(x))
    assert np.max(np.abs(lap + np.cos(x))) < 1e-3


def test_laplacian_mean_zero(circle128):
    rng = np.random.default_rng(5)
    u = rng.standard_normal(128)
    assert integrate(circle128, laplacian_apply(circle128, u)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_laplacian_sign_convention(circle256):
    # concave bump: negative second derivative at the peak
    x = circle256.coordinates[:, 0]
    u = np.exp(np.cos(x))
    lap = laplacian_apply(circle256, u)
    assert lap[np.argmax(u)] < 0


def test_green_identity(circle128):
    rng = np.random.default_rng(7)
    u = rng.standard_normal(128)
    v = rng.standard_normal(128)
    lhs = integrate(circle128, v * laplacian_apply(circle128, u))
    rhs = -float(v @ (circle128.stiffness @ u))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_laplacian_second_order_convergence():
    errs = []
    for n in (64, 128, 256, 512):
        man = circle(n)
        x = man.coordinates[:, 0]
        errs.append(np.max(np.abs(laplacian_apply(man, np.cos(x)) + np.cos(x))))
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine >= 3.5


def test_dirichlet_energy_second_order_convergence():
    errs = []
    for n in (64, 128, 256, 512):
        man = circle(n)
        x = man.coordinates[:, 0]
        errs.append(abs(dirichlet_energy(man, np.sin(x)) - math.pi))
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine >= 3.5


def _assert_stiffness_identities(man, grid):
    """What construction guarantees and nothing checks at run time: S = S^T
    exactly, zero row sums to roundoff, and on grids every weight -S_ij >= 0."""
    S = man.stiffness
    assert (S != S.T).nnz == 0
    row_sums = np.abs(S @ np.ones(man.node_count))
    row_scale = np.asarray(abs(S).sum(axis=1)).ravel()
    assert np.all(row_sums <= 1e-12 * row_scale)
    if grid:
        off = sparse.triu(S, k=1)
        assert np.all(off.data <= 0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=40),
    length=st.floats(min_value=0.1, max_value=50.0),
    more=st.lists(st.tuples(st.integers(min_value=3, max_value=10),
                            st.floats(min_value=0.1, max_value=50.0)), max_size=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_grid_operator_properties(n, length, more, seed, octahedron):
    counts, lengths = [n] + [m for m, _ in more], [length] + [L for _, L in more]
    man = build_torus_grid(counts, lengths)
    assert man.volume == pytest.approx(math.prod(lengths), rel=1e-12)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(man.node_count)
    assert dirichlet_energy(man, x) >= -1e-12 * float(x @ x)
    _assert_stiffness_identities(man, grid=True)
    _assert_stiffness_identities(product(octahedron, circle(n, length)), grid=False)


def test_obtuse_mesh_stiffness_is_psd(bipyramid):
    # some cotangent weights are negative, yet S is PSD: a sum of per-triangle Gram matrices
    assert sparse.triu(bipyramid.stiffness, k=1).data.max() > 0
    for man in (bipyramid, product(bipyramid, circle(7, 3.0))):
        _assert_stiffness_identities(man, grid=False)
        S = man.stiffness
        assert np.linalg.eigvalsh(S.toarray()).min() >= -1e-12 * abs(S).max()


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(min_value=-5, max_value=5),
    b=st.floats(min_value=-5, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_integrate_linearity(a, b, seed, circle64):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(64)
    g = rng.standard_normal(64)
    lhs = integrate(circle64, a * f + b * g)
    rhs = a * integrate(circle64, f) + b * integrate(circle64, g)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_octahedron_area(octahedron):
    # 8 equilateral triangles of side sqrt(2): total area 4 sqrt(3);
    # cross-checked by summing triangle areas directly
    assert octahedron.volume == pytest.approx(4.0 * math.sqrt(3.0), rel=1e-14)
    p = octahedron.coordinates
    tris = [
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ]
    direct = sum(
        0.5 * np.linalg.norm(np.cross(p[j] - p[i], p[k] - p[i]))
        for i, j, k in tris
    )
    assert octahedron.volume == pytest.approx(direct, rel=1e-14)


def test_octahedron_kernel_and_psd(octahedron):
    ones = np.ones(octahedron.node_count)
    assert np.max(np.abs(octahedron.stiffness @ ones)) < 1e-14
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(octahedron.node_count)
        assert dirichlet_energy(octahedron, x) >= -1e-12 * float(x @ x)


def test_icosphere_area(icosphere4):
    assert icosphere4.volume == pytest.approx(4.0 * math.pi, rel=1e-2)
    assert icosphere4.dim == 2
    assert icosphere4.ambient_dim == 3


def test_off_comments_and_blank_lines(tmp_path):
    text = (
        "OFF\n# a comment\n\n6 8 12\n"
        "1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n# interior comment\n0 0 1\n0 0 -1\n"
        "3 0 2 4\n3 2 1 4\n3 1 3 4\n3 3 0 4\n3 2 0 5\n3 1 2 5\n3 3 1 5\n3 0 3 5\n"
    )
    path = tmp_path / "commented.off"
    path.write_text(text)
    man = load_off_mesh(str(path))
    assert man.volume == pytest.approx(4.0 * math.sqrt(3.0), rel=1e-14)


def _load_text(tmp_path, text):
    path = tmp_path / "mesh.off"
    path.write_text(text)
    return load_off_mesh(str(path))


def test_off_missing_header(tmp_path):
    with pytest.raises(MeshFormatError):
        _load_text(tmp_path, "OFX\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")


def test_off_non_triangle(tmp_path):
    with pytest.raises(NonTriangleFace):
        _load_text(
            tmp_path,
            "OFF\n4 1 4\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n4 0 1 2 3\n",
        )


def test_off_degenerate_face(tmp_path):
    with pytest.raises(DegenerateTriangle):
        _load_text(tmp_path, "OFF\n3 1 3\n0 0 0\n1 0 0\n2 0 0\n3 0 1 2\n")
    with pytest.raises(DegenerateTriangle):
        _load_text(tmp_path, "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n")


def test_off_open_surface_rejected(tmp_path):
    with pytest.raises(MeshFormatError):
        _load_text(tmp_path, "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")


def test_off_bad_vertex_literal(tmp_path):
    with pytest.raises(MeshFormatError):
        _load_text(tmp_path, "OFF\n3 1 3\n0 0 zz\n1 0 0\n0 1 0\n3 0 1 2\n")


@pytest.mark.parametrize("last_vertex,where", [
    ("0 0 nan", "line 8"),
    ("0 0 inf", "line 8"),
    ("0 0 -1e200", "face 4"),  # finite, but the area overflows
])
def test_off_non_finite_vertex_or_area(tmp_path, last_vertex, where):
    text = OCTAHEDRON_OFF.replace("0 0 -1\n", last_vertex + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error must come without a RuntimeWarning
        with pytest.raises(MeshFormatError, match=where):
            _load_text(tmp_path, text)


@pytest.mark.parametrize("face,count", [("3 0 2 4 255 0 0", 6), ("3 0 2", 2)])
def test_off_triangle_with_a_wrong_index_count(tmp_path, face, count):
    # a MeshFormatError naming the line and the count, not a NonTriangleFace for a triangle
    text = OCTAHEDRON_OFF.replace("3 0 2 4\n", face + "\n")
    with pytest.raises(MeshFormatError, match=f"^line 9: triangle with {count} indices$"):
        _load_text(tmp_path, text)


def test_off_index_out_of_range(tmp_path):
    with pytest.raises(MeshFormatError):
        _load_text(tmp_path, "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n")


def test_off_unreadable_file_is_format_error(tmp_path):
    with pytest.raises(MeshFormatError):
        load_off_mesh(str(tmp_path))  # a directory
    with pytest.raises(MeshFormatError):
        load_off_mesh(str(tmp_path / "missing.off"))
    binary = tmp_path / "binary.off"
    binary.write_bytes(b"OFF\n\xff\xfe\x00\x01")
    with pytest.raises(MeshFormatError):
        load_off_mesh(str(binary))


def test_off_sliver_pillow_loads(tmp_path):
    # two copies of a triangle of height 1e-9, oppositely oriented: a Gram
    # determinant would square the aspect ratio away, R's diagonal keeps it
    man = _load_text(tmp_path, "OFF\n3 2 3\n0 0 0\n1 0 0\n2 1e-9 0\n3 0 1 2\n3 0 2 1\n")
    assert abs(man.volume - 1e-9) <= 2 * np.spacing(1e-9)


# --- the simplicial P1 assembly ------------------------------------------------


def _off_arrays(text):
    rows = [line.split() for line in text.splitlines()[2:]]
    verts = np.array([row for row in rows if len(row) == 3], dtype=float)
    return verts, np.array([row[1:] for row in rows if len(row) == 4], dtype=int)


def _flattened(verts_faces):
    verts, faces = verts_faces
    return verts * np.array([1.0, 1.0, 0.3]), faces


_TRIANGLE_MESHES = {
    "octahedron": lambda: _off_arrays(OCTAHEDRON_OFF),
    "bipyramid": lambda: _off_arrays(BIPYRAMID_OFF),
    "icosphere2": lambda: make_icosphere(2),
    "icosphere3": lambda: make_icosphere(3),
    "icosphere4": lambda: make_icosphere(4),
    "flat_icosphere3": lambda: _flattened(make_icosphere(3)),
}


@pytest.mark.parametrize("name", sorted(_TRIANGLE_MESHES))
def test_off_mesh_is_the_cotangent_assembly(name, tmp_path):
    verts, faces = _TRIANGLE_MESHES[name]()
    path = tmp_path / "mesh.off"
    write_off(path, verts, faces)
    man = load_off_mesh(str(path))
    mass, S = cotangent_arrays(man.coordinates, faces)
    got = man.stiffness
    assert np.array_equal(got.indptr, S.indptr) and np.array_equal(got.indices, S.indices)
    assert np.max(np.abs(got.data - S.data)) <= 4 * EPS * np.max(np.abs(S.data))
    assert np.all(np.abs(man.mass - mass) <= 4 * np.spacing(mass))


@pytest.mark.parametrize("k", [2, 4])
def test_kuhn_cut_4_cube_boundary_is_the_7_point_stencil(k):
    verts, tets = make_s3(k, project=False)
    man = _simplicial(verts, tets)
    assert (man.dim, man.ambient_dim) == (3, 4)
    assert abs(man.volume - 64.0) <= 2 * np.spacing(64.0)
    h = 2.0 / k
    lattice = np.rint((verts + 1.0) / h).astype(int)
    S = man.stiffness.toarray()
    # nodes inside a facet: one coordinate at -1 or 1, the other three strictly between
    inside = np.flatnonzero(((lattice > 0) & (lattice < k)).sum(axis=1) == 3)
    assert len(inside) == 8 * (k - 1) ** 3
    for i in inside:
        row = S[i].copy()
        nbrs = np.flatnonzero(np.abs(lattice - lattice[i]).sum(axis=1) == 1)
        assert len(nbrs) == 6
        assert np.all(row[nbrs] == -h) and row[i] == 6.0 * h
        row[nbrs] = row[i] = 0.0
        assert np.max(np.abs(row)) <= 4 * EPS


@pytest.mark.parametrize("k,volume,low,triple", [(2, 14.963, 2.542, 3.156),
                                                 (4, 18.226, 2.831, 3.053)])
def test_round_s3_mesh(k, volume, low, triple):
    # the Kuhn cut breaks the 4-fold eigenvalue 3 of the round S^3: one mode falls below
    man = _simplicial(*make_s3(k))
    assert (man.dim, man.ambient_dim) == (3, 4)
    assert np.allclose(np.linalg.norm(man.coordinates, axis=1), 1.0, rtol=0, atol=4 * EPS)
    _assert_stiffness_identities(man, grid=False)
    assert man.volume == pytest.approx(volume, abs=5e-4)
    ev = scipy.linalg.eigh(man.stiffness.toarray(), np.diag(man.mass), eigvals_only=True)
    assert abs(ev[0]) <= 1e-12
    assert ev[1] == pytest.approx(low, abs=5e-4)
    assert ev[2:5] == pytest.approx([triple] * 3, abs=5e-4)
    assert ev[4] - ev[2] <= 1e-12 * ev[4]


def test_simplicial_closedness_is_on_d_minus_1_faces():
    verts, tets = make_s3(2)
    with pytest.raises(MeshFormatError, match="2-face"):
        _simplicial(verts, tets[1:])


# --- S x through scipy's CSR kernel ------------------------------------------


@pytest.fixture(scope="module")
def mesh_times_circle(octahedron):
    return product(octahedron, circle(7, 3.0))


@pytest.mark.parametrize("mesh", ["circle128", "torus2d", "flat_icosphere3",
                                  "mesh_times_circle"])
def test_matvec_is_bitwise_the_scipy_product(mesh, request):
    # flat_icosphere3 has negative cotangent weights; the product mixes a
    # mesh's S with a circle's
    man = request.getfixturevalue(mesh)
    n = man.node_count
    rng = np.random.default_rng(5)
    wide = rng.standard_normal(2 * n)
    fields = [rng.standard_normal(n), 1e3 * np.exp(rng.standard_normal(n)), np.ones(n),
              wide[::2], wide[::-2], np.zeros(n)]
    assert not fields[3].flags.c_contiguous and not fields[4].flags.c_contiguous
    for x in fields:
        got = _matvec(man, x)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == (man.stiffness @ x).tobytes()


def test_matvec_rejects_a_misshaped_field_before_the_kernel(circle64, monkeypatch):
    def kernel(*args):
        raise AssertionError("the kernel ran on a misshaped field")

    monkeypatch.setattr(manifold_module, "csr_matvec", kernel)
    for x in (np.ones(3), np.ones(63), np.ones(65), np.ones((64, 1)), np.ones((1, 64)),
              np.float64(1.0)):
        with pytest.raises(SizeMismatch, match="expected \\(64,\\)"):
            _matvec(circle64, x)


# --- index-based extrema and the edge list -----------------------------------


def _extrema_cases():
    rng = np.random.default_rng(9)
    nan, inf, tiny = math.nan, math.inf, 5e-324
    ties = [np.full(131, -0.0) for _ in range(3)]
    for tie, at in zip(ties, (0, 65, 130)):
        tie[at] = 0.0
    return [
        np.exp(rng.standard_normal(128)), rng.standard_normal(128),
        np.array([nan, 1.0, -2.0]), np.array([1.0, nan, -2.0]), np.array([1.0, -2.0, nan]),
        np.array([1.0, inf, -inf]), np.array([inf, inf]), np.array([-inf, -inf]),
        np.array([tiny, -tiny, 1e-310, -1e-310]), np.array([tiny, 2 * tiny]),
        np.arange(40.0)[::-3], rng.standard_normal((6, 7))[:, 2],
        np.array([0.0, -0.0]), np.array([-0.0, 0.0]), *ties,
        np.array([-1.0, -1.0, -1.0, -0.0, 0.0]), np.array([1.0, 0.0, -0.0, 1.0]),
        np.array([-0.0]), np.array([0.0]),
    ]


def _same_float(a, b):
    if math.isnan(b):
        return math.isnan(a)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("x", _extrema_cases())
def test_index_extrema_are_the_reductions_bit_for_bit(x):
    # value, sign bit (a -0.0 / 0.0 tie) and NaN-ness of ndarray.min / max
    for got, want in ((_min(x), x.min()), (_max(x), x.max())):
        assert type(got) is float
        assert _same_float(got, float(want)), (x, got, want)


# a product's form is summed over its factors; each case lists the factors in C order
ENERGY_PRODUCTS = {
    "torus2d": lambda request: [circle(32)] * 2,
    "torus3d": lambda request: [circle(6, 1.0), circle(5, 2.5), circle(4, 3.0)],
    "torus3d_odd": lambda request: [circle(3, 0.5), circle(7, 7.0), circle(5, 2.0)],
    "s2_x_s1": lambda request: [request.getfixturevalue("icosphere2"), circle(5, 5.0)],
    "s1_x_s2": lambda request: [circle(5, 5.0), request.getfixturevalue("icosphere2")],
    "s1_x_mesh_x_s1": lambda request: [circle(4, 2.0), request.getfixturevalue("flat_icosphere3"),
                                       circle(3, 1.0)],
    "unsorted_duplicates": lambda request: [_unsorted_with_duplicates(), circle(5),
                                            _unsorted_with_duplicates()],
}


def _energy_product(case, request):
    factors = ENERGY_PRODUCTS[case](request)
    man = factors[0]
    for f in factors[1:]:
        man = product(man, f)
    return man, factors


def _energy_fields(n):
    rng = np.random.default_rng(4)
    return rng.standard_normal(n), 1.0 + 1e-9 * rng.standard_normal(n), np.ones(n)


def _assert_factorwise(man, factors):
    """The form bit for bit the factor-wise reference, within 1e-14 of the flat sum over
    S's own edges, and the global edge list never built."""
    pairs = [(f.stiffness, f.mass) for f in factors]
    T = sparse.triu(man.stiffness, k=1).tocoo()
    fields = _energy_fields(man.node_count)
    for u in (*fields, np.exp(fields[0])):
        got = dirichlet_energy(man, u)
        assert got.hex() == factorwise_edge_energy(pairs, u).hex()
        d = u.take(T.row) - u.take(T.col)
        assert got == pytest.approx(float((d * d).dot(-T.data)), rel=1e-14, abs=0.0)
    assert "_edges" not in man.__dict__


@pytest.mark.parametrize("mesh", ["torus2d", "torus3d", "bipyramid"])
def test_edges_are_intp_and_keep_the_energy_bit_for_bit(mesh, request):
    # a manifold that is not a product sums over sparse.triu's own int32 indices, in its
    # order; a product sums over its factors, each factor's edges intp
    if mesh != "bipyramid":
        man, factors = _energy_product(mesh, request)
        assert all(f._edges[0].dtype == f._edges[1].dtype == np.intp for f in factors)
        _assert_factorwise(man, factors)
        return
    man = request.getfixturevalue(mesh)
    ei, ej, w = man._edges
    assert ei.dtype == ej.dtype == np.intp
    T = sparse.triu(man.stiffness, k=1).tocoo()
    assert T.row.dtype == T.col.dtype == np.int32
    for u in _energy_fields(man.node_count):
        d = u.take(T.row) - u.take(T.col)
        want = float((d * d).dot(-T.data))
        assert dirichlet_energy(man, u).hex() == want.hex()


@pytest.mark.parametrize("case", [c for c in ENERGY_PRODUCTS if c not in ("torus2d", "torus3d")])
def test_product_energy_is_the_factorwise_sum(case, request):
    # a mesh factor first, last and in the middle, a 3-torus of other sides, and a factor
    # whose S stores duplicate pairs out of order
    _assert_factorwise(*_energy_product(case, request))


@pytest.mark.parametrize("case", list(ENERGY_PRODUCTS))
def test_product_energy_is_zero_on_a_constant_nonnegative_and_shift_invariant(case, request):
    man, _ = _energy_product(case, request)
    n = man.node_count
    assert dirichlet_energy(man, np.full(n, 3.7)) == 0.0
    u = np.random.default_rng(11).standard_normal(n)
    e = dirichlet_energy(man, u)
    assert dirichlet_energy(man, u + 42.0) == pytest.approx(e, rel=1e-10)
    if case not in ("s1_x_mesh_x_s1", "unsorted_duplicates"):  # all weights >= 0
        assert e >= 0.0


def test_a_flow_on_a_torus_never_builds_the_global_edge_list():
    from curvflow.flow import FlowConfig, run_flow

    man = build_torus_grid([8, 6], [TWO_PI, 3.0])
    u = 1.0 + 0.2 * np.cos(man.coordinates[:, 0]) * np.sin(man.coordinates[:, 1])
    for scheme in ("explicit", "imex"):
        run_flow(man, np.full(man.node_count, -1.0), u, FlowConfig(scheme=scheme, max_steps=20))
    assert "_edges" not in man.__dict__
    assert all("_edges" in f.__dict__ for f in man._factors)


# --- the SPD solve for c S + diag(d) ----------------------------------------


def _solve_cases(man, psi):
    """(c, d) of the two systems that go through manifold._solve: the imex
    Newton matrix in its symmetric form c' S + diag(M (p dt psi + p u^{p-1}))
    with c' = p dt c, and lambda1's shifted operator c S + diag(M (psi - shift))."""
    p, dt, c = 3.0, 1e-2, 1.3
    u = 1.0 + 0.4 * np.cos(man.coordinates[:, 0])
    shift = float(psi.min()) - 1.0
    return [(p * dt * c, man.mass * (p * dt * psi + p * u ** (p - 1.0))),
            (c, man.mass * (psi - shift))]


def _missing_diagonal_psi(man):
    # c S_ii + M_i psi_i cancels to 0 at a node (c = 1), so the weak operator
    # has a zero diagonal there, while the imex matrix keeps its mass entry
    psi = np.zeros(man.node_count)
    psi[3] = -man.stiffness[3, 3] / man.mass[3]
    assert man.stiffness[3, 3] + man.mass[3] * psi[3] == 0
    return psi


@pytest.mark.parametrize("mesh,kind", [("circle128", "cos"), ("torus2d", "cos"),
                                       ("octahedron", "cos"), ("circle64", "missing-diagonal")])
def test_solve_matches_dense_solver(mesh, kind, request):
    man = request.getfixturevalue(mesh)
    n = man.node_count
    if kind == "cos":
        psi = -1.0 + 0.3 * np.cos(2.0 * man.coordinates[:, 0])
    else:
        psi = _missing_diagonal_psi(man)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(n)
    for c, d in _solve_cases(man, psi):
        K = c * man.stiffness.toarray() + np.diag(d)
        want = np.linalg.solve(K, b)
        for x0 in (np.zeros(n), rng.standard_normal(n)):
            got = _solve(man, c, d, b, x0)
            # the solver's own stop, rechecked on the assembled matrix ...
            assert np.linalg.norm(K @ got - b) <= 2 * _PCG_RTOL * np.linalg.norm(b)
            # ... and the forward error it allows
            bound = np.linalg.cond(K) * 2 * _PCG_RTOL
            assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)
            # a looser rtol, as the imex Newton corrections pass, is met too
            loose = _solve(man, c, d, b, x0, 1e-6)
            assert np.linalg.norm(K @ loose - b) <= 2 * 1e-6 * np.linalg.norm(b)
    assert np.array_equal(_solve(man, c, d, np.zeros(n), b), np.zeros(n))


@pytest.mark.parametrize("mesh", ["circle128", "torus2d", "octahedron"])
def test_solve_from_none_is_the_zero_start_bit_for_bit(mesh, request):
    # x0 = None takes b as the start residual, which b - (c S 0 + d 0) gives
    # bit for bit, -0.0 entries of b and negative entries of d included
    man = request.getfixturevalue(mesh)
    n = man.node_count
    psi = -1.0 + 0.3 * np.cos(2.0 * man.coordinates[:, 0])
    b = np.random.default_rng(4).standard_normal(n)
    b[::5] = -0.0
    negative = man.mass * np.where(np.arange(n) % 3 == 0, -0.05, 1.0)
    for c, d in _solve_cases(man, psi) + [(1.0, negative)]:
        for rtol in (_PCG_RTOL, 1e-6):
            got = _solve(man, c, d, b, None, rtol)
            assert got.tobytes() == _solve(man, c, d, b, np.zeros(n), rtol).tobytes()
    # a d of +inf makes the zero start's residual NaN; both starts raise alike
    d = man.mass.copy()
    d[1] = np.inf
    for x0 in (None, np.zeros(n)):
        with pytest.raises(InnerSolverFailure, match="positive definite"), \
                np.errstate(invalid="ignore"):
            _solve(man, 1.0, d, b, x0)


def test_solve_rejects_what_is_not_spd(circle64):
    man = circle64
    b = np.ones(64)
    s = man.stiffness.diagonal()
    with pytest.raises(InnerSolverFailure, match="diagonal"):
        _solve(man, 1.0, -s, b, np.zeros(64))  # zero diagonal
    nan = np.zeros(64)
    nan[7] = np.nan
    with pytest.raises(InnerSolverFailure, match="diagonal"):
        _solve(man, 1.0, nan, b, np.zeros(64))
    # a positive diagonal, but constants have a negative quadratic form
    with pytest.raises(InnerSolverFailure, match="positive definite"):
        _solve(man, 1.0, -0.5 * s, b, np.zeros(64))


def test_solve_accepts_only_at_its_tolerance(torus2d, monkeypatch):
    # PCG that runs out of iterations raises: with the cap this solve needs
    # it returns the uncapped answer, with one fewer it raises, though its
    # residual then (5.5e-12) is within 10x of the target (3.2e-12)
    man = torus2d
    n = man.node_count
    b = np.random.default_rng(5).standard_normal(n)
    calls = []
    matvec = manifold_module._matvec
    monkeypatch.setattr(manifold_module, "_matvec",
                        lambda m, x: calls.append(1) or matvec(m, x))
    want = _solve(man, 1.0, man.mass, b, np.zeros(n))
    needed = len(calls) - 1  # one matvec for the start residual, then one per iteration
    monkeypatch.setattr(manifold_module, "_PCG_MAX_ITER", needed)
    assert np.array_equal(_solve(man, 1.0, man.mass, b, np.zeros(n)), want)
    monkeypatch.setattr(manifold_module, "_PCG_MAX_ITER", needed - 1)
    with pytest.raises(InnerSolverFailure, match="PCG stalled"):
        _solve(man, 1.0, man.mass, b, np.zeros(n))
