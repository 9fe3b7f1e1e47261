import itertools
import math
import os

# One BLAS thread, set before numpy loads OpenBLAS: a ddot over more than 10,000
# terms is split across threads, so its bits would follow the thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from curvflow.manifold import build_torus_grid, load_off_mesh  # noqa: E402

TWO_PI = 2.0 * math.pi

OCTAHEDRON_OFF = """OFF
6 8 12
1 0 0
-1 0 0
0 1 0
0 -1 0
0 0 1
0 0 -1
3 0 2 4
3 2 1 4
3 1 3 4
3 3 0 4
3 2 0 5
3 1 2 5
3 3 1 5
3 0 3 5
"""


# A triangular bipyramid flattened to poles at z = +-0.2: the angles at the
# poles are about 116 degrees, so the equator edges get negative cotangent
# weights.
BIPYRAMID_OFF = """OFF
5 6 9
1 0 0
-0.5 0.8660254037844386 0
-0.5 -0.8660254037844386 0
0 0 0.2
0 0 -0.2
3 0 1 3
3 1 2 3
3 2 0 3
3 1 0 4
3 2 1 4
3 0 2 4
"""


def circle(n, length=TWO_PI):
    return build_torus_grid([n], [length])


def bump(man):
    """The thm3 preset's start field, 1 + 0.5 cos(x1)."""
    return 1.0 + 0.5 * np.cos(man.coordinates[:, 0])


def make_icosphere(depth):
    """Icosahedron subdivided depth times, vertices projected to the unit
    sphere.  Returns (vertices, faces) with 0-based indices."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in verts]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(depth):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = new_faces
    return np.array(verts), np.array(faces, dtype=int)


def make_s3(k, project=True):
    """The boundary of [-1, 1]^4: each of its 8 cubic facets cut into k^3 cubes
    of 6 Kuhn tetrahedra, vertices merged, then projected to the unit S^3
    unless project is False.  A Kuhn tetrahedron walks from a cube's low corner
    to its high corner one axis at a time, one per order of the 3 axes, so
    adjacent facets cut their shared squares alike.  Returns (vertices,
    tetrahedra) with 0-based indices: (k+1)^4 - (k-1)^4 nodes, 80 at k = 2 and
    544 at k = 4, and 48 k^3 tetrahedra."""
    corners = np.array(list(itertools.product(range(k), repeat=3)))
    walks = np.array([np.cumsum([[0, 0, 0]] + [np.eye(3, dtype=int)[a] for a in order], axis=0)
                      for order in itertools.permutations(range(3))])
    cube = (corners[:, None, None, :] + walks[None]).reshape(-1, 4, 3)
    # the fixed coordinate of facet (axis, side) goes in at position axis
    lattice = np.concatenate([np.insert(cube, axis, side, axis=2)
                              for axis in range(4) for side in (0, k)])
    nodes, index = np.unique(lattice.reshape(-1, 4), axis=0, return_inverse=True)
    verts = -1.0 + (2.0 / k) * nodes
    if project:
        verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    return verts, index.reshape(-1, 4)


def write_off(path, verts, faces):
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(verts)} {len(faces)} {3 * len(faces) // 2}\n")
        for v in verts:
            fh.write("%.17g %.17g %.17g\n" % tuple(v))
        for f in faces:
            fh.write("3 %d %d %d\n" % tuple(f))


@pytest.fixture(scope="session")
def circle64():
    return circle(64)


@pytest.fixture(scope="session")
def circle128():
    return circle(128)


@pytest.fixture(scope="session")
def circle256():
    return circle(256)


@pytest.fixture(scope="session")
def torus2d():
    return build_torus_grid([32, 32], [TWO_PI, TWO_PI])


@pytest.fixture(scope="session")
def octahedron_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("mesh") / "octahedron.off"
    path.write_text(OCTAHEDRON_OFF)
    return str(path)


@pytest.fixture(scope="session")
def octahedron(octahedron_path):
    return load_off_mesh(octahedron_path)


@pytest.fixture(scope="session")
def bipyramid(tmp_path_factory):
    path = tmp_path_factory.mktemp("mesh") / "bipyramid.off"
    path.write_text(BIPYRAMID_OFF)
    return load_off_mesh(str(path))


@pytest.fixture(scope="session")
def icosphere2(tmp_path_factory):
    path = tmp_path_factory.mktemp("mesh") / "icosphere2.off"
    write_off(path, *make_icosphere(2))
    return load_off_mesh(str(path))


@pytest.fixture(scope="session")
def icosphere3(tmp_path_factory):
    verts, faces = make_icosphere(3)
    path = tmp_path_factory.mktemp("mesh") / "icosphere3.off"
    write_off(path, verts, faces)
    return load_off_mesh(str(path))


@pytest.fixture(scope="session")
def icosphere4(tmp_path_factory):
    verts, faces = make_icosphere(4)
    path = tmp_path_factory.mktemp("mesh") / "icosphere4.off"
    write_off(path, verts, faces)
    return load_off_mesh(str(path))


@pytest.fixture(scope="session")
def flat_icosphere3(tmp_path_factory):
    """icosphere3 with z scaled by 0.3: 184 of its 1,920 edges get negative
    cotangent weights, the lowest about -0.665."""
    verts, faces = make_icosphere(3)
    path = tmp_path_factory.mktemp("mesh") / "flat_icosphere3.off"
    write_off(path, verts * np.array([1.0, 1.0, 0.3]), faces)
    return load_off_mesh(str(path))
