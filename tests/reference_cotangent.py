"""The triangle-mesh assembly written out with the 2-D cotangent formula.

This is the independent copy tests compare curvflow's simplicial P1
assembly against on triangle meshes; nothing here is imported from
curvflow.
"""

import numpy as np
from scipy import sparse


def cotangent_arrays(verts, faces):
    """(mass, stiffness) of a closed triangle mesh: edge (i, j) gets half the
    cotangent of the angle opposite it in each incident triangle, and each
    vertex a third of the area of each incident triangle."""
    n = len(verts)
    p0, p1, p2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    areas = 0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0), axis=1)
    rows, cols, vals = [], [], []
    for apex, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        a, b, c = faces[:, apex], faces[:, i], faces[:, j]
        e1, e2 = verts[b] - verts[a], verts[c] - verts[a]
        # cot(angle at apex) = <e1, e2> / |e1 x e2|
        w = 0.5 * np.einsum("ij,ij->i", e1, e2) / (2.0 * areas)
        rows.extend([b, c, b, c])
        cols.extend([c, b, b, c])
        vals.extend([-w, -w, w, w])
    S = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    mass = np.zeros(n)
    for k in range(3):
        np.add.at(mass, faces[:, k], areas / 3.0)
    return mass, S
