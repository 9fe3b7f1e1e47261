"""Independent assemblies that tests compare curvflow's grids and products against.

torus_grid_arrays builds the flat-torus grid the direct n-dimensional way:
every node indexed with np.indices, each neighbor found with np.roll along one
axis.  coo_product_stiffness builds a product's S as COO triplets summed by
scipy's tocsr, the assembly curvflow.manifold.product used before it wrote CSR
directly.  factorwise_edge_energy sums a product's Dirichlet form over its
factors from each factor's S and M alone, in the order curvflow sums it.
Nothing here is imported from curvflow.
"""

from functools import reduce

import numpy as np
from scipy import sparse


def torus_grid_arrays(counts, lengths):
    """(coordinates, mass, stiffness) of the uniform periodic grid: nodes at
    x_k = i_k h_k with h_k = L_k / N_k in C order, mass prod_k h_k, and
    weight (prod h) / h_k^2 on each periodic neighbor pair along axis k."""
    counts = [int(N) for N in counts]
    n = len(counts)
    total = int(np.prod(counts))
    h = np.array([float(L) / N for L, N in zip(lengths, counts)])
    cellvol = float(np.prod(h))

    grids = np.indices(counts)
    coords = np.empty((total, n))
    for k in range(n):
        coords[:, k] = grids[k].ravel() * h[k]

    idx = np.arange(total).reshape(counts)
    rows, cols, vals = [], [], []
    for k in range(n):
        i = idx.ravel()
        j = np.roll(idx, -1, axis=k).ravel()
        w = np.full(total, cellvol / (h[k] * h[k]))
        rows.extend([i, j, i, j])
        cols.extend([j, i, i, j])
        vals.extend([-w, -w, w, w])
    S = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(total, total),
    ).tocsr()
    S.sum_duplicates()
    return coords, np.full(total, cellvol), S


def coo_product_stiffness(Sa, Ma, Sb, Mb):
    """S_a (x) diag(M_b) + diag(M_a) (x) S_b in C order (b's index fastest): every stored
    entry of either term as a COO triplet, duplicates summed by coo_matrix.tocsr."""
    A, B, nb = Sa.tocoo(), Sb.tocoo(), len(Mb)
    k, base = np.arange(nb), nb * np.arange(len(Ma))
    vals = np.concatenate([np.kron(A.data, Mb), np.kron(Ma, B.data)])
    rows = np.concatenate([np.add.outer(nb * A.row, k).ravel(), np.add.outer(base, B.row).ravel()])
    cols = np.concatenate([np.add.outer(nb * A.col, k).ravel(), np.add.outer(base, B.col).ravel()])
    return sparse.coo_matrix((vals, (rows, cols)), shape=(len(Ma) * nb,) * 2).tocsr()


def factorwise_edge_energy(factors, u):
    """u^T S u of the lumped product of factors, given as (S_k, M_k) pairs in C order, as
    sum_k sum_{e in triu(S_k)} -S_k[e] sum_{other axes} (prod of their masses) (U_i - U_j)^2
    with U = u as a tensor of shape (n_1, .., n_K): for each factor in turn, the squared
    differences along its axis, contracted with the masses after it (kron), then with its
    weights, then with the masses before it, the factors' terms added left to right."""
    sizes = [len(M) for _, M in factors]
    total = 0.0
    for k, (S, _) in enumerate(factors):
        T = sparse.triu(S, k=1).tocoo()
        before, after = int(np.prod(sizes[:k])), int(np.prod(sizes[k + 1:]))
        U = u.reshape(before, sizes[k], after)
        D = U[:, T.row, :] - U[:, T.col, :]
        D = (D * D).reshape(-1, after)
        if k + 1 < len(factors):
            D = D @ reduce(np.kron, [M for _, M in factors[k + 1:]])
        y = D.reshape(before, -1) @ -T.data
        total += y @ reduce(np.kron, [M for _, M in factors[:k]]) if k else y[0]
    return float(total)
