"""Discrete compact manifolds: node sets with mass and stiffness pairs.

A manifold here is a finite node set carrying a lumped mass vector M and a
symmetric positive semidefinite stiffness matrix S with zero row sums, so
that

    integrate(f)        ~ sum_i mass_i f_i          ~ \\int f dv
    dirichlet_energy(u) ~ u^T S u                   ~ \\int |grad u|^2 dv
    laplacian_apply(u)  = -M^{-1} S u               ~ Laplace-Beltrami of u

This module alone writes the discretization's operators.  -c Lap + psi comes in
three forms: the strong form _apply (the flow's R and imex residual, lambda1's
and the oracle's residuals), the edge-form quotient _quotient (the flow's r,
energy_E, lambda1's eigenvalue, the oracle's first r) and _solve, the SPD solve
for c S + diag(d) (imex Newton, lambda1).  _solve stops at a relative residual
its caller may loosen: the imex Newton corrections pass a forcing tolerance and
start from zero (x0 = None, whose residual is b with no matvec), lambda1 keeps
1e-13 and starts from its iterate.  Only the oracle assembles the operator,
into its bordered Jacobian.  _smoother solves with M + ell^2 S for the seeded
start fields: exactly in the factors' eigenbases on a product, which keeps its
leaf factors in _factors, and by one SuperLU factorization elsewhere.  A change
to the discretization touches this file only.  _matvec forms every S x with
scipy's csr_matvec kernel, skipping S @ x's dispatch (twice the kernel's cost
at N = 128), reading n and S's arrays from the cached _csr at once; the kernel
checks no bounds, so _matvec checks x.  The run loops' per-step extrema (flow's
and gauss's steppers, the imex Newton loop, _solve's diagonal check) are _min
and _max: x[x.argmin()] costs 0.3 us at N = 128 against 1.0 us for the
reduction x.min(), and a zero extreme falls back to x.min(), so value, sign and
NaN are the reduction's.  _edges keeps intp indices, so take() converts no
int32 index array per call.

Constructions: periodic circles (second-order differences), closed complexes of
d-simplices (_simplicial: P1 FEM S, barycentric lumped M; load_off_mesh feeds it
OFF triangles), and product(a, b), the lumped tensor product S_a (x) diag(M_b) +
diag(M_a) (x) S_b, M_a (x) M_b; a flat torus is a product of circles.  Every
test bed of dimension >= 3 is a product, so its assembly is the set-up cost at
N = 10^6: product writes S's indptr, indices and data in place from the factors'
sorted pairs, since that structure fixes each row's order (Lynch, Rice & Thomas
1964), where COO triplets summed by tocsr took twice as long and twice the
memory; the result is the same CSR matrix byte for byte.  S = S^T,
S 1 = 0 and S >= 0 hold by construction and go unchecked: each weight goes to
(i, j), (j, i) and both diagonals from one value; grid weights are >= 0; a mesh's
S sums per-simplex Gram matrices vol B B^T; a product sums two PSD Kronecker
terms overlapping on the diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.linalg import splu

from .errors import (
    CurvFlowError,
    DegenerateTriangle,
    InnerSolverFailure,
    InvalidGridSpec,
    MeshFormatError,
    NonTriangleFace,
    SizeMismatch,
)

__all__ = [
    "DiscreteManifold",
    "build_torus_grid",
    "load_off_mesh",
    "product",
    "integrate",
    "dirichlet_energy",
    "laplacian_apply",
]


@dataclass(frozen=True, eq=False)
class DiscreteManifold:
    """Immutable discretization of a closed manifold.

    coordinates has one row per node; its column count is the ambient
    coordinate dimension (equal to `dim` for grids, 3 for embedded
    surfaces).  `dim` is the intrinsic dimension.  Instances are safe to
    share between concurrent readers; nothing mutates them after
    construction, which raises CurvFlowError unless every mass is finite and
    positive and the stiffness is an N x N float64 CSR matrix of finite entries.
    """

    coordinates: np.ndarray
    mass: np.ndarray
    stiffness: sparse.csr_matrix
    dim: int

    # product's leaf factors in C order; () for a manifold that product did not build
    _factors = ()

    def __post_init__(self):
        # min and max allocate no temporaries, and a NaN anywhere propagates into both
        if not 0 < self.mass.min() <= self.mass.max() < math.inf:
            raise CurvFlowError("mass vector must be finite and strictly positive")
        S, n = self.stiffness, self.mass.shape[0]
        if not (sparse.issparse(S) and S.format == "csr" and S.dtype == np.float64):
            raise CurvFlowError("stiffness matrix must be float64 CSR, the arrays _matvec takes")
        if S.shape != (n, n):
            raise SizeMismatch(f"stiffness has shape {S.shape}, expected ({n}, {n})")
        if not -math.inf < S.data.min(initial=0.0) <= S.data.max(initial=0.0) < math.inf:
            raise CurvFlowError("stiffness matrix has an entry that is not finite")

    @property
    def node_count(self) -> int:
        return self.mass.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.coordinates.shape[1]

    @property
    def volume(self) -> float:
        return float(self.mass.sum())

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Strict upper triangle of S: edge list (i, j, w) with w = -S_ij.
        # Used for cancellation-free evaluation of the Dirichlet energy.
        S = self.stiffness.tocoo()
        upper = S.row < S.col  # what sparse.triu(S, k=1) keeps, without a second COO matrix
        return S.row[upper].astype(np.intp), S.col[upper].astype(np.intp), -S.data[upper]

    @cached_property
    def _csr(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        S = self.stiffness
        return S.shape[0], S.indptr, S.indices, S.data

    @cached_property
    def _stiffness_diagonal(self) -> np.ndarray:
        return self.stiffness.diagonal()

    @cached_property
    def _max_stiffness_diagonal(self) -> float:
        return float(self._stiffness_diagonal.max())

    @cached_property
    def _min_mass(self) -> float:
        return float(self.mass.min())

    @cached_property
    def _eigenbasis(self) -> tuple[np.ndarray, np.ndarray]:
        # (lam, V) with S V = M V diag(lam) and V^T M V = I, from a dense eigh of
        # M^{-1/2} S M^{-1/2}: a product factor's share of _smoother
        r = 1.0 / np.sqrt(self.mass)
        lam, W = np.linalg.eigh(r[:, None] * self.stiffness.toarray() * r)
        return lam, r[:, None] * W

    @cached_property
    def bbox_diameter(self) -> float:
        with np.errstate(over="ignore"):  # inf for a box too large to square
            spans = self.coordinates.max(axis=0) - self.coordinates.min(axis=0)
            return float(np.sqrt(np.sum(spans**2)))


def _min(x: np.ndarray) -> float:
    """float(x.min()) by index; a zero takes x.min(), which alone signs a -0.0/0.0 tie."""
    m = x[x.argmin()]
    return float(x.min()) if m == 0.0 else float(m)


def _max(x: np.ndarray) -> float:
    """float(x.max()) by index, as _min."""
    m = x[x.argmax()]
    return float(x.max()) if m == 0.0 else float(m)


def _check_field(man: DiscreteManifold, f: np.ndarray, name: str = "field") -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (man.node_count,):
        raise SizeMismatch(
            f"{name} has shape {f.shape}, expected ({man.node_count},)"
        )
    return f


def _matvec(man: DiscreteManifold, x: np.ndarray) -> np.ndarray:
    """S x, bit for bit what S @ x gives for an (N,) float64 x."""
    n, indptr, indices, data = man._csr
    if x.shape != (n,):  # the kernel would read past the end of a short x
        raise SizeMismatch(f"field has shape {x.shape}, expected ({n},)")
    y = np.zeros(n)
    csr_matvec(n, n, indptr, indices, data, x, y)
    return y


def _laplacian(man: DiscreteManifold, u: np.ndarray) -> np.ndarray:
    """-M^{-1} S u for a field that is already checked."""
    return -_matvec(man, u) / man.mass


def _edge_energy(man: DiscreteManifold, u: np.ndarray) -> float:
    """sum_e w_e (u_i - u_j)^2 for a field that is already checked."""
    ei, ej, w = man._edges
    d = u.take(ei) - u.take(ej)  # take gathers in half the time of u[ei] at N = 10^6
    return float((d * d).dot(w))


def _apply(man: DiscreteManifold, u: np.ndarray, psi: np.ndarray, c: float) -> np.ndarray:
    """-c Lap(u) + psi u = c M^{-1} S u + psi u for fields that are already checked."""
    return c * (_matvec(man, u) / man.mass) + psi * u


def _quotient(
    man: DiscreteManifold, u: np.ndarray, psi: np.ndarray, c: float, denom: float
) -> float:
    """(c u^T S u + \\int psi u^2) / denom, with u^T S u summed over edges as
    w_e (u_i - u_j)^2, so it stays accurate (and nonnegative for psi >= 0)
    even when u is within roundoff of a constant."""
    return (c * _edge_energy(man, u) + float((psi * u * u).dot(man.mass))) / denom


# Jacobi-PCG: relative residual target and iteration cap
_PCG_RTOL = 1e-13
_PCG_MAX_ITER = 20000


def _solve(
    man: DiscreteManifold, c: float, d: np.ndarray, b: np.ndarray, x0: np.ndarray | None,
    rtol: float = _PCG_RTOL,
) -> np.ndarray:
    """Solve (c S + diag(d)) x = b by Jacobi-preconditioned CG from x0 to
    residual rtol |b|, with the matvec c (S x) + d x, so the sum is never
    assembled; x0 = None starts at zero with residual b, bit for bit b - (c S 0
    + d 0) for c >= 0 and finite d (a d of +inf raises at p^T K p either way).
    Raises InnerSolverFailure for a diagonal that is not positive (NaN
    included), a direction p with p^T K p <= 0 (the matrix is not SPD) or a stall."""
    diag = c * man._stiffness_diagonal + d
    if not _min(diag) > 0:
        raise InnerSolverFailure("operator diagonal is not positive")
    # sqrt(b.b) is what np.linalg.norm computes for a 1-D real array
    tol = rtol * math.sqrt(float(b.dot(b)))
    if tol == 0.0:
        return np.zeros_like(b)
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = b.copy() if x0 is None else b - (c * _matvec(man, x) + d * x)
    z = r / diag
    p = z.copy()
    rz = float(r.dot(z))
    for _ in range(_PCG_MAX_ITER):
        rnorm = math.sqrt(float(r.dot(r)))
        if rnorm <= tol:
            return x
        Kp = c * _matvec(man, p) + d * p
        pKp = float(p.dot(Kp))
        if not pKp > 0:
            raise InnerSolverFailure("operator is not positive definite")
        alpha = rz / pKp
        x += alpha * p
        r -= alpha * Kp
        z = r / diag
        rz_new = float(r.dot(z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    rnorm = math.sqrt(float(r.dot(r)))
    if rnorm <= tol:
        return x
    raise InnerSolverFailure(f"PCG stalled at residual {rnorm:.3e} (target {tol:.3e})")


# Largest product factor _smoother diagonalizes.  A dense eigh takes 0.23 s at 1,024
# nodes and 2.8 s at 2,562 (icosphere 4), where SuperLU factors icosphere(4) x S^1(3)
# in 0.14 s; the cap keeps the eigh that replaces SuperLU under a quarter second.
_EIGH_MAX_NODES = 1024


def _smoother(man: DiscreteManifold, ell: float) -> Callable[[np.ndarray], np.ndarray]:
    """b -> (M + ell^2 S)^{-1} b for a field b.

    On a product of factors of at most _EIGH_MAX_NODES nodes it is exact in the
    factors' eigenbases (Lynch, Rice & Thomas 1964):
    V = (x)_k V_k has V^T M V = I and V^T S V = diag(sum_k lam_k), so the solve is
    V diag(1 / (1 + ell^2 sum_k lam_k)) V^T b, one matrix product per factor each
    way, with nothing assembled or factored.  Elsewhere it is one SuperLU
    factorization of M + ell^2 S.  Raises CurvFlowError where M + ell^2 S
    overflows, and where M is lost in rounding next to ell^2 S: SuperLU finds
    that matrix singular, and the eigenbases, which cancel nothing, refuse it
    alike where ell^2 max(S_ii / M_i) eps >= 1.
    """
    ell2 = ell * ell  # a Python float: inf on overflow, without a warning
    overflows = f"smoother M + ell^2 S overflows at correlation length {ell:.3g}"
    singular = f"smoother M + ell^2 S is singular at correlation length {ell:.3g}"
    if man._factors and max(f.node_count for f in man._factors) <= _EIGH_MAX_NODES:
        if not ell2 * man._max_stiffness_diagonal < math.inf:  # S >= 0: |S_ij| <= max S_ii
            raise CurvFlowError(overflows)
        with np.errstate(over="ignore"):  # an inf ratio fails the check
            ratio = float((man._stiffness_diagonal / man.mass).max())
        if ell2 * ratio * math.ulp(1.0) >= 1.0:
            raise CurvFlowError(f"{singular}: M is lost next to ell^2 S")
        lams, Vs = zip(*(f._eigenbasis for f in man._factors))
        scale = 1.0 / (1.0 + ell2 * reduce(np.add.outer, lams).ravel())

        def solve(b: np.ndarray) -> np.ndarray:
            # each product applies one factor along the leading axis and rotates it last
            for V in Vs:
                b = b.reshape(len(V), -1).T @ V
            b = b.ravel() * scale
            for V in Vs:
                b = b.reshape(len(V), -1).T @ V.T
            return b.ravel()

        return solve
    with np.errstate(over="ignore", invalid="ignore"):
        helm = (sparse.diags(man.mass) + ell2 * man.stiffness).tocsc()
    if not np.all(np.isfinite(helm.data)):
        raise CurvFlowError(overflows)
    try:
        return splu(helm).solve
    except RuntimeError as exc:  # rows of ell^2 S that cancel to 0 next to M
        raise CurvFlowError(f"{singular}: {exc}") from exc


def integrate(man: DiscreteManifold, f: np.ndarray) -> float:
    """Mass-weighted sum, the discrete integral of f over the manifold."""
    f = _check_field(man, f)
    return float(man.mass.dot(f))


def dirichlet_energy(man: DiscreteManifold, u: np.ndarray) -> float:
    """u^T S u evaluated edge-wise as sum_e w_e (u_i - u_j)^2.

    The difference form avoids the catastrophic cancellation the matvec
    form u.(S u) suffers for nearly constant u, so tiny energies (late in
    a flow) come out with full relative accuracy.
    """
    return _edge_energy(man, _check_field(man, u))


def laplacian_apply(man: DiscreteManifold, u: np.ndarray) -> np.ndarray:
    """Discrete Laplace-Beltrami operator, -M^{-1} S u."""
    return _laplacian(man, _check_field(man, u))


def _stiffness(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> sparse.csr_matrix:
    """S = sum_e w_e (e_i - e_j)(e_i - e_j)^T over edges (i_e, j_e), as an n x n CSR matrix."""
    rows, cols = np.concatenate([i, j, i, j]), np.concatenate([j, i, i, j])
    data = (np.concatenate([-w, -w, w, w]), (rows, cols))
    return sparse.coo_matrix(data, shape=(n, n)).tocsr()  # tocsr sums the duplicates


def _circle(N: int, L: float) -> DiscreteManifold:
    """Circle of length L: N nodes at i h, h = L / N, each of mass h, neighbors
    joined with weight 1 / h (the second-order central difference)."""
    if int(N) != N or N < 3:
        raise InvalidGridSpec(f"each count must be an integer >= 3, got {N!r}")
    N, L = int(N), float(L)
    h, i = L / N, np.arange(N)
    if not (0 < h < math.inf and 1.0 / h < math.inf):  # then L is positive and finite too
        raise InvalidGridSpec(f"each length L must make L/N, N/L positive and finite, got {L!r}")
    S = _stiffness(N, i, (i + 1) % N, np.full(N, 1.0 / h))
    return DiscreteManifold(coordinates=(i * h)[:, None], mass=np.full(N, h), stiffness=S, dim=1)


def _pairs(S: sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S's stored (row, column) pairs in sorted order: their rows, their columns, and their
    values with one row per rank of duplicate, in stored order, and -0.0 where a pair has
    fewer (x + -0.0 is x, so adding the rows in turn sums duplicates in stored order)."""
    rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
    cols, vals = S.indices.astype(np.intp), S.data
    if S.has_canonical_format:
        return rows, cols, vals[None]
    order = np.lexsort((cols, rows))  # stable, so duplicates keep their stored order
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(len(rows), bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    pair = np.cumsum(first) - 1
    rank = np.arange(len(rows)) - np.flatnonzero(first)[pair]
    ranked = np.full((rank.max() + 1, pair[-1] + 1), -0.0)
    ranked[rank, pair] = vals
    return rows[first], cols[first], ranked


def _offsets(base: np.ndarray, slope: np.ndarray, cls: np.ndarray, x: np.ndarray,
             table: np.ndarray) -> np.ndarray:
    """base[:, None] + slope[:, None] * x + table[cls], from one row per distinct (slope, cls)."""
    key = slope * len(table) + cls
    seen = np.bincount(key) > 0
    uniq = np.flatnonzero(seen)
    rows = (uniq // len(table))[:, None] * x + table[uniq % len(table)]
    out = rows[(np.cumsum(seen) - 1)[key]]
    out += base[:, None]
    return out


@np.errstate(over="ignore")  # an overflow is inf, which DiscreteManifold rejects
def product(a: DiscreteManifold, b: DiscreteManifold) -> DiscreteManifold:
    """Lumped tensor product a x b: S = S_a (x) diag(M_b) + diag(M_a) (x) S_b, M = M_a (x) M_b,
    nodes in C order (b's index fastest), coordinates [a's, b's], dimension dim_a + dim_b.

    S is written straight into canonical CSR, sorting nothing: row (i, k) holds a's
    off-diagonal pairs (i, j) with j < i (values a_ij M_b[k], columns j n_b + k), then b's row k
    moved into block i (values M_a[i] b_kl) with a_ii M_b[k] added to its diagonal, then a's
    pairs with j > i.  Each entry's place is base + slope x + table[class] over a few classes
    of rows.  A stored zero stays stored, and a factor's duplicate pairs are summed in stored
    order, a's terms before b's: bit for bit what summing the COO triplets with scipy's tocsr
    gives wherever a row has at most 16 triplets (its sort is stable there).  Indices are int32
    unless N or n_b nnz(S_a) + n_a nnz(S_b) exceeds int32, scipy's rule for those triplets.
    """
    na, nb = a.node_count, b.node_count
    (ra, ca, va), (rb, cb, vb) = _pairs(a.stiffness), _pairs(b.stiffness)
    offa, offb = ra != ca, rb != cb
    ia, kb = ra[offa], rb[offb]  # rows of the off-diagonal pairs
    oa, ob = np.bincount(ia, minlength=na), np.bincount(kb, minlength=nb)
    la, lb = np.bincount(ra[ca < ra], minlength=na), np.bincount(rb[cb < rb], minlength=nb)
    da, db = np.zeros(na, np.intp), np.zeros(nb, np.intp)  # 1 where the row stores its diagonal
    da[ra[~offa]], db[rb[~offb]] = 1, 1
    k = np.arange(nb)
    # row (i, k) starts at bs[i] + k oa[i] + C[da[i], k], where C[d, k] counts b's pairs in
    # rows before k plus a diagonal in each of them: in all (d = 1, a's row i stores one)
    # or where b's row stores one (d = 0)
    C = np.zeros((2, nb + 1), np.intp)
    np.cumsum(ob + db, out=C[0, 1:])
    np.cumsum(ob + 1, out=C[1, 1:])
    bs = np.zeros(na + 1, np.intp)
    np.cumsum(nb * oa + C[da, nb], out=bs[1:])
    C, nnz, N = C[:, :nb], int(bs[na]), na * nb
    big = max(N, nb * a.stiffness.nnz + na * b.stiffness.nnz) > np.iinfo(np.int32).max
    idx = np.int64 if big else np.int32
    indptr = np.empty(N + 1, idx)
    indptr[:N] = _offsets(bs[:na], oa, da, k, C).ravel()
    indptr[N] = nnz
    indices, data = np.empty(nnz + 1, idx), np.empty(nnz + 1)  # and a spare slot

    # a's off-diagonal pairs, each along every k; those right of the diagonal follow b's row
    ce, te = ca[offa], np.arange(len(ia)) - np.searchsorted(ia, ia)
    table = np.concatenate([C, C + ob + [db, np.ones(nb, np.intp)]])
    pos = _offsets(bs[ia] + te, oa[ia], 2 * (ce > ia) + da[ia], k, table)
    indices[pos] = (ce * nb).astype(idx)[:, None] + k.astype(idx)
    vals = va[0, offa][:, None] * b.mass
    for v in va[1:, offa]:
        vals += v[:, None] * b.mass
    data[pos] = vals

    # b's off-diagonal pairs and then a diagonal per row, in every block i; the diagonal
    # sums a's terms, then b's, with -0.0 for a factor's diagonal not stored (x + -0.0 is x);
    # where neither factor stores it, the entry goes to the spare slot [nnz]
    cq, uq = cb[offb], np.arange(len(kb)) - np.searchsorted(kb, kb)
    q = len(kb)
    table = np.array([np.concatenate([C[d, kb] + uq + (cq > kb) * (db[kb] | d), C[d] + lb])
                      for d in (0, 1)])
    pos = _offsets(bs[:na] + la, oa, da, np.concatenate([kb, k]), table)
    pos[np.flatnonzero(da == 0)[:, None], q + np.flatnonzero(db == 0)] = nnz
    indices[pos] = (np.arange(na, dtype=idx) * nb)[:, None] + np.concatenate([cq, k]).astype(idx)
    vals = np.empty((na, q + nb))
    np.multiply(a.mass[:, None], vb[0, offb], out=vals[:, :q])
    for v in vb[1:, offb]:
        vals[:, :q] += a.mass[:, None] * v
    adiag, bdiag = np.full((len(va), na), -0.0), np.full((len(vb), nb), -0.0)
    adiag[:, ra[~offa]], bdiag[:, rb[~offb]] = va[:, ~offa], vb[:, ~offb]
    diag = adiag[0][:, None] * b.mass
    for v in adiag[1:]:
        diag += v[:, None] * b.mass
    np.multiply(a.mass[:, None], bdiag[0], out=vals[:, q:])
    vals[:, q:] += diag
    for v in bdiag[1:]:
        vals[:, q:] += a.mass[:, None] * v
    data[pos] = vals

    S = sparse.csr_matrix((data[:nnz], indices[:nnz], indptr), shape=(N, N))
    S.indices, S.indptr = indices[:nnz], indptr  # the constructor would narrow int64 that fits
    S.has_canonical_format = True
    wa = a.ambient_dim
    coords = np.empty((na, nb, wa + b.ambient_dim), np.result_type(a.coordinates, b.coordinates))
    coords[:, :, :wa], coords[:, :, wa:] = a.coordinates[:, None], b.coordinates
    man = DiscreteManifold(coordinates=coords.reshape(N, -1), dim=a.dim + b.dim,
                           mass=np.multiply.outer(a.mass, b.mass).ravel(), stiffness=S)
    object.__setattr__(man, "_factors", (a._factors or (a,)) + (b._factors or (b,)))
    return man


def build_torus_grid(counts: Sequence[int], lengths: Sequence[float]) -> DiscreteManifold:
    """Uniform periodic grid on a flat torus, the product of the circles _circle(N_k, L_k):
    nodes at x_k = i_k * h_k with h_k = L_k / N_k in C order, each of mass
    prod_k h_k, and weight (prod_{j != k} h_j) / h_k on each periodic neighbor
    pair along dimension k, the standard second-order central Laplacian.  All
    weights are positive, so S is symmetric, PSD and has zero row sums.  A mass that
    over- or underflows, or a weight that overflows, fails DiscreteManifold's check.
    Equal sides share one circle, and with it one cached _eigenbasis."""
    counts, lengths = list(counts), list(lengths)
    if len(counts) == 0 or len(counts) != len(lengths):
        raise InvalidGridSpec(f"need equally many counts and lengths, "
                              f"got {len(counts)} and {len(lengths)}")
    return reduce(product, map(cache(_circle), counts, lengths))


@np.errstate(over="ignore", invalid="ignore")  # inf/NaN fail the checks here or DiscreteManifold's
def _simplicial(verts: np.ndarray, simplices: np.ndarray) -> DiscreteManifold:
    """P1 elements on a closed complex of d-simplices, rows of d + 1 indices into verts.

    Per simplex, with E the edge rows x_k - x_0 and E^T = Q R: vol = sqrt(prod r_kk^2) / d!,
    K = vol D G^{-1} D^T = vol B B^T, B = D R^{-1}, D = [-1^T; I_d] (G = E E^T = R^T R is not
    formed: it squares E's condition number).  Edge (a, b) gets weight -K_ab, the cotangent
    formula at d = 2, and each vertex vol / (d + 1) of mass, both summed times d! and divided
    once, so lattice complexes come out exact.  Rejects a volume not finite or <= 1e-14 of
    the mean, and a (d-1)-face not in exactly two simplices.
    """
    d, n = simplices.shape[1] - 1, len(verts)
    simplices = np.sort(simplices, axis=1)  # so each edge and (d-1)-face has one key
    E = verts[simplices[:, 1:]] - verts[simplices[:, :1]]
    R = np.linalg.qr(E.transpose(0, 2, 1), mode="r")
    r = np.diagonal(R, axis1=1, axis2=2)
    det = np.sqrt(np.prod(r * r, axis=1))  # |det| of the edge frame, d! vol
    if not np.all(np.isfinite(det)):  # finite coordinates can still overflow
        raise MeshFormatError(f"face {int(np.argmin(np.isfinite(det)))}: volume is not finite")
    # <= so an exactly flat face is caught even when it drags the mean to zero
    if np.any(det <= 1e-14 * det.mean()):
        bad = int(np.argmin(det))
        raise DegenerateTriangle(f"face {bad}: volume {det[bad] / math.factorial(d):.3e} ~ 0")

    facets = np.concatenate([np.delete(simplices, k, axis=1) for k in range(d + 1)])
    _, counts = np.unique(facets, axis=0, return_counts=True)
    if np.any(counts != 2):
        raise MeshFormatError(f"mesh is not closed (a boundary or nonmanifold {d - 1}-face)")

    Rinv = np.linalg.inv(R)
    B = np.concatenate([-Rinv.sum(axis=1, keepdims=True), Rinv], axis=1)
    K = det[:, None, None] * (B @ B.transpose(0, 2, 1))
    a, b = np.triu_indices(d + 1, k=1)
    # one weight per edge, summed in simplex order: tocsr's sums would break S = S^T
    keys, at = np.unique(simplices[:, a] * n + simplices[:, b], return_inverse=True)
    S = _stiffness(n, keys // n, keys % n, np.bincount(at.ravel(), -K[:, a, b].ravel()))
    S.data /= math.factorial(d)
    mass = np.bincount(simplices.ravel(), np.repeat(det, d + 1), n) / math.factorial(d + 1)
    return DiscreteManifold(coordinates=verts, mass=mass, stiffness=S, dim=d)


def _off_tokens(text: str) -> list[tuple[str, int]]:
    """Split OFF text into lines, dropping blanks and '#' comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((line, lineno))
    return out


def load_off_mesh(path: str) -> DiscreteManifold:
    """Load a closed triangulated surface from an OFF file, assembled by _simplicial.

    Rejects non-finite vertices, faces of arity other than 3 (NonTriangleFace), a
    triangle line without exactly 3 indices, and what _simplicial rejects.  A file
    that cannot be read as UTF-8 text raises MeshFormatError as well.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshFormatError(f"cannot read {path}: {exc}") from exc
    lines = _off_tokens(text)
    if not lines or lines[0][0].split() != ["OFF"]:
        raise MeshFormatError("missing OFF header")
    if len(lines) < 2:
        raise MeshFormatError("missing element count line")
    try:
        nv, nf, _ne = (int(tok) for tok in lines[1][0].split())
    except ValueError as exc:
        raise MeshFormatError(f"bad count line: {lines[1][0]!r}") from exc
    if nv < 3 or nf < 1:
        raise MeshFormatError(f"implausible element counts nv={nv} nf={nf}")
    if len(lines) < 2 + nv + nf:
        raise MeshFormatError("file ends before all vertices/faces are read")

    verts = np.empty((nv, 3))
    for i in range(nv):
        line, lineno = lines[2 + i]
        parts = line.split()
        if len(parts) != 3:
            raise MeshFormatError(f"line {lineno}: expected 3 vertex coordinates, got {len(parts)}")
        try:
            verts[i] = [float(p) for p in parts]
        except ValueError as exc:
            raise MeshFormatError(f"line {lineno}: bad vertex literal") from exc
    finite = np.isfinite(verts).all(axis=1)
    if not finite.all():  # float() takes "nan" and "inf"
        raise MeshFormatError(f"line {lines[2 + int(np.argmin(finite))][1]}: non-finite vertex")

    faces = np.empty((nf, 3), dtype=int)
    for i in range(nf):
        line, lineno = lines[2 + nv + i]
        parts = line.split()
        try:
            arity = int(parts[0])
        except (ValueError, IndexError) as exc:
            raise MeshFormatError(f"line {lineno}: bad face line") from exc
        if arity != 3:
            raise NonTriangleFace(f"line {lineno}: face with {arity} vertices")
        if len(parts) != 4:
            raise MeshFormatError(f"line {lineno}: triangle with {len(parts) - 1} indices")
        try:
            ijk = [int(p) for p in parts[1:]]
        except ValueError as exc:
            raise MeshFormatError(f"line {lineno}: bad vertex index") from exc
        if any(v < 0 or v >= nv for v in ijk):
            raise MeshFormatError(f"line {lineno}: vertex index out of range")
        if len(set(ijk)) != 3:
            raise DegenerateTriangle(f"line {lineno}: repeated vertex in face")
        faces[i] = ijk

    return _simplicial(verts, faces)
