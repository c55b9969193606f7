"""Exact edge vectors, incidence/adjacency/Laplacian matrices, rational rank,
the signed Matrix-Tree identity, and floating-point spectra.  The GF(2)
rank used by the tests' characteristic-2 checks is in `oracles`.

Matrices are plain nested lists of Python ints (exact, arbitrary precision);
rationals enter only inside Gaussian elimination.  The canonical column sign
fixes the ambiguity the theory leaves open: the lower endpoint of a link gets
entry +1, a half edge gets +1, a negative loop +2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import EdgeKind, SgError, SignedGraph, enumerate_circles
from .frame import is_independent


def edge_vector(g: SignedGraph, eid):
    """Canonical edge vector of length n (column of the incidence matrix)."""
    e = g.edge(eid)
    vec = [0] * g.n
    if e.kind is EdgeKind.LINK:
        i, j = min(e.ends), max(e.ends)
        vec[i] = 1
        vec[j] = -e.sign
    elif e.kind is EdgeKind.LOOP:
        if e.sign == -1:
            vec[e.ends[0]] = 2
    elif e.kind is EdgeKind.HALF:
        vec[e.ends[0]] = 1
    return vec


def incidence_matrix(g: SignedGraph):
    """n x m matrix whose columns are the canonical edge vectors, edge order."""
    cols = [edge_vector(g, e.id) for e in g.edges]
    return [[col[v] for col in cols] for v in range(g.n)]


def adjacency_matrix(g: SignedGraph):
    """Symmetric n x n: off-diagonal (#positive - #negative links between the
    pair); diagonal counts half edges plus twice the signed loop excess."""
    a = [[0] * g.n for _ in range(g.n)]
    for e in g.edges:
        if e.kind is EdgeKind.LINK:
            u, v = e.ends
            a[u][v] += e.sign
            a[v][u] += e.sign
        elif e.kind is EdgeKind.LOOP:
            a[e.ends[0]][e.ends[0]] += 2 * e.sign
        elif e.kind is EdgeKind.HALF:
            a[e.ends[0]][e.ends[0]] += 1
    return a


def degree_matrix(g: SignedGraph):
    """Diagonal matrix with links counting once, loops and half edges twice.

    The half-edge weight of 2 is forced by L = D - A = H H^T: a half-edge
    column contributes 1 to the Laplacian diagonal while the adjacency
    diagonal also gains 1, so the degree side must carry 2.  (A convention
    counting half edges once breaks both that identity and the matrix-tree
    determinant identity whenever half edges are present.)"""
    diag = [0] * g.n
    for e in g.edges:
        if e.kind is EdgeKind.LINK:
            for v in e.ends:
                diag[v] += 1
        elif e.kind is EdgeKind.LOOP:
            diag[e.ends[0]] += 2
        elif e.kind is EdgeKind.HALF:
            diag[e.ends[0]] += 2
    return [
        [diag[v] if v == w else 0 for w in range(g.n)] for v in range(g.n)
    ]


def laplacian(g: SignedGraph):
    """L = D - A; equals H H^T entrywise."""
    a = adjacency_matrix(g)
    d = degree_matrix(g)
    return [[d[i][j] - a[i][j] for j in range(g.n)] for i in range(g.n)]


def reduce(g: SignedGraph) -> SignedGraph:
    """Cancel +/- parallel pairs, drop positive loops and loose edges.

    The adjacency matrix is unchanged; the result is the unique reduced graph.
    Pairs are cancelled greedily in edge-id order."""
    keep = {
        e.id: e
        for e in g.edges
        if not (e.kind is EdgeKind.LOOSE or (e.kind is EdgeKind.LOOP and e.sign == 1))
    }
    changed = True
    while changed:
        changed = False
        links = sorted(
            (e for e in keep.values() if e.kind is EdgeKind.LINK), key=lambda e: e.id
        )
        for e, f in combinations(links, 2):
            if sorted(e.ends) == sorted(f.ends) and e.sign == -f.sign:
                del keep[e.id]
                del keep[f.id]
                changed = True
                break
    return g.with_edges(e for e in g.edges if e.id in keep)


def _to_fractions(m):
    return [[Fraction(x) for x in row] for row in m]


def rational_rank(m) -> int:
    """Exact rank by Gaussian elimination over the rationals."""
    m = _to_fractions(m)
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    rank_ = 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for r in range(row + 1, rows):
            if m[r][col] != 0:
                factor = m[r][col] / pv
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        row += 1
        rank_ += 1
        if row == rows:
            break
    return rank_


def rational_nullity(m) -> int:
    if not m or not m[0]:
        return 0
    return len(m[0]) - rational_rank(m)


def bareiss_determinant(m) -> int:
    """Exact integer determinant by Bareiss fraction-free elimination."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise SgError("determinant needs a square matrix")
    a = [list(map(int, row)) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def incidence_columns(g: SignedGraph, s):
    """Incidence submatrix restricted to the columns of s (edge order)."""
    edges = g.restricted(s)
    cols = [edge_vector(g, e.id) for e in edges]
    return [[col[v] for col in cols] for v in range(g.n)]


@dataclass(frozen=True)
class MatrixTreeReport:
    det_laplacian: int
    circle_counts: tuple  # b_i for i = 0..n
    weighted_sum: int

    @property
    def consistent(self):
        return self.det_laplacian == self.weighted_sum


def matrix_tree(g: SignedGraph, n_cap=8) -> MatrixTreeReport:
    """det L versus the 4^i-weighted count of n-edge independent sets with
    exactly i circles, both computed independently."""
    if g.n > n_cap:
        raise SgError(f"matrix-tree cap exceeded (n = {g.n} > {n_cap})")
    det = bareiss_determinant(laplacian(g))
    circles = enumerate_circles(g, cap=max(len(g.edges), 1))
    counts = [0] * (g.n + 1)
    ids = sorted(g.edge_ids)
    for combo in combinations(ids, g.n):
        s = frozenset(combo)
        if not is_independent(g, s):
            continue
        i = sum(1 for c in circles if c <= s)
        counts[i] += 1
    weighted = sum(4**i * bi for i, bi in enumerate(counts))
    return MatrixTreeReport(det, tuple(counts), weighted)


def spectrum(m, tol=1e-9):
    """Eigenvalues of a symmetric integer matrix, ascending."""
    import numpy as np  # on first use: no other routine needs numpy

    arr = np.array(m, dtype=float)
    if arr.size and not np.array_equal(arr, arr.T):
        raise SgError("spectrum needs a symmetric matrix")
    if arr.size == 0:
        return []
    return sorted(np.linalg.eigvalsh(arr).tolist())
