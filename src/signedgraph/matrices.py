"""Exact edge vectors, incidence/adjacency/Laplacian matrices, rational rank,
the signed Matrix-Tree identity, and floating-point spectra.

Matrices are plain nested lists of Python ints (exact, arbitrary precision).
The graph matrices fill one builder, `_dense`, from (row, column, entry)
triples: the Laplacian from the edge vectors' outer products, L = H H^T, with
no D or A built.  A matrix argument meets one entry rule, `_rows`.  Rank and
determinant share one fraction-free elimination, and rank first scales a
rational matrix's rows to integers.  The canonical column sign
fixes the ambiguity the theory leaves open: the lower endpoint of a link gets
entry +1, a half edge gets +1, a negative loop +2 (`core._edge_vector`).
The matrix-tree count walks the independent n-edge sets depth first on
core's undoable union-find, at O(log n) per edge tried.  The spectrum is
the one floating-point result: threshold cyclic Jacobi on each block of the
matrix, in pure Python, with its integer eigenvalues made exact by rational
nullity.  This module depends only on `core`.
"""

from __future__ import annotations

from itertools import compress
from math import comb, inf, lcm, sqrt
from numbers import Rational, Real
from operator import attrgetter
from sys import float_info

from .core import (
    SgError, SignedGraph, _HALF, _LINK, _LOOP, _LOOSE, _Record, _UndoableUnionFind, _cap, _edge_vector, _frame_edge,
    _graph, _groups, _switching_bfs,
)


def edge_vector(g: SignedGraph, eid):
    """Canonical edge vector of length n (column of the incidence matrix)."""
    vec = dict(_edge_vector(g.edge(eid)))
    return [vec.get(v, 0) for v in range(g.n)]


def incidence_matrix(g: SignedGraph):
    """n x m matrix whose columns are the canonical edge vectors, edge order."""
    return incidence_columns(g, g.edge_ids)


def _dense(n, width, entries):
    """The n x width int matrix that sums each (i, j, x) of entries into a[i][j]:
    the one builder of the graph matrices, so the one dense-matrix cap check."""
    _cap("dense-matrix", n)
    a = [[0] * width for _ in range(n)]
    for i, j, x in entries:
        a[i][j] += x
    return a


def adjacency_matrix(g: SignedGraph):
    """Symmetric n x n: off-diagonal (#positive - #negative links between the
    pair); diagonal counts half edges plus twice the signed loop excess.  A
    link or loop adds its sign at (u, v) and at (v, u), a half edge 1 at (u, u)."""
    entries = [(u, v, e.sign) for e in g.edges if e.is_ordinary for u, v in (e.ends, e.ends[::-1])]
    return _dense(g.n, g.n, entries + [(e.ends[0], e.ends[0], 1) for e in g.edges if e.kind is _HALF])


def degree_matrix(g: SignedGraph):
    """Diagonal matrix of the edge ends at each vertex (`SignedGraph.degree`),
    with each half edge counted twice, as loops are.

    The half-edge weight of 2 is forced by L = D - A = H H^T: a half-edge
    column contributes 1 to the Laplacian diagonal while the adjacency
    diagonal also gains 1, so the degree side must carry 2.  (A convention
    counting half edges once breaks both that identity and the matrix-tree
    determinant identity whenever half edges are present.)"""
    return _dense(g.n, g.n, [(v, v, 2 if e.kind is _HALF else 1) for e in g.edges for v in e.ends])


def laplacian(g: SignedGraph):
    """L = H H^T, the sum of the outer products x(e) x(e)^T of the edge
    vectors, in one pass over the edges; it equals D - A entrywise."""
    vectors = [_edge_vector(e) for e in g.edges]
    return _dense(g.n, g.n, [(u, v, x * y) for vec in vectors for u, x in vec for v, y in vec])


def reduce(g: SignedGraph) -> SignedGraph:
    """Cancel +/- parallel pairs, drop positive loops and loose edges.

    Between two vertices with p positive and q negative links, the first
    min(p, q) of each sign in edge-id order cancel; the result is the unique
    reduced graph.  Its adjacency matrix is g's less the diagonal +2 of each
    positive loop: a lone positive loop's [[2]] becomes [[0]]."""
    parallel = {}  # (lower end, higher end, sign) -> link ids in id order
    for e in sorted(g.edges, key=lambda e: e.id):
        if e.kind is _LINK:
            parallel.setdefault((min(e.ends), max(e.ends), e.sign), []).append(e.id)
    gone = set()
    for (u, v, sign), ids in parallel.items():
        if sign == 1:
            other = parallel.get((u, v, -1), ())
            k = min(len(ids), len(other))
            gone.update(ids[:k], other[:k])
    return _graph(g.n, {
        e.id: e for e in g.edges
        if not (e.id in gone or e.kind is _LOOSE or (e.kind is _LOOP and e.sign == 1))
    })


def _rows(m, need, square=False, floats=False):
    """m's rows as lists of one length, len(m) if square, each entry a real
    number, finite and, if floats, within float range.  A bad shape or value
    raises SgError saying what need needs, an entry that is not a number
    TypeError.  The entries equal to 0 are counted in C, and each other value
    is checked once: a wide graph's matrix is mostly zero rows."""
    rows = [list(row) for row in m]
    width = len(rows) if square or not rows else len(rows[0])
    if any(len(row) != width for row in rows):
        raise SgError(f"{need} needs a {'square' if square else 'rectangular'} matrix")
    limit = float_info.max if floats else inf
    for x in set().union(*(row for row in rows if row.count(0) < width)):
        if not isinstance(x, Real):
            raise TypeError(f"{need} needs real number entries, got {type(x).__name__}")
        if not abs(x) < limit:  # also NaN
            raise SgError(f"{need} needs finite entries{' within float range' if floats else ''}")
    return rows


def _eliminate(a):
    """Bareiss's fraction-free elimination (1968) of the integer rows a, in
    place, skipping each column with no pivot.  Returns the rank and the last
    pivot signed by the row swaps: each pivot is a minor of a, so every
    division is exact, and a square a of full rank ends at its determinant."""
    rows, cols = len(a), len(a[0]) if a else 0
    rank, sign, prev = 0, 1, 1
    for c in range(cols):
        if rank == rows:
            break
        if not a[rank][c]:
            p = next((i for i in range(rank + 1, rows) if a[i][c]), None)
            if p is None:
                continue
            a[rank], a[p] = a[p], a[rank]
            sign = -sign
        top = a[rank]
        pv = top[c]
        for row in a[rank + 1:]:
            x = row[c]
            for j in range(c + 1, cols):
                row[j] = (row[j] * pv - x * top[j]) // prev
        prev = pv
        rank += 1
    return rank, sign * prev


def rational_rank(m) -> int:
    """Exact rank of a matrix of rationals (ints, Fractions, numpy ints) or
    finite floats, each row scaled to integers by the lcm of its denominators."""
    a = []
    for row in _rows(m, "rank"):
        ratios = [(x.numerator, x.denominator) if isinstance(x, Rational) else x.as_integer_ratio() for x in row]
        d = lcm(*(q for _, q in ratios))
        a.append([p * (d // q) for p, q in ratios])
    return _eliminate(a)[0]


def rational_nullity(m) -> int:
    return len(m[0]) - rational_rank(m) if len(m) else 0


def bareiss_determinant(m) -> int:
    """Exact determinant of a matrix of integers: ints, or Fractions and
    floats of integer value."""
    rows = _rows(m, "determinant", square=True)
    a = [list(map(int, row)) for row in rows]
    if a != rows:
        raise SgError("determinant needs integer entries")
    rank, pivot = _eliminate(a)
    return pivot if rank == len(m) else 0


def incidence_columns(g: SignedGraph, s):
    """Incidence submatrix restricted to the columns of s (edge order)."""
    cols = g.restricted(s)
    return _dense(g.n, len(cols), [(v, j, x) for j, e in enumerate(cols) for v, x in _edge_vector(e)])


class MatrixTreeReport(_Record):
    __slots__ = ("det_laplacian", "circle_counts", "weighted_sum")  # circle_counts: b_i for i = 0..n

    @property
    def consistent(self):
        return self.det_laplacian == self.weighted_sum


def matrix_tree(g: SignedGraph) -> MatrixTreeReport:
    """det L versus the 4^i-weighted count of n-edge independent sets with
    exactly i circles, both computed independently.

    An n-edge set S is independent iff every component of (V, S) is
    unbalanced.  Then each component has as many edges as vertices, so it
    holds one circle, or a half edge and no circle: S holds one circle per
    component, less one per half edge.  The sets are walked depth first over
    the id-sorted edges on one undoable union-find, which descends only while
    an added edge raises the rank, since independence is hereditary; each
    step costs O(log n).  The matrix-tree set cap bounds the C(m, n) sets."""
    _cap("matrix-tree", g.n)
    n = g.n
    edges = sorted(g.edges, key=attrgetter("id"))
    m = len(edges)
    _cap("matrix-tree set", comb(m, n))
    det = bareiss_determinant(laplacian(g))
    counts = [0] * (n + 1)
    frame = [_frame_edge(e) for e in edges]
    is_half = [e.kind is _HALF for e in edges]
    uf = _UndoableUnionFind(n)

    def walk(start, size, halves):
        if size == n:
            counts[uf.unbalanced - halves] += 1
            return
        for i in range(start, m - n + size + 1):
            if uf.add(frame[i]):
                walk(i + 1, size + 1, halves + is_half[i])
            uf.undo()

    walk(0, 0, 0)
    weighted = sum(4**i * bi for i, bi in enumerate(counts))
    return MatrixTreeReport(det, tuple(counts), weighted)


def _jacobi(a):
    """The eigenvalues of the symmetric float rows a, which it overwrites, by
    threshold cyclic Jacobi: each sweep rotates away, in row order, every
    off-diagonal entry over a quarter of the largest, until none is over 1e-17
    of the Frobenius norm.  A rotation (Rutishauser's stable form) of (p, q)
    rewrites rows p and q, then their entries in the other rows: O(n)."""
    tol = 1e-17 * sqrt(sum(x * x for row in a for x in row))
    while True:
        top = max((max(map(abs, row[i + 1:]), default=0) for i, row in enumerate(a)), default=0)
        if top <= tol:
            return [row[i] for i, row in enumerate(a)]
        least = max(tol, top / 4)
        for p, rp in enumerate(a):
            for q in range(p + 1, len(a)):
                apq = rp[q]
                if abs(apq) <= least:
                    continue
                rq = a[q]
                theta = (rq[q] - rp[p]) / (2 * apq)
                t = (1 if theta >= 0 else -1) / (abs(theta) + sqrt(theta * theta + 1))
                c = 1 / sqrt(t * t + 1)
                s = t * c
                new_p = [c * x - s * y for x, y in zip(rp, rq)]
                new_q = [s * x + c * y for x, y in zip(rp, rq)]
                new_p[p], new_q[q] = rp[p] - t * apq, rq[q] + t * apq
                new_p[q] = new_q[p] = 0.0
                a[p] = rp = new_p
                a[q] = new_q
                for row, x, y in zip(a, new_p, new_q):
                    row[p], row[q] = x, y


def spectrum(m):
    """Eigenvalues of a symmetric integer matrix, ascending, as floats.

    `_jacobi` runs on each block, a connected component of the nonzero
    pattern as core's `_switching_bfs` finds it, whose order the spectrum block cap bounds before any rotation;
    its values lie within about 1e-14 of the exact ones (Demmel and Veselic,
    1992).  An integer k within 1e-6 of a block's value is exact: the block's
    rational nullity at k says how many of the nearest values become k, so 0
    is 0.0, never -0.0 or 1e-17."""
    rows = _rows(m, "spectrum", square=True, floats=True)
    n, columns = len(rows), list(range(len(rows)))
    # a zero row, most rows of a wide graph's matrix, is found by count in C
    nonzero = [list(compress(columns, row)) if row.count(0) < n else [] for row in rows]
    if any(rows[j][i] != rows[i][j] for i, js in enumerate(nonzero) for j in js):
        raise SgError("spectrum needs a symmetric matrix")
    blocks = _groups(_switching_bfs(nonzero, ())[1])
    _cap("spectrum block", max(map(len, blocks), default=0))
    values = []
    for block in blocks:
        b = [[rows[i][j] for j in block] for i in block]
        if not block[1:]:  # a 1 x 1 block is its eigenvalue
            values.append(float(b[0][0]))
            continue
        vals = _jacobi([[float(x) for x in row] for row in b])
        for k in {round(x) for x in vals if abs(x - round(x)) < 1e-6}:
            shifted = [[x - k if i == j else x for j, x in enumerate(row)] for i, row in enumerate(b)]
            near = sorted(range(len(vals)), key=lambda i: abs(vals[i] - k))
            for i in near[:rational_nullity(shifted)]:
                vals[i] = float(k)
        values += vals
    return sorted(values)
