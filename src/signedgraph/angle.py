"""Classical root systems (exact rational vectors) and angle representations
of signed graphs via Gram matrices.

Membership, verification and whether a Gram representation exists (and its
dimension) are exact; only the constructed vectors' square roots are floats,
which `verify_representation` compares within TOL.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .core import SgError, SignedGraph, _LINK, _Record, _cap, _count, _pairs
from .matrices import adjacency_matrix

TOL = 1e-8  # verify_representation's tolerance for float vectors

MODES = ("gramian", "antigramian", "angleonly")


class RootSystem(_Record):
    __slots__ = ("name", "n", "vectors")  # vectors: tuples of Fraction

    def __len__(self):
        return len(self.vectors)


def _e(n, i, c=1):
    v = [Fraction(0)] * n
    v[i] = Fraction(c)
    return tuple(v)


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _negv(v):
    return tuple(-a for a in v)


def root_system(name, n=None) -> RootSystem:
    """A(n-1) in R^n, B(n), C(n), D(n), or E8 (n forced to 8)."""
    name = name.upper() if isinstance(name, str) else name
    if name not in ("A", "B", "C", "D", "E8"):
        raise SgError(f"unknown root system {name!r}")
    n = 8 if name == "E8" else _count("n", n, 1)
    _cap("root-system", n)
    vs = set()
    if name == "A":
        for i in range(n):
            for j in range(n):
                if i != j:
                    vs.add(_add(_e(n, j), _negv(_e(n, i))))
        return RootSystem("A", n, frozenset(vs))
    for i in range(n):
        for j in range(i + 1, n):
            for si, sj in product((1, -1), repeat=2):
                vs.add(_add(_e(n, i, si), _e(n, j, sj)))
    if name in ("B", "C"):  # B adds the short roots +-e_i, C the long roots +-2e_i
        c = 1 if name == "B" else 2
        for i in range(n):
            vs.add(_e(n, i, c))
            vs.add(_e(n, i, -c))
    elif name == "E8":
        half = Fraction(1, 2)
        for signs in product((1, -1), repeat=8):
            if signs.count(-1) % 2 == 0:
                vs.add(tuple(half * s for s in signs))
    return RootSystem(name, n, frozenset(vs))


# ---------------------------------------------------------------------------
# angle representations


class AngleRepresentation(_Record):
    """rho: one vector per vertex (tuples, rational or float); nu > 0;
    mode in {gramian, antigramian, angleonly}."""

    __slots__ = ("rho", "nu", "mode")

    def __init__(self, rho, nu, mode="gramian"):
        if mode not in MODES:
            raise SgError(f"unknown mode {mode!r}")
        if not nu > 0:
            raise SgError("nu must be positive")
        dims = {len(v) for v in rho}
        if len(dims) > 1:
            raise SgError("representation vectors have mixed dimensions")
        super().__init__(rho, nu, mode)

    @property
    def dimension(self):
        return len(self.rho[0]) if self.rho else 0


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _simple_adjacency(g: SignedGraph):
    if any(e.kind is not _LINK for e in g.edges):
        raise SgError("angle representations need a simple link graph")
    _pairs(g.n, [e.ends for e in g.edges], "an angle representation's graph")
    return adjacency_matrix(g)


def verify_representation(g: SignedGraph, rep: AngleRepresentation) -> bool:
    """Exact check of the defining dot-product conditions.

    angleonly compares normalized dot products through their squares (so the
    norms never need square roots); the two Gram modes compare unnormalized
    dot products against a_vw + nu on the diagonal (negated adjacency for
    antigramian)."""
    a = _simple_adjacency(g)
    if len(rep.rho) != g.n:
        raise SgError("one vector per vertex required")
    flip = -1 if rep.mode == "antigramian" else 1
    nu = Fraction(rep.nu) if not isinstance(rep.nu, float) else rep.nu
    exact = all(
        not isinstance(x, float) for v in rep.rho for x in v
    ) and not isinstance(rep.nu, float)

    def eq(x, y):
        return x == y if exact else abs(x - y) <= TOL

    for v in range(g.n):
        for w in range(v, g.n):
            d = _dot(rep.rho[v], rep.rho[w])
            if rep.mode == "angleonly":
                if v == w:
                    if d == 0:
                        return False
                    continue
                target = Fraction(flip * a[v][w], 1) / nu
                nv = _dot(rep.rho[v], rep.rho[v])
                nw = _dot(rep.rho[w], rep.rho[w])
                if not eq(d * d, target * target * nv * nw):
                    return False
                if (d > 0) != (target > 0) and not eq(d, 0) and target != 0:
                    return False
                if eq(d, 0) != (target == 0):
                    return False
            else:
                target = flip * a[v][w] + (nu if v == w else 0)
                if not eq(d, target):
                    return False
    return True


def construct_gramian(g: SignedGraph, nu, anti=False):
    """Factor M = A + nu*I (or -A + nu*I) as a Gram matrix by exact symmetric
    elimination (LDL^T over Fraction).

    Returns None when M is not positive semidefinite (the smallest eigenvalue
    of the possibly negated A is below -nu): a negative pivot, or a zero pivot
    with a nonzero entry left in its column.  Each positive pivot d with
    column x gives the coordinate x[v] / sqrt(d), so the dimension is rank(M)."""
    a = _simple_adjacency(g)
    try:
        shift = Fraction(nu)
        float(shift)  # the coordinates are float square roots
    except (OverflowError, TypeError, ValueError, ZeroDivisionError):
        raise SgError("nu must be a rational number within float range") from None
    m = [[shift if v == w else -x if anti else x for w, x in enumerate(row)] for v, row in enumerate(a)]
    pivots = []
    for k in range(g.n):
        d = m[k][k]
        col = [(v, m[v][k]) for v in range(k + 1, g.n) if m[v][k]]
        if d < 0 or (d == 0 and col):
            return None
        if d:
            for v, x in col:
                for w, y in col:
                    m[v][w] -= x * y / d
            pivots.append((k, d, col))
    rho = [[0.0] * len(pivots) for _ in range(g.n)]
    for i, (k, d, col) in enumerate(pivots):
        rho[k][i] = math.sqrt(d)
        for v, x in col:  # x / sqrt(d), which stays within float range as x^2 / d <= m[v][v]
            rho[v][i] = math.copysign(math.sqrt(x * x / d), x)
    return AngleRepresentation(tuple(map(tuple, rho)), nu, "antigramian" if anti else "gramian")


def _rational_sqrt(x: Fraction):
    """sqrt(x) as a Fraction if x is a perfect rational square, else None."""
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def normalize(rep: AngleRepresentation) -> AngleRepresentation:
    """Rescale every vector to norm sqrt(nu) (exactly when the scale factor
    is rational, else in floating point)."""
    out = []
    for v in rep.rho:
        sq = _dot(v, v)
        if sq == 0:
            raise SgError("cannot normalize a zero vector")
        ratio = None
        if not any(isinstance(x, float) for x in v) and not isinstance(rep.nu, float):
            ratio = _rational_sqrt(Fraction(rep.nu) / Fraction(sq))
        if ratio is None:
            ratio = math.sqrt(float(rep.nu) / float(sq))
            out.append(tuple(float(x) * ratio for x in v))
        else:
            out.append(tuple(x * ratio for x in v))
    return AngleRepresentation(tuple(out), rep.nu, rep.mode)


def membership_in_root_system(vectors, rs: RootSystem) -> bool:
    """True iff every vector (up to sign) lies in the root system, exactly."""
    for v in vectors:
        if len(v) != rs.n:
            raise SgError(f"dimension mismatch: {len(v)} vs {rs.n}")
        t = tuple(Fraction(x) for x in v)
        if t not in rs.vectors and _negv(t) not in rs.vectors:
            return False
    return True

