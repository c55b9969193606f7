from fractions import Fraction
from itertools import combinations

import pytest

from signedgraph import (
    AngleRepresentation,
    SgError,
    SignedGraph,
    adjacency_matrix,
    construct_gramian,
    edge_vector,
    link,
    membership_in_root_system,
    normalize,
    plus_minus_kn,
    plus_minus_kn_full,
    rational_rank,
    root_system,
    spectrum,
    verify_representation,
)
from conftest import seeded


def test_root_system_counts():
    for n in (2, 3, 4, 5):
        assert len(root_system("A", n)) == n * (n - 1)
        assert len(root_system("D", n)) == 2 * n * (n - 1)
        assert len(root_system("B", n)) == 2 * n * n
        assert len(root_system("C", n)) == 2 * n * n
    assert len(root_system("E8")) == 240
    with pytest.raises(SgError):
        root_system("F", 4)


def test_d2_vectors():
    d2 = root_system("D", 2)
    assert d2.vectors == frozenset(
        {
            (Fraction(1), Fraction(1)),
            (Fraction(1), Fraction(-1)),
            (Fraction(-1), Fraction(1)),
            (Fraction(-1), Fraction(-1)),
        }
    )


def pairwise_angle_cosines(rs):
    """Set of exact squared-cosine values (with sign) between distinct,
    non-parallel norm-2-squared vectors of a root system."""
    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    out = set()
    for u, v in combinations(sorted(rs.vectors), 2):
        if dot(u, u) != 2 or dot(v, v) != 2 or u == tuple(-a for a in v):
            continue
        out.add(Fraction(dot(u, v), 2))
    return out


def test_root_cosines():
    assert pairwise_angle_cosines(root_system("D", 3)) == {
        Fraction(-1, 2),
        Fraction(0),
        Fraction(1, 2),
    }
    assert pairwise_angle_cosines(root_system("E8")) == {
        Fraction(-1, 2),
        Fraction(0),
        Fraction(1, 2),
    }


def test_edge_vectors_lie_in_root_systems():
    # edge vectors of the complete signed expansion of K_n lie in D_n;
    # adding half edges extends to B_n
    for n in (2, 3, 4):
        g = plus_minus_kn(n)
        vecs = [edge_vector(g, e.id) for e in g.edges]
        assert membership_in_root_system(vecs, root_system("D", n))
        gf = plus_minus_kn_full(n)
        vecsf = [edge_vector(gf, e.id) for e in gf.edges if e.ends]
        assert membership_in_root_system(vecsf, root_system("B", n))
        assert not membership_in_root_system(vecsf, root_system("D", n))


def test_verify_gramian_exact():
    # +K2 with nu = 1: vectors (1,) and (1,) give Gram [[1+? ]]... use an
    # explicit pair: dot = a_vw = 1, norms = nu + 0? diagonal target = nu + 0
    g = SignedGraph(2, [link("a", 0, 1, 1)])
    rep = AngleRepresentation(((1,), (1,)), 1, "gramian")
    assert verify_representation(g, rep)
    bad = AngleRepresentation(((1,), (-1,)), 1, "gramian")
    assert not verify_representation(g, bad)
    anti = AngleRepresentation(((1,), (-1,)), 1, "antigramian")
    assert verify_representation(g, anti)
    with pytest.raises(SgError):
        verify_representation(g, AngleRepresentation(((1,),), 1))


def test_verify_angleonly():
    g = SignedGraph(2, [link("a", 0, 1, -1)])
    # cos = -a/nu = 1/2 for nu = 2: vectors at 60 degrees, any norms
    rep = AngleRepresentation(
        ((Fraction(2), Fraction(0)), (Fraction(1), Fraction(1))), 2, "angleonly"
    )
    # dot = 2, norms 4 and 2: cos^2 = 4/8 = 1/2 but target^2 = 1/4: fails
    assert not verify_representation(g, rep)
    rep2 = AngleRepresentation(((2, 0), (1, 1)), 2, "angleonly")
    assert not verify_representation(g, rep2)
    # the target for a negative edge is cos = a/nu = -1/2
    rep3 = AngleRepresentation(
        (
            (Fraction(1), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(-1), Fraction(-1)),
        ),
        2,
        "angleonly",
    )
    assert verify_representation(g, rep3)  # dot -1, norms 2, cos -1/2
    # zero vectors are rejected
    z = AngleRepresentation(((Fraction(0),), (Fraction(1),)), 2, "angleonly")
    assert not verify_representation(g, z)


def test_construct_gramian_boundary():
    g = SignedGraph(2, [link("a", 0, 1, 1)])
    # eigenvalues of A are -1, 1: nu = 1 sits exactly on the boundary
    rep = construct_gramian(g, 1)
    assert rep is not None
    assert rep.dimension == 1
    assert verify_representation(g, rep)
    assert construct_gramian(g, 0.5) is None
    rep2 = construct_gramian(g, 2)
    assert rep2 is not None and rep2.dimension == 2


def test_construct_gramian_iff_eigenvalue_bound():
    """Exists iff min(spectrum) >= -nu; the dimension is rank(A + nu*I)."""
    rng = seeded(91)
    for _ in range(150):
        n = rng.randint(1, 7)
        edges = []
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                r = rng.random()
                if r < 0.3:
                    continue
                edges.append(link(f"e{k}", i, j, 1 if r < 0.65 else -1))
                k += 1
        g = SignedGraph(n, edges)
        a = adjacency_matrix(g)
        ev = spectrum(a)
        for nu in (1, 2, 3, Fraction(1, 2), Fraction(3, 2)):
            for anti in (False, True):
                flip = -1 if anti else 1
                bound = -max(ev) if anti else min(ev)
                rep = construct_gramian(g, nu, anti=anti)
                if bound >= -nu - 1e-8:
                    assert rep is not None
                    assert verify_representation(g, rep)
                    m = [[flip * a[i][j] + (nu if i == j else 0) for j in range(n)] for i in range(n)]
                    assert rep.dimension == rational_rank(m)
                else:
                    assert rep is None


def test_construct_gramian_rejects_nu_beyond_float_range():
    g = SignedGraph(3, [link("a", 0, 1, 1), link("b", 1, 2, -1)])
    for nu in (Fraction(10) ** 400, "1/0"):
        with pytest.raises(SgError, match="float range"):
            construct_gramian(g, nu)


def test_construct_rejects_non_simple(sigma4):
    with pytest.raises(SgError):
        construct_gramian(sigma4, 2)


def test_normalize():
    rep = AngleRepresentation(
        ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(3))), 1, "angleonly"
    )
    out = normalize(rep)
    assert out.rho[0] == (Fraction(1), Fraction(0))
    # 1/9 is a perfect rational square, so this stays exact too
    assert out.rho[1] == (Fraction(0), Fraction(1))
    # irrational factor falls back to floats
    rep2 = AngleRepresentation(((Fraction(1), Fraction(1)),), 1, "angleonly")
    out2 = normalize(rep2)
    assert abs(sum(x * x for x in out2.rho[0]) - 1) < 1e-12
    with pytest.raises(SgError):
        normalize(AngleRepresentation(((Fraction(0),),), 1, "angleonly"))


def test_membership_dimension_mismatch():
    with pytest.raises(SgError):
        membership_in_root_system([(Fraction(1),)], root_system("D", 3))
