"""
Builders for the graph families, each self-validating against closed-form
parameters.

Vertex sets come from the packed tables of char-2 quadratic spaces
(nonsingular vectors, singular vectors, hyperplanes of a given type, or
whole vector spaces), from finite fields (difference graphs on square
classes or on the exponent classes j = 0, 1 mod 4 of a fixed primitive
element), from small combinatorics (2-subsets, grids, Fano flags), or from
the weight-7 words of the binary quadratic-residue code of length 23.
Every builder finishes by certifying strong regularity and comparing
against expected_params; a mismatch raises, it is never a warning.

Adjacency conventions: orthogonality families join distinct vectors with
B(x, y) = 0 (their "_comp" variants join on B != 0); hyperplane families
over GF(4) join hyperplanes whose intersection is degenerate ("_comp":
nondegenerate), read off the popcount of the AND of their singular-vector
masks by the count rule proved in _no_gf4; affine families join x, y with
q(x + y) = 0 ("_comp": nonzero).  Vertex order is the enumeration order of
the underlying object, so builds are deterministic.
"""

from dataclasses import dataclass
from itertools import combinations

from .bounds import effective_bound
from .fields import field
from .graphs import Graph, SrgParams, srg_params
from .quadspaces import standard_singular_count, standard_space

BUILD_VERTEX_BOUND = 1000


@dataclass(frozen=True)
class FamilySpec:
    family: str
    size: int | None = None


def _lambda_from_identity(v, k, mu):
    "the unique lambda with k(k - lambda - 1) = (v - k - 1) mu"
    num = k * (k - 1) - (v - k - 1) * mu
    assert num % k == 0, "infeasible (v, k, mu)"
    return num // k


def expected_params(family, size=None):
    "closed-form (v, k, lambda, mu) for the family at this size"
    info = FAMILIES.get(family)
    if info is None:
        raise ValueError("unknown family: %r" % (family,))
    if info["needs_size"]:
        if size is None:
            raise ValueError("%s needs a size parameter" % family)
        info["check_size"](size)
    elif size is not None and size != 0:
        raise ValueError("%s takes no size parameter" % family)
    n = size
    if family == "NOplus2n_2":
        return SrgParams(
            2 ** (n - 1) * (2**n - 1),
            2 ** (2 * n - 2) - 1,
            2 ** (2 * n - 3) - 2,
            2 ** (n - 2) * (2 ** (n - 1) + 1),
        )
    if family == "NOminus2n_2_comp":
        return SrgParams(
            2 ** (n - 1) * (2**n + 1),
            2 ** (n - 1) * (2 ** (n - 1) + 1),
            2 ** (n - 2) * (2 ** (n - 1) + 1),
            2 ** (n - 1) * (2 ** (n - 2) + 1),
        )
    if family == "NOplusOdd_4":
        return SrgParams(
            4**n * (4**n + 1) // 2,
            (4 ** (n - 1) + 1) * (4**n - 1),
            (4 ** (n - 1) + 2) * (4**n - 2) // 2,
            4**n * (4 ** (n - 1) + 1) // 2,
        )
    if family == "NOminusOdd_4_comp":
        return SrgParams(
            4**n * (4**n - 1) // 2,
            4 ** (n - 1) * (4**n + 1),
            4**n * (4 ** (n - 1) + 1) // 2,
            4 ** (n - 1) * (4**n + 2) // 2,
        )
    if family == "VOplus":
        return SrgParams(
            4**n,
            (2 ** (n - 1) + 1) * (2**n - 1),
            (2 ** (n - 1) + 2) * (2 ** (n - 1) - 1),
            2 ** (n - 1) * (2 ** (n - 1) + 1),
        )
    if family == "VOminus_comp":
        return SrgParams(
            4**n,
            2 ** (n - 1) * (2**n + 1),
            2 ** (n - 1) * (2 ** (n - 1) + 1),
            2 ** (n - 1) * (2 ** (n - 1) + 1),
        )
    if family == "G2_2_comp":
        return SrgParams(36, 21, 12, 12)
    if family == "M22_comp":
        return SrgParams(176, 105, 68, 54)
    if family in ("Paley", "Peisert"):
        q = n
        return SrgParams(q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4)
    if family == "Triangular":
        return SrgParams(n * (n - 1) // 2, 2 * (n - 2), n - 2, 4)
    if family == "Lattice":
        return SrgParams(n * n, 2 * (n - 1), n - 2, 2)
    if family == "Sp2n_2":
        return SrgParams(
            4**n - 1, 2 ** (2 * n - 1) - 2, 2 ** (2 * n - 2) - 3, 2 ** (2 * n - 2) - 1
        )
    if family == "Oplus2n_2":
        v = 2 ** (2 * n - 1) + 2 ** (n - 1) - 1
        mu = (2 ** (n - 2) + 1) * (2 ** (n - 1) - 1)
        k = 2 * mu
        return SrgParams(v, k, _lambda_from_identity(v, k, mu), mu)
    if family == "Ominus2n_2":
        v = (2 ** (n - 1) - 1) * (2**n + 1)
        mu = (2 ** (n - 2) - 1) * (2 ** (n - 1) + 1)
        k = 2 * mu
        return SrgParams(v, k, _lambda_from_identity(v, k, mu), mu)
    raise ValueError("unknown family: %r" % (family,))


# -- builders ------------------------------------------------------------------


def _graph_from_rule(verts, adj, label):
    edges = [
        (i, j) for i in range(len(verts)) for j in range(i + 1, len(verts))
        if adj(verts[i], verts[j])
    ]
    return Graph(len(verts), edges, label)


def _no_gf2(n, kind, complemented, label):
    sp = standard_space(2, 2 * n, kind)
    qt = sp.q_table()
    verts = [x for x in range(1, 4**n) if qt[x]]
    want = 0 if not complemented else 1
    return _graph_from_rule(verts, lambda x, y: qt[x ^ y] ^ qt[x] ^ qt[y] == want, label)


def _no_gf4(n, keep, complemented, label):
    # Counts below include the zero vector.  Let nu be the nucleus of the
    # parabolic form on GF(q)^(2n+1), q even (the radical of its polar form).
    # A hyperplane through nu has q^(2n-1) singular vectors; one missing nu
    # carries a nondegenerate polar form, so it is hyperbolic or elliptic and
    # its count tells which.  Two hyperplanes missing nu meet in W, a
    # hyperplane of a nondegenerate alternating 2n-space, so W has a
    # 1-dimensional polar radical <r>.  If q(r) != 0, W is parabolic with
    # q^(2n-2) singular vectors.  If q(r) = 0, then W = <r> + U with U
    # nondegenerate of dimension 2n-2 and q(tr + u) = q(u), so W has q times
    # the count of U: q^(2n-2) +- (q^n - q^(n-1)), never q^(2n-2).  So the
    # popcount of a & b decides degeneracy exactly.
    q = 4
    sp = standard_space(q, 2 * n + 1, "parabolic")
    masks = sp.hyperplane_singular_masks()
    kinds = {standard_singular_count(q, 2 * n, k) + 1: k for k in ("plus", "minus")}
    tangent = q ** (2 * n - 1)
    for m in masks:
        c = m.bit_count()
        if c not in kinds and c != tangent:
            raise ValueError("hyperplane with %d singular vectors fits no class" % c)
    hps = [m for m in masks if kinds.get(m.bit_count()) == keep]
    parabolic = standard_singular_count(q, 2 * n - 1, "parabolic") + 1
    gap = q**n - q ** (n - 1)
    allowed = {parabolic, parabolic + gap, parabolic - gap}

    def adj(a, b):
        c = (a & b).bit_count()
        if c not in allowed:
            raise ValueError("intersection with %d singular vectors fits no class" % c)
        return (c == parabolic) == complemented

    return _graph_from_rule(hps, adj, label)


def _vo(n, kind, complemented, label):
    sp = standard_space(2, 2 * n, kind)
    qt = sp.q_table()
    verts = list(range(4**n))
    want_zero = not complemented
    return _graph_from_rule(
        verts, lambda x, y: (qt[x ^ y] == 0) == want_zero, label
    )


def _sp_gf2(n, label):
    # the polar form of the hyperbolic quadric is the symplectic form
    sp = standard_space(2, 2 * n, "plus")
    qt = sp.q_table()
    verts = list(range(1, 4**n))
    return _graph_from_rule(verts, lambda x, y: qt[x ^ y] ^ qt[x] ^ qt[y] == 0, label)


def _o_polar_gf2(n, kind, label):
    sp = standard_space(2, 2 * n, kind)
    qt = sp.q_table()
    verts = [x for x in range(1, 4**n) if qt[x] == 0]
    return _graph_from_rule(verts, lambda x, y: qt[x ^ y] == 0, label)


def _paley(q, label):
    f = field(q)
    sq = f.squares()
    assert f.neg(1) in sq  # q = 1 mod 4 makes the difference graph undirected
    return _graph_from_rule(list(range(q)), lambda x, y: f.sub(x, y) in sq, label)


def _peisert(q, label):
    f = field(q)
    conn = set()
    x = 1
    for j in range(q - 1):
        if j % 4 in (0, 1):
            conn.add(x)
        x = f.mul(x, f.g)
    assert f.neg(1) in conn  # -1 = g^((q-1)/2) with (q-1)/2 = 0 mod 4
    return _graph_from_rule(list(range(q)), lambda x, y: f.sub(x, y) in conn, label)


def _triangular(n, label):
    verts = list(combinations(range(n), 2))
    return _graph_from_rule(verts, lambda a, b: bool(set(a) & set(b)), label)


def _lattice(m, label):
    verts = [(i, j) for i in range(m) for j in range(m)]
    return _graph_from_rule(
        verts, lambda a, b: a[0] == b[0] or a[1] == b[1], label
    )


def fano_flags():
    "points 0..6, lines {i, i+1, i+3} mod 7, and the 21 incident pairs"
    points = list(range(7))
    lines = [frozenset({i, (i + 1) % 7, (i + 3) % 7}) for i in range(7)]
    for l1, l2 in combinations(lines, 2):
        assert len(l1 & l2) == 1
    flags = [(p, l) for l in lines for p in sorted(l)]
    assert len(flags) == 21
    for p in points:
        assert sum(1 for l in lines if p in l) == 3
    return points, lines, flags


def _g2_comp(label):
    points, lines, flags = fano_flags()
    verts = (
        [("inf",)]
        + [("pt", p) for p in points]
        + [("ln", i) for i in range(7)]
        + [("fl", i) for i in range(21)]
    )

    def adj(u, w):
        if u[0] > w[0]:
            u, w = w, u
        # kinds sort as fl < inf < ln < pt
        if (u[0], w[0]) == ("fl", "fl"):
            (p1, l1), (p2, l2) = flags[u[1]], flags[w[1]]
            if p1 == p2 or l1 == l2:
                return True
            return p1 not in l2 and p2 not in l1
        if (u[0], w[0]) == ("fl", "inf"):
            return True
        if (u[0], w[0]) == ("fl", "ln"):
            return flags[u[1]][0] not in lines[w[1]]
        if (u[0], w[0]) == ("fl", "pt"):
            return w[1] not in flags[u[1]][1]
        if (u[0], w[0]) == ("ln", "pt"):
            return w[1] in lines[u[1]]
        # inf-ln, inf-pt are non-edges; pt-pt and ln-ln are cliques
        return u[0] == w[0]

    return _graph_from_rule(verts, adj, label)


def _poly_gcd_gf2(a, b):
    while b:
        da, db = a.bit_length(), b.bit_length()
        if da < db:
            a, b = b, a
            continue
        a ^= b << (da - db)
    return a


def golay_heptads():
    "weight-7 words of the length-23 quadratic-residue code, as frozensets"
    qr = {pow(x, 2, 23) for x in range(1, 23)}
    theta = sum(1 << r for r in qr)
    gen = _poly_gcd_gf2((1 << 23) | 1, theta)
    assert gen.bit_length() - 1 == 11, "wrong generator degree"
    words = {0}
    for i in range(12):
        b = gen << i
        words |= {w ^ b for w in words}
    assert len(words) == 4096
    heptads = sorted(w for w in words if w.bit_count() == 7)
    assert len(heptads) == 253
    cover = {}
    for w in heptads:
        pts = [i for i in range(23) if (w >> i) & 1]
        for four in combinations(pts, 4):
            assert four not in cover, "4-set covered twice"
            cover[four] = w
    assert len(cover) == 8855  # C(23, 4): a Steiner system S(4, 7, 23)
    return [frozenset(i for i in range(23) if (w >> i) & 1) for w in heptads]


def _m22_comp(label):
    blocks = [h for h in golay_heptads() if 0 not in h]
    assert len(blocks) == 176
    pair_counts = {}
    for b in blocks:
        for two in combinations(sorted(b), 2):
            pair_counts[two] = pair_counts.get(two, 0) + 1
    assert set(pair_counts.values()) == {16}  # 2-(22, 7, 16) design
    for b1, b2 in combinations(blocks, 2):
        assert len(b1 & b2) in (1, 3)
    return _graph_from_rule(blocks, lambda a, b: len(a & b) == 3, label)


def _check_prime_power(q):
    f = field(q)  # raises if q is not a prime power
    return f


def _check_paley_size(q):
    if q % 4 != 1:
        raise ValueError("Paley needs q = 1 mod 4")
    _check_prime_power(q)


def _check_peisert_size(q):
    f = _check_prime_power(q)
    if f.p % 4 != 3 or f.e % 2:
        raise ValueError("Peisert needs q = p^(2t) with p = 3 mod 4")


def _mins(lo):
    def check(n):
        if n < lo:
            raise ValueError("size must be at least %d" % lo)

    return check


FAMILIES = {
    "NOplus2n_2": dict(needs_size=True, check_size=_mins(3), table=3),
    "NOminus2n_2_comp": dict(needs_size=True, check_size=_mins(2), table=3),
    "NOplusOdd_4": dict(needs_size=True, check_size=_mins(1), table=3),
    "NOminusOdd_4_comp": dict(needs_size=True, check_size=_mins(2), table=3),
    "VOplus": dict(needs_size=True, check_size=_mins(2), table=3),
    "VOminus_comp": dict(needs_size=True, check_size=_mins(2), table=3),
    "G2_2_comp": dict(needs_size=False, check_size=None, table=3),
    "M22_comp": dict(needs_size=False, check_size=None, table=3),
    "Paley": dict(needs_size=True, check_size=_check_paley_size, table=4),
    "Peisert": dict(needs_size=True, check_size=_check_peisert_size, table=4),
    "Triangular": dict(needs_size=True, check_size=_mins(5), table=0),
    "Lattice": dict(needs_size=True, check_size=_mins(3), table=0),
    "Sp2n_2": dict(needs_size=True, check_size=_mins(2), table=4),
    "Oplus2n_2": dict(needs_size=True, check_size=_mins(2), table=4),
    "Ominus2n_2": dict(needs_size=True, check_size=_mins(3), table=4),
}

FAMILY_IDS = tuple(FAMILIES)


def build(spec, size=None):
    "build a family member and certify its parameters; mismatches raise"
    if isinstance(spec, str):
        spec = FamilySpec(spec, size)
    want = expected_params(spec.family, spec.size)
    cap = effective_bound(BUILD_VERTEX_BOUND)
    if want.v > cap:
        raise ValueError("%d vertices exceeds the build bound %d" % (want.v, cap))
    label = spec.family if spec.size is None else "%s:%d" % (spec.family, spec.size)
    n = spec.size
    if spec.family == "NOplus2n_2":
        g = _no_gf2(n, "plus", False, label)
    elif spec.family == "NOminus2n_2_comp":
        g = _no_gf2(n, "minus", True, label)
    elif spec.family == "NOplusOdd_4":
        g = _no_gf4(n, "plus", False, label)
    elif spec.family == "NOminusOdd_4_comp":
        g = _no_gf4(n, "minus", True, label)
    elif spec.family == "VOplus":
        g = _vo(n, "plus", False, label)
    elif spec.family == "VOminus_comp":
        g = _vo(n, "minus", True, label)
    elif spec.family == "G2_2_comp":
        g = _g2_comp(label)
    elif spec.family == "M22_comp":
        g = _m22_comp(label)
    elif spec.family == "Paley":
        g = _paley(n, label)
    elif spec.family == "Peisert":
        g = _peisert(n, label)
    elif spec.family == "Triangular":
        g = _triangular(n, label)
    elif spec.family == "Lattice":
        g = _lattice(n, label)
    elif spec.family == "Sp2n_2":
        g = _sp_gf2(n, label)
    elif spec.family == "Oplus2n_2":
        g = _o_polar_gf2(n, "plus", label)
    elif spec.family == "Ominus2n_2":
        g = _o_polar_gf2(n, "minus", label)
    else:
        raise ValueError("unknown family: %r" % (spec.family,))
    got = srg_params(g)
    assert got == want, "%s built (%d,%d,%d,%d), expected (%d,%d,%d,%d)" % (
        (label,) + got.as_tuple() + want.as_tuple()
    )
    return g


def family_info():
    "registry rows for the CLI: id, whether a size is needed, table membership"
    out = []
    for fid, info in FAMILIES.items():
        out.append(
            {"family": fid, "needs_size": info["needs_size"], "table": info["table"]}
        )
    return out
