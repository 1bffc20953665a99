"""
Builders for the graph families, each self-validating against closed-form
parameters.

FAMILIES is the one place a family is declared.  Its row holds check_size
(raises ValueError on a size outside the family's range; None for a family
that takes no size), table (the report table listing it, 0 for none),
params (the closed-form SrgParams at size n) and build (the graph at size
n).  expected_params and build are lookups behind one size check; build
labels the graph "family:n" and certifies it against params.

Vertex sets come from the packed tables of char-2 quadratic spaces
(nonsingular vectors, singular vectors, hyperplanes of a given type, or
whole vector spaces), from finite fields (difference graphs on square
classes or on the exponent classes j = 0, 1 mod 4 of a fixed primitive
element), from small combinatorics (2-subsets, grids, Fano flags), or from
the weight-7 words of the binary quadratic-residue code of length 23.
A mismatch with params raises, it is never a warning.

Adjacency conventions: orthogonality families join distinct vectors with
B(x, y) = 0 (their "_comp" variants join on B != 0); hyperplane families
over GF(4) join hyperplanes whose intersection is degenerate ("_comp":
nondegenerate), read off the popcount of the AND of their singular-vector
masks by the count rule proved in _no_gf4; affine families join x, y with
q(x + y) = 0 ("_comp": nonzero).  Vertex order is the enumeration order of
the underlying object, so builds are deterministic.
"""

from itertools import combinations

from .bounds import effective_bound
from .fields import field
from .graphs import Graph, SrgParams, srg_params
from .quadspaces import standard_singular_count, standard_space

BUILD_VERTEX_BOUND = 1000


# -- builders ------------------------------------------------------------------


def _graph_from_rule(verts, adj):
    edges = [
        (i, j) for i in range(len(verts)) for j in range(i + 1, len(verts))
        if adj(verts[i], verts[j])
    ]
    return Graph(len(verts), edges)


def _polar_gf2(n, kind, q_values, polar):
    "nonzero x in GF(2)^2n with q(x) in q_values; x ~ y iff B(x, y) = polar"
    sp = standard_space(2, 2 * n, kind)
    qt = sp.q_table()
    verts = [x for x in range(1, 4**n) if qt[x] in q_values]
    return _graph_from_rule(verts, lambda x, y: qt[x ^ y] ^ qt[x] ^ qt[y] == polar)


def _no_gf4(n, keep, complemented):
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

    return _graph_from_rule(hps, adj)


def _vo(n, kind, complemented):
    sp = standard_space(2, 2 * n, kind)
    qt = sp.q_table()
    verts = list(range(4**n))
    want_zero = not complemented
    return _graph_from_rule(verts, lambda x, y: (qt[x ^ y] == 0) == want_zero)


def _paley(q):
    f = field(q)
    sq = f.squares()
    if f.neg(1) not in sq:  # q = 1 mod 4 makes the difference graph undirected
        raise ValueError("-1 is not a square in GF(%d): Paley needs q = 1 mod 4" % q)
    return _graph_from_rule(list(range(q)), lambda x, y: f.sub(x, y) in sq)


def _peisert(q):
    f = field(q)
    conn = set()
    x = 1
    for j in range(q - 1):
        if j % 4 in (0, 1):
            conn.add(x)
        x = f.mul(x, f.g)
    if f.neg(1) not in conn:  # -1 = g^((q-1)/2) with (q-1)/2 = 0 mod 4
        raise ValueError("-1 is outside the Peisert connection set of GF(%d)" % q)
    return _graph_from_rule(list(range(q)), lambda x, y: f.sub(x, y) in conn)


def _triangular(n):
    verts = list(combinations(range(n), 2))
    return _graph_from_rule(verts, lambda a, b: bool(set(a) & set(b)))


def _lattice(m):
    verts = [(i, j) for i in range(m) for j in range(m)]
    return _graph_from_rule(verts, lambda a, b: a[0] == b[0] or a[1] == b[1])


def fano_flags():
    "points 0..6, lines {i, i+1, i+3} mod 7, and the 21 incident pairs"
    points = list(range(7))
    lines = [frozenset({i, (i + 1) % 7, (i + 3) % 7}) for i in range(7)]
    if any(len(l1 & l2) != 1 for l1, l2 in combinations(lines, 2)):
        raise ValueError("two Fano lines do not meet in one point")
    flags = [(p, l) for l in lines for p in sorted(l)]
    if len(flags) != 21:
        raise ValueError("%d Fano flags, expected 21" % len(flags))
    if any(sum(1 for l in lines if p in l) != 3 for p in points):
        raise ValueError("a Fano point is not on three lines")
    return points, lines, flags


def _g2_comp():
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

    return _graph_from_rule(verts, adj)


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
    if gen.bit_length() - 1 != 11:
        raise ValueError("generator of degree %d, expected 11" % (gen.bit_length() - 1))
    words = {0}
    for i in range(12):
        b = gen << i
        words |= {w ^ b for w in words}
    if len(words) != 4096:
        raise ValueError("%d code words, expected 4096" % len(words))
    heptads = sorted(w for w in words if w.bit_count() == 7)
    if len(heptads) != 253:
        raise ValueError("%d weight-7 words, expected 253" % len(heptads))
    cover = {}
    for w in heptads:
        pts = [i for i in range(23) if (w >> i) & 1]
        for four in combinations(pts, 4):
            if four in cover:
                raise ValueError("4-set %r covered twice" % (four,))
            cover[four] = w
    if len(cover) != 8855:  # C(23, 4): a Steiner system S(4, 7, 23)
        raise ValueError("heptads cover %d 4-sets, expected 8855" % len(cover))
    return [frozenset(i for i in range(23) if (w >> i) & 1) for w in heptads]


def _m22_comp():
    blocks = [h for h in golay_heptads() if 0 not in h]
    if len(blocks) != 176:
        raise ValueError("%d blocks, expected 176" % len(blocks))
    pair_counts = {}
    for b in blocks:
        for two in combinations(sorted(b), 2):
            pair_counts[two] = pair_counts.get(two, 0) + 1
    if set(pair_counts.values()) != {16}:  # 2-(22, 7, 16) design
        raise ValueError("blocks are not a 2-(22, 7, 16) design")
    if any(len(b1 & b2) not in (1, 3) for b1, b2 in combinations(blocks, 2)):
        raise ValueError("two blocks meet in neither 1 nor 3 points")
    return _graph_from_rule(blocks, lambda a, b: len(a & b) == 3)


def _check_paley_size(q):
    if q % 4 != 1:
        raise ValueError("Paley needs q = 1 mod 4")
    field(q)  # raises if q is not a prime power


def _check_peisert_size(q):
    f = field(q)  # raises if q is not a prime power
    if f.p % 4 != 3 or f.e % 2:
        raise ValueError("Peisert needs q = p^(2t) with p = 3 mod 4")


def _mins(lo):
    def check(n):
        if n < lo:
            raise ValueError("size must be at least %d" % lo)

    return check


def _paley_params(q):
    return SrgParams(q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4)


FAMILIES = {
    "NOplus2n_2": dict(
        check_size=_mins(3), table=3, build=lambda n: _polar_gf2(n, "plus", (1,), 0),
        params=lambda n: SrgParams(
            2 ** (n - 1) * (2**n - 1),
            2 ** (2 * n - 2) - 1,
            2 ** (2 * n - 3) - 2,
            2 ** (n - 2) * (2 ** (n - 1) + 1),
        ),
    ),
    "NOminus2n_2_comp": dict(
        check_size=_mins(2), table=3, build=lambda n: _polar_gf2(n, "minus", (1,), 1),
        params=lambda n: SrgParams(
            2 ** (n - 1) * (2**n + 1),
            2 ** (n - 1) * (2 ** (n - 1) + 1),
            2 ** (n - 2) * (2 ** (n - 1) + 1),
            2 ** (n - 1) * (2 ** (n - 2) + 1),
        ),
    ),
    "NOplusOdd_4": dict(
        check_size=_mins(1), table=3, build=lambda n: _no_gf4(n, "plus", False),
        params=lambda n: SrgParams(
            4**n * (4**n + 1) // 2,
            (4 ** (n - 1) + 1) * (4**n - 1),
            (4 ** (n - 1) + 2) * (4**n - 2) // 2,
            4**n * (4 ** (n - 1) + 1) // 2,
        ),
    ),
    "NOminusOdd_4_comp": dict(
        check_size=_mins(2), table=3, build=lambda n: _no_gf4(n, "minus", True),
        params=lambda n: SrgParams(
            4**n * (4**n - 1) // 2,
            4 ** (n - 1) * (4**n + 1),
            4**n * (4 ** (n - 1) + 1) // 2,
            4 ** (n - 1) * (4**n + 2) // 2,
        ),
    ),
    "VOplus": dict(
        check_size=_mins(2), table=3, build=lambda n: _vo(n, "plus", False),
        params=lambda n: SrgParams(
            4**n,
            (2 ** (n - 1) + 1) * (2**n - 1),
            (2 ** (n - 1) + 2) * (2 ** (n - 1) - 1),
            2 ** (n - 1) * (2 ** (n - 1) + 1),
        ),
    ),
    "VOminus_comp": dict(
        check_size=_mins(2), table=3, build=lambda n: _vo(n, "minus", True),
        params=lambda n: SrgParams(
            4**n,
            2 ** (n - 1) * (2**n + 1),
            2 ** (n - 1) * (2 ** (n - 1) + 1),
            2 ** (n - 1) * (2 ** (n - 1) + 1),
        ),
    ),
    "G2_2_comp": dict(
        check_size=None, table=3, build=lambda n: _g2_comp(),
        params=lambda n: SrgParams(36, 21, 12, 12),
    ),
    "M22_comp": dict(
        check_size=None, table=3, build=lambda n: _m22_comp(),
        params=lambda n: SrgParams(176, 105, 68, 54),
    ),
    "Paley": dict(
        check_size=_check_paley_size, table=4, build=_paley, params=_paley_params
    ),
    "Peisert": dict(
        check_size=_check_peisert_size, table=4, build=_peisert, params=_paley_params
    ),
    "Triangular": dict(
        check_size=_mins(5), table=0, build=_triangular,
        params=lambda n: SrgParams(n * (n - 1) // 2, 2 * (n - 2), n - 2, 4),
    ),
    "Lattice": dict(
        check_size=_mins(3), table=0, build=_lattice,
        params=lambda n: SrgParams(n * n, 2 * (n - 1), n - 2, 2),
    ),
    "Sp2n_2": dict(
        # the polar form of the hyperbolic quadric is the symplectic form
        check_size=_mins(2), table=4, build=lambda n: _polar_gf2(n, "plus", (0, 1), 0),
        params=lambda n: SrgParams(
            4**n - 1, 2 ** (2 * n - 1) - 2, 2 ** (2 * n - 2) - 3, 2 ** (2 * n - 2) - 1
        ),
    ),
    # polar graphs of O+-(2n, q) at q = 2, upper signs for O+:
    # lambda = q^2 (q^(n-3) +- 1)(q^(n-2) -+ 1) / (q - 1) + q - 1
    "Oplus2n_2": dict(
        check_size=_mins(2), table=4, build=lambda n: _polar_gf2(n, "plus", (0,), 0),
        params=lambda n: SrgParams(
            2 ** (2 * n - 1) + 2 ** (n - 1) - 1,
            2 * (2 ** (n - 2) + 1) * (2 ** (n - 1) - 1),
            (2 ** (n - 1) + 4) * (2 ** (n - 2) - 1) + 1,
            (2 ** (n - 2) + 1) * (2 ** (n - 1) - 1),
        ),
    ),
    "Ominus2n_2": dict(
        check_size=_mins(3), table=4, build=lambda n: _polar_gf2(n, "minus", (0,), 0),
        params=lambda n: SrgParams(
            (2 ** (n - 1) - 1) * (2**n + 1),
            2 * (2 ** (n - 2) - 1) * (2 ** (n - 1) + 1),
            (2 ** (n - 1) - 4) * (2 ** (n - 2) + 1) + 1,
            (2 ** (n - 2) - 1) * (2 ** (n - 1) + 1),
        ),
    ),
}

FAMILY_IDS = tuple(FAMILIES)


def expected_params(family, size=None):
    "closed-form (v, k, lambda, mu) for the family, once size passes its check"
    row = FAMILIES.get(family)
    if row is None:
        raise ValueError("unknown family %r (options: %s)" % (family, ", ".join(FAMILIES)))
    if row["check_size"] is None:
        if size is not None:
            raise ValueError("family %s takes no size argument" % family)
    elif size is None:
        raise ValueError("family %s needs a size argument" % family)
    else:
        row["check_size"](size)
    return row["params"](size)


def build(family, size=None):
    "build a family member and certify its parameters; mismatches raise"
    want = expected_params(family, size)
    cap = effective_bound(BUILD_VERTEX_BOUND)
    if want.v > cap:
        raise ValueError("%d vertices exceeds the build bound %d" % (want.v, cap))
    g = FAMILIES[family]["build"](size)
    g.label = family if size is None else "%s:%d" % (family, size)
    got = srg_params(g)
    if got != want:
        raise ValueError("%s built (%d,%d,%d,%d), expected (%d,%d,%d,%d)" % (
            (g.label,) + got.as_tuple() + want.as_tuple()
        ))
    return g


def family_info():
    "registry rows for the CLI: id, whether a size is needed, table membership"
    out = []
    for fid, row in FAMILIES.items():
        out.append(
            {"family": fid, "needs_size": row["check_size"] is not None, "table": row["table"]}
        )
    return out
