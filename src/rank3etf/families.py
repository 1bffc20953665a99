"""
Builders for the graph families, each self-validating against closed-form
parameters.

FAMILIES is the one place a family is declared.  Its row holds check_size
(raises ValueError on a size outside the family's range; None for a family
that takes no size), table (the report table listing it, 0 for none),
params (the closed-form SrgParams at size n), build (the boolean
adjacency array at size n, its diagonal ignored) and, on the rows whose
size check or closed form is costly for a huge size, max_size (the largest
size whose graph can have at most cap vertices, as a function of cap: cap
itself where v = q, and one less than the bit length of cap on the q^n rows,
where v >= 2^n).  expected_params and build are lookups behind one size
check; build first refuses a size above max_size(build bound), then
clears the diagonal, hands the array to a Graph labelled "family:n" and
certifies it against params.  A mismatch with params raises, it is never a
warning.

Each builder is one whole-array rule over the enumeration order of its
object, so builds are deterministic: the polar form B of a char-2
quadratic space on its nonsingular or singular vectors (x ~ y iff
B(x, y) = 0, "_comp": B != 0), or the form q on a whole space (q(x + y)
= 0, "_comp": nonzero); popcounts of ANDed singular-vector masks for the
GF(4) hyperplanes (a degenerate meet, "_comp": nondegenerate, by the
count rule proved in _no_gf4); differences x - y, read off the field's
table of them, in a connection set read off its power table (the even
powers g^j, or those with j = 0, 1 mod 4); incidence products or block
assignments for 2-subsets, grids and Fano flags; and popcounts of ANDed
words for the heptads, the weight-7 rows of the 0/1 array of the 4096 words
of the binary quadratic-residue code of length 23.
"""

import numpy as np

from .bounds import BUILD_VERTEX_BOUND, effective_bound
from .fields import field, prime_power
from .graphs import Graph, SrgParams, and_counts, pack_words, srg_params
from .quadspaces import polar_values, standard_singular_count, standard_space


# -- builders ------------------------------------------------------------------


def _polar_gf2(n, kind, q_values, polar):
    "nonzero x in GF(2)^2n with q(x) in q_values; x ~ y iff B(x, y) = polar"
    qt = standard_space(2, 2 * n, kind).q_table()
    verts = np.flatnonzero(np.isin(qt[1:], q_values)) + 1
    return polar_values(qt, verts, verts) == polar


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
    words = sp.hyperplane_singular_masks()  # the bits index the singular vectors
    counts = np.bitwise_count(words).sum(axis=1)
    kinds = {k: standard_singular_count(q, 2 * n, k) + 1 for k in ("plus", "minus")}
    bad = counts[~np.isin(counts, [*kinds.values(), q ** (2 * n - 1)])]  # the last: through nu
    if len(bad):
        raise ValueError("hyperplane with %d singular vectors fits no class" % bad[0])
    meets = and_counts(words[counts == kinds[keep]])
    parabolic = standard_singular_count(q, 2 * n - 1, "parabolic") + 1
    gap = q**n - q ** (n - 1)
    fits = (meets == parabolic) | (meets == parabolic + gap) | (meets == parabolic - gap)
    bad = meets[np.triu(~fits, 1)]  # row-major, so bad[0] is the first pair's count
    if len(bad):
        raise ValueError("intersection with %d singular vectors fits no class" % bad[0])
    return (meets == parabolic) == complemented


def _vo(n, kind, complemented):
    "all of GF(2)^2n; x ~ y iff q(x + y) = 0, or != 0 when complemented"
    qt = standard_space(2, 2 * n, kind).q_table()
    xs = np.arange(4**n)
    return (qt[xs[:, None] ^ xs] == 0) != complemented


def _cayley(f, conn):
    "x ~ y iff x - y lies in conn, an array of elements"
    in_conn = np.zeros(f.q, dtype=bool)
    in_conn[conn] = True
    return in_conn[f.sub_table()]


def _paley(q):
    f = field(q)
    a = _cayley(f, f.powers()[::2])  # q is odd, so the squares are the even powers of g
    if not a[0, 1]:  # -1 = 0 - 1; q = 1 mod 4 makes the difference graph undirected
        raise ValueError("-1 is not a square in GF(%d): Paley needs q = 1 mod 4" % q)
    return a


def _peisert(q):
    # x ~ y iff x - y = g^j with j = 0, 1 mod 4: the set is closed under negation,
    # and so the graph undirected, iff -1 = g^((q-1)/2) has (q-1)/2 = 0 mod 4
    if (q - 1) % 8:
        raise ValueError("the Peisert connection set of GF(%d) is not symmetric" % q)
    f = field(q)
    return _cayley(f, f.powers()[np.arange(q - 1) % 4 < 2])


def _triangular(n):
    "2-subsets of range(n) in lexicographic order, adjacent iff they meet"
    i, j = np.triu_indices(n, 1)
    b = (i[:, None] == np.arange(n)) | (j[:, None] == np.arange(n))  # subsets x points
    return b @ b.T


def _lattice(m):
    "cells (i, j) in row-major order, adjacent iff they share a row or a column"
    i, j = np.divmod(np.arange(m * m), m)
    b = np.hstack([i[:, None] == np.arange(m), j[:, None] == np.arange(m)])  # cells x lines
    return b @ b.T


def fano_flags():
    "points 0..6, lines {i, i+1, i+3} mod 7, and the 21 incident pairs"
    points = list(range(7))
    lines = [frozenset({i, (i + 1) % 7, (i + 3) % 7}) for i in range(7)]
    inc = np.array([[p in l for p in points] for l in lines], dtype=np.int64)
    meets = inc @ inc.T
    np.fill_diagonal(meets, 1)
    if (meets != 1).any():
        raise ValueError("two Fano lines do not meet in one point")
    if (inc.sum(axis=0) != 3).any():  # so there are 7 * 3 = 21 flags
        raise ValueError("a Fano point is not on three lines")
    return points, lines, [(p, l) for l in lines for p in sorted(l)]


_PT, _LN, _FG = slice(1, 8), slice(8, 15), slice(15, 36)  # G2(2) vertices after inf


def _g2_comp():
    """inf, the 7 points, the 7 lines, the 21 flags (p, l); inf ~ flags, points and
    lines are cliques, p ~ l iff p is on l, (p, l) ~ the points off l and the lines
    missing p, and two flags iff they share p or l or neither's p is on the other's l"""
    points, lines, flags = fano_flags()
    inc = np.array([[p in l for l in lines] for p in points])  # [point, line]
    fp = np.array([p for p, _ in flags])
    fl = np.array([lines.index(l) for _, l in flags])
    a = np.zeros((36, 36), dtype=bool)
    a[_PT, _PT] = a[_LN, _LN] = a[0, _FG] = True
    a[_PT, _LN] = inc
    a[_PT, _FG] = ~inc[:, fl]
    a[_LN, _FG] = ~inc[fp].T
    on = inc[fp[:, None], fl]  # the point of flag f is on the line of flag g
    a[_FG, _FG] = (fp[:, None] == fp) | (fl[:, None] == fl) | ~(on | on.T)
    return a | a.T


def _poly_gcd_gf2(a, b):
    while b:
        da, db = a.bit_length(), b.bit_length()
        if da < db:
            a, b = b, a
            continue
        a ^= b << (da - db)
    return a


def golay_heptads():
    """the 253 weight-7 words of the length-23 quadratic-residue code, as a
    (253, 23) uint8 0/1 array, bit i of word w at [w, i], rows in integer order"""
    qr = np.arange(1, 23) ** 2 % 23  # the nonzero squares mod 23, each twice
    gen = _poly_gcd_gf2((1 << 23) | 1, int(np.bitwise_or.reduce(1 << qr)))
    if gen.bit_length() - 1 != 11:
        raise ValueError("generator of degree %d, expected 11" % (gen.bit_length() - 1))
    # the 12 shifts of a degree-11 generator have distinct leading bits, so
    # these 12 doublings span 4096 distinct code words
    row = (gen >> np.arange(23) & 1).astype(np.uint8)
    words = np.zeros((1, 23), dtype=np.uint8)
    for i in range(12):
        words = np.concatenate([words, words ^ np.roll(row, i)])
    h = words[words.sum(axis=1) == 7]
    if len(h) != 253:
        raise ValueError("%d weight-7 words, expected 253" % len(h))
    h = h[np.lexsort(h.T)]  # the last key, bit 22, is the primary one: integer order
    # 253 C(7, 4) = C(23, 4), so heptads meeting pairwise in at most 3 points
    # cover every 4-set exactly once: a Steiner system S(4, 7, 23)
    meets = and_counts(pack_words(h))
    np.fill_diagonal(meets, 0)
    if meets.max() > 3:
        raise ValueError("two heptads share a 4-set")
    return h


def _m22_comp():
    "the 176 heptads missing point 0, adjacent iff they meet in 3 points"
    h = golay_heptads()
    b = h[h[:, 0] == 0, 1:]  # blocks x points 1..22
    if len(b) != 176:
        raise ValueError("%d blocks, expected 176" % len(b))
    pairs = and_counts(pack_words(b.T))  # blocks through two points
    meets = and_counts(pack_words(b))  # points on two blocks
    np.fill_diagonal(pairs, 16)
    np.fill_diagonal(meets, 1)
    if (pairs != 16).any():  # 2-(22, 7, 16) design
        raise ValueError("blocks are not a 2-(22, 7, 16) design")
    if ((meets != 1) & (meets != 3)).any():
        raise ValueError("two blocks meet in neither 1 nor 3 points")
    return meets == 3


# the size checks factor q but build no field; build bounds q before either
def _check_paley_size(q):
    if q % 4 != 1:
        raise ValueError("Paley needs q = 1 mod 4")
    prime_power(q)  # raises if q is not a prime power


def _check_peisert_size(q):
    p, e = prime_power(q)  # raises if q is not a prime power
    if p % 4 != 3 or e % 2:
        raise ValueError("Peisert needs q = p^(2t) with p = 3 mod 4")


def _mins(lo):
    def check(n):
        if n < lo:
            raise ValueError("size must be at least %d" % lo)

    return check


def _q_max_size(cap):
    return cap  # v = q


def _power_max_size(cap):
    return cap.bit_length() - 1  # v >= 2^n > cap once n >= cap.bit_length()


def _paley_params(q):
    return SrgParams(q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4)


FAMILIES = {
    "NOplus2n_2": dict(
        check_size=_mins(3), table=3, build=lambda n: _polar_gf2(n, "plus", (1,), 0),
        max_size=_power_max_size,
        params=lambda n: SrgParams(
            2 ** (n - 1) * (2**n - 1),
            2 ** (2 * n - 2) - 1,
            2 ** (2 * n - 3) - 2,
            2 ** (n - 2) * (2 ** (n - 1) + 1),
        ),
    ),
    "NOminus2n_2_comp": dict(
        check_size=_mins(2), table=3, build=lambda n: _polar_gf2(n, "minus", (1,), 1),
        max_size=_power_max_size,
        params=lambda n: SrgParams(
            2 ** (n - 1) * (2**n + 1),
            2 ** (n - 1) * (2 ** (n - 1) + 1),
            2 ** (n - 2) * (2 ** (n - 1) + 1),
            2 ** (n - 1) * (2 ** (n - 2) + 1),
        ),
    ),
    "NOplusOdd_4": dict(
        check_size=_mins(1), table=3, build=lambda n: _no_gf4(n, "plus", False),
        max_size=_power_max_size,
        params=lambda n: SrgParams(
            4**n * (4**n + 1) // 2,
            (4 ** (n - 1) + 1) * (4**n - 1),
            (4 ** (n - 1) + 2) * (4**n - 2) // 2,
            4**n * (4 ** (n - 1) + 1) // 2,
        ),
    ),
    "NOminusOdd_4_comp": dict(
        check_size=_mins(2), table=3, build=lambda n: _no_gf4(n, "minus", True),
        max_size=_power_max_size,
        params=lambda n: SrgParams(
            4**n * (4**n - 1) // 2,
            4 ** (n - 1) * (4**n + 1),
            4**n * (4 ** (n - 1) + 1) // 2,
            4 ** (n - 1) * (4**n + 2) // 2,
        ),
    ),
    "VOplus": dict(
        check_size=_mins(2), table=3, build=lambda n: _vo(n, "plus", False),
        max_size=_power_max_size,
        params=lambda n: SrgParams(
            4**n,
            (2 ** (n - 1) + 1) * (2**n - 1),
            (2 ** (n - 1) + 2) * (2 ** (n - 1) - 1),
            2 ** (n - 1) * (2 ** (n - 1) + 1),
        ),
    ),
    "VOminus_comp": dict(
        check_size=_mins(2), table=3, build=lambda n: _vo(n, "minus", True),
        max_size=_power_max_size,
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
        check_size=_check_paley_size, table=4, build=_paley, params=_paley_params,
        max_size=_q_max_size,
    ),
    "Peisert": dict(
        check_size=_check_peisert_size, table=4, build=_peisert, params=_paley_params,
        max_size=_q_max_size,
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
        max_size=_power_max_size,
        params=lambda n: SrgParams(
            4**n - 1, 2 ** (2 * n - 1) - 2, 2 ** (2 * n - 2) - 3, 2 ** (2 * n - 2) - 1
        ),
    ),
    # polar graphs of O+-(2n, q) at q = 2, upper signs for O+:
    # lambda = q^2 (q^(n-3) +- 1)(q^(n-2) -+ 1) / (q - 1) + q - 1
    "Oplus2n_2": dict(
        check_size=_mins(2), table=4, build=lambda n: _polar_gf2(n, "plus", (0,), 0),
        max_size=_power_max_size,
        params=lambda n: SrgParams(
            2 ** (2 * n - 1) + 2 ** (n - 1) - 1,
            2 * (2 ** (n - 2) + 1) * (2 ** (n - 1) - 1),
            (2 ** (n - 1) + 4) * (2 ** (n - 2) - 1) + 1,
            (2 ** (n - 2) + 1) * (2 ** (n - 1) - 1),
        ),
    ),
    "Ominus2n_2": dict(
        check_size=_mins(3), table=4, build=lambda n: _polar_gf2(n, "minus", (0,), 0),
        max_size=_power_max_size,
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
    max_size = FAMILIES.get(family, {}).get("max_size")
    cap = effective_bound(BUILD_VERTEX_BOUND)
    if max_size is not None and size is not None and size > max_size(cap):
        # before the size check factors q or a closed form evaluates 4**n
        raise ValueError("%s %d has more than %d vertices, the build bound" % (family, size, cap))
    want = expected_params(family, size)
    if want.v > cap:
        raise ValueError("%d vertices exceeds the build bound %d" % (want.v, cap))
    a = FAMILIES[family]["build"](size)
    np.fill_diagonal(a, False)
    g = Graph.from_adjacency(a, family if size is None else "%s:%d" % (family, size))
    del a  # the graph holds its own copy; free this one before srg_params
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
