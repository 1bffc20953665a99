"""
Two-graphs, regularity, descendants, and the switching-equivalence decision.

The blocks of the two-graph of a graph are the vertex triples spanning an
odd number of edges; from a Gram matrix the sign graph (edge iff negative
inner product) is taken first, which matches the obtuse-angle reading.
Switching leaves the two-graph unchanged, and a TwoGraph stores the member
of the switching class with vertex 0 isolated, G.switch(N(0)).  It is
unique (Seidel, "A survey of two-graphs", 1976): members differ by a switch
on some S, or on its complement, which flips the same pairs, so take 0 not
in S; the switch flips {0, v} for v in S, so if both isolate 0, S is empty.
Equal two-graphs have equal members, as a graph with 0 isolated has the
block {0, i, j} iff i ~ j, so two-graph equality is adjacency equality.
With A the 0/1 adjacency array, the blocks through i, j are the z with
A[i, z] XOR A[j, z] XOR A[i, j] = 1, an O(n) row that is 0 at z = i and
z = j, as A has a zero diagonal.  So the pair degree is the sum of
A[i] XOR A[j], s = d_i + d_j - 2 |N(i) & N(j)|, when i is not adjacent to
j, and n - s when i ~ j (entries i and j of the XOR are 1, and the
complement clears them).  This holds for every member of the switching
class, not only the stored one.  pair_degree_multiset and is_regular
read s off one n x n array, graphs.pair_degrees, built from one numpy
popcount matrix; frames.verify_etf reads the same array off the
entries of an equiangular Gram equal to -G_01.

Two graphs are switching equivalent iff their two-graphs are isomorphic.
The decision procedure canonicalizes by vertex isolation: switching G on
the neighbourhood of vertex x isolates x, and deleting x then yields the
descendant at x, the same from every member, since the member isolating x
is unique.  G and H are equivalent iff the descendant of G at 0 is
isomorphic to a descendant of H at some w; the witness (w, bijection) is
returned.  Mismatched pair-degree multisets decide NotEquivalent without
any search (they also cover block counts, as the degrees sum to 3 blocks).

Once the search at w = 0 has failed, the loop expects a refutation, and it
skips two kinds of w.  First, every w whose descendant has a K4 pair multiset
(iso.k4_pair_multiset) different from that of the descendant of G at 0, read
off the arrays it keeps from the failed search.  The multiset is a graph
isomorphism invariant, so a mismatch proves that descendant is not
isomorphic.  Second, every w in the orbit of a refuted w under the
automorphisms of H found so far.  An automorphism s of H maps the member of
the switching class isolating x onto the one isolating s(x), so the
descendants at x and s(x) are isomorphic: all of an orbit is refuted with
one of its vertices.  To find the orbits, a w that has the same refined
colour (iso.refined_colours) as a refuted r gets one search for an
automorphism of H sending r to w (find_isomorphism with the fixed pair
(r, w)), in place of building and filtering its descendant, all reading the
K4 array H keeps; if it succeeds, the cycles of the automorphism are merged
into the orbits, kept as a union-find over the vertices of H.  A vertex is
searched at most once this way, and the first failed automorphism search
ends them for the call, so an H whose colour classes are coarser than its
orbits (a rigid regular H, say) pays one failed search, not one per pair of
vertices; the orbits already found still skip their vertices.  No skipped w
could have given a witness, and the first w that does is reached and
searched by the same call as without the skips, so the witness
(w, bijection) is unchanged.  None of this runs before the search at w = 0
has failed, so a positive decision found there pays nothing for it.  The
failed search at w = 0 is not exhaustive either: find_isomorphism prunes its
branches by the K4 profile of one vertex, a row of the same count array (see
the iso docstring).  For K1+Paley(q) vs K1+Peisert(q), w = 0 is the isolated
vertex of K1+Peisert(q): its search refutes every branch after the first,
the K4 multiset refutes w = 1, and a few automorphism searches put every
other point into the orbit of 1.
"""

import numpy as np

from .bounds import effective_bound
from .graphs import Graph, pair_degrees, srg_params
from .iso import find_isomorphism, k4_pair_multiset, refined_colours

SWITCHING_VERTEX_BOUND = 140


class NotRegular(ValueError):
    "carries a witness vertex pair"


class TwoGraph:
    "the switching class of a graph, stored as its member with vertex 0 isolated"

    __slots__ = ("n", "rep")

    def __init__(self, g):
        self.n = g.n
        self.rep = g.switch(g.neighbors(0)) if g.n else g

    def _pair_degrees(self):
        "the n x n int64 array of pair degrees, 0 on the diagonal"
        return pair_degrees(self.rep.adjacency_bits())

    def pair_degree_multiset(self):
        "multiset of the pair degrees over i < j"
        s = self._pair_degrees()[np.triu_indices(self.n, 1)]
        vals, counts = np.unique(s, return_counts=True)
        return dict(zip(vals.tolist(), counts.tolist()))

    def descendant_graph(self, x):
        "isolate x by switching on its neighbourhood, then delete it"
        return self.rep.switch(self.rep.neighbors(x)).delete_vertex(x)

    def __eq__(self, other):
        return isinstance(other, TwoGraph) and self.rep == other.rep

    def __repr__(self):
        return "TwoGraph(n=%d)" % self.n


def two_graph_of(g):
    "blocks are the vertex triples spanning an odd number of edges of g"
    return TwoGraph(g)


def sign_graph(gm):
    "edge iff the Gram entry is negative (an obtuse angle)"
    return Graph.from_adjacency(gm.entries.signs() < 0, gm.label)


def two_graph_of_gram(gm):
    return two_graph_of(sign_graph(gm))


def is_regular(t):
    "the constant pair degree a; raises NotRegular with the first other pair in row-major order"
    s = t._pair_degrees()
    a = int(s[0, 1])
    bad = np.argwhere(np.triu(s != a, 1))
    if len(bad):
        raise NotRegular(tuple(bad[0].tolist()))
    return a


def descendant_at(g, x):
    "delete x and switch on its neighbourhood; an SRG (v-1, 2(k-mu), k+lam-2mu, k-mu)"
    from .frames import criteria

    p = srg_params(g)
    if not criteria(p)["equiangular"]:
        raise ValueError("descendant needs an equiangular embedding")
    out = two_graph_of(g).descendant_graph(x)
    got = srg_params(out)
    v, k, lam, mu = p.as_tuple()
    want = (v - 1, 2 * (k - mu), k + lam - 2 * mu, k - mu)
    if got.as_tuple() != want:
        raise ValueError("descendant parameters %r, expected %r" % (got.as_tuple(), want))
    return out


def switching_equivalent(g, h):
    """
    A witness (w, perm) mapping the descendant of g at 0 onto the descendant
    of h at w, or None; graphs are equivalent iff their two-graphs are
    isomorphic, and every isomorphism shows up this way.  Raises ValueError
    on unequal vertex counts, on graphs over the bound, and on 0 vertices,
    which have no descendant.
    """
    if g.n != h.n:
        raise ValueError("vertex counts differ: %d vs %d" % (g.n, h.n))
    cap = effective_bound(SWITCHING_VERTEX_BOUND)
    if g.n > cap:
        raise ValueError("%d vertices exceeds the switching bound %d" % (g.n, cap))
    if g.n == 0:
        raise ValueError("switching needs at least one vertex")
    tg, th = two_graph_of(g), two_graph_of(h)
    if tg.pair_degree_multiset() != th.pair_degree_multiset():
        return None
    g0 = tg.descendant_graph(0)
    key = colours = None  # k4_pair_multiset(g0) and refined_colours(h), once a search has failed
    reps = {}  # refined colour -> the first refuted w of that colour
    orbits = True  # until an automorphism search fails
    parent = list(range(h.n))  # union-find over h's vertices: orbits of the automorphisms found
    dead = [False] * h.n  # at a root: its orbit holds a refuted w

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for w in range(h.n):
        if dead[root(w)]:
            continue
        r = reps.get(colours[w]) if orbits and reps else None
        if r is not None:
            sigma = find_isomorphism(h, h, fixed=((r, w),))
            if sigma is not None:
                for a, b in enumerate(sigma):  # merge the cycles of sigma
                    a, b = root(a), root(b)
                    if a != b:
                        parent[b] = a
                        dead[a] |= dead[b]
                continue  # w is now in the orbit of r
            orbits = False
        hw = th.descendant_graph(w)
        if key is None or k4_pair_multiset(hw) == key:
            perm = find_isomorphism(g0, hw)
            if perm is not None:
                return (w, perm)
        if key is None:
            key = k4_pair_multiset(g0)
            colours = refined_colours(h)
        reps.setdefault(colours[w], w)
        dead[root(w)] = True
    return None
