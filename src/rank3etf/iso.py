"""
Graph isomorphism by joint colour refinement with individualization.

Both graphs are refined together so colour ids stay comparable: a vertex
signature is its current colour plus its neighbour count into every colour
class, and new ids are handed out by sorted signature, so mismatched
histograms abort a branch immediately.  A round is one exact integer numpy
pass over the 0/1 adjacency arrays of both graphs: one np.add.reduceat
over the columns of the counted classes, sorted by colour, gives every
vertex's count into each of them, and one np.unique over the signatures
gives the new ids.  Each signature is a row of big-endian uint32 values
(colour, then the counts in ascending colour order), all of one length,
viewed as one void key.  Void keys compare bytewise, and a big-endian
unsigned value puts its most significant byte first, so the bytewise
order of two keys is the order of their first differing value: the
lexicographic order of the (colour, counts) tuples.  The ids are those of
sorting the tuples, and equal signature multisets in g and h mean equal id
histograms.

A round counts only into the classes that split in the round before it.
Call a count column constant when it is a function of the leading colour,
the same function in g and h.  Dropping a constant column keeps the order
and the equalities of the signatures: two signatures of different colours
are ordered by the colour, and two of one colour agree on that column, so
their first difference lies in a kept column.  So the ids are those of
the full signatures.  The first round of a root call counts into every
class.  After a round, a new colour fixes the whole signature of the
round, so the count into every class of the round's input is constant in
the new colours.  A new class that did not split is such an input class,
and so is constant.  By induction the count into any class that did not
split in the last round is constant: it was counted in an earlier round,
or was constant already, and a function of the old colour is a function
of the new one, which refines it.  The colour histograms of g and h are
compared once, before the first round; after it, the check on the new ids
covers them, as the colour leads each signature.

A search node starts from its parent's jointly stable colouring, in which
every count into every class is constant, with u in g and w in h moved
from their class c to one fresh colour n: the pivot (u, w).  Its first
round reads only the pivot's column (its row: A is symmetric).  With
a = A[v, u] (A[v, w] in h), the count of v into a class d != c is
unchanged, so constant; into c - {u} it is the old count into c minus a,
and into {u} it is a.  So two vertices of one colour differ only in a;
the earlier columns are constant and c comes before n, so a = 1 gives the
smaller count into c - {u} and sorts first.  The new ids are the dense
ranks of 2 col + 1 - a, one np.bincount and one np.cumsum with no
signature array.  A new colour fixes (col, a), and so the count into every
input class, and the later rounds count only into the classes that split,
as above.

Strongly regular graphs are regular in every 1-dimensional sense, so
refinement alone never splits them; the search individualizes a vertex of
the smallest non-singleton class, pairs it against each same-coloured
target, and recurses.  A discrete colouring proposes a bijection that is
then checked on every vertex pair before being returned.

Cheap invariants run first: order, degree multiset, and the multiset of
(adjacency, common-neighbour count) over all vertex pairs, read off each
graph's kept popcount matrix (Graph.common_neighbours), which separates
strongly regular graphs with different (lambda, mu) without any search.
An automorphism search, h is g, skips them (they agree by construction),
and its two sides read one adjacency array and one K4 array.

A finer invariant, k4_pair_multiset, adds to each pair key the number of
edges inside the common neighbourhood N(i) & N(j): the K4 count of the
Higman-Sims 4-vertex condition, which differs between SRGs with equal
parameters such as Paley(49) and Peisert(49).  It is read off the graph's
kept exact integer array (Graph.k4), and both multisets are one np.unique
over one integer key per pair, the tuple in mixed radix
(np.ravel_multi_index).  graphs computes both arrays and packs the words.

The search applies the same count one vertex at a time.  The stored 0/1
arrays (Graph.adjacency_bits) of the two graphs serve every refinement,
leaf check and profile.  At a node with refined colourings
col_g, col_h, once the first target w of the individualized vertex u has
failed, it computes the K4 profile of u, the sorted multiset of (col_g[v],
u ~ v, edges inside N(u) & N(v)) over all v: row u of the adjacency and of
the K4 array, zipped with the colours.  It skips every later target w whose
profile in h differs.  Any bijection the branch u -> w can return is an
isomorphism that sends u to w and respects the node's colouring (the ids
are shared and refinement only splits classes), so it maps each v to a
vertex of the same colour, keeps adjacency to u, and carries N(u) & N(v)
with its edges onto N(w) & N(perm[v]): the profiles agree.  A skipped branch
could not have returned a bijection, and the first one found is the one the
unpruned search finds.  A node reads the K4 arrays that g and h keep
(Graph.k4) after its first failed branch, so a search that succeeds on its
first branch at every node never computes them.

find_isomorphism(g, h, fixed=((u, w), ...)) searches only for bijections
with perm[u] == w for each pair.  Each pair gets its own fresh colour,
shared by g and h, and the search starts from that colouring in place of
one class.  Nothing else changes: refinement only splits classes, so the
fixed pairs stay singleton classes of equal colour down every branch, and
the profile pruning stays sound, as its proof only uses that the colour ids
of g and h are shared.  The final guard also checks every fixed pair.  With
g = h this is a search for an automorphism sending u to w;
refined_colours(g), the refinement of g alone, gives the same colour to
vertices of one orbit, so a pair of different colours needs no search.
"""

import numpy as np

from .bounds import effective_bound

ISO_VERTEX_BOUND = 300


def _pair_multiset(adj, *counts):
    "multiset of (adj[i, j], *(c[i, j] for c in counts)) over pairs i < j"
    upper = np.triu(np.ones(adj.shape, dtype=bool), 1)
    cols = [adj[upper]] + [c[upper] for c in counts]
    radix = [int(c.max(initial=0)) + 1 for c in cols]
    vals, mult = np.unique(np.ravel_multi_index(cols, radix), return_counts=True)
    return dict(zip(zip(*(d.tolist() for d in np.unravel_index(vals, radix))), mult.tolist()))


def k4_pair_multiset(g):
    "multiset of (i ~ j, |N(i) & N(j)|, edges inside N(i) & N(j)) over pairs i < j"
    return _pair_multiset(g.adjacency_bits(), g.common_neighbours(), g.k4())


def _refine(adj_g, adj_h, col_g, col_h, pivot=None):
    """
    shared-id colour refinement; None on a colour or signature histogram mismatch.
    With pivot=(u, w), col_g and col_h must be a jointly stable colouring
    with u and w, of one colour, moved to one colour above all the others.
    """
    n = len(col_g)
    if n == 0:
        return [], []
    col = np.array(col_g + col_h, dtype=np.int64)
    sizes = np.bincount(col[:n])
    if pivot is None:
        if not np.array_equal(sizes, np.bincount(col[n:], minlength=len(sizes))):
            return None
        counted = np.flatnonzero(sizes)  # the first round counts into every class
    while True:
        if pivot is None:
            # counts into the counted classes, columns sorted by colour
            keys = np.empty((2 * n, len(counted) + 1), dtype=">u4")
            keys[:, 0] = col
            is_counted = np.zeros(len(sizes), dtype=bool)
            is_counted[counted] = True
            starts = np.cumsum(sizes[counted]) - sizes[counted]
            for adj, half in ((adj_g, slice(0, n)), (adj_h, slice(n, 2 * n))):
                sel = np.flatnonzero(is_counted[col[half]])
                order = sel[np.argsort(col[half][sel])]
                keys[half, 1:] = np.add.reduceat(adj[:, order], starts, axis=1, dtype=np.uint32)
            sig = keys.view(np.dtype((np.void, 4 * (len(counted) + 1)))).ravel()
            new = np.unique(sig, return_inverse=True)[1]
        else:
            u, w = pivot
            pivot = None
            # vertices adjacent to the pivot come first in their class
            key = 2 * col + 1 - np.concatenate((adj_g[u], adj_h[w]))
            present = np.bincount(key) > 0
            new = (np.cumsum(present) - 1)[key]
        hist = np.bincount(new[:n])
        # the colour leads each signature, so this also rejects unequal histograms
        if not np.array_equal(hist, np.bincount(new[n:], minlength=len(hist))):
            return None
        if len(hist) == np.count_nonzero(sizes):
            return new[:n].tolist(), new[n:].tolist()
        parent = np.empty(len(hist), dtype=np.int64)
        parent[new[:n]] = col[:n]
        counted = np.flatnonzero(hist < sizes[parent])  # the classes that split
        col, sizes = new, hist


def _profile(adj, e, col, u):
    "sorted (col[v], u ~ v, edges inside N(u) & N(v)) over all v, with e the K4 array of adj"
    return sorted(zip(col, adj[u].tolist(), e[u].tolist()))


def _search(g, h, col_g, col_h, pivot=None):
    """a bijection from g to h that respects the shared colour ids col_g, col_h, or None;
    pivot is the pair the parent node individualized, None at the root"""
    adj_g, adj_h = g.adjacency_bits(), h.adjacency_bits()
    refined = _refine(adj_g, adj_h, col_g, col_h, pivot)
    if refined is None:
        return None
    col_g, col_h = refined
    n = len(col_g)
    class_size = {}
    for c in col_g:
        class_size[c] = class_size.get(c, 0) + 1
    split = [(sz, c) for c, sz in class_size.items() if sz > 1]
    if not split:
        where = {c: v for v, c in enumerate(col_h)}
        perm = [where[c] for c in col_g]
        return perm if np.array_equal(adj_g, adj_h[np.ix_(perm, perm)]) else None
    _, c = min(split)
    u = col_g.index(c)
    prof = e_h = None  # _profile(adj_g, g.k4(), col_g, u) and h.k4(), once a branch has failed
    for w in range(n):
        if col_h[w] != c:
            continue
        if prof is not None and _profile(adj_h, e_h, col_h, w) != prof:
            continue
        # individualize u and w by one fresh colour: ids are < n after refinement
        cg, ch = col_g[:u] + [n] + col_g[u + 1 :], col_h[:w] + [n] + col_h[w + 1 :]
        perm = _search(g, h, cg, ch, (u, w))
        if perm is not None:
            return perm
        if prof is None:
            prof, e_h = _profile(adj_g, g.k4(), col_g, u), h.k4()
    return None


def refined_colours(g):
    "the colour refinement of g alone, from one class: vertices of one orbit share a colour"
    adj = g.adjacency_bits()
    return _refine(adj, adj, [0] * g.n, [0] * g.n)[0]


def find_isomorphism(g, h, fixed=()):
    """
    A vertex bijection perm with i ~ j iff perm[i] ~ perm[j] and perm[u] == w
    for every pair (u, w) in fixed, or None.
    """
    for vs, n in (([u for u, _ in fixed], g.n), ([w for _, w in fixed], h.n)):
        if len(set(vs)) != len(vs) or not all(0 <= v < n for v in vs):
            raise ValueError("fixed pairs need distinct vertices in range: %r" % (fixed,))
    if g.n != h.n:
        return None
    if g.n > effective_bound(ISO_VERTEX_BOUND):
        raise ValueError("graph too large for isomorphism search")
    adj_g, adj_h = g.adjacency_bits(), h.adjacency_bits()
    # an automorphism search (h is g) skips the invariants: they agree by construction
    if h is not g:
        if not np.array_equal(np.sort(adj_g.sum(axis=1)), np.sort(adj_h.sum(axis=1))):
            return None
        cn_g, cn_h = g.common_neighbours(), h.common_neighbours()
        if _pair_multiset(adj_g, cn_g) != _pair_multiset(adj_h, cn_h):
            return None
    # each fixed pair gets its own fresh colour, shared by g and h
    col_g, col_h = [0] * g.n, [0] * h.n
    for c, (u, w) in enumerate(fixed, 1):
        col_g[u] = col_h[w] = c
    perm = _search(g, h, col_g, col_h)
    # a guard independent of the search, on the stored arrays: i ~ j iff perm[i] ~ perm[j]
    if perm is not None and (
        sorted(perm) != list(range(g.n))
        or any(perm[u] != w for u, w in fixed)
        or not np.array_equal(adj_g, adj_h[np.ix_(perm, perm)])
    ):
        raise RuntimeError("the search returned a bijection that is not an isomorphism")
    return perm
