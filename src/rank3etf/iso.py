"""
Graph isomorphism by joint colour refinement with individualization.

Both graphs are refined together so colour ids stay comparable: a vertex
signature is its current colour plus its neighbour count into every colour
class, and new ids are handed out by sorted signature, so mismatched
histograms abort a branch immediately.  A round is one exact integer numpy
pass: the rows are unpacked once per call into 0/1 arrays, one
np.add.reduceat over the columns sorted by colour gives every vertex's
count into every class, and one np.unique over the signatures of both
graphs gives the new ids.  Each signature is a row of big-endian uint32
values (colour, then the counts in ascending colour order), all of one
length, viewed as one void key.  Void keys compare bytewise, and a
big-endian unsigned value puts its most significant byte first, so the
bytewise order of two keys is the order of their first differing value:
the lexicographic order of the (colour, counts) tuples.  The ids are those
of sorting the tuples, and equal signature multisets in g and h mean equal
id histograms.

Strongly regular graphs are regular in every 1-dimensional sense, so
refinement alone never splits them; the search individualizes a vertex of
the smallest non-singleton class, pairs it against each same-coloured
target, and recurses.  A discrete colouring proposes a bijection that is
then checked edge-by-edge before being returned.

Cheap invariants run first: order, degree multiset, and the multiset of
(adjacency, common-neighbour count) over all vertex pairs, read off one
numpy popcount matrix (graphs.common_neighbour_counts), which separates
strongly regular graphs with different (lambda, mu) without any search.

A finer invariant, k4_pair_multiset, adds to each pair key the number of
edges inside the common neighbourhood C = N(i) & N(j): the K4 count of the
Higman-Sims 4-vertex condition, which differs between SRGs with equal
parameters such as Paley(49) and Peisert(49).  It is computed from packed
rows tri[u] holding N(s) & N(u) in an n-bit block s for each s in N(u).
Block s of tri[i] & tri[j] is then N(s) & C when s lies in C and empty
otherwise, so its popcount is the sum over s in C of |N(s) & C|, which is
2 e(C).  Its price is one n^2-bit integer per vertex, so find_isomorphism
never computes the whole multiset.

The search applies the same count one vertex at a time.  At a node with
refined colourings col_g, col_h, once the first target w of the
individualized vertex u has failed, it computes the K4 profile of u, the
sorted multiset of (col_g[v], u ~ v, edges inside N(u) & N(v)) over all v,
and skips every later target w whose profile in h differs.  Any bijection
the branch u -> w can return is an isomorphism that sends u to w and
respects the node's colouring (the ids are shared and refinement only splits
classes), so it maps each v to a vertex of the same colour, keeps adjacency
to u, and carries N(u) & N(v) with its edges onto N(w) & N(perm[v]): the
profiles agree.  A skipped branch could not have returned a bijection, and
the first one found is the one the unpruned search finds.  A search that
succeeds on its first branch at every node never computes a profile.
"""

import numpy as np

from .bounds import effective_bound
from .graphs import bits, common_neighbour_counts, unpack_rows

ISO_VERTEX_BOUND = 300


def _pair_count_multiset(g):
    "multiset of (i ~ j, |N(i) & N(j)|) over pairs i < j"
    i, j = np.triu_indices(g.n, 1)
    adj = unpack_rows(g.rows, g.n)[i, j]
    key = 2 * common_neighbour_counts(g.rows)[i, j] + adj
    vals, counts = np.unique(key, return_counts=True)
    return {(k & 1, k >> 1): c for k, c in zip(vals.tolist(), counts.tolist())}


def k4_pair_multiset(g):
    "multiset of (i ~ j, |N(i) & N(j)|, edges inside N(i) & N(j)) over pairs i < j"
    n, rows = g.n, g.rows
    tri = []
    for u in range(n):
        ru = rows[u]
        t = 0
        for s in bits(ru):
            t |= (rows[s] & ru) << (s * n)
        tri.append(t)
    counts = {}
    for i in range(n):
        ri, ti = rows[i], tri[i]
        for j in range(i + 1, n):
            key = ((ri >> j) & 1, (ri & rows[j]).bit_count(), (ti & tri[j]).bit_count() >> 1)
            counts[key] = counts.get(key, 0) + 1
    return counts


def _refine(rows_g, rows_h, col_g, col_h):
    "shared-id colour refinement; None on a colour or signature histogram mismatch"
    n = len(col_g)
    if n == 0:
        return [], []
    adj_g, adj_h = unpack_rows(rows_g, n), unpack_rows(rows_h, n)
    col = np.array(col_g + col_h, dtype=np.int64)
    while True:
        hist = np.bincount(col[:n])
        starts = (np.cumsum(hist) - hist)[hist > 0]  # each class's first column by colour
        k = len(starts)
        keys = np.empty((2 * n, k + 1), dtype=">u4")
        keys[:, 0] = col
        for adj, half in ((adj_g, slice(0, n)), (adj_h, slice(n, 2 * n))):
            by_colour = adj[:, np.argsort(col[half])]
            keys[half, 1:] = np.add.reduceat(by_colour, starts, axis=1, dtype=np.uint32)
        sig = keys.view(np.dtype((np.void, 4 * (k + 1)))).ravel()
        uniq, new = np.unique(sig, return_inverse=True)
        # the colour leads each signature, so this also rejects unequal histograms
        if not np.array_equal(
            np.bincount(new[:n], minlength=len(uniq)), np.bincount(new[n:], minlength=len(uniq))
        ):
            return None
        if len(uniq) == k:
            return new[:n].tolist(), new[n:].tolist()
        col = new


def _verify(rows_g, rows_h, perm):
    n = len(perm)
    for i in range(n):
        pi = perm[i]
        for j in range(i + 1, n):
            if (rows_g[i] >> j) & 1 != (rows_h[pi] >> perm[j]) & 1:
                return False
    return True


def _profile(rows, col, u):
    "sorted (col[v], u ~ v, edges inside N(u) & N(v)) over all v"
    ru = rows[u]
    out = []
    for v, rv in enumerate(rows):
        c = ru & rv
        inside = sum((rows[s] & c).bit_count() for s in bits(c)) >> 1
        out.append((col[v], (ru >> v) & 1, inside))
    out.sort()
    return out


def _search(rows_g, rows_h, col_g, col_h):
    refined = _refine(rows_g, rows_h, col_g, col_h)
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
        return perm if _verify(rows_g, rows_h, perm) else None
    _, c = min(split)
    u = col_g.index(c)
    fresh = n  # colour ids are < n after refinement
    prof = None  # _profile(rows_g, col_g, u), once a branch has failed
    for w in range(n):
        if col_h[w] != c:
            continue
        if prof is not None and _profile(rows_h, col_h, w) != prof:
            continue
        cg = list(col_g)
        ch = list(col_h)
        cg[u] = fresh
        ch[w] = fresh
        perm = _search(rows_g, rows_h, cg, ch)
        if perm is not None:
            return perm
        if prof is None:
            prof = _profile(rows_g, col_g, u)
    return None


def find_isomorphism(g, h, bound=ISO_VERTEX_BOUND):
    "a vertex bijection perm with i ~ j iff perm[i] ~ perm[j], or None"
    if g.n != h.n:
        return None
    if g.n > effective_bound(bound):
        raise ValueError("graph too large for isomorphism search")
    if sorted(r.bit_count() for r in g.rows) != sorted(r.bit_count() for r in h.rows):
        return None
    if _pair_count_multiset(g) != _pair_count_multiset(h):
        return None
    perm = _search(g.rows, h.rows, [0] * g.n, [0] * h.n)
    # a guard independent of the search: a bijection with i ~ j iff perm[i] ~ perm[j]
    if perm is not None and (
        sorted(perm) != list(range(g.n))
        or not np.array_equal(
            unpack_rows(g.rows, g.n), unpack_rows(h.rows, h.n)[np.ix_(perm, perm)]
        )
    ):
        raise RuntimeError("the search returned a bijection that is not an isomorphism")
    return perm


def isomorphic(g, h, bound=ISO_VERTEX_BOUND):
    return find_isomorphism(g, h, bound) is not None
