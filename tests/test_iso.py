"""
Graph isomorphism by colour refinement with individualization: random
relabelings are always recovered, returned bijections are verified edgewise,
and the classic same-parameter pair (4x4 lattice vs Shrikhande graph, both
(16,6,2,2)) is separated.  The packed K4 pair invariant matches a naive
count, is unchanged by relabeling, and separates Paley(49) from Peisert(49).
The search's K4 profile pruning returns exactly the witness, or None, of a
reference copy of the unpruned search, on pairs where the pruning fires.
The numpy refinement and pair-count multiset match pure-Python reference
copies (one popcount per vertex and class, one per pair) on relabeled SRGs,
random graphs, non-equitable colourings, mismatched histograms and sizes
across the 64-bit word boundaries.  The pivot round, a refinement from a
stable colouring with one pair individualized, matches the reference too, on
relabeled copies with the pair in one orbit and in two, Paley(49) against
Peisert(49), T(8) against the Chang graphs and random regular graphs, walking
down while the result is stable; the unpruned reference search refines
with the reference copy and checks its leaf pair by pair, so it shares no
code with the numpy path.  The K4 count array matches a per-pair count, and
the search's K4 profile a per-common-neighbour popcount, on random graphs
whose order or edge count crosses a 64-bit word boundary and on Paley(49)
and Peisert(49).  A search with fixed vertex pairs returns what the
reference search returns from the same fresh colours, keeps every pair,
rejects bad pairs, and finds an automorphism 0 -> w of Peisert(49) for
every w.  An automorphism search (h is g) computes no pair counts, at most
one K4 count array for both sides, and returns what a copy of g would.
"""

from itertools import combinations
import random

import numpy as np
import pytest

from rank3etf import iso
from rank3etf.families import build
from rank3etf.graphs import Graph, common_neighbour_counts, k4_counts, srg_params, unpack_rows
from rank3etf.iso import find_isomorphism, k4_pair_multiset
from rank3etf.tables import _k1_plus


def _shrikhande():
    # Cayley graph on Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = []
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    if ((c - a) % 4, (d - b) % 4) in conn and 4 * a + b < 4 * c + d:
                        edges.append((4 * a + b, 4 * c + d))
    return Graph(16, edges, "Shrikhande")


def _check_bijection(g, h, perm):
    assert sorted(perm) == list(range(g.n))
    for i in range(g.n):
        for j in range(i + 1, g.n):
            assert g.adj(i, j) == h.adj(perm[i], perm[j])


def test_recovers_random_relabelings():
    rng = random.Random(111)
    for fam, size in (("Paley", 13), ("Triangular", 6), ("Lattice", 3)):
        g = build(fam, size)
        for _ in range(5):
            p = list(range(g.n))
            rng.shuffle(p)
            h = g.relabel(p)
            perm = find_isomorphism(g, h)
            assert perm is not None
            _check_bijection(g, h, perm)


def test_lattice_vs_shrikhande():
    sh = _shrikhande()
    la = build("Lattice", 4)
    # identical parameters, so the separation needs actual search
    assert srg_params(sh).as_tuple() == srg_params(la).as_tuple() == (16, 6, 2, 2)
    assert find_isomorphism(sh, la) is None
    assert find_isomorphism(sh, sh) is not None


def test_distinct_orders_and_degrees():
    assert find_isomorphism(build("Paley", 13), build("Paley", 17)) is None
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    # same degree sequence; the pair-count invariant separates them instantly
    assert find_isomorphism(c6, two_triangles) is None
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert find_isomorphism(star, path) is None


def test_known_coincidences():
    # two constructions of the Petersen graph and of the Paley graph of order 9
    pet1 = build("Triangular", 5).complement()
    pet2 = build("NOminus2n_2_comp", 2).complement()
    perm = find_isomorphism(pet1, pet2)
    assert perm is not None
    _check_bijection(pet1, pet2, perm)

    p9 = build("Paley", 9)
    l3 = build("Lattice", 3)
    perm = find_isomorphism(l3, p9)
    assert perm is not None
    _check_bijection(l3, p9, perm)


def test_self_complementary_paley():
    for q in (5, 13, 17):
        g = build("Paley", q)
        perm = find_isomorphism(g, g.complement())
        assert perm is not None
        _check_bijection(g, g.complement(), perm)


def test_vertex_bound_overridable(monkeypatch):
    g = build("Paley", 13)
    monkeypatch.setenv("ETF_RANK3_MAX_VERTICES", "5")
    with pytest.raises(ValueError):
        find_isomorphism(g, g)
    monkeypatch.setenv("ETF_RANK3_MAX_VERTICES", "20")
    assert find_isomorphism(g, g) is not None


def _naive_k4_pair_multiset(g):
    "reference: the edges inside each common neighbourhood, counted pair by pair"
    nb = [set(g.neighbors(v)) for v in range(g.n)]
    counts = {}
    for i, j in combinations(range(g.n), 2):
        common = nb[i] & nb[j]
        inside = sum(1 for a, b in combinations(sorted(common), 2) if b in nb[a])
        key = (int(j in nb[i]), len(common), inside)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _rand_graph(rng, n):
    p = rng.random()
    return Graph(n, [(i, j) for i, j in combinations(range(n), 2) if rng.random() < p])


def test_k4_pair_multiset_matches_naive_count():
    rng = random.Random(2024)
    graphs = [_rand_graph(rng, rng.randint(1, 30)) for _ in range(60)]
    graphs += [_shrikhande(), build("Lattice", 4), build("Paley", 13), build("Peisert", 9)]
    graphs += [build("Triangular", 7), build("VOplus", 2), build("NOminus2n_2_comp", 3)]
    for g in graphs:
        assert k4_pair_multiset(g) == _naive_k4_pair_multiset(g), g.label


def test_k4_pair_multiset_is_relabeling_invariant():
    rng = random.Random(2025)
    for g in [_rand_graph(rng, rng.randint(2, 30)) for _ in range(20)] + [build("Paley", 29)]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert k4_pair_multiset(g.relabel(perm)) == k4_pair_multiset(g)


def _plain_pair_counts(g):
    "reference: (i ~ j, |N(i) & N(j)|) counted pair by pair"
    counts = {}
    rows = g.rows
    for i, j in combinations(range(g.n), 2):
        key = (int(g.adj(i, j)), (rows[i] & rows[j]).bit_count())
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_pair_count_multiset_matches_pair_scan():
    rng = random.Random(2026)
    graphs = [_rand_graph(rng, n) for n in (0, 1, 2, 63, 64, 65, 127, 128, 129) for _ in range(3)]
    graphs += [build("M22_comp", None), build("NOminus2n_2_comp", 4), _shrikhande()]
    for g in graphs:
        adj, rows = g.adjacency_bits(), g.rows
        c = common_neighbour_counts(adj)
        assert c.tolist() == [[(a & b).bit_count() for b in rows] for a in rows]
        got = iso._pair_multiset(adj, c)
        assert got == _plain_pair_counts(g), g.n
        assert all(type(x) is int for key, m in got.items() for x in key + (m,))


def _naive_k4_counts(g):
    "reference: E[i][j], the edges inside N(i) & N(j), counted pair by pair"
    nb = [set(g.neighbors(v)) for v in range(g.n)]
    inside = lambda c: sum(1 for a, b in combinations(sorted(c), 2) if b in nb[a])
    return [[inside(nb[i] & nb[j]) for j in range(g.n)] for i in range(g.n)]


def _k4_count_graphs(rng):
    "random graphs across 64-bit word edges of n^2 and of the edge count, and two SRGs"
    graphs = [_rand_graph(rng, n) for n in (0, 1, 7, 8, 9, 63, 64, 65) for _ in range(2)]
    for m in (63, 64, 65, 128, 129):
        edges = rng.sample(list(combinations(range(24), 2)), m)
        graphs.append(Graph(24, edges, "%d edges" % m))
    return graphs + [build("Paley", 49), build("Peisert", 49)]


def test_k4_counts_match_naive_count():
    for g in _k4_count_graphs(random.Random(2027)):
        e = k4_counts(g.adjacency_bits())
        assert e.dtype == np.int64 and e.shape == (g.n, g.n)
        assert e.tolist() == _naive_k4_counts(g), (g.n, g.label)


def _reference_profile(rows, col, u):
    "reference: the search's K4 profile of u with one popcount per common neighbour"
    ru = rows[u]
    out = []
    for v, rv in enumerate(rows):
        c = ru & rv
        inside = sum((rows[s] & c).bit_count() for s in range(len(rows)) if c >> s & 1) >> 1
        out.append((col[v], (ru >> v) & 1, inside))
    return sorted(out)


def test_profile_matches_reference():
    rng = random.Random(2028)
    for g in _k4_count_graphs(rng):
        adj, rows = g.adjacency_bits(), g.rows
        e = k4_counts(adj)
        for u in rng.sample(range(g.n), min(g.n, 4)):
            col = [rng.randrange(3) for _ in range(g.n)]
            got = iso._profile(adj, e, col, u)
            assert got == _reference_profile(rows, col, u), (g.n, g.label, u)
            assert all(type(x) is int for t in got for x in t)


def test_k4_pair_multiset_separates_paley_peisert():
    # both (49, 24, 11, 12): the pair counts agree, the K4 counts do not
    assert k4_pair_multiset(build("Paley", 49)) == {(1, 11, 25): 588, (0, 12, 30): 588}
    assert k4_pair_multiset(build("Peisert", 49)) == {(1, 11, 22): 588, (0, 12, 33): 588}
    # and the Shrikhande graph from the 4x4 lattice, both (16, 6, 2, 2)
    assert k4_pair_multiset(_shrikhande()) != k4_pair_multiset(build("Lattice", 4))


def _reference_refine(rows_g, rows_h, col_g, col_h):
    "reference: shared-id colour refinement with one popcount per vertex and class"
    n = len(col_g)
    while True:
        colors = sorted(set(col_g))
        if sorted(set(col_h)) != colors:
            return None
        mask_g = {c: 0 for c in colors}
        mask_h = {c: 0 for c in colors}
        for v in range(n):
            mask_g[col_g[v]] |= 1 << v
            mask_h[col_h[v]] |= 1 << v
        for c in colors:
            if mask_g[c].bit_count() != mask_h[c].bit_count():
                return None
        sig_g = [
            (col_g[v], tuple((rows_g[v] & mask_g[c]).bit_count() for c in colors))
            for v in range(n)
        ]
        sig_h = [
            (col_h[v], tuple((rows_h[v] & mask_h[c]).bit_count() for c in colors))
            for v in range(n)
        ]
        if sorted(sig_g) != sorted(sig_h):
            return None
        ids = {s: i for i, s in enumerate(sorted(set(sig_g)))}
        new_g = [ids[s] for s in sig_g]
        new_h = [ids[s] for s in sig_h]
        if len(ids) == len(colors):
            return new_g, new_h
        col_g, col_h = new_g, new_h


def _refine_cases(rng):
    "seeded (rows_g, rows_h, col_g, col_h) inputs for _refine"
    srgs = [build("M22_comp", None), build("NOminus2n_2_comp", 4).complement()]
    srgs += [build("Paley", 49), build("Peisert", 49), _shrikhande(), build("Lattice", 4)]
    # degrees past 255, and ids past 255 once refinement splits it
    dense = Graph(260, [e for e in combinations(range(260), 2) if rng.random() < 0.99])
    for g in srgs + [dense]:
        for _ in range(3):
            h = _relabeled(rng, g)
            yield g.rows, h.rows, [0] * g.n, [0] * g.n
            # individualize u in g and w in h, as a search node does
            cg, ch = [0] * g.n, [0] * g.n
            cg[rng.randrange(g.n)] = ch[rng.randrange(g.n)] = g.n
            yield g.rows, h.rows, cg, ch
    for a, b in ((srgs[2], srgs[3]), (srgs[4], srgs[5])):  # same parameters
        cg, ch = [0] * a.n, [0] * a.n
        cg[0] = ch[0] = a.n
        yield a.rows, b.rows, cg, ch
    for n in (0, 1, 2, 5, 17, 63, 64, 65, 100, 129, 260):  # 64-bit word boundaries
        for _ in range(4):
            g = _rand_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            ncol = rng.randint(1, 5)
            # a random partial colouring, not equitable in general, and its image
            cg = [rng.randrange(ncol) for _ in range(n)]
            ch = [0] * n
            for v, c in enumerate(cg):
                ch[perm[v]] = c
            yield g.rows, g.relabel(perm).rows, cg, ch
            sparse = [3 * c + 7 for c in cg]  # ids need not be 0..k-1
            yield g.rows, g.relabel(perm).rows, sparse, [3 * c + 7 for c in ch]
            yield g.rows, _rand_graph(rng, n).rows, cg, ch
            if n:
                bad = list(ch)  # a histogram mismatch, unless it redraws the same colour
                bad[rng.randrange(n)] = rng.randrange(ncol + 1)
                yield g.rows, g.relabel(perm).rows, cg, bad


def test_refine_matches_reference():
    rng = random.Random(9009)
    results = {True: 0, False: 0}  # by whether the reference refined
    split = 0  # refinements that split a class, so ran more than one round
    for rows_g, rows_h, col_g, col_h in _refine_cases(rng):
        want = _reference_refine(rows_g, rows_h, col_g, col_h)
        n = len(col_g)
        got = iso._refine(unpack_rows(rows_g, n), unpack_rows(rows_h, n), col_g, col_h)
        assert got == want, (len(col_g), col_g[:8], col_h[:8])
        if got is not None:
            assert all(type(c) is int for c in got[0] + got[1])
            split += len(set(got[0])) > len(set(col_g))
        results[want is not None] += 1
    assert results[True] >= 60 and results[False] >= 60 and split >= 20, (results, split)


def _pivot_pairs(rng):
    "(g, h, perm or None) pairs for the pivot round; perm relabels g into h"
    out = []
    for g in (build("Paley", 13), build("Triangular", 6), _k1_plus(build("Paley", 9)),
              build("M22_comp", None), Graph(5, []), Graph(4, list(combinations(range(4), 2)))):
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append((g, g.relabel(perm), perm))
    out.append((build("Paley", 49), build("Peisert", 49), None))
    chang = _triangular_and_chang()
    out += [(chang[0], c, None) for c in chang[1:]]
    for n, k in ((10, 3), (12, 4), (16, 3), (20, 5), (70, 3)):
        g = _random_regular(rng, n, k)
        perm = list(range(n))
        rng.shuffle(perm)
        out += [(g, g.relabel(perm), perm), (g, _random_regular(rng, n, k), None)]
    return out


def test_pivot_round_matches_reference():
    # individualize one pair (u, w) of a stable colouring, as a search node
    # does, and refine from the pivot; walk down while the result is stable
    rng = random.Random(3535)
    outcomes = {"none": 0, "discrete": 0, "no split": 0, "split": 0}
    orbits = {True: 0, False: 0}  # by whether w is the image of u under the relabeling
    for g, h, perm in _pivot_pairs(rng):
        n = g.n
        adj_g, adj_h = g.adjacency_bits(), h.adjacency_bits()
        for _ in range(4):
            stable = _reference_refine(g.rows, h.rows, [0] * n, [0] * n)
            images = perm is not None  # every pair so far is (v, perm[v])
            while stable is not None and len(set(stable[0])) < n:
                col_g, col_h = stable
                c = rng.choice([c for c in set(col_g) if col_g.count(c) > 1])
                u = rng.choice([v for v in range(n) if col_g[v] == c])
                if images and rng.random() < 0.6:
                    w = perm[u]
                else:
                    w = rng.choice([v for v in range(n) if col_h[v] == c])
                    images = images and w == perm[u]
                orbits[images] += perm is not None
                cg, ch = col_g[:u] + [n] + col_g[u + 1:], col_h[:w] + [n] + col_h[w + 1:]
                want = _reference_refine(g.rows, h.rows, cg, ch)
                got = iso._refine(adj_g, adj_h, cg, ch, pivot=(u, w))
                assert got == want, (g.label, h.label, u, w)
                if got is None:
                    outcomes["none"] += 1
                elif len(set(got[0])) == n:
                    outcomes["discrete"] += 1
                elif len(set(got[0])) == len(set(cg)):
                    outcomes["no split"] += 1
                else:
                    outcomes["split"] += 1
                stable = got
    assert min(outcomes.values()) >= 10 and min(orbits.values()) >= 10, (outcomes, orbits)


def _verify(rows_g, rows_h, perm):
    "reference: i ~ j iff perm[i] ~ perm[j], pair by pair"
    n = len(perm)
    for i in range(n):
        pi = perm[i]
        for j in range(i + 1, n):
            if (rows_g[i] >> j) & 1 != (rows_h[pi] >> perm[j]) & 1:
                return False
    return True


def _plain_search(rows_g, rows_h, col_g, col_h, nodes):
    "reference: the search without profile pruning, counting its nodes"
    nodes.append(1)
    refined = _reference_refine(rows_g, rows_h, col_g, col_h)
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
    for w in range(n):
        if col_h[w] != c:
            continue
        cg = list(col_g)
        ch = list(col_h)
        cg[u] = n
        ch[w] = n
        perm = _plain_search(rows_g, rows_h, cg, ch, nodes)
        if perm is not None:
            return perm
    return None


def _triangular_and_chang():
    "T(8) and the three Chang graphs, all (28, 12, 6, 4)"
    # T(8) switched on the vertices (pairs of K8) of a perfect matching, an
    # 8-cycle, and a 3-cycle plus a 5-cycle of K8
    pairs = list(combinations(range(8), 2))
    edges = [(a, b) for a, b in combinations(range(28), 2) if set(pairs[a]) & set(pairs[b])]
    t8 = Graph(28, edges)
    matching = [(0, 1), (2, 3), (4, 5), (6, 7)]
    cycle8 = [(i, (i + 1) % 8) for i in range(8)]
    cycles35 = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)]
    return [t8] + [
        t8.switch([pairs.index(tuple(sorted(e))) for e in s])
        for s in (matching, cycle8, cycles35)
    ]


def _random_regular(rng, n, k):
    "a uniform k-regular graph on n vertices from the pairing model"
    while True:
        points = [v for v in range(n) for _ in range(k)]
        rng.shuffle(points)
        edges = set()
        for a, b in zip(points[::2], points[1::2]):
            if a == b or (min(a, b), max(a, b)) in edges:
                break
            edges.add((min(a, b), max(a, b)))
        else:
            return Graph(n, sorted(edges))


def _relabeled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def test_profile_pruning_matches_unpruned_search(monkeypatch):
    rng = random.Random(8088)
    pairs = [(_shrikhande(), build("Lattice", 4))]
    pairs += [(build("Paley", q), build("Peisert", q)) for q in (9, 49)]
    chang = _triangular_and_chang()
    pairs += [(a, b) for a, b in combinations(chang, 2)]
    pairs += [(g, _relabeled(rng, g)) for g in chang]
    for fam, size in (("Paley", 13), ("Triangular", 6), ("Lattice", 4), ("Peisert", 9)):
        g = build(fam, size)
        pairs += [(g, _relabeled(rng, g)) for _ in range(3)]
    for _ in range(12):
        g = _rand_graph(rng, rng.randint(6, 18))
        pairs.append((g, _relabeled(rng, g)))
    for _ in range(12):
        n, k = rng.choice(((10, 3), (12, 3), (12, 4), (14, 4), (16, 3)))
        g = _random_regular(rng, n, k)
        pairs.append((g, _relabeled(rng, g)))
        pairs.append((g, _random_regular(rng, n, k)))

    profiles, nodes = [], []
    real_profile, real_search = iso._profile, iso._search

    def counting_profile(*args):
        profiles.append(args[-1])
        return real_profile(*args)

    def counting_search(*args):
        nodes.append(1)
        return real_search(*args)

    monkeypatch.setattr(iso, "_profile", counting_profile)
    monkeypatch.setattr(iso, "_search", counting_search)
    pruned = {True: 0, False: 0}  # by whether a witness exists
    for g, h in pairs:
        want_nodes = []
        want = _plain_search(g.rows, h.rows, [0] * g.n, [0] * h.n, want_nodes)
        profiles.clear()
        nodes.clear()
        assert find_isomorphism(g, h) == want, (g.label, h.label)
        # pruning only skips branches, so it never visits more nodes
        assert len(nodes) <= len(want_nodes)
        if len(nodes) < len(want_nodes) and nodes:
            pruned[want is not None] += 1
        if not profiles:
            assert len(nodes) in (0, len(want_nodes))
    # the pruning fired on backtracking searches, with and without a witness
    assert pruned[True] >= 8 and pruned[False] >= 8, pruned


def test_final_guard_rejects_what_is_not_an_isomorphism(monkeypatch):
    p9, empty = build("Paley", 9), Graph(4, [])
    assert find_isomorphism(p9, p9) is not None
    for g, fake in ((p9, [1, 0] + list(range(2, 9))), (empty, [0, 0, 1, 2])):
        monkeypatch.setattr(iso, "_search", lambda *args, fake=fake: fake)
        with pytest.raises(RuntimeError):
            find_isomorphism(g, g)


def test_paley_peisert_49_refuted_without_exhaustive_search(monkeypatch):
    nodes = []
    real_search = iso._search
    monkeypatch.setattr(iso, "_search", lambda *args: nodes.append(1) or real_search(*args))
    assert find_isomorphism(build("Paley", 49), build("Peisert", 49)) is None
    assert len(nodes) == 3  # the unpruned search visits 1,226


def test_fixed_pairs_are_kept():
    rng = random.Random(6161)
    cases = []
    for fam, size in (("Paley", 13), ("Peisert", 9), ("Triangular", 6), ("Lattice", 4)):
        g = build(fam, size)
        cases += [(g, _relabeled(rng, g)) for _ in range(2)]
    cases += [(g, _relabeled(rng, g)) for g in _triangular_and_chang()]
    for _ in range(8):
        g = _rand_graph(rng, rng.randint(2, 14))
        cases.append((g, _relabeled(rng, g)))
    found = {True: 0, False: 0}
    for g, h in cases:
        for k in (1, 1, 2, 3):
            us = rng.sample(range(g.n), min(k, g.n))
            fixed = tuple(zip(us, rng.sample(range(h.n), len(us))))
            perm = find_isomorphism(g, h, fixed=fixed)
            # the reference search, started from the same fresh colours
            cg, ch = [0] * g.n, [0] * h.n
            for c, (u, w) in enumerate(fixed, 1):
                cg[u] = ch[w] = c
            assert perm == _plain_search(g.rows, h.rows, cg, ch, [])
            if perm is not None:
                _check_bijection(g, h, perm)
                assert all(perm[u] == w for u, w in fixed)
            found[perm is not None] += 1
    assert min(found.values()) >= 10, found


def test_fixed_pairs_on_paley_and_peisert():
    # K1+Paley(9): the isolated vertex 0 cannot go to a point
    k1 = _k1_plus(build("Paley", 9))
    assert find_isomorphism(k1, k1, fixed=((0, 3),)) is None
    assert find_isomorphism(k1, k1, fixed=((0, 0), (1, 3)))[:2] == [0, 3]
    # Peisert(49) is vertex-transitive
    p = build("Peisert", 49)
    for w in range(49):
        perm = find_isomorphism(p, p, fixed=((0, w),))
        assert perm is not None and perm[0] == w


def test_fixed_pairs_are_checked(monkeypatch):
    p9 = build("Paley", 9)
    for fixed in (((9, 0),), ((0, -1),), ((0, 1), (0, 2)), ((0, 1), (2, 1))):
        with pytest.raises(ValueError, match="fixed"):
            find_isomorphism(p9, p9, fixed=fixed)
    # the identity is an automorphism, but it does not send 0 to 1
    monkeypatch.setattr(iso, "_search", lambda *args: list(range(9)))
    with pytest.raises(RuntimeError):
        find_isomorphism(p9, p9, fixed=((0, 1),))


def test_refined_colours_split_by_orbit():
    k1 = _k1_plus(build("Paley", 9))
    assert iso.refined_colours(k1) == [0] + [1] * 9
    assert iso.refined_colours(build("Peisert", 49)) == [0] * 49
    assert iso.refined_colours(Graph(0, [])) == []


def test_automorphism_search_pays_the_invariants_once(monkeypatch):
    # h is g: no degree or pair-count comparison, and one K4 array serves
    # both sides of the search
    calls = {"cnc": 0, "k4": 0}

    def counted(name, real):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or real(*args)

    monkeypatch.setattr(Graph, "common_neighbours", counted("cnc", Graph.common_neighbours))
    monkeypatch.setattr("rank3etf.graphs.k4_counts", counted("k4", k4_counts))
    rng = random.Random(4242)
    corpus = [build("Paley", 13), build("Peisert", 9), _k1_plus(build("Paley", 9))]
    corpus += _triangular_and_chang() + [_rand_graph(rng, rng.randint(2, 14)) for _ in range(8)]
    found = {True: 0, False: 0}
    k4_searches = 0  # automorphism searches that had a failed branch, so needed K4 counts
    for base in corpus:
        for k in (1, 1, 2):
            g = Graph.from_adjacency(base.adjacency_bits())  # keeps no arrays yet
            us = rng.sample(range(g.n), min(k, g.n))
            fixed = tuple(zip(us, rng.sample(range(g.n), len(us))))
            calls.update(cnc=0, k4=0)
            perm = find_isomorphism(g, g, fixed=fixed)
            assert calls["cnc"] == 0 and calls["k4"] <= 1
            k4_searches += calls["k4"]
            # a copy of g pays the invariants and finds the same answer
            assert find_isomorphism(g, Graph.from_rows(g.rows), fixed=fixed) == perm
            assert calls["cnc"] == 2
            cg, ch = [0] * g.n, [0] * g.n
            for c, (u, w) in enumerate(fixed, 1):
                cg[u] = ch[w] = c
            assert perm == _plain_search(g.rows, g.rows, cg, ch, [])
            found[perm is not None] += 1
    assert min(found.values()) >= 10 and k4_searches >= 3, (found, k4_searches)
