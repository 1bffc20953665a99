"""
Graph isomorphism by colour refinement with individualization: random
relabelings are always recovered, returned bijections are verified edgewise,
and the classic same-parameter pair (4x4 lattice vs Shrikhande graph, both
(16,6,2,2)) is separated.  The packed K4 pair invariant matches a naive
count, is unchanged by relabeling, and separates Paley(49) from Peisert(49).
The search's K4 profile pruning returns exactly the witness, or None, of a
reference copy of the unpruned search, on pairs where the pruning fires.
"""

from itertools import combinations
import random

import pytest

from rank3etf import iso
from rank3etf.families import build
from rank3etf.graphs import Graph, srg_params
from rank3etf.iso import find_isomorphism, isomorphic, k4_pair_multiset


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
    assert not isomorphic(sh, la)
    assert isomorphic(sh, sh)


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


def test_k4_pair_multiset_separates_paley_peisert():
    # both (49, 24, 11, 12): the pair counts agree, the K4 counts do not
    assert k4_pair_multiset(build("Paley", 49)) == {(1, 11, 25): 588, (0, 12, 30): 588}
    assert k4_pair_multiset(build("Peisert", 49)) == {(1, 11, 22): 588, (0, 12, 33): 588}
    # and the Shrikhande graph from the 4x4 lattice, both (16, 6, 2, 2)
    assert k4_pair_multiset(_shrikhande()) != k4_pair_multiset(build("Lattice", 4))


def _plain_search(rows_g, rows_h, col_g, col_h, nodes):
    "reference: the search without profile pruning, counting its nodes"
    nodes.append(1)
    refined = iso._refine(rows_g, rows_h, col_g, col_h)
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
        return perm if iso._verify(rows_g, rows_h, perm) else None
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

    def counting_profile(rows, col, u):
        profiles.append(u)
        return real_profile(rows, col, u)

    def counting_search(rows_g, rows_h, col_g, col_h):
        nodes.append(1)
        return real_search(rows_g, rows_h, col_g, col_h)

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


def test_paley_peisert_49_refuted_without_exhaustive_search(monkeypatch):
    nodes = []
    real_search = iso._search
    monkeypatch.setattr(iso, "_search", lambda *args: nodes.append(1) or real_search(*args))
    assert find_isomorphism(build("Paley", 49), build("Peisert", 49)) is None
    assert len(nodes) == 3  # the unpruned search visits 1,226
