"""
Two-graphs from graphs and Gram matrices: equality of the stored members
against a brute-force odd-triple reference, switching invariance
(the defining property), descendants as isolate-and-delete, regularity
with witnesses, and the switching-equivalence decision with its (vertex,
bijection) witness verified by hand.  The K4 invariant filter and the
automorphism-orbit skips leave every witness as the plain search loop finds
it, also when every automorphism search is made to fail, and refute
K1+Paley(q) vs K1+Peisert(q) for q = 49 and 121 with one descendant search
and at most three automorphism searches, computing three K4 arrays and
three common-neighbour arrays.  The numpy pair-degree multiset and
is_regular verdict match a plain scan of the pair masks, across the 64-bit
word boundaries, and the block count they imply matches the brute-force
odd triples; the sign graph read off the numerator arrays matches
QuadExt.sign entry by entry.  The pair degrees (graphs.pair_degrees) of
the stored member and of the graph itself are the popcounts of the int-row
pair masks for every n to 70, and count the brute-force odd triples.
"""

from fractions import Fraction
from math import isqrt
import random
from itertools import combinations

import numpy as np
import pytest

from rank3etf import iso
from rank3etf.families import build
from rank3etf.frames import GramMatrix, descendant_gram, embedding_gram
from rank3etf.graphs import Graph, common_neighbour_counts, k4_counts, pair_degrees, srg_params
from rank3etf.iso import find_isomorphism
from rank3etf.matrices import ExactMatrix
from rank3etf.qext import QuadExt
from rank3etf.tables import _k1_plus
import rank3etf.twographs
from rank3etf.twographs import (
    NotRegular,
    descendant_at,
    is_regular,
    sign_graph,
    switching_equivalent,
    two_graph_of,
    two_graph_of_gram,
)


def _bits(mask):
    "reference: indices of the set bits of mask, lowest first"
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _row_pair_mask(rows, i, j):
    "reference: the int-row bitmask of the z making {i, j, z} a block"
    m = rows[i] ^ rows[j]
    if (rows[i] >> j) & 1:
        m ^= (1 << len(rows)) - 1
    return m & ~((1 << i) | (1 << j))


def _rand_graph(rng, n, p=0.5):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def _odd_triples(g):
    "reference: the vertex triples of g spanning an odd number of edges"
    return {
        t
        for t in combinations(range(g.n), 3)
        if sum(g.adj(a, b) for a, b in combinations(t, 2)) % 2
    }


def _triple_degrees(g):
    "reference: the n x n count of odd triples through each pair, 0 on the diagonal"
    s = [[0] * g.n for _ in range(g.n)]
    for t in _odd_triples(g):
        for i, j in combinations(t, 2):
            s[i][j] += 1
            s[j][i] += 1
    return s


def test_small_oracles():
    # K3: the single triple is a block (3 edges, odd); P3, one path, is not
    # (2 edges, even); one edge is a block again, and no edge is none
    for edges, want in (([(0, 1), (1, 2), (0, 2)], {1: 3}), ([(0, 1), (1, 2)], {0: 3}),
                        ([(0, 1)], {1: 3}), ([], {0: 3})):
        g = Graph(3, edges)
        assert two_graph_of(g).pair_degree_multiset() == want
        assert pair_degrees(g.adjacency_bits()).tolist() == _triple_degrees(g)


def test_contains_and_pair_degree():
    g = build("Paley", 9)
    t = two_graph_of(g)
    s = pair_degrees(t.rep.adjacency_bits())
    assert s.tolist() == _triple_degrees(g) == _triple_degrees(t.rep)
    assert int(np.triu(s, 1).sum()) == 3 * len(_odd_triples(g))
    ms = t.pair_degree_multiset()
    assert sum(ms.values()) == 9 * 8 // 2


def test_array_two_graph_matches_int_rows():
    rng = random.Random(2425)
    # every third n to 70, 63 among them, and the small n and the word edges 64, 65
    for n in sorted(set(range(0, 71, 3)) | {1, 2, 4, 5, 64, 65, 70}):
        g = _rand_graph(rng, n, rng.random())
        t = two_graph_of(g)
        rows = t.rep.rows
        masks = [[_row_pair_mask(rows, i, j) for j in range(n)] for i in range(n)]
        want = [[m.bit_count() for m in row] for row in masks]
        # the stored member and g itself give the same degrees
        assert pair_degrees(t.rep.adjacency_bits()).tolist() == want
        assert pair_degrees(g.adjacency_bits()).tolist() == want
        if n < 9:  # the masks hold the odd triples through each pair
            assert {
                (i, j, k) for i in range(n) for j in range(i + 1, n)
                for k in _bits(masks[i][j] >> (j + 1) << (j + 1))
            } == _odd_triples(g)


def test_switching_invariance():
    rng = random.Random(777)
    for _ in range(8):
        g = _rand_graph(rng, rng.randint(5, 12))
        t = two_graph_of(g)
        for _ in range(20):
            subset = [v for v in range(g.n) if rng.random() < 0.5]
            assert two_graph_of(g.switch(subset)) == t


def test_complement_changes_two_graph():
    g = build("Paley", 9)
    assert two_graph_of(g) != two_graph_of(g.complement())


def test_equality_matches_odd_triples():
    # pairs on one vertex set: a switched copy (always equal), a switched and
    # relabeled copy, an independent graph, or one edge flipped (unequal for
    # n >= 3); the stored members must agree exactly when the triples do
    rng = random.Random(2468)
    verdicts = {True: 0, False: 0}
    for _ in range(1500):
        n = rng.randint(1, 8)
        a = _rand_graph(rng, n)
        kind = rng.randrange(4)
        if kind == 2:
            b = _rand_graph(rng, n)
        elif kind == 3 and n >= 2:
            i, j = sorted(rng.sample(range(n), 2))
            b = Graph(n, set(a.edges()) ^ {(i, j)})
        else:
            b = a.switch([v for v in range(n) if rng.random() < 0.5])
            if kind == 1:
                perm = list(range(n))
                rng.shuffle(perm)
                b = b.relabel(perm)
        ta, tb = two_graph_of(a), two_graph_of(b)
        want = _odd_triples(a) == _odd_triples(b)
        assert (ta == tb) == want, (a.rows, b.rows)
        verdicts[want] += 1
    assert min(verdicts.values()) > 400  # both verdicts well exercised


def test_descendant_is_isolate_and_delete():
    rng = random.Random(888)
    for _ in range(6):
        g = _rand_graph(rng, rng.randint(5, 10))
        t = two_graph_of(g)
        for x in range(g.n):
            switched = g.switch(g.neighbors(x))
            assert switched.degree(x) == 0
            assert t.descendant_graph(x) == switched.delete_vertex(x)


def test_sign_graph_recovers_adjacency():
    # embedding entries are s/k < 0 on edges, (-1-s)/kbar > 0 off them
    for fam, size in (("Paley", 13), ("VOplus", 2), ("Triangular", 6)):
        g = build(fam, size)
        assert sign_graph(embedding_gram(g)) == g
        assert two_graph_of_gram(embedding_gram(g)) == two_graph_of(g)


def test_sign_graph_matches_entry_signs():
    # sign_graph reads signs off the numerator arrays; the reference calls
    # QuadExt.sign per entry, on entries near and above 2^31 and 2^62 whose
    # two parts nearly cancel, so only an exact comparison decides them
    rng = random.Random(8)
    for D, scale, den in ((0, 2**31, 1), (0, 2**70, 3), (5, 2**31, 1), (13, 2**62, 1),
                          (13, 2**31, 2**64 + 3), (2, 2**70, 7)):
        n = 9
        rows = [[QuadExt(1) if i == j else None for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                b = rng.randint(-scale, scale) if D else 0
                a = isqrt(D * b * b) + rng.randint(-1, 1) if D else rng.randint(-scale, scale)
                rows[i][j] = rows[j][i] = QuadExt(
                    Fraction(a * rng.choice((1, -1)), den), Fraction(b, den), D
                )
        gm = GramMatrix(ExactMatrix.from_rows(rows), "seeded")
        want = [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j].sign() < 0]
        got = sign_graph(gm)
        assert got == Graph(n, want) and got.label == "seeded"


def test_regularity():
    a = is_regular(two_graph_of(build("NOplusOdd_4", 1)))  # (10, 6, 3, 4)
    assert a == 4  # descendant (9, 4, 1, 2): every pair in k - mu + ... = 4 blocks
    assert is_regular(two_graph_of(build("Triangular", 5))) == 4
    with pytest.raises(NotRegular) as e:
        is_regular(two_graph_of(build("Paley", 13)))
    i, j = e.value.args[0]
    assert 0 <= i < j < 13


def test_descendant_at_parameters():
    g = build("VOplus", 2)  # (16, 9, 4, 6), criteria hold
    for x in (0, 7, 15):
        d = descendant_at(g, x)
        assert srg_params(d).as_tuple() == (15, 6, 1, 3)
    with pytest.raises(ValueError):
        descendant_at(build("Triangular", 7), 0)  # not in a regular two-graph


def test_descendant_gram_round_trip():
    # the two-graph of the bordered Gram, descended at the border vertex,
    # returns the source graph exactly
    for fam, size in (("Sp2n_2", 2), ("Paley", 9), ("Oplus2n_2", 2)):
        g = build(fam, size)
        t = two_graph_of_gram(descendant_gram(g))
        assert t.descendant_graph(0) == g


def test_switching_equivalent_positive():
    a = build("NOplusOdd_4", 1)
    b = build("NOminus2n_2_comp", 2)
    res = switching_equivalent(a, b)
    assert res is not None
    w, perm = res
    # verify the witness: descendant of a at 0 mapped onto descendant of b at w
    da = two_graph_of(a).descendant_graph(0)
    db = two_graph_of(b).descendant_graph(w)
    for i in range(da.n):
        for j in range(i + 1, da.n):
            assert da.adj(i, j) == db.adj(perm[i], perm[j])


def test_switching_equivalent_is_switching_invariant():
    rng = random.Random(999)
    g = build("Paley", 9)
    h = g.switch([v for v in range(9) if rng.random() < 0.5])
    perm = list(range(9))
    rng.shuffle(perm)
    assert switching_equivalent(g, h.relabel(perm)) is not None


def test_switching_equivalent_negative_and_errors():
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert switching_equivalent(c5, k5) is None  # pair-degree multisets differ
    with pytest.raises(ValueError):
        switching_equivalent(c5, Graph(6, []))
    # same block count cannot happen here, but the pre-checks must not
    # false-positive on equal-size random graphs
    rng = random.Random(1234)
    g = _rand_graph(rng, 8)
    res = switching_equivalent(g, g.complement())
    if res is not None:
        w, perm = res
        da = two_graph_of(g).descendant_graph(0)
        db = two_graph_of(g.complement()).descendant_graph(w)
        assert da.relabel(perm) == db


def test_pair_degree_multiset_matches_pair_scan():
    rng = random.Random(2027)
    sizes = (0, 1, 2, 3, 63, 64, 65, 129)  # across the 64-bit word boundaries
    graphs = [_rand_graph(rng, n, rng.random()) for n in sizes for _ in range(3)]
    graphs += [build("M22_comp", None), build("NOminus2n_2_comp", 4), build("Paley", 13)]
    for g in graphs:
        t = two_graph_of(g)
        rows = t.rep.rows
        # the popcounts of the int-row pair masks, 0 on the diagonal
        scan = [[_row_pair_mask(rows, i, j).bit_count() for j in range(g.n)] for i in range(g.n)]
        want = {}
        for i, j in combinations(range(g.n), 2):
            want[scan[i][j]] = want.get(scan[i][j], 0) + 1
        got = t.pair_degree_multiset()
        assert got == want, g.n
        assert all(type(x) is int for x in list(got) + list(got.values()))
        if g.n <= 65:  # each odd triple is counted at its three pairs
            assert sum(d * c for d, c in want.items()) == 3 * len(_odd_triples(g))
        # graphs.pair_degrees reads the same degrees off g itself, a member of
        # the switching class other than the stored one with vertex 0 isolated
        assert pair_degrees(g.adjacency_bits()).tolist() == scan
        if g.n < 2:
            continue
        # is_regular against the same scan: the degree of (0, 1), or the first
        # pair in row-major order whose degree differs from it
        a = scan[0][1]
        first = next(((i, j) for i, j in combinations(range(g.n), 2) if scan[i][j] != a), None)
        if first is None:
            assert is_regular(t) == a and type(is_regular(t)) is int
        else:
            with pytest.raises(NotRegular) as e:
                is_regular(t)
            assert e.value.args == (first,) and all(type(x) is int for x in first)


def _unfiltered_witness(g, h):
    "reference: the first w, in order, whose descendant the search maps onto"
    g0 = two_graph_of(g).descendant_graph(0)
    th = two_graph_of(h)
    for w in range(h.n):
        perm = find_isomorphism(g0, th.descendant_graph(w))
        if perm is not None:
            return (w, perm)
    return None


def _switched_relabeled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.switch([v for v in range(g.n) if rng.random() < 0.5]).relabel(perm)


def _chang_class():
    "T(8) and the three Chang graphs, all (28, 12, 6, 4) and in one switching class"
    # T(8) switched on the vertices (pairs of K8) of a perfect matching, an
    # 8-cycle, and a 3-cycle plus a 5-cycle of K8
    t8 = build("Triangular", 8)  # vertices are the pairs in lexicographic order
    pairs = list(combinations(range(8), 2))
    matching = [(0, 1), (2, 3), (4, 5), (6, 7)]
    cycle8 = [(i, (i + 1) % 8) for i in range(8)]
    cycles35 = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)]
    return [t8] + [
        t8.switch([pairs.index(tuple(sorted(e))) for e in s]) for s in (matching, cycle8, cycles35)
    ]


def _paley_peisert(q):
    return _k1_plus(build("Paley", q)), _k1_plus(build("Peisert", q))


def _witness_cases():
    "(g, h, equivalent): graphs with rich or no automorphisms, and refutations"
    rng = random.Random(4711)
    cases = []
    for _ in range(30):  # few automorphisms: the search at w = 0 usually fails
        g = _rand_graph(rng, rng.randint(6, 14))
        cases.append((g, _switched_relabeled(rng, g), True))
    chang = _chang_class()
    cases += [(chang[0], _switched_relabeled(rng, g), True) for g in chang]
    for q in (9, 49, 81):
        a, b = _paley_peisert(q)
        cases += [(a, b, q == 9), (b, a, q == 9)]  # Paley(9) is Peisert(9)
    # 2C3 + C6: regular and not vertex-transitive, so refinement leaves its two
    # orbits in one colour class and an automorphism search can fail
    h = Graph(12, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
              + [(6 + i, 6 + (i + 1) % 6) for i in range(6)])
    cases += [(_switched_relabeled(rng, h), h, True) for _ in range(100)]
    return cases


def _recording_searches(monkeypatch, fail_automorphisms):
    "log each automorphism search of switching_equivalent as found or not"
    log = []

    def search(g, h, fixed=()):
        fail = fixed and fail_automorphisms
        perm = None if fail else find_isomorphism(g, h, fixed)
        if fixed:
            log.append(perm is not None)
        return perm

    monkeypatch.setattr(rank3etf.twographs, "find_isomorphism", search)
    return log


def _witness_counts(monkeypatch, fail_automorphisms):
    "check every witness against the plain loop; count late witnesses, fallbacks and orbits"
    log = _recording_searches(monkeypatch, fail_automorphisms)
    late = fallback = orbits = 0
    for g, h, equivalent in _witness_cases():
        log.clear()
        res = switching_equivalent(g, h)
        assert (res is not None) == equivalent, (g.rows, h.rows)
        assert res == _unfiltered_witness(g, h), (g.rows, h.rows)
        late += res is not None and res[0] > 0
        fallback += False in log
        orbits += True in log
        assert log.count(False) <= 1  # one failed automorphism search per decision
    return late, fallback, orbits


def test_filtered_witness_matches_plain_search(monkeypatch):
    # the orbits and the K4 filter skip only w whose descendant is isomorphic
    # to a refuted one, or fails the K4 count: the witness is unchanged
    late, fallback, orbits = _witness_counts(monkeypatch, False)
    assert late >= 40 and fallback >= 20 and orbits >= 20, (late, fallback, orbits)


def test_witness_matches_plain_search_when_automorphism_searches_fail(monkeypatch):
    # the first automorphism search of each decision fails, and the loop goes
    # on with the K4 filter and the orbits known so far (none)
    late, fallback, orbits = _witness_counts(monkeypatch, True)
    assert late >= 40 and fallback >= 20 and orbits == 0, (late, fallback, orbits)


def test_switching_equivalent_needs_a_vertex():
    with pytest.raises(ValueError, match="at least one vertex"):
        switching_equivalent(Graph(0, []), Graph(0, []))
    assert switching_equivalent(Graph(1, []), Graph(1, [])) == (0, [])
    assert switching_equivalent(Graph(2, [(0, 1)]), Graph(2, [])) == (0, [0])


def test_paley_vs_peisert(monkeypatch):
    p9, s9 = _paley_peisert(9)
    res = switching_equivalent(p9, s9)  # Paley(9) is Peisert(9)
    assert res is not None and res[0] == 0
    assert switching_equivalent(*_paley_peisert(81)) is None
    searches = []

    def counting(g, h, fixed=()):
        searches.append((h.n, fixed))
        return find_isomorphism(g, h, fixed)

    monkeypatch.setattr(rank3etf.twographs, "find_isomorphism", counting)
    for q in (49, 121):
        searches.clear()
        assert switching_equivalent(*_paley_peisert(q)) is None
        # one descendant search, at w = 0, the isolated vertex of K1+Peisert(q):
        # the K4 counts refute w = 1, and automorphisms of K1+Peisert(q) that
        # send 1 to another point put every point into the orbit of 1
        assert [n for n, fixed in searches if not fixed] == [q]
        auto = [(n, fixed) for n, fixed in searches if fixed]
        assert 1 <= len(auto) <= 3
        assert all(n == q + 1 and r == 1 for n, ((r, w),) in auto)


def _new_arrays_per_key(monkeypatch, arrays):
    "the number of arrays each filter key call adds to arrays, in call order"
    added = []

    def checked(g):
        before = len(arrays)
        key = iso.k4_pair_multiset(g)
        added.append(len(arrays) - before)
        return key

    monkeypatch.setattr(rank3etf.twographs, "k4_pair_multiset", checked)
    return added


def test_refutation_shares_the_k4_array_of_g0(monkeypatch):
    # the failed search at w = 0 computes the K4 arrays of g0 and h_0, the
    # filter key reads the one g0 keeps, and the K4 filter of w = 1 computes
    # h_1's: 3 arrays for K1+Paley(49) vs K1+Peisert(49), not 4
    arrays = []

    def counted(adj):
        arrays.append(adj.tobytes())
        return k4_counts(adj)

    monkeypatch.setattr("rank3etf.graphs.k4_counts", counted)
    added = _new_arrays_per_key(monkeypatch, arrays)
    assert switching_equivalent(*_paley_peisert(49)) is None
    assert len(arrays) == len(set(arrays)) == 3 and added == [0, 1]


def test_refutation_shares_the_common_neighbour_array_of_g0(monkeypatch):
    # the invariant check of the failed search at w = 0 computes the arrays
    # of g0 and h_0, the filter key reads the one g0 keeps, and the K4 filter
    # of w = 1 computes h_1's: 3 distinct arrays, not 4, each its graph's own
    arrays, real = [], Graph.common_neighbours

    def kept(g):
        c = real(g)
        if not any(c is a for a in arrays):  # a graph computes its array once
            arrays.append(c)
            assert np.array_equal(c, common_neighbour_counts(g.adjacency_bits()))
        return c

    g, h = _paley_peisert(49)  # built, and so certified, before the count starts
    monkeypatch.setattr(Graph, "common_neighbours", kept)
    added = _new_arrays_per_key(monkeypatch, arrays)
    assert switching_equivalent(g, h) is None
    assert len(arrays) == 3 and added == [0, 1]


def test_paley_vs_peisert_121():
    # the search at w = 0 fails after pruning its branches by K4 profile
    assert switching_equivalent(*_paley_peisert(121)) is None


def test_switching_bound(monkeypatch):
    g = build("Paley", 9)
    monkeypatch.setenv("ETF_RANK3_MAX_VERTICES", "5")
    with pytest.raises(ValueError, match="switching bound"):
        switching_equivalent(g, g)
