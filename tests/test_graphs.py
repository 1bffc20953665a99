"""
Graphs on read-only 0/1 arrays, SRG certification with rejection witnesses,
and spectra.  Oracles: the pentagon (5,2,0,1), the Petersen graph (10,3,0,1)
with spectrum 3, 1^5, (-2)^4, and a conference spectrum with equal
multiplicities.
Parameter sets that pass SrgParams but have no valid spectrum raise.
Graph.from_rows rejects exactly what a reference pair scan rejects, with
the same first offending vertex or pair, and srg_params gives the results
and messages of the pair loop it replaced.  pack_rows inverts unpack_rows,
pack_words lays the rows out bit for bit as 64-bit words, and and_counts
matches a plain popcount, across the byte and word edges.  Every Graph
operation gives what the int-row code it replaced gives, on random graphs
across the word edges, and no write through adjacency_bits() or to the
array a graph was built from reaches the graph or its kept SrgParams.  The
common-neighbour and K4 arrays a graph keeps are read-only and narrow, equal
common_neighbour_counts and k4_counts on every table graph up to 300
vertices and on random graphs, and start empty on every graph an operation
returns; srg_params certifies on the kept common-neighbour array.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from rank3etf.families import build
from rank3etf.graphs import (
    Graph,
    NotStronglyRegular,
    SrgParams,
    and_counts,
    common_neighbour_counts,
    k4_counts,
    pack_rows,
    pack_words,
    spectrum,
    srg_params,
    unpack_rows,
)
from rank3etf.matrices import ExactMatrix, mat_mul
from rank3etf.tables import TABLE3_MENU, TABLE4_MENU
from rank3etf.qext import QuadExt


def _cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], "C%d" % n)


def _rand_graph(rng, n, p):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def _petersen():
    return build("Triangular", 5).complement()


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)], "P4")
    assert g.degree(1) == 2 and g.degree(0) == 1
    assert g.edge_count() == 3
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.neighbors(1) == [0, 2] or list(g.neighbors(1)) == [0, 2]
    assert g.adj(0, 1) and not g.adj(0, 2)
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])  # loop
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])  # endpoint out of range
    with pytest.raises(ValueError):
        Graph.from_rows([0b010, 0b000, 0b000])  # asymmetric


def _first_bad_row_pair(rows):
    "reference: the loop and pair scan that Graph.from_rows replaces"
    n = len(rows)
    for i, r in enumerate(rows):
        if not 0 <= r < 1 << n or (r >> i) & 1:
            return "loop or stray bit at %d" % i
    for i in range(n):
        for j in range(i + 1, n):
            if (rows[i] >> j) & 1 != (rows[j] >> i) & 1:
                return "asymmetric pair (%d, %d)" % (i, j)
    return None


def test_from_rows_matches_pair_scan():
    rng = random.Random(5150)
    for _ in range(400):
        n = rng.randint(0, 40)
        p = rng.random()
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        rows = list(Graph(n, edges).rows)
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            if n:
                i = rng.randrange(n)
                rows[i] ^= 1 << rng.randrange(n + rng.choice((0, 0, 0, 1)))
        want = _first_bad_row_pair(rows)
        if want is None:
            assert Graph.from_rows(rows).rows == tuple(rows)
        else:
            with pytest.raises(ValueError) as err:
                Graph.from_rows(rows)
            assert str(err.value) == want


def test_complement_switch_delete_relabel():
    g = _cycle(5)
    assert g.complement().complement() == g
    assert g.complement().edge_count() == 5 * 4 // 2 - 5
    assert g.switch([0, 2]).switch([0, 2]) == g
    assert g.switch([]) == g and g.switch(range(5)) == g
    d = g.delete_vertex(0)
    assert d.n == 4 and d.edge_count() == 3  # path 1-2-3-4
    rng = random.Random(99)
    perm = list(range(5))
    rng.shuffle(perm)
    h = g.relabel(perm)
    assert h.edge_count() == g.edge_count()
    for i, j in g.edges():
        assert h.adj(perm[i], perm[j])
    for bad in (lambda: g.switch([5]), lambda: g.delete_vertex(-1),
                lambda: g.relabel([0, 1, 2, 3, 3])):
        with pytest.raises(ValueError):
            bad()


def _bits(mask):
    "reference: indices of the set bits of mask, lowest first"
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# reference: the int-row operations of the Graph that stored one integer per
# vertex, bit j of rows[i] set iff i ~ j


def _row_complement(rows):
    mask = (1 << len(rows)) - 1
    return [mask ^ r ^ (1 << i) for i, r in enumerate(rows)]


def _row_switch(rows, subset):
    smask = 0
    for i in subset:
        smask |= 1 << i
    cmask = ((1 << len(rows)) - 1) ^ smask
    return [r ^ (cmask if (smask >> i) & 1 else smask) for i, r in enumerate(rows)]


def _row_delete_vertex(rows, x):
    low = (1 << x) - 1
    return [(r & low) | ((r >> (x + 1)) << x) for i, r in enumerate(rows) if i != x]


def _row_relabel(rows, perm):
    out = [0] * len(rows)
    for i, r in enumerate(rows):
        for j in _bits(r):
            out[perm[i]] |= 1 << perm[j]
    return out


def _row_edges(rows):
    return [(i, j) for i, r in enumerate(rows) for j in _bits(r >> (i + 1) << (i + 1))]


def test_array_operations_match_int_rows():
    rng = random.Random(2424)
    for n in list(range(71)) + [63, 64, 65] * 3:  # every n to 70, the word edge thrice more
        p = rng.random()
        g = _rand_graph(rng, n, p)
        rows = g.rows
        assert all(type(r) is int for r in rows)
        assert Graph.from_rows(rows) == g and hash(Graph.from_rows(rows)) == hash(g)
        assert Graph(n, _row_edges(rows)).rows == rows
        assert list(g.edges()) == _row_edges(rows)
        assert all(type(x) is int for e in g.edges() for x in e)
        assert [g.neighbors(i) for i in range(n)] == [list(_bits(r)) for r in rows]
        assert [g.degree(i) for i in range(n)] == [r.bit_count() for r in rows]
        assert g.edge_count() == sum(r.bit_count() for r in rows) // 2
        assert g.complement().rows == tuple(_row_complement(rows))
        subset = rng.sample(range(n), rng.randint(0, n))
        assert g.switch(subset).rows == tuple(_row_switch(rows, subset))
        perm = list(range(n))
        rng.shuffle(perm)
        assert g.relabel(perm).rows == tuple(_row_relabel(rows, perm))
        if n:
            x = rng.randrange(n)
            assert g.delete_vertex(x).rows == tuple(_row_delete_vertex(rows, x))
        if n >= 2:  # one flipped pair makes an unequal graph
            i, j = rng.sample(range(n), 2)
            flipped = list(rows)
            flipped[i] ^= 1 << j
            flipped[j] ^= 1 << i
            h = Graph.from_rows(flipped)
            assert h != g and h.rows == tuple(flipped)
            assert (h == g.switch(subset)) == (tuple(flipped) == g.switch(subset).rows)


def test_from_adjacency_checks_the_array():
    tri = np.ones((3, 3), dtype=np.uint8) - np.eye(3, dtype=np.uint8)
    assert Graph.from_adjacency(tri, "K3") == Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert Graph.from_adjacency(tri.astype(bool)) == Graph.from_adjacency(tri.tolist())
    for a, msg in (
        (np.zeros((2, 3)), r"shape \(2, 3\) is not square"),
        (np.zeros(4), r"shape \(4,\) is not square"),
        (tri + 2 * np.eye(3, dtype=np.uint8), "loop or stray bit at 0"),
        (np.where(tri == 1, 2, 0), "loop or stray bit at 0"),
        (tri + np.diag([0, 0, 0.5]), "loop or stray bit at 2"),
        (tri * [[1], [1], [0]], r"asymmetric pair \(0, 2\)"),
    ):
        with pytest.raises(ValueError, match=msg):
            Graph.from_adjacency(a)


def test_kept_srg_params_cannot_go_stale():
    a = build("Paley", 13).adjacency_bits().copy()
    g = Graph.from_adjacency(a)
    p = srg_params(g)
    with pytest.raises(ValueError, match="read-only"):
        g.adjacency_bits()[0, 1] = 1 - g.adjacency_bits()[0, 1]
    # the caller's array changes, the graph's copy does not
    a[0, 1] = a[1, 0] = 1 - a[0, 1]
    assert g == build("Paley", 13) and srg_params(g) is p
    with pytest.raises(NotStronglyRegular):
        srg_params(Graph.from_adjacency(a))
    for h in (g.complement(), g.switch([0]), g.delete_vertex(0), g.relabel(range(12, -1, -1))):
        assert not h.adjacency_bits().flags.writeable


def _kept_array_corpus():
    "every table graph up to 300 vertices, and seeded random graphs across the word edges"
    for fam, sizes in list(TABLE3_MENU) + list(TABLE4_MENU):
        for size in sizes:
            g = build(fam, size)
            if g.n <= 300:
                yield g
    rng = random.Random(3131)
    for n in (0, 1, 2, 9, 63, 64, 65, 130):
        yield _rand_graph(rng, n, rng.random())


def test_kept_pair_arrays_match_the_module_functions():
    for g in _kept_array_corpus():
        cn, e = g.common_neighbours(), g.k4()
        assert np.array_equal(cn, common_neighbour_counts(g.adjacency_bits())), g.label
        assert np.array_equal(e, k4_counts(g.adjacency_bits())), g.label
        # unsigned, and as narrow as the values allow
        for arr in (cn, e):
            assert arr.dtype == np.min_scalar_type(int(arr.max(initial=0))), g.label
        # kept: the same read-only arrays on every later call
        assert g.common_neighbours() is cn and g.k4() is e
        for arr in (cn, e):
            with pytest.raises(ValueError, match="read-only"):
                arr[0:1, 0:1] += 1


def test_graph_operations_keep_no_pair_arrays(monkeypatch, certifications):
    # every Graph that an operation returns computes its own arrays on the
    # first call, and neither array counts as a certification
    computed = []

    def counted(name, real):
        return lambda *args: computed.append(name) or real(*args)

    g = build("Paley", 13)
    g.common_neighbours(), g.k4()
    monkeypatch.setattr("rank3etf.graphs.and_counts", counted("popcounts", and_counts))
    monkeypatch.setattr("rank3etf.graphs.k4_counts", counted("k4", k4_counts))
    certifications.clear()
    for h in (
        g.complement(), g.switch([0, 5]), g.delete_vertex(3), g.relabel(range(12, -1, -1)),
        Graph.from_rows(g.rows), Graph.from_adjacency(g.adjacency_bits()),
    ):
        computed.clear()
        cn, e = h.common_neighbours(), h.k4()
        assert computed == ["popcounts", "k4", "popcounts"]  # k4_counts runs and_counts too
        assert h.common_neighbours() is cn and h.k4() is e and len(computed) == 3
        assert np.array_equal(cn, common_neighbour_counts(h.adjacency_bits()))
        assert np.array_equal(e, k4_counts(h.adjacency_bits()))
    assert certifications == []


def _words(masks, nbits):
    "the masks as rows of uint64 words, word w holding bits 64w .. 64w + 63"
    nwords = (nbits + 63) // 64
    return np.array(
        [[m >> 64 * w & (1 << 64) - 1 for w in range(nwords)] for m in masks], dtype=np.uint64
    ).reshape(len(masks), nwords)


def test_pack_rows_inverts_unpack_rows():
    rng = random.Random(31)
    for width in range(66):
        for n in (0, 1, 5):
            rows = [rng.getrandbits(width) if width else 0 for _ in range(n)]
            a = unpack_rows(rows, width)
            assert a.shape == (n, width) and a.dtype == np.uint8
            assert a.tolist() == [[r >> j & 1 for j in range(width)] for r in rows]
            assert pack_rows(a) == rows and pack_rows(a.astype(bool)) == rows
            assert all(type(r) is int for r in pack_rows(a))
            for b in (a, a.astype(bool)):
                w = pack_words(b)
                assert w.dtype == np.uint64 and w.shape == (n, (width + 63) // 64)
                assert np.array_equal(w, _words(rows, width))


def test_and_counts_match_naive_popcounts():
    rng = random.Random(32)
    for nbits in (0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200):
        masks = [rng.getrandbits(nbits) if nbits else 0 for _ in range(7)]
        masks[0] = (1 << nbits) - 1  # every word full
        got = and_counts(_words(masks, nbits))
        assert got.dtype == np.int64
        assert got.tolist() == [[(a & b).bit_count() for b in masks] for a in masks]
    assert and_counts(_words([], 70)).shape == (0, 0)
    # all-ones words at the edges of the narrow accumulator: 192 and 65472
    # fit 8 and 16 bits, 256 and 65536 do not
    for nwords in (3, 4, 1023, 1024):
        masks = [(1 << 64 * nwords) - 1, (1 << 64 * nwords - 1) - 1, 0]
        got = and_counts(_words(masks, 64 * nwords))
        assert got.dtype == np.int64
        assert got.tolist() == [[(a & b).bit_count() for b in masks] for a in masks]
    g = _petersen()
    c = common_neighbour_counts(g.adjacency_bits())
    assert np.array_equal(c, and_counts(_words(g.rows, g.n)))


def test_json_round_trip():
    g = _petersen()
    h = Graph.from_json(g.to_json())
    assert h == g and h.label == g.label
    assert json.loads(g.to_json())["v"] == 10


@pytest.mark.parametrize(
    "text",
    [
        '{"v":4,"edges":[[true,2],[2,3],[3,0],[0,true]]}',  # true is not vertex 1
        '{"v":true,"edges":[]}',
        '{"v":-1,"edges":[]}',
        '{"v":2.0,"edges":[]}',
        '{"v":3}',
        '{"v":3,"edges":[[0,1.0]]}',
        '{"v":3,"edges":[[0,1,2]]}',
        '{"v":3,"edges":[],"label":5}',  # complement() would call 5.endswith
        "[3]",
        "{not json",
        pytest.param("[" * 200000, id="deeply-nested"),  # json.loads: RecursionError
    ],
)
def test_from_json_rejects_malformed_documents(text):
    with pytest.raises(ValueError):
        Graph.from_json(text)


def test_srg_params_oracles():
    assert srg_params(_cycle(5)).as_tuple() == (5, 2, 0, 1)
    assert srg_params(_petersen()).as_tuple() == (10, 3, 0, 1)
    assert srg_params(build("Lattice", 3)).as_tuple() == (9, 4, 1, 2)


def test_srg_rejections():
    with pytest.raises(NotStronglyRegular, match="degree"):
        srg_params(Graph(4, [(0, 1), (1, 2), (2, 3)]))
    with pytest.raises(NotStronglyRegular, match="disconnected graph"):
        srg_params(Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
    with pytest.raises(NotStronglyRegular, match="complete"):
        srg_params(Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]))
    # complete multipartite K_{2,2,2}: strongly regular but mu = k, imprimitive
    k222 = Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6) if i % 3 != j % 3])
    with pytest.raises(NotStronglyRegular, match="complement"):
        srg_params(k222)
    with pytest.raises(NotStronglyRegular, match="varies"):
        srg_params(_cycle(6))
    with pytest.raises(NotStronglyRegular):
        srg_params(Graph(3, [(0, 1)]))


def _reference_srg_params(g):
    "reference: the pair loop that srg_params replaces"
    n = g.n
    if n < 4:
        raise NotStronglyRegular("too few vertices: %d" % n)
    rows = g.rows
    k = rows[0].bit_count()
    for i in range(1, n):
        if rows[i].bit_count() != k:
            raise NotStronglyRegular("degree differs at vertex %d" % i)
    lam = mu = None
    for i in range(n):
        ri = rows[i]
        for j in range(i + 1, n):
            c = (ri & rows[j]).bit_count()
            if (ri >> j) & 1:
                if lam is None:
                    lam = c
                elif lam != c:
                    raise NotStronglyRegular(
                        "common-neighbour count varies on edges: pair (%d, %d)" % (i, j)
                    )
            else:
                if mu is None:
                    mu = c
                elif mu != c:
                    raise NotStronglyRegular(
                        "common-neighbour count varies on non-edges: pair (%d, %d)"
                        % (i, j)
                    )
    if k == 0 or k == n - 1:
        raise NotStronglyRegular("complete or edgeless graph")
    if mu is None or mu == 0:
        raise NotStronglyRegular("disconnected graph")
    if mu == k:
        raise NotStronglyRegular("disconnected complement (complete multipartite)")
    return SrgParams(n, k, lam, mu)


def _srg_outcome(certify, g):
    try:
        return certify(g)
    except NotStronglyRegular as err:
        return str(err)


def _srg_corpus():
    rng = random.Random(2024)
    menus = list(TABLE3_MENU) + list(TABLE4_MENU) + [
        ("Triangular", (5, 6, 7, 8)), ("Lattice", (3, 4, 5))]
    for fam, sizes in menus:
        for size in sizes:
            g = build(fam, size)
            yield g
            yield g.complement()
    for n in range(0, 13):
        yield Graph(n, [])
        yield Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        if n >= 3:
            yield _cycle(n)
    for t in range(1, 5):  # m K_t, and its complement, the complete multipartite K_{m x t}
        for m in range(1, 5):
            g = Graph(m * t, [(i, j) for i in range(m * t) for j in range(i + 1, m * t)
                              if i // t == j // t])
            yield g
            yield g.complement()
    for _ in range(150):
        n = rng.randint(4, 40)
        # circulants are regular, so their failures reach the lambda and mu checks
        conn = {d for d in range(1, n // 2 + 1) if rng.random() < 0.4}
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if min(j - i, n - j + i) in conn])
        perm = list(range(n))
        rng.shuffle(perm)
        yield g.relabel(perm)
        p = rng.random()
        yield Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
    # a degree-preserving swap ab, cd -> ac, bd breaks lambda or mu somewhere
    for fam, size in (("Paley", 13), ("Lattice", 4), ("Triangular", 6), ("Peisert", 9)):
        g = build(fam, size)
        for _ in range(10):
            a, b = rng.choice(list(g.edges()))
            c, d = rng.choice(list(g.edges()))
            if len({a, b, c, d}) == 4 and not g.adj(a, c) and not g.adj(b, d):
                rest = set(g.edges()) - {(a, b), (c, d)}
                yield Graph(g.n, rest | {(a, c), (b, d)})


def test_srg_params_matches_pair_loop():
    outcomes = set()
    for g in _srg_corpus():
        want = _srg_outcome(_reference_srg_params, g)
        assert _srg_outcome(srg_params, g) == want, g
        kind = want.split(":")[0].rstrip("0123456789 ") if isinstance(want, str) else "srg"
        outcomes.add(kind)
    # every rejection message, and acceptance, is exercised
    assert outcomes == {
        "srg", "too few vertices", "degree differs at vertex",
        "common-neighbour count varies on edges", "common-neighbour count varies on non-edges",
        "complete or edgeless graph", "disconnected graph",
        "disconnected complement (complete multipartite)",
    }


def test_graph_operations_certify_afresh(certifications):
    # a kept SrgParams would be wrong for switch and delete_vertex, and is not
    # carried to relabel and complement either
    g = build("Paley", 13)
    p = srg_params(g)
    for h, want in (
        (g.relabel(list(range(12, -1, -1))), p),
        (g.complement(), p.complement()),
        (g.switch([0]), None),
        (g.delete_vertex(0), None),
    ):
        certifications.clear()
        if want is None:
            with pytest.raises(NotStronglyRegular):
                srg_params(h)
        else:
            assert srg_params(h) == want
        assert len(certifications) == 1


def test_failed_certification_is_not_kept(certifications):
    g = _cycle(6)
    for _ in range(2):
        with pytest.raises(NotStronglyRegular, match=r"varies on non-edges: pair \(0, 3\)"):
            srg_params(g)
    assert len(certifications) == 2


def test_certification_reads_the_kept_common_neighbour_array(monkeypatch):
    # srg_params certifies on common_neighbours(), so a certified graph that
    # is later searched, or a failure raised again, computes no second array
    popcounts = []
    monkeypatch.setattr(
        "rank3etf.graphs.and_counts", lambda w: popcounts.append(1) or and_counts(w)
    )
    g = build("Paley", 13)  # build certifies
    cn = g.common_neighbours()
    assert len(popcounts) == 1 and (cn.diagonal() == srg_params(g).k).all()
    c6 = _cycle(6)
    for _ in range(2):
        with pytest.raises(NotStronglyRegular):
            srg_params(c6)
    assert len(popcounts) == 2 and c6.common_neighbours() is c6.common_neighbours()


def test_srg_params_primitivity_guard():
    with pytest.raises(ValueError, match="primitive"):
        SrgParams(6, 4, 2, 4)  # mu = k
    with pytest.raises(ValueError, match="identity"):
        SrgParams(10, 3, 0, 2)  # identity fails


def test_complement_params():
    p = srg_params(_petersen())
    q = p.complement()
    assert q.as_tuple() == (10, 6, 3, 4)
    assert srg_params(_petersen().complement()).as_tuple() == q.as_tuple()
    assert q.complement() == p


def test_spectrum_petersen():
    sp = spectrum(srg_params(_petersen()))
    assert (sp.k, sp.f, sp.g) == (3, 5, 4)
    assert sp.r == QuadExt(1) and sp.s == QuadExt(-2)
    assert not sp.conference


def test_spectrum_conference():
    sp = spectrum(srg_params(build("Paley", 13)))
    assert sp.conference
    assert sp.f == sp.g == 6
    assert sp.r == QuadExt(Fraction(-1, 2), Fraction(1, 2), 13)
    assert sp.s == QuadExt(Fraction(-1, 2), Fraction(-1, 2), 13)


def test_spectrum_trace_identities_random_corpus():
    for fam, size in (("Paley", 9), ("Triangular", 6), ("Lattice", 4), ("Paley", 17)):
        p = srg_params(build(fam, size))
        sp = spectrum(p)
        assert QuadExt(p.k) + sp.r * sp.f + sp.s * sp.g == 0
        assert sp.f + sp.g + 1 == p.v


def test_spectrum_rejects_feasible_looking_parameters():
    # both pass the SrgParams checks; (7, 3, 1, 1) has irrational eigenvalues
    # +-sqrt(2) without trace zero, (15, 7, 3, 3) gives f = 21/4
    for params, reason in (
        (SrgParams(7, 3, 1, 1), "irrational case needs trace zero"),
        (SrgParams(15, 7, 3, 3), "multiplicity is not integral"),
    ):
        with pytest.raises(ValueError, match=reason):
            spectrum(params)


def test_adjacency_matrix_squares():
    # A^2 = k I + lam A + mu (J - I - A) checked matricially on the pentagon
    g = _cycle(5)
    a = ExactMatrix.from_codes(g.adjacency_bits(), (0, 1))
    p = srg_params(g)
    j = ExactMatrix.from_rows([[1] * 5 for _ in range(5)])
    i = ExactMatrix.identity(5)
    lhs = mat_mul(a, a)
    rhs = i.scale(p.k) + a.scale(p.lam) + (j - i - a).scale(p.mu)
    assert lhs == rhs
