"""
Simple graphs on read-only 0/1 adjacency arrays, with exact
strongly-regular certification.

A Graph on v vertices holds its v x v uint8 adjacency array, copied on
construction and marked read-only, and every other module reads that array
through adjacency_bits().  Each operation is one whole-array expression:
Seidel switching on S is an XOR with s_i XOR s_j for the 0/1 indicator s
of S, and the complement an XOR with J - I.  Rows of Python integers, bit j
of rows[i] set iff i ~ j, exist only at the edges: Graph.rows packs them on
each access and Graph.from_rows unpacks them.  Every popcount
operand is a 0/1 array packed by pack_words, the one place the word layout
is written (bit j of a row at bit j % 64 of zero-padded little-endian uint64
word j // 64), and and_counts(words) is the one popcount kernel.
A Graph keeps, in slots that every constructor and operation starts empty,
its SrgParams and two read-only pair arrays in the narrowest unsigned dtype
(widen them before arithmetic), common_neighbours() and k4(), each computed
on its first call.  srg_params certifies A^2 = kI + lambda A + mu (J - I - A)
on all pairs at once: it reads the degrees off the diagonal of
common_neighbours() and compares every edge and non-edge count with the
first of its class; a failure, raised afresh on each call, names the first
offending vertex, or the first offending pair in row-major order.

From (v, k, lambda, mu) the non-principal eigenvalues are the roots
r > s of xi^2 + (mu - lambda) xi + (mu - k) = 0, exact in Q(sqrt(disc))
with disc = (lambda - mu)^2 + 4(k - mu); multiplicities f, g follow from
trace(A) = 0 and must be positive integers (the half-case with irrational
r forces f = g = (v-1)/2).
"""

from dataclasses import dataclass
import json

import numpy as np

from .bounds import BUILD_VERTEX_BOUND, effective_bound
from .qext import QuadExt, sqrt_int


class NotStronglyRegular(ValueError):
    "raised with a human-readable reason and an offending vertex pair if any"


def unpack_rows(rows, n):
    "a (len(rows), n) numpy uint8 0/1 array holding bit j of rows[i] at [i, j]"
    nbytes = (n + 7) // 8
    buf = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def pack_words(a):
    "the rows of a 0/1 array as uint64 words, bit j of row i at bit j % 64 of word j // 64"
    n, nbits = a.shape
    words = np.zeros((n, 8 * ((nbits + 63) // 64)), dtype=np.uint8)
    words[:, : (nbits + 7) // 8] = np.packbits(a, axis=1, bitorder="little")
    return words.view("<u8")


def pack_rows(a):
    "the rows of a 0/1 array as integers, bit j of row i set iff a[i, j]; inverts unpack_rows"
    return [int.from_bytes(r.tobytes(), "little") for r in pack_words(a)]


def and_counts(words):
    """P[i, j] = popcount(words[i] & words[j]) as int64, for rows of uint64 words
    (pack_words), summed in the narrowest dtype that holds 64 * nwords"""
    n, nwords = words.shape
    c = np.zeros((n, n), dtype=np.min_scalar_type(64 * nwords))
    for w in words.T:
        c += np.bitwise_count(w[:, None] & w[None, :])
    return c.astype(np.int64)


def common_neighbour_counts(adj):
    "C[i, j] = |N(i) & N(j)| as an int64 numpy array, from the 0/1 adjacency array adj"
    return and_counts(pack_words(adj))


def pair_degrees(adj):
    """the n x n int64 array of the pair degrees of the two-graph of the graph
    with 0/1 adjacency array adj, 0 on the diagonal: s = d_i + d_j - 2 |N(i) & N(j)|,
    and n - s where i ~ j (proof in the twographs docstring)"""
    n = len(adj)
    c = common_neighbour_counts(adj)
    deg = c.diagonal()
    s = deg[:, None] + deg - 2 * c
    return np.where(adj, n - s, s)


def k4_counts(adj):
    """E[i, j] = edges inside N(i) & N(j) as int64, from the 0/1 array adj: bit e
    of T[u] is set iff both ends of edge e lie in N(u), so E[i, j] is the
    popcount of T[i] & T[j].  T is packed a block of rows at a time."""
    n = len(adj)
    s, v = np.nonzero(np.triu(adj, 1))  # the m edges, s < v
    t = np.empty((n, (len(s) + 63) // 64), dtype="<u8")
    step = max(1, (1 << 18) // max(len(s), 1))  # rows per block, about 256 KB each
    for lo in range(0, n, step):
        a = adj[lo : lo + step]
        t[lo : lo + step] = pack_words(a[:, s] & a[:, v])
    return and_counts(t)


def _kept(counts):
    "a read-only copy of a non-negative array in the narrowest unsigned dtype that holds it"
    out = counts.astype(np.min_scalar_type(int(counts.max(initial=0))))
    out.flags.writeable = False
    return out


class Graph:
    "simple undirected graph on its read-only 0/1 uint8 adjacency array"

    __slots__ = ("n", "_a", "label", "_params", "_cn", "_k4")

    def __init__(self, n, edges, label=""):
        a = np.zeros((n, n), dtype=np.uint8)
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError("bad edge (%r, %r)" % (i, j))
            a[i, j] = a[j, i] = 1
        self._store(a, label)

    @staticmethod
    def from_adjacency(a, label=""):
        "the graph on a read-only uint8 copy of the square symmetric 0/1 array a"
        g = Graph.__new__(Graph)
        g._store(a, label)
        return g

    def _store(self, a, label):
        "check that a is a square symmetric 0/1 array with a zero diagonal, and keep a copy"
        a = np.asarray(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency array of shape %r is not square" % (a.shape,))
        stray = ((a != 0) & (a != 1)).any(axis=1) | (a.diagonal() != 0)
        if stray.any():
            raise ValueError("loop or stray bit at %d" % np.flatnonzero(stray)[0])
        asym = a != a.T
        if asym.any():
            bad = np.argwhere(np.triu(asym, 1))  # row-major, so bad[0] is the first pair
            raise ValueError("asymmetric pair (%d, %d)" % tuple(bad[0]))
        self.n = len(a)
        self._a = a.astype(np.uint8)  # a copy, so no caller can change the graph
        self._a.flags.writeable = False
        self.label = label
        self._params = self._cn = self._k4 = None

    @staticmethod
    def from_rows(rows, label=""):
        "the graph whose rows[i] has bit j set iff i ~ j"
        n = len(rows)
        for i, r in enumerate(rows):
            if not 0 <= r < 1 << n or (r >> i) & 1:
                raise ValueError("loop or stray bit at %d" % i)
        return Graph.from_adjacency(unpack_rows(rows, n), label)

    @property
    def rows(self):
        "the adjacency as a tuple of integers, bit j of rows[i] set iff i ~ j"
        return tuple(pack_rows(self._a))

    def adj(self, i, j):
        return bool(self._a[i, j])

    def degree(self, i):
        return int(self._a[i].sum())

    def edge_count(self):
        return int(self._a.sum()) // 2

    def edges(self):
        "the pairs i < j with i ~ j, in row-major order"
        i, j = np.nonzero(np.triu(self._a, 1))
        return zip(i.tolist(), j.tolist())

    def neighbors(self, i):
        return np.flatnonzero(self._a[i]).tolist()

    def _vertex(self, x):
        if not 0 <= x < self.n:
            raise ValueError("vertex %r outside 0..%d" % (x, self.n - 1))
        return x

    def complement(self):
        lab = self.label
        lab = lab[:-5] if lab.endswith("_comp") else (lab + "_comp" if lab else "")
        return Graph.from_adjacency(self._a ^ ~np.eye(self.n, dtype=bool), lab)

    def switch(self, subset):
        "Seidel switching: flip all edges between subset and its complement"
        s = np.zeros(self.n, dtype=np.uint8)
        s[[self._vertex(i) for i in subset]] = 1
        return Graph.from_adjacency(self._a ^ s[:, None] ^ s, self.label)

    def delete_vertex(self, x):
        x = self._vertex(x)
        return Graph.from_adjacency(np.delete(np.delete(self._a, x, 0), x, 1), self.label)

    def relabel(self, perm):
        "perm[i] is the new name of old vertex i"
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of 0..%d" % (self.n - 1))
        old = np.argsort(perm)  # old[perm[i]] == i
        return Graph.from_adjacency(self._a[np.ix_(old, old)], self.label)

    def adjacency_bits(self):
        "the read-only 0/1 adjacency matrix as a numpy uint8 array, not a copy"
        return self._a

    def common_neighbours(self):
        "C[i, j] = |N(i) & N(j)|, kept: read-only narrow unsigned, widen before arithmetic"
        if self._cn is None:
            self._cn = _kept(common_neighbour_counts(self._a))
        return self._cn

    def k4(self):
        "E[i, j] = edges in N(i) & N(j), kept: read-only narrow unsigned, widen before arithmetic"
        if self._k4 is None:
            self._k4 = _kept(k4_counts(self._a))
        return self._k4

    def to_json(self):
        return json.dumps(
            {"v": self.n, "edges": sorted([i, j] for i, j in self.edges()), "label": self.label},
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(text):
        try:
            obj = json.loads(text)  # type(x) is int: a JSON true is a bool, not vertex 1
        except RecursionError:
            raise ValueError("graph JSON is nested too deeply") from None
        if not isinstance(obj, dict) or type(obj.get("v")) is not int or obj["v"] < 0:
            raise ValueError('graph JSON needs a non-negative integer "v"')
        cap = effective_bound(BUILD_VERTEX_BOUND)  # before the v x v array is allocated
        if obj["v"] > cap:
            raise ValueError("%d vertices exceeds the build bound %d" % (obj["v"], cap))
        edges = obj.get("edges")
        if not isinstance(edges, list):
            raise ValueError('graph JSON needs an "edges" list')
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
                raise ValueError("bad edge %r" % (e,))
        label = obj.get("label", "")
        if not isinstance(label, str):
            raise ValueError('graph JSON "label" must be a string')
        return Graph(obj["v"], [tuple(e) for e in edges], label)

    def __eq__(self, other):
        return isinstance(other, Graph) and np.array_equal(self._a, other._a)

    def __hash__(self):
        return hash((self.n, self._a.tobytes()))

    def __repr__(self):
        return "Graph(n=%d, edges=%d%s)" % (
            self.n,
            self.edge_count(),
            ", label=%r" % self.label if self.label else "",
        )


@dataclass(frozen=True)
class SrgParams:
    v: int
    k: int
    lam: int
    mu: int

    def __post_init__(self):
        v, k, lam, mu = self.v, self.k, self.lam, self.mu
        # 0 < mu keeps the graph connected, mu < k its complement
        if not (0 < k < v - 1 and 0 < mu < k):
            raise ValueError("parameters are not primitive")
        if k * (k - lam - 1) != (v - k - 1) * mu:
            raise ValueError("parameter identity fails")

    def complement(self):
        v, k, lam, mu = self.v, self.k, self.lam, self.mu
        return SrgParams(v, v - k - 1, v - 2 * k + mu - 2, v - 2 * k + lam)

    def as_tuple(self):
        return (self.v, self.k, self.lam, self.mu)


def srg_params(g):
    """certify strong regularity on all pairs; primitive SrgParams or
    NotStronglyRegular.  g keeps the SrgParams, so only its first call certifies."""
    if g._params is None:
        g._params = _certify(g)
    return g._params


def _certify(g):
    "the primitive SrgParams of g, checked on every pair, or NotStronglyRegular"
    n = g.n
    if n < 4:
        raise NotStronglyRegular("too few vertices: %d" % n)
    c = g.common_neighbours()  # the diagonal holds the degrees
    deg = c.diagonal()
    k = int(deg[0])
    uneven = np.flatnonzero(deg != k)
    if len(uneven):
        raise NotStronglyRegular("degree differs at vertex %d" % uneven[0])
    a = g.adjacency_bits().astype(bool)
    edges, non_edges = np.triu(a, 1), np.triu(~a, 1)
    # lambda and mu are the counts on the first edge and the first non-edge; a
    # class with no pair reads 0 and is rejected below as complete or edgeless
    lam, mu = (int(c[cls][0]) if cls.any() else 0 for cls in (edges, non_edges))
    bad = np.argwhere((edges & (c != lam)) | (non_edges & (c != mu)))
    if len(bad):  # row-major, so bad[0] is the first pair
        i, j = bad[0].tolist()
        raise NotStronglyRegular(
            "common-neighbour count varies on %s: pair (%d, %d)"
            % ("edges" if a[i, j] else "non-edges", i, j)
        )
    if k == 0 or k == n - 1:
        raise NotStronglyRegular("complete or edgeless graph")
    if mu == 0:
        raise NotStronglyRegular("disconnected graph")
    if mu == k:
        raise NotStronglyRegular("disconnected complement (complete multipartite)")
    return SrgParams(n, k, lam, mu)


@dataclass(frozen=True)
class Spectrum:
    "eigenvalues k > r > s with multiplicities 1, f, g"
    k: int
    r: QuadExt
    s: QuadExt
    f: int
    g: int

    @property
    def conference(self):
        return self.r.D != 0


def spectrum(params):
    v, k, lam, mu = params.as_tuple()
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    if disc <= 0:
        raise ValueError("discriminant must be positive")
    root = sqrt_int(disc)
    r = (QuadExt(lam - mu) + root) / 2
    s = (QuadExt(lam - mu) - root) / 2
    if not (r.sign() > 0 and s.sign() < 0):
        raise ValueError("primitive spectrum must straddle zero")
    if root.is_rational():
        fq = (QuadExt(-k) - s * (v - 1)) / (r - s)
        f = fq.as_fraction()
        if not (f.denominator == 1 and 0 < f < v):
            raise ValueError("multiplicity is not integral")
        f = int(f)
        g = v - 1 - f
    else:
        # irrational eigenvalues force equal multiplicities: the half case
        if 2 * k + (v - 1) * (lam - mu) != 0:
            raise ValueError("irrational case needs trace zero")
        if (v - 1) % 2 != 0:
            raise ValueError("irrational case needs an odd vertex count")
        f = g = (v - 1) // 2
    if QuadExt(k) + r * f + s * g != 0:
        raise ValueError("trace of A is not zero")
    if QuadExt(k * k) + r.sq() * f + s.sq() * g != QuadExt(v * k):
        raise ValueError("trace of A^2 is not vk")
    return Spectrum(k, r, s, f, g)
