"""
Spherical embeddings of strongly regular graphs, ETF certification,
Naimark complements, descendant Gram matrices, and explicit character
vectors for the affine families.

The embedding Gram of a primitive SRG has unit diagonal, s/k on edges and
(-1-s)/(v-k-1) on non-edges; it always satisfies G^2 = (v/g) G. The frame
is a real ETF exactly when the two off-diagonal values have one absolute
value and G^2 = (M/N) G with N = rank G; certification checks both
identities exactly (proofs in verify_etf), and on success checks Welch
equality alpha^2 = (M-N)/(N(M-1)).  Both conditions are decidable from
parameters alone (criteria): equiangularity is s/k = -(-1-s)/(v-k-1), and
membership of the graph in a regular two-graph is v = 2(2k - lambda - mu).

Equiangularity is one whole-array check.  On an equiangular Gram
G = I + alpha S with alpha != 0, S the Seidel matrix of a graph, tightness
is the regular two-graph identity: one array of pair degrees and a few
scalars, with no M x M product.  A Gram that is not equiangular but has
two off-diagonal values a = G_01 and b is I + a A + b (J - I - A) for the
graph A of its entries equal to a, and G^2 = lambda G is read off the
degrees and common-neighbour counts of A in the same way (A must be
regular, and each distinct pair (A_ij, C_ij) is checked once).  Only
Grams with three or more values, the equiangular Grams with alpha = 0,
and the equiangular Grams failing their identity have G^2 formed and
compared; a two-valued Gram failing its identity takes its rank by
elimination alone.

The Naimark complement (M/(M-N)) (I - (N/M) G) swaps N for M - N and is an
involution.  For graphs with k = 2 mu, bordering the switched adjacency
matrix gives the descendant Gram I + (1/(1+2r)) [[0, 1^T], [1, J - I - 2A]]
with (M, N) = (v+1, g+1); the new vertex sits at index 0.  For the affine
families the frame is realized explicitly: column x has entries
(-1)^{B(x,z)} / sqrt(N) over the N nonsingular points z, and its Gram
reproduces the embedding Gram entrywise.
"""

from dataclasses import dataclass
from fractions import Fraction
import json

import numpy as np

from .graphs import Graph, pair_degrees, spectrum, srg_params
from .matrices import ExactMatrix, _lincomb, mat_mul, mat_rank
from .qext import QuadExt, _make, sqrt_int
from .quadspaces import polar_values, standard_space


@dataclass(frozen=True)
class GramMatrix:
    entries: ExactMatrix
    label: str = ""

    def __post_init__(self):
        m = self.entries
        if m.rows != m.cols:
            raise ValueError("Gram matrix must be square")
        # an entry (a + b sqrt(D)) / den is 1 iff a = den and b = 0
        if (m.A.diagonal() != m.den).any() or m.B.diagonal().any():
            raise ValueError("diagonal entry is not 1")
        if not (np.array_equal(m.A, m.A.T) and np.array_equal(m.B, m.B.T)):
            raise ValueError("Gram matrix must be symmetric")

    @property
    def M(self):
        return self.entries.rows

    def __getitem__(self, ij):
        return self.entries[ij]


@dataclass(frozen=True)
class EtfCertificate:
    M: int
    N: int
    alpha_sq: Fraction | None
    tight_const: Fraction
    status: str  # "ETF", "NotEquiangular", "NotTight"
    witness: tuple | None = None

    @property
    def is_etf(self):
        return self.status == "ETF"


def criteria(params):
    "parameter-level tests: equiangular embedding, regular two-graph membership"
    v, k, lam, mu = params.as_tuple()
    sp = spectrum(params)
    rbar = QuadExt(-1) - sp.s
    equiangular = sp.s * (v - k - 1) == -(rbar * k)  # s/k = -rbar/kbar
    two_graph = v == 2 * (2 * k - lam - mu)
    return {"equiangular": equiangular, "two_graph": two_graph}


def embedding_gram(g):
    "unit vectors on the eigenspace of s: 1 diagonal, s/k edges, rbar/kbar non-edges"
    p = srg_params(g)
    sp = spectrum(p)
    k, kbar = p.k, p.v - p.k - 1
    on_edge = sp.s / k
    off_edge = (QuadExt(-1) - sp.s) / kbar
    codes = g.adjacency_bits() + 2 * np.eye(g.n, dtype=np.uint8)
    return GramMatrix(ExactMatrix.from_codes(codes, (off_edge, on_edge, 1)), g.label)


def verify_etf(gm):
    """certify equiangularity and tightness exactly; witnesses are the first
    failing pair in row-major order.

    Equiangularity is entrywise.  Entries share one denominator, so each is
    (a + b sqrt(D)) / den, and e^2 = f^2 iff e = +-f in the field Q(sqrt(D)):
    every off-diagonal (a, b) must be +-(a, b) of entry (0, 1).

    Tightness is G^2 = lambda G with lambda = (G^2)_00 != 0.  G / lambda is
    then idempotent, so its rank is its trace, which is M as GramMatrix has
    checked the unit diagonal: N = M / lambda, and M / N = lambda, so
    G^2 = (M/N) G is the comparison already made.  If it fails, no c gives
    G^2 = c G, since (c G)_00 = c; elimination gives N, and the certificate
    is NotTight unless it is NotEquiangular.

    On an equiangular Gram with alpha = G_01 != 0 the comparison is made in
    the algebra of the Seidel matrix, with no matrix product.  There
    G = I + alpha S, where S has 0 diagonal and S_ij = -1 exactly on the
    entries equal to -alpha: a graph whose two-graph has pair degrees a_ij
    (graphs.pair_degrees).  {i, j, z} is a block iff S_ij S_iz S_jz = -1, so
    S_iz S_zj = -S_ij on the a_ij such z and S_ij on the other M - 2 - a_ij:
    (S^2)_ij = S_ij (M - 2 - 2 a_ij) for i != j, and (S^2)_ii = M - 1.  So
    G^2 = I + 2 alpha S + alpha^2 S^2 has diagonal lambda = 1 + alpha^2 (M - 1)
    and entry (i, j) equal to alpha S_ij (2 + alpha (M - 2 - 2 a_ij)), and as
    alpha S_ij != 0, G^2 = lambda G iff 2 + alpha (M - 2 - 2 a_ij) = lambda
    for every i != j: iff a_ij is one constant a (the two-graph is regular)
    and 2 + alpha (M - 2 - 2a) = 1 + alpha^2 (M - 1) (Seidel, "A survey of
    two-graphs", 1976).

    On a Gram that is not equiangular with two off-diagonal values, a = G_01
    and b, G = I + a A + b Abar: A is the graph of the entries equal to a,
    with degrees d, and Abar = J - I - A.  A^2 = C + diag(d), where C_ij is
    the number of common neighbours of i != j and C_ii = 0.  (Abar^2)_ij
    counts the z != i, j outside N(i) u N(j); that union has d_i + d_j - C_ij
    elements, i and j among them iff A_ij = 1, so
    (Abar^2)_ij = M - 2 - d_i - d_j + C_ij + 2 A_ij, and
    (Abar^2)_ii = M - 1 - d_i.  (A Abar)_ij counts the neighbours z != j of i
    that miss j, d_i - C_ij - A_ij, so (A Abar + Abar A)_ij =
    d_i + d_j - 2 C_ij - 2 A_ij, and its diagonal is 0.  So, with t = G_ij,
    G^2 = I + 2 a A + 2 b Abar + a^2 A^2 + b^2 Abar^2 + ab (A Abar + Abar A)
    has (G^2)_ii = 1 + a^2 d_i + b^2 (M - 1 - d_i) and
    (G^2)_ij = 2t + a^2 C_ij + b^2 (M - 2 - d_i - d_j + C_ij + 2 A_ij)
    + ab (d_i + d_j - 2 A_ij - 2 C_ij).  As b != +-a, a^2 != b^2, so the
    diagonal is constant iff A is regular, of degree k = d_0; then
    d_i + d_j = 2k and (G^2)_ij is a function of the key (A_ij, C_ij).  So
    G^2 = lambda G, lambda = (G^2)_00, is checked exactly once per distinct
    key, and N is M / lambda as above; the NotEquiangular witness needs no
    product.

    When the two-valued identity fails, it has proved that no c gives
    G^2 = c G, and the NotEquiangular certificate needs no NotTight witness:
    N is the rank, by elimination, with no product.  When the two-graph
    identity fails, on a Gram with three or more values and on an
    equiangular Gram with alpha = 0, the product G^2 is formed and compared
    as above, so the NotTight witness and the rank come from the matrices
    themselves.
    """
    m = gm.entries
    M = gm.M
    bad = ()
    lam = None  # set once an identity has proved G^2 = lam G
    two_valued = False  # not equiangular, with two values: its identity decides G^2 = c G
    if M > 1:
        a, b = m.A[0, 1], m.B[0, 1]
        pos, neg = m.A == a, m.A == -a
        if m.D:  # otherwise B is zero
            pos &= m.B == b
            neg &= m.B == -b
        np.fill_diagonal(neg, False)  # the diagonal 1 is -G_01 when G_01 = -1: no edge
        bad = np.argwhere(np.triu(~(pos | neg), 1))
        alpha = m[0, 1]
        if len(bad):
            ij = tuple(bad[0].tolist())
            two_valued = (pos | np.eye(M, dtype=bool) | (m.A == m.A[ij]) & (m.B == m.B[ij])).all()
            if two_valued:
                lam = _two_valued_lambda(m, pos, ij)
        elif alpha:
            lam = _two_graph_lambda(neg, alpha)
    tight = lam is not None
    if not tight and not two_valued:
        sq = mat_mul(m, m)
        lam = sq[0, 0] if M else QuadExt(0)
        tight = bool(lam) and sq == m.scale(lam)
    if tight:
        n = QuadExt(M) / lam  # tr G = M: GramMatrix has checked the unit diagonal
        if not n.is_rational() or n.as_fraction().denominator != 1:
            raise ValueError("tr G / lambda = %s is not an integer" % n)
        N = int(n.as_fraction())
    else:
        N = mat_rank(m)
    if not 1 <= N <= M:
        raise ValueError("rank %d outside 1..%d" % (N, M))
    c = Fraction(M, N)
    if len(bad):
        witness = ((0, 1), tuple(bad[0].tolist()))
        return EtfCertificate(M, N, None, c, "NotEquiangular", witness)
    if not tight:
        diff = sq - m.scale(c)
        bad = np.argwhere((diff.A != 0) | (diff.B != 0))
        return EtfCertificate(M, N, None, c, "NotTight", tuple(bad[0].tolist()))
    if M > 1:
        ref = alpha.sq()
        if not ref.is_rational():
            raise ValueError("squared inner products must be rational")
        alpha_sq = ref.as_fraction()
        if alpha_sq != Fraction(M - N, N * (M - 1)):
            raise ValueError("Welch equality fails")
    else:
        alpha_sq = Fraction(0)
    return EtfCertificate(M, N, alpha_sq, c, "ETF")


def _two_graph_lambda(neg, alpha):
    "lambda with G^2 = lambda G for G = I + alpha S, S = -1 on neg; None if the identity fails"
    M = len(neg)
    d = pair_degrees(neg)
    a = int(d[0, 1])
    np.fill_diagonal(d, a)  # no pair on the diagonal
    lam = 1 + alpha.sq() * (M - 1)
    if (d == a).all() and 2 + alpha * (M - 2 - 2 * a) == lam:
        return lam
    return None


def _two_valued_lambda(m, on, ij):
    """lambda with G^2 = lambda G for G = I + a A + b (J - I - A), A = on off the
    diagonal and b = G_ij != +-a; None if the identity fails, and then no c
    gives G^2 = c G"""
    M = m.rows
    eye = np.eye(M, dtype=bool)
    on = on & ~eye  # the diagonal 1 is G_01 when G_01 = 1: no loop
    c = Graph.from_adjacency(on).common_neighbours().astype(np.int64)
    k = int(c[0, 0])
    if (c.diagonal() != k).any():  # (G^2)_ii varies with d_i, as a^2 != b^2
        return None
    a, b = m[0, 1], m[ij]
    aa, bb, ab = a.sq(), b.sq(), a * b
    lam = 1 + aa * k + bb * (M - 1 - k)
    t = (b, a)
    # each distinct (A_ij, C_ij) over the pairs i != j once, as A_ij (M - 1) + C_ij
    keys = np.flatnonzero(np.bincount((on * (M - 1) + c)[~eye]))
    for e, cij in (divmod(x, M - 1) for x in keys.tolist()):
        sq = t[e] * 2 + aa * cij + bb * (M - 2 - 2 * k + cij + 2 * e) + ab * 2 * (k - e - cij)
        if sq != lam * t[e]:
            return None
    return lam


def naimark(gm, cert=None):
    "the (M, M-N) complement of an (M, N) ETF; an involution on ETF Grams"
    if cert is None:
        cert = verify_etf(gm)
    if not cert.is_etf:
        raise ValueError("Naimark complement needs an ETF input")
    M, N = cert.M, cert.N
    if N >= M:
        raise ValueError("complement needs N < M")
    # (M/(M-N)) I - (N/(M-N)) G with G = (A + B sqrt(D)) / den, as one matrix
    m = gm.entries
    eye = np.eye(M, dtype=np.int64)
    out = ExactMatrix(_lincomb((-N, m.A), (M * m.den, eye)), _lincomb((-N, m.B)),
                      m.den * (M - N), m.D)
    return GramMatrix(out, gm.label)


def descendant_gram(g):
    "border-and-switch Gram for a k = 2 mu graph: ETF with (M, N) = (v+1, g+1)"
    p = srg_params(g)
    if p.k != 2 * p.mu:
        raise ValueError("descendant Gram needs k = 2 mu")
    sp = spectrum(p)
    c = (QuadExt(1) + sp.r * 2).inverse()
    codes = np.zeros((p.v + 1, p.v + 1), dtype=np.uint8)
    codes[1:, 1:] = g.adjacency_bits()
    np.fill_diagonal(codes, 2)
    return GramMatrix(ExactMatrix.from_codes(codes, (c, -c, 1)), g.label)


def vo_vectors(n, kind):
    "character columns: entry (z, x) = (-1)^{B(x,z)} / sqrt(N), z nonsingular"
    if kind not in ("plus", "minus_comp"):
        raise ValueError("vo_vectors kind must be 'plus' or 'minus_comp', not %r" % (kind,))
    if n < 2:
        raise ValueError("vo_vectors needs n >= 2 for a primitive graph, not %r" % (n,))
    sp = standard_space(2, 2 * n, "plus" if kind == "plus" else "minus")
    qt = sp.q_table()
    points = np.flatnonzero(qt)  # q(0) = 0, so z = 0 is never among them
    xs = np.arange(4**n)
    N = len(points)
    want = 2 ** (n - 1) * (2**n + (-1 if kind == "plus" else 1))
    if N != want:
        raise ValueError("%d nonsingular vectors, expected %d" % (N, want))
    codes = polar_values(qt, points, xs)  # B(x, z)
    plus = sqrt_int(N).inverse()
    return ExactMatrix.from_codes(codes, (plus, -plus))


def gram_of_columns(mat):
    "Gram matrix of the columns of an explicit frame"
    return GramMatrix(mat_mul(mat.transpose(), mat))


# -- serialization --------------------------------------------------------------


def _frac_str(x):
    return "%d/%d" % (x.numerator, x.denominator)


def entry_strings(m, *index):
    "serialized entries of m, row-major or at index arrays; each distinct one serialized once"
    keys = list(zip(m.A[index].ravel().tolist(), m.B[index].ravel().tolist()))
    text = {k: _make(*k, m.den, m.D).serialize() for k in set(keys)}
    return [text[k] for k in keys]


def gram_to_json(gm, cert=None):
    if cert is None:
        cert = verify_etf(gm)
    m = gm.entries
    return json.dumps(
        {
            "M": gm.M,
            "N": cert.N,
            "D": m.D,
            "entries": entry_strings(m, *np.triu_indices(gm.M)),  # row-major upper triangle
            "certificate": {
                "status": cert.status,
                "M": cert.M,
                "N": cert.N,
                "alpha_sq": None if cert.alpha_sq is None else _frac_str(cert.alpha_sq),
                "tight_const": _frac_str(cert.tight_const),
                "witness": cert.witness,
            },
        },
        separators=(",", ":"),
    )


def gram_from_json(text):
    obj = json.loads(text)
    M = obj.get("M") if isinstance(obj, dict) else None
    if type(M) is not int or M < 1:  # a JSON true is a bool, not M = 1
        raise ValueError('Gram JSON needs a positive integer "M"')
    entries = obj.get("entries")
    if not (isinstance(entries, list) and all(isinstance(s, str) for s in entries)):
        raise ValueError('Gram JSON needs an "entries" list of strings')
    vals = [QuadExt.parse(s) for s in entries]
    want = M * (M + 1) // 2
    if len(vals) != want:
        raise ValueError("%d Gram entries, expected %d for M = %d" % (len(vals), want, M))
    rows = [[None] * M for _ in range(M)]
    it = iter(vals)
    for i in range(M):
        for j in range(i, M):
            rows[i][j] = rows[j][i] = next(it)
    return GramMatrix(ExactMatrix.from_rows(rows))
