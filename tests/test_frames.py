"""
ETF certification: parameter criteria, embedding Grams (always rank g with
G^2 = (v/g) G), exact equiangularity and tightness verdicts with witnesses,
Welch equality on every ETF, Naimark complements, bordered descendant Grams,
and explicit character frames matching their Grams entrywise.  verify_etf
gives the certificates of the Hadamard-square certifier it replaced, and
decides every ETF of the table menus by the regular two-graph identity, and
every tight two-valued rejection by the arrays of its pattern graph, with
no matrix product.
"""

import ast
from fractions import Fraction
import os
import random
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

import rank3etf
from rank3etf import families, frames
from rank3etf.families import build
from rank3etf.frames import (
    EtfCertificate,
    GramMatrix,
    criteria,
    descendant_gram,
    embedding_gram,
    gram_from_json,
    gram_of_columns,
    gram_to_json,
    naimark,
    verify_etf,
    vo_vectors,
)
from rank3etf.graphs import SrgParams, spectrum, srg_params
from rank3etf.matrices import ExactMatrix, mat_mul, mat_rank
from rank3etf.qext import QuadExt
from rank3etf.tables import TABLE3_MENU, TABLE4_MENU
from rank3etf.twographs import NotRegular, is_regular, two_graph_of_gram


def test_criteria_oracles():
    both = criteria(SrgParams(28, 15, 6, 10))  # embedding is a (28, 7) ETF
    assert both == {"equiangular": True, "two_graph": True}
    sp4 = criteria(SrgParams(15, 6, 1, 3))
    assert sp4 == {"equiangular": False, "two_graph": False}
    t7 = criteria(SrgParams(21, 10, 5, 4))
    assert t7 == {"equiangular": False, "two_graph": False}
    # conference graphs satisfy the two-graph count but not equiangularity
    p13 = criteria(SrgParams(13, 6, 2, 3))
    assert p13["equiangular"] is False


def test_gram_matrix_validation():
    with pytest.raises(ValueError, match="diagonal"):
        GramMatrix(ExactMatrix.from_rows([[1, 0], [0, 2]]))  # diagonal not 1
    with pytest.raises(ValueError, match="diagonal"):
        GramMatrix(ExactMatrix.from_rows([[1, 0], [0, QuadExt(1, 1, 2)]]))  # 1 + sqrt 2
    with pytest.raises(ValueError, match="square"):
        GramMatrix(ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))  # not square
    with pytest.raises(ValueError, match="symmetric"):
        GramMatrix(ExactMatrix.from_rows([[1, 2], [0, 1]]))
    gm = GramMatrix(ExactMatrix.identity(3), "I3")
    assert gm.M == 3 and gm[0, 0] == QuadExt(1)


def test_embedding_rank_and_tightness_always():
    # rank g and G^2 = (v/g) G hold for every primitive SRG, ETF or not
    for fam, size in (("Paley", 9), ("Paley", 13), ("Triangular", 7), ("Sp2n_2", 2)):
        g = build(fam, size)
        p = srg_params(g)
        sp = spectrum(p)
        gm = embedding_gram(g)
        assert mat_rank(gm.entries) == sp.g
        assert mat_mul(gm.entries, gm.entries) == gm.entries.scale(Fraction(p.v, sp.g))


def test_etf_certificates():
    for fam, size, want in (
        ("VOplus", 2, (16, 6, Fraction(1, 9))),
        ("NOminus2n_2_comp", 2, (10, 5, Fraction(1, 9))),
        ("G2_2_comp", None, (36, 21, Fraction(1, 49))),
        ("NOplus2n_2", 3, (28, 7, Fraction(1, 9))),
    ):
        cert = verify_etf(embedding_gram(build(fam, size)))
        assert cert.status == "ETF" and cert.is_etf
        assert (cert.M, cert.N, cert.alpha_sq) == want
        assert cert.alpha_sq == Fraction(cert.M - cert.N, cert.N * (cert.M - 1))
        assert cert.tight_const == Fraction(cert.M, cert.N)


def test_non_etf_witnesses():
    for fam, size in (("Sp2n_2", 2), ("Triangular", 7)):
        gm = embedding_gram(build(fam, size))
        cert = verify_etf(gm)
        assert cert.status == "NotEquiangular" and not cert.is_etf
        assert cert.alpha_sq is None
        (i0, j0), (i1, j1) = cert.witness
        assert gm[i0, j0].sq() != gm[i1, j1].sq()


def test_not_tight_branch():
    # an equiangular but non-tight Gram: unit diagonal, constant +1/3 off it
    third = Fraction(1, 3)
    m = ExactMatrix.from_rows(
        [[1 if i == j else third for j in range(4)] for i in range(4)]
    )
    cert = verify_etf(GramMatrix(m))
    assert cert.status == "NotTight"
    assert cert.witness is not None


def test_certificate_checks_survive_optimize():
    # python -O strips every assert; the verdicts (an ETF over Q(sqrt 5) by the
    # two-graph identity, and a Gram that fails it), the GF(4) count checks, the
    # quadratic-space kind, dimension and form-type checks, the field and
    # two-graph regularity checks, the family construction checks, the
    # isomorphism witness check and the input guards must rest on explicit checks
    script = """
import hashlib
import os
from fractions import Fraction
from rank3etf.families import build
from rank3etf.fields import Field, field
from rank3etf.frames import GramMatrix, descendant_gram, embedding_gram, naimark, verify_etf, vo_vectors
from rank3etf.graphs import Graph, SrgParams, spectrum
from rank3etf import families, iso
from rank3etf.matrices import ExactMatrix
from rank3etf.qext import QuadExt
from rank3etf.quadspaces import QuadraticSpace, standard_space
from rank3etf.twographs import is_regular, switching_equivalent, two_graph_of
print(__debug__)
c = verify_etf(embedding_gram(build("VOplus", 2)))
print(c.status, c.M, c.N, c.alpha_sq)
third = Fraction(1, 3)
m = ExactMatrix.from_rows([[1 if i == j else third for j in range(4)] for i in range(4)])
print(verify_etf(GramMatrix(m)).status)
d = descendant_gram(build("Paley", 5))
c = verify_etf(d)
print(d.entries.D, c.status, c.M, c.N, c.alpha_sq)
print(hashlib.sha256(repr(build("NOplusOdd_4", 2).rows).encode()).hexdigest())
p9 = build("Paley", 9)


def switch_over_bound():
    os.environ["ETF_RANK3_MAX_VERTICES"] = "5"  # replaces the switching bound 140
    try:
        switching_equivalent(p9, p9)
    finally:
        del os.environ["ETF_RANK3_MAX_VERTICES"]


for bad in (
    lambda: build("NOplusOdd_4", 0),
    lambda: field(12),
    lambda: Graph(3, [(1, 1)]),
    lambda: is_regular(two_graph_of(build("Paley", 13))),
    lambda: field(3**8),
    switch_over_bound,
    lambda: GramMatrix(ExactMatrix.from_rows([[1, 2], [0, 1]])),
    lambda: GramMatrix(ExactMatrix.from_rows([[1, 0], [0, 2]])),
    lambda: SrgParams(10, 3, 9, 9),
    lambda: naimark(embedding_gram(build("Sp2n_2", 2))),
    lambda: descendant_gram(build("VOplus", 2)),
    lambda: vo_vectors(13, "plus"),
    lambda: vo_vectors(2, "bogus"),
    lambda: vo_vectors(1, "plus"),
    lambda: spectrum(SrgParams(7, 3, 1, 1)),
    lambda: spectrum(SrgParams(15, 7, 3, 3)),
    lambda: QuadExt(0, 1, 12),
    lambda: QuadExt(0, 1, 5).as_fraction(),
    lambda: Field(4),
    lambda: QuadExt(0).inverse(),
    lambda: Field(2, 2, modulus=(0, 0, 1)),
    lambda: standard_space(2, 4, "hyperbolic"),
    lambda: standard_space(2, 3, "plus"),
    lambda: QuadraticSpace(field(2), 2, "minus", {(0, 1): 1}),
    lambda: families._paley(7),
    lambda: families._peisert(27),
):
    try:
        bad()
        print("accepted")
    except ValueError:
        print("ValueError")
    except ZeroDivisionError:
        print("ZeroDivisionError")
families._poly_gcd_gf2 = lambda a, b: 1  # a Golay generator of the wrong degree
try:
    families.golay_heptads()
    print("accepted")
except ValueError:
    print("ValueError")
# a bijection that is not an isomorphism: vertices 0 and 1 swapped
iso._search = lambda g, *args: [1, 0] + list(range(2, g.n))
try:
    print(iso.find_isomorphism(p9, p9))
except RuntimeError:
    print("RuntimeError")
"""
    paths = (str(Path(rank3etf.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    env.pop("ETF_RANK3_MAX_VERTICES", None)  # it would replace every default bound
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,  # a check that loops under -O fails instead of stalling the suite
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "False",
        "ETF 16 6 1/9",
        "NotTight",
        "5 ETF 6 3 1/5",
        # frozen NOplusOdd_4 2 rows, as in test_families.ROW_DIGESTS
        "d9fe24fcf07582379b320c376925df4ae53dda9af51f7406a117b1e941f77b4f",
    ] + ["ValueError"] * 19 + ["ZeroDivisionError"] + ["ValueError"] * 7 + ["RuntimeError"]


def test_no_assert_statements_in_src():
    # python -O strips them, so every check in the package must raise instead
    pkg = Path(rank3etf.__file__).resolve().parent
    found = [
        (path.name, node.lineno)
        for path in sorted(pkg.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_word_layout_is_written_only_in_graphs():
    # graphs.pack_words packs every popcount operand; no other module may
    # spell out the bytes or the dtype of its words
    banned = {"packbits", "unpackbits", "frombuffer", "to_bytes", "from_bytes", "<u8"}
    pkg = Path(rank3etf.__file__).resolve().parent
    found = [
        (path.name, node.lineno)
        for path in sorted(pkg.glob("*.py"))
        if path.name != "graphs.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id in banned
        or isinstance(node, ast.Attribute) and node.attr in banned
        or isinstance(node, ast.alias) and node.name in banned
        or isinstance(node, ast.Constant) and node.value in banned
    ]
    assert found == []


def test_pair_arrays_are_computed_only_in_graphs():
    # every other module asks a Graph for its kept arrays (common_neighbours,
    # k4), so one module decides how and when they are computed
    banned = {"common_neighbour_counts", "k4_counts"}
    pkg = Path(rank3etf.__file__).resolve().parent
    found = [
        (path.name, node.lineno)
        for path in sorted(pkg.glob("*.py"))
        if path.name != "graphs.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id in banned
        or isinstance(node, ast.Attribute) and node.attr in banned
        or isinstance(node, ast.alias) and node.name in banned
    ]
    assert found == []


# public functions and methods that no src/ module, perfbench/ script or
# README library example names, each kept for a reason of its own
UNREACHED_ALLOWED = {
    # the reader of the JSON that export-gram writes, in rank3etf.__all__
    "frames.gram_from_json",
    # the two-graph of a Gram's sign graph, in rank3etf.__all__
    "twographs.two_graph_of_gram",
    # the matrices arithmetic API, which the Python-int differential tests exercise
    "matrices.ExactMatrix.identity",
    "matrices.ExactMatrix.zero",
    # a small accessor the tests read degrees with, test_acceptance among them
    "graphs.Graph.degree",
}


def _referenced_names(tree):
    "every identifier a module reads: names, attributes and imported names"
    return {
        node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
        else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }


def test_every_public_function_is_reached():
    # a public function or method must be named somewhere in the package
    # outside its own definition (the re-exports of __init__ do not count), in
    # perfbench/, or in the README's library example; a name matches any
    # attribute of that name, so this finds names that nothing calls at all
    pkg = Path(rank3etf.__file__).resolve().parent
    root = pkg.parent.parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(pkg.glob("*.py"))}
    reached = set().union(*(_referenced_names(t) for m, t in trees.items() if m != "__init__"))
    for path in sorted((root / "perfbench").glob("*.py")):
        reached |= _referenced_names(ast.parse(path.read_text()))
    readme = (root / "README.md").read_text()
    example = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    reached |= _referenced_names(ast.parse(example))
    public = {}  # "module.Class.name" or "module.name" -> name
    for module, tree in trees.items():
        for node in tree.body:
            inner, prefix = [node], module + "."
            if isinstance(node, ast.ClassDef):
                inner, prefix = node.body, "%s.%s." % (module, node.name)
            for d in inner:
                if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"):
                    public[prefix + d.name] = d.name
    assert {full for full, name in public.items() if name not in reached} == UNREACHED_ALLOWED


def test_welch_bound_is_strict_off_etf():
    # max squared inner product strictly above (M-N)/(N(M-1)) for a non-ETF
    g = build("Triangular", 7)
    gm = embedding_gram(g)
    cert = verify_etf(gm)
    M, N = cert.M, cert.N
    welch = QuadExt(Fraction(M - N, N * (M - 1)))
    worst = max(
        (gm[i, j].sq() for i in range(M) for j in range(i + 1, M)),
        key=lambda x: (x - welch).sign(),
    )
    assert worst > welch


def test_naimark_complement():
    gm = embedding_gram(build("VOplus", 2))
    cert = verify_etf(gm)
    nm = naimark(gm, cert)
    ncert = verify_etf(nm)
    assert (ncert.M, ncert.N) == (cert.M, cert.M - cert.N)
    assert ncert.is_etf
    back = naimark(nm, ncert)
    assert back.entries == gm.entries  # involution, byte-exact
    with pytest.raises(ValueError, match="needs an ETF"):
        naimark(embedding_gram(build("Sp2n_2", 2)))  # not an ETF


def _reference_naimark(gm, cert):
    "the complement as it was built before: G scaled, plus I scaled"
    M, N = cert.M, cert.N
    out = gm.entries.scale(Fraction(-N, M - N)) + ExactMatrix.identity(M).scale(Fraction(M, M - N))
    return GramMatrix(out, gm.label)


def test_naimark_matches_reference():
    corpus = list(_table_grams(max_points=176))  # table3 up to 176 points, every table4 Gram
    corpus.append(GramMatrix(ExactMatrix.from_rows(  # a (6, 1) ETF whose complement has den 5
        [[1] * 6 for _ in range(6)])))
    irrational = 0
    for gm in corpus:
        cert = verify_etf(gm)
        got, want = naimark(gm, cert).entries, _reference_naimark(gm, cert).entries
        assert (got.den, got.D, got.A.dtype, got.B.dtype) == (want.den, want.D, want.A.dtype,
                                                               want.B.dtype)
        assert np.array_equal(got.A, want.A) and np.array_equal(got.B, want.B)
        assert naimark(naimark(gm, cert)).entries == gm.entries
        irrational += gm.entries.D != 0
    assert irrational >= 1  # the Paley descendants over Q(sqrt q)


def test_descendant_gram():
    g = build("Sp2n_2", 2)  # (15, 6, 1, 3) has k = 2 mu
    p = srg_params(g)
    dgm = descendant_gram(g)
    cert = verify_etf(dgm)
    assert cert.is_etf
    assert (cert.M, cert.N) == (p.v + 1, spectrum(p).g + 1) == (16, 6)
    assert cert.alpha_sq == Fraction(1, 9)
    # appended vertex sits at index 0 with constant inner products
    c = dgm[0, 1]
    assert all(dgm[0, j] == c for j in range(1, dgm.M))
    with pytest.raises(ValueError, match="k = 2 mu"):
        descendant_gram(build("VOplus", 2))  # k != 2 mu


def test_conference_descendant():
    g = build("Paley", 13)
    cert = verify_etf(descendant_gram(g))
    assert cert.is_etf and (cert.M, cert.N) == (14, 7)
    assert cert.alpha_sq == Fraction(1, 13)


def test_vo_vectors_match_embedding():
    for n, kind, fam in ((2, "plus", "VOplus"), (2, "minus_comp", "VOminus_comp")):
        mat = vo_vectors(n, kind)
        g = build(fam, n)
        assert (mat.rows, mat.cols) == (spectrum(srg_params(g)).g, g.n)
        got = gram_of_columns(mat)
        want = embedding_gram(g)
        assert got.entries == want.entries


def test_vo_vectors_rejects_bad_arguments():
    for n, kind in ((2, "bogus"), (1, "plus"), (1, "minus_comp"), (13, "plus")):
        with pytest.raises(ValueError, match="vo_vectors|ambient bound"):
            vo_vectors(n, kind)


def test_vo_vectors_unit_columns():
    mat = vo_vectors(2, "plus")
    for j in range(mat.cols):
        norm = QuadExt(0)
        for i in range(mat.rows):
            norm = norm + mat[i, j].sq()
        assert norm == QuadExt(1)


def test_gram_json_round_trip():
    import json

    gm = embedding_gram(build("Paley", 13))  # irrational entries
    text = gram_to_json(gm)
    assert gram_from_json(text).entries == gm.entries
    obj = json.loads(text)
    assert obj["certificate"]["status"] == "NotEquiangular"
    assert obj["D"] == 13

    gm2 = embedding_gram(build("VOplus", 2))
    cert2 = verify_etf(gm2)
    text2 = gram_to_json(gm2, cert2)
    back2 = gram_from_json(text2)
    assert back2.entries == gm2.entries
    obj2 = json.loads(text2)
    assert obj2["certificate"]["status"] == "ETF"
    assert (obj2["M"], obj2["N"]) == (16, 6)
    assert gram_to_json(back2, cert2) == text2  # byte-stable
    # a zero denominator is a bad scalar string, not a ZeroDivisionError
    for entry in ("1/0", "1/1+1/0*sqrt(5)"):
        bad = json.dumps({"M": 1, "entries": [entry]})
        with pytest.raises(ValueError, match="bad scalar string"):
            gram_from_json(bad)


@pytest.mark.parametrize(
    "text",
    [
        '{"M":-1,"entries":[]}',  # not a 0 x 0 Gram
        '{"M":0,"entries":[]}',  # a 0 x 0 Gram has no rank to certify
        '{"M":true,"entries":["1"]}',  # true is not M = 1
        '{"entries":[]}',
        '{"M":"2","entries":["1","0","1"]}',
        '{"M":1,"entries":[1]}',
        '{"M":1,"entries":"1"}',
        '{"M":1}',
        '{"M":2,"entries":["1"]}',
        "[1]",
        "{not json",
    ],
)
def test_gram_from_json_rejects_malformed_documents(text):
    with pytest.raises(ValueError):
        gram_from_json(text)


# -- verify_etf against the certifier it replaced ---------------------------------


def _reference_verify_etf(gm):
    "reference: squares of QuadExt entries, and the tightness comparison made twice"
    m = gm.entries
    M = gm.M
    sq = mat_mul(m, m)
    lam = sq[0, 0] if M else QuadExt(0)
    if lam and sq == m.scale(lam):
        n = QuadExt(M) / lam
        if not n.is_rational() or n.as_fraction().denominator != 1:
            raise ValueError("tr G / lambda = %s is not an integer" % n)
        N = int(n.as_fraction())
    else:
        N = mat_rank(m)
    if not 1 <= N <= M:
        raise ValueError("rank %d outside 1..%d" % (N, M))
    c = Fraction(M, N)
    entries = m.entries
    squares = {q: q.sq() for q in set(entries)}
    if M > 1:
        ref = squares[entries[1]]
        bad = next(((i, j) for i in range(M) for j in range(i + 1, M)
                    if squares[entries[i * M + j]] != ref), None)
        if bad:
            return EtfCertificate(M, N, None, c, "NotEquiangular", ((0, 1), bad))
    want = m.scale(c)
    if sq != want:
        first = next(t for t, x in enumerate((sq - want).entries) if x)
        return EtfCertificate(M, N, None, c, "NotTight", divmod(first, M))
    if M > 1:
        if not ref.is_rational():
            raise ValueError("squared inner products must be rational")
        alpha_sq = ref.as_fraction()
        if alpha_sq != Fraction(M - N, N * (M - 1)):
            raise ValueError("Welch equality fails")
    else:
        alpha_sq = Fraction(0)
    return EtfCertificate(M, N, alpha_sq, c, "ETF")


def _table_grams(max_points=176):
    "every table Gram up to max_points points, or every one for None"
    for fam, sizes in TABLE3_MENU:
        for size in sizes:
            if max_points is None or families.expected_params(fam, size).v <= max_points:
                yield embedding_gram(build(fam, size))
    for fam, sizes in TABLE4_MENU:
        for size in sizes:
            yield descendant_gram(build(fam, size))


def _complement_grams(max_points=176):
    "the embedding Grams of the complements of the table graphs up to max_points points"
    for fam, sizes in TABLE3_MENU + TABLE4_MENU:
        for size in sizes:
            if families.expected_params(fam, size).v <= max_points:
                yield embedding_gram(build(fam, size).complement())


def _random_gram(rng, M, values):
    "unit diagonal, off-diagonal entries drawn from values"
    rows = [[QuadExt(1)] * M for _ in range(M)]
    for i in range(M):
        for j in range(i + 1, M):
            rows[i][j] = rows[j][i] = rng.choice(values)
    return GramMatrix(ExactMatrix.from_rows(rows))


def _random_grams(rng):
    for D in (0, 5):
        for den in (1, 3, 2**64 + 3):  # den > 2^62 stores A as Python ints
            for _ in range(50):
                M = rng.randint(1, 8)
                e = QuadExt(Fraction(rng.randint(-3, 3), den),
                            Fraction(rng.randint(-2, 2), den) if D else 0, D)
                f = QuadExt(Fraction(rng.randint(-3, 3), den), 0, D)
                # +-e alone is equiangular; adding f is usually not
                yield _random_gram(rng, M, (e, -e) if rng.random() < 0.5 else (e, -e, f))


def _two_valued_grams(rng):
    "two off-diagonal values on random patterns, which are almost never strongly regular"
    for D in (0, 5):
        for den in (1, 3, 2**64 + 3):
            for _ in range(20):
                a = QuadExt(Fraction(rng.randint(-3, 3), den),
                            Fraction(rng.randint(-2, 2), den) if D else 0, D)
                b = QuadExt(Fraction(rng.randint(-3, 3), den), 0, D)
                yield _random_gram(rng, rng.randint(3, 10), (a, b))


def _signed_relabel(rng, gm):
    "D G D with a random signature D, then a random relabeling: ETF stays ETF"
    M = gm.M
    perm = list(range(M))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(M)]
    rows = [gm.entries.row(perm[i]) for i in range(M)]
    return GramMatrix(ExactMatrix.from_rows(
        [[rows[i][perm[j]] * (sign[i] * sign[j]) for j in range(M)] for i in range(M)]))


def _certify_outcome(certify, gm):
    "(text, status): repr also tells a Python int witness from a numpy one"
    try:
        cert = certify(gm)
    except ValueError as err:
        return "ValueError: %s" % err, None
    return repr(cert), cert.status


def _constant_gram(M, value):
    "unit diagonal, every off-diagonal entry equal to value"
    return GramMatrix(ExactMatrix.from_rows(
        [[1 if i == j else value for j in range(M)] for i in range(M)]))


def _tightness_branch(gm, status):
    "which case of verify_etf's tightness check gm falls in, read off the reference verdict"
    if status is None:
        return status
    if status == "NotEquiangular":
        m = gm.entries
        off = ~np.eye(gm.M, dtype=bool)
        if len(set(zip(m.A[off].tolist(), m.B[off].tolist()))) > 2:
            return "three or more values"
        sq = mat_mul(m, m)
        return "two values, identity " + ("holds" if sq == m.scale(sq[0, 0]) else "fails")
    if gm.M < 2:
        return "M < 2"
    if not gm[0, 1]:
        return "alpha = 0"
    try:
        is_regular(two_graph_of_gram(gm))
    except NotRegular:
        return "pair degrees vary"
    return "identity holds" if status == "ETF" else "identity fails"


def test_verify_etf_matches_reference(monkeypatch):
    rng = random.Random(1729)
    corpus = []
    for gm in _table_grams():
        corpus += [gm, naimark(gm)]
    corpus += [_signed_relabel(rng, gm) for gm in corpus if gm.M <= 40]
    # every Paley and Peisert q up to 89: two angles, so NotEquiangular
    corpus += [embedding_gram(build("Paley", q))
               for q in (5, 9, 13, 17, 25, 29, 37, 41, 49, 53, 61, 73, 81, 89)]
    corpus += [embedding_gram(build("Peisert", q)) for q in (9, 49, 81)]
    corpus += list(_complement_grams())
    corpus += list(_random_grams(rng))
    corpus += list(_two_valued_grams(rng))
    huge = Fraction(1, 2**64 + 3)  # den > 2^62 stores the Gram as Python ints
    corpus += [
        _constant_gram(4, Fraction(1, 3)),  # constant pair degree 0, identity fails
        _constant_gram(4, huge),
        _constant_gram(5, -1),  # -J + 2I: its square is not a multiple of it
        _constant_gram(6, 1),  # J, a (6, 1) ETF
        GramMatrix(ExactMatrix.identity(5)),  # alpha = 0: a (5, 5) ETF by the product
        _constant_gram(2, -1),  # M = 2
        _constant_gram(2, Fraction(1, 2)),
        _constant_gram(3, QuadExt(0, Fraction(1, 3), 5)),
        # J on each of two blocks of 3: tight on the imprimitive pattern 2 K3, N = 2
        GramMatrix(ExactMatrix.from_rows(
            [[int(i // 3 == j // 3) for j in range(6)] for i in range(6)])),
        # I + C6 / 2: a regular pattern whose common-neighbour counts vary
        GramMatrix(ExactMatrix.from_rows([[1 if i == j else Fraction(int((i - j) % 6 in (1, 5)), 2)
                                           for j in range(6)] for i in range(6)])),
        GramMatrix(ExactMatrix.from_rows([  # three values
            [1, Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 2), 1, 0], [Fraction(1, 3), 0, 1]])),
        descendant_gram(build("Paley", 5)),  # a (6, 3) ETF over Q(sqrt 5)
        naimark(descendant_gram(build("Paley", 5))),
    ]
    products = []  # the mat_mul calls of one verify_etf
    real = frames.mat_mul
    monkeypatch.setattr(frames, "mat_mul", lambda x, y: products.append(x) or real(x, y))
    seen = set()
    for gm in corpus:
        products.clear()
        got = _certify_outcome(verify_etf, gm)[0]
        want, status = _certify_outcome(_reference_verify_etf, gm)
        assert got == want
        branch = _tightness_branch(gm, status)
        # an identity decides exactly the Grams that satisfy it: the two-graph
        # identity the ETFs it covers, the two-valued one the tight
        # non-equiangular Grams; every other Gram forms the product G^2
        assert bool(products) == (branch not in ("identity holds", "two values, identity holds"))
        seen.add((status, branch, gm.entries.D, gm.entries.A.dtype == object))
    # every verdict over Q and over Q(sqrt 5), and both rejections on Python ints
    for status in ("ETF", "NotEquiangular", "NotTight"):
        for D in (0, 5):
            assert any(key[0] == status and key[2] == D and not key[3] for key in seen)
    for status in ("NotEquiangular", "NotTight"):
        assert any(key[0] == status and key[3] for key in seen)
    # every branch of the tightness check; those with alpha != 0 over Q(sqrt 5)
    # and, where no ETF exists, on Python ints
    branches = ("M < 2", "alpha = 0", "pair degrees vary", "identity holds", "identity fails")
    for branch in branches:
        assert any(key[1] == branch and key[2] == 0 for key in seen), branch
    for branch in branches[2:]:
        assert any(key[1] == branch and key[2] == 5 for key in seen), branch
    for branch in ("pair degrees vary", "identity fails"):
        assert any(key[1] == branch and key[3] for key in seen), branch
    # every case of a Gram that is not equiangular, over Q and Q(sqrt 5), and
    # on Python ints where the identity can fail
    values = ("three or more values", "two values, identity holds", "two values, identity fails")
    for branch in values:
        for D in (0, 5):
            assert any(key[1] == branch and key[2] == D for key in seen), (branch, D)
    for branch in (values[0], values[2]):
        assert any(key[1] == branch and key[3] for key in seen), branch
    assert any(b == "alpha = 0" and s == "ETF" for s, b, _, _ in seen)


def _matrix_work(monkeypatch, gm):
    "verify_etf(gm), the shapes of the ExactMatrix objects it built, and its mat_mul/mat_rank calls"
    shapes, calls = [], []
    real_init = ExactMatrix.__init__

    def counting(self, A, B, den, D):
        shapes.append(A.shape)
        real_init(self, A, B, den, D)

    monkeypatch.setattr(ExactMatrix, "__init__", counting)
    for name in ("mat_mul", "mat_rank"):
        real = getattr(frames, name)
        monkeypatch.setattr(
            frames, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    cert = verify_etf(gm)
    monkeypatch.undo()
    return cert, shapes, calls


def test_etf_certificate_forms_no_matrix(monkeypatch):
    etfs = ((embedding_gram(build("NOplus2n_2", 3)), 0), (descendant_gram(build("Paley", 13)), 13))
    for gm, D in etfs:
        cert, shapes, calls = _matrix_work(monkeypatch, gm)
        assert cert.is_etf and gm.entries.D == D
        assert (shapes, calls) == ([], [])
    # a tight two-valued rejection is decided by the pattern graph's arrays
    cert, shapes, calls = _matrix_work(monkeypatch, embedding_gram(build("Sp2n_2", 2)))
    assert cert.status == "NotEquiangular" and cert.N == 5
    assert (shapes, calls) == ([], [])  # tight: N is the trace
    # a Gram failing its identity still builds G^2 and lambda G
    cert, shapes, calls = _matrix_work(monkeypatch, _constant_gram(4, Fraction(1, 3)))
    assert cert.status == "NotTight"
    assert shapes[:2] == [(4, 4)] * 2 and calls == ["mat_mul", "mat_rank"]


def test_menu_etfs_form_no_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("an ETF certificate formed a product or an elimination")

    monkeypatch.setattr(frames, "mat_mul", refuse)
    monkeypatch.setattr(frames, "mat_rank", refuse)
    count = 0
    for gm in _table_grams(max_points=None):  # the 496-point row too
        cert = verify_etf(gm)
        assert cert.is_etf and verify_etf(naimark(gm, cert)).is_etf
        count += 1
    assert count == 15 + 13
