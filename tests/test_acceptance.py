"""
End-to-end acceptance run.  Each test prints one [PASS]/[FAIL] line.

Checked, with every number frozen here from independent eigenvalue
computations rather than read back from the library:

  1. the full table3 menu builds, certifies, and matches frozen
     (v, k, lambda, mu) and (M, N, M-N) for all fifteen instances;
  2. the 496-vertex embedding has every off-diagonal entry exactly +-1/15
     and certifies as a (496, 155) ETF;
  3. the full table4 menu (thirteen certified rows, three parameter-only
     rows) matches frozen (M, N);
  4. two one-angle failures are rejected with witnesses and violate the
     Welch bound strictly;
  5. the registry isomorphism coincidences hold with explicit bijections;
  6. every certified Gram satisfies G^2 = (M/N) G exactly, checked here by
     the matrix product that verify_etf no longer forms on an ETF, has rank
     N, Naimark-complements to a certified ETF and back byte-exactly, and
     carries a regular two-graph invariant under random switching; the
     496-point complement certifies to the certificate its parameters
     force; up to 176 points, the N that verify_etf reads off the trace
     equals the fraction-free elimination rank, for every Gram and its
     complement;
  7. vertex descendants have the predicted parameters and descendant Grams
     restrict back to their source graphs;
  8. the explicit character frames reproduce their embedding Grams;
  9. the equivalence experiments finish in budget and their witnesses
     check out;
 10. only the fixed menus above are claimed; exhaustiveness is out of scope.
"""

from contextlib import contextmanager
from fractions import Fraction
import random
import time

import pytest

from rank3etf.families import build
from rank3etf.frames import (
    EtfCertificate,
    criteria,
    descendant_gram,
    embedding_gram,
    gram_of_columns,
    naimark,
    verify_etf,
    vo_vectors,
)
from rank3etf.graphs import spectrum, srg_params
from rank3etf.matrices import mat_mul, mat_rank
from rank3etf.tables import (
    PARAM_ONLY_ROWS,
    TABLE3_MENU,
    TABLE4_MENU,
    generate_table,
    run_experiment,
)
from rank3etf.twographs import (
    descendant_at,
    is_regular,
    sign_graph,
    two_graph_of,
    two_graph_of_gram,
)

F = Fraction

# frozen (v, k, lambda, mu) for every table3 instance
SRG_ORACLE = {
    ("NOplus2n_2", 3): (28, 15, 6, 10),
    ("NOplus2n_2", 4): (120, 63, 30, 36),
    ("NOplus2n_2", 5): (496, 255, 126, 136),
    ("NOminus2n_2_comp", 2): (10, 6, 3, 4),
    ("NOminus2n_2_comp", 3): (36, 20, 10, 12),
    ("NOminus2n_2_comp", 4): (136, 72, 36, 40),
    ("NOplusOdd_4", 1): (10, 6, 3, 4),
    ("NOplusOdd_4", 2): (136, 75, 42, 40),
    ("NOminusOdd_4_comp", 2): (120, 68, 40, 36),
    ("VOplus", 2): (16, 9, 4, 6),
    ("VOplus", 3): (64, 35, 18, 20),
    ("VOminus_comp", 2): (16, 10, 6, 6),
    ("VOminus_comp", 3): (64, 36, 20, 20),
    ("G2_2_comp", None): (36, 21, 12, 12),
    ("M22_comp", None): (176, 105, 68, 54),
}

# frozen (M, N, M - N) for every table3 instance
ETF3_ORACLE = {
    ("NOplus2n_2", 3): (28, 7, 21),
    ("NOplus2n_2", 4): (120, 35, 85),
    ("NOplus2n_2", 5): (496, 155, 341),
    ("NOminus2n_2_comp", 2): (10, 5, 5),
    ("NOminus2n_2_comp", 3): (36, 15, 21),
    ("NOminus2n_2_comp", 4): (136, 51, 85),
    ("NOplusOdd_4", 1): (10, 5, 5),
    ("NOplusOdd_4", 2): (136, 85, 51),
    ("NOminusOdd_4_comp", 2): (120, 85, 35),
    ("VOplus", 2): (16, 6, 10),
    ("VOplus", 3): (64, 28, 36),
    ("VOminus_comp", 2): (16, 10, 6),
    ("VOminus_comp", 3): (64, 36, 28),
    ("G2_2_comp", None): (36, 21, 15),
    ("M22_comp", None): (176, 154, 22),
}

# frozen (family, size, M, N) for every table4 row, in menu order
ETF4_ORACLE = [
    ("Sp2n_2", 2, 16, 6),
    ("Sp2n_2", 3, 64, 28),
    ("Oplus2n_2", 2, 10, 5),
    ("Oplus2n_2", 3, 36, 21),
    ("Ominus2n_2", 3, 28, 7),
    ("Paley", 5, 6, 3),
    ("Paley", 9, 10, 5),
    ("Paley", 13, 14, 7),
    ("Paley", 17, 18, 9),
    ("Paley", 25, 26, 13),
    ("Paley", 29, 30, 15),
    ("Peisert", 9, 10, 5),
    ("Peisert", 49, 50, 25),
    ("McLaughlin", None, 276, 23),
    ("Pstarstar_529", None, 530, 265),
    ("SRG_2209_1104_551_552", None, 2210, 1105),
]


@contextmanager
def report(capsys, label):
    t0 = time.monotonic()
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(
                "[%s] %s (%.1fs)"
                % ("PASS" if ok else "FAIL", label, time.monotonic() - t0)
            )


@pytest.fixture(scope="module")
def corpus3():
    "(family, size, graph, gram, certificate) for every table3 instance"
    t0 = time.monotonic()
    items = []
    for fam, sizes in TABLE3_MENU:
        for s in sizes:
            g = build(fam, s)
            gm = embedding_gram(g)
            items.append((fam, s, g, gm, verify_etf(gm)))
    return items, time.monotonic() - t0


@pytest.fixture(scope="module")
def corpus4():
    "(family, size, graph, descendant gram, certificate) for certified table4 rows"
    items = []
    for fam, sizes in TABLE4_MENU:
        for s in sizes:
            g = build(fam, s)
            gm = descendant_gram(g)
            items.append((fam, s, g, gm, verify_etf(gm)))
    return items


def test_criterion_1_table3_reproduction(capsys, corpus3):
    items, build_seconds = corpus3
    label = (
        "criterion 1: table3 menu, frozen srg and ETF values"
        " (corpus certified in %.1fs)" % build_seconds
    )
    with report(capsys, label):
        assert build_seconds < 600
        assert len(items) == len(SRG_ORACLE) == 15
        for fam, s, g, gm, cert in items:
            assert srg_params(g).as_tuple() == SRG_ORACLE[(fam, s)]
            M, N, mn = ETF3_ORACLE[(fam, s)]
            assert cert.status == "ETF"
            assert (cert.M, cert.N, cert.M - cert.N) == (M, N, mn)
            assert cert.alpha_sq == F(M - N, N * (M - 1))


def test_criterion_2_496_vertex_angle(capsys, corpus3):
    items, _ = corpus3
    with report(capsys, "criterion 2: 496-point ETF, off-diagonal exactly +-1/15"):
        (gm, cert) = next(
            (gm, cert) for fam, s, _, gm, cert in items
            if (fam, s) == ("NOplus2n_2", 5)
        )
        assert (cert.M, cert.N, cert.M - cert.N) == (496, 155, 341)
        fifteenth = F(1, 15)
        m = gm.entries
        for i in range(496):
            row = m.row(i)
            for j in range(i + 1, 496):
                e = row[j]
                assert e.b == 0 and abs(e.a) == fifteenth


def test_criterion_3_table4_reproduction(capsys):
    with report(capsys, "criterion 3: table4 menu, frozen (M, N)"):
        t0 = time.monotonic()
        rows = generate_table("table4")
        assert time.monotonic() - t0 < 300
        assert [(r.family, r.size, r.M, r.N) for r in rows] == ETF4_ORACLE
        for r in rows:
            assert r.alpha_sq == F(r.M - r.N, r.N * (r.M - 1))
            if r.size is not None:
                assert r.status == "ETF" and r.k == 2 * r.mu
        assert [r.N for r in rows if r.status == "parameter-only"] == [
            23, 265, 1105,
        ]


def test_criterion_4_negative_controls(capsys):
    with report(capsys, "criterion 4: two-angle embeddings rejected, Welch strict"):
        for fam, size in (("Sp2n_2", 3), ("Triangular", 7)):
            g = build(fam, size)
            crit = criteria(srg_params(g))
            assert crit == {"equiangular": False, "two_graph": False}
            gm = embedding_gram(g)
            cert = verify_etf(gm)
            assert cert.status == "NotEquiangular"
            (pos_a, pos_b) = cert.witness
            assert gm[pos_a].sq() != gm[pos_b].sq()
            M, N = cert.M, cert.N
            worst = max(
                gm[i, j].sq().as_fraction()
                for i in range(M) for j in range(i + 1, M)
            )
            assert worst > F(M - N, N * (M - 1))


def test_criterion_5_isomorphism_coincidences(capsys):
    with report(capsys, "criterion 5: registry isomorphisms with bijections"):
        t0 = time.monotonic()
        out = run_experiment("iso_checks")
        assert time.monotonic() - t0 < 60
        pairs = (
            (("Triangular", 5, False), ("NOminus2n_2_comp", 2, False)),
            (("Triangular", 6, True), ("Sp2n_2", 2, False)),
            (("Lattice", 3, False), ("Paley", 9, False)),
            (("Paley", 9, False), ("Oplus2n_2", 2, False)),
            (("Lattice", 4, True), ("VOplus", 2, False)),
            (("Triangular", 8, True), ("NOplus2n_2", 3, False)),
        )
        assert len(out["checks"]) == len(pairs)
        for check, (desc_a, desc_b) in zip(out["checks"], pairs):
            assert check["decision"] == "isomorphic"
            a = build(desc_a[0], desc_a[1])
            if desc_a[2]:
                a = a.complement()
            b = build(desc_b[0], desc_b[1])
            if desc_b[2]:
                b = b.complement()
            _check_bijection(a, b, check["witness"])


def _check_bijection(a, b, perm):
    assert a.n == b.n and sorted(perm) == list(range(a.n))
    for i in range(a.n):
        for j in range(i + 1, a.n):
            assert a.adj(i, j) == b.adj(perm[i], perm[j])


def _forced_complement_cert(cert):
    # parameters of the (M, M-N) complement are determined by (M, N, alpha)
    M, N = cert.M, cert.N
    a2 = cert.alpha_sq * F(N, M - N) ** 2
    assert a2 == F(N, (M - N) * (M - 1))  # Welch equality for the complement
    return EtfCertificate(M, M - N, a2, F(M, M - N), "ETF")


def _check_gram_square(gm, cert):
    # G^2 = (M/N) G; then (N/M) G is a symmetric idempotent, so its rank
    # equals its trace, which is N by the unit diagonal: rank G = N follows
    sq = mat_mul(gm.entries, gm.entries)
    assert sq == gm.entries.scale(F(cert.M, cert.N))


def test_criterion_6_corpus_invariants(capsys, corpus3, corpus4):
    items = corpus3[0] + corpus4
    with report(capsys, "criterion 6: Gram identities, Naimark, two-graphs"):
        spot = mat_rank(embedding_gram(build("VOplus", 2)).entries)
        assert spot == 6  # ties certificate N to the rank routine directly
        for fam, s, g, gm, cert in items:
            assert cert.status == "ETF"
            M, N = cert.M, cert.N
            _check_gram_square(gm, cert)
            assert cert.tight_const == F(M, N)

            nc = naimark(gm, cert)
            if M <= 176:
                cert2 = verify_etf(nc)
                assert (cert2.status, cert2.M, cert2.N) == ("ETF", M, M - N)
            else:
                # too large for elimination here: check the complement by the
                # exact identities with the forced certificate, and certify it
                # by the two-graph identity, which forms no product
                cert2 = _forced_complement_cert(cert)
                assert verify_etf(nc) == cert2
                a2 = cert2.alpha_sq
                for i in range(M):
                    row = nc.entries.row(i)
                    for j in range(i + 1, M):
                        assert row[j].sq().as_fraction() == a2
                _check_gram_square(nc, cert2)
            back = naimark(nc, cert2)
            assert back.entries == gm.entries
            assert all(
                x.serialize() == y.serialize()
                for x, y in zip(back.entries.entries, gm.entries.entries)
            )

            t = two_graph_of_gram(gm)
            is_regular(t)  # raises NotRegular on failure
            base = sign_graph(gm)
            rng = random.Random("%s:%s" % (fam, s))
            for _ in range(20):
                subset = [v for v in range(base.n) if rng.random() < 0.5]
                assert two_graph_of(base.switch(subset)) == t


def test_criterion_6_identity_rank_is_elimination_rank(capsys, corpus3, corpus4):
    items = corpus3[0] + corpus4
    with report(capsys, "criterion 6: N = tr G / lambda equals the Bareiss rank"):
        checked = 0
        for fam, s, g, gm, cert in items:
            if gm.M > 176:
                continue
            nc = naimark(gm, cert)
            for x, xcert in ((gm, cert), (nc, verify_etf(nc))):
                assert xcert.status == "ETF"
                assert xcert.N == mat_rank(x.entries)
                checked += 1
        assert checked == 2 * 27


def test_criterion_7_descendants(capsys, corpus4):
    with report(capsys, "criterion 7: vertex descendants and Gram restriction"):
        for fam, size in (("NOplus2n_2", 3), ("VOplus", 2), ("G2_2_comp", None)):
            g = build(fam, size)
            v, k, lam, mu = srg_params(g).as_tuple()
            want = (v - 1, 2 * (k - mu), k + lam - 2 * mu, k - mu)
            for x in range(g.n):
                assert srg_params(descendant_at(g, x)).as_tuple() == want
        for fam, s, g, gm, cert in corpus4:
            restricted = two_graph_of_gram(gm).descendant_graph(0)
            assert srg_params(restricted) == srg_params(g)


def test_criterion_8_explicit_frames(capsys):
    with report(capsys, "criterion 8: character frames match embedding Grams"):
        for fam, kind, n in (
            ("VOplus", "plus", 2),
            ("VOplus", "plus", 3),
            ("VOminus_comp", "minus_comp", 2),
        ):
            mat = vo_vectors(n, kind)
            gm = gram_of_columns(mat)
            want = embedding_gram(build(fam, n))
            assert gm.entries == want.entries


def test_criterion_9_experiments(capsys):
    with report(capsys, "criterion 9: equivalence experiments with witnesses"):
        decisions = {}
        for exp_id in (
            "switch_NO4_vs_NOminus", "switch_paley_peisert", "descendant_vs_O",
        ):
            out = run_experiment(exp_id)
            assert out["wall_time"] < 120
            (check,) = out["checks"]
            decisions[exp_id] = check["decision"]
            a, b = _experiment_graphs(exp_id)
            if check["decision"] == "equivalent":
                w = check["witness"]["isolated_vertex_of_second"]
                perm = check["witness"]["bijection"]
                da = two_graph_of(a).descendant_graph(0)
                db = two_graph_of(b).descendant_graph(w)
                _check_bijection(da, db, perm)
            elif check["decision"] == "isomorphic":
                _check_bijection(a, b, check["witness"])
        assert decisions["switch_NO4_vs_NOminus"] == "equivalent"
    with capsys.disabled():
        for exp_id, decision in decisions.items():
            print("    %s -> %s" % (exp_id, decision))


def _experiment_graphs(exp_id):
    from rank3etf.tables import _k1_plus

    if exp_id == "switch_NO4_vs_NOminus":
        return build("NOplusOdd_4", 1), build("NOminus2n_2_comp", 2)
    if exp_id == "switch_paley_peisert":
        return _k1_plus(build("Paley", 9)), _k1_plus(build("Peisert", 9))
    assert exp_id == "descendant_vs_O"
    return descendant_at(build("NOplus2n_2", 3), 0), build("Ominus2n_2", 3)


def test_criterion_10_scope(capsys):
    with report(capsys, "criterion 10: fixed menus only, no exhaustiveness claim"):
        assert sum(len(sizes) for _, sizes in TABLE3_MENU) == 15
        assert sum(len(sizes) for _, sizes in TABLE4_MENU) == 13
        assert len(PARAM_ONLY_ROWS) == 3
