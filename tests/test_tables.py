"""
Report rows and tables: certified (M, N, M-N, alpha^2) values frozen from
independent eigenvalue computations, the k = 2 mu gate on descendant rows,
parameter-only rows at spectrum level, the shared-(M, {N, M-N}) grouping,
byte-identical reruns, experiment payload structure, frozen digests of every
experiment's decisions and witnesses, and one strong-regularity certification
per built row.
"""

from fractions import Fraction
import hashlib
import json

import pytest

from rank3etf import graphs
from rank3etf.families import build
from rank3etf.tables import (
    EXPERIMENT_IDS,
    PARAM_ONLY_ROWS,
    CertificationFailure,
    ReportRow,
    descendant_row,
    embedding_row,
    generate_table,
    graph_row,
    param_only_row,
    run_experiment,
)

F = Fraction

# (family, size) -> (M, N, alpha^2); M - N is derived
EMBEDDING_ORACLE = {
    ("NOminus2n_2_comp", 2): (10, 5, F(1, 9)),
    ("NOplusOdd_4", 1): (10, 5, F(1, 9)),
    ("VOplus", 2): (16, 6, F(1, 9)),
    ("VOminus_comp", 2): (16, 10, F(1, 25)),
    ("G2_2_comp", None): (36, 21, F(1, 49)),
    ("NOplus2n_2", 3): (28, 7, F(1, 9)),
}

DESCENDANT_ORACLE = {
    ("Sp2n_2", 2): (16, 6, F(1, 9)),
    ("Oplus2n_2", 2): (10, 5, F(1, 9)),
    ("Paley", 5): (6, 3, F(1, 5)),
    ("Paley", 13): (14, 7, F(1, 13)),
    ("Peisert", 9): (10, 5, F(1, 9)),
}

# every table4 row in registry order: (family, size, M, N)
TABLE4_FULL = [
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


def test_embedding_rows():
    for (fam, size), (M, N, a2) in EMBEDDING_ORACLE.items():
        row = embedding_row(fam, size)
        assert (row.M, row.N, row.m_minus_n) == (M, N, M - N)
        assert row.alpha_sq == a2
        assert row.status == "ETF" and row.provenance == "table3"
        # Welch bound met with equality
        assert a2 == F(M - N, N * (M - 1))


def test_embedding_row_failure_modes():
    # Sp4(2) embeds at two angles: a table3 row raises, and the row that
    # verify-etf prints reports it
    with pytest.raises(CertificationFailure) as e:
        embedding_row("Sp2n_2", 2)
    assert e.value.row.status != "ETF"
    row = graph_row(build("Sp2n_2", 2), "Sp2n_2", 2, "experiment")
    assert row.status.startswith("NotEquiangular")
    assert row.provenance == "experiment"
    assert row.alpha_sq is None


def test_descendant_rows():
    for (fam, size), (M, N, a2) in DESCENDANT_ORACLE.items():
        row = descendant_row(fam, size)
        assert (row.M, row.N) == (M, N)
        assert row.M == row.v + 1  # bordered by one extra unit vector
        assert row.alpha_sq == a2 == F(M - N, N * (M - 1))
        assert row.status == "ETF" and row.provenance == "table4"


def test_each_row_certifies_its_graph_once(certifications):
    # build certifies against the closed form; the row, embedding_gram and
    # descendant_gram read the parameters the graph keeps
    for make_row, fam, size in (
        (embedding_row, "VOplus", 2),
        (embedding_row, "M22_comp", None),
        (descendant_row, "Paley", 13),
        (descendant_row, "Sp2n_2", 2),
    ):
        certifications.clear()
        row = make_row(fam, size)
        assert len(certifications) == 1, (fam, size)
        g = graphs.Graph.from_rows(certifications[0])
        assert (row.v, row.k, row.lam, row.mu) == graphs.srg_params(g).as_tuple()


def test_tables_certify_each_built_row_once(certifications):
    rows = generate_table("table3") + generate_table("table4")
    built = [r for r in rows if r.status != "parameter-only"]
    assert len(certifications) == len(built) == 28
    g = build("Paley", 13)
    assert graphs.srg_params(g) is graphs.srg_params(g)
    assert len(certifications) == 29


def test_descendant_rejects_k_ne_2mu():
    with pytest.raises(CertificationFailure) as e:
        descendant_row("VOplus", 2)  # k = 9, mu = 6
    assert str(e.value) == "VOplus:2 has k != 2 mu" and e.value.row is None


def test_param_only_rows():
    got = {name: param_only_row(name, quad) for name, quad in PARAM_ONLY_ROWS}
    oracle = {
        "McLaughlin": (276, 23, F(1, 25)),
        "Pstarstar_529": (530, 265, F(1, 529)),
        "SRG_2209_1104_551_552": (2210, 1105, F(1, 2209)),
    }
    for name, (M, N, a2) in oracle.items():
        row = got[name]
        assert (row.M, row.N, row.alpha_sq) == (M, N, a2)
        assert row.status == "parameter-only"
        assert row.size is None


def test_table4_full():
    rows = generate_table("table4")
    assert [(r.family, r.size, r.M, r.N) for r in rows] == TABLE4_FULL
    for row in rows:
        if row.status == "ETF":
            assert row.k == 2 * row.mu
        assert row.alpha_sq == F(row.m_minus_n, row.N * (row.M - 1))


def test_table3_truncated():
    rows = generate_table("table3", max_n=2)
    got = {(r.family, r.size): (r.M, r.N) for r in rows}
    assert got == {
        ("NOminus2n_2_comp", 2): (10, 5),
        ("NOplusOdd_4", 1): (10, 5),
        ("NOplusOdd_4", 2): (136, 85),
        ("NOminusOdd_4_comp", 2): (120, 85),
        ("VOplus", 2): (16, 6),
        ("VOminus_comp", 2): (16, 10),
        ("G2_2_comp", None): (36, 21),
        ("M22_comp", None): (176, 154),
    }
    assert all(r.status == "ETF" for r in rows)


def test_table5_grouping():
    rows = generate_table("table5", max_n=2, max_q=9)
    keys = [(r.M, frozenset((r.N, r.m_minus_n))) for r in rows]
    # every emitted key is shared by at least two rows
    for key in set(keys):
        assert keys.count(key) >= 2
    group10 = [(r.family, r.size) for r in rows if r.M == 10]
    group16 = [(r.family, r.size) for r in rows if r.M == 16]
    assert group10 == [
        ("NOminus2n_2_comp", 2),
        ("NOplusOdd_4", 1),
        ("Oplus2n_2", 2),
        ("Paley", 9),
        ("Peisert", 9),
    ]
    assert group16 == [("VOplus", 2), ("VOminus_comp", 2), ("Sp2n_2", 2)]
    assert len(rows) == len(group10) + len(group16)


def test_tables_deterministic():
    a = generate_table("table4")
    b = generate_table("table4")
    assert a == b
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
    with pytest.raises(ValueError):
        generate_table("table6")


def test_row_to_dict():
    row = ReportRow("X", 2, 9, 4, 1, 2, 10, 5, F(1, 9), "ETF", "table4")
    d = row.to_dict()
    assert d["lambda"] == 1 and d["M_minus_N"] == 5
    assert d["alpha_sq"] == "1/9"
    assert ReportRow("X", None, 9, 4, 1, 2, 10, 5, None, "s", "p").to_dict()[
        "alpha_sq"
    ] is None


def test_experiment_iso_checks():
    out = run_experiment("iso_checks")
    assert out["id"] == "iso_checks" and out["size"] is None
    assert len(out["checks"]) == 6
    for check in out["checks"]:
        assert check["decision"] == "isomorphic"
        perm = check["witness"]
        assert sorted(perm) == list(range(len(perm)))
    assert out["wall_time"] < 120


def test_experiment_switch():
    out = run_experiment("switch_NO4_vs_NOminus")
    (check,) = out["checks"]
    assert check["decision"] in ("equivalent", "not_equivalent")
    if check["decision"] == "equivalent":
        wit = check["witness"]
        assert set(wit) == {"isolated_vertex_of_second", "bijection"}
    pp = run_experiment("switch_paley_peisert")
    (check,) = pp["checks"]
    assert check["decision"] in ("equivalent", "not_equivalent")
    assert check["graphs"][0]["label"].startswith("K1+")
    assert check["graphs"][0]["params"] is None  # K1 + G is not regular


def test_experiment_descendant_vs_O():
    out = run_experiment("descendant_vs_O")
    (check,) = out["checks"]
    assert check["graphs"][0]["params"] == (27, 10, 1, 5)
    assert check["graphs"][1]["params"] == (27, 10, 1, 5)
    assert check["decision"] in ("isomorphic", "not_isomorphic")
    with pytest.raises(ValueError):
        run_experiment("nonsense")


# SHA-256 of each experiment's JSON (sorted keys, wall_time dropped): the
# decisions and witnesses, frozen so that a change to the search that moves
# a witness or a colour id shows
EXPERIMENT_DIGESTS = {
    ("iso_checks", None): "e296665b2df4b4d3c717fdbb96e39cd55b8b05ac71b29428ca740b07425aefe4",
    ("descendant_vs_O", None): "559f20b6bf73f519b30a9328a6ddadf01cb1bba6713b49785c36c4b654bc8db6",
    ("switch_NO4_vs_NOminus", None):
        "92cafde89b01f3c79f8e5edad370171a9e8a87f63087e7a4428db80443a8a4a2",
    ("switch_paley_peisert", None):
        "36535c2f6e57c4cbcb40ff16fc2f0ecfe094cd7a8111b47623b0bfbfd60c570f",
    ("switch_paley_peisert", 49):
        "eeb53547fa2f4f27071452b98e171c10e6097484a84c4a110d8711682b880357",
}


def test_experiment_outputs_are_frozen():
    assert {exp for exp, size in EXPERIMENT_DIGESTS if size is None} == set(EXPERIMENT_IDS)
    for (exp, size), want in EXPERIMENT_DIGESTS.items():
        out = run_experiment(exp, size)
        del out["wall_time"]
        got = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
        assert got == want, (exp, size)
