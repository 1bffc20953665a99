"""
Family builders: every builder certifies its own parameters, so these tests
pin the closed forms, the size validation, the combinatorial substrates
(Fano flags, weight-7 Golay words), known coincidences between families,
and the vertex-count guard.
"""

import hashlib
import random
from itertools import combinations

import pytest

from rank3etf.families import (
    FAMILIES,
    FAMILY_IDS,
    build,
    expected_params,
    family_info,
    fano_flags,
    golay_heptads,
)
from rank3etf.graphs import srg_params
from rank3etf.iso import find_isomorphism
from rank3etf.tables import TABLE3_MENU, TABLE4_MENU

# smallest member of every family, with its frozen quadruple
SMALLEST = {
    ("NOplus2n_2", 3): (28, 15, 6, 10),
    ("NOminus2n_2_comp", 2): (10, 6, 3, 4),
    ("NOplusOdd_4", 1): (10, 6, 3, 4),
    ("NOminusOdd_4_comp", 2): (120, 68, 40, 36),
    ("VOplus", 2): (16, 9, 4, 6),
    ("VOminus_comp", 2): (16, 10, 6, 6),
    ("G2_2_comp", None): (36, 21, 12, 12),
    ("M22_comp", None): (176, 105, 68, 54),
    ("Paley", 5): (5, 2, 0, 1),
    ("Peisert", 9): (9, 4, 1, 2),
    ("Triangular", 5): (10, 6, 3, 4),
    ("Lattice", 3): (9, 4, 1, 2),
    ("Sp2n_2", 2): (15, 6, 1, 3),
    ("Oplus2n_2", 2): (9, 4, 1, 2),
    ("Ominus2n_2", 3): (27, 10, 1, 5),
}


def test_registry_covers_all_families():
    assert set(f for f, _ in SMALLEST) == set(FAMILY_IDS)
    assert {row["family"] for row in family_info()} == set(FAMILY_IDS)
    # needs_size is derived from check_size, which is None for sizeless rows
    for row in family_info():
        spec = FAMILIES[row["family"]]
        assert set(spec) == {"check_size", "table", "params", "build"}
        assert row["needs_size"] == (spec["check_size"] is not None)
    assert [r["family"] for r in family_info() if not r["needs_size"]] == [
        "G2_2_comp", "M22_comp",
    ]


def test_smallest_member_of_every_family():
    for (fam, size), quad in SMALLEST.items():
        assert expected_params(fam, size).as_tuple() == quad
        g = build(fam, size)  # build() itself re-certifies against the same quad
        assert srg_params(g).as_tuple() == quad
        assert g.label.startswith(fam)


def test_larger_members():
    for fam, size, quad in (
        ("Paley", 13, (13, 6, 2, 3)),
        ("Paley", 17, (17, 8, 3, 4)),
        ("Triangular", 7, (21, 10, 5, 4)),
        ("Lattice", 4, (16, 6, 2, 2)),
        ("Sp2n_2", 3, (63, 30, 13, 15)),
        ("Oplus2n_2", 3, (35, 18, 9, 9)),
        ("VOplus", 3, (64, 35, 18, 20)),
        ("VOminus_comp", 3, (64, 36, 20, 20)),
        ("NOminus2n_2_comp", 3, (36, 20, 10, 12)),
    ):
        assert srg_params(build(fam, size)).as_tuple() == quad


def test_closed_forms_satisfy_the_parameter_identity():
    # SrgParams itself checks primitivity and k(k - lambda - 1) = (v - k - 1) mu,
    # so every size a row accepts must give a quad, far past the build bound
    for fam, row in FAMILIES.items():
        if row["check_size"] is None:
            expected_params(fam)
            continue
        accepted = 0
        for n in range(1, 130):
            try:
                row["check_size"](n)
            except ValueError:
                continue
            expected_params(fam, n)
            accepted += 1
        assert accepted >= 3, fam


def test_build_labels():
    assert build("Paley", 9).label == "Paley:9"
    assert build("G2_2_comp").label == "G2_2_comp"


def test_size_validation():
    with pytest.raises(ValueError):
        build("Paley", 7)  # 7 = 3 mod 4
    with pytest.raises(ValueError):
        build("Paley", 21)  # not a prime power
    with pytest.raises(ValueError):
        build("Peisert", 25)  # p = 1 mod 4
    with pytest.raises(ValueError):
        build("Peisert", 27)  # odd power
    with pytest.raises(ValueError):
        build("Triangular", 4)  # below the primitive range
    with pytest.raises(ValueError):
        build("NOplus2n_2", 2)
    with pytest.raises(ValueError):
        expected_params("Paley")  # size required
    with pytest.raises(ValueError):
        expected_params("G2_2_comp", 3)  # size forbidden
    with pytest.raises(ValueError, match="takes no size"):
        build("G2_2_comp", 0)  # zero is a size too
    with pytest.raises(ValueError, match="unknown family"):
        build("Petersen", 10)


def test_build_bound_env_override(monkeypatch):
    monkeypatch.setenv("ETF_RANK3_MAX_VERTICES", "8")
    with pytest.raises(ValueError):
        build("Paley", 9)
    monkeypatch.setenv("ETF_RANK3_MAX_VERTICES", "9")
    assert build("Paley", 9).n == 9
    for raw in ("abc", "0", "-5", "2.5"):
        monkeypatch.setenv("ETF_RANK3_MAX_VERTICES", raw)
        with pytest.raises(ValueError, match="ETF_RANK3_MAX_VERTICES"):
            build("Paley", 9)


# row digests of the GF(4) hyperplane graphs, frozen from the builder that
# classified every hyperplane and every pair by explicit restriction
GF4_ROW_DIGESTS = {
    ("NOplusOdd_4", 1): "cb492b2f5212250c5c99ce913f7e56e38e1da78ce497a82f3c8a1c524b4b2bda",
    ("NOplusOdd_4", 2): "d9fe24fcf07582379b320c376925df4ae53dda9af51f7406a117b1e941f77b4f",
    ("NOminusOdd_4_comp", 2): "4bf6560decb939b1825bd98b5648bd7ba0a13dec0895438d545043abaf895502",
}


def test_gf4_hyperplane_graphs_match_frozen_rows():
    for (fam, size), digest in GF4_ROW_DIGESTS.items():
        rows = build(fam, size).rows
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_fano_flags():
    points, lines, flags = fano_flags()
    assert len(points) == 7 and len(lines) == 7 and len(flags) == 21
    for l1, l2 in combinations(lines, 2):
        assert len(l1 & l2) == 1
    for p, l in flags:
        assert p in l


def test_golay_heptads():
    heptads = golay_heptads()
    assert len(heptads) == 253
    assert all(len(h) == 7 for h in heptads)
    # quasi-symmetric: two blocks meet in 1 or 3 points
    rng = random.Random(123)
    for _ in range(300):
        a, b = rng.sample(heptads, 2)
        assert len(a & b) in (1, 3)
    # Steiner property spot check: every 4-set lies in exactly one heptad
    for _ in range(100):
        four = set(rng.sample(range(23), 4))
        assert sum(1 for h in heptads if four <= h) == 1


def test_paley_is_self_complementary_in_parameters():
    for q in (9, 13, 17):
        p = srg_params(build("Paley", q))
        assert p.complement().as_tuple() == p.as_tuple()


def test_paley_peisert_same_parameters_distinct_graphs():
    # at q = 9 the two constructions give isomorphic graphs; at q = 49 they
    # are the classical non-isomorphic pair with identical parameters
    p9, s9 = build("Paley", 9), build("Peisert", 9)
    assert srg_params(p9) == srg_params(s9)
    assert find_isomorphism(p9, s9) is not None

    p49, s49 = build("Paley", 49), build("Peisert", 49)
    assert srg_params(p49) == srg_params(s49)
    assert find_isomorphism(p49, s49) is None


def test_comp_families_have_primitive_complements():
    # "_comp" families are complements of orthogonality graphs; their
    # complements must therefore be strongly regular with the complement quad
    for fam, size in (("NOminus2n_2_comp", 2), ("VOminus_comp", 2)):
        g = build(fam, size)
        p = srg_params(g)
        assert srg_params(g.complement()).as_tuple() == p.complement().as_tuple()


def test_registry_table_membership():
    t3 = {f for f, info in FAMILIES.items() if info["table"] == 3}
    t4 = {f for f, info in FAMILIES.items() if info["table"] == 4}
    assert "M22_comp" in t3 and "Paley" in t4
    assert t3 & t4 == set()
    assert "Triangular" not in t3 | t4


def test_registry_tables_match_table_menus():
    # the registry's table column (shown by the list command) names exactly
    # the families that generate_table puts in each table
    for which, menu in ((3, TABLE3_MENU), (4, TABLE4_MENU)):
        in_registry = {f for f, row in FAMILIES.items() if row["table"] == which}
        assert in_registry == {f for f, _ in menu}, which
    assert {row["table"] for row in FAMILIES.values()} == {0, 3, 4}
