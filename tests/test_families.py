"""
Family builders: every builder certifies its own parameters, so these tests
pin the closed forms, the size validation, the combinatorial substrates
(Fano flags, weight-7 Golay words), known coincidences between families,
and the vertex-count guard.  The rows of every menu graph match frozen
digests, the Paley and Peisert builds match a pair rule read off the
polynomial reference field of scalar_reference, and corrupted Golay blocks
or GF(4) masks raise ValueError, as does a Peisert connection set that is
not closed under negation.
"""

import hashlib
from itertools import combinations

import numpy as np
import pytest

from rank3etf import families
from rank3etf.families import (
    FAMILIES,
    FAMILY_IDS,
    build,
    expected_params,
    family_info,
    fano_flags,
    golay_heptads,
)
from rank3etf.fields import prime_power
from rank3etf.graphs import srg_params
from rank3etf.iso import find_isomorphism
from rank3etf.quadspaces import QuadraticSpace
from rank3etf.tables import TABLE3_MENU, TABLE4_MENU
from scalar_reference import PolyField

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
        # max_size only on the rows whose size build bounds before the closed form
        assert set(spec) - {"max_size"} == {"check_size", "table", "params", "build"}
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


def test_max_size_refuses_only_graphs_over_the_bound():
    # build refuses a size above max_size(cap) before its closed form is
    # evaluated, so every such size the row accepts must have v > cap
    for fam, row in FAMILIES.items():
        if "max_size" not in row:
            continue
        for cap in (1, 9, 10, 63, 64, 1000, 4096):
            for n in range(row["max_size"](cap) + 1, 130):
                try:
                    row["check_size"](n)
                except ValueError:
                    continue
                assert expected_params(fam, n).v > cap, (fam, cap, n)


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


# SHA-256 of repr(rows) for every size of TABLE3_MENU and TABLE4_MENU, the
# Triangular and Lattice sizes the tests build, and the larger Paley and
# Peisert graphs, frozen from the builders that joined one vertex pair at a
# time through a Python predicate; the GF(4) hyperplane rows go back further,
# to the builder that classified every hyperplane and every pair by explicit
# restriction
ROW_DIGESTS = {
    ("NOplus2n_2", 3): "154d567bb88900a45b57a160a71b019003e58b07fdc1e99ce449fda4fb1601be",
    ("NOplus2n_2", 4): "feae05f2fa604ebdbfa2dea5096afeb112ef3e25ed44180bc5f2f1d8731c54d0",
    ("NOplus2n_2", 5): "733ad70b843e743a0c3fb36c90ef82312e1db06668c489db700921228e63d959",
    ("NOminus2n_2_comp", 2): "001ee8a5442e53b16a2ef35ca980313bb9431e6f0ef6e3f70d50a910fa3c3609",
    ("NOminus2n_2_comp", 3): "6ce5acadc2f7b2980b4f1187140915200bd9cf6445429a5920d31ca8d6657b09",
    ("NOminus2n_2_comp", 4): "3c079d3cd9077ae90ee8f382d310be59aa3bae4e8cb994a1acec487f365e43b6",
    ("NOplusOdd_4", 1): "cb492b2f5212250c5c99ce913f7e56e38e1da78ce497a82f3c8a1c524b4b2bda",
    ("NOplusOdd_4", 2): "d9fe24fcf07582379b320c376925df4ae53dda9af51f7406a117b1e941f77b4f",
    ("NOminusOdd_4_comp", 2): "4bf6560decb939b1825bd98b5648bd7ba0a13dec0895438d545043abaf895502",
    ("VOplus", 2): "00001549384991df95d5d310bafa95628200c6886e64ab63eb03ce0b97508170",
    ("VOplus", 3): "cade37c738d914eab25feb9e77d4211a6e186d5352d656568d05818e163e59dd",
    ("VOminus_comp", 2): "beeb3711ed81aba144efe223e1df62f68b7265e6eb3b3b63ce4155e7f290bf39",
    ("VOminus_comp", 3): "0b8479a4780a155f6d013607f0d4eebf716e44e5d486b3e3f4fcd8aad7b0479b",
    ("G2_2_comp", None): "3deae8af2ea5df91048a163f4890ae9407f1705d60e70b52c729d3cae8294b83",
    ("M22_comp", None): "a760e656065aecdffcc88dcc3ea82a3d0d6667ad2fbf62b259547140c477df8e",
    ("Sp2n_2", 2): "ffc5268e8a189628c63b979337cc1f10a0eb38016587898316b89eda3ea1b36f",
    ("Sp2n_2", 3): "2afe47f03d85dd9fb1fb7731c26da3f5d6a7cf19f24b9dda9c18a93a1af01d0b",
    ("Oplus2n_2", 2): "2cf96e960a35b6c45f7cd9882ff4161cc158b8ca7881d240032f38217cc9f85e",
    ("Oplus2n_2", 3): "21f96ddafda221ed3758f7a37acb342a9f7ba3f147eaad9af3c18d5b0ccf5d1c",
    ("Ominus2n_2", 3): "ef5beb34183e7de8841a402f03d09e4afbc7ade75e797113973a1a3b80d30877",
    ("Paley", 5): "41c557332d4da21288f9dfe43a365ccfe712af1d2cc7646a5df938a25037fd4b",
    ("Paley", 9): "043b7232566277e57a61e1ee4612cd780c06e4fbe392db0e1f42ef9c830f45d4",
    ("Paley", 13): "e2d74dd8f57ad53eac77eed69db21eaa9099f38334fb0520613e9f11763833d0",
    ("Paley", 17): "52a9d0710d21539536d19a2b1fe32f4b7108c660f3e1134ba9a79c1bb3e8329b",
    ("Paley", 25): "fa9c60d8d7086095f3c77b4e72db7e364587701d9f16b5e8caa527a78f6aa90b",
    ("Paley", 29): "55cbdfd00e92f5b6bb680844a1044a5dbce7ff089b2e91e865fd211470563400",
    ("Peisert", 9): "0b43ba5c68633d708659786d8701b34af04af52326a2e6294cea1c0f01994f41",
    ("Peisert", 49): "364bf653e1d33714a4afaf7ef267068b47550d48af5380d305ad546768eed4ce",
    ("Triangular", 5): "4fdb8dbea5d8135bdc299e956a0bf9ccc6e0082404df025ad71a241cf658a71d",
    ("Triangular", 6): "4be571eec68f8e322c1b08912d9d0810cf4ce4c630e2d0cee4948842e9c13e54",
    ("Triangular", 7): "04c78990d3f5b911aa8b3e94e977180cb9a8f518d9fd19795d510197bb2939bd",
    ("Triangular", 8): "ccf4f6b11c40c2a6cd9b2c5f3b13b8a9426ba46c9d873b5c0299b3abd7decb41",
    ("Lattice", 3): "043b7232566277e57a61e1ee4612cd780c06e4fbe392db0e1f42ef9c830f45d4",
    ("Lattice", 4): "4083eb6ec93235c79a630a7a95e965200499973788688708ac33cd97f8a7b94b",
    ("Lattice", 5): "ce26b8d2c45cd855fcae6dbf61a114160c114c9eea158c70319bee664637b74a",
    ("Paley", 81): "7f759600a9d9a488763dd671e70121046c69308aa9ef9f7bc2593dd277765149",
    ("Paley", 121): "7d6b3956f235977a658b558cb07a7e22a2c5de930f426db6c2ca2ea5feb54846",
    ("Paley", 125): "ccb0dc2a612e71e008a0a887772bd8d39c1abf29efeedb98f01ba09aa2899c29",
    ("Peisert", 81): "5e30d1cdb609ed24d159b471a9bfb51cea5e300a9df5347b2a0e6a03aba04e1b",
    ("Peisert", 121): "bdccef7bc32f0f02cbdab4365ef817ae60f3d20af1b66e43a0d210be19214a9a",
}

GF4_FAMILIES = ("NOplusOdd_4", "NOminusOdd_4_comp")


def _row_digest(fam, size):
    return hashlib.sha256(repr(build(fam, size).rows).encode()).hexdigest()


def test_gf4_hyperplane_graphs_match_frozen_rows():
    for (fam, size), digest in ROW_DIGESTS.items():
        if fam in GF4_FAMILIES:
            assert _row_digest(fam, size) == digest, (fam, size)


def test_family_graphs_match_frozen_rows():
    menus = {(f, s) for f, sizes in TABLE3_MENU + TABLE4_MENU for s in sizes}
    assert menus <= set(ROW_DIGESTS)
    for (fam, size), digest in ROW_DIGESTS.items():
        if fam not in GF4_FAMILIES:
            assert _row_digest(fam, size) == digest, (fam, size)


def _difference_graph_rows(f, conn):
    "reference: the pair rule x ~ y iff f.sub(x, y) lies in conn, f a PolyField"
    rows = [0] * f.q
    for x in range(f.q):
        for y in range(x + 1, f.q):
            if f.sub(x, y) in conn:
                rows[x] |= 1 << y
                rows[y] |= 1 << x
    return tuple(rows)


def test_paley_peisert_match_the_pair_rule():
    # e = 1, 2 and 3 for Paley, e = 2 and 4 for Peisert; the Peisert
    # connection set is recomputed from the powers of the primitive element
    for q in (5, 13, 9, 25, 49, 81, 125):
        f = PolyField(*prime_power(q))
        assert build("Paley", q).rows == _difference_graph_rows(f, f.squares()), q
    for q in (9, 49, 81):
        f = PolyField(*prime_power(q))
        conn, x = set(), 1
        for j in range(q - 1):
            if j % 4 in (0, 1):
                conn.add(x)
            x = f.mul(x, f.g)
        assert build("Peisert", q).rows == _difference_graph_rows(f, conn), q


def test_peisert_refuses_an_asymmetric_connection_set():
    # the size check refuses q = 27, so call the builder directly: the set
    # holds -1 = g^13 but not -g = g^14, so its difference graph is directed
    with pytest.raises(ValueError, match=r"set of GF\(27\) is not symmetric"):
        families._peisert(27)
    for q in (9, 49, 81):
        a = families._peisert(q)
        assert np.array_equal(a, a.T), q


def test_corrupted_golay_blocks_raise(monkeypatch):
    heptads = golay_heptads()
    i0 = np.flatnonzero(heptads[:, 0] == 0)[0]  # the first block, a heptad missing point 0
    monkeypatch.setattr(families, "golay_heptads", lambda: np.delete(heptads, i0, axis=0))
    with pytest.raises(ValueError, match="175 blocks, expected 176"):
        build("M22_comp")
    # one point of a block moved: some pairs of points lie in 15 or 17 blocks
    b0, moved = heptads[i0], heptads.copy()
    moved[i0, np.flatnonzero(b0).max()] = 0
    moved[i0, np.flatnonzero(b0[1:] == 0)[0] + 1] = 1
    monkeypatch.setattr(families, "golay_heptads", lambda: moved)
    with pytest.raises(ValueError, match="not a 2-"):
        build("M22_comp")


def test_corrupted_gf4_masks_raise(monkeypatch):
    real = QuadraticSpace.hyperplane_singular_masks

    # NOplusOdd_4 1 has 16 singular vectors: one 64-bit word per hyperplane
    def dropped(sp):  # one singular vector fewer: a count no hyperplane class has
        words = real(sp)
        words[0, 0] &= words[0, 0] - np.uint64(1)
        return words

    def moved(sp):  # a hyperbolic mask keeps its count of 7 with one vector moved
        words = real(sp)
        assert words.shape[1] == 1
        i = np.flatnonzero(np.bitwise_count(words[:, 0]) == 7)[0]
        w = int(words[i, 0])
        clear = next(c for c in range(16) if not w >> c & 1)
        words[i, 0] ^= np.uint64(1 << (w.bit_length() - 1) | 1 << clear)
        return words

    monkeypatch.setattr(QuadraticSpace, "hyperplane_singular_masks", dropped)
    with pytest.raises(ValueError, match="hyperplane with .* fits no class"):
        build("NOplusOdd_4", 1)
    monkeypatch.setattr(QuadraticSpace, "hyperplane_singular_masks", moved)
    with pytest.raises(ValueError, match="intersection with .* fits no class"):
        build("NOplusOdd_4", 1)


def test_fano_flags():
    points, lines, flags = fano_flags()
    assert len(points) == 7 and len(lines) == 7 and len(flags) == 21
    for l1, l2 in combinations(lines, 2):
        assert len(l1 & l2) == 1
    for p, l in flags:
        assert p in l


def test_golay_heptads():
    heptads = golay_heptads()
    assert heptads.shape == (253, 23) and heptads.dtype == np.uint8
    assert (heptads.sum(axis=1) == 7).all()
    # quasi-symmetric: two blocks meet in 1 or 3 points
    meets = heptads.astype(np.int64) @ heptads.T
    np.fill_diagonal(meets, 1)
    assert np.isin(meets, (1, 3)).all()


def _reference_heptads():
    "the weight-7 words as sorted frozensets, from the code words as a set of ints"
    qr = {pow(x, 2, 23) for x in range(1, 23)}
    gen = families._poly_gcd_gf2((1 << 23) | 1, sum(1 << r for r in qr))
    words = {0}
    for i in range(12):
        b = gen << i
        words |= {w ^ b for w in words}
    assert len(words) == 4096
    heptads = sorted(w for w in words if w.bit_count() == 7)
    return [frozenset(i for i in range(23) if (w >> i) & 1) for w in heptads]


def test_golay_heptads_match_set_reference():
    heptads = golay_heptads()
    assert [frozenset(np.flatnonzero(h).tolist()) for h in heptads] == _reference_heptads()
    # S(4, 7, 23): each of the C(23, 4) = 8855 4-sets lies in exactly one heptad
    fours = np.array(list(combinations(range(23), 4)))
    covers = (heptads[:, fours].sum(axis=2) == 4).sum(axis=0)  # heptads holding each 4-set
    assert len(fours) == 8855 and (covers == 1).all()


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
