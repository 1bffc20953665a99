"""
Frozen expected values for every verdict the benchmark asks for.

They are copied here, not read back from the library, so a change that
breaks the program cannot also move its own yardstick.  Every verdict is
invariant under vertex relabeling, so they hold for any --seed.
"""

from fractions import Fraction

# (v, k, lambda, mu) of every table3 instance
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

# (M, N, M - N) of every table3 embedding ETF, in menu order
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

# (family, size, M, N) of the thirteen certifiable table4 descendant ETFs
ETF4_ORACLE = (
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
)


def welch_alpha_sq(M, N):
    "the common squared angle an (M, N) ETF must have"
    return Fraction(M - N, N * (M - 1))


def paley_descendant(q):
    "(M, N, alpha^2) of the descendant ETF of Paley(q): (q+1, (q+1)/2, 1/q)"
    return q + 1, (q + 1) // 2, Fraction(1, q)


# the isomorphism coincidences of the experiment registry, each decided
# "isomorphic"; entries are (family, size, complemented)
ISO_PAIRS = (
    (("Triangular", 5, False), ("NOminus2n_2_comp", 2, False)),
    (("Triangular", 6, True), ("Sp2n_2", 2, False)),
    (("Lattice", 3, False), ("Paley", 9, False)),
    (("Paley", 9, False), ("Oplus2n_2", 2, False)),
    (("Lattice", 4, True), ("VOplus", 2, False)),
    (("Triangular", 8, True), ("NOplus2n_2", 3, False)),
)

# decisions of the default-size experiments, all positive
EXPERIMENT_DECISIONS = {
    "descendant_vs_O": "isomorphic",
    "switch_NO4_vs_NOminus": "equivalent",
    "switch_paley_peisert": "equivalent",
}

# K1 + Paley(49) and K1 + Peisert(49) lie in different switching classes
REFUTE_DECISION = "not_equivalent"
