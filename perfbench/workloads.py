"""
The benchmark's workloads.  Each is a function of a seeded random.Random
that builds the inputs the workload needs (untimed) and returns a function
giving the verdicts of one pass.  A verdict is a (label, run) pair: run(clock)
calls the library's public API, with the program calls inside `with clock:`
blocks, and returns the list of its oracle mismatches, checked after the
clock has stopped.

The seed reaches the program only as inputs: every graph is relabeled by a
seeded permutation (afresh on every pass) and switch-witness also switches
by a seeded vertex subset.  Every verdict is invariant under both, so the
frozen oracles hold for any seed.  Cost may depend on the labeling (pivot
and search order), so compare commits on the same seed.

Calls go through module attributes (R.build, not a name imported at load
time) so that the tracer's rebinding reaches them.
"""

from fractions import Fraction
from functools import partial

import rank3etf as R
from rank3etf.frames import EtfCertificate

from oracles import (
    ETF3_ORACLE,
    ETF4_ORACLE,
    EXPERIMENT_DECISIONS,
    ISO_PAIRS,
    REFUTE_DECISION,
    SRG_ORACLE,
    paley_descendant,
    welch_alpha_sq,
)

# Paley(q) for primes q = 1 mod 4, trimmed from 61..113 so that a run holds
# three or more passes; 89 keeps one instance at q >= 89
CONFERENCE_PALEY = (61, 73, 89)

# The 496-point row NOplus2n_2:5 is left out of table3.  Its one verdict
# takes 25-40 s on a 2-core host, as the labeling and the host's speed vary,
# and the runs the benchmark must fit into its time budget cannot repeat it.
TABLE3_ROWS = tuple(key for key in ETF3_ORACLE if key != ("NOplus2n_2", 5))

SWITCH_BOUND = 140  # the library's default switching-equivalence guard
ISO_BOUND = 300  # and its isomorphism guard


def relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def k1_plus(g):
    "g with an isolated vertex 0 added in front"
    return R.Graph.from_rows([0] + [r << 1 for r in g.rows], "K1+" + g.label)


def descendant_rows(rows, x):
    "adjacency rows after switching on the neighbourhood of x and deleting x"
    nb = rows[x]
    rest = ((1 << len(rows)) - 1) ^ nb
    low = (1 << x) - 1
    out = []
    for i, r in enumerate(rows):
        if i == x:
            continue
        r ^= rest if (nb >> i) & 1 else nb
        out.append((r & low) | ((r >> (x + 1)) << x))
    return out


def bijection_problem(rows_a, rows_b, perm):
    "None if perm maps graph a onto graph b, checked edge by edge"
    n = len(rows_a)
    if perm is None:
        return "no witness"
    if len(rows_b) != n or sorted(perm) != list(range(n)):
        return "witness is not a bijection"
    for i, r in enumerate(rows_a):
        image = 0
        while r:
            low = r & -r
            image |= 1 << perm[low.bit_length() - 1]
            r ^= low
        if image != rows_b[perm[i]]:
            return "witness breaks an edge at vertex %d" % i
    return None


def etf_problems(cert, M, N, alpha_sq):
    if cert.status != "ETF":
        return ["status %s, expected ETF" % cert.status]
    if (cert.M, cert.N) != (M, N):
        return ["(M, N) = (%d, %d), expected (%d, %d)" % (cert.M, cert.N, M, N)]
    if cert.alpha_sq != alpha_sq:
        return ["alpha^2 = %s, expected %s" % (cert.alpha_sq, alpha_sq)]
    return []


def involution_problems(gm, comp, M, N, alpha_sq):
    "naimark(naimark(G)) == G, the complement certified by its forced parameters"
    if comp.M != M:
        return ["complement has %d points, expected %d" % (comp.M, M)]
    forced = EtfCertificate(
        M, M - N, alpha_sq * Fraction(N, M - N) ** 2, Fraction(M, M - N), "ETF"
    )
    if R.naimark(comp, forced).entries != gm.entries:
        return ["naimark(naimark(G)) != G"]
    return []


# -- table3: the rational (D = 0) certification path ---------------------------


def _table3_row(fam, size, rng, clock):
    with clock:
        g = R.build(fam, size)
    g = relabel(g, rng)
    with clock:
        params = R.srg_params(g)
        gm = R.embedding_gram(g)
        cert = R.verify_etf(gm)
        comp = R.naimark(gm, cert)
    M, N, _ = ETF3_ORACLE[(fam, size)]
    alpha_sq = welch_alpha_sq(M, N)
    problems = []
    if params.as_tuple() != SRG_ORACLE[(fam, size)]:
        problems.append("srg parameters %r" % (params.as_tuple(),))
    problems += etf_problems(cert, M, N, alpha_sq)
    if not problems:
        problems += involution_problems(gm, comp, M, N, alpha_sq)
    return problems


def table3(rng):
    def one_pass():
        return [
            ("%s:%s" % key, partial(_table3_row, key[0], key[1], rng))
            for key in TABLE3_ROWS
        ]

    return one_pass


# -- conference: descendant Grams over Q(sqrt q), and a rejection ---------------


def _descendant_row(g, M, N, alpha_sq, clock):
    with clock:
        gm = R.descendant_gram(g)
        cert = R.verify_etf(gm)
        comp = R.naimark(gm, cert)
    problems = etf_problems(cert, M, N, alpha_sq)
    if not problems:
        problems += involution_problems(gm, comp, M, N, alpha_sq)
    return problems


def _rejection(g, clock):
    with clock:
        cert = R.verify_etf(R.embedding_gram(g))
    if cert.status != "NotEquiangular":
        return ["status %s, expected NotEquiangular" % cert.status]
    (i, j), (k, l) = cert.witness
    # the two squared angles of a conference embedding sit on edges and on
    # non-edges, so a true witness is one of each
    if (g.rows[i] >> j) & 1 == (g.rows[k] >> l) & 1:
        return ["witness pairs are both edges or both non-edges"]
    return []


def conference(rng):
    rows = [(fam, size, M, N, welch_alpha_sq(M, N)) for fam, size, M, N in ETF4_ORACLE]
    rows += [("Paley", q) + paley_descendant(q) for q in CONFERENCE_PALEY]
    graphs = [(row, R.build(row[0], row[1])) for row in rows]

    def one_pass():
        out = []
        for (fam, size, M, N, alpha_sq), g in graphs:
            h = relabel(g, rng)
            label = "%s:%s" % (fam, size)
            out.append((label, partial(_descendant_row, h, M, N, alpha_sq)))
            if size in CONFERENCE_PALEY and fam == "Paley":
                out.append((label + ":embedding", partial(_rejection, h)))
        return out

    return one_pass


# -- switch-refute: one exhaustive failed switching search ---------------------


def switch_refute(rng):
    a = k1_plus(R.build("Paley", 49))
    b = k1_plus(R.build("Peisert", 49))

    def one_pass():
        return [(
            "K1+Paley:49 vs K1+Peisert:49",
            partial(_switching, REFUTE_DECISION, relabel(a, rng), relabel(b, rng)),
        )]

    return one_pass


# -- switch-witness: positive decisions, each witness checked ------------------


def _switching(expected, a, b, clock):
    with clock:
        res = R.switching_equivalent(a, b)
    decision = "not_equivalent" if res is None else "equivalent"
    if decision != expected:
        return ["decided %s, expected %s" % (decision, expected)]
    if res is None:
        return []
    w, perm = res
    problem = bijection_problem(descendant_rows(a.rows, 0), descendant_rows(b.rows, w), perm)
    return [] if problem is None else [problem]


def _iso_problems(expected, rows_a, rows_b, perm):
    decision = "not_isomorphic" if perm is None else "isomorphic"
    if decision != expected:
        return ["decided %s, expected %s" % (decision, expected)]
    problem = None if perm is None else bijection_problem(rows_a, rows_b, perm)
    return [] if problem is None else [problem]


def _isomorphism(a, b, clock):
    with clock:
        perm = R.find_isomorphism(a, b)
    return _iso_problems("isomorphic", a.rows, b.rows, perm)


def _descendant_vs_o(src, target, clock):
    with clock:
        desc = R.descendant_at(src, 0)
        perm = R.find_isomorphism(desc, target)
    if list(desc.rows) != descendant_rows(src.rows, 0):
        return ["descendant_at(src, 0) is not the switched, deleted graph"]
    return _iso_problems(EXPERIMENT_DECISIONS["descendant_vs_O"], desc.rows, target.rows, perm)


def _menu():
    "((family, size), v) of every table3 and table4 menu graph"
    out = [(key, srg[0]) for key, srg in SRG_ORACLE.items()]
    out += [((fam, size), M - 1) for fam, size, M, _ in ETF4_ORACLE]
    return out


def switch_witness(rng):
    built = {}

    def get(fam, size, complemented=False):
        if (fam, size) not in built:
            built[(fam, size)] = R.build(fam, size)
        g = built[(fam, size)]
        return g.complement() if complemented else g

    menu = _menu()
    small = [get(*key) for key, v in menu if v <= SWITCH_BOUND]
    iso_pairs = [(g, g) for g in (get(*key) for key, v in menu if v <= ISO_BOUND)]
    iso_pairs += [(get(*a), get(*b)) for a, b in ISO_PAIRS]
    desc_src, desc_target = get("NOplus2n_2", 3), get("Ominus2n_2", 3)
    no4 = (get("NOplusOdd_4", 1), get("NOminus2n_2_comp", 2))
    pp9 = (k1_plus(get("Paley", 9)), k1_plus(get("Peisert", 9)))

    def one_pass():
        out = []
        for g in small:
            subset = [v for v in range(g.n) if rng.random() < 0.5]
            out.append((
                "switch %s" % g.label,
                partial(_switching, "equivalent", relabel(g, rng), relabel(g.switch(subset), rng)),
            ))
        for a, b in iso_pairs:
            label = "iso " + (a.label if a is b else "%s vs %s" % (a.label, b.label))
            out.append((label, partial(_isomorphism, relabel(a, rng), relabel(b, rng))))
        out.append((
            "descendant_vs_O",
            partial(_descendant_vs_o, relabel(desc_src, rng), relabel(desc_target, rng)),
        ))
        for name, (a, b) in (("switch_NO4_vs_NOminus", no4), ("switch_paley_peisert", pp9)):
            expected = EXPERIMENT_DECISIONS[name]
            out.append((name, partial(_switching, expected, relabel(a, rng), relabel(b, rng))))
        return out

    return one_pass


WORKLOADS = {
    "table3": table3,
    "conference": conference,
    "switch-refute": switch_refute,
    "switch-witness": switch_witness,
}
