"""
Report generation: the two ETF tables, their parameter-coincidence pairing,
and the equivalence experiments.

table3 rows certify the spherical embedding of each listed graph as an ETF
and report (M, N, M-N) with the exact common angle alpha^2.  table4 rows
take graphs with k = 2 mu, certify the bordered descendant Gram as an ETF
with (M, N) = (v+1, g+1); three rows whose graphs are out of constructive
range (McLaughlin, the 529-vertex square-Paley analogue, and the
(2209,1104,551,552) parameter set) are checked at spectrum level only and
flagged "parameter-only".  table5 groups rows of both tables sharing M and
the unordered pair {N, M-N}.

Experiments run the open equivalence questions and report decisions with
witnesses; outcomes are computed, never presumed.  Rows are generated in
fixed registry order so repeated runs are byte-identical.
"""

from dataclasses import dataclass
from fractions import Fraction
import time

import numpy as np

from .families import build
from .frames import descendant_gram, embedding_gram, verify_etf
from .graphs import Graph, NotStronglyRegular, SrgParams, spectrum, srg_params
from .iso import find_isomorphism
from .twographs import descendant_at, switching_equivalent

TABLE3_MENU = (
    ("NOplus2n_2", (3, 4, 5)),
    ("NOminus2n_2_comp", (2, 3, 4)),
    ("NOplusOdd_4", (1, 2)),
    ("NOminusOdd_4_comp", (2,)),
    ("VOplus", (2, 3)),
    ("VOminus_comp", (2, 3)),
    ("G2_2_comp", (None,)),
    ("M22_comp", (None,)),
)

TABLE4_MENU = (
    ("Sp2n_2", (2, 3)),
    ("Oplus2n_2", (2, 3)),
    ("Ominus2n_2", (3,)),
    ("Paley", (5, 9, 13, 17, 25, 29)),
    ("Peisert", (9, 49)),
)

# published parameter quadruples without an in-scope construction
PARAM_ONLY_ROWS = (
    ("McLaughlin", (275, 112, 30, 56)),
    ("Pstarstar_529", (529, 264, 131, 132)),
    ("SRG_2209_1104_551_552", (2209, 1104, 551, 552)),
)

EXPERIMENT_IDS = (
    "iso_checks",
    "descendant_vs_O",
    "switch_NO4_vs_NOminus",
    "switch_paley_peisert",
)


@dataclass(frozen=True)
class ReportRow:
    family: str
    size: int | None
    v: int
    k: int
    lam: int
    mu: int
    M: int
    N: int
    alpha_sq: Fraction | None
    status: str
    provenance: str

    @property
    def m_minus_n(self):
        return self.M - self.N

    def to_dict(self):
        return {
            "family": self.family,
            "size": self.size,
            "v": self.v,
            "k": self.k,
            "lambda": self.lam,
            "mu": self.mu,
            "M": self.M,
            "N": self.N,
            "M_minus_N": self.m_minus_n,
            "alpha_sq": None if self.alpha_sq is None else str(self.alpha_sq),
            "status": self.status,
            "provenance": self.provenance,
        }


class CertificationFailure(RuntimeError):
    "a table row failed its certification; carries the offending row, or None"

    def __init__(self, row, detail):
        super().__init__(detail if row is None else "%s: %s" % (row, detail))
        self.row = row
        self.detail = detail


def _sizes(menu_sizes, family, max_n, max_q):
    is_field_family = family in ("Paley", "Peisert")
    cap = max_q if is_field_family else max_n
    return [s for s in menu_sizes if s is None or cap is None or s <= cap]


def graph_row(g, family, size, provenance):
    "the row of g's spherical embedding, certified; NotStronglyRegular if g is not an SRG"
    p, cert = srg_params(g), verify_etf(embedding_gram(g))
    return ReportRow(family, size, *p.as_tuple(), cert.M, cert.N, cert.alpha_sq, cert.status,
                     provenance)


def embedding_row(family, size):
    row = graph_row(build(family, size), family, size, "table3")  # build has certified it
    if row.status != "ETF":
        raise CertificationFailure(row, "embedding did not certify as ETF")
    return row


def descendant_row(family, size):
    g = build(family, size)
    p = srg_params(g)  # the parameters build has certified
    if p.k != 2 * p.mu:
        raise CertificationFailure(None, "%s:%s has k != 2 mu" % (family, size))
    cert = verify_etf(descendant_gram(g))
    sp = spectrum(p)
    row = ReportRow(family, size, *p.as_tuple(), cert.M, cert.N, cert.alpha_sq, cert.status,
                    "table4")
    if not cert.is_etf:
        raise CertificationFailure(row, "descendant Gram did not certify as ETF")
    if (cert.M, cert.N) != (p.v + 1, sp.g + 1):
        raise CertificationFailure(row, "(M, N) != (v+1, g+1)")
    return row


def param_only_row(name, quad):
    p = SrgParams(*quad)
    if p.k != 2 * p.mu:
        raise CertificationFailure(None, "%s has k != 2 mu" % name)
    sp = spectrum(p)
    M, N = p.v + 1, sp.g + 1
    alpha_sq = Fraction(M - N, N * (M - 1))
    return ReportRow(name, None, *p.as_tuple(), M, N, alpha_sq, "parameter-only", "table4")


def generate_table(which, max_n=None, max_q=None):
    if which == "table3":
        return [
            embedding_row(fam, s)
            for fam, sizes in TABLE3_MENU
            for s in _sizes(sizes, fam, max_n, max_q)
        ]
    if which == "table4":
        rows = [
            descendant_row(fam, s)
            for fam, sizes in TABLE4_MENU
            for s in _sizes(sizes, fam, max_n, max_q)
        ]
        rows.extend(param_only_row(name, quad) for name, quad in PARAM_ONLY_ROWS)
        return rows
    if which == "table5":
        rows = generate_table("table3", max_n, max_q) + generate_table(
            "table4", max_n, max_q
        )
        groups = {}
        for row in rows:
            key = (row.M, frozenset((row.N, row.m_minus_n)))
            groups.setdefault(key, []).append(row)
        out = []
        for key in sorted(groups, key=lambda t: (t[0], min(t[1]))):
            if len(groups[key]) >= 2:
                out.extend(groups[key])
        return out
    raise ValueError("unknown table: %r" % (which,))


# -- experiments ---------------------------------------------------------------


def _graph_summary(g):
    try:
        params = srg_params(g).as_tuple()
    except NotStronglyRegular:
        params = None  # K1 + G unions are deliberately not strongly regular
    return {"label": g.label, "v": g.n, "params": params}


def _iso_decision(a, b):
    perm = find_isomorphism(a, b)
    return {
        "pair": [a.label, b.label],
        "graphs": [_graph_summary(a), _graph_summary(b)],
        "decision": "isomorphic" if perm is not None else "not_isomorphic",
        "witness": perm,
    }


def _switch_decision(a, b):
    res = switching_equivalent(a, b)
    out = {
        "pair": [a.label, b.label],
        "graphs": [_graph_summary(a), _graph_summary(b)],
        "decision": "equivalent" if res is not None else "not_equivalent",
        "witness": None,
    }
    if res is not None:
        w, perm = res
        out["witness"] = {"isolated_vertex_of_second": w, "bijection": perm}
    return out


def _k1_plus(g):
    "g with an isolated vertex 0 added in front"
    return Graph.from_adjacency(np.pad(g.adjacency_bits(), (1, 0)), "K1+" + g.label)


ISO_CHECK_PAIRS = (
    ("Triangular", 5, None, "NOminus2n_2_comp", 2, None),
    ("Triangular", 6, "complement", "Sp2n_2", 2, None),
    ("Lattice", 3, None, "Paley", 9, None),
    ("Paley", 9, None, "Oplus2n_2", 2, None),
    ("Lattice", 4, "complement", "VOplus", 2, None),
    ("Triangular", 8, "complement", "NOplus2n_2", 3, None),
)


def run_experiment(exp_id, size=None):
    "run one equivalence question; decisions are computed, never presumed"
    t0 = time.monotonic()
    checks = []
    if exp_id == "iso_checks":
        if size is not None:
            raise ValueError("iso_checks takes no size")
        for fam_a, sz_a, op_a, fam_b, sz_b, op_b in ISO_CHECK_PAIRS:
            a = build(fam_a, sz_a)
            if op_a == "complement":
                a = a.complement()
            b = build(fam_b, sz_b)
            if op_b == "complement":
                b = b.complement()
            checks.append(_iso_decision(a, b))
    elif exp_id == "descendant_vs_O":
        n = 3 if size is None else size
        src = build("NOplus2n_2", n)
        desc = descendant_at(src, 0)
        desc.label = "descendant(%s, 0)" % src.label
        target = build("Ominus2n_2", n)
        checks.append(_iso_decision(desc, target))
    elif exp_id == "switch_NO4_vs_NOminus":
        n = 1 if size is None else size
        a = build("NOplusOdd_4", n)
        b = build("NOminus2n_2_comp", 2 * n)
        checks.append(_switch_decision(a, b))
    elif exp_id == "switch_paley_peisert":
        q = 9 if size is None else size
        a = _k1_plus(build("Paley", q))
        b = _k1_plus(build("Peisert", q))
        checks.append(_switch_decision(a, b))
    else:
        raise ValueError(
            "unknown experiment %r (options: %s)" % (exp_id, ", ".join(EXPERIMENT_IDS))
        )
    return {
        "id": exp_id,
        "size": size,
        "checks": checks,
        "wall_time": round(time.monotonic() - t0, 3),
    }
