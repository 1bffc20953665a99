"""
Command-line interface: build graphs, certify embeddings, reproduce the
report tables, and run the equivalence experiments.

Exit codes: 0 success, 1 certification failure (non-SRG input, non-ETF
embedding, or a failed table row), 2 usage error, including a size outside
a family's range, a build over the vertex bound, or an unreadable --input
graph.  Usage errors are ValueErrors, and family sizes are checked by the
family registry alone.  Output format is selected with --format (text,
json, csv); graph and Gram exports are always JSON documents.  The
environment variable ETF_RANK3_MAX_VERTICES overrides the built-in
vertex-count guards.
"""

import argparse
import csv
import io
import json
import sys

from .families import build, family_info
from .frames import embedding_gram, entry_strings, gram_to_json, verify_etf, vo_vectors
from .graphs import Graph, NotStronglyRegular, srg_params
from .tables import (
    EXPERIMENT_IDS,
    CertificationFailure,
    generate_table,
    graph_row,
    run_experiment,
)

CSV_COLUMNS = [
    "family", "size", "v", "k", "lambda", "mu",
    "M", "N", "M_minus_N", "alpha_sq", "status", "provenance",
]


def _emit(text, output):
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as e:
            raise ValueError("cannot write %s: %s" % (output, e))
    else:
        print(text)


def _rows_text(rows):
    lines = [
        "%-24s %-5s %5s %5s %7s %5s %5s %5s %6s %-10s %-15s %s"
        % ("family", "size", "v", "k", "lambda", "mu", "M", "N", "M-N",
           "alpha_sq", "status", "provenance")
    ]
    for r in rows:
        lines.append(
            "%-24s %-5s %5d %5d %7d %5d %5d %5d %6d %-10s %-15s %s"
            % (
                r.family,
                "" if r.size is None else r.size,
                r.v, r.k, r.lam, r.mu, r.M, r.N, r.m_minus_n,
                "" if r.alpha_sq is None else str(r.alpha_sq),
                r.status,
                r.provenance,
            )
        )
    return "\n".join(lines)


def _csv(header, rows):
    "header and rows through csv.writer, quoting what needs it; no final newline"
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _render_rows(rows, fmt):
    if fmt == "json":
        return json.dumps([r.to_dict() for r in rows], indent=2)
    if fmt == "csv":
        dicts = (r.to_dict() for r in rows)
        return _csv(CSV_COLUMNS, (["" if d[c] is None else d[c] for c in CSV_COLUMNS]
                                  for d in dicts))
    return _rows_text(rows)


def _load_graph(args):
    if args.input:
        try:
            with open(args.input) as fh:
                return Graph.from_json(fh.read())
        except (OSError, ValueError) as e:
            raise ValueError("cannot read graph %s: %s" % (args.input, e))
    if not args.family:
        raise ValueError("either a family or --input is required")
    return build(args.family, args.size)


def cmd_list(args):
    info = family_info()
    if args.format == "json":
        _emit(json.dumps(info, indent=2), args.output)
    elif args.format == "csv":
        _emit(_csv(["family", "needs_size", "table"],
                   ([r["family"], r["needs_size"], r["table"] or ""] for r in info)),
              args.output)
    else:
        lines = ["%-24s %-10s %s" % ("family", "needs_size", "table")]
        for row in info:
            lines.append(
                "%-24s %-10s %s"
                % (row["family"], "yes" if row["needs_size"] else "no",
                   row["table"] or "-")
            )
        _emit("\n".join(lines), args.output)
    return 0


def cmd_build(args):
    g = build(args.family, args.size)
    _emit(g.to_json(), args.output)
    return 0


def cmd_verify_srg(args):
    g = _load_graph(args)
    try:
        p = srg_params(g)
    except NotStronglyRegular as e:
        _emit("not strongly regular: %s" % e, args.output)
        return 1
    payload = {
        "label": g.label, "v": p.v, "k": p.k, "lambda": p.lam, "mu": p.mu,
        "status": "SRG",
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.output)
    elif args.format == "csv":
        _emit(_csv(list(payload), [list(payload.values())]), args.output)
    else:
        _emit(
            "%s: SRG(v=%d, k=%d, lambda=%d, mu=%d)" % (g.label, p.v, p.k, p.lam, p.mu),
            args.output,
        )
    return 0


def cmd_verify_etf(args):
    g = _load_graph(args)
    name, size = (g.label or "input", None) if args.input else (args.family, args.size)
    row = graph_row(g, name, size, "experiment")
    _emit(_render_rows([row], args.format), args.output)
    return 0 if row.status == "ETF" else 1


def cmd_table(which):
    def run(args):
        max_n = getattr(args, "max_n", None)
        max_q = getattr(args, "max_q", None)
        rows = generate_table(which, max_n=max_n, max_q=max_q)
        _emit(_render_rows(rows, args.format), args.output)
        return 0

    return run


def cmd_experiment(args):
    report = run_experiment(args.id, args.size)
    if args.format == "json":
        _emit(json.dumps(report, indent=2), args.output)
    elif args.format == "csv":
        _emit(_csv(["id", "pair", "decision", "wall_time"],
                   ([report["id"], " vs ".join(c["pair"]), c["decision"], report["wall_time"]]
                    for c in report["checks"])),
              args.output)
    else:
        lines = []
        for c in report["checks"]:
            lines.append("%s: %s -> %s" % (report["id"], " vs ".join(c["pair"]),
                                           c["decision"]))
            if c["witness"] is not None:
                lines.append("  witness: %s" % (c["witness"],))
        lines.append("wall time: %ss" % report["wall_time"])
        _emit("\n".join(lines), args.output)
    return 0


def cmd_export_gram(args):
    g = build(args.family, args.size)
    gm = embedding_gram(g)
    cert = verify_etf(gm)
    _emit(gram_to_json(gm, cert), args.output)
    return 0


def cmd_export_vectors(args):
    kinds = {"VOplus": "plus", "VOminus_comp": "minus_comp"}
    if args.family not in kinds:
        raise ValueError("export-vectors supports: %s" % ", ".join(kinds))
    build(args.family, args.size)  # build's size check and vertex bound cover the 4^n columns
    mat = vo_vectors(args.size, kinds[args.family])
    flat = entry_strings(mat)
    payload = {
        "family": args.family,
        "size": args.size,
        "N": mat.rows,
        "M": mat.cols,
        "D": mat.D,
        "entries": [flat[i : i + mat.cols] for i in range(0, len(flat), mat.cols)],
    }
    _emit(json.dumps(payload, separators=(",", ":")), args.output)
    return 0


def _add_common(p, with_format=True):
    p.add_argument("--output", help="write to this file instead of stdout")
    if with_format:
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text",
            help="report format (default text)",
        )


def build_parser():
    ap = argparse.ArgumentParser(
        prog="rank3etf",
        description="Exact real-ETF certification for rank 3 strongly regular graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list the buildable graph families")
    _add_common(p)
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("build", help="build a graph and print its JSON")
    p.add_argument("family")
    p.add_argument("size", nargs="?", type=int)
    _add_common(p, with_format=False)
    p.set_defaults(func=cmd_build)

    for name, func, help_text in (
        ("verify-srg", cmd_verify_srg, "certify strong regularity"),
        ("verify-etf", cmd_verify_etf, "certify the spherical embedding as an ETF"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("family", nargs="?")
        p.add_argument("size", nargs="?", type=int)
        p.add_argument("--input", help="read a graph JSON file instead of building")
        _add_common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("table3", help="embedding ETF table")
    p.add_argument("--max-n", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_table("table3"))

    p = sub.add_parser("table4", help="descendant ETF table")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-q", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_table("table4"))

    p = sub.add_parser("table5", help="parameter coincidences between the tables")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-q", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_table("table5"))

    p = sub.add_parser("experiment", help="run an equivalence experiment")
    p.add_argument("id", help="one of: %s" % ", ".join(EXPERIMENT_IDS))
    p.add_argument("--size", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("export-gram", help="embedding Gram with certificate, JSON")
    p.add_argument("family")
    p.add_argument("size", nargs="?", type=int)
    _add_common(p, with_format=False)
    p.set_defaults(func=cmd_export_gram)

    p = sub.add_parser("export-vectors", help="explicit frame vectors, JSON")
    p.add_argument("family")
    p.add_argument("size", nargs="?", type=int)
    _add_common(p, with_format=False)
    p.set_defaults(func=cmd_export_vectors)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CertificationFailure as e:
        print("certification failure: %s" % e, file=sys.stderr)
        return 1
    except NotStronglyRegular as e:
        print("not strongly regular: %s" % e, file=sys.stderr)
        return 1
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
