"""
CLI contract: exit codes (0 success, 1 failed certification, 2 usage), the
three output formats, --output file writing (an unwritable path is a usage
error), graph JSON round trips through build / verify, graph JSON over the
build bound rejected before any array is made, deeply nested graph JSON
rejected without a traceback, and the export payloads.
"""

import csv
import dataclasses
import io
import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

import rank3etf
from rank3etf import families, graphs, tables
from rank3etf.cli import CSV_COLUMNS, main
from rank3etf.frames import gram_from_json
from rank3etf.graphs import Graph
from rank3etf.qext import QuadExt


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_list(capsys):
    rc, out, _ = run(capsys, "list")
    assert rc == 0
    assert "Paley" in out and "needs_size" in out
    rc, out, _ = run(capsys, "list", "--format", "json")
    info = json.loads(out)
    assert {"family": "VOplus", "needs_size": True, "table": 3} in [
        {k: r[k] for k in ("family", "needs_size", "table")} for r in info
    ]
    rc, out, _ = run(capsys, "list", "--format", "csv")
    assert out.splitlines()[0] == "family,needs_size,table"


def test_build_and_round_trip(capsys, tmp_path):
    path = tmp_path / "g.json"
    rc, out, _ = run(capsys, "build", "Paley", "9", "--output", str(path))
    assert rc == 0 and out == ""
    g = Graph.from_json(path.read_text())
    assert g.n == 9
    rc, out, _ = run(capsys, "verify-srg", "--input", str(path))
    assert rc == 0
    assert "SRG" in out and "k=4" in out


def test_build_usage_errors(capsys):
    assert run(capsys, "build", "Nonesuch", "3")[0] == 2
    assert run(capsys, "build", "Paley")[0] == 2  # needs a size
    assert run(capsys, "build", "G2_2_comp", "2")[0] == 2  # takes none
    rc, _, err = run(capsys, "verify-etf")
    assert rc == 2 and "either a family or --input" in err
    # sizes outside a family's range, and builds over the vertex bound
    for argv in (
        ("Peisert", "6561"), ("Paley", "15"), ("NOplusOdd_4", "0"), ("NOplusOdd_4", "3"),
    ):
        rc, out, err = run(capsys, "build", *argv)
        assert rc == 2 and out == "" and err.startswith("error: ")
    assert "build bound" in err


def test_field_sizes_meet_the_build_bound_before_a_field(capsys, monkeypatch):
    # the size checks factor q without building GF(q), whose arrays have length q
    monkeypatch.delenv("ETF_RANK3_MAX_VERTICES", raising=False)

    def no_field(q):
        raise RuntimeError("GF(%d) built" % q)

    monkeypatch.setattr(families, "field", no_field)
    for argv in (("Paley", "20000033"), ("Peisert", "100140049"), ("Peisert", "6561")):
        rc, out, err = run(capsys, "build", *argv)  # a prime, 10007^2 and 3^8
        assert rc == 2 and out == "" and "build bound" in err, argv
    # inside the bound, 3^8 is past the largest field extension degree
    monkeypatch.undo()
    monkeypatch.setenv("ETF_RANK3_MAX_VERTICES", "7000")
    rc, out, err = run(capsys, "build", "Peisert", "6561")
    assert rc == 2 and out == "" and "the exponent must be between 1 and 6" in err


def test_field_sizes_meet_the_build_bound_before_factoring(capsys, monkeypatch):
    # (10^9 + 9)^2 = 1 mod 4: trial division up to its root would run for minutes
    monkeypatch.delenv("ETF_RANK3_MAX_VERTICES", raising=False)

    def no_factoring(q):
        raise RuntimeError("%d factored" % q)

    monkeypatch.setattr(families, "prime_power", no_factoring)
    for fam in ("Paley", "Peisert"):
        rc, out, err = run(capsys, "build", fam, "1000000018000000081")
        assert rc == 2 and out == "" and "build bound" in err, fam


def test_power_sizes_meet_the_build_bound_before_a_closed_form(capsys, monkeypatch):
    # 4**n at n = 10^20 cannot be held in memory, and every q^n row has
    # v >= 2^n, so its size is bounded before any closed form is evaluated
    def no_closed_form(family, size=None):
        raise RuntimeError("closed form of %s evaluated at %d" % (family, size))

    monkeypatch.setattr(families, "expected_params", no_closed_form)
    power_rows = ("NOplus2n_2", "NOminus2n_2_comp", "NOplusOdd_4", "NOminusOdd_4_comp", "VOplus",
                  "VOminus_comp", "Sp2n_2", "Oplus2n_2", "Ominus2n_2")
    for bound, sizes in ((None, ("10", "99999999999999999999")), ("100000", ("17",))):
        if bound is None:
            monkeypatch.delenv("ETF_RANK3_MAX_VERTICES", raising=False)
        else:
            monkeypatch.setenv("ETF_RANK3_MAX_VERTICES", bound)
        for fam in power_rows:
            commands = ["build", "verify-srg", "verify-etf", "export-gram"]
            if fam.startswith("VO"):
                commands.append("export-vectors")
            for cmd in commands:
                for size in sizes:
                    rc, out, err = run(capsys, cmd, fam, size)
                    assert rc == 2 and out == "" and err.startswith("error: "), (cmd, fam, size)
                    assert "build bound" in err, (cmd, fam, size)


def test_verify_srg_rejects(capsys, tmp_path):
    path = tmp_path / "path.json"
    path.write_text(Graph(4, [(0, 1), (1, 2), (2, 3)], "P4").to_json())
    rc, out, _ = run(capsys, "verify-srg", "--input", str(path))
    assert rc == 1 and "not strongly regular" in out
    rc, out, _ = run(capsys, "verify-srg", "Paley", "13", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert (payload["v"], payload["k"], payload["lambda"], payload["mu"]) == (
        13, 6, 2, 3,
    )


def test_bad_graph_input_exits_2(capsys, tmp_path):
    cases = {
        "missing.json": None,
        "bad.json": "{not json",
        "nov.json": '{"edges": []}',
        "range.json": '{"v": 3, "edges": [[0, 3]]}',
        "loop.json": '{"v": 3, "edges": [[1, 1]]}',
        "short.json": '{"v": 3, "edges": [[1]]}',
    }
    for name, text in cases.items():
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        for cmd in ("verify-srg", "verify-etf"):
            rc, out, err = run(capsys, cmd, "--input", str(path))
            assert rc == 2 and out == "", (cmd, name)
            assert err.startswith("error: cannot read graph"), (cmd, name, err)


def test_deeply_nested_graph_input_exits_2(tmp_path):
    # json.loads raises RecursionError on deep nesting; from_json turns it
    # into a ValueError, so the CLI prints its usage error, not a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    paths = (str(Path(rank3etf.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    for cmd in ("verify-srg", "verify-etf"):
        done = subprocess.run(
            [sys.executable, "-m", "rank3etf.cli", cmd, "--input", str(path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2 and done.stdout == "", (cmd, done.stderr)
        assert "cannot read graph" in done.stderr and "Traceback" not in done.stderr, cmd


def test_huge_graph_input_exits_2_before_allocating(capsys, tmp_path, monkeypatch):
    # a 10**6 x 10**6 adjacency array would need a terabyte: the build bound
    # rejects the document before any array is made
    monkeypatch.delenv("ETF_RANK3_MAX_VERTICES", raising=False)
    path = tmp_path / "huge.json"
    path.write_text('{"v": 1000000, "edges": [[0, 1]]}')
    for cmd in ("verify-srg", "verify-etf"):
        rc, out, err = run(capsys, cmd, "--input", str(path))
        assert rc == 2 and out == "", cmd
        assert err.startswith("error: cannot read graph") and "exceeds the build bound 1000" in err
    # the environment variable moves the bound both ways, as it does for build
    path.write_text('{"v": 1001, "edges": [[0, 1]]}')
    monkeypatch.setenv("ETF_RANK3_MAX_VERTICES", "1001")
    rc, out, _ = run(capsys, "verify-srg", "--input", str(path))
    assert rc == 1 and "degree differs at vertex" in out
    path.write_text(Graph(9, [(i, (i + 1) % 9) for i in range(9)]).to_json())
    monkeypatch.setenv("ETF_RANK3_MAX_VERTICES", "8")
    rc, _, err = run(capsys, "verify-srg", "--input", str(path))
    assert rc == 2 and "9 vertices exceeds the build bound 8" in err


def test_verify_etf_exit_codes(capsys):
    rc, out, _ = run(capsys, "verify-etf", "VOplus", "2")
    assert rc == 0 and "ETF" in out
    rc, out, _ = run(capsys, "verify-etf", "Sp2n_2", "2")
    assert rc == 1 and "NotEquiangular" in out


def test_verify_etf_certifies_its_graph_once(capsys, tmp_path, certifications):
    # build certifies a family graph against the closed form, verify-etf a
    # file's graph; the row and embedding_gram read the parameters it keeps
    path = tmp_path / "g.json"
    assert run(capsys, "build", "NOplus2n_2", "3", "--output", str(path))[0] == 0
    for argv in (("NOplus2n_2", "3"), ("--input", str(path))):
        certifications.clear()
        rc, out, _ = run(capsys, "verify-etf", *argv, "--format", "csv")
        assert rc == 0 and len(certifications) == 1, argv
        cells = dict(zip(CSV_COLUMNS, out.splitlines()[1].split(",")))
        p = graphs.srg_params(Graph.from_rows(certifications[0]))
        assert [cells[c] for c in ("v", "k", "lambda", "mu")] == [str(x) for x in p.as_tuple()]


def test_csv_quotes_labels(capsys, tmp_path):
    path = tmp_path / "g.json"
    g = Graph.from_json(run(capsys, "build", "Paley", "13")[1])
    g.label = 'my,graph "x"'
    path.write_text(g.to_json())
    # Paley(13) is strongly regular, and its embedding is not equiangular
    for cmd, ncols, code in (("verify-srg", 6, 0), ("verify-etf", len(CSV_COLUMNS), 1)):
        rc, out, _ = run(capsys, cmd, "--input", str(path), "--format", "csv")
        assert rc == code
        header, row = csv.reader(io.StringIO(out))
        assert len(header) == len(row) == ncols
        assert row[0] == g.label
    rc, out, _ = run(capsys, "verify-srg", "Paley", "13", "--format", "csv")
    assert out == "label,v,k,lambda,mu,status\nPaley:13,13,6,2,3,SRG\n"


def test_verify_etf_from_file(capsys, tmp_path):
    path = tmp_path / "g.json"
    assert run(capsys, "build", "NOminus2n_2_comp", "2", "--output", str(path))[0] == 0
    rc, out, _ = run(capsys, "verify-etf", "--input", str(path), "--format", "csv")
    assert rc == 0
    header, row = out.splitlines()
    assert header == ",".join(CSV_COLUMNS)
    cells = dict(zip(CSV_COLUMNS, row.split(",")))
    assert (cells["M"], cells["N"], cells["alpha_sq"]) == ("10", "5", "1/9")
    assert cells["provenance"] == "experiment"


def test_table4_csv(capsys):
    rc, out, _ = run(capsys, "table4", "--max-n", "2", "--max-q", "5",
                     "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 3 + 3  # Sp, O+, Paley 5, then three parameter-only
    assert lines[1].startswith("Sp2n_2,2,15,6,1,3,16,6,10,1/9,ETF,table4")
    assert any(line.startswith("McLaughlin,,275,") for line in lines)


def test_table3_truncated_json(capsys):
    rc, out, _ = run(capsys, "table3", "--max-n", "1", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert [(r["family"], r["M"], r["N"]) for r in rows] == [
        ("NOplusOdd_4", 10, 5),
        ("G2_2_comp", 36, 21),
        ("M22_comp", 176, 154),
    ]
    assert all(r["status"] == "ETF" for r in rows)


def test_table5_empty_when_no_coincidence(capsys):
    # max_n=0 leaves only sizeless rows and parameter-only rows, no shared M
    rc, out, _ = run(capsys, "table5", "--max-n", "0", "--max-q", "0")
    assert rc == 0
    assert len(out.splitlines()) == 1  # header only


def test_experiment_formats(capsys):
    rc, out, _ = run(capsys, "experiment", "switch_NO4_vs_NOminus")
    assert rc == 0
    assert "->" in out and "wall time:" in out
    rc, out, _ = run(capsys, "experiment", "switch_paley_peisert",
                     "--format", "json")
    report = json.loads(out)
    assert set(report) == {"id", "size", "checks", "wall_time"}
    rc, out, _ = run(capsys, "experiment", "descendant_vs_O", "--format", "csv")
    assert out.splitlines()[0] == "id,pair,decision,wall_time"
    assert run(capsys, "experiment", "bogus")[0] == 2
    rc, out, err = run(capsys, "experiment", "iso_checks", "--size", "3")
    assert rc == 2 and out == "" and err == "error: iso_checks takes no size\n"


def test_export_gram(capsys, tmp_path):
    path = tmp_path / "gram.json"
    rc, _, _ = run(capsys, "export-gram", "VOplus", "2", "--output", str(path))
    assert rc == 0
    text = path.read_text()
    gm = gram_from_json(text)
    assert gm.M == 16
    cert = json.loads(text)["certificate"]
    assert cert["status"] == "ETF" and cert["N"] == 6


def test_export_vectors(capsys):
    rc, out, _ = run(capsys, "export-vectors", "VOplus", "2")
    assert rc == 0
    payload = json.loads(out)
    assert (payload["N"], payload["M"]) == (6, 16)
    assert len(payload["entries"]) == 6
    assert all(len(row) == 16 for row in payload["entries"])
    for s in payload["entries"][0]:
        QuadExt.parse(s)  # every entry is a serialized exact scalar
    assert run(capsys, "export-vectors", "Paley", "9")[0] == 2
    assert run(capsys, "export-vectors", "VOplus")[0] == 2
    # the family's own size check and the build vertex bound (M = 4^n)
    for argv in (("VOplus", "0"), ("VOplus", "1"), ("VOminus_comp", "1"), ("VOplus", "13")):
        rc, out, err = run(capsys, "export-vectors", *argv)
        assert rc == 2 and out == "" and err.startswith("error: "), argv
    assert "build bound" in err


def test_output_files_end_with_newline(capsys, tmp_path):
    path = tmp_path / "t.csv"
    run(capsys, "table4", "--max-q", "5", "--max-n", "2", "--format", "csv",
        "--output", str(path))
    text = path.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_unwritable_output_exits_2(capsys, tmp_path):
    path = tmp_path / "no-such-dir" / "x.txt"
    for argv in (("list",), ("build", "Paley", "9"), ("verify-srg", "Paley", "9")):
        rc, out, err = run(capsys, *argv, "--output", str(path))
        assert rc == 2 and out == "", argv
        assert err.startswith("error: cannot write %s: " % path), (argv, err)


def test_table_certification_failure_exits_1(capsys, monkeypatch):
    real = tables.verify_etf
    monkeypatch.setattr(
        tables, "verify_etf", lambda gm: dataclasses.replace(real(gm), status="NotTight")
    )
    rc, out, err = run(capsys, "table3")
    assert rc == 1 and out == ""
    assert err.startswith("certification failure: ") and err.count("\n") == 1
    assert err.endswith("embedding did not certify as ETF\n")


def test_argparse_usage_exits(capsys):
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2
    with pytest.raises(SystemExit):
        main([])
