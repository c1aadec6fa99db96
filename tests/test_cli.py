"""End-to-end CLI behaviour: exit codes, JSONL records, stream separation."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import peelbound
from peelbound import cli
from helpers import eccentricities_by_bfs
from peelbound.cli import main
from peelbound.gen import gen_nested_cycles, gen_prism_grid, gen_random_triangulation
from peelbound.graphio import loads_plane_graph, to_document
from peelbound.oracle import VerifyReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


NESTED = to_document(gen_nested_cycles(3, 1))


def stdout_records(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def write_graph(capsys, tmp_path, *argv):
    path = tmp_path / "graph.json"
    code, _, _ = run(capsys, "generate", *argv, "--out", str(path))
    assert code == 0
    return str(path)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_to_stdout(capsys):
    code, out, err = run(capsys, "generate", "nested", "--g", "3", "--k", "3")
    assert code == 0
    g = loads_plane_graph(out)
    assert g.n == 11 and g.meta["family"] == "nested"
    assert "generate nested" in err
    assert out.count("\n") == 1  # single machine line on stdout


def test_generate_to_file(capsys, tmp_path):
    path = tmp_path / "p.json"
    code, out, _ = run(capsys, "generate", "prism", "--k", "1", "--out", str(path))
    assert code == 0
    (record,) = stdout_records(out)
    assert record["command"] == "generate"
    assert record["n"] == 20 and record["out"] == str(path)
    with open(path, encoding="utf-8") as fh:
        assert loads_plane_graph(fh.read()).n == 20


def test_generate_round_trips_through_cli(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "lowerbound-h", "--g", "5", "--k", "3")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    g = loads_plane_graph(text)
    from peelbound.graphio import dumps_plane_graph

    assert dumps_plane_graph(g) + "\n" == text


GENERATE_ARGS = {
    "nested": ("--g", "3", "--k", "4"),
    "lowerbound-h": ("--g", "5", "--k", "3"),
    "prism": ("--k", "2"),
    "random": ("--n", "40", "--seed", "5"),
}


@pytest.mark.parametrize("family", cli.FAMILIES)
def test_generate_stdout_matches_out_file(capsys, tmp_path, family):
    code, out, _ = run(capsys, "generate", family, *GENERATE_ARGS[family])
    assert code == 0
    path = tmp_path / "g.json"
    code, _, _ = run(capsys, "generate", family, *GENERATE_ARGS[family], "--out", str(path))
    assert code == 0
    assert out.encode() == path.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "nested"),                  # missing --g/--k
        ("generate", "random"),                  # missing --n
        ("generate", "nested", "--g", "0", "--k", "3"),
        ("generate", "klein-bottle"),            # unknown family (usage error)
        (),                                      # no subcommand
        ("frobnicate",),
    ],
)
def test_bad_invocations_exit_one(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 1


# ---------------------------------------------------------------------------
# center
# ---------------------------------------------------------------------------


def test_center_record(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "random", "--n", "60", "--seed", "4")
    code, out, err = run(capsys, "center", path)
    assert code == 0
    (record,) = stdout_records(out)
    assert record["command"] == "center" and record["n"] == 60
    cert = record["certificate"]
    assert {"s", "bound", "g", "case"} <= set(cert)
    assert record["peel_bound"] == cert["bound"] + 1
    assert "eccentricity <=" in err


def test_center_writes_certificate(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "nested", "--g", "3", "--k", "5")
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "center", path, "--out", str(cert_path))
    assert code == 0
    with open(cert_path, encoding="utf-8") as fh:
        cert = json.load(fh)
    (record,) = stdout_records(out)
    assert cert == record["certificate"]


def test_center_connects_disconnected_input(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "nested", "--g", "4", "--k", "3")
    code, out, _ = run(capsys, "center", path)
    assert code == 0
    (record,) = stdout_records(out)
    assert record["m"] > 12  # bridges were added before the pipeline ran


def test_center_infeasible_g_exits_two(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "nested", "--g", "3", "--k", "3")
    code, _, err = run(capsys, "center", path, "--g", "9")
    assert code == 2
    assert "infeasible" in err


def test_center_explicit_small_g(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "nested", "--g", "3", "--k", "3")
    code, out, _ = run(capsys, "center", path, "--g", "2")
    assert code == 0
    (record,) = stdout_records(out)
    assert record["certificate"]["g"] == 2


def test_center_diameter_mode(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "random", "--n", "40", "--seed", "1")
    code, out, _ = run(capsys, "center", path, "--mode", "diameter")
    assert code == 0
    (record,) = stdout_records(out)
    assert record["certificate"]["case"] == "diameter"


def test_center_diameter_mode_rejects_g(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "random", "--n", "40", "--seed", "1")
    code, out, err = run(capsys, "center", path, "--mode", "diameter", "--g", "3")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "girth method only" in err


def test_center_bad_g_value(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "random", "--n", "20", "--seed", "0")
    code, _, err = run(capsys, "center", path, "--g", "many")
    assert code == 1
    assert "--g" in err


def test_center_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "center", str(tmp_path / "nope.json"))
    assert code == 1
    assert "cannot read graph" in err


def test_center_reads_stdin(capsys, tmp_path, monkeypatch):
    code, out, _ = run(capsys, "generate", "random", "--n", "30", "--seed", "2")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out2, _ = run(capsys, "center", "-")
    assert code == 0
    (record,) = stdout_records(out2)
    assert record["n"] == 30


def test_center_rejects_garbage_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{ not json"))
    code, _, err = run(capsys, "center", "-")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "patch",
    [
        {"n": None},
        {"edges": 5},
        {"rotation": [3]},
        {"faces": [[None]]},
        {"flags": [1]},
        {"flags": 0},
        {"meta": [["fse_at_least", 99]]},
    ],
    ids=[
        "null-n", "scalar-edges", "scalar-rotation-row", "null-walk", "list-flags", "zero-flags",
        "list-meta",
    ],
)
def test_center_rejects_mistyped_documents(capsys, tmp_path, patch):
    doc = {"format": "plane-graph/1", "n": 1, "edges": [], "rotation": [[]]}
    doc.update(patch)
    graph = tmp_path / "bad.json"
    graph.write_text(json.dumps(doc))
    code, out, err = run(capsys, "center", str(graph))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


# Each of these was read as a triangle: int() truncated 2.7 to 2, "2" to 2
# and 3.9 to 3.  The last three were read as nested (3, 1), whose faces are
# [[1, 2], [0, 3]]: int() truncated 1.9 to walk 1, "1" to 1 and 2.0 to 2.
@pytest.mark.parametrize(
    "patch",
    [
        {"edges": [[0, 1], [1, 2.7], [2, 0]]},
        {"rotation": [[0, "2"], [1, 0], [2, 1]]},
        {"n": 3.9},
        {**NESTED, "faces": [[1.9, 2], [0, 3]]},
        {**NESTED, "faces": [["1", 2], [0, 3]]},
        {**NESTED, "faces": [[1, 2.0], [0, 3]]},
    ],
    ids=["float-endpoint", "string-slot", "float-n", "float-walk", "string-walk", "float-2-walk"],
)
def test_center_rejects_non_integer_ids(capsys, tmp_path, patch):
    doc = {
        "format": "plane-graph/1",
        "n": 3,
        "edges": [[0, 1], [1, 2], [2, 0]],
        "rotation": [[0, 2], [1, 0], [2, 1]],
    }
    doc.update(patch)
    graph = tmp_path / "bad.json"
    graph.write_text(json.dumps(doc))
    code, out, err = run(capsys, "center", str(graph))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "malformed document: " in err


# Two disjoint triangles with both walks of the first one grouped into one
# face: the Euler count holds, but no face joins the two components.
SAME_COMPONENT_FACE = {
    "format": "plane-graph/1",
    "n": 6,
    "edges": [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]],
    "rotation": [[2, 0], [0, 1], [1, 2], [5, 3], [3, 4], [4, 5]],
    "faces": [[0, 1], [2], [3]],
}


@pytest.mark.parametrize("command", ["center", "verify", "oracle"])
def test_unjoinable_grouping_exits_one(capsys, tmp_path, command):
    graph = tmp_path / "bad.json"
    graph.write_text(json.dumps(SAME_COMPONENT_FACE))
    argv = [command, str(graph)]
    if command == "verify":
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"s": 0, "bound": 1}))
        argv.append(str(cert))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


def fresh_cli(*argv: str, optimize: bool = False) -> subprocess.CompletedProcess:
    """The CLI in a process of its own."""
    src = str(Path(peelbound.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-m", "peelbound.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def center_under_optimize(graph: Path) -> subprocess.CompletedProcess:
    return fresh_cli("center", str(graph), optimize=True)


def test_unjoinable_grouping_exits_one_under_optimize(tmp_path):
    graph = tmp_path / "bad.json"
    graph.write_text(json.dumps(SAME_COMPONENT_FACE))
    proc = center_under_optimize(graph)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error:")


def test_malformed_rotation_exits_one_under_optimize(tmp_path):
    graph = tmp_path / "bad.json"
    graph.write_text(
        '{"format": "plane-graph/1", "n": 2, "edges": [[0, 1]], "rotation": [[0, 0], [0]]}'
    )
    proc = center_under_optimize(graph)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.endswith("edge 0 appears twice in rotation of 0\n")


def without_timings(out):
    records = stdout_records(out)
    for record in records:
        record.pop("seconds", None)
        record.pop("runtimes", None)
    return records


def test_one_process_answers_like_fresh_ones(capsys, tmp_path):
    # the parser is built once per process; a usage error between commands
    # must leave it as a fresh process finds it
    path = write_graph(capsys, tmp_path, "prism", "--k", "2")
    cert = str(tmp_path / "cert.json")
    calls = [
        ("center", path, "--out", cert),
        ("verify", path, cert),
        ("center", path, "--mode", "sideways"),
        ("oracle", path),
        ("center", path, "--mode", "diameter"),
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in in_process] == [0, 0, 1, 0, 0]
    for argv, (code, out, err) in zip(calls, in_process):
        proc = fresh_cli(*argv)
        assert code == proc.returncode, argv
        assert without_timings(out) == without_timings(proc.stdout), argv
        assert err == proc.stderr, argv


FILE_CASES = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "bom": lambda text: "\ufeff" + text,
    "non-ascii-meta": lambda text: text.replace('"n":', '"meta":{"a":"\u00e9"},"n":', 1),
    "spaced-error": lambda text: json.dumps(json.loads(text), indent=1) + "x",
}


@pytest.mark.parametrize("case", FILE_CASES)
def test_stdin_and_path_answer_alike(capsys, tmp_path, monkeypatch, case):
    code, out, _ = run(capsys, "generate", "random", "--n", "30", "--seed", "2")
    text = FILE_CASES[case](out)
    path = tmp_path / "g.json"
    path.write_bytes(text.encode())
    by_path = run(capsys, "center", str(path))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    by_stdin = run(capsys, "center", "-")
    assert by_stdin[0] == by_path[0] == (1 if case in ("bom", "spaced-error") else 0)
    assert by_stdin[2] == by_path[2].replace(str(path), "-")
    records = [without_timings(out) for _, out, _ in (by_path, by_stdin)]
    for record in records[0]:
        record["input"] = "-"
    assert records[0] == records[1]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_record(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "nested", "--g", "3", "--k", "3")
    code, out, err = run(capsys, "oracle", path)
    assert code == 0
    (record,) = stdout_records(out)
    assert record["fse_outerplanarity"] == 3
    assert record["fence_girth"] == 3
    assert record["radius"] <= record["diameter"]
    assert "fse=3" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def certificate_for(capsys, tmp_path, *gen_args):
    graph = write_graph(capsys, tmp_path, *gen_args)
    cert = str(tmp_path / "cert.json")
    code, _, _ = run(capsys, "center", graph, "--out", cert)
    assert code == 0
    return graph, cert


def test_verify_roundtrip(capsys, tmp_path):
    graph, cert = certificate_for(capsys, tmp_path, "nested", "--g", "3", "--k", "5")
    code, out, err = run(capsys, "verify", graph, cert)
    assert code == 0
    (record,) = stdout_records(out)
    assert record["ok"] is True
    names = {c["name"] for c in record["checks"]}
    assert {"eccentricity", "peel-count", "family-fse-floor"} <= names
    assert "verify: OK" in err


def test_verify_prism_metric_annotations(capsys, tmp_path):
    graph, cert = certificate_for(capsys, tmp_path, "prism", "--k", "1")
    code, out, _ = run(capsys, "verify", graph, cert)
    assert code == 0
    (record,) = stdout_records(out)
    names = {c["name"] for c in record["checks"]}
    assert {"family-diameter", "family-radius"} <= names


def test_verify_prism_14_family_details_match_reference(capsys, tmp_path):
    # n = 1892, just under ANNOTATION_ORACLE_LIMIT: the largest prism whose
    # verify runs the eccentricity oracle
    graph, cert = certificate_for(capsys, tmp_path, "prism", "--k", "14")
    eccs = eccentricities_by_bfs(gen_prism_grid(14))
    code, out, _ = run(capsys, "verify", graph, cert)
    assert code == 0
    (record,) = stdout_records(out)
    details = {c["name"]: c["detail"] for c in record["checks"]}
    assert details["family-diameter"] == f"diameter {max(eccs)} vs promised <= 43"
    assert details["family-radius"] == f"radius {min(eccs)} vs promised >= 28"


def test_verify_forged_certificate_exits_three(capsys, tmp_path):
    graph, cert = certificate_for(capsys, tmp_path, "random", "--n", "50", "--seed", "6")
    with open(cert, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["bound"] = 0
    with open(cert, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, out, err = run(capsys, "verify", graph, cert)
    assert code == 3
    (record,) = stdout_records(out)
    assert record["ok"] is False
    assert "FAILED" in err


@pytest.mark.parametrize(
    "edges, rotation",
    [([], [[]]), ([[0, 1]], [[0], [0]]), ([[0, 0], [0, 1]], [[0, 0, 1], [1]])],
    ids=["K1", "K2", "loop-plus-edge"],
)
def test_tiny_graphs_certify_and_verify(capsys, tmp_path, edges, rotation):
    graph = tmp_path / "tiny.json"
    doc = {"format": "plane-graph/1", "n": len(rotation), "edges": edges, "rotation": rotation}
    graph.write_text(json.dumps(doc))
    cert = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, "center", str(graph), "--out", cert)
    assert code == 0
    (record,) = stdout_records(out)
    assert record["certificate"]["case"] == "tree-depth-2"
    assert record["peel_bound"] == 2
    code, out, _ = run(capsys, "verify", str(graph), cert)
    assert code == 0
    (record,) = stdout_records(out)
    assert record["ok"] is True


@pytest.mark.parametrize("command", ["center", "verify", "oracle"])
def test_empty_graph_exits_one(capsys, tmp_path, command):
    graph = tmp_path / "empty.json"
    graph.write_text('{"format": "plane-graph/1", "n": 0, "edges": [], "rotation": []}')
    argv = [command, str(graph)]
    if command == "verify":
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"s": 0, "bound": 1}))
        argv.append(str(cert))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error:") and err.endswith("graph has no vertices\n")


@pytest.mark.parametrize(
    "doc",
    [
        {"s": "abc", "bound": 3},
        {"s": [1], "bound": 3},
        {"s": 1, "bound": "x"},
        {"s": 1, "bound": 3, "outerface": "a"},
        {"s": 1, "bound": 3, "outerface": 0, "peel_bound": "z"},
        {"s": 1.7, "bound": 14, "outerface": 2.9},  # was truncated to s = 1
        {"s": True, "bound": 14},  # was read as vertex 1
        {"s": 1, "bound": 14.9},
        {"s": 1, "bound": 14, "n": "20"},
        {"center": "abc", "bound": 3},
    ],
)
def test_verify_rejects_non_integer_fields(capsys, tmp_path, doc):
    graph = write_graph(capsys, tmp_path, "random", "--n", "20", "--seed", "0")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", graph, str(cert))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: certificate field")


@pytest.mark.parametrize("raw", ['"x"', "[1]", "1e999", "2.5", "true"])
@pytest.mark.parametrize("key", ["fse_at_least", "diam_at_most", "rad_at_least"])
def test_verify_rejects_non_integer_annotations(capsys, tmp_path, key, raw):
    # "x", [1] and 1e999 used to end in a traceback from int(...), and 2.5
    # was truncated, so rad_at_least: 2.5 let a radius of 2 pass
    doc = to_document(gen_random_triangulation(30, 0))
    doc["meta"][key] = "ANNOTATION"
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(doc).replace('"ANNOTATION"', raw))
    cert = str(tmp_path / "cert.json")
    code, _, _ = run(capsys, "center", str(graph), "--out", cert)
    assert code == 0
    code, out, err = run(capsys, "verify", str(graph), cert)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: meta annotation {key!r} must be an integer")


def test_verify_unreadable_certificate(capsys, tmp_path):
    graph = write_graph(capsys, tmp_path, "random", "--n", "20", "--seed", "0")
    bad = tmp_path / "cert.json"
    bad.write_text("[1, 2, 3]")
    code, _, _ = run(capsys, "verify", graph, str(bad))
    assert code == 1
    bad.write_text("{ nope")
    code, _, _ = run(capsys, "verify", graph, str(bad))
    assert code == 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


BENCH_STAGES = ("load", "connect", "root", "layers", "augment", "tree", "center")


def test_bench_rows(capsys, tmp_path):
    out_path = tmp_path / "rows.json"
    code, out, err = run(
        capsys, "bench", "random", "--n", "50,100", "--seed", "3", "--out", str(out_path)
    )
    assert code == 0
    rows = stdout_records(out)
    assert [r["param"] for r in rows] == [50, 100]
    assert rows[0]["ratio"] is None and isinstance(rows[1]["ratio"], float)
    for r in rows:
        assert r["command"] == "bench" and r["per_vertex"] > 0
        assert set(r["stages"]) == set(BENCH_STAGES)
        assert r["seconds"] == round(sum(r["stages"].values()), 6)
        assert r["verify"] > 0  # timed apart: not a stage, not in seconds
    with open(out_path, encoding="utf-8") as fh:
        saved = json.load(fh)
    assert saved == rows
    assert [list(r["stages"]) for r in saved] == [list(BENCH_STAGES)] * 2  # run order
    assert "us/vertex" in err


def test_bench_stops_on_a_certificate_that_fails(capsys, monkeypatch):
    monkeypatch.setattr("peelbound.cli.verify_certificate", lambda cert, g: VerifyReport(ok=False))
    code, out, err = run(capsys, "bench", "random", "--n", "50")
    assert code == 3 and out == ""
    assert "failed verification" in err


def test_bench_nested_uses_k(capsys):
    code, out, _ = run(capsys, "bench", "nested", "--k", "3,5", "--g", "4")
    assert code == 0
    rows = stdout_records(out)
    assert [r["n"] for r in rows] == [14, 22]
    assert all(r["stages"]["connect"] > 0 for r in rows)  # nested rings are disconnected


def test_bench_lowerbound_appends_rows(capsys, tmp_path):
    out_path = tmp_path / "rows.json"
    run(capsys, "bench", "random", "--n", "50", "--out", str(out_path))
    code, out, _ = run(
        capsys, "bench", "lowerbound-h", "--g", "4", "--k", "5,9",
        "--out", str(out_path), "--append",
    )
    assert code == 0
    rows = stdout_records(out)
    assert [r["n"] for r in rows] == [22, 38]
    with open(out_path, encoding="utf-8") as fh:
        saved = json.load(fh)
    assert [(r["family"], r["param"]) for r in saved] == [
        ("random", 50), ("lowerbound-h", 5), ("lowerbound-h", 9)
    ]


def test_bench_without_sizes(capsys):
    code, _, err = run(capsys, "bench", "random")
    assert code == 1
    assert "--n" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("nested", "--k", "3", "--g", "abc"),
        ("nested", "--k", "3", "--g", "0"),
        ("random", "--n", "3"),
    ],
)
def test_bench_bad_parameters_exit_one(capsys, argv):
    code, out, err = run(capsys, "bench", *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv,content",
    [
        (("generate", "random", "--n", "20", "--out", "{missing}"), None),
        (("center", "{graph}", "--out", "{missing}"), None),
        (("bench", "random", "--n", "20", "--out", "{missing}"), None),
        (("bench", "random", "--n", "20", "--out", "{rows}", "--append"), '{"rows": []}'),
        (("bench", "random", "--n", "20", "--out", "{rows}", "--append"), "not json ["),
    ],
    ids=["generate-out", "center-out", "bench-out", "append-object", "append-text"],
)
def test_unwritable_outputs_exit_one(capsys, tmp_path, argv, content):
    graph = write_graph(capsys, tmp_path, "random", "--n", "20")
    rows = tmp_path / "rows.json"
    if content is not None:
        rows.write_text(content, encoding="utf-8")
    paths = {"graph": graph, "missing": str(tmp_path / "no-such-dir" / "x.json"), "rows": str(rows)}
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    # the error comes first: no progress line, so no size was run
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err
    if content is not None:
        assert rows.read_text(encoding="utf-8") == content  # left as it was


def test_bench_out_checked_before_the_first_size(capsys, monkeypatch, tmp_path):
    built = []
    monkeypatch.setattr("peelbound.cli._build_family", lambda *a: built.append(a))
    code, out, err = run(capsys, "bench", "random", "--n", "20", "--out", str(tmp_path))
    assert (code, out, built) == (1, "", [])
    assert err.startswith("error:") and str(tmp_path) in err


@pytest.mark.parametrize("existing", [None, "[]\n"], ids=["new", "existing"])
def test_bench_out_untouched_when_the_run_fails(capsys, monkeypatch, tmp_path, existing):
    monkeypatch.setattr("peelbound.cli.verify_certificate", lambda cert, g: VerifyReport(ok=False))
    rows = tmp_path / "rows.json"
    if existing is not None:
        rows.write_text(existing, encoding="utf-8")
    code, _, _ = run(capsys, "bench", "random", "--n", "20", "--out", str(rows))
    assert code == 3
    assert sorted(tmp_path.iterdir()) == ([rows] if existing is not None else [])
    if existing is not None:
        assert rows.read_text(encoding="utf-8") == existing


def test_bench_stages_are_medians_of_three_runs(capsys, monkeypatch):
    laps = iter(range(1, 100))
    real = cli._bench_run

    def run_once(text):  # stage seconds 1, 2, 3 ... in call order; verify 1, 2, 3
        stages, verify_s, cert, ok = real(text)
        k = next(laps)
        return {name: k for name in stages}, k, cert, ok

    monkeypatch.setattr(cli, "_bench_run", run_once)
    code, out, _ = run(capsys, "bench", "random", "--n", "20")
    assert code == 0 and cli.BENCH_RUNS == 3
    (row,) = stdout_records(out)
    assert set(row["stages"].values()) == {2} and row["verify"] == 2
    assert next(laps) == 4  # three runs for the one size
