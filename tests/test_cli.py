import json
import math

from turanlab import cli
from turanlab import graph as gr


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_named_petersen(capsys):
    code, out, _ = run(capsys, "spectrum", "--named", "petersen")
    assert code == 0
    data = json.loads(out)
    assert data["lambda1"] == 3.0
    assert data["s_plus"] == 14.0
    assert len(data["eigenvalues"]) == 10


def test_spectrum_complete4(capsys):
    code, out, _ = run(capsys, "spectrum", "--named", "complete:4")
    data = json.loads(out)
    assert data["eigenvalues"] == [3.0, -1.0, -1.0, -1.0]


def test_spectrum_g6_literal(capsys):
    code, out, _ = run(capsys, "spectrum", "--g6", "A_")
    data = json.loads(out)
    assert data["eigenvalues"] == [1.0, -1.0]


def test_profile_diamond(capsys):
    code, out, _ = run(capsys, "profile", "--named", "diamond")
    data = json.loads(out)
    assert data["omega"] == 3 and data["t"] == 2
    assert all(row[2] == 3 for row in data["c_e"])
    assert data["diamond_free"] is False


def test_profile_bowtie(capsys):
    code, out, _ = run(capsys, "profile", "--named", "bowtie")
    data = json.loads(out)
    assert data["diamond_free"] is True and data["tv"] == 5


def test_profile_cycle(capsys):
    code, out, _ = run(capsys, "profile", "--named", "cycle:5")
    data = json.loads(out)
    assert data["omega"] == 2 and data["t"] == 0


def test_check_wilf_octahedron_equality(capsys):
    code, out, _ = run(capsys, "check", "--named", "octahedron", "--id", "wilf")
    assert code == 0
    (res,) = json.loads(out)
    assert res["equality"] is True
    assert res["lhs"] == 4.0 and res["rhs"] == 4.0


def test_check_all_defaults(capsys):
    code, out, _ = run(capsys, "check", "--named", "petersen")
    assert code == 0
    results = json.loads(out)
    assert len(results) > 20
    assert all(r["holds"] for r in results)


def test_check_exit_code_on_binding_violation(capsys):
    # Negative margin turns the K_3 Wilf equality into a binding failure.
    code, out, _ = run(capsys, "check", "--named", "complete:3", "--id", "wilf",
                       "--tol=-1e-6")
    assert code == 1


def test_check_weighted(tmp_path, capsys):
    csv = tmp_path / "w.csv"
    csv.write_text("u,v,w\n0,1,1\n0,2,2\n1,2,3\n")
    code, out, _ = run(capsys, "check", "--named", "complete:3", "--weights", str(csv))
    assert code == 0
    (res,) = json.loads(out)
    assert res["id"] == "weighted_edge_local_turan"
    assert math.isclose(res["rhs"], 56 / 3, rel_tol=1e-9)


def test_scan_enumerate_conjectures_exit_zero(capsys):
    code, out, _ = run(capsys, "scan", "--enumerate", "5", "--connected",
                       "--checks", "conjectures")
    assert code == 0
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["graphs_processed"] == 728
    assert summary["binding_violations"] == 0


def test_scan_csv_format(capsys):
    code, out, _ = run(capsys, "scan", "--enumerate", "4", "--checks", "wilf",
                       "--format", "csv")
    assert code == 0
    assert out.startswith("check,checked")


def test_scan_streams_violations_and_exit_one(capsys):
    code, out, _ = run(capsys, "scan", "--enumerate", "3", "--checks", "wilf",
                       "--tol=-1e-6", "--stop-on-violation")
    assert code == 1
    lines = out.strip().split("\n")
    first = json.loads(lines[0])
    assert first["type"] == "violation"
    assert first["check"] == "wilf"


def test_scan_g6_stream(tmp_path, capsys):
    f = tmp_path / "graphs.g6"
    f.write_text("\n".join(gr.to_graph6(g) for g in (gr.petersen(), gr.bowtie())) + "\n")
    code, out, _ = run(capsys, "scan", "--g6", str(f), "--checks", "theorems")
    assert code == 0
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["graphs_processed"] == 2


def test_scan_range_slice(capsys):
    code, out, _ = run(capsys, "scan", "--enumerate", "4", "--checks", "wilf",
                       "--range", "0:10")
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["graphs_processed"] == 10


def test_ms_petersen(capsys):
    code, out, _ = run(capsys, "ms", "--named", "petersen", "--scheme", "classical",
                       "--restarts", "4", "--iters", "2000")
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"] - 0.5) <= 1e-6


def test_walks(capsys):
    code, out, _ = run(capsys, "walks", "--named", "cycle:5", "--r", "3")
    data = json.loads(out)
    assert data["per_vertex"] == [4, 4, 4, 4, 4] and data["total"] == 20


def test_walks_past_residue_capacity_exit_2(capsys):
    code, out, err = run(capsys, "walks", "--named", "complete:3", "--r", "400")
    assert code == 2 and out == ""
    assert "residue moduli" in err


def test_random_experiment_cli(capsys):
    code, out, _ = run(capsys, "random", "--gnp", "25,0.4", "--trials", "3", "--seed", "2")
    assert code == 0
    data = json.loads(out)
    assert data["trials"] == 3
    assert set(data["violations"].values()) == {0}


def test_extremal_cli(capsys):
    code, out, _ = run(capsys, "extremal", "--enumerate", "4", "--id", "splus_triangle")
    assert code == 0
    (top,) = json.loads(out)
    assert abs(top["slack"]) <= 1e-9


def test_unknown_check_lists_catalogue(capsys):
    code, _, err = run(capsys, "check", "--named", "petersen", "--id", "bogus")
    assert code == 2
    assert "catalogue" in err


def test_bad_graph_input_exit_2(capsys):
    code, _, err = run(capsys, "spectrum", "--g6", "!!!")
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "spectrum", "--named", "petersen", "--g6", "A_")
    assert code == 2


def test_help_lists_catalogue_ids():
    parser = cli.build_parser()
    text = parser.format_help()
    for needle in ("wilf", "local_bn", "walk_recursion(r)", "splus_triangle"):
        assert needle in text
