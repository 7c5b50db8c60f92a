"""End-to-end command-line flows in a temp directory."""

import csv
import json

from stiefelsum.cli import main
from stiefelsum.core import load_instance


def test_gen_solve_certify_roundtrip(tmp_path):
    inst_path = tmp_path / "inst.json"
    rc = main(["gen", "--family", "randpsd",
               "--params", '{"d": 6, "k": 1}',
               "--seed", "3", "--out", str(inst_path)])
    assert rc == 0
    inst = load_instance(inst_path)
    assert inst.d == 6 and inst.k == 1

    rep_path = tmp_path / "rep.json"
    rc = main(["solve-sdp", "--instance", str(inst_path),
               "--out", str(rep_path)])
    assert rc == 0
    rep = json.loads(rep_path.read_text())
    assert rep["status"] == "Optimal"
    assert isinstance(rep["kkt"], dict)
    assert all(isinstance(v, float) for v in rep["kkt"].values())
    assert rep["gap"] <= 1e-6

    pt_path = tmp_path / "pt.json"
    tr_path = tmp_path / "trace.csv"
    rc = main(["solve-stmm", "--instance", str(inst_path),
               "--seed", "5", "--trace", str(tr_path),
               "--out", str(pt_path)])
    assert rc == 0
    pt = json.loads(pt_path.read_text())
    assert pt["status"] == "Stationary"
    assert len(pt["u"]) == 6
    assert abs(pt["objective"] - rep["value"]) <= 1e-6
    with open(tr_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and float(rows[-1]["grad_norm"]) <= 1e-10

    cert_path = tmp_path / "cert.json"
    rc = main(["certify", "--instance", str(inst_path),
               "--point", str(pt_path), "--out", str(cert_path)])
    assert rc == 0
    cert = json.loads(cert_path.read_text())
    assert cert["status"] == "CertifiedGlobal"
    assert isinstance(cert["min_eig_slacks"], list)
    assert all(isinstance(x, float) for x in cert["min_eig_slacks"])


def test_certify_without_point_uses_polished_relaxation(tmp_path):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--family", "cjd",
          "--params", '{"d": 6, "k": 2, "sigma": 0.0}',
          "--out", str(inst_path)])
    cert_path = tmp_path / "cert.json"
    rc = main(["certify", "--instance", str(inst_path),
               "--out", str(cert_path)])
    assert rc == 0
    assert json.loads(cert_path.read_text())["status"] == "CertifiedGlobal"


def test_rop_table_fast_writes_outputs(tmp_path):
    rc = main(["rop-table", "--family", "diagonal", "--d", "5", "--k", "2",
               "--trials", "3", "--fast", "--out-dir", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "rop_table.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["fraction_tight"] == "1.0"
    lines = (tmp_path / "rop_records.jsonl").read_text().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["status"] == "Optimal"


def test_diag_sweep_on_commuting_center(tmp_path):
    inst_path = tmp_path / "center.json"
    main(["gen", "--family", "cjd",
          "--params", '{"d": 5, "k": 2, "sigma": 0.0}',
          "--out", str(inst_path)])
    out_csv = tmp_path / "sweep.csv"
    rc = main(["diag-sweep", "--center", str(inst_path), "--scales", "1e-4",
               "--trials", "2", "--out", str(out_csv)])
    assert rc == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["scale"] == "0.0001"
    assert float(rows[0]["fraction_tight"]) >= 0.0


def test_gen_nested_records_known_optimum(tmp_path, capsys):
    inst_path = tmp_path / "nested.json"
    rc = main(["gen", "--family", "nested",
               "--params", '{"d": 6, "k": 2, "coeffs": [[1, 2], [0, 1]]}',
               "--out", str(inst_path)])
    assert rc == 0
    assert "known optimum: 6.0" in capsys.readouterr().out
    inst = load_instance(inst_path)
    assert inst.meta["known_optimum"] == 6.0


def test_gen_fixture_blocks(tmp_path):
    p = tmp_path / "fixture.json"
    assert main(["gen", "--family", "fixture", "--out", str(p)]) == 0
    doc = json.loads(p.read_text())
    assert doc["d"] == 4 and len(doc["blocks"]) == 2
    assert len(doc["blocks"][0]) == 16


def test_missing_instance_is_reported_not_raised(tmp_path, capsys):
    rc = main(["solve-sdp", "--instance", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_non_finite_instance_is_bad_input(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(
        {"d": 2, "k": 1, "mats": [[1.0, 0.0, 0.0, float("nan")]]}))
    rc = main(["solve-sdp", "--instance", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "finite" in err
