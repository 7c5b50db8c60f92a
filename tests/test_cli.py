"""End-to-end command-line flows in a temp directory."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from stiefelsum import certificate, cli, harness
from stiefelsum.cli import build_parser, main
from stiefelsum.core import ProblemInstance, load_instance, save_instance

SWEEP = ["cjd-sweep", "--sigmas", "0", "--d", "6", "--k", "2", "--trials", "1"]
BENCH = ["bench", "--d", "6", "--k", "2", "--trials", "1"]


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
    assert rep["meta"]["ipm"]["schur_shift"] == 0.0
    assert rep["meta"]["ipm"]["iterations"] == rep["iterations"]

    pt_path = tmp_path / "pt.json"
    tr_path = tmp_path / "trace.csv"
    rc = main(["solve-stmm", "--instance", str(inst_path),
               "--seed", "5", "--trace", str(tr_path),
               "--out", str(pt_path)])
    assert rc == 0
    pt = json.loads(pt_path.read_text())
    assert pt["status"] == "Stationary"
    assert 0 <= pt["newton_steps"] <= pt["iterations"]
    assert 0 <= pt["accelerated_steps"] <= pt["iterations"]
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
    assert cert["meta"]["ipm"]["status"] == "feasible"
    assert cert["meta"]["ipm"]["shift"] == 0.0
    assert cert["meta"]["reason"] == ""


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


def test_certify_reports_a_stalled_solve(tmp_path, stalled_certificate):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--family", "cjd",
          "--params", '{"d": 6, "k": 2, "sigma": 0.0}',
          "--out", str(inst_path)])
    cert_path = tmp_path / "cert.json"
    argv = ["certify", "--instance", str(inst_path), "--out", str(cert_path)]
    assert main(argv) == 2
    doc = json.loads(cert_path.read_text())
    assert doc["status"] == "NumericalFailure"
    assert doc["reason"] == doc["meta"]["reason"] == "feasibility solve stalled"
    assert doc["meta"]["ipm"]["status"] == "numerical_failure"
    assert main(argv + ["--tolerate-failures"]) == 0


def test_certify_reports_a_failed_relaxation(tmp_path, monkeypatch):
    real = cli.solve_sdp

    def failing(inst, cfg=None):
        rep = real(inst, cfg)
        meta = dict(rep.meta, reason="duality gap above tolerance")
        return dataclasses.replace(rep, status="NumericalFailure", meta=meta)

    monkeypatch.setattr(cli, "solve_sdp", failing)
    inst_path = tmp_path / "inst.json"
    main(["gen", "--family", "cjd",
          "--params", '{"d": 6, "k": 2, "sigma": 0.0}',
          "--out", str(inst_path)])
    cert_path = tmp_path / "cert.json"
    argv = ["certify", "--instance", str(inst_path), "--out", str(cert_path)]
    assert main(argv) == 2
    doc = json.loads(cert_path.read_text())
    assert doc["reason"] == "relaxation solve failed"
    # the relaxation's own report says which gate it failed
    assert doc["meta"]["reason"] == "duality gap above tolerance"
    assert doc["meta"]["ipm"]["iterations"] > 0


def test_reports_and_records_carry_one_ipm_summary(tmp_path):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--family", "cjd",
          "--params", '{"d": 6, "k": 2, "sigma": 0.0}',
          "--out", str(inst_path)])
    for cmd in ("solve-sdp", "certify"):
        argv = [cmd, "--instance", str(inst_path),
                "--out", str(tmp_path / f"{cmd}.json")]
        assert main(argv) == 0
    assert main(["rop-table", "--family", "diagonal", "--d", "5", "--k", "2",
                 "--trials", "1", "--out-dir", str(tmp_path)]) == 0
    assert main(SWEEP + ["--out-dir", str(tmp_path)]) == 0

    def read(name):
        return (tmp_path / name).read_text()

    rop = json.loads(read("rop_records.jsonl").splitlines()[0])
    sweep = json.loads(read("sweep_records.jsonl").splitlines()[0])
    summaries = [json.loads(read("solve-sdp.json"))["meta"]["ipm"],
                 json.loads(read("certify.json"))["meta"]["ipm"], rop["ipm"],
                 sweep["sdp_ipm"], sweep["certificate_ipm"]]
    # the relaxation's IPM and the certificate's margin solve each have
    # one summary
    ipm = {"status", "stop_reason", "iterations", "pinf", "dinf", "relgap",
           "schur_shift", "single_iterations", "refine_steps",
           "corrector_solves"}
    margin = {"status", "iterations", "mu", "margin", "shift"}
    assert [set(s) for s in summaries] == [ipm, margin, ipm, ipm, margin]


def test_bench_leaves_errored_trials_out_and_exits_2(tmp_path, monkeypatch):
    real = harness._make_instance

    def first_draw_fails(family, d, k, params, seed):
        if seed == first:
            raise ValueError("bad draw")
        return real(family, d, k, params, seed)

    first = harness.trial_seeds((0, 6, 2), 2)[0]
    monkeypatch.setattr(harness, "_make_instance", first_draw_fails)
    argv = ["bench", "--d", "6", "--k", "2", "--trials", "2",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    recs = [json.loads(line) for line in
            (tmp_path / "bench_records.jsonl").read_text().splitlines()]
    assert ["error" in r for r in recs] == [True, False]
    with open(tmp_path / "bench.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert float(row["sdp_median"]) == pytest.approx(recs[1]["sdp_wall"])
    assert main(argv + ["--tolerate-failures"]) == 0


def test_stalled_certificate_fails_sweep_and_bench(tmp_path,
                                                  stalled_certificate):
    for argv in (SWEEP, BENCH):
        argv = argv + ["--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert main(argv + ["--tolerate-failures"]) == 0


def test_failed_relaxation_fails_sweep(tmp_path, monkeypatch):
    real = harness.solve_sdp

    def failing(inst, cfg=None):
        return dataclasses.replace(real(inst, cfg), status="NumericalFailure")

    monkeypatch.setattr(harness, "solve_sdp", failing)
    argv = SWEEP + ["--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert main(argv + ["--tolerate-failures"]) == 0


def test_rop_table_fast_writes_outputs(tmp_path):
    rc = main(["rop-table", "--family", "diagonal", "--d", "5", "--k", "2",
               "--trials", "3", "--out-dir", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "rop_table.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["fraction_tight"] == "1.0"
    lines = (tmp_path / "rop_records.jsonl").read_text().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["status"] == "Optimal"

    nested = tmp_path / "nested"
    rc = main(["rop-table", "--family", "nested",
               "--params", '{"coeffs": [[1, 2], [0, 1]]}', "--d", "6",
               "--k", "2", "--trials", "2", "--out-dir", str(nested)])
    assert rc == 0
    rec = json.loads((nested / "rop_records.jsonl").read_text().splitlines()[0])
    assert rec["status"] == "Optimal"
    assert rec["value"] == pytest.approx(6.0, abs=1e-6)


def test_cjd_sweep_covers_the_d_by_k_grid(tmp_path):
    rc = main(["cjd-sweep", "--sigmas", "0", "--d", "6,8", "--k", "2,3",
               "--trials", "1", "--out-dir", str(tmp_path)])
    assert rc == 0
    recs = [json.loads(line) for line in
            (tmp_path / "sweep_records.jsonl").read_text().splitlines()]
    cells = {(6, 2), (6, 3), (8, 2), (8, 3)}
    assert sorted((r["d"], r["k"]) for r in recs) == sorted(cells)
    with open(tmp_path / "sweep_curve.tsv", newline="") as fh:
        curve = list(csv.DictReader(fh, delimiter="\t"))
    assert {(int(r["d"]), int(r["k"])) for r in curve} == cells
    assert len(curve) == 4


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


@pytest.mark.parametrize("argv", [
    ["rop-table", "--d", "5", "--k", "2"],
    ["cjd-sweep", "--sigmas", "0", "--d", "6", "--k", "2"],
    ["bench", "--d", "6", "--k", "2"],
    ["diag-sweep", "--scales", "1e-4"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_fewer_than_one_trial_is_bad_input(tmp_path, capsys, argv, trials):
    if argv[0] == "diag-sweep":
        center = tmp_path / "center.json"
        main(["gen", "--family", "cjd",
              "--params", '{"d": 5, "k": 2, "sigma": 0.0}',
              "--out", str(center)])
        argv = argv + ["--center", str(center),
                       "--out", str(tmp_path / "sweep.csv")]
    else:
        argv = argv + ["--out-dir", str(tmp_path)]
    capsys.readouterr()
    assert main(argv + ["--trials", trials]) == 1
    captured = capsys.readouterr()
    assert "error: need at least one trial" in captured.err
    assert captured.out == ""
    assert list(tmp_path.glob("*.csv")) == list(tmp_path.glob("*.tsv")) == []


def test_gen_nested_records_known_optimum(tmp_path, capsys):
    inst_path = tmp_path / "nested.json"
    rc = main(["gen", "--family", "nested",
               "--params", '{"d": 6, "k": 2, "coeffs": [[1, 2], [0, 1]]}',
               "--out", str(inst_path)])
    assert rc == 0
    assert "known optimum: 6.0" in capsys.readouterr().out
    inst = load_instance(inst_path)
    assert inst.meta["known_optimum"] == 6.0


def test_gen_builds_every_family_and_rejects_unknown_parameters(
        tmp_path, capsys):
    p = tmp_path / "diag.json"
    rc = main(["gen", "--family", "diagonal", "--params", '{"d": 5, "k": 2}',
               "--seed", "2", "--out", str(p)])
    assert rc == 0
    assert load_instance(p).meta["family"] == "diagonal"

    for family, params in (("cjd", '{"d": 5, "k": 2, "sigm": 0.5}'),
                           ("hppca", '{"d": 5, "k": 2, "variances": [1]}')):
        rc = main(["gen", "--family", family, "--params", params,
                   "--out", str(tmp_path / "bad.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "bad.json").exists()

    rc = main(["rop-table", "--family", "cjd", "--params", '{"d": 5}',
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


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


def test_negative_max_iters_is_bad_input(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    assert main(["gen", "--family", "randpsd", "--params", '{"d": 4, "k": 2}',
                 "--out", str(inst_path)]) == 0
    out = tmp_path / "pt.json"
    rc = main(["solve-stmm", "--instance", str(inst_path),
               "--max-iters", "-1", "--out", str(out)])
    assert rc == 1
    assert "error: need max_iters >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grad_tol", ["nan", "-1e-10"])
def test_a_grad_tol_that_is_nan_or_negative_is_bad_input(tmp_path, capsys,
                                                         grad_tol):
    # a NaN tolerance would run every step and report MaxIters, exit 0
    inst_path = tmp_path / "inst.json"
    assert main(["gen", "--family", "randpsd", "--params", '{"d": 6, "k": 2}',
                 "--out", str(inst_path)]) == 0
    out = tmp_path / "pt.json"
    rc = main(["solve-stmm", "--instance", str(inst_path),
               f"--grad-tol={grad_tol}", "--out", str(out)])
    assert rc == 1
    assert "error: need grad_tol >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family, size", [
    ("randpsd", '"rank": 2.5'), ("randpsd", '"rank": true'),
    ("randpsd", '"rank": "3"'), ("randpsd", '"rank": 0'),
    ("cjd", '"r": 2.5'), ("cjd", '"r": true'), ("cjd", '"r": 0'),
])
def test_gen_size_parameters_are_positive_integers(tmp_path, capsys, family,
                                                   size):
    # core.check_size's rule: never truncated, cast or run as a noise-only
    # chain, and never a traceback
    out = tmp_path / "inst.json"
    assert main(["gen", "--family", family, "--params",
                 f'{{"d": 6, "k": 2, {size}}}', "--out", str(out)]) == 1
    assert "must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scales, bad", [("-0.1,nan", "-0.1"), ("nan", "nan"),
                                         ("inf", "inf")])
def test_a_perturbation_scale_is_finite_and_at_least_zero(tmp_path, capsys,
                                                          scales, bad):
    center = tmp_path / "center.json"
    main(["gen", "--family", "cjd",
          "--params", '{"d": 5, "k": 2, "sigma": 0.0}', "--out", str(center)])
    out = tmp_path / "sweep.csv"
    capsys.readouterr()
    assert main(["diag-sweep", "--center", str(center), f"--scales={scales}",
                 "--trials", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (f"error: perturbation scale must be finite and >= 0, got {bad}"
            in captured.err)
    assert captured.out == "" and not out.exists()


def test_non_finite_instance_is_bad_input(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(
        {"d": 2, "k": 1, "mats": [[1.0, 0.0, 0.0, float("nan")]]}))
    rc = main(["solve-sdp", "--instance", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "finite" in err


# well-formed JSON of the wrong shape: as the instance, as the point, or
# (point "gen") as gen's --params
@pytest.mark.parametrize("instance,point", [
    ([1, 2], None),
    ({"d": 2, "k": 1, "mats": None}, None),
    ({"d": 2, "k": 1, "mats": [[1.0, 0.0, 0.0, {}]]}, None),
    ({"d": 2, "k": 1, "mats": [[1.0, 0.0, 0.0, 1.0]], "meta": 5}, None),
    ({"d": 2, "k": 1, "mats": [[1.0, 0.0, 0.0, 1.0]]}, [0]),
    # a size must be a positive JSON integer: never truncated or cast
    ({"d": 2.7, "k": 1, "mats": [[1.0, 0.0, 0.0, 1.0]]}, None),
    ({"d": True, "k": 1, "mats": [[1.0]]}, None),
    ({"d": -2, "k": 1, "mats": [[1.0, 0.0, 0.0, 1.0]]}, None),
    ({"d": 6.7, "k": 2}, "gen"),
    ({"d": True, "k": 1}, "gen"),
    ({"d": "6", "k": 2}, "gen"),
    ({"d": 6, "k": 0}, "gen"),
    ({"k": 2}, "gen"),
    ({"d": 6}, "gen"),
])
def test_malformed_json_is_bad_input(tmp_path, capsys, instance, point):
    inst_path, point_path = tmp_path / "inst.json", tmp_path / "pt.json"
    if point == "gen":
        argv = ["gen", "--family", "randpsd", "--params", json.dumps(instance),
                "--out", str(inst_path)]
    else:
        inst_path.write_text(json.dumps(instance))
        point_path.write_text(json.dumps(point))
        argv = ["certify", "--instance", str(inst_path)]
        argv += ["--point", str(point_path)] if point else []
    assert main(argv) == 1
    assert "error: malformed" in capsys.readouterr().err
    assert point != "gen" or not inst_path.exists()


# a (d, k) cell that cannot hold a Stiefel point stops the experiment before
# any trial runs: bad input, not a numerical failure
@pytest.mark.parametrize("argv", [
    ["rop-table", "--family", "randpsd", "--d", "3", "--k", "5"],
    ["rop-table", "--family", "randpsd", "--d", "0", "--k", "1"],
    ["cjd-sweep", "--d", "3", "--k", "5"],
    ["bench", "--d", "6,3", "--k", "5"],
], ids=lambda argv: "-".join(argv[::2]))
def test_impossible_grid_is_bad_input(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = main(argv + ["--trials", "2", "--out-dir", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "error: " in captured.err and captured.out == ""
    assert not out.exists()


OPTIONS = {
    "gen": {"--seed", "--family", "--params", "--out"},
    "solve-sdp": {"--tolerate-failures", "--instance", "--out",
                  "--save-primal"},
    "solve-stmm": {"--seed", "--instance", "--max-iters", "--grad-tol",
                   "--trace", "--out"},
    "certify": {"--tolerate-failures", "--instance", "--point", "--out"},
    "rop-table": {"--seed", "--tolerate-failures", "--out-dir", "--jobs",
                  "--family", "--params", "--d", "--k", "--trials"},
    "cjd-sweep": {"--seed", "--tolerate-failures", "--out-dir", "--jobs",
                  "--sigmas", "--n1", "--d", "--k", "--trials"},
    "diag-sweep": {"--seed", "--center", "--scales", "--trials", "--out"},
    "bench": {"--seed", "--tolerate-failures", "--out-dir", "--d", "--k",
              "--trials"},
}


def test_each_command_takes_only_the_options_it_reads(tmp_path, capsys):
    sub = next(a for a in build_parser()._actions
               if a.dest == "command").choices
    got = {name: {o for a in p._actions for o in a.option_strings
                  if o.startswith("--")} - {"--help"}
           for name, p in sub.items()}
    assert got == OPTIONS
    assert sum(map(len, got.values())) == 47

    # usage errors are bad input (exit 1); 2 is kept for numerical failures
    for argv in (["solve-sdp", "--instance", "x.json", "--jobs", "7"],
                 ["diag-sweep", "--center", "x.json", "--out-dir", "o"],
                 ["rop-table", "--params", "[1, 2]"],
                 ["rop-table", "--d", "ten"],
                 ["no-such-command"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--help"])
    assert exc.value.code == 0


def test_solve_sdp_reports_one_dual_value_and_saves_the_primal(tmp_path):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--family", "cjd",
          "--params", '{"d": 6, "k": 2, "sigma": 0.0}',
          "--out", str(inst_path)])
    rep_path, x_path = tmp_path / "rep.json", tmp_path / "x.npz"
    assert main(["solve-sdp", "--instance", str(inst_path),
                 "--out", str(rep_path), "--save-primal", str(x_path)]) == 0
    rep = json.loads(rep_path.read_text())
    # both values in the maximization's sign: the dual bounds the primal
    assert "primal_objective" not in rep and "dual_objective" not in rep
    assert abs(rep["dual_value"] - rep["value"]) <= rep["gap"] + 1e-15
    with np.load(x_path) as saved:
        assert sorted(saved.files) == ["x0", "x1"]
        blocks = np.array([saved["x0"], saved["x1"]])
    inst = load_instance(inst_path)
    assert np.sum(inst.mats * blocks) == pytest.approx(rep["value"],
                                                       abs=1e-12)


def test_certify_classifies_an_inconclusive_point(tmp_path):
    # a randpsd draw whose relaxation is not tight: the relaxation's
    # polished candidate cannot be certified, and the report says why
    inst_path = tmp_path / "inst.json"
    main(["gen", "--family", "randpsd", "--params", '{"d": 8, "k": 4}',
          "--seed", "10", "--out", str(inst_path)])
    cert_path = tmp_path / "cert.json"
    assert main(["certify", "--instance", str(inst_path),
                 "--out", str(cert_path)]) == 0
    doc = json.loads(cert_path.read_text())
    assert doc["status"] == "Inconclusive"
    assert doc["classification"] == "SdpNotTight"


def test_certify_exits_2_on_non_finite_gate_matrices(tmp_path, monkeypatch):
    # every least eigenvalue of the gates raises, as least_eigenvalues
    # does on a matrix with a NaN or an inf
    def not_finite(stack):
        raise np.linalg.LinAlgError("matrix not finite")

    monkeypatch.setattr(certificate, "least_eigenvalues", not_finite)
    inst = ProblemInstance((np.diag([3.0, 1.0]),))
    inst_path, pt_path = tmp_path / "inst.json", tmp_path / "pt.json"
    save_instance(inst, inst_path)
    pt_path.write_text(json.dumps({"u": [[1.0], [0.0]]}))
    cert_path = tmp_path / "cert.json"
    argv = ["certify", "--instance", str(inst_path), "--point", str(pt_path),
            "--out", str(cert_path)]
    assert main(argv) == 2
    doc = json.loads(cert_path.read_text())
    assert doc["status"] == "NumericalFailure"
    assert doc["reason"] == "gate evaluation failed: matrix not finite"
    assert main(argv + ["--tolerate-failures"]) == 0


def test_solve_stmm_and_certify_near_the_double_range(tmp_path):
    # finite entries of norm 8.9e307, whose M_i + c I and gradient overflow
    # in their own units: both commands work on the instance's view
    inst = ProblemInstance((np.diag([8.9e307, 8.9e307, 0.0]),
                            np.diag([-8.9e307, 0.0, 8.9e307])))
    inst_path, pt_path = tmp_path / "inst.json", tmp_path / "pt.json"
    save_instance(inst, inst_path)
    stmm_path, cert_path = tmp_path / "stmm.json", tmp_path / "cert.json"
    assert main(["solve-stmm", "--instance", str(inst_path),
                 "--out", str(stmm_path)]) == 0
    assert json.loads(stmm_path.read_text())["status"] == "Stationary"
    pt_path.write_text(json.dumps({"u": np.eye(3)[:, [1, 2]].tolist()}))
    assert main(["certify", "--instance", str(inst_path), "--point",
                 str(pt_path), "--out", str(cert_path)]) == 0
    assert json.loads(cert_path.read_text())["status"] == "CertifiedGlobal"


# a sweep value that is not a positive integer n1 or a finite sigma >= 0
# stops the sweep before any trial runs: bad input, not a failed trial
@pytest.mark.parametrize("value", ["--n1=0", "--sigmas=-0.1", "--sigmas=nan"])
def test_bad_sweep_values_are_bad_input(tmp_path, capsys, value):
    out = tmp_path / "out"
    rc = main(["cjd-sweep", value, "--d", "6", "--k", "2", "--trials", "1",
               "--out-dir", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "error: " in captured.err and captured.out == ""
    assert not out.exists()


def test_gen_rejects_a_negative_sigma(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", "--family", "cjd", "--params",
                 '{"d": 6, "k": 2, "sigma": -0.1}', "--out", str(out)]) == 1
    assert "sigma must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigma", ['"x"', "null", "[0.1]"])
def test_gen_rejects_a_sigma_that_is_not_a_number(tmp_path, capsys, sigma):
    # bad input, reported as an error line and exit status 1, not a
    # traceback
    out = tmp_path / "inst.json"
    assert main(["gen", "--family", "cjd", "--params",
                 f'{{"d": 6, "k": 2, "sigma": {sigma}}}',
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sigma must be finite and >= 0")
    assert not out.exists()


def test_cjd_sweep_over_sample_sizes(tmp_path):
    argv = ["cjd-sweep", "--n1", "40", "--d", "6", "--k", "2", "--trials",
            "1", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    (rec,) = [json.loads(line) for line in
              (tmp_path / "sweep_records.jsonl").read_text().splitlines()]
    # --n1 sweeps the hppca family's group sizes [n1, 4 n1]
    assert rec["family"] == "hppca" and rec["sweep_value"] == 40
    assert rec["sdp_status"] == "Optimal" and "error" not in rec
    rows = (tmp_path / "sweep_curve.tsv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].split("\t")[2] == "40"
