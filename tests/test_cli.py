import json

import pytest

from restrictlab.cli import main
from restrictlab.measures import cantor, load_measure, save_measure


@pytest.fixture
def flat_measure(tmp_path):
    path = tmp_path / "flat.json"
    rc = main(["measure", "new", "--kind", "random-flat", "--N", "512", "--m", "32",
               "--seed", "7", "--out", str(path)])
    assert rc == 0
    return str(path)


def test_exponents_flat_convolution_range_line(capsys):
    assert main(["exponents", "--n", "2", "--r", "inf"]) == 0
    out = capsys.readouterr().out
    assert "p_max = 4/3, q_max(p) = p'/2" in out


def test_exponents_r2(capsys):
    assert main(["exponents", "--n", "2", "--r", "2"]) == 0
    assert "p_max = 4/3, q_max(p) = p'/4" in capsys.readouterr().out


def test_exponents_mockenhaupt_and_knapp(capsys):
    assert main(["exponents", "--d", "1", "--alpha", "1/2", "--beta", "1/2"]) == 0
    assert "p0 = 6/5" in capsys.readouterr().out
    assert main(["exponents", "--d", "1", "--gamma", "1/2", "--p", "4/3"]) == 0
    assert "q_max = 2" in capsys.readouterr().out


def test_exponents_requires_arguments():
    assert main(["exponents"]) == 2


def test_unknown_flag_exits_2(capsys):
    assert main(["exponents", "--nope"]) == 2


def test_measure_then_analyze_dirac(tmp_path, capsys):
    mpath = tmp_path / "d.json"
    assert main(["measure", "new", "--kind", "dirac", "--dim", "1", "--N", "256",
                 "--out", str(mpath)]) == 0
    rpath = tmp_path / "report.json"
    assert main(["analyze", "--measure", str(mpath), "--alpha",
                 "--out", str(rpath)]) == 0
    report = json.loads(rpath.read_text())
    assert abs(report["alpha"]["estimate"]) <= 0.02
    assert "config_hash" in report and "schema_version" in report


def test_conv_csv(tmp_path, capsys):
    mpath = tmp_path / "c.json"
    save_measure(cantor(4, (0, 3), 4), str(mpath))
    assert main(["conv", "--measure", str(mpath), "-n", "2", "-r", "inf",
                 "--resolutions", "16,64,256"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "N,n,r,density_norm"
    assert len(lines) == 4
    # stage-parameterized rebuild: density 2^k at N = 4^k, stages 2..4
    values = [float(line.split(",")[-1]) for line in lines[1:]]
    assert values == pytest.approx([4.0, 8.0, 16.0], rel=1e-9)


def test_probe_json(tmp_path, flat_measure, capsys):
    out = tmp_path / "probe.json"
    assert main(["probe", "--measure", flat_measure, "-p", "1", "-q", "2",
                 "-X", "16", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert abs(data["probe"]["norm_lower_bound"] - 1.0) <= 1e-12
    assert data["probe"]["p"] == "1"
    assert len(data["probe"]["witness"]) == 33


def test_probe_budget_exit_code(tmp_path, capsys):
    mpath = tmp_path / "u.json"
    assert main(["measure", "new", "--kind", "uniform", "--N", "4096",
                 "--out", str(mpath)]) == 0
    rc = main(["probe", "--measure", mpath.as_posix(), "-p", "2", "-q", "2",
               "-X", "2048"])
    assert rc == 1
    assert "budget" in capsys.readouterr().err


def test_sweep_csv_and_determinism(tmp_path, flat_measure):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["sweep", "--measure", flat_measure, "--p-grid", "1:4/3:1/3",
            "--q-grid", "2:2:1", "--X", "8,16,32,64", "--seed", "5",
            "--restarts", "2"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == ("p,q,norm_X8,norm_X16,norm_X32,norm_X64,"
                      "slope,residual,class,in_theorem_region,in_knapp_region")


def test_global_seed_reaches_artifacts(tmp_path, flat_measure):
    out = tmp_path / "probe.json"
    assert main(["--seed", "7", "probe", "--measure", flat_measure, "-p", "2", "-q", "2",
                 "-X", "4", "--restarts", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["seed"] == 7 and data["options"]["seed"] == 7
    out = tmp_path / "expid.json"
    assert main(["--seed", "7", "verify", "--suite", "expid", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 7


def test_subcommand_seed_wins_over_global(tmp_path, flat_measure):
    out = tmp_path / "probe.json"
    assert main(["--seed", "7", "probe", "--measure", flat_measure, "-p", "2", "-q", "2",
                 "-X", "4", "--restarts", "1", "--seed", "9", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["options"]["seed"] == 9
    out = tmp_path / "expid.json"
    assert main(["--seed", "7", "verify", "--suite", "expid", "--seed", "9",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 9


def test_global_seed_and_threads_reach_sweep(flat_measure, monkeypatch):
    from restrictlab import probe

    seen = {}
    real_sweep = probe.sweep

    def spy(*args, **kwargs):
        seen["seed"], seen["threads"] = kwargs["options"].seed, kwargs["threads"]
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(probe, "sweep", spy)
    assert main(["--seed", "7", "--threads", "2", "sweep", "--measure", flat_measure,
                 "--p-grid", "2:2:1", "--q-grid", "2:2:1", "--X", "2,4,8,16",
                 "--restarts", "1"]) == 0
    assert seen == {"seed": 7, "threads": 2}


def test_verify_expid(tmp_path):
    out = tmp_path / "expid.json"
    assert main(["verify", "--suite", "expid", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert len(data["instances"]) >= 50


def test_verify_single_expid(capsys):
    assert main(["verify", "--suite", "expid", "--n", "2", "--r", "2",
                 "--p", "4/3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["instances"][0]["holds"] is True


def test_verify_hy_small(tmp_path):
    assert main(["verify", "--suite", "hy", "--trials", "10",
                 "--out", str(tmp_path / "hy.json")]) == 0


def test_verify_chain_small(tmp_path, flat_measure):
    out = tmp_path / "chain.json"
    assert main(["verify", "--suite", "chain", "--measure", flat_measure,
                 "--trials", "5", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["passed"] and len(data["instances"]) == 5


def test_verify_prop_suites(tmp_path, flat_measure):
    assert main(["verify", "--suite", "prop1", "--measure", flat_measure,
                 "--out", str(tmp_path / "p1.json")]) == 0
    assert main(["verify", "--suite", "prop2",
                 "--out", str(tmp_path / "p2.json")]) == 0
    assert main(["verify", "--suite", "prop3",
                 "--out", str(tmp_path / "p3.json")]) == 0
    assert main(["verify", "--suite", "knapp",
                 "--out", str(tmp_path / "kn.json")]) == 0
    data = json.loads((tmp_path / "p2.json").read_text())
    assert {rec["s"] for rec in data["instances"]} == {"2", "8"}


def test_verify_bilinear_suite(tmp_path, flat_measure):
    out = tmp_path / "bi.json"
    assert main(["verify", "--suite", "bilinear", "--measure", flat_measure,
                 "--trials", "10", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["passed"] and len(data["instances"]) == 30  # 3 exponents per trial


def test_demo_pipeline_marks_admissible_corner_bounded(tmp_path, capsys):
    # end-to-end: flat measure -> sweep at the admissible corner -> report
    mpath = tmp_path / "flat4096.json"
    assert main(["measure", "new", "--kind", "random-flat", "--N", "4096",
                 "--m", "185", "--seed", "20240613", "--out", str(mpath)]) == 0
    sweep_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--measure", str(mpath), "--p-grid", "4/3:4/3:1",
                 "--q-grid", "2:2:1", "--X", "64,128,256,512",
                 "--seed", "20240613", "--out", str(sweep_csv)]) == 0
    report_md = tmp_path / "report.md"
    assert main(["report", "--sweep", str(sweep_csv), "--out", str(report_md)]) == 0
    text = report_md.read_text()
    assert "| 4/3 | 2 |" in text
    assert "bounded" in text
    assert "true" in text  # inside the admissible region


def test_report_from_sweep(tmp_path, flat_measure, capsys):
    sweep_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--measure", flat_measure, "--p-grid", "1:1:1",
                 "--q-grid", "2:2:1", "--X", "8,16,32,64",
                 "--out", str(sweep_csv)]) == 0
    assert main(["report", "--sweep", str(sweep_csv)]) == 0
    out = capsys.readouterr().out
    assert "| p | q |" in out
    assert "bounded" in out


def test_report_empty_sweep(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("p,q,slope,class,in_theorem_region,in_knapp_region\n")
    assert main(["report", "--sweep", str(path)]) == 0
    out = capsys.readouterr().out
    assert "| p | q |" in out  # header-only table


def test_report_malformed_csv(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\x00\x01not a csv at all")
    assert main(["report", "--sweep", str(path)]) == 2


def test_report_missing_file():
    assert main(["report", "--sweep", "/nonexistent/sweep.csv"]) == 2


def test_measure_roundtrip_through_cli(tmp_path):
    mpath = tmp_path / "cantor.json"
    assert main(["measure", "new", "--kind", "cantor", "--base", "4",
                 "--digits", "0,3", "--stage", "3", "--out", str(mpath)]) == 0
    mu = load_measure(str(mpath))
    assert mu.num_atoms == 8
    assert mu.constructor["kind"] == "cantor"


def test_analyze_with_explicit_scales(tmp_path):
    mpath = tmp_path / "c8.json"
    save_measure(cantor(4, (0, 3), 8), str(mpath))
    rpath = tmp_path / "r.json"
    assert main(["analyze", "--measure", str(mpath), "--alpha",
                 "--scales", "1/4,1/16,1/64,1/256,1/1024,1/4096",
                 "--out", str(rpath)]) == 0
    report = json.loads(rpath.read_text())
    assert abs(report["alpha"]["estimate"] - 0.5) <= 0.05


def test_default_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("RESTRICTLAB_OUT", str(tmp_path))
    assert main(["measure", "new", "--kind", "dirac", "--N", "64"]) == 0
    assert (tmp_path / "dirac.json").exists()


def test_config_roundtrip_and_hash():
    from restrictlab.config import ExperimentConfig, artifact_envelope

    cfg = ExperimentConfig(seed=7, threads=2)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.hash() == cfg.hash()
    assert cfg.hash() != ExperimentConfig(seed=8).hash()
    env = artifact_envelope(cfg, {"x": 1})
    assert env["seed"] == 7 and env["config_hash"] == cfg.hash()
    assert env["schema_version"] == 1


def test_chain_reports_constant_trend_in_epsilon():
    # the dual-estimate constant is reported per instance so its trend in
    # epsilon can be inspected (uniformity is not certified, only exposed)
    import numpy as np

    from restrictlab.measures import random_flat
    from restrictlab.verifiers import check_dual_chain

    mu = random_flat(256, 24, seed=31)
    g = np.ones(256, dtype=complex)
    from fractions import Fraction

    constants = [check_dual_chain(mu, g, 2, float("inf"), Fraction(4, 3),
                                  epsilon=eps).instance["constant"]
                 for eps in (16, 8, 4, 2, 1)]
    assert all(c > 0 for c in constants)
    assert len(set(constants)) == 1  # measure-side constant independent of eps
