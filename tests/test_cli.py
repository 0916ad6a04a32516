import json
import tracemalloc

import pytest

from restrictlab.cli import main
from restrictlab.measures import (
    cantor,
    circle,
    dirac,
    load_measure,
    measure_to_dict,
    random_flat,
    save_measure,
    uniform,
)


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
    assert main(["exponents", "--d", "2", "--alpha", "1/2", "--beta", "1/2",
                 "--gamma", "1/2", "--p", "4/3"]) == 0
    out = capsys.readouterr().out
    assert "p0 = 14/13" in out and "q_max = 1\n" in out


def test_exponents_requires_arguments():
    assert main(["exponents"]) == 2


def test_unknown_flag_exits_2(capsys):
    assert main(["exponents", "--nope"]) == 2
    # no thread-count flag, globally or on sweep: the CLI sweep runs serially
    assert main(["--threads", "2", "exponents", "--n", "2", "--r", "inf"]) == 2
    assert main(["sweep", "--measure", "m.json", "--p-grid", "2:2:1", "--q-grid", "2:2:1",
                 "--threads", "2"]) == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


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


def test_conv_rejects_resolution_it_cannot_build(tmp_path, capsys):
    mpath = tmp_path / "c.json"
    save_measure(cantor(4, (0, 3), 4), str(mpath))
    assert main(["conv", "--measure", str(mpath), "-n", "2", "-r", "inf",
                 "--resolutions", "64,128"]) == 1
    assert "error: cannot rebuild cantor at resolution 128" in capsys.readouterr().err


def test_malformed_measure_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for payload in ({"schema_version": 1}, [1, 2],
                    {"schema_version": 1, "dim": 1, "atoms": [[0, 1.0]]},
                    {"schema_version": 1, "dim": 2, "N": 4, "atoms": [[0, 1.0]]},
                    {"schema_version": 1, "dim": 1, "N": 4, "atoms": [[0, "w"]]},
                    {"schema_version": 1, "dim": 1, "N": "4", "atoms": [[0, 1.0]]},
                    {"schema_version": 1, "dim": 1, "N": 64, "atoms": [[0, float("nan")]]},
                    {"schema_version": 1, "dim": 1, "N": 4, "atoms": 5},
                    {"schema_version": 1, "dim": 1, "N": 64, "atoms": [[1.5, 0.5], [3.9, 0.5]]},
                    {"schema_version": 1, "dim": 1, "N": 64, "atoms": [[True, 1.0]]},
                    {"schema_version": 1, "dim": 1, "N": 64, "atoms": [[0, True]]},
                    # a JSON true is a Python int
                    {"schema_version": 1, "dim": 1, "N": True, "atoms": [[0, 1.0]]},
                    {"schema_version": 1, "dim": True, "N": 64, "atoms": [[0, 1.0]]},
                    {"schema_version": True, "dim": 1, "N": 64, "atoms": [[0, 1.0]]}):
        path.write_text(json.dumps(payload))
        assert main(["analyze", "--measure", str(path)]) == 1, payload
        assert capsys.readouterr().err.startswith("error: "), payload


@pytest.mark.parametrize("constructor, message", [
    ([1, 2], "constructor must be an object"),
    ({"kind": "cantor"}, "cantor descriptor lacks the field 'base'")], ids=["list", "without-base"])
def test_conv_on_a_malformed_constructor_exits_1(tmp_path, capsys, constructor, message):
    # conv rebuilds the measure from its constructor at a resolution other than N
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 1, "dim": 1, "N": 64, "atoms": [[0, 1.0]],
                                "constructor": constructor}))
    assert main(["conv", "--measure", str(path), "-n", "2", "-r", "inf", "--resolutions", "8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def test_probe_json(tmp_path, flat_measure, capsys):
    out = tmp_path / "probe.json"
    assert main(["probe", "--measure", flat_measure, "-p", "1", "-q", "2",
                 "-X", "16", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert abs(data["probe"]["norm_lower_bound"] - 1.0) <= 1e-12
    assert data["probe"]["p"] == "1"
    assert len(data["probe"]["witness"]) == 33
    # the loop's route and the rows its products took per start: 2X + 1 > N/16
    # keeps this q = 2 probe off the N-grid
    assert data["probe"]["route"] == "m-grid"
    assert data["probe"]["products"] == {"gram": data["probe"]["iterations"]}


def test_probe_budget_exit_code(tmp_path, capsys):
    # 2X + 1 > N keeps the operator off the FFT grid, so the q = 4 loop's
    # first product is dense: at side 32769 it reads a (129, 256) lattice
    # array, whose tables and one row's (129, 16384) partial product,
    # (129 + 256 + 129) x 16384 entries, do not fit MAX_DENSE_ENTRIES, so it
    # stops before any iteration
    mpath = tmp_path / "u.json"
    assert main(["measure", "new", "--kind", "uniform", "--N", "16384",
                 "--out", str(mpath)]) == 0
    rc = main(["probe", "--measure", mpath.as_posix(), "-p", "2", "-q", "4",
               "-X", "16384"])
    assert rc == 1
    assert "MAX_DENSE_ENTRIES budget" in capsys.readouterr().err


def test_dense_probe_holds_a_fraction_of_the_matrix(tmp_path, capsys):
    # 4097 x 4096 was over the budget as an L x m matrix (268 MB); as a
    # (33, 128) array its tables and the 2 starts' partial product hold
    # (33 + 128 + 2 x 33) x 4096 entries, and the whole probe, witness
    # re-evaluation included, peaks far below the matrix
    mpath, out = tmp_path / "u.json", tmp_path / "probe.json"
    assert main(["measure", "new", "--kind", "uniform", "--N", "4096",
                 "--out", str(mpath)]) == 0
    tracemalloc.start()
    try:
        rc = main(["probe", "--measure", mpath.as_posix(), "-p", "2", "-q", "4",
                   "-X", "2048", "--restarts", "2", "--iters", "3", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0, capsys.readouterr().err
    assert peak < 4097 * 4096 * 16 / 8, peak
    assert json.loads(out.read_text())["probe"]["norm_lower_bound"] > 0.0


def test_q2_probe_runs_over_the_matrix_budget(tmp_path, flat_measure, monkeypatch, capsys):
    # a q = 2 probe and its witness re-evaluation never make a dense
    # product, so the budget does not stop them
    from restrictlab import probe

    monkeypatch.setattr(probe, "MAX_DENSE_ENTRIES", 100)  # the operator has 129 x 32
    out = tmp_path / "probe.json"
    assert main(["probe", "--measure", flat_measure, "-p", "4/3", "-q", "2",
                 "-X", "64", "--restarts", "2", "--out", str(out)]) == 0
    assert "budget" not in capsys.readouterr().err
    assert json.loads(out.read_text())["probe"]["norm_lower_bound"] > 1.0


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


def test_global_seed_reaches_sweep(flat_measure, monkeypatch):
    from restrictlab import probe

    seen = {}
    real_sweep = probe.sweep

    def spy(*args, **kwargs):
        seen["seed"] = kwargs["options"].seed
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(probe, "sweep", spy)
    assert main(["--seed", "7", "sweep", "--measure", flat_measure,
                 "--p-grid", "2:2:1", "--q-grid", "2:2:1", "--X", "2,4,8,16",
                 "--restarts", "1"]) == 0
    assert seen == {"seed": 7}


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


@pytest.mark.parametrize("flags, build", [
    (["--kind", "dirac", "--dim", "2", "--N", "64", "--index", "3,5"],
     lambda: dirac(2, 64, [3, 5])),
    (["--kind", "uniform", "--dim", "2", "--N", "16"], lambda: uniform(2, 16)),
    (["--kind", "cantor", "--base", "4", "--digits", "3,0", "--stage", "3", "--confine", "4"],
     lambda: cantor(4, [0, 3], 3, confine=4)),
    (["--kind", "random-flat", "--N", "256", "--m", "16", "--seed", "3",
      "--flatness-c", "2.5", "--retries", "50", "--confine", "2"],
     lambda: random_flat(256, 16, 3, flatness_c=2.5, max_retries=50, confine=2)),
    (["--kind", "circle", "--N", "64", "--radius", "0.2"], lambda: circle(64, 0.2)),
], ids=["dirac", "uniform", "cantor", "random_flat", "circle"])
def test_measure_new_writes_constructor_payload(tmp_path, flags, build):
    out = tmp_path / "m.json"
    assert main(["measure", "new", *flags, "--out", str(out)]) == 0
    assert out.read_text() == json.dumps(measure_to_dict(build()), indent=2, sort_keys=True) + "\n"


def test_exhausted_random_flat_exits_1(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["measure", "new", "--kind", "random-flat", "--N", "4096", "--m", "2048",
                 "--seed", "5", "--flatness-c", "0.01", "--retries", "3",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: random_flat(4096,2048) exhausted 3 retries"), err
    assert not out.exists()


def test_analyze_with_explicit_scales(tmp_path):
    mpath = tmp_path / "c8.json"
    save_measure(cantor(4, (0, 3), 8), str(mpath))
    rpath = tmp_path / "r.json"
    assert main(["analyze", "--measure", str(mpath), "--alpha",
                 "--scales", "1/4,1/16,1/64,1/256,1/1024,1/4096",
                 "--out", str(rpath)]) == 0
    report = json.loads(rpath.read_text())
    assert abs(report["alpha"]["estimate"] - 0.5) <= 0.05


def test_beta_zero_runs_beta_at_the_default_K(tmp_path):
    mpath = tmp_path / "c5.json"
    save_measure(cantor(4, (0, 3), 5), str(mpath))  # N = 1024, default K = 256

    def analyze(*flags):
        out = tmp_path / "r.json"
        assert main(["analyze", "--measure", str(mpath), *flags, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    default_K = analyze("--beta", "256")["beta"]
    # --beta 0 alone runs beta only, not all three analyses
    report = analyze("--beta", "0")
    assert "alpha" not in report and "gamma" not in report
    assert report["beta"] == default_K
    # and beside another flag it is not dropped
    report = analyze("--beta", "0", "--alpha")
    assert "gamma" not in report
    assert report["beta"] == default_K and "alpha" in report


def test_scale_above_a_quarter_is_a_library_error(flat_measure, tmp_path, capsys):
    # the (1/N, 1/4] window depends on the measure, so the library checks it
    out = tmp_path / "r.json"
    assert main(["analyze", "--measure", flat_measure, "--scales", "1/2,1/4,1/8",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: scale 0.5 outside (1/N, 1/4]\n"
    assert not out.exists()


def test_beta_past_half_the_grid_is_a_library_error(monkeypatch, tmp_path, capsys):
    # random_flat(256, 24) at --beta 1000 fitted annuli up to [256, 512),
    # where mu_hat only repeats; it stops, as verify --K does, before any
    # coefficient is read
    from restrictlab import spectral

    mpath = tmp_path / "flat.json"
    save_measure(random_flat(256, 24, seed=3), str(mpath))
    reads = []
    real = spectral.fourier
    monkeypatch.setattr(spectral, "fourier", lambda mu, K: reads.append(K) or real(mu, K))
    with pytest.raises(ValueError) as limit:
        spectral.check_truncations(256, [129])
    out = tmp_path / "r.json"
    for K in ("129", "1000"):
        assert main(["analyze", "--measure", str(mpath), "--beta", K, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {limit.value}\n"
    assert main(["verify", "--suite", "prop2", "--measure", str(mpath), "--K", "16,129",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {limit.value}\n"
    assert reads == [] and not out.exists()
    assert main(["analyze", "--measure", str(mpath), "--beta", "128", "--out", str(out)]) == 0
    assert reads == [128]


def test_verify_knapp_scans_each_measure_once(tmp_path, monkeypatch):
    # every (p, q) case of the suite reads one billingsley_gamma scan, and
    # the records are those of knapp_test on a scan of its own, bit for bit
    from fractions import Fraction

    from restrictlab import regularity, verifiers

    mu = cantor(4, (0, 3), 6)
    r_list = [4.0**-i for i in range(1, 6)]
    alone = [verifiers.knapp_test(mu, Fraction(4, 3), q, r_list, regularity.billingsley_gamma(mu)).as_dict()
             for q in (2, 4)]
    calls = []
    real = regularity.billingsley_gamma
    monkeypatch.setattr(regularity, "billingsley_gamma", lambda mu: calls.append(mu.N) or real(mu))
    mpath, out = tmp_path / "c6.json", tmp_path / "knapp.json"
    save_measure(mu, str(mpath))
    assert main(["verify", "--suite", "knapp", "--measure", str(mpath), "--out", str(out)]) == 0
    assert calls == [mu.N]
    records = json.loads(out.read_text())["instances"]
    assert [{k: rec[k] for k in alone[0]} for rec in records] == json.loads(json.dumps(alone))


def test_verify_chain_prepares_the_instance_once(tmp_path, monkeypatch):
    from collections import Counter

    from restrictlab import verifiers

    calls = Counter()
    for name in ("convolve_power", "mollify"):
        def counting(*args, _name=name, _real=getattr(verifiers, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(verifiers, name, counting)
    assert main(["verify", "--suite", "chain", "--trials", "5",
                 "--out", str(tmp_path / "chain.json")]) == 0
    assert calls == {"convolve_power": 1, "mollify": 1}


def test_default_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("RESTRICTLAB_OUT", str(tmp_path))
    assert main(["measure", "new", "--kind", "dirac", "--N", "64"]) == 0
    assert (tmp_path / "dirac.json").exists()


def test_config_hash_and_envelope(tmp_path, flat_measure):
    from restrictlab.config import artifact_envelope

    env = artifact_envelope(7, {"x": 1})
    assert env == artifact_envelope(7, {"x": 1})
    assert env["config_hash"] != artifact_envelope(8, {"x": 1})["config_hash"]
    assert env["seed"] == 7 and env["x"] == 1 and env["schema_version"] == 1
    # the output directory cannot change a result, so it may not change an
    # artifact's bytes
    probe = ["probe", "--measure", flat_measure, "-p", "4/3", "-q", "2", "-X", "8",
             "--restarts", "2"]
    artifacts = []
    for i, extra in enumerate(([], ["--output-dir", str(tmp_path)])):
        out = tmp_path / f"probe{i}.json"
        assert main([*extra, *probe, "--out", str(out)]) == 0
        artifacts.append(out.read_bytes())
    assert artifacts[0] == artifacts[1]


def test_chain_reports_constant_trend_in_epsilon():
    # the dual-estimate constant is reported per instance so its trend in
    # epsilon can be inspected (uniformity is not certified, only exposed)
    import numpy as np

    from restrictlab.measures import random_flat
    from restrictlab.verifiers import check_dual_chain, prepare_chain

    mu = random_flat(256, 24, seed=31)
    g = np.ones(256, dtype=complex)
    from fractions import Fraction

    constants = [check_dual_chain(prepare_chain(mu, 2, float("inf"), Fraction(4, 3),
                                                epsilon=eps), g).instance["constant"]
                 for eps in (16, 8, 4, 2, 1)]
    assert all(c > 0 for c in constants)
    assert len(set(constants)) == 1  # measure-side constant independent of eps


@pytest.mark.parametrize("flags", [["--tol", "-1"], ["--tol", "nan"], ["--iters", "0"],
                                   ["--restarts", "0"], ["--restarts", "-3"],
                                   ["--seed", "-7"], ["--tol", "inf"]])
def test_out_of_range_probe_flags_are_usage_errors(flat_measure, tmp_path, capsys, flags):
    # the parser rejects the flag before any measure file is read
    out = tmp_path / "probe.json"
    for measure in (flat_measure, str(tmp_path / "missing.json")):
        assert main(["probe", "--measure", measure, "-p", "2", "-q", "2", "-X", "4",
                     *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: argument {flags[0]}: " in err, err
        assert not out.exists()


@pytest.mark.parametrize("flags", [["--tol", "nan"], ["--iters", "0"], ["--restarts", "-3"],
                                   ["--tol", "-1"], ["--restarts", "0"], ["--seed", "-7"]])
def test_out_of_range_sweep_flags_are_usage_errors(flat_measure, tmp_path, capsys, flags):
    out = tmp_path / "out.csv"
    sweep = ["sweep", "--measure", flat_measure, "--p-grid", "2:2:1", "--q-grid", "2:2:1",
             "--X", "2,4,8,16", "--restarts", "1", "--out", str(out)]
    runs = [sweep + flags]
    if flags[0] == "--seed":
        # the global flag, checked for every subcommand
        probe = ["probe", "--measure", flat_measure, "-p", "2", "-q", "2", "-X", "4",
                 "--out", str(out)]
        runs += [flags + sweep, flags + probe,
                 flags + ["verify", "--suite", "expid", "--out", str(out)],
                 flags + ["exponents", "--n", "2", "--r", "inf"],
                 ["measure", "new", "--kind", "random-flat", "--N", "64", "--m", "8",
                  "--out", str(out), *flags]]
    for argv in runs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"error: argument {flags[0]}: " in err, err
        assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--flatness-c", "-1", "--retries", "100000"], "--flatness-c: must be in (0, inf), got -1.0"),
    (["--flatness-c", "0"], "--flatness-c: must be in (0, inf), got 0.0"),
    (["--flatness-c", "nan"], "--flatness-c: must be in (0, inf), got nan"),
    (["--flatness-c", "inf"], "--flatness-c: must be in (0, inf), got inf"),
    (["--flatness-c", "abc"], "--flatness-c: invalid float value: 'abc'"),
    (["--radius", "0.5"], "--radius: must be in (0, 0.5), got 0.5"),
    (["--radius", "0"], "--radius: must be in (0, 0.5), got 0.0"),
    (["--radius", "nan"], "--radius: must be in (0, 0.5), got nan"),
])
def test_out_of_range_measure_floats_are_usage_errors(tmp_path, capsys, flags, message):
    # an unreachable flatness bound used to spend every retry before exiting 1
    kind = ["--kind", "circle", "--N", "64"] if flags[0] == "--radius" else \
        ["--kind", "random-flat", "--N", "4096", "--m", "185"]
    out = tmp_path / "mu.json"
    assert main(["measure", "new", *kind, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: argument {message}\n" in err, err
    assert not out.exists()


@pytest.mark.parametrize("suite", ["chain", "hy", "expid"])
def test_trials_below_one_are_usage_errors(tmp_path, capsys, suite):
    # a suite that ran no instance must not report a pass
    out = tmp_path / "v.json"
    for trials in ("0", "-5"):
        assert main(["verify", "--suite", suite, "--trials", trials, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: argument --trials: must be >= 1, got {trials}\n" in err, err
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["verify", "--suite", "chain", "--trials", "1", "--n", "0"], "--n: must be >= 1, got 0"),
    (["verify", "--suite", "chain", "--trials", "1", "--eps", "0"],
     "--eps: must be >= 1, got 0"),
    (["verify", "--suite", "bilinear", "--trials", "1", "--eps", "0"],
     "--eps: must be >= 1, got 0"),
    (["conv", "-n", "0", "-r", "inf"], "-n: must be >= 1, got 0"),
    (["conv", "-n", "2", "-r", "inf", "--resolutions", "64,0"], "--resolutions: must be >= 1, got 0"),
    (["sweep", "--p-grid", "2:2:1", "--q-grid", "2:2:1", "--X", "2,4", "--n", "0"],
     "--n: must be >= 1, got 0"),
    (["exponents", "--n", "0", "--r", "inf"], "--n: must be >= 1, got 0"),
    (["exponents", "--n", "two", "--r", "inf"], "--n: invalid int value: 'two'"),
    (["probe", "-p", "2", "-q", "2", "-X", "0"], "-X: must be >= 1, got 0"),
    (["analyze", "--beta", "-3"], "--beta: must be >= 0, got -3"),
    (["measure", "new", "--kind", "random-flat", "--N", "64", "--m", "8", "--retries", "-1"],
     "--retries: must be >= 0, got -1"),
    (["measure", "new", "--kind", "dirac", "--dim", "0"],
     "--dim: invalid choice: 0 (choose from 1, 2)"),
    (["measure", "new", "--kind", "dirac", "--dim", "-1"],
     "--dim: invalid choice: -1 (choose from 1, 2)"),
    (["measure", "new", "--kind", "uniform", "--N", "0"], "--N: must be >= 1, got 0"),
    (["measure", "new", "--kind", "circle", "--N", "0"], "--N: must be >= 1, got 0"),
    (["measure", "new", "--kind", "uniform", "--N", "-4"], "--N: must be >= 1, got -4"),
    (["measure", "new", "--kind", "cantor", "--stage", "0"], "--stage: must be >= 1, got 0"),
    (["measure", "new", "--kind", "random-flat", "--N", "64", "--m", "0"],
     "--m: must be >= 1, got 0"),
    (["measure", "new", "--kind", "cantor", "--base", "1"], "--base: must be >= 2, got 1"),
    (["measure", "new", "--kind", "uniform", "--N", "64", "--confine", "0"],
     "--confine: must be >= 1, got 0"),
    (["sweep", "--p-grid", "2:2:1", "--q-grid", "2:2:1", "--X", "0,4,8,16"],
     "--X: must be >= 1, got 0"),
    (["verify", "--suite", "prop2", "--K", "0,4"], "--K: must be >= 1, got 0"),
    (["analyze", "--scales", "0,1/8,1/4"], "--scales: must be > 0, got 0"),
    (["analyze", "--scales=-1/8,1/8,1/4"], "--scales: must be > 0, got -1/8"),
    (["analyze", "--scales", "-1/8,1/8,1/4"], "--scales: expected one argument"),
    (["analyze", "--scales", "1/0,1/8,1/4"], "--scales: invalid rational value: '1/0'"),
    (["analyze", "--scales", "abc"], "--scales: invalid rational value: 'abc'"),
    (["probe", "-p", "1/2", "-q", "2", "-X", "4"], "-p: exponent = 1/2 is outside [1, inf]"),
    (["probe", "-p", "2", "-q", "1/2", "-X", "4"], "-q: exponent = 1/2 is outside [1, inf]"),
    (["conv", "-n", "2", "-r", "1/2"], "-r: exponent = 1/2 is outside [1, inf]"),
    (["verify", "--suite", "chain", "--trials", "1", "--p", "1/2"],
     "--p: exponent = 1/2 is outside [1, inf]"),
    (["exponents", "--n", "2", "--r", "1/2"], "--r: exponent = 1/2 is outside [1, inf]"),
    (["sweep", "--p-grid", "1/2:1:1/4", "--q-grid", "2:2:1", "--X", "2,4"],
     "--p-grid: grid '1/2:1:1/4' starts below 1"),
    (["verify", "--suite", "prop2", "--gamma", "abc"], "--gamma: invalid rational value: 'abc'"),
    (["verify", "--suite", "prop2", "--gamma", "0"], "--gamma: must be > 0, got 0"),
    (["exponents", "--alpha", "abc", "--beta", "1/2"], "--alpha: invalid rational value: 'abc'"),
    (["exponents", "--alpha", "1/2", "--beta", "1/0"], "--beta: invalid rational value: '1/0'"),
    (["exponents", "--gamma", "0", "--p", "4/3"], "--gamma: must be > 0, got 0"),
    (["exponents", "--d", "0", "--alpha", "1/2", "--beta", "1/2"], "--d: must be >= 1, got 0"),
], ids=["verify-n", "chain-eps", "bilinear-eps", "conv-n", "conv-resolutions", "sweep-n", "exponents-n",
        "exponents-n-not-int", "probe-X", "analyze-beta", "measure-retries",
        "measure-dim-0", "measure-dim-negative", "uniform-N", "circle-N", "measure-N-negative",
        "cantor-stage", "random-flat-m", "cantor-base", "measure-confine", "sweep-X",
        "verify-K", "scales-zero", "scales-negative", "scales-negative-as-flag",
        "scales-zero-denominator", "scales-not-a-number", "probe-p", "probe-q", "conv-r",
        "verify-p", "exponents-r", "sweep-p-grid", "verify-gamma-not-a-number",
        "verify-gamma-zero", "exponents-alpha", "exponents-beta", "exponents-gamma",
        "exponents-d"])
def test_out_of_range_counts_are_usage_errors(flat_measure, tmp_path, capsys, argv, message):
    if argv[0] in ("conv", "sweep", "probe", "analyze"):
        argv = [*argv, "--measure", flat_measure]
    out = tmp_path / "out.json"
    if argv[0] != "exponents":
        argv = [*argv, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: argument {message}\n" in err, err
    assert not out.exists()
