"""Config parsing, CLI exit codes, and end-to-end command behavior."""
import math

import numpy as np
import pytest

from eulerdd import (DEFAULT_N_LIST, CurvePoint, DecayCurve, DephasingSpec,
                     LorentzianNoiseSpec, PulseShape, SequenceSpec, SimParams,
                     apply_envelope, calibrate_amplitude, engine, export_waveform)
from eulerdd.cli import (ConfigError, bundled_config_names, main,
                         parse_config)

FID_TEXT = """\
# quick free-induction decay
experiment = fid
sigma_delta = 764439.7634449162
t_max = 3e-6
t_points = 5
realizations = 32
master_seed = 1
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_accepts_comments_and_maps_enums():
    cfg = parse_config("# header\n\nexperiment = dd  # trailing\n"
                       "sequence = xy8\ntau = 1e-6\ntau_d = 1e-7\n"
                       "shape = gaussian\ngauss_trunc = 2.0\n")
    assert cfg["experiment"] == "dd"
    assert cfg["sequence"] == "XY8"
    assert cfg["shape"] == "Gaussian"


def test_parse_config_n_list_forms():
    base = "experiment = dd\nsequence = xy4\ntau = 1e-6\ntau_d = 1e-7\n"
    assert parse_config(base + "n_list = 8,16\n")["n_list"] == (8, 16)
    # Ranges include the stop value.
    assert parse_config(base + "n_list = 8:32:8\n")["n_list"] == (8, 16, 24, 32)
    with pytest.raises(ConfigError, match="bad value for 'n_list'"):
        parse_config(base + "n_list = 8:4:2\n")
    with pytest.raises(ConfigError, match="bad value for 'n_list'"):
        parse_config(base + "n_list = 8:16\n")


def test_parse_config_word_normalization():
    cfg = parse_config("experiment = eulerian-check\nword = xyxy\n")
    assert cfg["word"] == "XYXY"
    with pytest.raises(ConfigError, match="letters X, Y, Z"):
        parse_config("experiment = eulerian-check\nword = xq\n")


def test_parse_config_line_numbered_errors():
    with pytest.raises(ConfigError, match="line 2: unknown key 'bogus'"):
        parse_config("experiment = fid\nbogus = 1\n")
    with pytest.raises(ConfigError, match=r"line 3: duplicate key 'tau' \(first set on line 2\)"):
        parse_config("experiment = dd\ntau = 1e-6\ntau = 2e-6\n")
    with pytest.raises(ConfigError, match="line 2: empty value for 'sigma_delta'"):
        parse_config("experiment = fid\nsigma_delta =\n")
    with pytest.raises(ConfigError, match="line 2: bad value for 'tau'"):
        parse_config("experiment = dd\ntau = fast\n")
    with pytest.raises(ConfigError, match="expected one of CPMG_Y, XY4, XY8"):
        parse_config("experiment = dd\nsequence = udd\n")
    with pytest.raises(ConfigError, match="line 1: expected key = value"):
        parse_config("experiment\n")


def test_parse_config_cross_key_rules():
    with pytest.raises(ConfigError, match="missing required key 'experiment'"):
        parse_config("tau = 1e-6\n")
    with pytest.raises(ConfigError, match="line 4: key 'tau' does not apply"):
        parse_config("experiment = fid\nsigma_delta = 1e5\nt_max = 1e-6\ntau = 1e-6\n")
    with pytest.raises(ConfigError, match="missing required keys: sigma_delta, t_max"):
        parse_config("experiment = fid\n")
    with pytest.raises(ConfigError, match="gauss_trunc needs shape = gaussian"):
        parse_config("experiment = dd\nsequence = xy8\ntau = 1e-6\n"
                     "tau_d = 1e-7\ngauss_trunc = 2.0\n")
    with pytest.raises(ConfigError, match="line 4: bad value for 'fit_p': expected one of 1, 2"):
        parse_config("experiment = fid\nsigma_delta = 1e5\nt_max = 1e-6\nfit_p = 3\n")


def test_main_reports_missing_config(tmp_path, capsys):
    assert main([str(tmp_path / "nope.cfg")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "bundled" in err


def test_main_requires_output_path(tmp_path, capsys):
    path = write_cfg(tmp_path, FID_TEXT)
    assert main([path]) == 1
    assert "needs an output path" in capsys.readouterr().err


def test_main_flags_and_config_errors_exit_1(tmp_path, capsys):
    path = write_cfg(tmp_path, FID_TEXT)
    assert main([path, "--realizations", "0", "--out", str(tmp_path / "x.csv")]) == 1
    assert "--realizations" in capsys.readouterr().err
    bad_tau = write_cfg(tmp_path, "experiment = dd\nsequence = xy4\n"
                        "tau = -1e-6\ntau_d = 1e-7\nn_list = 4,8\n"
                        "realizations = 4\nout = dd.csv\n", name="neg.cfg")
    assert main([bad_tau, "--out", str(tmp_path / "dd.csv")]) == 1
    assert "tau must be positive" in capsys.readouterr().err
    # Inputs the runners would refuse only after the run started exit 1
    # first, naming the key, with nothing printed and no output written.
    dd = ("experiment = dd\nsequence = xy8\ntau = 5e-7\ntau_d = 1e-7\n"
          "realizations = 4\nf_larmor = 500000\n")
    relax = ("experiment = relax\nnoise_r = 31415.926535897932\nnoise_a = 1e5\n"
             "t_max = 3e-6\nt_points = 5\nrealizations = 4\n")
    export = ("experiment = export-noise\nnoise_r = 31415.926535897932\n"
              "noise_a = 1e5\nduration = 1e-5\nsample_rate = 1e6\n")
    cases = [
        (FID_TEXT + "t_min = -1e-6\n", "bad value for 't_min': must be non-negative"),
        (relax + "t_min = -1e-6\n", "bad value for 't_min': must be non-negative"),
        (FID_TEXT.replace("t_max = 3e-6", "t_max = -3e-6"),
         "bad value for 't_max': must be non-negative"),
        (dd + "n_list = 4,8\n", "n_list entry 4 is not a multiple of the XY8 cycle length 8"),
        (dd + "n_list = 0:16:8\n", "bad value for 'n_list': cycle counts must be positive"),
        (dd + "n_list = -8,8\n", "bad value for 'n_list': cycle counts must be positive"),
        (export + "realization_index = -1\n",
         "bad value for 'realization_index': must lie in [0, 2^64)"),
        (export + f"realization_index = {2**64}\n",
         "bad value for 'realization_index': must lie in [0, 2^64)"),
        # Seeds wrap no more than indices do.
        (FID_TEXT.replace("master_seed = 1", f"master_seed = {2**64}"),
         "bad value for 'master_seed': must lie in [0, 2^64)"),
        (FID_TEXT, "--seed must lie in [0, 2^64)", "--seed", "-1"),
        (FID_TEXT, "--seed must lie in [0, 2^64)", "--seed", str(2**64)),
        # A grid whose times coincide, here all at t = 0 or at 1 us.
        (FID_TEXT.replace("t_max = 3e-6", "t_max = 0"),
         "t_min and t_max do not span 5 distinct times"),
        (FID_TEXT.replace("t_max = 3e-6", "t_max = 1e-6") + "t_min = 1e-6\n",
         "t_min and t_max do not span 5 distinct times"),
        # A grid that would run past t_max, linear or geometric.
        (FID_TEXT.replace("t_max = 3e-6", "t_max = 1e-6") + "t_min = 2e-6\n",
         "t_min = 2e-06 exceeds t_max = 1e-06"),
        (relax + "t_min = 4e-6\nt_spacing = geometric\n",
         "t_min = 4e-06 exceeds t_max = 3e-06"),
        (FID_TEXT + "threads = 2\n", "line 8: unknown key 'threads'"),
        # Every run takes the automatic step rule; a step length is no key.
        (DD_TEXT + "dt = 1e-9\n", "line 7: unknown key 'dt'"),
        # A malformed command line is a config error too, not argparse's exit 2.
        (FID_TEXT, "unrecognized arguments: --bogus", "--bogus"),
        (FID_TEXT, "argument --seed: expected one argument", "--seed"),
        # Values that once started the work and ended in a traceback (R^2
        # overflows; b_sup is infinite), a NaN curve after the run (hz^2 of the
        # largest detuning overflows) or a CSV of its header alone.
        (dd + "noise_r = 1e300\nnoise_a = 1e5\n", "config error: the comb overflows"),
        (relax.replace("noise_a = 1e5", "noise_a = 1e308"), "config error: the comb overflows"),
        (FID_TEXT.replace("764439.7634449162", "1e300"), "config error: sigma_delta must be"),
        (export.replace("duration = 1e-5\nsample_rate = 1e6", "duration = 1e-9\nsample_rate = 1"),
         "config error: duration * sample_rate = 1e-09 rounds to no sample"),
        (export.replace("duration = 1e-5", "duration = 1000"),
         "config error: 1e+09 samples exceed the 1e8 budget"),
    ]
    out = tmp_path / "never.csv"
    for text, message, *flags in cases:
        cfg = write_cfg(tmp_path, text, name="bad.cfg")
        assert main([cfg, "--out", str(out), *flags]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err, text
        assert captured.out == "" and not out.exists()
    # A path that exists but cannot be read as a file is a config error too.
    assert main([str(tmp_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert repr(str(tmp_path)) in captured.err
    assert captured.out == "" and not out.exists()
    # Help is no error.
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: eulerdd" in capsys.readouterr().out


EULER_TEXT = "experiment = eulerian-check\nsequence = xy8\n"
EXPORT_TEXT = ("experiment = export-noise\nnoise_r = 31415.926535897932\nnoise_a = 1e5\n"
               "duration = 1e-5\nsample_rate = 1e6\n")
DD_TEXT = ("experiment = dd\nsequence = xy8\ntau = 5e-7\ntau_d = 1e-7\nn_list = 8\n"
           "realizations = 4\n")
OUT = ("--out", "never.csv")


@pytest.mark.parametrize("text,flags,message", [
    # An experiment takes only the run keys it reads.
    (EULER_TEXT + "realizations = 4\n", (),
     "line 3: key 'realizations' does not apply to experiment 'eulerian-check'"),
    (EULER_TEXT + "out = x.csv\n", (), "line 3: key 'out' does not apply"),
    (EULER_TEXT + "master_seed = 1\n", (), "line 3: key 'master_seed' does not apply"),
    (EXPORT_TEXT + "realizations = 4\n", OUT,
     "line 6: key 'realizations' does not apply to experiment 'export-noise'"),
    # A flag sets its key, so it applies where the key does.
    (EULER_TEXT, ("--seed", "1"), "--seed does not apply to experiment 'eulerian-check'"),
    (EULER_TEXT, ("--realizations", "4"), "--realizations does not apply"),
    (EULER_TEXT, OUT, "--out does not apply to experiment 'eulerian-check'"),
    (EXPORT_TEXT, ("--realizations", "4", *OUT),
     "--realizations does not apply to experiment 'export-noise'"),
    # A malformed flag value is a config error, not an argparse one.
    (DD_TEXT, ("--seed", "abc", *OUT), "--seed must be an integer, got 'abc'"),
    (DD_TEXT, ("--threads", "x", *OUT), "--threads must be an integer, got 'x'"),
    # Absent is the only off: a negative amplitude or width is no switch.
    (DD_TEXT + "noise_r = 31415.926535897932\nnoise_a = -5\n", OUT,
     "line 8: bad value for 'noise_a': must be non-negative"),
    (DD_TEXT + "sigma_delta = -1\n", OUT,
     "line 7: bad value for 'sigma_delta': must be non-negative"),
    # The comb keys come together.
    (DD_TEXT + "noise_r = 31415.926535897932\n", OUT,
     "line 7: noise_r is a comb key; the comb needs both noise_r and noise_a"),
    (DD_TEXT + "noise_a = 1e5\n", OUT, "line 7: noise_a is a comb key"),
    (DD_TEXT + "delta_omega = 1e3\n", OUT, "line 7: delta_omega is a comb key"),
    (DD_TEXT + "n_max = 5\n", OUT, "line 7: n_max is a comb key"),
    # Range rules live in the converters, which name the line.
    (DD_TEXT + "envelope_t2 = 0\n", OUT, "line 7: bad value for 'envelope_t2': must be positive"),
    (DD_TEXT + "envelope_t2 = -1e-3\n", OUT, "line 7: bad value for 'envelope_t2'"),
    (DD_TEXT + "f_larmor = 0\n", OUT, "line 7: bad value for 'f_larmor': must be positive"),
    (DD_TEXT + "f_larmor = -5e5\n", OUT, "line 7: bad value for 'f_larmor'"),
])
def test_each_setting_has_one_route(tmp_path, capsys, monkeypatch, text, flags, message):
    # Every refusal exits 1 before any work: it names its line or flag,
    # prints nothing to stdout and writes no file.
    monkeypatch.chdir(tmp_path)
    assert main([write_cfg(tmp_path, text, name="bad.cfg"), *flags]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


def test_envelope_t2_scales_the_dd_curve(tmp_path):
    # envelope_t2 multiplies the run's values and stderrs by 0.5 e^{-(t/T2)^2}
    # + 0.5 and changes nothing else: the same seed draws the same curve.
    t2 = 1e-5
    runs = {"plain": "", "enveloped": f"envelope_t2 = {t2!r}\n"}
    text = DD_TEXT.replace("n_list = 8", "n_list = 8,16,24") + "sigma_delta = 764439.7634449162\n"
    for name, keys in runs.items():
        assert main([write_cfg(tmp_path, text + keys), "--out", str(tmp_path / name)]) == 0
    plain, enveloped = ([line.split(",") for line in (tmp_path / name).read_text().splitlines()]
                        for name in runs)
    assert plain[0] == enveloped[0] == ["N", "t_s", "value", "stderr"]
    assert len(plain) == len(enveloped) == 4
    for (n, t, value, stderr), got in zip(plain[1:], enveloped[1:]):
        factor = 0.5 * math.exp(-((float(t) / t2) ** 2)) + 0.5
        assert factor < 0.99
        assert got == [n, t, repr(float(value) * factor), repr(float(stderr) * factor)]


def test_zero_amplitude_and_width_mean_zero(tmp_path):
    # A zero comb amplitude and a zero detuning width run the model they
    # name, which is the same as leaving the keys out.
    runs = {"off": "", "zero": "noise_r = 31415.926535897932\nnoise_a = 0\nsigma_delta = 0\n"}
    for name, keys in runs.items():
        assert main([write_cfg(tmp_path, DD_TEXT + keys), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "off").read_bytes() == (tmp_path / "zero").read_bytes()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_input_is_rejected(tmp_path, capsys, value):
    # The CLI stops at the offending line with exit 1 before any run starts.
    dd = ("experiment = dd\nsequence = xy4\ntau = 5e-7\ntau_d = 1e-7\n"
          "n_list = 4,8\nrealizations = 4\n")
    for text, key, line in ((dd.replace("5e-7", value), "tau", 3),
                            (FID_TEXT.replace("764439.7634449162", value), "sigma_delta", 3)):
        out = tmp_path / "run.csv"
        assert main([write_cfg(tmp_path, text), "--out", str(out)]) == 1
        assert f"line {line}: bad value for '{key}': must be finite" in capsys.readouterr().err
        assert not out.exists()
    x = float(value)
    builders = [
        lambda: SequenceSpec("XY4", N=4, tau=x, tau_d=1e-7),
        lambda: SequenceSpec("XY4", N=4, tau=1e-6, tau_d=x),
        lambda: PulseShape("Gaussian", gauss_trunc=x),
        lambda: LorentzianNoiseSpec(R=x, A=1.0),
        lambda: LorentzianNoiseSpec(R=1e4, A=x),
        lambda: LorentzianNoiseSpec(R=1e4, A=1.0, delta_omega=x),
        lambda: DephasingSpec(sigma_delta=x),
        lambda: apply_envelope(DecayCurve((CurvePoint(0.0, 0, 1.0, 0.0),)), x),
        lambda: calibrate_amplitude(LorentzianNoiseSpec(R=1e4, A=0.0), x),
    ]
    for build in builders:
        with pytest.raises(ValueError, match="finite"):
            build()


@pytest.mark.parametrize("build", [
    lambda big: SequenceSpec("XY4", N=4, tau=big, tau_d=1e-7),
    lambda big: SequenceSpec("XY4", N=4, tau=1e-6, tau_d=big),
    lambda big: PulseShape("Gaussian", gauss_trunc=big),
    lambda big: LorentzianNoiseSpec(R=big, A=1.0),
    lambda big: LorentzianNoiseSpec(R=1e4, A=big),
    lambda big: DephasingSpec(sigma_delta=big),
    lambda big: DecayCurve((CurvePoint(big, 0, 0.5, 0.0),)),
    lambda big: DecayCurve((CurvePoint(0.0, 0, 0.5, big),)),
    lambda big: apply_envelope(DecayCurve((CurvePoint(0.0, 0, 1.0, 0.0),)), big),
    lambda big: calibrate_amplitude(LorentzianNoiseSpec(R=1e4, A=0.0), big),
    lambda big: export_waveform(LorentzianNoiseSpec(R=1e4, A=1.0), np.zeros(21), big, 1.0,
                                "never.csv"),
], ids=["tau", "tau_d", "gauss_trunc", "R", "A", "sigma_delta", "curve_t", "stderr", "T2",
        "target_T1", "duration"])
def test_inputs_refuse_integers_beyond_the_double_range(build):
    # An int has no float beyond about 1.8e308: the range check refuses it
    # with ValueError, before any float() of it can raise OverflowError.
    with pytest.raises(ValueError):
        build(10**400)


def test_main_runtime_errors_exit_2(tmp_path, capsys, monkeypatch):
    # A calibration whose relaxation never decays cannot bracket its target;
    # that is found only by running, so the run exits 2.
    def flat(spec, t_list, *args, **kwargs):
        return DecayCurve(tuple(CurvePoint(t, 0, 1.0, 0.0) for t in t_list))

    monkeypatch.setattr(engine, "run_relaxation", flat)
    path = write_cfg(tmp_path, "experiment = calibrate\nnoise_r = 31415.926535897932\n"
                     "target_t1 = 12.87e-6\nrealizations = 2\n")
    assert main([path]) == 2
    captured = capsys.readouterr()
    assert "could not bracket the target relaxation time" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_main_refuses_runs_over_the_step_budget(tmp_path, capsys):
    # One second of relaxation under a strong comb needs about 2.3e7
    # integration steps, beyond the 2e6 budget, so the run exits 2.
    path = write_cfg(tmp_path, "experiment = relax\nnoise_r = 31415.926535897932\n"
                     "noise_a = 1838870.610118221\nt_max = 1.0\nt_points = 2\n"
                     "realizations = 2\n")
    assert main([path, "--out", str(tmp_path / "relax.csv")]) == 2
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / "relax.csv").exists()


def test_main_fid_run_writes_csv_and_fit(tmp_path, capsys):
    path = write_cfg(tmp_path, FID_TEXT)
    out = tmp_path / "fid.csv"
    assert main([path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert f"wrote 5 points to {out}" in printed
    assert "fit_T = " in printed and "fit_p = 2" in printed
    lines = out.read_text().splitlines()
    assert lines[0] == "N,t_s,value,stderr"
    assert len(lines) == 6


def test_main_reports_unfittable_curves(tmp_path, capsys):
    path = write_cfg(tmp_path, FID_TEXT.replace("t_points = 5", "t_points = 2"))
    assert main([path, "--out", str(tmp_path / "fid.csv")]) == 0
    assert "fit = none (need at least 4 points, got 2)" in capsys.readouterr().out


def test_main_dd_run_with_delta_pulses(tmp_path, capsys):
    path = write_cfg(tmp_path, "experiment = dd\nsequence = xy4\ntau = 1e-6\n"
                     "tau_d = 0\nshape = delta\nn_list = 2,4,6,8\n"
                     "sigma_delta = 764439.7634449162\nrealizations = 16\n"
                     "f_larmor = 500000\nmaster_seed = 3\n")
    out = tmp_path / "dd.csv"
    assert main([path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    # tau_c = 2 us sits exactly on the k = 2 resonance of 0.5 MHz.
    assert "larmor check: WARNING" in printed and "weak (even k)" in printed
    assert f"wrote 4 points to {out}" in printed


def test_dd_without_n_list_scans_the_default_grid(tmp_path):
    path = write_cfg(tmp_path, "experiment = dd\nsequence = xy8\ntau = 1e-6\n"
                     "tau_d = 0\nshape = delta\nsigma_delta = 764439.7634449162\n"
                     "realizations = 2\n")
    out = tmp_path / "dd.csv"
    assert main([path, "--out", str(out)]) == 0
    ns = [int(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert ns == list(DEFAULT_N_LIST)


def test_relax_geometric_time_grid(tmp_path, capsys):
    text = ("experiment = relax\nnoise_r = 31415.926535897932\nnoise_a = 1e5\n"
            "t_max = 2e-5\nt_points = 6\nt_spacing = geometric\nrealizations = 2\n")
    out = tmp_path / "relax.csv"
    assert main([write_cfg(tmp_path, text + "t_min = 1e-6\n"), "--out", str(out)]) == 0
    t = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert np.array_equal(t, np.geomspace(1e-6, 2e-5, 6))
    # A geometric grid cannot start at t = 0.
    assert main([write_cfg(tmp_path, text + "t_min = 0\n"), "--out", str(out)]) == 1
    assert "geometric spacing needs t_min > 0" in capsys.readouterr().err


def test_seed_override_changes_results(tmp_path):
    path = write_cfg(tmp_path, FID_TEXT)
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert main([path, "--out", str(a)]) == 0
    assert main([path, "--out", str(b), "--seed", "2"]) == 0
    assert main([path, "--out", str(c), "--seed", "1"]) == 0
    assert a.read_bytes() != b.read_bytes()
    assert a.read_bytes() == c.read_bytes()  # --seed 1 matches the config seed


def test_thread_count_is_cosmetic(tmp_path, capsys):
    # --threads is validated and then ignored.
    path = write_cfg(tmp_path, FID_TEXT)
    one, four = tmp_path / "t1.csv", tmp_path / "t4.csv"
    assert main([path, "--out", str(one)]) == 0
    assert main([path, "--out", str(four), "--threads", "4"]) == 0
    assert one.read_bytes() == four.read_bytes()
    capsys.readouterr()
    assert main([path, "--out", str(tmp_path / "t0.csv"), "--threads", "0"]) == 1
    assert "--threads must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "t0.csv").exists()


def test_thread_resolution_precedence(tmp_path, capsys, monkeypatch):
    # Only --threads is read: the config key is unknown, the environment
    # variable is ignored, and the dumped config carries no threads line.
    bare = write_cfg(tmp_path, FID_TEXT + "out = fid.csv\n", name="bare.cfg")
    monkeypatch.setenv("EULERDD_THREADS", "abc")
    assert main([bare, "--threads", "3", "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    assert main([bare, "--dump-config"]) == 0
    assert capsys.readouterr().out == dumped
    assert "threads" not in dumped
    keyed = write_cfg(tmp_path, FID_TEXT + "threads = 2\nout = fid.csv\n")
    assert main([keyed, "--threads", "3", "--dump-config"]) == 1
    assert "unknown key 'threads'" in capsys.readouterr().err
    assert main([bare, "--threads", "0", "--dump-config"]) == 1
    assert "--threads must be >= 1" in capsys.readouterr().err


def test_dump_config_round_trips(tmp_path, capsys):
    path = write_cfg(tmp_path, FID_TEXT + "out = fid.csv\n")
    assert main([path, "--dump-config"]) == 0
    first = capsys.readouterr().out
    again = write_cfg(tmp_path, first, name="dumped.cfg")
    assert main([again, "--dump-config"]) == 0
    assert capsys.readouterr().out == first
    assert parse_config(first)["sigma_delta"] == 764439.7634449162
    # '#' would start a comment, so this out cannot be dumped.
    assert main([path, "--out", "x#y.csv", "--dump-config"]) == 1
    captured = capsys.readouterr()
    assert "out = 'x#y.csv' cannot be written as a config line" in captured.err
    assert captured.out == ""


def test_bundled_configs_all_parse(capsys):
    names = bundled_config_names()
    assert len(names) == 16
    for expected in ("fig2_xy8_slow", "fig2_cpmg_y_fast", "fig3_relax",
                     "fig4_xy8_slow_gaussian"):
        assert expected in names
    for name in names:
        assert main([name, "--dump-config"]) == 0, name
        capsys.readouterr()


def test_eulerian_check_fail_prints_suggestion(tmp_path, capsys):
    path = write_cfg(tmp_path, "experiment = eulerian-check\nword = xyxy\n")
    assert main([path]) == 0
    out = capsys.readouterr().out
    assert "word = XYXY" in out
    assert "group = I,X,Y,Z" in out and "edges = 8" in out
    assert "eulerian = FAIL: 4 of 8 edges traversed; first missing edge I-Y->" in out
    assert "decoupling_xyz = ok" in out
    assert "suggestion = XXYXYYXY" in out


def test_eulerian_check_passes_for_xy8(tmp_path, capsys):
    path = write_cfg(tmp_path, "experiment = eulerian-check\nsequence = xy8\n")
    assert main([path]) == 0
    out = capsys.readouterr().out
    assert "word = XYXYYXYX" in out  # closed on itself: checked once
    assert "eulerian = ok" in out and "decoupling_xyz = ok" in out
    assert "suggestion" not in out


def test_eulerian_check_argument_rules(tmp_path, capsys):
    both = write_cfg(tmp_path, "experiment = eulerian-check\nword = xy\n"
                     "sequence = xy4\n")
    assert main([both]) == 1
    assert "exactly one of word or sequence" in capsys.readouterr().err
    # The verdict is the same from every start vertex, and k >= 2 closed
    # cycles always repeat an edge, so neither key exists.
    for key in ("start = x", "cycles = 2"):
        extra = write_cfg(tmp_path, f"experiment = eulerian-check\nsequence = xy8\n{key}\n",
                          name="extra.cfg")
        assert main([extra]) == 1
        assert f"unknown key {key.split()[0]!r}" in capsys.readouterr().err


@pytest.mark.parametrize("sequence,word,group,edges,eulerian,decoupling", [
    ("cpmg_y", "YY", "I,Y", 2, "ok", "FAIL"),
    ("xy4", "XYXY", "I,X,Y,Z", 8, "FAIL: 4 of 8 edges traversed; first missing edge I-Y->",
     "ok"),
], ids=["cpmg_y", "xy4"])
def test_eulerian_check_takes_one_closed_cycle_of_a_sequence(tmp_path, capsys, sequence,
                                                              word, group, edges, eulerian,
                                                              decoupling):
    # The base word, doubled when its Pauli product is not the identity:
    # Y alone ends at Y, XY at Z.  The group is the one the word's letters
    # generate: Y alone generates {I, Y}.
    path = write_cfg(tmp_path, f"experiment = eulerian-check\nsequence = {sequence}\n")
    assert main([path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"word = {word}" in lines
    assert f"group = {group}" in lines
    assert f"edges = {edges}" in lines
    assert f"eulerian = {eulerian}" in lines
    assert f"decoupling_xyz = {decoupling}" in lines


@pytest.mark.parametrize("word,lines", [
    ("xyz", ["word = XYZ", "group = I,X,Y,Z", "edges = 12",
             "eulerian = FAIL: 3 of 12 edges traversed; first missing edge I-Y->",
             "decoupling_xyz = FAIL", "suggestion = XXYXXYZYZZYZ"]),
    ("zz", ["word = ZZ", "group = I,Z", "edges = 2", "eulerian = ok",
            "decoupling_xyz = FAIL"]),
], ids=["xyz", "zz"])
def test_eulerian_check_prints_the_group_a_word_generates(tmp_path, capsys, word, lines):
    # X, Y and Z generate the full group with three edges out of each vertex;
    # Z alone generates {I, Z}.
    path = write_cfg(tmp_path, f"experiment = eulerian-check\nword = {word}\n")
    assert main([path]) == 0
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("text", [
    FID_TEXT + "fit_model = fixed\n",
    FID_TEXT + "fit_model = free\n",
    "experiment = calibrate\nnoise_r = 31415.926535897932\ntarget_t1 = 12.87e-6\n"
    "realizations = 60\nmaster_seed = 7\n",
], ids=["fit_fixed", "fit_free", "calibrate"])
def test_printed_values_parse_as_floats(tmp_path, capsys, text):
    # Under numpy 2 a numpy scalar prints as np.float64(...), which no
    # reader of the key = value lines can parse.
    assert main([write_cfg(tmp_path, text), "--out", str(tmp_path / "out.csv")]) == 0
    pairs = [line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()
             if " = " in line]
    assert len(pairs) >= 4
    for key, value in pairs:
        float(value)


def test_export_noise_writes_samples(tmp_path, capsys):
    path = write_cfg(tmp_path, "experiment = export-noise\n"
                     "noise_r = 31415.926535897932\nnoise_a = 1e5\n"
                     "duration = 1e-4\nsample_rate = 1e6\nmaster_seed = 1\n")
    out = tmp_path / "noise.csv"
    assert main([path, "--out", str(out)]) == 0
    assert f"wrote 100 samples to {out}" in capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "t_s,bx_rad_s,by_rad_s"


def test_export_noise_is_the_field_a_run_sees(tmp_path, capsys):
    # Realization m of an export at a seed is realization m of a dd or
    # relax run at that seed: the same seeding route, the same comb sum.
    path = write_cfg(tmp_path, "experiment = export-noise\n"
                     "noise_r = 31415.926535897932\nnoise_a = 1838870.610118221\n"
                     "duration = 2e-3\nsample_rate = 1e6\nmaster_seed = 7\n"
                     "realization_index = 1\n")
    out = tmp_path / "noise.csv"
    assert main([path, "--out", str(out)]) == 0
    capsys.readouterr()
    t, bx, by = np.loadtxt(out, delimiter=",", skiprows=1).T
    assert t.size == 2000
    spec = LorentzianNoiseSpec(R=31415.926535897932, A=1838870.610118221)
    comb, _ = engine._prepare_batch(spec, None, SimParams(realizations=2, master_seed=7))
    c = comb.c_at(t)[1]
    assert np.array_equal(bx, 2.0 * c.real) and np.array_equal(by, -2.0 * c.imag)


def test_calibrate_command(tmp_path, capsys):
    path = write_cfg(tmp_path, "experiment = calibrate\n"
                     "noise_r = 31415.926535897932\ntarget_t1 = 12.87e-6\n"
                     "realizations = 60\nmaster_seed = 7\n")
    out = tmp_path / "cal.csv"
    assert main([path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "calibrated_A = " in printed and "iterations = " in printed
    assert out.exists()
