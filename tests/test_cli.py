"""Config parsing, CLI exit codes, and end-to-end command behavior."""
import pytest

from eulerdd import (DephasingSpec, LorentzianNoiseSpec, PulseShape,
                     SequenceSpec, SimParams, calibrate_amplitude)
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
    with pytest.raises(ConfigError, match="fit_p must be 1 or 2"):
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
        lambda: SimParams(dt=x),
        lambda: SimParams(envelope_T2=x),
        lambda: calibrate_amplitude(LorentzianNoiseSpec(R=1e4, A=0.0), x),
    ]
    for build in builders:
        with pytest.raises(ValueError, match="finite"):
            build()


def test_main_runtime_errors_exit_2(tmp_path, capsys):
    # dt coarser than tau_d / 50 is rejected by the integrator at run time.
    path = write_cfg(tmp_path, "experiment = dd\nsequence = xy4\ntau = 5e-7\n"
                     "tau_d = 1e-7\nn_list = 2\ndt = 1e-8\nrealizations = 2\n")
    assert main([path, "--out", str(tmp_path / "dd.csv")]) == 2
    assert "exceeds tau_d/50" in capsys.readouterr().err


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


def test_seed_override_changes_results(tmp_path):
    path = write_cfg(tmp_path, FID_TEXT)
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert main([path, "--out", str(a)]) == 0
    assert main([path, "--out", str(b), "--seed", "2"]) == 0
    assert main([path, "--out", str(c), "--seed", "1"]) == 0
    assert a.read_bytes() != b.read_bytes()
    assert a.read_bytes() == c.read_bytes()  # --seed 1 matches the config seed


def test_thread_count_is_cosmetic(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, FID_TEXT)
    one, four, env = (tmp_path / name for name in ("t1.csv", "t4.csv", "env.csv"))
    monkeypatch.delenv("EULERDD_THREADS", raising=False)
    assert main([path, "--out", str(one)]) == 0
    assert main([path, "--out", str(four), "--threads", "4"]) == 0
    monkeypatch.setenv("EULERDD_THREADS", "4")
    assert main([path, "--out", str(env)]) == 0
    assert one.read_bytes() == four.read_bytes() == env.read_bytes()


def test_thread_resolution_precedence(tmp_path, capsys, monkeypatch):
    path = write_cfg(tmp_path, FID_TEXT + "threads = 2\nout = fid.csv\n")
    monkeypatch.setenv("EULERDD_THREADS", "8")
    assert main([path, "--threads", "3", "--dump-config"]) == 0
    assert "threads = 3" in capsys.readouterr().out
    assert main([path, "--dump-config"]) == 0
    assert "threads = 2" in capsys.readouterr().out  # config beats environment
    monkeypatch.setenv("EULERDD_THREADS", "abc")
    bare = write_cfg(tmp_path, FID_TEXT + "out = fid.csv\n", name="bare.cfg")
    assert main([bare, "--dump-config"]) == 1
    assert "EULERDD_THREADS must be an integer" in capsys.readouterr().err
    monkeypatch.delenv("EULERDD_THREADS")
    assert main([bare, "--threads", "0", "--dump-config"]) == 1
    assert "threads must be >= 1" in capsys.readouterr().err


def test_dump_config_round_trips(tmp_path, capsys):
    path = write_cfg(tmp_path, FID_TEXT + "out = fid.csv\n")
    assert main([path, "--dump-config"]) == 0
    first = capsys.readouterr().out
    again = write_cfg(tmp_path, first, name="dumped.cfg")
    assert main([again, "--dump-config"]) == 0
    assert capsys.readouterr().out == first
    assert parse_config(first)["sigma_delta"] == 764439.7634449162


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
    assert "eulerian = ok" in out and "decoupling_xyz = ok" in out
    assert "suggestion" not in out


def test_eulerian_check_argument_rules(tmp_path, capsys):
    both = write_cfg(tmp_path, "experiment = eulerian-check\nword = xy\n"
                     "sequence = xy4\n")
    assert main([both]) == 1
    assert "exactly one of word or sequence" in capsys.readouterr().err
    bad_start = write_cfg(tmp_path, "experiment = eulerian-check\nword = yy\n"
                          "start = x\n", name="start.cfg")
    assert main([bad_start]) == 1
    assert "not in the generated group" in capsys.readouterr().err


def test_export_noise_writes_samples(tmp_path, capsys):
    path = write_cfg(tmp_path, "experiment = export-noise\n"
                     "noise_r = 31415.926535897932\nnoise_a = 1e5\n"
                     "duration = 1e-4\nsample_rate = 1e6\nmaster_seed = 1\n")
    out = tmp_path / "noise.csv"
    assert main([path, "--out", str(out)]) == 0
    assert f"wrote 100 samples to {out}" in capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "t_s,bx_rad_s,by_rad_s"


def test_calibrate_command(tmp_path, capsys):
    path = write_cfg(tmp_path, "experiment = calibrate\n"
                     "noise_r = 31415.926535897932\ntarget_t1 = 12.87e-6\n"
                     "realizations = 60\nmaster_seed = 7\n")
    out = tmp_path / "cal.csv"
    assert main([path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "calibrated_A = " in printed and "iterations = " in printed
    assert out.exists()
