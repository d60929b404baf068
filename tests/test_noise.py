"""Comb weights, phase streams, field synthesis, and noise statistics."""
import math

import numpy as np
import pytest
from scipy import stats

from eulerdd import (CutoffExceeded, DephasingSpec, LorentzianNoiseSpec,
                     SampleBudgetExceeded, derive_seed, export_waveform, field_at,
                     sample_detuning, sample_realization, splitmix64, weight,
                     weights_all)
from helpers import comb_parts, estimate_autocorrelation, parseval_power, per_index_normal
from eulerdd import noise
from eulerdd.noise import (STREAM_DETUNING, STREAM_NOISE, Comb, _pcg64_outputs, _pcg64_states,
                           _seed_sequence_state)

R_SLOW = 2 * math.pi * 1e3
R_FAST = 2 * math.pi * 5e3


def spec_with(R=R_FAST, A=1.0, **kw):
    return LorentzianNoiseSpec(R=R, A=A, **kw)


def test_splitmix64_known_answers():
    # Reference outputs of the standard splitmix64 stream from seed 0.
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4
    assert 0 <= splitmix64(2**64 - 1) < 2**64


def test_int_splitmix64_equals_the_array_mix():
    # The int mix derive_seed runs against the uint64 array mix that seeds
    # each index's stream, on the edges of [0, 2^64) and random words.
    words = [0, 1, 2**63, 2**64 - 1] + [
        int(w) for w in np.random.default_rng(31).integers(0, 2**64, 1000, dtype=np.uint64)]
    mixed = noise._splitmix64_array(np.array(words, dtype=np.uint64))
    assert [splitmix64(w) for w in words] == mixed.tolist()


def test_derive_seed_takes_numpy_integers():
    # A numpy integer seed or part folds like the int of the same value.
    assert derive_seed(np.int64(5), np.uint64(3)) == derive_seed(5, 3)
    assert derive_seed(np.uint64(2**64 - 1), np.int64(7)) == derive_seed(2**64 - 1, 7)


def test_derive_seed_separates_streams():
    assert derive_seed(0) == splitmix64(0)
    noise0 = derive_seed(0, STREAM_NOISE, 0)
    assert noise0 == derive_seed(0, STREAM_NOISE, 0)
    assert noise0 != derive_seed(0, STREAM_DETUNING, 0)
    assert noise0 != derive_seed(0, STREAM_NOISE, 1)
    assert noise0 != derive_seed(1, STREAM_NOISE, 0)


def test_spec_validation_and_derived_quantities():
    spec = spec_with()
    assert list(spec.indices) == list(range(-10, 11))
    assert spec.period == pytest.approx(1e-3)
    # A spec without a master seed draws as seed 0.
    assert np.array_equal(sample_realization(spec, 3),
                          sample_realization(spec_with(master_seed=0), 3))
    assert sample_detuning(DephasingSpec(sigma_delta=1.0), 3) == sample_detuning(
        DephasingSpec(sigma_delta=1.0, master_seed=0), 3)
    for bad in (dict(R=0.0), dict(A=-1.0), dict(n_max=0), dict(delta_omega=0.0),
                dict(master_seed=-1), dict(master_seed=2**64), dict(n_max=2.5),
                dict(master_seed=1.5), dict(master_seed=2.0), dict(master_seed="7")):
        with pytest.raises(ValueError):
            LorentzianNoiseSpec(**{**dict(R=R_FAST, A=1.0), **bad})
    with pytest.raises(ValueError, match="n_max must be an integer"):
        LorentzianNoiseSpec(R=R_FAST, A=1.0, n_max=2.5)
    # Fields whose comb overflows once ended a run in an OverflowError (from
    # R**2, or from the step rule's ceil of an infinite b_sup).  The check
    # runs under the suite's RuntimeWarning-as-error filter, so it neither
    # warns nor raises anything but ValueError.
    for bad in (dict(R=1e300), dict(A=1e308), dict(A=1e160), dict(R=1e-200),
                dict(delta_omega=1e306), dict(delta_omega=1e160)):
        with pytest.raises(ValueError, match="overflows"):
            LorentzianNoiseSpec(**{**dict(R=R_FAST, A=1.0), **bad})
    # b_sup^2 = (A sum_n W(n))^2 just below the largest double is accepted.
    w_sum = float(np.sum(weights_all(spec_with(A=1.0))))
    assert LorentzianNoiseSpec(R=R_FAST, A=1e154 / w_sum).A == 1e154 / w_sum
    assert LorentzianNoiseSpec(R=R_FAST, A=1.0, n_max=np.int32(3)).n_max == 3
    # A seed outside [0, 2^64) would wrap onto another seed's streams.
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="outside"):
            DephasingSpec(sigma_delta=1.0, master_seed=bad)
    # A seed that is not an integer is refused when the spec is built, not
    # when the seeding first combines it with an integer.
    for bad in (1.5, 2.0, "7"):
        for make in (lambda seed: LorentzianNoiseSpec(R=R_FAST, A=1.0, master_seed=seed),
                     lambda seed: DephasingSpec(sigma_delta=1.0, master_seed=seed)):
            with pytest.raises(ValueError, match="master_seed must be an integer"):
                make(bad)
    assert DephasingSpec(sigma_delta=1.0, master_seed=np.uint64(7)).master_seed == 7
    assert LorentzianNoiseSpec(R=R_FAST, A=1.0, master_seed=np.int32(7)).master_seed == 7


def test_weights_lorentzian_profile():
    spec = spec_with()
    assert weight(spec, 0) == pytest.approx(math.sqrt(2 * spec.delta_omega / spec.R))
    w = weights_all(spec)
    assert w.shape == (21,)
    assert np.all(w[:10] == w[:10:-1])  # even in n
    for n, wn in zip(spec.indices, w):
        assert weight(spec, int(n)) == wn
        omega_n = 2 * math.pi * n * spec.delta_omega
        # W(n)^2 (omega_n^2 + R^2) is the flat Lorentzian numerator.
        assert wn**2 * (omega_n**2 + spec.R**2) == pytest.approx(
            2 * spec.delta_omega * spec.R)
    with pytest.raises(CutoffExceeded):
        weight(spec, spec.n_max + 1)


def test_sample_realization_deterministic_per_index():
    spec = spec_with(master_seed=42)
    a = sample_realization(spec, 3)
    b = sample_realization(spec, 3)
    assert a.shape == (2 * spec.n_max + 1,)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_realization(spec, 4))
    other = LorentzianNoiseSpec(R=spec.R, A=spec.A, master_seed=43)
    assert not np.array_equal(a, sample_realization(other, 3))


def test_phases_are_uniform():
    spec = spec_with(master_seed=7)
    pooled = np.concatenate([sample_realization(spec, m) for m in range(200)])
    assert pooled.min() >= 0.0 and pooled.max() < 2 * np.pi
    result = stats.kstest(pooled, "uniform", args=(0.0, 2 * np.pi))
    assert result.pvalue > 1e-3


def test_phase_row_shape_is_checked(tmp_path):
    # A length-1 row would otherwise broadcast over all 21 tones.
    spec = spec_with(master_seed=2)
    row = sample_realization(spec, 0)
    for bad in (row[:1], row[None, :], np.append(row, 0.0), np.float64(1.0)):
        with pytest.raises(ValueError, match="one row of 21 comb phases"):
            field_at(spec, bad, 0.0)
        with pytest.raises(ValueError, match="one row of 21 comb phases"):
            parseval_power(spec, bad)
        with pytest.raises(ValueError, match="one row of 21 comb phases"):
            export_waveform(spec, bad, duration=1e-5, sample_rate=1e6,
                            path=tmp_path / "bad.csv")
    assert not (tmp_path / "bad.csv").exists()
    # A row of another cutoff does not fit this comb either.
    with pytest.raises(ValueError, match="one row of 21 comb phases"):
        field_at(spec, sample_realization(spec_with(master_seed=2, n_max=3), 0), 0.0)


def test_field_is_periodic():
    spec = spec_with(master_seed=5)
    real = sample_realization(spec, 0)
    t = np.linspace(0.0, 0.9e-3, 7)
    bx0, by0 = field_at(spec, real, t)
    bx1, by1 = field_at(spec, real, t + spec.period)
    assert np.allclose(bx0, bx1, atol=1e-9)
    assert np.allclose(by0, by1, atol=1e-9)


def test_field_batching_is_bitwise_stable():
    # Fixed index-order accumulation: vector and scalar calls agree exactly.
    spec = spec_with(master_seed=5)
    real = sample_realization(spec, 1)
    t = np.array([0.0, 1.3e-4, 7.7e-4])
    bx, by = field_at(spec, real, t)
    for i, ti in enumerate(t):
        sx, sy = field_at(spec, real, float(ti))
        assert float(sx) == bx[i] and float(sy) == by[i]


# The fig4 comb and the criterion-6 comb, at their configs' seed.
TABLE_SPECS = [spec_with(A=1838870.610118221, master_seed=20260815),
               spec_with(A=142031.9491052709, master_seed=20260815)]


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=["fig4", "criterion6"])
@pytest.mark.parametrize("rows", [1, 1000])
def test_comb_table_matches_the_pairing_formula(spec, rows):
    # Comb.parts is built in its stored (basis, realization) order; it
    # holds the bytes of the pairing formula built realization-major and
    # transposed, as a C-contiguous (2 n_max + 1, rows, 2) array.
    phases = sample_realization(spec, np.arange(rows))
    parts = Comb.of(spec, phases).parts
    assert parts.shape == (2 * spec.n_max + 1, rows, 2)
    assert parts.flags.c_contiguous
    assert parts.tobytes() == comb_parts(spec, phases).tobytes()


def test_comb_values_at_production_size_do_not_depend_on_the_batch_layout():
    # The comb sum runs along the contiguous (rows, 2) axes of parts; with
    # 1000 rows that loop has 2000 entries, a SIMD body and a scalar tail.
    # Each value is still the same bytes whether its row is evaluated alone,
    # in a 7-row, strided or reversed sub-batch, or in the full batch.
    spec = spec_with(A=1838870.610118221, master_seed=11)
    phases = sample_realization(spec, np.arange(1000))
    comb = noise.Comb.of(spec, phases)
    assert comb.parts.shape == (21, 1000, 2) and comb.parts.flags.c_contiguous
    t = 3e-6 + np.arange(32) * 2.9e-9
    full = comb.c_at(t)
    layouts = [[0], [999], [517], np.arange(7), np.arange(993, 1000), np.arange(3, 1000, 7),
               np.arange(0, 1000, 2), np.arange(999, -1, -1), np.arange(998, 100, -3)]
    for rows in layouts:
        part = noise.Comb.of(spec, phases[rows]).c_at(t)
        assert part.tobytes() == full[rows].tobytes()
    # Any sub-range of times gives the same bytes as well.
    assert comb.c_at(t[5:6]).tobytes() == full[:, 5:6].tobytes()


def test_parseval_power_is_phase_independent():
    spec = spec_with(A=2.5e5, master_seed=11)
    targets = []
    for m in range(5):
        measured, target = parseval_power(spec, sample_realization(spec, m))
        assert measured == pytest.approx(target, rel=1e-9)
        targets.append(target)
    assert targets[0] == pytest.approx(
        0.5 * spec.A**2 * float(np.sum(weights_all(spec) ** 2)))


def test_autocorrelation_matches_truncated_comb():
    # Frozen analytic values of sum W^2 cos(omega_n / R) / sum W^2.
    for R, frozen in ((R_SLOW, 0.391252), (R_FAST, 0.638929)):
        spec = LorentzianNoiseSpec(R=R, A=1.0, master_seed=3)
        w2 = weights_all(spec) ** 2
        omega = 2 * np.pi * spec.indices * spec.delta_omega
        analytic = float(np.sum(w2 * np.cos(omega / R)) / np.sum(w2))
        assert analytic == pytest.approx(frozen, abs=1e-6)
        measured = estimate_autocorrelation(spec, 1.0 / R, M=300)
        assert measured == pytest.approx(analytic, abs=0.05)


def test_autocorrelation_validation():
    with pytest.raises(ValueError, match="M must be"):
        estimate_autocorrelation(spec_with(), 1e-4, M=10)
    with pytest.raises(ValueError, match="A = 0"):
        estimate_autocorrelation(spec_with(A=0.0), 1e-4, M=50)


def test_sample_detuning_statistics_and_modes():
    spec = DephasingSpec(sigma_delta=1e5, master_seed=9)
    assert sample_detuning(spec, 12) == sample_detuning(spec, 12)
    draws = np.array([sample_detuning(spec, m) for m in range(2000)])
    assert np.std(draws) == pytest.approx(1e5, rel=0.05)
    assert stats.kstest(draws, "norm", args=(0.0, 1e5)).pvalue > 1e-3
    # 1e5 batched draws are N(0, sigma) too, and finite: u1 < 1 caps
    # |z| at sqrt(-2 ln 2^-53) = sqrt(106 ln 2) ~ 8.57.
    batch = sample_detuning(spec, np.arange(10**5))
    assert stats.kstest(batch, "norm", args=(0.0, 1e5)).pvalue > 1e-3
    assert np.all(np.isfinite(batch))
    assert np.max(np.abs(batch)) <= math.sqrt(106 * math.log(2)) * 1e5
    assert sample_detuning(DephasingSpec(sigma_delta=0.0), 0) == 0.0


@pytest.mark.parametrize("master_seed", [0, 20260815, 2**63, 2**64 - 1])
def test_batched_draws_equal_per_index_generators(master_seed):
    # Oracle: one fresh default_rng per realization index, the route the
    # samplers followed before they drew a whole run in one batch; a
    # detuning is the Box-Muller normal of its first two random() doubles.
    n = 10_000
    phase_spec = spec_with(master_seed=master_seed)
    detuning_spec = DephasingSpec(sigma_delta=3.7e5, master_seed=master_seed)
    want_phases = np.stack([
        np.random.default_rng(derive_seed(master_seed, STREAM_NOISE, m)).uniform(
            0.0, 2 * np.pi, size=2 * phase_spec.n_max + 1) for m in range(n)])
    want_deltas = np.array([per_index_normal(master_seed, m) * detuning_spec.sigma_delta
                            for m in range(n)])
    phases = sample_realization(phase_spec, np.arange(n))
    deltas = sample_detuning(detuning_spec, np.arange(n))
    assert phases.shape == (n, 21) and deltas.shape == (n,)
    assert phases.tobytes() == want_phases.tobytes()
    assert deltas.tobytes() == want_deltas.tobytes()
    # Each scalar call equals its row; any subset, in any order, too.
    for m in (0, 1, 4097, n - 1):
        assert sample_realization(phase_spec, m).tobytes() == phases[m].tobytes()
        assert sample_detuning(detuning_spec, m) == deltas[m]
    subset = np.array([n - 1, 7, 3, 7])
    assert sample_realization(phase_spec, subset).tobytes() == phases[subset].tobytes()
    assert sample_detuning(detuning_spec, subset).tobytes() == deltas[subset].tobytes()


def test_seed_state_helper_matches_seed_sequence():
    # The edge seeds, then 1,000 from a fixed generator, so that every
    # pool row and mixing round meets many words.
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [
        int(s) for s in np.random.default_rng(27).integers(0, 2**64, 1000, dtype=np.uint64)]
    states = _seed_sequence_state(np.array(seeds, dtype=np.uint64))
    assert states.shape == (len(seeds), 4) and states.dtype == np.uint64
    for seed, row in zip(seeds, states):
        assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))


@pytest.mark.parametrize("master_seed", [0, 20260815, 2**64 - 1])
@pytest.mark.parametrize("stream", [STREAM_NOISE, STREAM_DETUNING], ids=["noise", "detuning"])
def test_raw_pcg64_outputs_equal_numpy(master_seed, stream):
    # All 64 bits of every output, which random() doubles drop the low 11
    # of, and the seeded (state, inc) against numpy's own generator.
    idx = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    states = _pcg64_states(master_seed, stream, idx)
    outputs = _pcg64_outputs(states, 21)
    assert outputs.shape == (21, idx.size) and outputs.dtype == np.uint64
    state_hi, state_lo, inc_hi, inc_lo = (x.tolist() for x in states)
    for k, m in enumerate(idx.tolist()):
        bits = np.random.default_rng(derive_seed(master_seed, stream, m)).bit_generator
        assert bits.state["state"] == {"state": state_hi[k] << 64 | state_lo[k],
                                       "inc": inc_hi[k] << 64 | inc_lo[k]}
        assert outputs[:, k].tolist() == bits.random_raw(21).tolist()


def test_batched_draw_shapes_and_index_checks(monkeypatch):
    spec = spec_with(master_seed=1)
    detuning = DephasingSpec(sigma_delta=1.0, master_seed=1)
    assert sample_realization(spec, np.arange(0)).shape == (0, 21)
    with pytest.raises(TypeError):
        sample_realization(spec, np.array([0.0, 1.0]))
    with pytest.raises(TypeError):
        sample_detuning(DephasingSpec(sigma_delta=1.0), np.zeros((2, 2), dtype=int))
    with pytest.raises(TypeError):
        sample_detuning(detuning, [1.5, 2**64])
    # Indices outside [0, 2^64) raise instead of wrapping onto another
    # stream (-1 onto 2^64 - 1, 2^64 onto 0); the largest index draws.
    # numpy makes [2^64] an object array and [-1, 2^63] a float one.
    for bad in (-1, 2**64, np.array([3, -1]), [-5], [2**64], [-1, 2**63]):
        for sample, s in ((sample_realization, spec), (sample_detuning, detuning),
                          (sample_detuning, DephasingSpec(sigma_delta=0.0))):
            with pytest.raises(ValueError, match=r"outside \[0, 2\^64\)"):
                sample(s, bad)
    top = np.array([2**64 - 1], dtype=np.uint64)
    assert sample_realization(spec, 2**64 - 1).tobytes() == \
        sample_realization(spec, top).tobytes()
    assert sample_detuning(detuning, 2**64 - 1) == sample_detuning(detuning, top)[0]

    def no_draws(*args):
        raise AssertionError("sigma_delta = 0 must not draw")

    monkeypatch.setattr(noise, "_pcg64_states", no_draws)
    flat = DephasingSpec(sigma_delta=0.0, master_seed=1)
    assert sample_detuning(flat, 5) == 0.0
    zeros = sample_detuning(flat, np.arange(4))
    assert zeros.shape == (4,) and not np.any(zeros)


def test_dephasing_spec_validation():
    with pytest.raises(ValueError, match="sigma_delta"):
        DephasingSpec(sigma_delta=-1.0)
    # The largest draw is |z| <= sqrt(106 ln 2) ~ 8.57, so hz = z sigma / 2
    # squares to a finite double up to sigma ~ 3.1e153; beyond it a run's
    # curve once came out NaN after the work.
    for sigma in (1e300, 3.2e153, np.float64(1e300)):
        with pytest.raises(ValueError, match="largest draw"):
            DephasingSpec(sigma_delta=sigma)
    assert DephasingSpec(sigma_delta=3.1e153).sigma_delta == 3.1e153


def test_export_waveform(tmp_path):
    spec = spec_with(A=2e5, master_seed=1)
    real = sample_realization(spec, 0)
    assert real.shape == (21,)
    path = tmp_path / "trace.csv"
    count = export_waveform(spec, real, duration=1e-4, sample_rate=1e6, path=path)
    assert count == 100
    lines = path.read_text().split("\n")
    assert lines[0] == "t_s,bx_rad_s,by_rad_s"
    assert len(lines) == count + 2 and lines[-1] == ""
    t0, bx0, by0 = (float(v) for v in lines[1].split(","))
    ex, ey = field_at(spec, real, 0.0)
    assert (t0, bx0, by0) == (0.0, float(ex), float(ey))
    for duration, rate in ((10.0, 1e8), (1e200, 1e200)):
        with pytest.raises(SampleBudgetExceeded):
            export_waveform(spec, real, duration=duration, sample_rate=rate, path=path)
    for duration, rate in ((0.0, 1e6), (math.inf, 1e6), (math.nan, 1e6), (1e-4, math.inf),
                           (1e-4, math.nan)):
        with pytest.raises(ValueError, match="positive and finite"):
            export_waveform(spec, real, duration=duration, sample_rate=rate, path=path)
    # A request that rounds to no sample is refused before the file is opened.
    path.unlink()
    for duration, rate in ((1e-9, 1.0), (0.5, 1.0), (1e-300, 1e-300)):
        with pytest.raises(ValueError, match="rounds to no sample"):
            export_waveform(spec, real, duration=duration, sample_rate=rate, path=path)
    assert not path.exists()


def test_export_waveform_writes_in_chunks(tmp_path, monkeypatch):
    # The export evaluates and writes a bounded number of samples at a
    # time, and its bytes equal one field_at call over all of them.
    spec = spec_with(A=2e5, master_seed=5)
    row = sample_realization(spec, 3)
    count, rate = 1000, 1e7
    t = np.arange(count) / rate
    bx, by = field_at(spec, row, t)
    want = "t_s,bx_rad_s,by_rad_s\n" + "".join(
        f"{float(a)!r},{float(b)!r},{float(c)!r}\n" for a, b, c in zip(t, bx, by))
    sizes = []

    def counted(spec, phases, t):
        sizes.append(np.size(t))
        return field_at(spec, phases, t)

    monkeypatch.setattr(noise, "_EXPORT_CHUNK", 128)
    monkeypatch.setattr(noise, "field_at", counted)
    path = tmp_path / "trace.csv"
    assert export_waveform(spec, row, count / rate, rate, path) == count
    assert path.read_bytes() == want.encode()
    assert sum(sizes) == count and max(sizes) <= 128
