import hashlib
import math
import struct


import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterblocks import (MagnitudeSeries, ModelError, ModelSpec,
                           PersistError, ZSampler, gen_series, marginal_tail,
                           mma1_constants, parse_model, read_series,
                           threshold_for_w, write_series)
from clusterblocks import models
from clusterblocks.models import _pareto_from_uniforms
from helpers import peak_bytes


def test_iid_pareto_support():
    s = gen_series(ModelSpec.iid_pareto(1.0), 3, seed=7)
    assert len(s) == 3
    assert np.all(s.values > 1.0)


def test_mma1_degenerate_coefficient_is_iid_path():
    spec = ModelSpec.mma1(1.0, 0.0, 2.0)
    s = gen_series(spec, 50, seed=3)
    # c1=0 means X_j = c0 * xi_j: i.i.d. Pareto values, all > 1
    assert np.all(s.values > 1.0)


def test_invalid_specs_rejected():
    with pytest.raises(ModelError):
        ModelSpec.mma1(0.0, 0.0, 1.0)
    with pytest.raises(ModelError):
        ModelSpec.iid_pareto(-1.0)
    with pytest.raises(ModelError):
        ModelSpec.piecewise(ModelSpec.piecewise(ModelSpec.iid_pareto(1.0), 4), 4)
    with pytest.raises(ModelError):
        gen_series(ModelSpec.piecewise(ModelSpec.iid_pareto(1.0), 7), 20, seed=0)


def test_generation_is_deterministic():
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    a = gen_series(spec, 500, seed=42)
    b = gen_series(spec, 500, seed=42)
    assert np.array_equal(a.values, b.values)
    c = gen_series(spec, 500, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_piecewise_blocks_reproducible_individually():
    inner = ModelSpec.mma1(1.0, 1.0, 1.0)
    s = gen_series(ModelSpec.piecewise(inner, 25), 100, seed=9)
    t = gen_series(ModelSpec.piecewise(inner, 25), 50, seed=9)
    # first two blocks only depend on (seed, block index)
    assert np.array_equal(s.values[:50], t.values)


def test_marginal_tail_mma1_closed_form():
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    # P(X > u) = 2/u - 1/u^2
    for u in (20.0, 5.0, 123.4):
        assert marginal_tail(spec, u) == pytest.approx(2 / u - 1 / u ** 2, rel=1e-14)
    assert marginal_tail(spec, 20.0) == pytest.approx(0.0975, rel=1e-12)


def test_marginal_tail_single_factor_and_support():
    spec = ModelSpec.mma1(1.0, 0.0, 1.7)
    assert marginal_tail(spec, 8.0) == pytest.approx(8.0 ** -1.7, rel=1e-14)
    with pytest.raises(ModelError):
        marginal_tail(ModelSpec.mma1(1.0, 2.0, 1.0), 1.5)


def test_marginal_tail_scaling_limit():
    # w * x^alpha -> c0^a + c1^a as x grows
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    x = 1e6
    assert marginal_tail(spec, x) * x == pytest.approx(2.0, rel=0.01)
    spec = ModelSpec.mma1(0.5, 2.0, 1.5)
    lim = 0.5 ** 1.5 + 2.0 ** 1.5
    assert marginal_tail(spec, x) * x ** 1.5 == pytest.approx(lim, rel=0.01)


def test_threshold_for_w_examples():
    u = threshold_for_w(ModelSpec.mma1(1.0, 1.0, 1.0), 0.1)
    # root of 2/u - 1/u^2 = 0.1
    oracle = (1.0 + math.sqrt(0.9)) / 0.1
    assert u == pytest.approx(oracle, rel=1e-9)
    assert threshold_for_w(ModelSpec.iid_pareto(1.0), 0.01) == pytest.approx(100.0, rel=1e-14)


def test_threshold_round_trip():
    rng = np.random.default_rng(1)
    spec = ModelSpec.mma1(1.0, 2.0, 1.3)
    for _ in range(100):
        w = float(10 ** rng.uniform(-8, -0.3))
        u = threshold_for_w(spec, w)
        assert abs(marginal_tail(spec, u) - w) <= 1e-12 * w
    with pytest.raises(ModelError):
        threshold_for_w(spec, 1.5)


def test_empirical_marginal_matches_exact():
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    n = 10 ** 6
    s = gen_series(spec, n, seed=2024)
    u = 20.0
    w = marginal_tail(spec, u)
    phat = float((s.values > u).mean())
    se = math.sqrt(w * (1 - w) / n)
    assert abs(phat - w) <= 3 * se


def test_lag1_joint_exceedance_limit():
    # P(X_1 > u | X_0 > u) -> (c0 ^ c1)^a / (c0^a + c1^a)
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    u = threshold_for_w(spec, 1e-3)
    s = gen_series(spec, 10 ** 6, seed=5).values
    hits0 = s[:-1] > u
    both = hits0 & (s[1:] > u)
    p = both.sum() / hits0.sum()
    se = math.sqrt(0.25 / hits0.sum())
    assert abs(p - 0.5) <= 3 * se


def test_mmaq_lag_beyond_order_independent():
    spec = ModelSpec.mmaq([1.0, 0.8, 0.5], 1.0)
    u = threshold_for_w(spec, 5e-3)
    s = gen_series(spec, 10 ** 6, seed=11).values
    w = marginal_tail(spec, u)
    lag = 5  # > q = 2
    joint = float(((s[:-lag] > u) & (s[lag:] > u)).mean())
    se = math.sqrt(w * w * (1 - w * w) / (len(s) - lag))
    assert abs(joint - w * w) <= 3 * se


def test_tail_sampler_bernoulli_structure():
    c0, c1, k = 1.0, 2.0, 500
    sampler = ZSampler(ModelSpec.mma1(c0, c1, 1.0), seed=3)
    z0, z1 = sampler.sample_z_many(k)
    assert z0.size == z1.size == k
    assert np.all(z0 > 1.0)
    # Z_1 = B (c1/c0) Z_0: both branches of the Bernoulli occur
    assert np.all((z1 == 0.0) | (z1 == (c1 / c0) * z0))
    assert (z1 == 0.0).any() and (z1 > 0.0).any()
    assert sampler.book.draws >= sampler.book.accepted >= k


def test_z_acceptance_rate_is_theta():
    for c0, c1, alpha in ((1.0, 1.0, 1.0), (1.0, 2.0, 1.0), (1.0, 1.0, 2.0)):
        theta, _ = mma1_constants(c0, c1, alpha)
        sampler = ZSampler(ModelSpec.mma1(c0, c1, alpha), seed=17)
        sampler.sample_z_many(int(1e5 * theta))
        rate = sampler.book.acceptance_rate
        se = math.sqrt(theta * (1 - theta) / sampler.book.draws)
        assert abs(rate - theta) <= 3 * se


def test_z_degenerate_coefficient_accepts_everything():
    sampler = ZSampler(ModelSpec.mma1(1.0, 0.0, 1.0), seed=1)
    z0, z1 = sampler.sample_z_many(2000)
    assert sampler.book.accepted == sampler.book.draws
    assert np.all(z1 == 0.0)


def _reference_pareto(rng, n, alpha):
    return (1.0 - rng.random(n)) ** (-1.0 / alpha)


def _reference_z(sampler, k):
    """sample_z_many written with fresh temporaries and boolean-mask
    gathers, on the sampler's generator and constants: (z_0, z_1, draws,
    accepted)."""
    c0, c1, rng = sampler.c0, sampler.c1, sampler.rng
    z0 = z1 = np.empty(0)
    draws = accepted = 0
    while z0.size < k:
        batch = max(1024, int(1.3 * (k - z0.size) / max(sampler.theta, 1e-3)))
        y0 = _reference_pareto(rng, batch, sampler.alpha)
        b = rng.random(batch) < sampler.p_b
        if c1 > 0:
            keep = b | ((c0 / c1) * y0 <= 1.0)
            y0, b = y0[keep], b[keep]
        more1 = np.where(b, (c1 / c0) * y0 if c0 > 0 else 0.0, 0.0)
        draws, accepted = draws + batch, accepted + y0.size
        z0, z1 = np.concatenate([z0, y0]), np.concatenate([z1, more1])
    return z0[:k], z1[:k], draws, accepted


def _assert_same_z(spec, k, make_rng):
    sampler, reference = ZSampler(spec, 0), ZSampler(spec, 0)
    sampler.rng, reference.rng = make_rng(), make_rng()
    z0, z1 = sampler.sample_z_many(k)
    r0, r1, draws, accepted = _reference_z(reference, k)
    assert z0.tobytes() == r0.tobytes() and z1.tobytes() == r1.tobytes()
    assert (sampler.book.draws, sampler.book.accepted) == (draws, accepted)


@settings(max_examples=60, deadline=None)
@given(c0=st.sampled_from((0.0, 0.3, 1.0, 2.0)), c1=st.sampled_from((0.0, 1.0, 2.0)),
       alpha=st.floats(0.1, 4.0), seed=st.integers(0, 2 ** 64 - 1),
       k=st.integers(1, 20000))
@example(c0=1.0, c1=1.0, alpha=1.0, seed=0, k=20000)
@example(c0=0.3, c1=2.0, alpha=0.1, seed=5, k=1)
def test_z_draws_equal_the_reference_sampler(c0, c1, alpha, seed, k):
    if c0 == c1 == 0.0:
        return
    _assert_same_z(ModelSpec.mma1(c0, c1, alpha), k,
                   lambda: np.random.default_rng(np.random.SeedSequence(seed)))


class _ZeroAt:
    """A generator whose uniforms are a seeded stream's, except that U = 0
    at the given offsets of the stream."""

    def __init__(self, seed, zeros):
        self.rng, self.zeros, self.offset = np.random.default_rng(seed), zeros, 0

    def random(self, n):
        u = self.rng.random(n)
        for z in self.zeros:
            if self.offset <= z < self.offset + n:
                u[z - self.offset] = 0.0
        self.offset += n
        return u


@pytest.mark.parametrize("coeffs", [(1.0, 1.0, 1.0), (1.0, 2.0, 0.5), (0.0, 1.0, 1.0)])
def test_zero_uniforms_are_redrawn_in_stream_order(coeffs):
    # U = 0 at the first, a middle and the last Pareto uniform of the
    # first batch, each kept as Y_0 = 1.0, and at two uniforms of B
    spec, k = ModelSpec.mma1(*coeffs), 2000
    batch = max(1024, int(1.3 * k / ZSampler(spec, 0).theta))
    zeros = (0, batch // 2, batch - 1, batch, batch + 4)
    _assert_same_z(spec, k, lambda: _ZeroAt(11, zeros))


@pytest.mark.parametrize("alpha", [0.01, 1.0, 1.5])
def test_a_zero_uniform_is_kept_as_one(monkeypatch, alpha):
    # U = 0 gives xi = (1 - 0)^(-1/alpha) = 1.0 exactly, and no other draw moves
    monkeypatch.setattr(models, "_rng", lambda seed: _ZeroAt(seed, (0, 7)))
    x = gen_series(ModelSpec.iid_pareto(alpha), 10, seed=3).values
    assert x[0] == x[7] == 1.0 and (np.delete(x, [0, 7]) > 1.0).all()


@pytest.mark.parametrize("alpha", [0.1, 0.25, 1 / 3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 4.0,
                                   -0.5, -1.0, -2.0])
def test_pareto_in_place_power_equals_the_power_of_a_copy(alpha):
    # numpy's power has fast paths at the exponents -1, -2, -0.5, 0.5, 1
    # and 2 (alpha = 1, 0.5, 2, -2, -1, -0.5 here); the transform computes
    # in place what (1 - U) ** (-1 / alpha) computes on a copy
    u = np.random.default_rng(3).random(10000)
    expected = (1.0 - u) ** (-1.0 / alpha)
    assert _pareto_from_uniforms(u.copy(), alpha).tobytes() == expected.tobytes()


def test_gen_series_peak_memory():
    # the series (8 MB) and its innovations; each temporary of the Pareto
    # transform added another 8 MB (25 MB in all)
    peak = peak_bytes(lambda: gen_series(parse_model("mma1:1,1,1"), 10 ** 6, seed=1))
    assert peak < 18e6


def test_series_roundtrip(tmp_path):
    s = gen_series(ModelSpec.mma1(1.0, 1.0, 1.0), 123, seed=8)
    for fmt in ("bin", "txt"):
        path = tmp_path / f"series.{fmt}"
        write_series(path, s, fmt)
        back = read_series(path)
        assert np.array_equal(back.values, s.values)


def test_series_validation():
    with pytest.raises(ModelError):
        MagnitudeSeries(values=np.array([]))
    with pytest.raises(ModelError):
        MagnitudeSeries(values=np.array([1.0, -0.5]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ModelError):
            MagnitudeSeries(values=np.array([1.0, bad, 0.5]))


def test_series_header_longer_than_file(tmp_path):
    path = tmp_path / "huge.bin"
    path.write_bytes(b"CLBLKSER" + struct.pack("<Q", 2 ** 62))
    with pytest.raises(PersistError):
        read_series(path)
    # a header one value past the data is caught the same way
    s = gen_series(ModelSpec.iid_pareto(1.0), 4, seed=1)
    path.write_bytes(b"CLBLKSER" + struct.pack("<Q", 5) + s.values.tobytes())
    with pytest.raises(PersistError):
        read_series(path)


def test_parse_model_roundtrip():
    for text in ("iid:1", "mma1:1,1,1", "mma1:0.5,2,1.5", "mmaq:1,0.7,0.2,1.5",
                 "piecewise(mma1:1,1,1):25", "piecewise(mma1:1,1,1):r"):
        spec = parse_model(text)
        assert parse_model(spec.format()).format() == spec.format()
    with pytest.raises(ModelError):
        parse_model("arma:1,1")



GOLDEN_SERIES = {
    ("iid:1", 1): "3e14a742fe51ce5db669848d73632c61509ab190c0fca15ddc9c9a3e39f18ddc",
    ("iid:1", 35): "da07fb2b5ce165f3b049ea6eda885e86a6087bbf1eb50d299a219799e2856267",
    ("iid:1", 91): "6e249e7c08c49815f3fe1e52832b6a1bb80fe8f92e38fbf0642bb6478678c900",
    ("iid:1", 100000): "7c85a527c334a0156cafd1d49c76d60c47dac80d734dc66e7d49b4db128e9237",
    ("mma1:1,1,1", 1): "d486779067a80e2a3352d14c640ef733c2b638ad736be52bde0045f8667ce66e",
    ("mma1:1,1,1", 35): "4f38b7cce188a4e3e56993fc26a5305e79dc729203f7e2091a13a5bde5d8a3ee",
    ("mma1:1,1,1", 91): "faaa5ea5fdbc4d49553ae983120a537985ad72fc0c8874815a960b52abce97bc",
    ("mma1:1,1,1", 100000): "8ab6590f09d6874ce38c6718d27fda8ac77fbcdba9d96ba39532dec864177193",
    ("mma1:1,2,1.5", 1): "dd0e3968c94c2885c25f7c2b9d68d590488944cb7b251e8b85956fb1ccf9c247",
    ("mma1:1,2,1.5", 35): "7b5550f4e3dfb9f0bd924c8c1e311627b7e9db2a84b52072f8d5ac4fb5efef2e",
    ("mma1:1,2,1.5", 91): "9cbfe9c41f5ffcb5500f85cee007e5b877241d0f9eebdefc46e95cf8fe7150b2",
    ("mma1:1,2,1.5", 100000): "ac7c1359d85bacad08ea531359a0583ac1aeea558ecfa10b166e1933264ab316",
    ("mmaq:0.5,0,3,2", 1): "40f2817ff5d8254c55e50435a334e260f62ec94bfb983801b3ac4c1cf2858ddd",
    ("mmaq:0.5,0,3,2", 35): "66c2e501f2b1132430b09db21a1e05102c5d20ef232de86fdccd06fc73589b34",
    ("mmaq:0.5,0,3,2", 91): "156d3561805d1a93ea0371ddd8f89580c17496a60d25d50108e1230e662a72c5",
    ("mmaq:0.5,0,3,2", 100000): "8c98356c9f92d51b5e5a9e0ced123114ffb39b0329b5226bd2f9f3d7e0c73dfd",
    ("piecewise(mma1:1,1,1):7", 7): "927da67acfdea4dada4b96214122abb8d84829e163eada377ef29235ecadc616",
    ("piecewise(mma1:1,1,1):7", 35): "dc1dc37c964324b9e03bc50d8d100e4e7b84de267287759ef80d350ac0a8ce4f",
    ("piecewise(mma1:1,1,1):7", 91): "5260c29a3dc4e6b441b761c28c8795a5306f95955efaf0e843c6cf8e0dfddf07",
    ("piecewise(mma1:1,1,1):7", 99995): "ff4ceb85299522f0a179a853b2a3315e1e12b643e729e8d05c2ffa69d0779840",
}


@pytest.mark.parametrize("model,n", sorted(GOLDEN_SERIES))
def test_series_bytes_are_pinned(model, n):
    # unit and zero coefficients, several innovation rows and n = 1
    values = gen_series(parse_model(model), n, seed=12345).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == GOLDEN_SERIES[(model, n)]
