import dataclasses
import hashlib
import logging
import math

import numpy as np
import pytest

from clusterblocks import (ModelError, ModelSpec,
                           ZSampler, anticlustering_sum, cluster_index_mc,
                           get_functional, induced_functional, limit_table,
                           marginal_tail, mma1_constants, threshold_for_w)
from clusterblocks.limits import expected_l_z_minus_one, joint_exceedance
from helpers import LOGMAX, peak_bytes

IND = get_functional("indicator")


BUILTINS = ("indicator", "length", "count", "length^0.5", "length^1.5")
MODELS = (ModelSpec.mma1(1.0, 1.0, 1.0), ModelSpec.mma1(1.0, 2.0, 1.0),
          ModelSpec.mma1(2.0, 0.5, 1.5), ModelSpec.mma1(1.0, 0.0, 1.0),
          ModelSpec.mma1(0.7, 1.3, 0.8), ModelSpec.mma1(0.0, 1.0, 1.0))


def _forms(h):
    return (h, induced_functional(h, "ic"), induced_functional(h, "bc"),
            induced_functional(h, "bc_p", 2.0), induced_functional(h, "bc_p", 0.5))


def _loop_reference(h, spec, samples, seed):
    """cluster_index_mc as one evaluator call per sample."""
    c = list(spec.base.coeffs) + [0.0]
    theta, _ = mma1_constants(c[0], c[1], spec.base.alpha)
    z0, z1 = ZSampler(spec, seed).sample_z_many(samples)
    vals = np.empty(samples)
    for i in range(samples):
        vals[i] = h.evaluator(np.array((z0[i], z1[i])))
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(samples))
    return theta * mean, theta * se


def test_mma1_constants_examples():
    assert mma1_constants(1, 1, 2) == (0.5, 0.5)
    assert mma1_constants(1, 0, 1.7) == (1.0, 0.0)
    theta, p = mma1_constants(1, 2, 1)
    assert theta == pytest.approx(2 / 3)
    assert p == pytest.approx(1 / 3)
    with pytest.raises(ModelError):
        mma1_constants(0, 0, 1)


def test_constants_symmetry_and_complement():
    rng = np.random.default_rng(2)
    for _ in range(50):
        c0, c1 = rng.uniform(0.1, 3, size=2)
        alpha = rng.uniform(0.3, 4)
        t1, p1 = mma1_constants(c0, c1, alpha)
        t2, p2 = mma1_constants(c1, c0, alpha)
        assert t1 == t2 and p1 == p2
        assert t1 + p1 == pytest.approx(1.0, abs=1e-14)


def test_cluster_index_indicator_is_theta():
    spec = ModelSpec.mma1(1.0, 2.0, 1.0)
    est, se = cluster_index_mc(IND, spec, samples=20000, seed=3)
    theta, _ = mma1_constants(1.0, 2.0, 1.0)
    # indicator of Z is identically 1: nu*(indicator) = theta exactly
    assert est == pytest.approx(theta, abs=1e-12)
    assert se == 0.0


def test_cluster_index_induced_ic_and_bc():
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    ic = induced_functional(IND, "ic")
    bc = induced_functional(IND, "bc")
    est_ic, se_ic = cluster_index_mc(ic, spec, samples=30000, seed=5)
    est_bc, se_bc = cluster_index_mc(bc, spec, samples=30000, seed=6)
    # c0=c1 makes Z two-point with L(Z)=2 a.s.: the estimates are exact
    assert abs(est_ic - 0.5) <= max(3 * se_ic, 1e-9)
    assert abs(est_bc + 0.5) <= max(3 * se_bc, 1e-9)
    comb = math.hypot(se_ic, se_bc)
    assert abs(est_ic + est_bc) <= max(3 * comb, 1e-9)
    with pytest.raises(ModelError):
        cluster_index_mc(IND, spec, samples=10, seed=0)


def test_cluster_index_induced_nondegenerate():
    # c0 != c1 gives a genuinely random L(Z): nu*(ic) = theta E[L(Z)-1] = p_y1
    spec = ModelSpec.mma1(1.0, 2.0, 1.0)
    ic = induced_functional(IND, "ic")
    est, se = cluster_index_mc(ic, spec, samples=40000, seed=8)
    assert se > 0.0
    assert abs(est - 1 / 3) <= 3 * se


def test_limit_table_values():
    lt = limit_table(ModelSpec.mma1(1.0, 1.0, 1.0), IND, gamma=1.0)
    assert lt.theta == 0.5
    assert lt.p_y1 == 0.5
    assert lt.nu_ic == 0.5 and lt.nu_bc == -0.5
    assert lt.small_block_pa1a2 == pytest.approx(0.5)
    assert lt.large_block_pa1a2 == 0.25
    assert lt.clusterlength_moment == pytest.approx(1 / 24)
    assert lt.joint_length_moment == pytest.approx(7 / 24)
    assert lt.gap_constant == pytest.approx(1 / 24)
    assert lt.ic_large_constant == pytest.approx(1 / 24)


def test_limit_table_monotone_in_gamma():
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    moments = [limit_table(spec, IND, gamma=g).clusterlength_moment
               for g in (0.0, 0.5, 1.0, 2.0, 3.0)]
    assert all(a > b for a, b in zip(moments, moments[1:]))


def test_limit_table_count_closed_form():
    lt = limit_table(ModelSpec.mma1(1.0, 1.0, 1.0), get_functional("count"))
    assert lt.nu_ic == 0.0 and lt.nu_bc == 0.0


def test_limit_table_mc_for_length():
    lt = limit_table(ModelSpec.mma1(1.0, 1.0, 1.0), get_functional("length"),
                     samples=20000, seed=1)
    # L(Z) = 2 a.s. for c0=c1: ic(length)(Z) = gap*(1+1-2) = 0,
    # bc(length)(Z) = 2 - 1 - 1 = 0
    assert abs(lt.nu_ic) <= max(3 * lt.nu_ic_se, 1e-9)
    assert abs(lt.nu_bc) <= max(3 * lt.nu_bc_se, 1e-9)


def test_expected_l_z_minus_one():
    assert expected_l_z_minus_one(1, 1, 1) == pytest.approx(1.0)
    # theta * E[L(Z)-1] = P(Y_1 > 1) always
    for c0, c1, a in ((1.0, 2.0, 1.0), (2.0, 0.5, 1.5)):
        theta, p_y1 = mma1_constants(c0, c1, a)
        assert theta * expected_l_z_minus_one(c0, c1, a) == pytest.approx(p_y1)


def test_z_law_two_atoms():
    # for c0=c1=1, alpha=1 the accepted Z has Z_1 = Z_0 > 1 a.s.
    from clusterblocks import ZSampler

    sampler = ZSampler(ModelSpec.mma1(1.0, 1.0, 1.0), seed=2)
    z0, z1 = sampler.sample_z_many(5000)
    assert np.all(z1 == z0)
    assert np.all(z0 > 1.0)


def test_joint_exceedance_exact_vs_bruteforce_probability():
    # against direct integration by enumeration of innovation constraints
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    u = 50.0
    q = 1.0 / u
    # lag 1: X_0 = xi_0 v xi_1, X_1 = xi_1 v xi_2
    # P(both > u) = P(xi_1 > u) + P(xi_1 <= u, xi_0 > u, xi_2 > u)
    exact = q + (1 - q) * q * q
    assert joint_exceedance(spec, u, 1) == pytest.approx(exact, rel=1e-12)
    w = marginal_tail(spec, u)
    assert joint_exceedance(spec, u, 2) == pytest.approx(w * w, rel=1e-12)


def test_joint_exceedance_monte_carlo_check():
    from clusterblocks import gen_series

    spec = ModelSpec.mmaq([1.0, 0.6, 0.3], 1.0)
    u = threshold_for_w(spec, 2e-3)
    s = gen_series(spec, 10 ** 6, seed=44).values
    for lag in (1, 2, 3):
        p = joint_exceedance(spec, u, lag)
        phat = float(((s[:-lag] > u) & (s[lag:] > u)).mean())
        se = math.sqrt(p * (1 - p) / (len(s) - lag))
        assert abs(phat - p) <= 4 * se


def test_anticlustering_sum_mma1():
    spec = ModelSpec.mma1(1.0, 1.0, 1.0)
    u = threshold_for_w(spec, 1e-6)
    w = 1e-6
    # ell=2: 1-dependence leaves only the independent w^2 tail terms
    val = anticlustering_sum(spec, r=20, u=u, gamma=0.0, ell=2)
    assert val == pytest.approx(19 * w, rel=1e-6)
    # ell=1, gamma=0: dominated by P(X_0>u, X_1>u)/w -> P(Y_1>1) = 1/2
    val = anticlustering_sum(spec, r=20, u=u, gamma=0.0, ell=1)
    assert val == pytest.approx(0.5, rel=0.01)


def test_anticlustering_sum_iid():
    spec = ModelSpec.iid_pareto(1.0)
    w = 1e-4
    u = threshold_for_w(spec, w)
    val = anticlustering_sum(spec, r=10, u=u, gamma=1.0, ell=1)
    assert val == pytest.approx(w * sum(i for i in range(1, 11)), rel=1e-9)
    with pytest.raises(ModelError):
        anticlustering_sum(spec, r=5, u=u, gamma=0.0, ell=7)
    with pytest.raises(ModelError):
        anticlustering_sum(ModelSpec.piecewise(spec, 10), r=5, u=u, gamma=0.0,
                           ell=1)


def test_limit_table_json():
    import json

    lt = limit_table(ModelSpec.mma1(1.0, 2.0, 1.0), IND, gamma=2.0)
    data = json.loads(lt.to_json())
    assert data["theta"] == pytest.approx(2 / 3)
    assert data["gamma"] == 2.0


def test_exceedance_only_property():
    for name in BUILTINS:
        assert all(f.exceedance_only for f in _forms(get_functional(name)))
    assert not any(f.exceedance_only for f in _forms(LOGMAX))


@pytest.mark.parametrize("spec", MODELS, ids=lambda s: s.format())
def test_grouped_mc_equals_per_sample_loop(spec):
    for k, h in enumerate([get_functional(n) for n in BUILTINS] + [LOGMAX]):
        for j, form in enumerate(_forms(h)):
            seed = 100 * k + j
            got = cluster_index_mc(form, spec, 1000, seed)
            assert got == _loop_reference(form, spec, 1000, seed), form.name


def test_one_evaluator_call_per_mask(caplog):
    calls = []
    length = get_functional("length")
    counted = dataclasses.replace(
        length, evaluator=lambda w: calls.append(1) or length.evaluator(w))
    spec = ModelSpec.mma1(1.0, 2.0, 1.0)
    with caplog.at_level(logging.DEBUG, logger="clusterblocks"):
        est = cluster_index_mc(induced_functional(counted, "ic"), spec, 5000, 4)
    # masks (1, 0) and (1, 1); ic evaluates the base on the whole window
    # and on both pieces of a two-exceedance window
    assert len(calls) == 3
    assert est == cluster_index_mc(induced_functional(length, "ic"), spec, 5000, 4)
    [record] = [r for r in caplog.records if r.name == "clusterblocks"]
    assert "5000 samples" in record.getMessage()
    assert "2 evaluator calls" in record.getMessage()


# (draws, sha256 of the z_0 and z_1 bytes) of 5000 Z samples at seed 7,
# recorded while the sampler still computed theta itself, for the c0 = 0
# row while it still built z_1 for every draw, and for the two 5e-324 rows
# (c1/c0 and c0/c1 overflow to inf) while it still branched on the
# coefficients; listed in the order of the test ids
GOLDEN_Z = {
    (1.0, 0.0, 0.7): (6500, "5a91f11bd53a575f0364914e55408a77a93f7e7e559a5fc22b505d7a8b38362f"),
    (1.0, 1.0, 1.0): (13000, "8cf3808374623f6c4717a740161ce6a938851c7a44097c6ef5a74420505c4e92"),
    (1.0, 2.0, 1.0): (9750, "b24caedc53a6319c9d96ac0e411869cf46afa1cdbb033a9b8143e2cc54b62f21"),
    (2.0, 1.0, 1.5): (8798, "a85b1da7928d5026530b5fb1390219694a98f89d13b831a1604d8fba1e95c089"),
    (0.0, 1.0, 1.0): (6500, "07399dc995122a7c138b727edc68b2be20a0eae6cefa98bcb957cd815d4d4c9a"),
    (5e-324, 1.0, 1.0): (6500, "07399dc995122a7c138b727edc68b2be20a0eae6cefa98bcb957cd815d4d4c9a"),
    (1.0, 5e-324, 1.0): (6500, "cfc1ac16ae71e85085ef338161e6f60563f226a0cd24af0f5a40951aef52e0c6"),
}


@pytest.mark.parametrize("coeffs", list(GOLDEN_Z))
def test_z_draws_are_pinned(coeffs):
    # the batch sizes follow theta, so a changed theta changes the draws
    sampler = ZSampler(ModelSpec.mma1(*coeffs), 7)
    z0, z1 = sampler.sample_z_many(5000)
    digest = hashlib.sha256(z0.tobytes() + z1.tobytes()).hexdigest()
    assert (sampler.book.draws, digest) == GOLDEN_Z[coeffs]


def test_cluster_index_mc_peak_memory():
    # 20 000 samples from batches of 52 000 draws: the draws, the accepted
    # windows and the codes; each fresh batch-sized temporary (a Pareto
    # transform on a copy, a boolean-mask gather's mask, an int64 index
    # of the codes) added a few hundred kB (1.3 MB in all)
    h = induced_functional(get_functional("length"), "ic")
    assert peak_bytes(lambda: cluster_index_mc(h, ModelSpec.mma1(1.0, 1.0, 1.0), 20000, 3)) < 1.1e6
