import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterblocks import (FunctionalContractError, eval_functional,
                           exceedance_pattern, get_functional, induced_bc,
                           induced_functional, induced_ic,
                           register_functional)
from clusterblocks.blocks import window_values_at
from clusterblocks.functionals import _REGISTRY, validate_functional

windows = st.lists(st.floats(min_value=0.0, max_value=3.0,
                             allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=24)


def test_pattern_worked_example():
    pat = exceedance_pattern([0.5, 2.0, 0.3, 1.5, 0.2])
    assert pat.count == 2
    assert pat.times == (2, 4)
    assert (pat.t_min, pat.t_max) == (2, 4)
    assert pat.gaps == (2,)
    assert pat.length == 3


def test_pattern_edge_cases():
    assert exceedance_pattern([0.2, 0.9]).count == 0
    assert exceedance_pattern([0.2, 0.9]).length == 0
    assert exceedance_pattern([0.2, 1.5, 0.9]).length == 1


@given(windows)
def test_pattern_invariants(w):
    pat = exceedance_pattern(w)
    assert pat.count == len(pat.times)
    assert all(g >= 1 for g in pat.gaps)
    if pat.count >= 1:
        assert pat.length == pat.t_max - pat.t_min + 1
        assert pat.length == 1 + sum(pat.gaps)
    else:
        assert pat.length == 0


def test_builtin_values():
    length = get_functional("length")
    count = get_functional("count")
    indicator = get_functional("indicator")
    w = [2.0, 0.3, 1.5]
    assert eval_functional(indicator, [0.5, 0.9]) == 0.0
    assert eval_functional(length, w) == 3.0
    assert eval_functional(count, w) == 2.0
    assert eval_functional(get_functional("length^2"), w) == 9.0


@given(windows)
@settings(max_examples=200)
def test_restriction_hypothesis(w):
    pat = exceedance_pattern(w)
    for name in ("indicator", "length", "count", "length^1.5"):
        h = get_functional(name)
        full = eval_functional(h, w)
        if pat.count == 0:
            assert full == 0.0
        else:
            assert full == eval_functional(h, w[pat.t_min - 1:pat.t_max])


def test_induced_ic_examples():
    indicator = get_functional("indicator")
    count = get_functional("count")
    length = get_functional("length")
    w = [2.0, 0.3, 1.5]
    assert induced_ic(indicator, w) == 2.0          # = L - 1
    assert induced_ic(count, w) == 0.0              # linear functional
    # definition value: gap * (1 + 1 - 3) = -2, i.e. (L-1) - sum(gap^2)
    assert induced_ic(length, w) == -2.0


def test_induced_bc_examples():
    indicator = get_functional("indicator")
    count = get_functional("count")
    w = [2.0, 0.3, 1.5]
    assert induced_bc(indicator, w, "signed") == -2.0
    assert induced_bc(indicator, w, 1) == 2.0
    assert induced_bc(count, w, "signed") == 0.0
    assert induced_bc(count, w, 2) == 0.0
    with pytest.raises(FunctionalContractError):
        induced_bc(indicator, w, -1)


@given(windows)
@settings(max_examples=200)
def test_indicator_induced_identities(w):
    indicator = get_functional("indicator")
    pat = exceedance_pattern(w)
    L = pat.length
    if pat.count >= 1:
        assert induced_ic(indicator, w) == L - 1
        assert induced_bc(indicator, w, "signed") == -(L - 1)
        assert induced_bc(indicator, w, 1) == L - 1


@given(windows)
@settings(max_examples=200)
def test_linear_functional_induces_zero(w):
    count = get_functional("count")
    assert induced_ic(count, w) == 0.0
    assert induced_bc(count, w, "signed") == 0.0
    assert induced_bc(count, w, 1.5) == 0.0


@given(windows)
@settings(max_examples=200)
def test_single_exceedance_induces_zero(w):
    pat = exceedance_pattern(w)
    if pat.count != 1:
        return
    for name in ("indicator", "length", "length^2"):
        h = get_functional(name)
        assert induced_ic(h, w) == 0.0
        assert induced_bc(h, w, "signed") == 0.0


@given(windows)
@settings(max_examples=200)
def test_induced_ic_growth_bound(w):
    pat = exceedance_pattern(w)
    for name in ("indicator", "length"):
        h = get_functional(name)
        bound = 3 * h.growth_constant * max(pat.length, 1) ** (h.gamma + 1)
        assert abs(induced_ic(h, w)) <= bound + 1e-9


def test_length_cluster_identity():
    # L - 1 = sum of gaps, so ic(length) = (L-1) - sum(gap_i^2)
    rng = np.random.default_rng(0)
    length = get_functional("length")
    for _ in range(50):
        w = rng.uniform(0, 2.5, size=rng.integers(2, 30))
        pat = exceedance_pattern(w)
        expected = (pat.length - 1) - sum(g * g for g in pat.gaps) if pat.count else 0
        assert induced_ic(length, w) == expected


def test_registry_rejects_bad_functionals():
    # violates (ii): nonzero on exceedance-free windows
    with pytest.raises(FunctionalContractError):
        register_functional("bad2", lambda w: 1.0, gamma=0.0, growth_constant=1.0)
    # violates (iii): depends on values outside the cluster
    def bad3(w):
        return float(len(w)) if np.any(w > 1.0) else 0.0
    with pytest.raises(FunctionalContractError):
        register_functional("bad3", bad3, gamma=1.0, growth_constant=1.0)
    assert "bad2" not in _REGISTRY


def test_register_valid_user_functional():
    def top_sum(w):
        w = np.asarray(w)
        return float(w[w > 1.0].sum())
    h = register_functional("top_sum", top_sum, gamma=1.0, growth_constant=1e9)
    try:
        assert eval_functional(h, [2.0, 0.3, 1.5]) == 3.5
        assert induced_ic(get_functional("top_sum"), [2.0, 0.3, 1.5]) == 0.0
    finally:
        _REGISTRY.pop("top_sum", None)


def test_builtins_pass_validation():
    for name in ("indicator", "length", "count", "length^0.5", "length^1.5", "length^2.5"):
        validate_functional(get_functional(name))


def test_registry_probes_the_pattern_contract():
    # declares a pattern_value and matches it on the probe windows (all
    # below 2.5), but reads magnitudes above that
    def top_length(w):
        return _REGISTRY["length"].evaluator(w) * (2.0 if np.max(w) > 3.0 else 1.0)
    with pytest.raises(FunctionalContractError, match="exceedance mask"):
        register_functional("bad_mask", top_length, gamma=1.0, growth_constant=2.0,
                            pattern_value=lambda n, length: np.asarray(length, dtype=float))
    # pattern_value disagrees with the evaluator
    with pytest.raises(FunctionalContractError, match="pattern_value"):
        register_functional("bad_pattern", _REGISTRY["length"].evaluator, gamma=1.0,
                            growth_constant=1.0,
                            pattern_value=lambda n, length: np.asarray(n, dtype=float))
    assert "bad_mask" not in _REGISTRY and "bad_pattern" not in _REGISTRY


def test_overflowing_exponents_fail_closed():
    h = get_functional("length^1100")
    window = np.array([2.0, 0.5, 2.0])
    with pytest.raises(FunctionalContractError, match="overflows"):
        h.evaluator(window)                        # Python float power
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FunctionalContractError, match="overflows"):
            h.pattern_value(np.array([0, 1, 2]), np.array([0, 1, 3]))  # numpy power
        pos = np.array([1, 3])
        with pytest.raises(FunctionalContractError, match="overflows"):
            window_values_at(window, pos, np.array([1]), 3, h)
    assert h.evaluator(np.array([2.0])) == 1.0
    with pytest.raises(FunctionalContractError, match="growth constant"):
        induced_functional(get_functional("length"), "bc_p", 2000)
    # (3 C)^400 is finite, a cut term of 8 = 10 - 1 - 1 is not after **400
    bc = induced_functional(get_functional("length"), "bc_p", 400)
    wide = np.zeros(10)
    wide[[0, 9]] = 2.0
    with pytest.raises(FunctionalContractError, match="overflows"):
        bc.evaluator(wide)


def test_induced_wrapper():
    ind = get_functional("indicator")
    ic = induced_functional(ind, "ic")
    bc = induced_functional(ind, "bc")
    bc2 = induced_functional(ind, "bc_p", p=2)
    w = np.array([2.0, 0.3, 1.5])
    assert ic.evaluator(w) == 2.0
    assert bc.evaluator(w) == -2.0
    assert bc2.evaluator(w) == 2.0
    assert ic.gamma == 1.0
    with pytest.raises(FunctionalContractError):
        induced_functional(ind, "bc_p")
