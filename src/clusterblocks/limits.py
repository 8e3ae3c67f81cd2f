"""Closed-form MMA(1) limit constants and Z-process Monte Carlo.

For X_j = c0 xi_j v c1 xi_{j+1} with Pareto(alpha) innovations the
candidate extremal index and every limit constant used by the rate
experiments have closed forms in theta = (c0 v c1)^a / (c0^a + c1^a).
Cluster indices of general functionals are estimated as theta * E[H(Z)]
by sampling the conditioned tail process Z.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FunctionalContractError, ModelError
from .functionals import ClusterFunctional, induced_functional
from .models import ModelSpec, ZSampler, marginal_tail, mma1_constants

log = logging.getLogger("clusterblocks")


def check_samples(samples: int) -> None:
    """ModelError unless a Monte Carlo estimate may use `samples` samples."""
    if samples < 1000:
        raise ModelError("need at least 1000 Monte Carlo samples")


def cluster_index_mc(h: ClusterFunctional, spec: ModelSpec, samples: int,
                     seed: int) -> tuple[float, float]:
    """Monte Carlo cluster index theta * E[H(Z)] with its standard error.

    Z windows are realized as (Z_0, Z_1) since Z_j = 0 for j >= 2 in
    MMA(1); theta enters exactly, the randomness is only in E[H(Z)].
    When H reads nothing but the window's exceedance mask, H is evaluated
    once per mask code 2 [Z_0 > 1] + [Z_1 > 1] that occurs, in increasing
    order at its first sample, and the per-sample values are read from a
    table indexed by the code with `take`, so no sample-sized index array
    is built.  Any other H is evaluated once per sample, in sample order:
    Z is continuous, so its windows do not repeat.  Either way the mean
    and standard error are those of a loop over all samples.
    """
    check_samples(samples)
    sampler = ZSampler(spec, seed)
    z0, z1 = sampler.sample_z_many(samples)
    if h.exceedance_only:
        code = (z0 > 1.0).view(np.int8)
        code <<= 1
        code += (z1 > 1.0).view(np.int8)
        present = np.flatnonzero(np.bincount(code, minlength=4))
        first = [int(np.argmax(code == c)) for c in present]
        table = np.zeros(4)
        table[present] = [h.evaluator(np.array((z0[i], z1[i]))) for i in first]
        vals = table.take(code)
    else:
        first = range(samples)
        vals = np.array([h.evaluator(np.array(w)) for w in zip(z0, z1)], dtype=float)
    log.debug("cluster_index_mc %s: %d samples, %d Z draws, %d accepted, "
              "%d evaluator calls", h.name, samples, sampler.book.draws,
              sampler.book.accepted, len(first))
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / np.sqrt(samples))
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise FunctionalContractError(
            f"{h.name}: E[H(Z)] or its standard error is not a finite float")
    return sampler.theta * mean, sampler.theta * se


def expected_l_z_minus_one(c0: float, c1: float, alpha: float) -> float:
    """E[L(Z) - 1] = P(Z_1 > 1); for MMA(1) it equals P(Y_1 > 1)/theta."""
    theta, p_y1 = mma1_constants(c0, c1, alpha)
    return p_y1 / theta


def cluster_length_moment(theta: float, g: float) -> float:
    """The large-block limit of the block cluster length's g-th moment,
    theta^2 / ((g + 1)(g + 2)): `limit_table`'s and `clm_large(g)`'s."""
    return theta ** 2 / ((g + 1.0) * (g + 2.0))


@dataclass(frozen=True)
class LimitTable:
    """All limit constants for one (model, functional, gamma) choice."""

    c0: float
    c1: float
    alpha: float
    functional: str
    gamma: float
    theta: float
    p_y1: float
    nu_ic: float
    nu_bc: float
    nu_ic_se: float
    nu_bc_se: float
    small_block_pa1a2: float
    large_block_pa1a2: float
    clusterlength_moment: float
    joint_length_moment: float
    gap_constant: float
    ic_large_constant: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def rows(self) -> list[tuple[str, float]]:
        order = ["theta", "p_y1", "nu_ic", "nu_bc", "small_block_pa1a2",
                 "large_block_pa1a2", "clusterlength_moment",
                 "joint_length_moment", "gap_constant", "ic_large_constant"]
        return [(k, getattr(self, k)) for k in order]


def limit_table(spec: ModelSpec, h: ClusterFunctional, gamma: float = 1.0,
                samples: int = 20000, seed: int = 0,
                constants: frozenset | None = None) -> LimitTable:
    """Fill the limit constants.  nu_ic and nu_bc are Monte Carlo
    estimates, except for the indicator, whose closed form the Monte
    Carlo would only approximate.  (A linear H such as count needs none:
    its induced IC and BC values are exactly 0 on every window, so the
    estimates are 0.0 with SE 0.0.)

    constants names the constants the caller reads (None: all of them).
    When it holds neither nu_ic nor nu_bc, the two Monte Carlo estimates
    are not run and those two constants and their SEs are NaN.  The
    induced IC and BC forms of H are still evaluated once on each Z
    window mask, (1, 0) and (1, 1), so a functional whose estimates would
    overflow a float is refused either way.  Too few samples are refused
    whether or not an estimate runs.
    """
    check_samples(samples)
    g = float(gamma)
    if not (np.isfinite(g) and g >= 0):
        raise ConfigError(f"gamma must be finite and >= 0, got {gamma!r}")
    c0, c1 = spec.mma1_coeffs()
    alpha = spec.base.alpha
    theta, p_y1 = mma1_constants(c0, c1, alpha)
    moment = cluster_length_moment(theta, g)
    try:
        joint = (2.0 ** (g + 2.0) - 1.0) / ((g + 1.0) * (g + 2.0)) * theta ** 2
    except OverflowError:
        raise ConfigError(f"gamma={g:g} overflows the joint length moment") from None

    if h.name == "indicator":
        nu_ic, nu_bc = p_y1, -p_y1          # theta * E[L(Z)-1] and its negative
        se_ic = se_bc = 0.0
    elif constants is not None and constants.isdisjoint(("nu_ic", "nu_bc")):
        for kind in ("ic", "bc"):
            for z1 in (0.0, 2.0):
                induced_functional(h, kind).evaluator(np.array((2.0, z1)))
        nu_ic = nu_bc = se_ic = se_bc = math.nan
    else:
        nu_ic, se_ic = cluster_index_mc(induced_functional(h, "ic"), spec, samples, seed)
        nu_bc, se_bc = cluster_index_mc(induced_functional(h, "bc"), spec, samples,
                                        seed + 1)

    return LimitTable(
        c0=c0, c1=c1, alpha=alpha, functional=h.name, gamma=g,
        theta=theta, p_y1=p_y1,
        nu_ic=nu_ic, nu_bc=nu_bc, nu_ic_se=se_ic, nu_bc_se=se_bc,
        small_block_pa1a2=theta * expected_l_z_minus_one(c0, c1, alpha),
        large_block_pa1a2=theta ** 2,
        clusterlength_moment=moment,
        joint_length_moment=joint,
        gap_constant=theta ** 2 / 6.0,
        ic_large_constant=theta ** 2 / 6.0,
    )


def joint_exceedance(spec: ModelSpec, u: float, lag: int) -> float:
    """Exact P(X_0 > u, X_lag > u) for moving-maxima models.

    Each innovation slot receives the largest coefficient constraining it;
    lags beyond the model order factor into the product of marginals.
    """
    base = spec.base
    if spec.kind == "piecewise":
        raise ModelError("no closed-form joint law across piecewise blocks")
    q = len(base.coeffs) - 1
    if u < max(base.coeffs):
        raise ModelError("threshold below model support")
    if lag < 1:
        raise ModelError("lag must be >= 1")
    w = marginal_tail(base, u)
    if lag > q:
        return w * w
    f_marg = 1.0 - w
    f_joint = 1.0
    for s in range(0, lag + q + 1):
        cap = 0.0
        if s <= q:
            cap = max(cap, base.coeffs[s])
        if lag <= s <= lag + q:
            cap = max(cap, base.coeffs[s - lag])
        if cap > 0:
            f_joint *= 1.0 - (cap / u) ** base.alpha
    return 1.0 - 2.0 * f_marg + f_joint


def anticlustering_sum(spec: ModelSpec, r: int, u: float, gamma: float,
                       ell: int) -> float:
    """Lag-weighted joint exceedance sum (1/w) sum_{i=ell}^r i^gamma P(X_0>u, X_i>u).

    Exact for moving-maxima models; lags above the model order contribute
    only the independent w^2 terms.
    """
    if not 1 <= ell <= r:
        raise ModelError("need 1 <= ell <= r")
    w = marginal_tail(spec, u)
    total = 0.0
    for i in range(ell, r + 1):
        total += i ** float(gamma) * joint_exceedance(spec, u, i)
    return total / w
