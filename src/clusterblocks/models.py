"""Heavy-tailed series generators and their exact marginal tails.

Models are moving maxima of i.i.d. standard Pareto innovations,

    X_j = max_k c_k * xi_{j+k},      P(xi > t) = t**(-alpha), t >= 1,

which covers the i.i.d. case (single coefficient), the 1-dependent MMA(1)
case and general m-dependent MMA(q), plus a piecewise wrapper that
concatenates independent copies of an inner model, one copy per block.
Pareto innovations give closed-form marginals, so thresholds can be
calibrated exactly instead of empirically.

`gen_series` builds the whole series.  `blocks.model_bookkeeping` draws
the same uniform stream and applies the same Pareto transform and moving
maxima, but computes X only on the blocks an exceedance can reach and
keeps it only next to the exceedances; `rates` and `decompose --model`
take that route, one O(n) pass over the uniforms in O(k r) memory.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, PersistError

_U64 = 0xFFFFFFFFFFFFFFFF
_INF_BITS = 0x7FF0000000000000
_MAGIC = b"CLBLKSER"


def _mask_seed(seed: int) -> int:
    return int(seed) & _U64


@dataclass(frozen=True)
class ModelSpec:
    """Specification of a series generator.

    kind is one of "iid", "mma1", "mmaq", "piecewise".  coeffs are the
    moving-maxima weights (c_0, ..., c_q); alpha is the Pareto tail index.
    For "piecewise", inner holds the base model and block_size the length
    of each independent copy (block_size=None is allowed and must be
    resolved by the caller before generation).
    """

    kind: str
    alpha: float = 0.0
    coeffs: tuple[float, ...] = ()
    block_size: int | None = None
    inner: "ModelSpec | None" = None

    def __post_init__(self):
        if self.kind == "piecewise":
            if self.inner is None:
                raise ModelError("piecewise model needs an inner model")
            if self.inner.kind == "piecewise":
                raise ModelError("piecewise models cannot be nested")
            if self.block_size is not None and self.block_size < 1:
                raise ModelError("block_size must be a positive integer")
            return
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ModelError("tail index alpha must be finite and > 0")
        if not self.coeffs or all(c == 0 for c in self.coeffs):
            raise ModelError("at least one coefficient must be positive")
        if not all(np.isfinite(c) and c >= 0 for c in self.coeffs):
            raise ModelError("coefficients must be finite and nonnegative")

    # -- constructors ----------------------------------------------------

    @classmethod
    def iid_pareto(cls, alpha: float) -> "ModelSpec":
        return cls(kind="iid", alpha=float(alpha), coeffs=(1.0,))

    @classmethod
    def mma1(cls, c0: float, c1: float, alpha: float) -> "ModelSpec":
        return cls(kind="mma1", alpha=float(alpha), coeffs=(float(c0), float(c1)))

    @classmethod
    def mmaq(cls, coeffs, alpha: float) -> "ModelSpec":
        return cls(kind="mmaq", alpha=float(alpha), coeffs=tuple(float(c) for c in coeffs))

    @classmethod
    def piecewise(cls, inner: "ModelSpec", block_size: int | None = None) -> "ModelSpec":
        return cls(kind="piecewise", inner=inner,
                   block_size=None if block_size is None else int(block_size))

    # -- helpers ----------------------------------------------------------

    @property
    def base(self) -> "ModelSpec":
        """The stationary model actually generating values (inner for piecewise)."""
        return self.inner if self.kind == "piecewise" else self

    @property
    def order(self) -> int:
        """Dependence order q: lags beyond q are independent."""
        return len(self.base.coeffs) - 1

    def mma1_coeffs(self) -> tuple[float, float]:
        """(c0, c1) of an MMA(1)-type base model, iid read as c1 = 0.

        The tail-process sampler and the limit constants exist for these
        models only; any other raises ModelError.
        """
        base = self.base
        if base.kind not in ("mma1", "iid"):
            raise ModelError(f"{base.kind} model: the tail process and limit constants "
                             f"are available for MMA(1)-type models only")
        return (*base.coeffs, 0.0)[:2]

    def with_block_size(self, block_size: int) -> "ModelSpec":
        if self.kind != "piecewise":
            return self
        return ModelSpec.piecewise(self.inner, block_size)

    def label(self) -> str:
        if self.kind == "piecewise":
            return f"piecewise({self.inner.label()})"
        return self.kind

    def format(self) -> str:
        """Round-trippable mini-language string, e.g. "mma1:1,1,1"."""
        if self.kind == "piecewise":
            size = "r" if self.block_size is None else str(self.block_size)
            return f"piecewise({self.inner.format()}):{size}"
        if self.kind == "iid":
            return f"iid:{self.alpha:g}"
        parts = [f"{c:g}" for c in self.coeffs] + [f"{self.alpha:g}"]
        return f"{self.kind}:" + ",".join(parts)


def parse_model(text: str) -> ModelSpec:
    """Parse the CLI mini-language: "iid:alpha", "mma1:c0,c1,alpha",
    "mmaq:c0,...,cq,alpha", "piecewise(<inner>):<block_size|r>".
    """
    text = text.strip()
    if text.startswith("piecewise("):
        close = text.rfind(")")
        if close < 0 or not text[close + 1:].startswith(":"):
            raise ModelError(f"cannot parse piecewise model {text!r}")
        inner = parse_model(text[len("piecewise("):close])
        size_txt = text[close + 2:]
        try:
            block_size = None if size_txt == "r" else int(size_txt)
        except ValueError:
            raise ModelError(f"piecewise block size must be an integer or 'r', "
                             f"got {size_txt!r}") from None
        return ModelSpec.piecewise(inner, block_size)
    kind, _, args = text.partition(":")
    try:
        values = [float(v) for v in args.split(",") if v != ""]
    except ValueError as exc:
        raise ModelError(f"cannot parse model arguments in {text!r}") from exc
    if kind == "iid":
        if len(values) != 1:
            raise ModelError("iid model takes exactly one argument: alpha")
        return ModelSpec.iid_pareto(values[0])
    if kind == "mma1":
        if len(values) != 3:
            raise ModelError("mma1 model takes c0,c1,alpha")
        return ModelSpec.mma1(values[0], values[1], values[2])
    if kind == "mmaq":
        if len(values) < 2:
            raise ModelError("mmaq model takes c0,...,cq,alpha")
        return ModelSpec.mmaq(values[:-1], values[-1])
    raise ModelError(f"unknown model kind {kind!r}")


@dataclass
class MagnitudeSeries:
    """A finite sequence of nonnegative magnitudes plus provenance."""

    values: np.ndarray
    model: ModelSpec | None = None
    seed: int | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ModelError("series must be a nonempty 1-d array")
        # Finite nonnegative doubles are the bit patterns below that of
        # +inf (a set sign bit or all exponent bits fall above), so one
        # unsigned max clears the common case; -0.0 is let through below.
        if self.values.view(np.uint64).max() >= _INF_BITS:
            if not np.isfinite(self.values).all():
                raise ModelError("magnitudes must be finite")
            if (self.values < 0).any():
                raise ModelError("magnitudes must be nonnegative")

    def __len__(self) -> int:
        return self.values.size


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(_mask_seed(seed)))


def _pareto_from_uniforms(u: np.ndarray, alpha: float) -> np.ndarray:
    """(1 - U)^(-1/alpha), elementwise, written over u and returned: the
    one Pareto transform.

    In place it makes no temporary of u's size.  A fresh one of a few
    hundred kB is handed out by the kernel page by page, so on a
    52 000-draw batch the two temporaries of `(1.0 - u) ** e` cost about
    six times the arithmetic in minor page faults.  `**=` takes numpy's
    power path, fast exponents (-1, -2, -0.5) included, so the bits are
    those of `(1.0 - u) ** e`.

    U = 0, a point of the 2^-53 grid of `Generator.random`, gives xi = 1.0
    exactly, so the draws lie on [1, inf).  No statistic sees the atom: at
    every u above c_max, which covers every threshold `threshold_for_w` or
    `marginal_tail` admits, c_k * 1.0 / u < 1 feeds no exceedance.
    """
    np.subtract(1.0, u, out=u)
    u **= -1.0 / alpha
    return u


def _moving_maxima(xi: np.ndarray, coeffs, size: int) -> np.ndarray:
    """max_k c_k xi[:, k:k+size] over each row of a (rows, size + q) array.

    Every term is > 0, so the maximum starts from the first positive
    coefficient's term; a unit coefficient is not multiplied (1.0 * x == x).
    """
    out = None
    for k, c in enumerate(coeffs):
        if c > 0:
            term = xi[:, k:k + size] if c == 1.0 else c * xi[:, k:k + size]
            if out is None:
                out = term.copy() if c == 1.0 else term      # out owns its memory
            else:
                np.maximum(out, term, out=out)
    return out.ravel()


def series_layout(spec: ModelSpec, n: int) -> tuple[int, int]:
    """(size, rows): a series of n values is `rows` rows of `size` values.

    A stationary series is one row of n; a piecewise model has one row per
    block of its block_size.  Row i reads the innovations i*(size+q) ..
    (i+1)*(size+q) - 1 of one uniform stream, so position j reads
    innovation j + k + q*(j // size) at lag k.
    """
    if n < 1:
        raise ModelError("series length must be >= 1")
    if spec.kind != "piecewise":
        return n, 1
    size = spec.block_size
    if size is None:
        raise ModelError("piecewise block_size is unresolved")
    if n % size != 0:
        raise ModelError(f"n={n} is not a multiple of block_size={size}")
    return size, n // size


def gen_series(spec: ModelSpec, n: int, seed: int) -> MagnitudeSeries:
    """Generate a series of length n; bit-identical replay for fixed inputs.

    Piecewise models draw one independent innovation row per block, so
    blocks are independent copies and individually reproducible.
    """
    # One innovation row per block of a piecewise model: rows are disjoint
    # slices of a single stream, so blocks are independent, and row j only
    # depends on (seed, j, block_size), so each block replays individually
    # as the sample grows.  Re-seeding a generator per block gives the same
    # contract at several hundred times the cost.  A stationary series is
    # the one row of n + q innovations.
    size, rows = series_layout(spec, n)
    base = spec.base
    width = size + spec.order
    with np.errstate(over="ignore"):        # an infinite value is refused, not warned of
        xi = _pareto_from_uniforms(_rng(seed).random(rows * width), base.alpha)
        values = _moving_maxima(xi.reshape(rows, width), base.coeffs, size)
    return MagnitudeSeries(values=values, model=spec, seed=_mask_seed(seed))


def marginal_tail(spec: ModelSpec, x: float) -> float:
    """Exact w = P(X_0 > x); for piecewise models, the inner marginal.

    Valid for x >= max_k c_k (below that the product form leaves the
    Pareto support).
    """
    spec = spec.base
    cmax = max(spec.coeffs)
    if x < cmax:
        raise ModelError(f"threshold {x} below model support [{cmax}, inf)")
    # -expm1(sum log1p(-p_k)) keeps full relative accuracy for tiny tails.
    log_below = 0.0
    for c in spec.coeffs:
        if c > 0:
            p = (c / x) ** spec.alpha
            if p >= 1.0:
                return 1.0
            log_below += np.log1p(-p)
    return float(-np.expm1(log_below))


def threshold_for_w(spec: ModelSpec, w: float) -> float:
    """Invert marginal_tail: u with |marginal_tail(u) - w| <= 1e-12 * w.
    A u past the largest float is refused with ModelError."""
    if not 0.0 < w < 1.0:
        raise ModelError("w must lie strictly between 0 and 1")
    base = spec.base
    positive = [c for c in base.coeffs if c > 0]
    try:
        if len(positive) == 1:
            return float(positive[0] * w ** (-1.0 / base.alpha))
        lo = max(positive)                  # marginal_tail(lo) = 1 > w
        mass = 0.0
        for c in positive:                  # not the builtin sum: Python 3.12's compensates
            mass += c ** base.alpha
        hi = (mass / w) ** (1.0 / base.alpha)
    except OverflowError:                   # a float power past the largest float
        raise ModelError(f"the threshold for w={w!r} overflows a float") from None
    hi = max(hi, lo * 2.0)                  # union bound: marginal_tail(hi) <= w
    tol = 1e-12 * w
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = marginal_tail(base, mid)
        if abs(fm - w) <= tol:
            return float(mid)
        if fm > w:
            lo = mid
        else:
            hi = mid
        if hi - lo <= np.finfo(float).eps * hi:
            break
    u = 0.5 * (lo + hi)
    if abs(marginal_tail(base, u) - w) > tol:
        raise ModelError("threshold bisection did not converge")
    return float(u)


# -- tail process and the conditioned process Z ---------------------------


def mma1_constants(c0: float, c1: float, alpha: float) -> tuple[float, float]:
    """(theta, P(Y_1 > 1)) for the MMA(1) model; the two sum to one.

    A c^alpha past the largest float, or two that both underflow to 0,
    leave no ratio to take and are refused with ModelError.
    """
    if alpha <= 0:
        raise ModelError("alpha must be positive")
    if max(c0, c1) <= 0:
        raise ModelError("both coefficients are zero")
    try:
        p0, p1 = c0 ** alpha, c1 ** alpha
    except OverflowError:
        raise ModelError(f"c^alpha overflows a float at c0={c0!r}, c1={c1!r}, "
                         f"alpha={alpha!r}") from None
    s = p0 + p1
    if not 0 < s < np.inf:
        raise ModelError(f"c0^alpha + c1^alpha is {s!r} at c0={c0!r}, c1={c1!r}, "
                         f"alpha={alpha!r}")
    hi, lo = (p0, p1) if c0 >= c1 else (p1, p0)
    return hi / s, lo / s


@dataclass
class ZBookkeeping:
    draws: int = 0
    accepted: int = 0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.draws if self.draws else float("nan")


class ZSampler:
    """Tail process Y and the rejection sampler for Z = Y | Y*_{-inf,-1} <= 1.

    Y_1 = B trail Y_0 and Y_-1 = (1-B) lead Y_0, with lead = c0/c1 and
    trail = c1/c0 and B Bernoulli of mean c0^a / (c0^a + c1^a); a draw is
    accepted as Z when y_minus1 <= 1.  lead is 0.0 at c1 = 0, where B
    always holds, and trail is 0.0 at c0 = 0, where B never holds; an
    infinite trail is multiplied only where B holds, so no 0 * inf puts a
    NaN in Z_1.  The running acceptance rate estimates the candidate
    extremal index.

    A batch draws its Pareto uniforms, then B's, and makes each
    batch-sized pass in a buffer it already holds: the Pareto transform in
    its uniforms, lead Y_0 in B's.  The accepted draws are gathered with
    `take` on their indices, about five times faster than a boolean-mask
    gather of the same values.  A Y_0 past the largest float (an alpha
    near 0) is refused with ModelError, as gen_series refuses an infinite
    magnitude: at c0 = 0 it made every draw rejected, and the sampler loop
    forever.
    """

    def __init__(self, spec: ModelSpec, seed: int):
        self.c0, self.c1 = spec.mma1_coeffs()
        self.alpha = spec.base.alpha
        self.theta, p_y1 = mma1_constants(self.c0, self.c1, self.alpha)  # the acceptance rate
        self.p_b = self.theta if self.c0 >= self.c1 else p_y1          # c0^a / (c0^a + c1^a)
        self.lead = self.c0 / self.c1 if self.c1 > 0 else 0.0     # y_-1 / y_0 without B
        self.trail = self.c1 / self.c0 if self.c0 > 0 else 0.0    # y_1 / y_0 with B
        self.rng = _rng(seed)
        self.book = ZBookkeeping()

    def _draw(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(z_0, z_1) of the draws accepted among k; z_1 is built for those only."""
        with np.errstate(over="ignore"):    # an infinite draw is refused, not warned of
            y0 = _pareto_from_uniforms(self.rng.random(k), self.alpha)
        if not np.isfinite(y0.max()):
            raise ModelError(f"Pareto draws overflow a float at alpha={self.alpha!r}")
        u = self.rng.random(k)
        b = u < self.p_b
        keep = np.multiply(self.lead, y0, out=u) <= 1.0
        del u                       # B's uniforms, overwritten and read
        keep = np.flatnonzero(np.logical_or(keep, b, out=keep))
        y0, b = y0.take(keep), b.take(keep)
        z1 = np.zeros(y0.size)
        np.multiply(y0, self.trail, out=z1, where=b)
        self.book.draws += k
        self.book.accepted += y0.size
        return y0, z1

    def sample_z_many(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized rejection: arrays (z_0, z_1) of k accepted draws."""
        z0 = z1 = np.empty(0)
        while z0.size < k:
            batch = max(1024, int(1.3 * (k - z0.size) / max(self.theta, 1e-3)))
            more0, more1 = self._draw(batch)
            z0, z1 = ((more0, more1) if z0.size == 0 else
                      (np.concatenate([z0, more0]), np.concatenate([z1, more1])))
        return z0[:k], z1[:k]


# -- series files ----------------------------------------------------------


def write_series(path, series: MagnitudeSeries, fmt: str = "bin") -> None:
    if fmt == "bin":
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", len(series)))
            fh.write(series.values.astype("<f8").tobytes())
    elif fmt == "txt":
        with open(path, "w") as fh:
            for v in series.values:
                fh.write(repr(float(v)) + "\n")
    else:
        raise PersistError(f"unknown series format {fmt!r}")


def read_series(path) -> MagnitudeSeries:
    """Read either format; the binary magic distinguishes them."""
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
        if head == _MAGIC:
            raw = fh.read(8)
            if len(raw) != 8:
                raise PersistError("truncated series file: missing length")
            (n,) = struct.unpack("<Q", raw)
            if 8 * n > os.fstat(fh.fileno()).st_size - fh.tell():
                raise PersistError(f"truncated series file: header claims {n} values")
            data = np.frombuffer(fh.read(8 * n), dtype="<f8")
            if data.size != n:
                raise PersistError("truncated series file: missing values")
            return MagnitudeSeries(values=data.copy())
    try:
        with warnings.catch_warnings():         # an empty file is refused below
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(path, dtype=np.float64, ndmin=1)
    except ValueError as exc:
        raise PersistError(f"cannot parse series file {path}") from exc
    return MagnitudeSeries(values=values)
