"""Exceedance-time bookkeeping and cluster functionals.

A cluster functional H maps a threshold-scaled window to a nonnegative
value and must (ii) vanish when nothing exceeds 1 and (iii) depend only on
the coordinates between the first and last exceedance.  Growth is
controlled by H(x) <= C_H * L(x)**gamma with L the cluster length.  Every
H induces three derived functionals: the internal-cluster form (gap
weighted split sums), the signed boundary-cluster form, and its |.|^p
variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FunctionalContractError

_PROBE_SEED = 0xC1B10C5


@dataclass(frozen=True)
class ExceedancePattern:
    """Exceedance times of one scaled window, entries above 1 (1-based)."""

    count: int
    times: tuple[int, ...]
    t_min: int
    t_max: int
    gaps: tuple[int, ...]
    length: int


def exceedance_pattern(window) -> ExceedancePattern:
    """Scan a scaled window for entries strictly above 1."""
    w = np.asarray(window, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise FunctionalContractError("window must be a nonempty 1-d sequence")
    pos = np.flatnonzero(w > 1.0) + 1
    n = int(pos.size)
    if n == 0:
        return ExceedancePattern(0, (), 0, 0, (), 0)
    times = tuple(int(t) for t in pos)
    gaps = tuple(int(g) for g in np.diff(pos))
    return ExceedancePattern(n, times, times[0], times[-1], gaps,
                             times[-1] - times[0] + 1)


@dataclass(frozen=True)
class ClusterFunctional:
    """A named evaluator on scaled windows with growth class gamma.

    evaluator consumes a 1-d array of scaled magnitudes (entries are x/u)
    and must treat only relative positions as meaningful.  pattern_value,
    when set, gives exactly the same value from (exceedance count, cluster
    length) alone and unlocks the vectorized block/window paths; it must
    accept scalars or numpy arrays.  A built-in is defined by its
    pattern_value, from which `_from_pattern` derives its evaluator.
    induced_from is the base functional of an induced IC/BC form.
    """

    name: str
    gamma: float
    growth_constant: float
    evaluator: Callable[[np.ndarray], float]
    pattern_value: Callable | None = None
    integer_valued: bool = False
    induced_from: ClusterFunctional | None = None

    def __call__(self, window) -> float:
        return eval_functional(self, window)

    @property
    def exceedance_only(self) -> bool:
        """Whether H reads a window only through its exceedance mask.

        Pattern-backed functionals do by contract (their value is a
        function of count and length), and induced forms inherit the
        property from their base: they only cut the window at exceedance
        times and evaluate the base on the pieces.
        """
        if self.induced_from is not None:
            return self.induced_from.exceedance_only
        return self.pattern_value is not None


def eval_functional(h: ClusterFunctional, window) -> float:
    """Evaluate H on a scaled window; exceedance-free windows give 0."""
    w = np.asarray(window, dtype=float)
    if not (w > 1.0).any():
        return 0.0
    return float(h.evaluator(w))


def gap_split_sum(times, value, a: int, b: int) -> float:
    """sum_{i=a}^{b-1} (t_{i+1} - t_i) * (H(t_a..t_i) + H(t_{i+1}..t_b) - H(t_a..t_b))
    in ascending i, with value(i, j) H on the piece from the exceedance t_i
    to t_j; 0 below two times.  The internal-cluster sum of both
    `induced_ic` and `expansion`'s exceedance-time route."""
    if b <= a:
        return 0.0
    total = value(a, b)
    acc = 0.0
    for i in range(a, b):
        acc += (times[i + 1] - times[i]) * (value(a, i) + value(i + 1, b) - total)
    return acc


def induced_ic(h: ClusterFunctional, window) -> float:
    """Internal-cluster functional: sum over internal gaps i of

        gap_i * { H(x up to T(i)) + H(x from T(i+1)) - H(x) },

    each H read on the piece between its end exceedances, all that H sees
    of the window by (iii).  Zero below two exceedances.
    """
    w = np.asarray(window, dtype=float)
    t = exceedance_pattern(w).times
    # a piece holds its end exceedances: the evaluator is called directly
    return gap_split_sum(t, lambda a, b: float(h.evaluator(w[t[a] - 1:t[b]])), 0, len(t) - 1)


def induced_bc(h: ClusterFunctional, window, p="signed") -> float:
    """Boundary-cluster functional: cuts anchored at the first exceedance.

    For i = 1..L-1 the window is split after position T_min + i - 1 and the
    summand is H(x) - H(left) - H(right), signed or |.|**p.
    """
    if p != "signed":
        p = float(p)
        if p <= 0:
            raise FunctionalContractError("p must be positive")
    w = np.asarray(window, dtype=float)
    pat = exceedance_pattern(w)
    if pat.length <= 1:
        return 0.0
    total = eval_functional(h, w)
    acc = 0.0
    for i in range(1, pat.length):
        cut = pat.t_min + i          # first 1-based position of the right part
        term = total - eval_functional(h, w[: cut - 1]) - eval_functional(h, w[cut - 1:])
        acc += term if p == "signed" else _power(f"bc_{p:g}({h.name})", abs(term), p)
    return acc


def _power(name: str, base: float, p: float) -> float:
    """base ** p, failing closed where the float power overflows."""
    try:
        return base ** p
    except OverflowError:
        raise FunctionalContractError(
            f"{name}: {base:g} ** {p:g} overflows a float") from None


def induced_functional(h: ClusterFunctional, kind: str, p: float | None = None) -> ClusterFunctional:
    """Wrap an induced form as a ClusterFunctional (for Monte Carlo use).

    Induced functionals may take negative values, so they bypass the
    nonnegativity expectation of registered base functionals; hypotheses
    (ii)/(iii) still hold by construction.
    """
    if kind == "ic":
        return ClusterFunctional(
            name=f"ic({h.name})", gamma=h.gamma + 1.0,
            growth_constant=3.0 * h.growth_constant,
            evaluator=lambda w: induced_ic(h, w),
            integer_valued=h.integer_valued, induced_from=h)
    if kind == "bc":
        return ClusterFunctional(
            name=f"bc({h.name})", gamma=h.gamma + 1.0,
            growth_constant=3.0 * h.growth_constant,
            evaluator=lambda w: induced_bc(h, w, "signed"),
            integer_valued=h.integer_valued, induced_from=h)
    if kind == "bc_p":
        if p is None or not (math.isfinite(p) and p > 0):
            raise FunctionalContractError(f"bc_p needs a finite exponent p > 0, got {p!r}")
        name = f"bc_{p:g}({h.name})"
        return ClusterFunctional(
            name=name, gamma=p * h.gamma + 1.0,
            growth_constant=_power(f"{name} growth constant", 3.0 * h.growth_constant, p),
            evaluator=lambda w: induced_bc(h, w, p),
            integer_valued=h.integer_valued and float(p).is_integer(), induced_from=h)
    raise FunctionalContractError(f"unknown induced kind {kind!r}")


# -- built-ins and the registry ---------------------------------------------


def _from_pattern(pattern):
    """The evaluator of a pattern-backed H: pattern(count, length) of the
    window's exceedances, 0.0 without one."""
    def evaluator(w: np.ndarray) -> float:
        pos = (w > 1.0).nonzero()[0]
        return pattern(pos.size, int(pos[-1] - pos[0]) + 1) if pos.size else 0.0
    return evaluator


def _pat_indicator(n, length):
    return (n > 0) * 1.0


def _pat_length(n, length):
    return length * 1.0


def _pat_count(n, length):
    return n * 1.0


def _pat_length_pow(g: float):
    """length ** g by Python's float power (libm pow), once per distinct
    length: no numpy power, whose bits depend on its SIMD kernels."""
    name = f"length^{g:g}"

    def pattern(n, length):
        if not isinstance(length, np.ndarray):
            return _power(name, float(length), g) if n > 0 else 0.0
        distinct, at = np.unique(length, return_inverse=True)
        powers = np.array([_power(name, float(v), g) for v in distinct.tolist()])
        return np.where(n > 0, powers[at], 0.0)
    return pattern


_REGISTRY: dict[str, ClusterFunctional] = {}


def _probe_windows(rng: np.random.Generator, k: int = 64):
    windows = []
    for _ in range(k):
        n = int(rng.integers(1, 13))
        w = rng.uniform(0.0, 2.5, size=n)
        windows.append(w)
    windows.append(np.full(5, 0.4))      # guaranteed exceedance-free probe
    return windows


def validate_functional(h: ClusterFunctional) -> None:
    """Probe hypotheses (ii) and (iii) on random windows.

    A functional with a pattern_value must also match it exactly (the
    exceedance-time route reads the pattern, the reference route the
    evaluator) and, since Monte Carlo groups Z windows by exceedance mask,
    keep its value when the exceedances grow and the rest shrinks towards
    0.  Continuity with respect to the tail-process law is not machine
    checkable and remains a caller obligation.
    """
    rng = np.random.default_rng(_PROBE_SEED)
    for w in _probe_windows(rng):
        pat = exceedance_pattern(w)
        if pat.count == 0:
            # raw evaluator call: eval_functional would mask a violation
            raw = float(h.evaluator(np.asarray(w, dtype=float)))
            if raw != 0.0:
                raise FunctionalContractError(
                    f"{h.name}: nonzero value {raw} on an exceedance-free window")
            continue
        val = eval_functional(h, w)
        restricted = eval_functional(h, w[pat.t_min - 1: pat.t_max])
        if not math.isclose(val, restricted, rel_tol=1e-12):
            raise FunctionalContractError(
                f"{h.name}: value changes under restriction to "
                f"[T_min, T_max] ({val} vs {restricted})")
        bound = h.growth_constant * pat.length ** h.gamma
        if val > bound * (1 + 1e-12):
            raise FunctionalContractError(
                f"{h.name}: growth bound C*L^gamma violated ({val} > {bound})")
        if h.pattern_value is not None:
            pv = float(h.pattern_value(pat.count, pat.length))
            if pv != val:
                raise FunctionalContractError(
                    f"{h.name}: pattern_value {pv} differs from the evaluator's {val}")
        if h.exceedance_only:
            moved = eval_functional(h, np.where(w > 1.0, 1.75 * w, 0.5 * w))
            if moved != val:
                raise FunctionalContractError(
                    f"{h.name}: value changes with the magnitudes at a fixed "
                    f"exceedance mask ({val} vs {moved})")


def register_functional(name: str, evaluator, gamma: float, growth_constant: float,
                        pattern_value=None, integer_valued: bool = False) -> ClusterFunctional:
    h = ClusterFunctional(name=name, gamma=float(gamma),
                          growth_constant=float(growth_constant),
                          evaluator=evaluator, pattern_value=pattern_value,
                          integer_valued=integer_valued)
    validate_functional(h)
    _REGISTRY[name] = h
    return h


def get_functional(name: str) -> ClusterFunctional:
    """Look up a functional by name; "length^<gamma>" is parsed on demand."""
    if name in _REGISTRY:
        return _REGISTRY[name]
    if name.startswith("length^"):
        try:
            g = float(name.split("^", 1)[1])
        except ValueError:
            g = float("nan")
        if not (math.isfinite(g) and g >= 0):
            raise FunctionalContractError(
                f"length exponent must be a finite number >= 0, got {name!r}")
        pattern = _pat_length_pow(g)
        h = ClusterFunctional(name=name, gamma=g, growth_constant=1.0,
                              evaluator=_from_pattern(pattern), pattern_value=pattern,
                              integer_valued=float(g).is_integer())
        _REGISTRY[name] = h
        return h
    raise FunctionalContractError(f"unknown functional {name!r}")


register_functional("indicator", _from_pattern(_pat_indicator), gamma=0.0,
                    growth_constant=1.0, pattern_value=_pat_indicator, integer_valued=True)
register_functional("length", _from_pattern(_pat_length), gamma=1.0,
                    growth_constant=1.0, pattern_value=_pat_length, integer_valued=True)
register_functional("count", _from_pattern(_pat_count), gamma=1.0,
                    growth_constant=1.0, pattern_value=_pat_count, integer_valued=True)
