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
    when set, recomputes the same value from (exceedance count, cluster
    length) alone and unlocks the vectorized block/window paths; it must
    accept scalars or numpy arrays.  induced_from is the base functional of
    an induced IC/BC form.
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
    if not np.any(w > 1.0):
        return 0.0
    return float(h.evaluator(w))


def induced_ic(h: ClusterFunctional, window) -> float:
    """Internal-cluster functional: sum over internal gaps i of

        gap_i * { H(x up to T(i)) + H(x from T(i+1)) - H(x) }.

    Zero when the window has fewer than two exceedances.
    """
    w = np.asarray(window, dtype=float)
    pat = exceedance_pattern(w)
    if pat.count <= 1:
        return 0.0
    total = eval_functional(h, w)
    acc = 0.0
    for i in range(pat.count - 1):
        left = eval_functional(h, w[: pat.times[i]])
        right = eval_functional(h, w[pat.times[i + 1] - 1:])
        acc += pat.gaps[i] * (left + right - total)
    return acc


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


def _indicator(w: np.ndarray) -> float:
    return 1.0 if np.any(w > 1.0) else 0.0


def _length(w: np.ndarray) -> float:
    pos = np.flatnonzero(w > 1.0)
    if pos.size == 0:
        return 0.0
    return float(pos[-1] - pos[0] + 1)


def _count(w: np.ndarray) -> float:
    return float(np.count_nonzero(w > 1.0))


def _length_pow(g: float):
    def ev(w: np.ndarray) -> float:
        return _power(f"length^{g:g}", _length(w), g) if np.any(w > 1.0) else 0.0
    return ev


def _pat_indicator(n, length):
    return (np.asarray(n) > 0).astype(float)


def _pat_length(n, length):
    return np.asarray(length, dtype=float)


def _pat_count(n, length):
    return np.asarray(n, dtype=float)


def _pat_length_pow(g: float):
    def pv(n, length):
        length = np.asarray(length, dtype=float)
        with np.errstate(over="ignore"):
            out = np.where(np.asarray(n) > 0, length ** g, 0.0)
        if not np.isfinite(out).all():
            raise FunctionalContractError(
                f"length^{g:g}: {length.max():g} ** {g:g} overflows a float")
        return out
    return pv


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

    A functional with a pattern_value must also match it and, since
    Monte Carlo groups Z windows by exceedance mask, keep its value when
    the exceedances grow and the rest shrinks towards 0.  Continuity with
    respect to the tail-process law is not machine checkable and remains
    a caller obligation.
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
            if not math.isclose(val, pv, rel_tol=1e-12):
                raise FunctionalContractError(
                    f"{h.name}: pattern_value {pv} differs from the evaluator's {val}")
        if h.exceedance_only:
            moved = eval_functional(h, np.where(w > 1.0, 1.75 * w, 0.5 * w))
            if moved != val:
                raise FunctionalContractError(
                    f"{h.name}: value changes with the magnitudes at a fixed "
                    f"exceedance mask ({val} vs {moved})")


def register_functional(name: str, evaluator, gamma: float, growth_constant: float,
                        pattern_value=None, integer_valued: bool = False,
                        validate: bool = True) -> ClusterFunctional:
    h = ClusterFunctional(name=name, gamma=float(gamma),
                          growth_constant=float(growth_constant),
                          evaluator=evaluator, pattern_value=pattern_value,
                          integer_valued=integer_valued)
    if validate:
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
        h = ClusterFunctional(name=name, gamma=g, growth_constant=1.0,
                              evaluator=_length_pow(g),
                              pattern_value=_pat_length_pow(g),
                              integer_valued=float(g).is_integer())
        _REGISTRY[name] = h
        return h
    raise FunctionalContractError(f"unknown functional {name!r}")


register_functional("indicator", _indicator, gamma=0.0, growth_constant=1.0,
                    pattern_value=_pat_indicator, integer_valued=True)
register_functional("length", _length, gamma=1.0, growth_constant=1.0,
                    pattern_value=_pat_length, integer_valued=True)
register_functional("count", _count, gamma=1.0, growth_constant=1.0,
                    pattern_value=_pat_count, integer_valued=True)
