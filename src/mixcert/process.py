"""Synthetic dependent data with exactly computable mixing structure.

A process is a hidden Markov chain on S states together with a per-state
emission law (finite alphabet of points or isotropic Gaussians) and a
deterministic state-to-label map. Emissions may drift toward a perturbation
at rate c * t**(-alpha), which makes the observed pairs (X_t, Y_t)
non-stationary while the hidden chain stays time-homogeneous.

The module computes, for such a process:

* uniform mixing coefficients phi(k) of the hidden chain, which upper-bound
  the coefficients of the observed pairs and match them exactly when the
  emission is a deterministic injective map of the state;
* marginal drift mu_t, the total-variation distance between the law of
  (X_t, Y_t) and its stationary limit -- exact for discrete emissions,
  a certified upper bound for Gaussian ones;
* the accumulated dependence factor 1 + 2 * sum_k phi(k) consumed by the
  concentration terms downstream.

A slow literal-definition oracle (`brute_force_phi`) enumerates cylinder
events so the fast path can be checked to machine precision on small chains.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ._checks import (_ATOL, _as_array, _as_float, _as_int, _as_labels, _as_times,
                      _check_keys, _check_stochastic, _count, _field_names, _fields, _instance,
                      _length, _reject_trailing, _unit_values)
from .errors import (BadLabel, DimensionMismatch, EmptyDataset, NonUniqueStationary, NotDiscrete,
                     TooLarge)
from .seeding import _BATCH, _SEQUENCE, _TARGET, _skip, substream

_MAX_SUBSETS = 1 << 20  # future-event subsets brute_force_phi may enumerate
_SORT_KEYS = 16  # key columns _bit_groups sorts by in one np.lexsort

_STEP_ROWS = 16  # rows _step writes between its tests for an exact repeat
_PHI_BLOCK = 8  # conditioning times _phi_lags reduces per block
_PHI_FIRST = 24  # times every lag reduces before _phi_lags reads its bound
_LAG_FLOATS = 1 << 16  # floats of a lag block's (lags, S, _PHI_BLOCK, S) difference, so
# L = max(1, 2**16 // (8 S**2)) lags: 2048 at S = 2, 32 at S = 16, 1 from S = 91 on; and of a
# time block's three (times, S, C) arrays in mu, so max(1, 2**16 // (3 S C)) times

KIND_SEQUENCE = "sequence"
KIND_TARGET = "target_iid"


@dataclass(frozen=True, eq=False)
class MarkovSpec:
    """Time-homogeneous chain: S states, row-stochastic kernel, start law."""

    num_states: int
    transition: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        S = _as_int(self.num_states, "num_states", 1)
        P = _check_stochastic(self.transition, "transition", 2)
        if P.shape != (S, S):
            raise DimensionMismatch(f"transition must be (num_states, num_states) = ({S}, {S}), "
                                   f"got {P.shape}")
        p0 = _check_stochastic(self.initial, "initial", 1)
        if p0.shape != (S,):
            raise DimensionMismatch(f"initial must have length num_states = {S}")
        object.__setattr__(self, "num_states", S)
        object.__setattr__(self, "transition", P)
        object.__setattr__(self, "initial", p0)


# The EmissionSpec fields each mode owns, in one layout: the law's fixed
# parameter, the per-state rows, and the rows they drift toward. A spec
# carries its own mode's fields and the shared ones, never another mode's.
_MODE_FIELDS = {
    "discrete": ("alphabet", "table", "drift_table"),
    "gaussian": ("sigma", "means", "drift_means"),
}


def _emission_keys(mode) -> tuple:
    """Names of the EmissionSpec fields a spec of `mode` carries."""
    if not isinstance(mode, str) or mode not in _MODE_FIELDS:
        raise ValueError(f"unknown emission mode {mode!r}")
    foreign = {name for other, owned in _MODE_FIELDS.items() if other != mode
               for name in owned}
    return tuple(name for name in _field_names(EmissionSpec) if name not in foreign)


@dataclass(frozen=True, eq=False)
class EmissionSpec:
    """Per-state emission law, optionally drifting toward a perturbation.

    mode "discrete": `alphabet` is an (M, d) array of points and `table` an
    (S, M) row-stochastic matrix; the law at time t is the convex mixture
    (1 - w_t) * table + w_t * drift_table with w_t = amplitude * t**(-exponent).
    mode "gaussian": per-state mean rows `means` (S, d) with shared isotropic
    standard deviation `sigma`; the mean at time t mixes toward `drift_means`
    with the same weight schedule.
    """

    mode: str
    alphabet: np.ndarray | None = None
    table: np.ndarray | None = None
    means: np.ndarray | None = None
    sigma: float | None = None
    drift_table: np.ndarray | None = None
    drift_means: np.ndarray | None = None
    drift_amplitude: float = 0.0
    drift_exponent: float = 0.5

    def __post_init__(self):
        keys = _emission_keys(self.mode)
        for name in _field_names(EmissionSpec):
            if name not in keys and getattr(self, name) is not None:
                raise ValueError(f"{name} is not a field of {self.mode} emissions")
        # an amplitude in [0, 1] keeps every mixture a law
        object.__setattr__(self, "drift_amplitude", _as_float(
            self.drift_amplitude, "drift_amplitude", 0.0, 1.0, closed=True))
        object.__setattr__(self, "drift_exponent", _as_float(
            self.drift_exponent, "drift_exponent", 0.0))
        owned = _MODE_FIELDS[self.mode]
        param_name, rows_name, drift_name = owned
        if getattr(self, param_name) is None or getattr(self, rows_name) is None:
            raise ValueError(f"{self.mode} mode needs {param_name} and {rows_name}")
        check = _check_stochastic if self.mode == "discrete" else _as_array
        rows = check(getattr(self, rows_name), rows_name, 2)
        drift = getattr(self, drift_name)
        if drift is not None:
            drift = check(drift, drift_name, 2)
            if drift.shape != rows.shape:
                raise DimensionMismatch(f"{drift_name} must match {rows_name} shape")
        if self.mode == "discrete":
            param = _as_array(self.alphabet, "alphabet", 2)
            if rows.shape[1] != param.shape[0]:
                raise DimensionMismatch("table columns must match alphabet size")
        else:
            param = _as_float(self.sigma, "sigma", 0.0)
        for name, value in zip(owned, (param, rows, drift)):
            object.__setattr__(self, name, value)

    @classmethod
    def discrete(cls, alphabet, table, drift_table=None, drift_amplitude=0.0,
                 drift_exponent=0.5) -> "EmissionSpec":
        return cls(mode="discrete", alphabet=alphabet, table=table,
                   drift_table=drift_table, drift_amplitude=drift_amplitude,
                   drift_exponent=drift_exponent)

    @classmethod
    def gaussian(cls, means, sigma, drift_means=None, drift_amplitude=0.0,
                 drift_exponent=0.5) -> "EmissionSpec":
        return cls(mode="gaussian", means=means, sigma=sigma,
                   drift_means=drift_means, drift_amplitude=drift_amplitude,
                   drift_exponent=drift_exponent)

    @property
    def rows(self) -> np.ndarray:
        """Per-state rows of the law: `table` or `means`."""
        return getattr(self, _MODE_FIELDS[self.mode][1])

    @property
    def drift_rows(self) -> np.ndarray | None:
        """The rows the law drifts toward: `drift_table` or `drift_means`."""
        return getattr(self, _MODE_FIELDS[self.mode][2])

    @property
    def num_states(self) -> int:
        return self.rows.shape[0]

    @property
    def input_dim(self) -> int:
        src = self.alphabet if self.mode == "discrete" else self.means
        return src.shape[1]

    def has_drift(self) -> bool:
        return self.drift_amplitude != 0.0 and self.drift_rows is not None

    def _weights(self, times: np.ndarray) -> np.ndarray:
        """The mixture weight w_t = amplitude * t**(-exponent) of each of an
        array of checked times; 0 without drift. The power is Python's, one
        call per time through `map` (np.power rounds some last bits
        differently); the product by the amplitude rounds alike in numpy."""
        if not self.has_drift():
            return np.zeros(len(times))
        e = -self.drift_exponent
        powers = map(pow, times.astype(np.float64).tolist(), itertools.repeat(e))
        return self.drift_amplitude * np.fromiter(powers, np.float64, len(times))

    def rows_at(self, times) -> np.ndarray:
        """The (times, S, C) stack of per-state rows of the law at each of a
        sequence of integer times >= 1: (1 - w_t) * rows + w_t * drift_rows,
        and `rows` itself where w_t is 0 (1.0 * rows keeps every bit). A
        read-only broadcast of `rows` when every weight is 0. The mixture is
        taken in place in the result, so it holds one temporary of its size,
        the products w_t * drift_rows."""
        w = self._weights(_as_times(times, "times"))
        if not w.any():
            return np.broadcast_to(self.rows, (len(w), *self.rows.shape))
        w = w[:, None, None]
        stack = self.rows * (1.0 - w)
        np.add(stack, w * self.drift_rows, out=stack, where=w != 0.0)
        return stack

    def law(self, rows: np.ndarray):
        """What the (R, C) rows `rows` of this law (`rows`, one time of
        rows_at, one gathered row per draw) draw with in `emit`: their
        `_cdf_draw`, built once, or the mean rows themselves."""
        return _cdf_draw(rows) if self.mode == "discrete" else rows

    def laws(self, times):
        """The `law` of each of an array of times >= 1, lazily: one object at
        every time of a driftless law; a drifting law's laws built from one
        `_time_blocks` slice of rows_at at a time, so one block is held."""
        if not self.has_drift():
            return itertools.repeat(self.law(self.rows), len(times))
        return (self.law(rows) for block in _time_blocks(self, times)
                for rows in self.rows_at(block))

    def emit(self, law, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One point per entry of `states`, from row states[i] of a `law`: an
        alphabet point by inverse CDF on one uniform each (skipped where the
        draw is certain, `_cdf_draw`), or the mean plus `sigma` times d
        standard normals."""
        if self.mode == "discrete":
            return self.alphabet[law(states, rng)]
        return law[states] + self.sigma * rng.standard_normal((len(states), law.shape[1]))


@dataclass(frozen=True, eq=False)
class ProcessSpec:
    """Hidden chain + emission + deterministic labels; the unit of experiment."""

    markov: MarkovSpec
    emission: EmissionSpec
    label_map: tuple
    num_classes: int
    input_dim: int

    def __post_init__(self):
        S = self.markov.num_states
        K = _as_int(self.num_classes, "num_classes", 2, BadLabel)
        labels = tuple(_as_labels(self.label_map, S, K, "'label_map'").tolist())
        if self.emission.num_states != S:
            raise DimensionMismatch("emission tables must have one row per state")
        d = _as_int(self.input_dim, "input_dim", 1)
        if self.emission.input_dim != d:
            raise DimensionMismatch("emission dimension must equal input_dim")
        object.__setattr__(self, "label_map", labels)
        object.__setattr__(self, "num_classes", K)
        object.__setattr__(self, "input_dim", d)

    def to_json_dict(self) -> dict:
        em = self.emission
        return {
            "markov": _json_fields(self.markov, _field_names(MarkovSpec)),
            "emission": _json_fields(em, _emission_keys(em.mode)),
            "label_map": list(self.label_map),
            "num_classes": self.num_classes,
            "input_dim": self.input_dim,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ProcessSpec":
        doc = dict(_check_keys(doc, cls, "process"))
        doc["markov"] = MarkovSpec(**_check_keys(doc["markov"], MarkovSpec, "process.markov"))
        # the mode first: it decides which keys the section may carry
        em = _check_keys(doc["emission"], EmissionSpec, "process.emission")
        doc["emission"] = EmissionSpec(**_check_keys(
            em, EmissionSpec, "process.emission", _emission_keys(em["mode"])))
        return cls(**doc)

    def digest(self) -> str:
        """sha256 of the canonical JSON form; identifies the spec."""
        payload = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("ascii")).hexdigest()


@dataclass(frozen=True, eq=False)
class MixingProfile:
    """phi(1..n), mu(1..n), and the dependence factor 1 + 2 * sum phi."""

    horizon: int
    phi: np.ndarray
    mu: np.ndarray
    delta_inf: float
    phi_exact: bool
    mu_exact: bool

    def __post_init__(self):
        n = _as_int(self.horizon, "horizon", 1)
        phi, mu = (_as_array(v, "phi and mu", 1, 0.0, 1.0) for v in (self.phi, self.mu))
        if phi.shape != (n,) or mu.shape != (n,):
            raise DimensionMismatch("phi and mu must have length horizon")
        for flag in ("phi_exact", "mu_exact"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(f"{flag!r} must be a boolean, not {getattr(self, flag)!r}")
        object.__setattr__(self, "horizon", n)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "delta_inf", _as_float(self.delta_inf, "delta_inf", 1.0,
                                                    closed=True))


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Ordered samples (x_i, y_i), labels in 1..num_classes.

    `kind` records how the rows were produced: "sequence" for a dependent
    draw of the process, "target_iid" for iid draws of its stationary limit.
    """

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int
    kind: str
    seed: int

    def __post_init__(self):
        X = _as_array(self.inputs, "inputs", 2)
        K = _as_int(self.num_classes, "num_classes", 2, BadLabel)
        y = _as_labels(self.labels, X.shape[0], K)
        if self.kind not in (KIND_SEQUENCE, KIND_TARGET):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "num_classes", K)
        object.__setattr__(self, "seed", _as_int(self.seed, "seed", 0))

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def save(self, path) -> None:
        """Text format: header "n d K kind seed", then one sample per line
        (d float fields then the integer label). Floats use repr so a
        load() round-trip is bit exact."""
        lines = [f"{self.n} {self.input_dim} {self.num_classes} {self.kind} {self.seed}"]
        for row, label in zip(self.inputs, self.labels):
            fields = [repr(float(v)) for v in row]
            fields.append(str(int(label)))
            lines.append(" ".join(fields))
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "LabeledDataset":
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read().split("\n")
        n, d, K, kind, seed = _fields(raw, 0, (("n", _length), ("d", _length),
                                               ("K", lambda text: _count(text, 2)),
                                               ("kind", str), ("seed", _count)))
        rows = [_fields(raw, 1 + i, (("label", _count),), ("input", float), d)
                for i in range(n)]
        _reject_trailing(raw, 1 + n)
        return cls(inputs=np.reshape([r[:d] for r in rows], (n, d)),
                   labels=[r[d] for r in rows], num_classes=K, kind=kind, seed=seed)


def _json_fields(spec, names) -> dict:
    """The named fields of a spec as a JSON document, arrays as nested lists."""
    values = {name: getattr(spec, name) for name in names}
    return {name: v.tolist() if isinstance(v, np.ndarray) else v
            for name, v in values.items()}


def _tv(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Total variation along the last axis, broadcasting p against q. The
    absolute value runs in place, so the broadcast difference is the only
    temporary of its size.

    When p's last axis has its largest stride (a lag block's rows laid out
    lags innermost by `_phi_lags`), the difference is made in Fortran order:
    the summed axis outermost, so each of its entries is one contiguous slab
    of the other axes. Otherwise it takes the inputs' order. A contiguous
    last axis is summed by .sum(axis=-1), any other as whole slabs by
    `_pairwise_sum`. Both add in numpy's pairwise order along a contiguous
    axis, so the bits do not depend on how p and q are laid out;
    .sum(axis=-1) along a strided axis adds in sequence, other bits from 8
    terms on."""
    gap = np.subtract(p, q, order="F" if p.ndim > 1 and p.strides[-1] == max(p.strides)
                      else "K")
    if gap.strides[-1] == gap.itemsize:
        return 0.5 * np.abs(gap, out=gap).sum(axis=-1)
    return 0.5 * _pairwise_sum(np.abs(gap, out=gap).transpose(-1, *range(gap.ndim - 1)))


def stationary_distribution(markov: MarkovSpec) -> np.ndarray:
    """Unique stationary law of a primitive chain.

    Uniqueness is certified by positivity of P**m, m = 2**j >= (S-1)**2 + 1,
    after j Boolean squarings of the support; by Wielandt's bound that holds
    exactly for primitive chains. Others (reducible, periodic, absorbing)
    raise NonUniqueStationary even when a stationary law happens to exist.
    """
    S = markov.num_states
    power = (markov.transition > 0.0).astype(np.int64)
    for _ in range(((S - 1) ** 2).bit_length()):
        power = np.minimum(power @ power, 1)
    if power.min() == 0:
        raise NonUniqueStationary(
            "no power of the transition matrix is entrywise positive")
    A = np.vstack([markov.transition.T - np.eye(S), np.ones((1, S))])
    b = np.zeros(S + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum()
    # Polish toward an exact float fixed point of pi @ P when one is
    # reachable within 100 steps; leaves the least-squares answer untouched
    # otherwise.
    steps = np.empty((101, S))
    steps[0] = pi
    t = _step(markov.transition, steps)
    return steps[t - 1].copy() if t < len(steps) else pi


def _step(P: np.ndarray, rows: np.ndarray, first: int = 1) -> int:
    """Steps rows[t] = rows[t - 1] @ P in place for t = 1, 2, ... through the
    buffer `rows` of row vectors or matrices, each product written by np.dot
    into its row (the bits of `@`), and returns the first t >= first with
    rows[t] == rows[t - 1], len(rows) when there is none. It tests once per
    block of _STEP_ROWS rows, so it may step up to _STEP_ROWS - 1 rows past
    that t: each equals rows[t], since a step that returns its input does so
    again. Rows before `first` are not tested."""
    for lo in range(1, len(rows), _STEP_ROWS):
        hi = min(lo + _STEP_ROWS, len(rows))
        for t in range(lo, hi):
            np.dot(rows[t - 1], P, out=rows[t])
        start = max(lo, first)
        if start < hi:
            same = (rows[start:hi] == rows[start - 1:hi - 1]).reshape(hi - start, -1).all(1)
            if same.any():
                return start + int(same.argmax())
    return len(rows)


def _marginals(markov: MarkovSpec, tmax: int) -> tuple[np.ndarray, int]:
    """Rows t = 0..tmax of the hidden marginal initial @ P**t, and their
    fixed point T: the first time with every row t >= T equal to row T,
    tmax + 1 when none is within tmax.

    Once a step returns its input (row T + 1 equals row T), every later step
    does too, so the rows after the block of `_step` that holds T + 1 are
    filled, not stepped.
    """
    out = np.empty((tmax + 1, markov.num_states))
    out[0] = markov.initial
    t = _step(markov.transition, out)
    if t > tmax:
        return out, tmax + 1
    out[t + 1:] = out[t]
    return out, t - 1


def _held(head: np.ndarray, size: int) -> np.ndarray:
    """`head`, a per-time value reduced on the times up to the marginals'
    fixed point T, continued to `size` times by holding its last entry:
    every later marginal row equals row T, and equal rows give equal bits."""
    return np.concatenate((head, np.full(size - len(head), head[-1])))


def deterministic_injective(spec: ProcessSpec) -> bool:
    """True when each state emits a single point and states are identifiable
    from the observed pair (point, label)."""
    em = spec.emission
    if em.mode != "discrete" or em.has_drift():
        return False
    table = em.table
    tops = table.argmax(axis=1)
    if np.any(np.abs(table[np.arange(table.shape[0]), tops] - 1.0) > _ATOL):
        return False
    groups, _ = _bit_groups(em.alphabet.T)
    return len(set(zip(groups[tops].tolist(), spec.label_map))) == len(tops)


def phi_coefficient(spec: ProcessSpec, k: int, horizon: int) -> float:
    """Uniform mixing coefficient of the hidden chain at gap k.

    Implements sup over conditioning time n and positive-probability past
    of the total variation between the k-step future law given the past and
    the unconditional future law. Conditional future laws depend on the past
    only through the current state, and the supremum over events of a fixed
    pair of laws is their total variation, so the sup collapses to

        max over n in {0..horizon}, states b with m_n(b) > 0 of
            TV(delta_b @ P**k, m_{n+k})

    plus the limit point TV(delta_b @ P**k, pi*) over every state (all are
    reachable eventually for a primitive chain): the one-lag call of the
    mixing_profile kernel, `_phi_lags`. Like mixing_profile, it
    raises NonUniqueStationary on a chain whose stationary law pi* is not
    certified unique. For a hidden-to-observed map that is not
    deterministic and injective this value upper-bounds the observed
    coefficient (conditioning on less cannot increase the sup, and the
    future event algebra is a coarsening).
    """
    _as_int(k, "k", 1)
    _as_int(horizon, "horizon", 1)
    # the running product of mixing_profile, so both give the same bits, one
    # _step block at a time; once a step returns its input, every later
    # power equals the block's last row
    P = spec.markov.transition
    rows = np.empty((_STEP_ROWS + 1, *P.shape))
    rows[0] = np.eye(len(P))
    left = k
    while left:
        steps = min(left, _STEP_ROWS)
        repeat = _step(P, rows[:steps + 1]) <= steps
        rows[0] = rows[steps]
        left = 0 if repeat else left - steps
    return float(_phi_lags(rows[:1], k, *_futures(spec.markov, horizon, horizon + k))[0])


def _futures(markov: MarkovSpec, n: int, tmax: int) -> tuple:
    """What _phi_lags reads for conditioning times 0..n: the marginals M up
    to tmax, reach[b, t] = M[t, b] > 0, tail[:, c] = reach[:, c:].any(axis=1),
    the fixed point T of M (`_marginals`), pi* and the limit gap bound."""
    pistar = stationary_distribution(markov)
    M, T = _marginals(markov, tmax)
    reach = (M[: n + 1] > 0.0).T
    tail = np.logical_or.accumulate(reach[:, ::-1], axis=1)[:, ::-1]
    return M, reach, tail, T, pistar, _limit_gap_bound(M, T, pistar)


def _limit_gap_bound(M: np.ndarray, T: int, pistar: np.ndarray) -> np.ndarray:
    """E[t] = max over s >= t of TV(M[s], pistar): an upper bound on every
    later marginal's distance to the limit that does not increase in t by
    construction, so no float monotonicity of TV(M[t], pistar) is assumed.
    Reduced on the rows up to the fixed point T of M and held from there."""
    head = _tv(M[:T + 1], pistar)
    return _held(np.maximum.accumulate(head[::-1])[::-1], len(M))


def _phi_lags(rows: np.ndarray, k: int, M: np.ndarray, reach: np.ndarray, tail: np.ndarray,
              T: int, pistar: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """phi at the lags k, k + 1, ... of the (L, S, S) stack of their k-step
    rows delta_b @ P**k, from `_futures`: per lag, the largest TV of rows[b]
    to M[k + t] over reach[b, t] for t < c = min(n + 1, max(0, T - k)) and
    over tail[b, c] at t = c <= n (the times t >= c share the future M[T]),
    and to pistar over every b; capped at 1. Each block of _PHI_BLOCK times,
    in increasing t, is one (lags, S, block, S) difference for the lags still
    open: those with columns left (t <= c, a prefix of the lags, since c
    decreases) whose triangle bound of mixing_profile's docstring, at the
    block's first time, is not strictly below their best. The bound is read
    from time _PHI_FIRST on, so every lag reduces its first _PHI_FIRST times.
    A closed lag stays closed, and it skips only columns below its best, so
    every bit is kept.

    A block of at least as many lags as states (L >= S, so every S <= 20 at
    the default L) lays its differences out lags innermost, in the memory
    order (S, times, S, lags): the rows are copied once in Fortran order,
    where a prefix of the open lags is a slice, and each block of times
    gathers its futures with one take from a contiguous M.T. numpy then
    subtracts in runs of L and `_tv` sums S slabs of L S _PHI_BLOCK floats,
    in place of L S _PHI_BLOCK sums of S terms. Fewer lags than states make
    those runs shorter than a row, and the lags-innermost layout was slower
    there (3x on the 64-state ring, L = 2), so such a block keeps the C
    layout. `_tv`'s bits do not depend on the layout."""
    L, S, _ = rows.shape
    n = reach.shape[1] - 1
    lags = np.arange(k, k + L)
    c = np.minimum(np.maximum(T - lags, 0), n + 1)  # decreasing in the lag
    width = np.minimum(c, n) + 1  # each lag's columns, shared one included
    inner = L >= S  # lay the differences out lags innermost
    if inner:
        rows_t = np.ascontiguousarray(rows.T)  # (S, S, L): rows in Fortran order
        futures_t = np.ascontiguousarray(M[k:k + L - 1 + width[0]].T)  # M.T from row k
    limit = _tv(rows, pistar).max(axis=1)
    best = limit.copy()
    slack = _tv_slack(S)
    for start in range(0, width[0], _PHI_BLOCK):
        live = np.count_nonzero(width > start)  # a prefix, since width decreases
        if start < _PHI_FIRST:
            i = np.arange(live)
        else:  # the lags whose bound at this block's first time is not below their best
            i = np.flatnonzero(~(limit[:live] + bound[lags[:live] + start] + slack < best[:live]))
        if not i.size:
            break
        stop = min(start + _PHI_BLOCK, width[i[0]])
        t = np.arange(start, stop)
        mask = reach[:, start:stop]
        if c[i[-1]] < stop:  # an open lag's shared column, or its end, is in the block
            ci = c[i, None]
            mask = (mask & (t < ci)[:, None, :]
                    | tail[:, np.minimum(ci[:, 0], n)].T[:, :, None] & (t == ci)[:, None, :])
        if inner:  # a prefix of the lags is a slice of rows_t
            p = rows_t[:, :, :i.size] if i[-1] < i.size else rows_t.take(i, axis=2)
            tv = _tv(p.T[:, :, None, :], futures_t.take(i + t[:, None], axis=1).T[:, None])
        else:
            tv = _tv(rows[i, :, None, :], M[lags[i, None] + t][:, None])
        best[i] = np.maximum(best[i], np.where(mask, tv, 0.0).max(axis=(1, 2)))  # TV >= 0.0
    return np.minimum(best, 1.0)


def _tv_slack(S: int) -> float:
    """Absolute slack covering the rounding of limit + bound[t] in _phi_lags.

    With u = eps / 2, one _tv of S-vectors rounds each difference (relative
    error u, the absolute value is exact) and sums S nonnegative terms
    (relative error (S - 1) u); halving is exact. Each TV here is at most 1
    up to the rounding of the rows, so a computed TV is within S u of its
    exact value. A skipped column's computed TV, the computed limit and the
    computed bound are three such values, and the two float additions of
    terms at most 2 add at most 2 u each: 3 S u + 4 u < 2 (S + 2) eps. Twice
    that leaves room for the drift of the k-step rows' sums from 1."""
    return 4 * (S + 2) * float(np.finfo(np.float64).eps)


def brute_force_phi(spec: ProcessSpec, k: int, n_max: int, future_len: int) -> float:
    """Literal-definition mixing coefficient by cylinder enumeration.

    Enumerates every positive-probability past trajectory B of length
    n + 1 for each n <= n_max, and every subset A of future trajectories of
    length future_len starting at time n + k, then returns the largest
    |P[A | B] - P[A]|. Probabilities come from direct products of kernel
    entries, no linear algebra shortcuts, so this is an independent oracle
    for `phi_coefficient` on chains small enough to enumerate. Requires a
    deterministic injective emission so observed and hidden trajectories
    generate the same events.
    """
    S = spec.markov.num_states
    for value, key, low in ((k, "k", 1), (n_max, "n_max", 0), (future_len, "future_len", 1)):
        _as_int(value, key, low)
    if S > 3 or n_max > 4 or future_len > 3:
        raise TooLarge("brute force enumerations limited to S <= 3, n_max <= 4, future_len <= 3")
    if not deterministic_injective(spec):
        raise ValueError("brute force oracle needs deterministic injective discrete emissions")
    num_future = S ** future_len
    if 2 ** num_future > _MAX_SUBSETS:
        raise TooLarge(f"2**{num_future} future subsets exceed budget {_MAX_SUBSETS}")
    P = spec.markov.transition
    p0 = spec.markov.initial

    futures = list(itertools.product(range(S), repeat=future_len))
    chain_factor = np.array([
        math.prod(P[a, b] for a, b in zip(traj, traj[1:])) if future_len > 1 else 1.0
        for traj in futures])
    first_state = np.array([traj[0] for traj in futures], dtype=np.int64)
    masks = ((np.arange(2 ** num_future)[:, None] >> np.arange(num_future)[None, :]) & 1
             ).astype(np.float64)

    def future_law(start: np.ndarray) -> np.ndarray:
        dist = start
        for _ in range(k):
            dist = dist @ P
        return dist[first_state] * chain_factor

    best = 0.0
    for n in range(n_max + 1):
        uncond = future_law(p0 @ np.linalg.matrix_power(P, n) if n else p0)
        diffs = []
        for past in itertools.product(range(S), repeat=n + 1):
            prob = p0[past[0]]
            for a, b in zip(past, past[1:]):
                prob *= P[a, b]
            if prob <= 0.0:
                continue
            start = np.zeros(S)
            start[past[-1]] = 1.0
            diffs.append(future_law(start) - uncond)
        if not diffs:
            continue
        vals = np.abs(np.array(diffs) @ masks.T)
        best = max(best, float(vals.max()))
    return best


def _bit_groups(cols) -> tuple[np.ndarray, np.ndarray]:
    """The one "same point" rule: rows of the float64 columns `cols`, viewed
    as uint64 without a copy, are the same point when every column has the
    same bits, so -0.0 is not 0.0. Returns each row's group id, numbered in
    order of first appearance, and the first row of each group in id order.
    The rows are sorted by one np.lexsort per chunk of _SORT_KEYS columns,
    each chunk's columns gathered through the order so far, so a later chunk
    is more significant: the order of one np.lexsort of every column (its
    last key is the primary one). Both sorts are stable, so each group's rows
    stay in row order. A pass holds one chunk's gathered columns and
    lexsort's stack of them, about 2 _SORT_KEYS columns, not all the keys."""
    cols = [col.view(np.uint64) for col in cols]
    order = np.lexsort(cols[:_SORT_KEYS])
    for lo in range(_SORT_KEYS, len(cols), _SORT_KEYS):
        order = order[np.lexsort([col[order] for col in cols[lo:lo + _SORT_KEYS]])]
    starts = np.zeros(order.size, dtype=bool)
    starts[:1] = True
    for col in cols:
        sorted_col = col[order]
        starts[1:] |= sorted_col[1:] != sorted_col[:-1]
    head = np.empty_like(order)  # each row's first row of its group
    head[order] = order[starts][np.cumsum(starts) - 1]
    is_first = head == np.arange(order.size)
    return (np.cumsum(is_first) - 1)[head], np.flatnonzero(is_first)


def _joint_columns(spec: ProcessSpec) -> tuple[np.ndarray, int]:
    """Where _joint_table adds each term: cols[s, m] is the flattened
    (group, label) column of alphabet point m emitted by state s, for the
    alphabet's `_bit_groups` groups and K labels, of G K columns in all."""
    groups, first = _bit_groups(spec.emission.alphabet.T)
    K = spec.num_classes
    return groups * K + (np.asarray(spec.label_map) - 1)[:, None], first.size * K


def _joint_table(h: np.ndarray, tables: np.ndarray, cols: np.ndarray,
                 width: int) -> np.ndarray:
    """Laws of (point, label), one flattened (group, label) row per hidden
    law h[t] and (S, M) emission table tables[t], at the `_joint_columns`
    (cols, width). One np.bincount scatters every term h[t, s] tables[t, s,
    m] in (time, state, alphabet point) order, so each entry adds its terms
    state by state, then alphabet point by alphabet point, from 0.0."""
    at = cols + width * np.arange(len(h))[:, None, None]
    terms = h[:, :, None] * tables
    return np.bincount(at.ravel(), terms.ravel(), len(h) * width).reshape(len(h), width)


def _time_blocks(em: EmissionSpec, times: np.ndarray):
    """`times` in consecutive slices of max(1, _LAG_FLOATS // (3 S C))
    times, one at least, so that a block's three (times, S, C) arrays, a
    discrete law's drifted rows, their products with the marginals and the
    int64 indices they are scattered at, hold at most _LAG_FLOATS values
    together; `rows_at` briefly holds one more while it mixes a drifting
    law. A Gaussian block holds one: its mean gaps, squared in place. The
    samplers and step_expectations read a law one such block at a time."""
    step = max(1, _LAG_FLOATS // (3 * em.rows.size))
    return (times[lo:lo + step] for lo in range(0, len(times), step))


def _gaussian_emission_tv(em: EmissionSpec, times: np.ndarray) -> np.ndarray:
    """For each time t, the max over states of TV between the time-t and
    limit Gaussian of that state; erf(||w_t mean gap|| / (2 sqrt(2) sigma))
    exactly for isotropic equal covariances, 0 where w_t is 0. The mean
    gaps, S d floats per time, are formed one `_time_blocks` slice at a
    time, laid out (d, S, times), and squared in place; their sums over d
    (`_pairwise_sum`), square roots and max over states are slab
    operations. erf is Python's, one call per time through `map`, and the
    numpy division rounds alike."""
    if not em.has_drift():
        return np.zeros(len(times))
    delta = (em.drift_means - em.means).T[:, :, None]
    # erf is increasing, so the erf of each time's largest gap is its largest
    # erf; a zero weight gives a zero gap and erf(0.0) = 0.0
    gaps = []
    for block in _time_blocks(em, times):
        sq = delta * em._weights(block)
        gaps.append(np.sqrt(_pairwise_sum(np.multiply(sq, sq, out=sq))).max(axis=0))
    gaps = np.concatenate(gaps)
    gaps /= 2.0 * math.sqrt(2.0) * em.sigma
    return np.fromiter(map(math.erf, gaps.tolist()), np.float64, len(gaps))


def _pairwise_sum(slabs: np.ndarray) -> np.ndarray:
    """The sum over the first axis of `slabs`, added in place into its
    slabs and returned as a view of one, in the order np.add.reduce takes
    along a contiguous axis (numpy's pairwise sum), so each entry has the
    bits of that reduction, and of np.linalg.norm's: below 8 terms in
    sequence; up to 128 into 8 accumulators, one per term index mod 8, joined
    as ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)) before the terms past the
    last multiple of 8 are added in sequence; above 128 as two halves, the
    first cut to a multiple of 8."""
    n = len(slabs)
    if n > 128:
        half = n // 2 - n // 2 % 8
        total = _pairwise_sum(slabs[:half])
        total += _pairwise_sum(slabs[half:])
        return total
    if n < 8:
        for i in range(1, n):
            slabs[0] += slabs[i]
        return slabs[0]
    acc = slabs[:8]
    end = n - n % 8
    for lo in range(8, end, 8):
        acc += slabs[lo:lo + 8]
    for step in (1, 2, 4):
        acc[::2 * step] += acc[step::2 * step]
    for i in range(end, n):
        acc[0] += slabs[i]
    return acc[0]


def mu_at(spec: ProcessSpec, i: int) -> float:
    """Marginal drift at time i: TV between the law of (X_i, Y_i) and its
    stationary limit. Exact for discrete emissions; for Gaussian emissions a
    certified upper bound TV(hidden_i, pi*) + max-state emission TV."""
    _as_int(i, "i", 1)
    pistar = stationary_distribution(spec.markov)
    return float(_mu(spec, pistar, *_marginals(spec.markov, i), range(i, i + 1))[0])


def _mu(spec: ProcessSpec, pistar: np.ndarray, M: np.ndarray, T: int,
        times: range) -> np.ndarray:
    """Drift mu_t for each t of the nonempty range `times`, from the hidden
    marginals M (rows up to times.stop - 1 at least) and their fixed point
    T: the joint (point, label) TV for discrete emissions, the hidden TV
    plus the max-state emission TV, capped at 1, for Gaussian ones.

    Rows t >= T of M equal row T, so what depends on the marginals alone,
    the hidden TV and a driftless joint table, is reduced on the times up
    to T and held from there; a drifting law's terms are reduced at every
    time. Either way the times a law changes at go one `_time_blocks`
    slice at a time, a discrete slice's joint tables one `_joint_table`
    scatter."""
    em = spec.emission
    times = np.arange(times.start, times.stop)
    moving = times[:max(1, T + 1 - times[0])]  # up to T: the times whose marginals differ
    if em.mode == "discrete":
        law = _joint_columns(spec)
        J_inf = _joint_table(pistar[None], em.table[None], *law)[0]
        mu = [_tv(_joint_table(M[block[0]:block[-1] + 1], em.rows_at(block), *law), J_inf)
              for block in _time_blocks(em, times if em.has_drift() else moving)]
        return _held(np.concatenate(mu), len(times))
    hidden = _held(_tv(M[moving[0]:moving[-1] + 1], pistar), len(times))
    return np.minimum(1.0, hidden + _gaussian_emission_tv(em, times))


def mixing_profile(spec: ProcessSpec, n: int) -> MixingProfile:
    """phi(1..n) and mu(1..n) for a length-n sample, plus delta_inf.

    Exactness flags: phi is exact when the emission is a deterministic
    injective driftless map of the state (otherwise a sound upper bound via
    data processing), mu is exact for any discrete emission.

    Cost: at most O(T**2 S**2 + n S**2) time for S states, plus S**3 per
    lag for the k-step rows until they repeat; the pruning below usually
    takes far less. The lags go in blocks of L = max(1, 2**16 // (S**2
    _PHI_BLOCK)) (`_LAG_FLOATS`): 2048 at S = 2, 32 at S = 16, 1 from
    S = 91 on. A block's loop over blocks of times pays its fixed Python
    work, about 20 numpy calls, once per block of times for all the lags
    still open. A block of L >= S lags, every block up to S = 20, lays its
    difference out lags innermost and sums it as S slabs (`_phi_lags`):
    on the 16-state ring at n = 800 a full block of 8 times takes about
    half the time of the C layout's 4096 sums of 16 terms, and a profile
    about a quarter less. Memory: one (lags, S, _PHI_BLOCK, S) difference,
    at most 2**16 floats up to S = 90 and S**2 _PHI_BLOCK above, whose
    absolute value is taken in place, plus O(n S) for the marginals and
    their limit bound. A lags-innermost block adds a Fortran copy of its
    rows, L S**2 floats, and M.T from its first lag on, at most (2n + 1) S
    floats. The marginals, the k-step rows of a lag block and the stationary
    law's polish are stepped in place by one kernel (`_step`): one np.dot
    per row into a preallocated buffer, and one test for an exact repeat
    per _STEP_ROWS = 16 rows, so at most 15 rows are stepped past it.

    mu (`_mu`) reads the marginals only up to T. What depends on them
    alone, the hidden TV and a driftless law's joint table, is reduced on
    times 1..min(n, T) and held from there, like the limit bound E. A
    drifting law changes at every time, so its terms are reduced at all n
    times. The times a law changes at go in blocks of max(1, 2**16 // (3 S
    C)) times (`_time_blocks`), C alphabet points or d dimensions, so a
    block's three (times, S, C) arrays, the drifted rows, their products
    with the marginals and the int64 scatter indices, hold at most 2**16
    values together (`_LAG_FLOATS`). Discrete mu costs one np.bincount per
    block into a (times, G K) array of joint (point, label) laws, for G
    distinct points and K labels. Gaussian mu forms a block's mean gaps as
    (d, S, times) slabs and squares them in place; the sum over d, in
    numpy's pairwise order, the square root and the max over states are
    whole-slab operations (`_pairwise_sum`), not one reduction per (state,
    time). What is left per time is the drift weight's float power and one
    erf of the time's largest mean gap: both Python's, through `map`, since
    np.power would move last bits. Memory: mu holds one time block besides
    O(n) per-time values and the O(n S) marginals, whatever n.

    T is the first time from which the marginals initial @ P**t repeat
    exactly, 2n + 1 when they do not within 2n. The shortcut is exact
    because equal inputs give equal bits. Marginal rows t >= T equal row T,
    so at lag k the times t >= T - k share one future, M[T]: their TV is one
    column over the union of their reach masks. Once that is the only column
    and the k-step rows delta_b @ P**k also repeat exactly, every later
    phi(k) is the same float.

    `_phi_lags` takes the times of a block of lags in increasing t, 8
    (_PHI_BLOCK) at a time, each block of times at once for every lag still
    open. Every lag reduces its first 24 times (_PHI_FIRST); from there a
    lag closes before the block starting at time t once
    max_b TV(delta_b @ P**k, pi*) + E[t + k] + slack is strictly below the
    best value taken. E is the suffix max of TV(M[t], pi*), computed once per
    profile (`_limit_gap_bound`), and the slack, 4 (S + 2) eps, covers the
    rounding of the three S-term TV sums and the two additions (`_tv_slack`).
    By the triangle inequality every column skipped is strictly below a
    value already taken, so phi(k) keeps the bits of the reduction over every
    column. On slow 16-state rings at n = 800, with no fixed point inside
    2n, the bound alone would close most lags at a time between 13 and 26
    that depends on the stay probabilities, and the profile's cost with it
    (13k to 20k lag-time columns over 40 draws of them). Past the first 24
    times only the few lags whose bound closes later are reduced, so 3.0-3.1%
    of the columns are, on every draw.
    """
    spec = _instance(spec, "spec", ProcessSpec)
    _as_int(n, "n", 1)
    markov, S = spec.markov, spec.markov.num_states
    futures = _futures(markov, n, 2 * n)
    M, T, pistar = futures[0], futures[3], futures[4]
    phi = np.empty(n)
    rows = np.empty((max(1, _LAG_FLOATS // (S * S * _PHI_BLOCK)) + 1, S, S))
    rows[0] = np.eye(S)
    k = 1
    while k <= n:
        # rows[m] is P**(k - 1 + m); a repeat counts from lag T on
        stop = min(len(rows), n + 2 - k)
        m = _step(markov.transition, rows[:stop], T + 1 - k)
        repeat = m < stop
        m = min(m, stop - 1)
        phi[k - 1:k - 1 + m] = _phi_lags(rows[1:m + 1], k, *futures)
        k += m
        rows[0] = rows[m]
        if repeat:
            phi[k - 1:] = phi[k - 2]
            break
    mu = _mu(spec, pistar, M, T, range(1, n + 1))
    delta_inf = 1.0 + 2.0 * float(phi.sum())
    return MixingProfile(horizon=n, phi=phi, mu=mu, delta_inf=delta_inf,
                         phi_exact=deterministic_injective(spec),
                         mu_exact=spec.emission.mode == "discrete")


def _inverse_cdf(cum: np.ndarray, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """First column of row cum[states[i]] whose cumulative mass exceeds u[i],
    capped at the last column: the count of columns j < C - 1 with
    cum[states[i], j] <= u[i]. On nondecreasing rows (cumulative sums of
    nonnegative laws) that is min(sum_j (cum[states[i], j] <= u[i]), C - 1),
    and a column of zero mass is never drawn for u below the row's total,
    u = 0.0 included. One 1-d gather and comparison per column; no (draws,
    C) block."""
    idx = np.zeros(len(u), dtype=np.int64)
    for j in range(cum.shape[1] - 1):
        idx += cum[:, j].take(states) <= u
    return idx


def _cdf_draw(law: np.ndarray):
    """The draw `_inverse_cdf` makes on the cumulative table `cum` of the
    rows `law`, as a function of (states, rng) that consumes one uniform of
    `rng` per state. When every entry of `cum` before its last column is
    <= 0.0 or >= 1.0, every u in [0, 1) draws what u = 0.0 draws, the row's
    count of entries <= 0.0. Such a certain draw reads that count per state
    and skips its uniforms (`_skip`), so every later draw keeps its bits.
    The rows are accumulated and tested once per law, here."""
    cum = np.cumsum(law, axis=1)
    head = cum[:, :-1]
    if np.all((head <= 0.0) | (head >= 1.0)):
        certain = np.count_nonzero(head <= 0.0, axis=1).astype(np.int64)

        def draw(states, rng):
            _skip(rng, len(states))
            return certain.take(states)
    else:
        def draw(states, rng):
            return _inverse_cdf(cum, states, rng.random(len(states)))
    return draw


def _walk(markov: MarkovSpec, trials: int, rng: np.random.Generator):
    """Hidden states H_1, H_2, ... of `trials` independent chains, lazily, one
    kernel step per next(), the first from H_0 drawn from the initial law.
    Each state, H_0 too, costs one uniform per chain, drawn when it is needed,
    so a caller can interleave its own draws between steps. A step is the
    `_cdf_draw` of the kernel, indexed by the current states."""
    step = _cdf_draw(markov.transition)
    cur = _cdf_draw(markov.initial[None, :])(np.zeros(trials, dtype=np.int64), rng)
    while True:
        cur = step(cur, rng)
        yield cur


def _walk_path(markov: MarkovSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """H_1..H_n of one chain: the states _walk(markov, 1, rng) yields, from
    the same n + 1 uniforms, H_0's first, drawn as one block. Each step is
    `bisect_right` over the first C - 1 entries of a cumulative row, the
    count of entries at or below u that `_inverse_cdf` takes, in Python
    floats, without a numpy call per step."""
    last = markov.num_states - 1
    start = np.cumsum(markov.initial)[:last].tolist()
    rows = [row[:last] for row in np.cumsum(markov.transition, axis=1).tolist()]
    u = rng.random(n + 1).tolist()
    cur = bisect_right(start, u[0])
    states = []
    for x in u[1:]:
        cur = bisect_right(rows[cur], x)
        states.append(cur)
    return np.array(states, dtype=np.int64)


def sample_sequence(spec: ProcessSpec, n: int, seed: int) -> LabeledDataset:
    """Draw one length-n observed path (X_1..X_n, Y_1..Y_n).

    The hidden state starts at the initial law and takes n kernel steps;
    X_i is emitted from the time-i law of state H_i, one row gathered per
    draw, one `_time_blocks` slice of times at a time. Deterministic in seed.
    """
    spec = _instance(spec, "spec", ProcessSpec)
    _as_int(n, "n", 1, EmptyDataset)
    rng = substream(seed, _SEQUENCE)
    em = spec.emission
    emitted = _walk_path(spec.markov, n, rng)
    labels = np.asarray(spec.label_map, dtype=np.int64)[emitted]
    X = np.empty((n, spec.input_dim))
    for times in _time_blocks(em, np.arange(1, n + 1)):
        draws = np.arange(len(times))
        X[times - 1] = em.emit(em.law(em.rows_at(times)[draws, emitted[times - 1]]), draws, rng)
    return LabeledDataset(inputs=X, labels=labels, num_classes=spec.num_classes,
                          kind=KIND_SEQUENCE, seed=seed)


def sample_target(spec: ProcessSpec, m: int, seed: int) -> LabeledDataset:
    """Draw m iid samples of the stationary limit (pi*, limit emission)."""
    _as_int(m, "m", 0)
    pistar = stationary_distribution(spec.markov)
    rng = substream(seed, _TARGET)
    em = spec.emission
    states = _cdf_draw(pistar[None, :])(np.zeros(m, dtype=np.int64), rng)
    labels = np.asarray(spec.label_map, dtype=np.int64)[states]
    X = em.emit(em.law(em.rows), states, rng)
    return LabeledDataset(inputs=X, labels=labels, num_classes=spec.num_classes,
                          kind=KIND_TARGET, seed=seed)


def sample_sequences_batch(spec: ProcessSpec, n: int, trials: int,
                           seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized trials x n observed paths for Monte Carlo validators.

    Returns (inputs (trials, n, d), labels (trials, n)). Single Philox
    stream with a fixed draw order, so results depend only on the seed: all
    hidden states H_1..H_n of every chain first, then the emissions time by
    time. The states are walked into the (trials, n) label array, and each
    time's column is mapped to labels in place once its points are drawn,
    so besides the two results only one column's temporaries and one time
    block of the law (`EmissionSpec.laws`) are held. A
    certain draw (a start law, kernel or time's emission table whose every
    row draws one index whatever the uniform) consumes its uniforms without
    generating them, with the bits of drawing them.
    """
    _as_int(n, "n", 1)
    _as_int(trials, "trials", 1)
    rng = substream(seed, _BATCH)
    em = spec.emission
    walk = _walk(spec.markov, trials, rng)
    labels = np.empty((trials, n), dtype=np.int64)  # H_1..H_n, mapped to labels once emitted
    for t in range(n):
        labels[:, t] = next(walk)
    label_arr = np.asarray(spec.label_map, dtype=np.int64)
    X = np.empty((trials, n, spec.input_dim))
    for t, law in enumerate(em.laws(np.arange(1, n + 1))):
        X[:, t] = em.emit(law, labels[:, t], rng)
        labels[:, t] = label_arr[labels[:, t]]
    return X, labels


def _value_table(table, name: str, alphabet: np.ndarray) -> np.ndarray:
    """A read-only copy of a value table over (alphabet point, label): one row
    per point, entries in [0, 1], and equal rows at repeated points, so that
    whichever copy of a point a lookup finds, it reads the same values."""
    f = _as_array(table, name, 2, 0.0, 1.0)
    if f.shape[0] != alphabet.shape[0]:
        raise DimensionMismatch(f"{name} must have one row per alphabet point")
    groups, first = _bit_groups(alphabet.T)
    if np.any(f != f[first[groups]]):
        raise ValueError(f"{name} must agree on duplicate alphabet points")
    return f


def _check_f_table(spec: ProcessSpec, f_table: np.ndarray) -> np.ndarray:
    em = spec.emission
    if em.mode != "discrete":
        raise NotDiscrete("value tables need discrete emissions")
    f = _value_table(f_table, "f_table", em.alphabet)
    if f.shape[1] != spec.num_classes:
        raise DimensionMismatch(f"f_table must have {spec.num_classes} columns, one per class")
    return f


def step_expectations(spec: ProcessSpec, f_table, n: int) -> np.ndarray:
    """Exact E[f(X_i, Y_i)] for i = 1..n on a discrete-emission process."""
    _as_int(n, "n", 0)
    f = _check_f_table(spec, f_table)
    em, H, out = spec.emission, _marginals(spec.markov, n)[0], np.empty(n)
    for times in _time_blocks(em, np.arange(1, n + 1)):
        out[times - 1] = _expectations(spec, f, H[times], em.rows_at(times))
    return out


def stationary_expectation(spec: ProcessSpec, f_table) -> float:
    """Exact E[f] under the stationary limit law."""
    f = _check_f_table(spec, f_table)
    pistar = stationary_distribution(spec.markov)
    return float(_expectations(spec, f, pistar[None], spec.emission.table[None])[0])


def _expectations(spec: ProcessSpec, f: np.ndarray, laws: np.ndarray,
                  tables: np.ndarray) -> np.ndarray:
    """E f(X, Y) for each hidden law laws[t] and (S, M) emission table
    tables[t], from the checked value table f; the stationary value is the
    one-row case."""
    fv = f[:, np.asarray(spec.label_map, dtype=np.int64) - 1]  # (M, S): state s emits m
    return np.einsum("ts,tsm,ms->t", laws, tables, fv)


def sequence_value_means(spec: ProcessSpec, f, n: int, trials: int,
                         seed: int) -> np.ndarray:
    """Per-trial averages (1/n) sum_i f(X_i, Y_i) over `trials` paths:
    (trials,) for one function, (k, trials) for k functions.

    `f` is either a value table over (alphabet point, label) for discrete
    emissions or a vectorized callable f(inputs, labels) -> values in [0, 1],
    either `trials` values (one function) or a (k, trials) block, one row per
    function, as `FunctionClass.evaluate` returns (`_unit_values`).

    One walk of the chains, one step at a time: per step, each chain's state
    draw and then that step's emission, whose values are added to a running
    total. So memory is O(k * trials) besides one time block of the law
    (`EmissionSpec.laws`), whatever n is, and every function is averaged
    over the same paths. A callable is applied to the step's emitted points
    and labels, `trials` of each; a value table reads the values of the
    drawn alphabet indices. On discrete emissions both consume the same
    uniforms, so a callable and its equal value table give the same bits,
    and each row of a class's result has the bits of that row's function
    alone. A certain draw, such as the emission of a state-revealing table,
    consumes its uniforms without generating them (`_cdf_draw`): the stream
    moves past them in O(1) time, and the result keeps the bits of drawing
    them.
    """
    _as_int(n, "n", 1)
    _as_int(trials, "trials", 1)
    em = spec.emission
    label_arr = np.asarray(spec.label_map, dtype=np.int64)
    if callable(f):
        def step_values(law, cur, rng):
            return _unit_values(f(em.emit(law, cur, rng), label_arr[cur]), "f", trials)
    else:
        # values[s, p] = f(point p, label of state s), read by one flat take per step
        values = _check_f_table(spec, f).T[label_arr - 1]
        M = values.shape[1]

        def step_values(draw, cur, rng):
            return values.take(cur * M + draw(cur, rng))
    rng = substream(seed, _BATCH)
    walk = _walk(spec.markov, trials, rng)
    total = 0.0  # the first step's sum is a new array of that step's shape
    for t, law in enumerate(em.laws(np.arange(1, n + 1))):
        step = step_values(law, next(walk), rng)
        if t and step.shape != total.shape:
            raise ValueError(f"f returned shape {step.shape} at step {t + 1}, "
                             f"{total.shape} before")
        total += step
    return total / n
