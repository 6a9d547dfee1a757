"""Empirical Rademacher complexity of finite [0, 1]-valued classes.

The conditional complexity of a class F on points z_1..z_n is

    R_hat = E_signs [ sup_{f in F} (1/n) sum_i theta_i f(z_i) ]

with iid uniform signs theta_i in {-1, +1}. One kernel computes it for every
caller: `_sign_sups` reduces a (members, paths, n) value array against sign
rows, `_exact_rademacher` enumerates all 2**n sign vectors through it once
per distinct path (`process._bit_groups`), `_draw_signs` is the one sign
draw. `empirical_rademacher_exact` and `empirical_rademacher_mc` run the
kernel on one path; the symmetrization validator in `bounds` runs it on many.

`_sign_sups` folds the sup over members into a running maximum, one
(paths, k) product per member, so it never holds all members' sums at once:
a block of the exact enumeration holds 2 x _PATH_BLOCK x min(2**n,
_SIGN_CHUNK) floats whatever the class size. A product with one path or one
sign row keeps the stacked form, in which every member's sums come from one
product, because numpy sends a product with a single row or column through
matrix-vector code whose last bits can differ.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from ._checks import (_as_array, _as_float, _as_floats, _as_int, _as_labels, _in_logs,
                      _instance, _instances, _normal, _numbers, _one_function, _unit_values)
from .errors import DimensionMismatch, EmptyDataset, NonpositiveGamma, TooLarge
from .network import NetworkParams, forward_batch, margins_batch, ramp_loss
from .norms import LayerNorms
from .process import LabeledDataset, _bit_groups, _value_table
from .seeding import substream

_EXACT_MAX_N = 20
_SIGN_CHUNK = 65536  # sign vectors per block of the exact enumeration
_PATH_BLOCK = 128  # paths per block of the exact enumeration


@dataclass(frozen=True)
class FunctionClass:
    """Finite family of vectorized evaluators (inputs, labels) -> [0, 1]."""

    evaluators: tuple

    def __post_init__(self):
        if not self.evaluators:
            raise ValueError("a function class needs at least one member")
        object.__setattr__(self, "evaluators", _instances(self.evaluators, "evaluators", Callable))

    @property
    def size(self) -> int:
        return len(self.evaluators)

    def evaluate(self, inputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Value matrix (members x points); range-checked on use."""
        X = _numbers(inputs, "inputs", 2)
        y = _as_labels(labels, X.shape[0])
        out = np.empty((self.size, X.shape[0]))
        for m, f in enumerate(self.evaluators):
            name = f"member {m}"
            out[m] = _one_function(_unit_values(f(X, y), name, X.shape[0]), name)
        return out


def constant_class(values) -> FunctionClass:
    """One constant function per value."""
    def make(c: float) -> Callable:
        return lambda X, y: np.full(X.shape[0], c)
    values = _as_floats(values, "values", 0.0, 1.0, closed=True)
    return FunctionClass(evaluators=tuple(make(c) for c in values))


def table_class(alphabet: np.ndarray, tables) -> FunctionClass:
    """Functions given by value tables over (alphabet point, label).

    Inputs are matched to alphabet rows bitwise (`_bit_groups`), which is
    how discrete processes emit them; each member takes labels 1..K for its
    own table's K columns.
    """
    alphabet = _as_array(alphabet, "alphabet", 2)
    size, dim = alphabet.shape
    if not dim:
        raise DimensionMismatch("alphabet points need at least one coordinate")

    def make(tab: np.ndarray) -> Callable:
        def f(X: np.ndarray, y: np.ndarray, tab=tab) -> np.ndarray:
            y = _as_labels(y, X.shape[0], tab.shape[1])
            if X.shape[1] != dim:
                raise ValueError("input point is not an alphabet point")
            ids, first = _bit_groups(map(np.concatenate, zip(alphabet.T, X.T)))
            idx = first[ids[size:]]  # alphabet rows first: a group holding one starts at one
            if np.any(idx >= size):
                raise ValueError("input point is not an alphabet point")
            return tab[idx, y - 1]
        return f

    checked = [_value_table(tab, "table", alphabet)
               for tab in (tables if isinstance(tables, Iterable) else ())]
    if not checked:
        raise ValueError(f"'tables' must be a non-empty sequence of value tables, not {tables!r}")
    return FunctionClass(evaluators=tuple(make(t) for t in checked))


def loss_class(params_list, gamma: float) -> FunctionClass:
    """Ramp losses of negated margins of fixed networks."""
    _as_float(gamma, "gamma", 0.0, error=NonpositiveGamma)

    def make(params: NetworkParams) -> Callable:
        def f(X: np.ndarray, y: np.ndarray, params=params) -> np.ndarray:
            return ramp_loss(-margins_batch(forward_batch(params, X), y), gamma)
        return f

    params_list = _instances(params_list, "params_list", NetworkParams)
    return FunctionClass(evaluators=tuple(make(p) for p in params_list))


@dataclass(frozen=True)
class RademacherEstimate:
    value: float
    stderr: float
    trials: int
    method: str


def _draw_signs(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """k iid uniform sign vectors in {-1, +1}**n, one per row."""
    return rng.integers(0, 2, size=(k, n)).astype(np.float64) * 2.0 - 1.0


def _sign_sups(F: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """sup_f sum_i theta_i f(z_i) of every path under every sign row:
    values F (members, paths, n) against signs (k, n) give (paths, k).

    The sup is a running maximum over members, each member's sums one
    matrix product `F[m] @ signs.T`, so memory stays at two (paths, k)
    arrays for any class size. With one path or one sign row the sums of all
    members come from one stacked product instead: alone, such a product
    would be a matrix-vector one, whose last bits can differ from the
    matrix-matrix product of the stack. The running maximum takes the
    members in the order the stacked `.max(axis=0)` does, so both forms give
    the same bits."""
    members, paths, _ = F.shape
    if paths < 2 or signs.shape[0] < 2:
        return np.tensordot(F, signs, axes=([2], [1])).max(axis=0)
    sups = F[0] @ signs.T
    sums = np.empty_like(sups)
    for m in range(1, members):
        np.matmul(F[m], signs.T, out=sums)
        np.maximum(sups, sums, out=sups)
    return sups


def _exact_rademacher(F: np.ndarray) -> np.ndarray:
    """Exact conditional complexity of every path of F (members, paths, n):
    the mean sup over all 2**n sign vectors, divided by n.

    Paths whose (members, n) values have the same bits have the same
    complexity, so with two or more members the enumeration runs once per
    distinct path (`_bit_groups`, on one strided column per member and
    point: no (paths, members * n) copy of F) and the results are scattered
    back. A one-member class is not grouped: there a block of one path goes
    through a matrix-vector product, whose last bits can differ from the
    matrix-matrix product of a larger block."""
    members, paths, n = F.shape
    if members < 2 or paths < 2:
        return _enumerate_signs(F)
    group, first = _bit_groups(F[m, :, i] for m in range(members) for i in range(n))
    return _enumerate_signs(F[:, first])[group]


def _enumerate_signs(F: np.ndarray) -> np.ndarray:
    """`_exact_rademacher` of every path of F, repeated paths included. Sign
    vector c has theta_i = +1 where bit i of c is set; the loops take blocks
    of _SIGN_CHUNK sign vectors and _PATH_BLOCK paths, and `_sign_sups`
    keeps each block at 2 x _PATH_BLOCK x min(2**n, _SIGN_CHUNK) floats
    besides the signs, whatever the number of members."""
    paths, n = F.shape[1], F.shape[2]
    count = 1 << n
    total = np.zeros(paths)
    for start in range(0, count, _SIGN_CHUNK):
        codes = np.arange(start, min(start + _SIGN_CHUNK, count), dtype=np.uint64)[:, None]
        bits = (codes >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
        signs = bits.astype(np.float64) * 2.0 - 1.0
        for p in range(0, paths, _PATH_BLOCK):
            total[p:p + _PATH_BLOCK] += _sign_sups(F[:, p:p + _PATH_BLOCK], signs).sum(axis=1)
    return total / count / n


def empirical_rademacher_exact(fclass: FunctionClass,
                               data: LabeledDataset) -> RademacherEstimate:
    """Exact complexity by full sign enumeration; needs n <= 20."""
    n = _as_int(data.n, "n", 1, EmptyDataset)
    if n > _EXACT_MAX_N:
        raise TooLarge(f"2**{n} sign vectors exceed the exact budget (n <= {_EXACT_MAX_N})")
    F = fclass.evaluate(data.inputs, data.labels)
    value = float(_exact_rademacher(F[:, None, :])[0])
    return RademacherEstimate(value=value, stderr=0.0, trials=1 << n, method="exact")


def empirical_rademacher_mc(fclass: FunctionClass, data: LabeledDataset,
                            trials: int, seed: int) -> RademacherEstimate:
    """Monte Carlo complexity over `trials` sign draws with its stderr."""
    _as_int(trials, "trials", 100)  # fewer give no meaningful stderr
    n = _as_int(data.n, "n", 1, EmptyDataset)
    F = fclass.evaluate(data.inputs, data.labels)
    signs = _draw_signs(substream(seed, 0), trials, n)
    sups = _sign_sups(F[:, None, :], signs)[0] / n
    return RademacherEstimate(value=float(sups.mean()),
                              stderr=float(sups.std(ddof=1) / math.sqrt(trials)),
                              trials=trials, method="monte_carlo")


def covering_bound_terms(B: float, gamma: float, W: int, n: int,
                         norms: LayerNorms) -> tuple[float, float]:
    """The two addends of the covering bound, the certificate's one
    capacity term: 4 / n**(3/2), and lead * T with lead = 36 * B * ln(2W) *
    ln(n) / (gamma * n) and the norm aggregate T = (sum_i (b_i /
    s_i)**(2/3))**(3/2) * prod_i s_i. A network with a zero layer (some
    s_i = 0) is the constant 0, whose class has complexity 0: its second
    term is 0.0. The certificate consumes both terms scaled by 2.

    No arithmetic error for any arguments the checks accept: 4 / n**(3/2)
    and lead * T are evaluated as written while the powers, quotients, sums
    and products in them are normal floats (`_normal`), else in logs
    (`_in_logs`, where a zero factor gives 0.0), so each is its value,
    rounded to 0.0 or inf only past the float range.
    """
    gamma = _as_float(gamma, "gamma", 0.0, error=NonpositiveGamma)
    n = _as_int(n, "n", 2)
    B = _as_float(B, "B", 0.0, closed=True)
    W = _as_int(W, "W", 1)
    norms = _instance(norms, "norms", LayerNorms)
    try:
        first = 4.0 / n ** 1.5
    except OverflowError:  # n ** 1.5 past the float range
        first = _in_logs(4.0, (n, -1.5))
    if 0.0 in norms.spectral:
        return first, 0.0
    try:
        scale, rate = 36.0 * B, gamma * n
        num = scale * math.log(2.0 * W) * math.log(n)
        direct = _normal(scale, num, rate)
    except OverflowError:  # W or n past every float
        direct = False
    if direct:
        b, s = np.asarray(norms.two_one), np.asarray(norms.spectral)
        with np.errstate(all="ignore"):  # a lost range fails _normal below
            quotients = b / s
            powers = quotients ** (2.0 / 3.0)
            total = powers.sum()
            ratio = float(total ** 1.5)
            partial = np.cumprod(s)  # the products np.prod forms, in its order
            lead = num / rate
            second = lead * ratio * float(partial[-1])
        if _normal(*quotients, *powers, total, ratio, *partial, lead, lead * ratio, second):
            return first, second
    # T = q_j * (sum_i (q_i / q_j)**(2/3))**(3/2) * prod_i s_i for the largest
    # quotient q_j = b_j / s_j, whose scaled sum lies in [1, layers]
    logs = [math.log(bi) - math.log(si) if bi else -math.inf
            for bi, si in zip(norms.two_one, norms.spectral)]
    j = logs.index(max(logs))
    if not norms.two_one[j]:  # every b_i is 0
        return first, 0.0
    spread = math.fsum(math.exp(2.0 / 3.0 * (v - logs[j])) for v in logs)
    return first, _in_logs(
        36.0, (B, 1.0), (math.log(2.0) + math.log(W), 1.0), (math.log(n), 1.0),
        (gamma, -1.0), (n, -1.0), (spread, 1.5), (norms.two_one[j], 1.0),
        (norms.spectral[j], -1.0), *((si, 1.0) for si in norms.spectral))
