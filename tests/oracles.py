"""Plain reference forms of the library's kernels, one per quantity, and the
random and fixed specs the tests share.

Each form is the simplest code that computes its quantity: a loop over
times, states or layers where the library blocks, holds or vectorizes. The
tests compare the library's results with these, bit for bit where the
library promises its bits. Nothing here imports a private name from
`mixcert`, so a fault in a library kernel cannot pass through its own
oracle. A sampler form takes the generator the library draws from
(`substream(seed, tag)`), and draws every uniform the library consumes.
"""

import math

import numpy as np

from mixcert import EmissionSpec, MarkovSpec, MixingProfile, ProcessSpec, stationary_distribution


# -- specs --------------------------------------------------------------------

def discrete_spec(P, pi0, S):
    """Hidden chain with state-revealing emissions (point i for state i) and
    labels alternating 1, 2, 1, ..."""
    return ProcessSpec(
        markov=MarkovSpec(num_states=S, transition=np.asarray(P, dtype=float),
                          initial=np.asarray(pi0, dtype=float)),
        emission=EmissionSpec.discrete(alphabet=np.arange(S, dtype=float).reshape(S, 1),
                                       table=np.eye(S)),
        label_map=tuple(1 + (i % 2) for i in range(S)),
        num_classes=2, input_dim=1)


def lazy_ring(stay, S=16):
    """Directed ring that stays put with probability `stay` (one number, or
    one per state), started at state 0, with state-revealing emissions; slow
    to mix for stay near 1."""
    P = np.zeros((S, S))
    P[np.arange(S), np.arange(S)] = stay
    P[np.arange(S), (np.arange(S) + 1) % S] = 1.0 - stay
    return discrete_spec(P, np.eye(S)[0], S)


def flat_profile(n, delta_inf=1.0, mu=0.0):
    """A profile of n independent coordinates: phi 0, one drift mu per time."""
    return MixingProfile(horizon=n, phi=np.zeros(n), mu=np.full(n, float(mu)),
                         delta_inf=float(delta_inf), phi_exact=True, mu_exact=True)


def random_law(rng, rows, cols):
    """Row-stochastic (rows, cols) matrix with some zero-probability columns."""
    law = rng.random((rows, cols))
    law[rng.random((rows, cols)) < 0.3] = 0.0
    law[np.arange(rows), rng.integers(0, cols, size=rows)] += 0.5
    return law / law.sum(axis=1, keepdims=True)


def mixed_law(rng, rows, cols):
    """A (rows, cols) law whose rows are each one of: a point mass; a point
    mass followed by a column of 1e-300, whose cumulative sum reaches 1.0
    before the last column; or a `random_law` row, which draws. About a
    third of the tables have certain rows only."""
    law = random_law(rng, rows, cols)
    kinds = rng.integers(0, 2 if rng.random() < 0.35 else 3, size=rows)
    for r in np.flatnonzero(kinds < 2):
        j = int(rng.integers(0, cols))
        law[r] = 0.0
        law[r, j] = 1.0
        if kinds[r] == 1 and j + 1 < cols:
            law[r, int(rng.integers(j + 1, cols))] = 1e-300
    return law


def random_spec(rng, S, mode, drift):
    """A positive S-state chain with 1-3 dimensional points, 2-3 labels and
    an emission law of the given mode: 1-4 alphabet points, or one Gaussian
    mean per state. `drift` is "none" (amplitude 0, a drift table or not),
    "normal" or "underflow", where w_t = amplitude * t**-400 is subnormal by
    t = 6 and 0 from t = 7."""
    def law(rows, cols):
        t = rng.random((rows, cols)) + 0.05
        return t / t.sum(axis=1, keepdims=True)
    d = int(rng.integers(1, 4))
    amplitude = 0.0 if drift == "none" else float(rng.uniform(0.1, 1.0))
    exponent = 400.0 if drift == "underflow" else float(rng.uniform(0.2, 1.5))
    with_drift = drift != "none" or rng.random() < 0.5
    if mode == "discrete":
        M = int(rng.integers(1, 5))
        emission = EmissionSpec.discrete(
            rng.normal(size=(M, d)), law(S, M), law(S, M) if with_drift else None,
            amplitude, exponent)
    else:
        emission = EmissionSpec.gaussian(
            rng.normal(size=(S, d)), float(rng.uniform(0.1, 2.0)),
            rng.normal(size=(S, d)) if with_drift else None, amplitude, exponent)
    K = int(rng.integers(2, 4))
    return ProcessSpec(
        markov=MarkovSpec(num_states=S, transition=law(S, S), initial=law(1, S)[0]),
        emission=emission, label_map=tuple(int(v) for v in rng.integers(1, K + 1, size=S)),
        num_classes=K, input_dim=d)


# -- the hidden chain ---------------------------------------------------------

def reference_tv(p, q):
    """Total variation along the last axis, p broadcast against q."""
    return 0.5 * np.abs(p - q).sum(axis=-1)


def reference_marginals(markov, tmax):
    """Rows t = 0..tmax of initial @ P**t, every one stepped."""
    M = np.empty((tmax + 1, markov.num_states))
    M[0] = markov.initial
    for t in range(1, tmax + 1):
        M[t] = M[t - 1] @ markov.transition
    return M


def reference_fixed_point(markov, tmax):
    """(rows, T) of the marginals by the plain `@` loop: every row stepped,
    T the first t < tmax with row t + 1 == row t (tmax + 1 when there is
    none), and the rows after T + 1 held at row T + 1."""
    M = reference_marginals(markov, tmax)
    same = [t for t in range(tmax) if np.array_equal(M[t + 1], M[t])]
    if not same:
        return M, tmax + 1
    M[same[0] + 2:] = M[same[0] + 1]
    return M, same[0]


def kstep_rows(P, count):
    """The (count, S, S) stack P, P**2, ..., P**count, as a running product."""
    rows = np.empty((count, *P.shape))
    rows[0] = P
    for i in range(1, count):
        rows[i] = rows[i - 1] @ P
    return rows


def reference_stationary(markov):
    """stationary_distribution's value by its least-squares solve and a
    polish of at most 100 plain `@` steps: the input of the first step that
    returns it, the least-squares law when none does."""
    S = markov.num_states
    A = np.vstack([markov.transition.T - np.eye(S), np.ones((1, S))])
    b = np.zeros(S + 1)
    b[-1] = 1.0
    pi = np.maximum(np.linalg.lstsq(A, b, rcond=None)[0], 0.0)
    pi = pi / pi.sum()
    cur = pi
    for _ in range(100):
        nxt = cur @ markov.transition
        if np.array_equal(nxt, cur):
            return cur
        cur = nxt
    return pi


# -- the emission law ---------------------------------------------------------

def drift_weight(em, t):
    """The mixture weight of the law at time t, amplitude * t**(-exponent),
    and 0 without drift: the schedule written out here, not read from the
    library."""
    if not em.has_drift():
        return 0.0
    return em.drift_amplitude * float(t) ** -em.drift_exponent


def law_at(em, t):
    """Per-state rows of the time-t law: (1 - w_t) * rows + w_t * drift,
    and the rows themselves where w_t is 0."""
    w = drift_weight(em, t)
    return em.rows if w == 0.0 else (1.0 - w) * em.rows + w * em.drift_rows


def reference_groups(rows):
    """Group ids in order of first appearance and the first row of each
    group, from a dict keyed on each row's bytes."""
    keys = {}
    ids = [keys.setdefault(row.tobytes(), (len(keys), i))[0] for i, row in enumerate(rows)]
    return np.array(ids, dtype=np.intp), np.array([i for _, i in keys.values()], dtype=np.intp)


def reference_gaussian_tv(em, times):
    """The Gaussian emission term of mu at each time: the np.linalg.norm
    over d of the (S, times, d) mean gaps of the drift_weight schedule, the
    max over states, and one erf per time."""
    if not em.has_drift():
        return np.zeros(len(times))
    w = np.array([drift_weight(em, t) for t in times])
    gaps = np.linalg.norm(w[:, None] * (em.drift_means - em.means)[:, None], axis=2).max(axis=0)
    gaps /= 2.0 * math.sqrt(2.0) * em.sigma
    return np.array([math.erf(g) for g in gaps.tolist()])


# -- phi, mu and expectations -------------------------------------------------

def reference_phi(spec, n, lags):
    """phi(k) for each k in the increasing sequence lags by the O(n S**2)
    reduction per lag with no shortcut: the k-step rows as a running
    product, every one of the n + 1 conditioning times, and the limit
    point."""
    markov = spec.markov
    pistar = stationary_distribution(markov)
    M = reference_marginals(markov, 2 * n)
    reach = (M[: n + 1] > 0.0).T
    phi = []
    rows = np.eye(markov.num_states)
    for k in range(1, lags[-1] + 1):
        rows = rows @ markov.transition
        if k in lags:
            tv = reference_tv(rows[:, None, :], M[None, k: n + k + 1, :])
            limit = reference_tv(rows, pistar)
            phi.append(min(max(float(tv[reach].max()), float(limit.max())), 1.0))
    return np.array(phi)


def reference_mu(spec, n):
    """mu(1..n) with every time in one stack and no fixed-point hold: every
    marginal stepped and its hidden TV taken; for discrete emissions the
    time-t law of every time and one np.add.at per state over all n times
    into the joint (distinct point, label) tables, for Gaussian ones the
    hidden TV plus reference_gaussian_tv, capped at 1."""
    markov, em = spec.markov, spec.emission
    pistar = stationary_distribution(markov)
    M = reference_marginals(markov, n)[1:]
    if em.mode == "gaussian":
        return np.minimum(1.0, reference_tv(M, pistar) + reference_gaussian_tv(em, range(1, n + 1)))
    ids, first = reference_groups(em.alphabet)
    K = spec.num_classes

    def joint(h, tables):
        J = np.zeros((len(h), first.size * K))
        for s in range(markov.num_states):
            np.add.at(J, (slice(None), ids * K + spec.label_map[s] - 1),
                      h[:, s, None] * tables[:, s])
        return J
    laws = np.array([law_at(em, t) for t in range(1, n + 1)])
    return reference_tv(joint(M, laws), joint(pistar[None], em.table[None])[0])


def reference_profile(spec, n):
    """(phi, mu, delta_inf) by the O(n**2 S**2) loop with no fixed-point
    shortcut: every lag taken over all n + 1 conditioning times, and
    reference_mu. mixing_profile must return these bits."""
    phi = reference_phi(spec, n, range(1, n + 1))
    return phi, reference_mu(spec, n), 1.0 + 2.0 * float(phi.sum())


def reference_expectations(spec, f_table, n):
    """E f at times 1..n and under the stationary limit, one time at a
    time: np.einsum("s,sm,ms->") over the hidden law, the time-t table
    and the values f_table[m, label(s)]."""
    M = reference_marginals(spec.markov, n)
    fv = f_table[:, np.asarray(spec.label_map, dtype=np.int64) - 1]
    steps = np.array([float(np.einsum("s,sm,ms->", M[t], law_at(spec.emission, t), fv))
                      for t in range(1, n + 1)])
    pistar = stationary_distribution(spec.markov)
    return steps, float(np.einsum("s,sm,ms->", pistar, spec.emission.table, fv))


# -- sampling -----------------------------------------------------------------

def reference_inverse_cdf(cum_rows, u):
    """First index whose cumulative mass exceeds u, rowwise, on gathered rows
    (draws, C): the count of entries at or below u, capped at the last
    column. An index of zero mass is never the first to exceed u."""
    idx = (cum_rows <= u[:, None]).sum(axis=1)
    return np.minimum(idx, cum_rows.shape[1] - 1)


def reference_draw(table, states, rng):
    """Indices drawn from the rows table[states], one uniform drawn each."""
    return reference_inverse_cdf(np.cumsum(table, axis=1)[states], rng.random(len(states)))


def reference_walk(markov, trials, rng):
    """Hidden states of `trials` chains, the start state and then one kernel
    step per next(), each one uniform per chain."""
    cum_P = np.cumsum(markov.transition, axis=1)
    cur = reference_draw(markov.initial[None], np.zeros(trials, dtype=np.int64), rng)
    while True:
        yield cur
        cur = reference_inverse_cdf(cum_P[cur], rng.random(trials))


def reference_emit(em, rows, states, rng):
    """One point per entry of `states` from that row of `rows`: an alphabet
    point by reference_draw, or the row's mean plus sigma times d standard
    normals."""
    if em.mode == "discrete":
        return em.alphabet[reference_draw(rows, states, rng)]
    return rows[states] + em.sigma * rng.standard_normal((len(states), rows.shape[1]))


def reference_sequence(spec, n, rng):
    """(inputs, labels) of sample_sequence: the walk of one chain, then each
    time's point from the time-t law of its state."""
    walk = reference_walk(spec.markov, 1, rng)
    states = np.concatenate([next(walk) for _ in range(n + 1)])[1:]
    rows = np.array([law_at(spec.emission, t + 1)[s] for t, s in enumerate(states)])
    X = reference_emit(spec.emission, rows, np.arange(n), rng)
    return X, np.asarray(spec.label_map, dtype=np.int64)[states]


def reference_target(spec, m, rng):
    """(inputs, labels) of sample_target: m states drawn from pi*, then
    their points from the undrifted law."""
    pistar = stationary_distribution(spec.markov)
    states = reference_draw(pistar[None], np.zeros(m, dtype=np.int64), rng)
    X = reference_emit(spec.emission, spec.emission.rows, states, rng)
    return X, np.asarray(spec.label_map, dtype=np.int64)[states]


def reference_batch(spec, n, trials, rng):
    """(inputs, labels) of sample_sequences_batch: every chain's states
    H_1..H_n first, then the points time by time."""
    walk = reference_walk(spec.markov, trials, rng)
    next(walk)
    states = np.stack([next(walk) for _ in range(n)], axis=1)
    X = np.stack([reference_emit(spec.emission, law_at(spec.emission, t + 1), states[:, t], rng)
                  for t in range(n)], axis=1)
    return X, np.asarray(spec.label_map, dtype=np.int64)[states]


def reference_means(spec, f, n, trials, rng):
    """Per-trial path means of sequence_value_means for one function: a
    vectorized callable f(inputs, labels), or for discrete emissions a value
    table over (alphabet point, label). Each step draws the chains' states
    and then their points."""
    walk = reference_walk(spec.markov, trials, rng)
    next(walk)
    labels = np.asarray(spec.label_map, dtype=np.int64)
    total = np.zeros(trials)
    for t in range(n):
        cur = next(walk)
        rows = law_at(spec.emission, t + 1)
        if callable(f):
            total += f(reference_emit(spec.emission, rows, cur, rng), labels[cur])
        else:
            total += f[reference_draw(rows, cur, rng), labels[cur] - 1]
    return total / n


# -- networks and complexity --------------------------------------------------

def reference_forward(params, x):
    """Per-vector forward pass: one matrix-vector product per layer."""
    v = np.asarray(x, dtype=np.float64)
    for W, act in zip(params.layers, params.activations):
        v = act.apply(W @ v)
    return v


def reference_margin(v, j):
    """Per-vector margin: the true score minus the largest other score."""
    v = np.asarray(v, dtype=np.float64)
    return float(v[j - 1] - np.delete(v, j - 1).max())


def reference_exact(F, path_block):
    """Exact conditional complexity of every path of F (members, paths, n),
    path blocks of `path_block` and sign blocks of 65536 enumerated in
    order, with no grouping of repeated paths: the block loop the kernel
    runs per group."""
    paths, n = F.shape[1], F.shape[2]
    count = 1 << n
    total = np.zeros(paths)
    for start in range(0, count, 65536):
        codes = np.arange(start, min(start + 65536, count), dtype=np.uint64)[:, None]
        bits = (codes >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
        signs = bits.astype(np.float64) * 2.0 - 1.0
        for p in range(0, paths, path_block):
            sups = np.tensordot(F[:, p:p + path_block], signs, axes=([2], [1])).max(axis=0)
            total[p:p + path_block] += sups.sum(axis=1)
    return total / count / n


# -- singular values ----------------------------------------------------------
# One-sided Jacobi orthogonalization of columns: simple enough to audit by
# hand, and sharing no code path with the power iteration under test. The
# routine itself is cross-checked against LAPACK in test_norms.

def _round_robin(n):
    """The n - 1 rounds of a round-robin tournament on an even number n of
    columns (Brent & Luk 1985): each round splits the columns into n / 2
    disjoint pairs, and every pair meets exactly once per sweep. Column 0
    stays put while the others rotate one place a round."""
    order = list(range(n))
    rounds = []
    for _ in range(n - 1):
        rounds.append((np.array(order[: n // 2]), np.array(order[n // 2:][::-1])))
        order = [order[0], order[-1]] + order[1:-1]
    return rounds


def jacobi_singular_values(A, tol=1e-14, max_sweeps=100):
    """All singular values of a real matrix, descending.

    Rotates column pairs until every pair is orthogonal to relative
    tolerance `tol`; the column norms are then the singular values. A sweep
    takes the round-robin rounds in turn and rotates the disjoint pairs of
    one round at once; an odd column count gets one zero column, which no
    rotation touches.
    """
    A = np.array(A, dtype=np.float64, copy=True)
    if A.ndim != 2:
        raise ValueError("needs a matrix")
    m, n = A.shape
    if m < n:
        A = A.T
        m, n = n, m
    A = np.hstack([A, np.zeros((m, n % 2))])
    rounds = _round_robin(A.shape[1])
    for _ in range(max_sweeps):
        rotated = False
        for p, q in rounds:
            ap = A[:, p]
            aq = A[:, q]
            alpha = (ap * ap).sum(axis=0)
            beta = (aq * aq).sum(axis=0)
            gamma = (ap * aq).sum(axis=0)
            active = ((alpha != 0.0) & (beta != 0.0)
                      & (np.abs(gamma) > tol * np.sqrt(alpha * beta)))
            if not active.any():
                continue
            rotated = True
            ap, aq = ap[:, active], aq[:, active]
            zeta = (beta[active] - alpha[active]) / (2.0 * gamma[active])
            t = np.sign(zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
            t[zeta == 0.0] = 1.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            A[:, p[active]] = c * ap - s * aq
            A[:, q[active]] = s * ap + c * aq
        if not rotated:
            break
    values = np.sqrt((A[:, :n] * A[:, :n]).sum(axis=0))
    values.sort()
    return values[::-1]


def jacobi_spectral_norm(A, tol=1e-14):
    """Largest singular value via the Jacobi sweep."""
    return float(jacobi_singular_values(A, tol=tol)[0])
