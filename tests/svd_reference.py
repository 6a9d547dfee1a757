"""Independent singular-value oracle used only by the test suite.

One-sided Jacobi orthogonalization of columns. Simple enough to audit by
hand, and it shares no code path with the power iteration under test. The
routine itself is cross-checked against LAPACK in test_norms.
"""

import numpy as np


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
