"""Three routes to the complexity of a function class on one sample.

Exact enumeration is the ground truth on short paths, the Monte Carlo
estimator tracks it with a quantified standard error, and the covering
bound is the only route that scales, at the price of looseness.
"""

import numpy as np

from mixcert import (
    EmissionSpec,
    LayerNorms,
    MarkovSpec,
    NetworkParams,
    ProcessSpec,
    covering_bound_terms,
    empirical_rademacher_exact,
    empirical_rademacher_mc,
    sample_sequence,
    table_class,
)

spec = ProcessSpec(
    markov=MarkovSpec(num_states=2,
                      transition=np.array([[0.8, 0.2], [0.3, 0.7]]),
                      initial=np.array([1.0, 0.0])),
    emission=EmissionSpec.discrete(alphabet=np.array([[0.0], [1.0]]),
                                   table=np.eye(2)),
    label_map=(1, 2), num_classes=2, input_dim=1)
data = sample_sequence(spec, 10, seed=1)

alphabet = np.array([[0.0], [1.0]])
fclass = table_class(alphabet, [np.eye(2),
                                np.full((2, 2), 0.5),
                                np.array([[0.1, 0.9], [0.8, 0.2]]),
                                np.array([[1.0, 0.0], [1.0, 0.0]])])

exact = empirical_rademacher_exact(fclass, data)
print(f"exact enumeration over 2^{data.inputs.shape[0]} sign vectors:")
print(f"  R_hat = {exact.value:.10f}")

print()
print("Monte Carlo with growing budgets:")
for trials in (100, 1000, 10000, 100000):
    mc = empirical_rademacher_mc(fclass, data, trials=trials, seed=3)
    gap = abs(mc.value - exact.value)
    print(f"  trials={trials:>6}: {mc.value:.6f} +- {mc.stderr:.6f}"
          f"   |gap| = {gap:.6f} ({gap / mc.stderr if mc.stderr else 0.0:.2f} se)")

# the certificate never enumerates; it uses the covering-number route
print()
print("covering-number bound for a two-layer network class, n = 1000:")
norms = LayerNorms(spectral=(2.0, 1.5), two_one=(4.0, 3.0))
for gamma in (2.0, 1.0, 0.5, 0.25):
    first, second = covering_bound_terms(B=30.0, gamma=gamma, W=64, n=1000,
                                         norms=norms)
    print(f"  gamma={gamma:>5}: small term {first:.6f}, complexity term {second:.4f}")
print()
print("halving gamma doubles the complexity term exactly; the small term")
print("is gamma-free. Both are upper bounds, not estimates.")
