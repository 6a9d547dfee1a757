#!/usr/bin/env python3
# Train a small network on a drifting Gaussian-emission sequence and look
# at the losses the certificate starts from.

import numpy as np

from mixcert import (
    Architecture,
    EmissionSpec,
    MarkovSpec,
    ProcessSpec,
    TrainConfig,
    margins_batch,
    forward_batch,
    ramp_loss,
    sample_sequence,
    train_sgd,
)

spec = ProcessSpec(
    markov=MarkovSpec(num_states=2,
                      transition=np.array([[0.9, 0.1], [0.1, 0.9]]),
                      initial=np.array([1.0, 0.0])),
    emission=EmissionSpec.gaussian(means=np.array([[1.0, 1.0], [-1.0, -1.0]]),
                                   sigma=0.5,
                                   drift_means=np.array([[1.0, -1.0], [-1.0, 1.0]]),
                                   drift_amplitude=0.5, drift_exponent=0.5),
    label_map=(1, 2), num_classes=2, input_dim=2)

data = sample_sequence(spec, 1000, seed=42)
print("sequence sample: n =", data.inputs.shape[0], " d =", data.inputs.shape[1])
print("label counts:", np.bincount(data.labels)[1:])

arch = Architecture(dims=(2, 16, 2), activations=("relu", "identity"))
result = train_sgd(data, arch,
                   TrainConfig(learning_rate=0.05, epochs=30, batch_size=64, seed=7))

print()
print("cross-entropy per epoch (every 5th):")
for e, loss in enumerate(result.epoch_losses):
    if e % 5 == 0 or e == len(result.epoch_losses) - 1:
        print(f"  epoch {e:>3}: {loss:.4f}")

scores = forward_batch(result.params, data.inputs)
margins = margins_batch(scores, data.labels)
print()
print("margin distribution on the training path:")
for q in (0.05, 0.25, 0.5, 0.75, 0.95):
    print(f"  q{int(100 * q):02d} = {np.quantile(margins, q):+.3f}")

print()
print("zero-one loss (ties count as errors):",
      np.mean(margins <= 0.0))
for gamma in (0.25, 0.5, 1.0, 2.0):
    print(f"ramp loss at gamma={gamma:>4}: "
          f"{np.mean(ramp_loss(-margins, gamma)):.4f}")
print()
print("the ramp loss grows with gamma: a wider margin requirement is")
print("harder to meet, and it upper-bounds the zero-one loss at every gamma.")
