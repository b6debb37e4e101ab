"""Independent oracle of the library's one sampler, ``caratheodory._fill_rows``.

Written from the documented seed-to-measure map with whole-group draws and
group-sized temporaries, so the tests that compare against it do not run
the code they check.
"""

import math

import numpy as np


def reference_group_samples(seed, group_index, samples, k_atoms):
    """(weights, angles) of rows 0..samples-1 of the stream of sweep group
    ``group_index`` at ``seed``: row i keeps (i % k_atoms) + 1 atoms, and its
    weights are divided by their sum taken left to right in atom order."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(group_index),))
    rng = np.random.Generator(np.random.PCG64(ss))
    k = k_atoms
    draws = rng.random((samples, 2 * k))
    angles = 2.0 * math.pi * draws[:, :k]
    raw = 0.05 + 0.95 * draws[:, k:]
    active = np.arange(k)[None, :] < ((np.arange(samples) % k) + 1)[:, None]
    weights = np.where(active, raw, 0.0)
    total = weights[:, 0].copy()
    for j in range(1, k):
        total += weights[:, j]
    weights /= total[:, None]
    return weights, angles
