"""Independent oracle of the library's one sampler, ``caratheodory._fill_rows``.

Written from the documented seed-to-measure map with whole-group draws and
group-sized temporaries, so the tests that compare against it do not run
the code they check.
"""

import math

import numpy as np


def reference_group_samples(seed, group_index, samples, k_atoms):
    """(weights, angles) of rows 0..samples-1 of the stream of sweep group
    ``group_index`` at ``seed``, of shapes (samples, k) and (samples, k - 1).

    Row i takes 2k - 1 draws: the angles of atoms 1..k-1, then k weights.
    Atom 0 sits at angle 0.  Row i keeps (i % (k - 1)) + 2 atoms (k >= 2),
    and its weights are divided by their sum taken left to right in
    atom order."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(group_index),))
    rng = np.random.Generator(np.random.PCG64(ss))
    k = k_atoms
    draws = rng.random((samples, 2 * k - 1))
    angles = 2.0 * math.pi * draws[:, :k - 1]
    raw = 0.05 + 0.95 * draws[:, k - 1:]
    kept = (np.arange(samples) % (k - 1)) + 2
    weights = np.where(np.arange(k)[None, :] < kept[:, None], raw, 0.0)
    total = weights[:, 0].copy()
    for j in range(1, k):
        total += weights[:, j]
    weights /= total[:, None]
    return weights, angles


def reference_measures(seed, group_index, samples, k_atoms):
    """The rows of :func:`reference_group_samples` as (weights, angles)
    pairs of the atoms they keep, with atom 0's angle 0 written out."""
    weights, angles = reference_group_samples(seed, group_index, samples,
                                              k_atoms)
    full = np.hstack([np.zeros((samples, 1)), angles])
    return [(w[w > 0], a[w > 0]) for w, a in zip(weights, full)]
