"""Shared generators for randomized tests.

Every test draws through a locally seeded numpy Generator so the suite is
reproducible run to run; nothing here touches global RNG state.
"""

import numpy as np

from concentrate import new_spectrum


def random_spectrum(rng, d, floor=0.02):
    """A generic random spectrum with entries bounded away from zero."""
    raw = rng.dirichlet(np.ones(d)) + floor
    return new_spectrum(raw, renormalize=True)


def gentle_spectrum(rng, d):
    """Spectra mild enough for the 1e4-step grid oracle's 2e-4 window.

    The grid oracle's discretization error scales with log2(p_max/p_min),
    so d = 2 draws keep p_1 in [0.52, 0.76] and d = 3 draws floor every
    entry at 0.08.
    """
    if d == 2:
        p1 = rng.uniform(0.52, 0.76)
        return new_spectrum([p1, 1.0 - p1])
    raw = rng.dirichlet(np.ones(d)) + 0.08 * d
    return new_spectrum(raw, renormalize=True)


def near_uniform_spectrum(rng, d, wobble=0.15):
    """Almost-flat spectrum, as needed by the fidelity constructions."""
    raw = np.ones(d) + wobble * rng.uniform(size=d)
    return new_spectrum(raw, renormalize=True)
