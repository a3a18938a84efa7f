"""Reference categorical draws for the sampling tests.

``draw_categorical_reference`` is the running-sum scan ``hsilab.envs``
drew every categorical sample with before the samplers kept cumulative
rows, kept verbatim; ``emit_observation_reference`` is the emission draw
that scan made.  The samplers must pick the same index for every uniform
and take the same draws from each stream.
"""

import numpy as np


def draw_categorical_reference(p, gen):
    """One sample from a probability row using a single ``gen.random()``
    draw (``gen`` is a numpy Generator or a ``BlockStream``).

    When rounding leaves the row's running sum at or below the draw, the
    sample is the last index with positive mass, never a zero-mass one.
    """
    u = gen.random()
    row = p.tolist() if isinstance(p, np.ndarray) else p
    acc = 0.0
    for idx, w in enumerate(row):
        acc += w
        if u < acc:
            return idx
    return _last_positive(row)


def _last_positive(row):
    """The last index of a row with positive mass (0 when there is none):
    the draw for a uniform at or above the row's running sum."""
    for idx in range(len(row) - 1, 0, -1):
        if row[idx] > 0.0:
            return idx
    return 0


def emit_observation_reference(m, h, s, q, rng):
    """The step-h symbol of state s under query set q: the scan on the
    emission column of the state's hidden-value code."""
    table = m.emissions[(h, q)]
    return draw_categorical_reference(table[:, m.query_codes(q)[1][s]], rng.emission)
