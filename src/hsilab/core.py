"""Shared vocabulary: dimensions, sub-state vector codecs, the per-step
feedback record and the package's exceptions.

A state is a length-``d`` vector of sub-state values, each value in
``range(alphabet_size)``.  States are stored flat as integers via a
little-endian mixed-radix code: index = sum_i v[i] * alphabet_size**i.
Query sets are sorted tuples of sub-state indices.
"""

from dataclasses import dataclass
from itertools import combinations


class ConfigError(ValueError):
    """Malformed config/model file; message carries file and line."""


class OracleSizeError(RuntimeError):
    """Exact computation would exceed its configured size cap."""


class UnsupportedFeedbackError(ValueError):
    """Requested feedback channel does not exist for this model."""


def check_state_space(alphabet_size, d):
    """Refuse |alphabet|^d states beyond the index type, without computing
    the power of a huge d."""
    if alphabet_size >= 2 and (d > 62 or alphabet_size**d > 2**62):
        raise ValueError(
            f"state space |alphabet|^d = {alphabet_size}^{d} "
            "overflows the index type"
        )


@dataclass(frozen=True)
class Dims:
    """Problem sizes shared by environments, agents and the planner.

    d           -- number of sub-states per state vector
    alphabet_size -- values each sub-state can take
    d_query     -- sub-states revealed per hindsight query
    horizon     -- steps per episode
    n_actions   -- actions per step
    n_observations -- observation symbols (0 when the task emits none)
    """

    d: int
    alphabet_size: int
    d_query: int
    horizon: int
    n_actions: int
    n_observations: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.alphabet_size < 1:
            raise ValueError(f"alphabet_size must be >= 1, got {self.alphabet_size}")
        if not 1 <= self.d_query <= self.d:
            raise ValueError(f"d_query must be in [1, d={self.d}], got {self.d_query}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.n_actions < 1:
            raise ValueError(f"n_actions must be >= 1, got {self.n_actions}")
        if self.n_observations < 0:
            raise ValueError(f"n_observations must be >= 0, got {self.n_observations}")
        check_state_space(self.alphabet_size, self.d)

    @property
    def n_states(self):
        """Number of joint states |alphabet|^d."""
        return self.alphabet_size**self.d

    @property
    def n_hidden(self):
        """Joint values of the d - d_query sub-states a query leaves hidden."""
        return self.alphabet_size ** (self.d - self.d_query)

    @property
    def n_query_values(self):
        """Joint values of the d_query sub-states a query reveals."""
        return self.alphabet_size**self.d_query

    @property
    def n_evidence_rows(self):
        """Rows of an evidence kernel, one per (revealed value code, emitted
        symbol); also the children of a policy-graph node."""
        return self.n_query_values * max(self.n_observations, 1)

    def query_sets(self):
        """All sorted d_query-subsets of sub-state indices, lexicographic."""
        return list(combinations(range(self.d), self.d_query))


def encode_state(values, alphabet_size):
    """Flat index of a sub-state vector (little-endian mixed radix).

    >>> encode_state([2, 1], 3)
    5
    """
    idx = 0
    for pos, v in enumerate(values):
        v = int(v)
        if not 0 <= v < alphabet_size:
            raise ValueError(f"sub-state value {v} outside [0, {alphabet_size})")
        idx += v * alphabet_size**pos
    return idx


def decode_state(index, alphabet_size, d):
    """Inverse of encode_state; returns a length-d tuple of ints."""
    index = int(index)
    if not 0 <= index < alphabet_size**d:
        raise ValueError(f"state index {index} outside [0, {alphabet_size ** d})")
    out = []
    for _ in range(d):
        out.append(index % alphabet_size)
        index //= alphabet_size
    return tuple(out)


@dataclass(slots=True)
class Feedback:
    """What the environment reveals after one step's action; slotted, so
    it takes no attribute beyond these four fields.

    query       -- the sub-state indices the agent asked for
    hsi         -- (index, value) pairs for the queried sub-states of the
                   state the action was taken in (arrives after the action)
    observation -- emitted symbol, or None for tasks without emissions
    reward      -- realized scalar reward for the step
    """

    query: tuple
    hsi: tuple
    observation: int | None
    reward: float

    def values(self):
        """Just the revealed values of ``hsi``, in query order."""
        return tuple(v for _, v in self.hsi)
