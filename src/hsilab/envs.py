"""Tabular environment models, samplers, hard-instance builders, diagnostics.

An EnvModel is an episodic tabular model over a finite state list.  Each
state has a vector representation (row of ``state_vectors``); hindsight
queries reveal entries of that vector.  Transitions are stored either as a
joint table P_h[s, a, s'] or in product form as per-sub-state tables
P_{h,i}[v, a, v'] (sub-states evolve independently).  Rewards are Bernoulli
means r_h[s, a].  Models with partial emissions additionally carry, for
every (step, query set), a table E[o, u] whose columns (one per joint value
``u`` of the unqueried sub-states) are distributions over observations.

The model is also the one place that decides how likely a step's feedback
is in each state: ``EnvModel.evidence_stack`` caches per step the evidence
kernels of every query set in one array, and ``EnvModel.evidence`` is a
view of one query set's block.  Likewise every categorical draw is one
``bisect_right`` of a uniform on a cumulative row (``_cumulative``) built
once and kept: the initial and product-form rows in ``sampling_rows``, a
joint-form row and an emission column on their first draw.  ``_blocks`` is
the one way a generator's draws are served from blocks (each
``SampleRng`` stream, the uniform baseline's pairs).
"""

import hashlib
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

from .core import (
    Dims,
    OracleSizeError,
    UnsupportedFeedbackError,
    check_state_space,
    decode_state,
    encode_state,
)

CLASS_TAGS = ("Class1", "Class2", "Generic")

ATOL = 1e-12

# Largest table a builder may allocate, in float64 cells (1 GiB).
MAX_TABLE_CELLS = 2**27

# Draws per ``_blocks`` refill: a SampleRng stream's doubles and the
# uniform baseline's bounded integers.
BLOCK_DRAWS = 4096


def derive_generator(seed, label):
    """Independent numpy generator for (seed, stream label)."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _blocks(draw):
    """The values of successive ``draw()`` calls, in order, one call per
    block, each made once the previous block is used up.  A memoryview
    makes each number only when it is read."""
    while True:
        yield from memoryview(draw())


class BlockStream:
    """``gen``'s doubles served by ``_blocks`` from ``random(BLOCK_DRAWS)``
    calls: ``random()`` is the next double, ``take(n)`` the next n as a
    list.  ``Generator.random(n)`` yields the same doubles, in order, as n
    scalar calls, so these are the scalar ``gen.random()`` draws, and after
    a whole number of blocks ``gen`` is where those draws leave it."""

    __slots__ = ("gen", "random", "_doubles")

    def __init__(self, gen):
        self.gen = gen
        self._doubles = _blocks(partial(gen.random, BLOCK_DRAWS))
        self.random = self._doubles.__next__

    def take(self, n):
        return list(islice(self._doubles, n))


class SampleRng:
    """Named random streams for one run: init/transition/reward/emission.

    Separate streams mean a change in the agent's query policy (which only
    affects emission draws) never perturbs transitions or rewards.  Each
    stream is a ``BlockStream`` over its own derived generator: its doubles
    come from blocks of ``BLOCK_DRAWS``, in stream order.
    """

    STREAMS = ("init", "transition", "reward", "emission")

    def __init__(self, seed):
        for label in self.STREAMS:
            setattr(self, label, BlockStream(derive_generator(int(seed), label)))


def _cumulative(row):
    """A probability row (a list) made ready for ``_bisect``: its running
    sums in an ``array('d')``, added in order as a scan adds them, and the
    index a uniform selects when no running sum exceeds it, the last index
    with positive mass (0 when there is none).  Each stored sum is the
    largest so far, so the array stays sorted when the validation tolerance
    lets a mass dip below 0, and the first stored sum above ``u`` is still
    the first running sum above it."""
    sums, acc, top, last = array("d"), 0.0, -np.inf, 0
    for idx, w in enumerate(row):
        acc += w
        if acc > top:
            top = acc
        sums.append(top)
        if w > 0.0:
            last = idx
    return sums, last


def _bisect(cumulative, u):
    """The index a uniform ``u`` selects in a ``_cumulative`` row: the first
    whose running sum exceeds ``u``, else the row's fallback."""
    sums, last = cumulative
    idx = bisect_right(sums, u)
    return idx if idx < len(sums) else last


def _pick(row, u):
    """The index a uniform ``u`` selects in a probability row (a list): the
    first whose running sum exceeds ``u``.  When rounding leaves the running
    sum at or below ``u``, it is the last index with positive mass (0 when
    there is none), never a zero-mass one.  It is ``_bisect`` of the row's
    ``_cumulative``, the draw the samplers make on their kept rows."""
    return _bisect(_cumulative(row), u)


def _draw_categorical(p, gen):
    """One sample from a probability row using a single ``gen.random()``
    draw (``gen`` is a numpy Generator or a ``BlockStream``), picked by
    ``_pick``.  The agents draw this way from rows that change between
    draws; the env samplers bisect their kept rows."""
    u = gen.random()
    return _pick(p.tolist() if isinstance(p, np.ndarray) else p, u)


def canonical_state_vectors(dims):
    """(n_states, d) array enumerating every vector in mixed-radix order."""
    return np.array(
        [decode_state(s, dims.alphabet_size, dims.d) for s in range(dims.n_states)],
        dtype=np.int64,
    ).reshape(dims.n_states, dims.d)


@dataclass
class EnvModel:
    """Immutable-after-build tabular model; validate() checks all invariants.

    transitions: ``joint`` of shape (H-1, S, A, S) or ``product`` of shape
    (H-1, d, V, A, V); exactly one is set, and ``transition_form`` names it.
    ``emissions`` maps (h, query) -> (n_obs, n_hidden) column-stochastic
    tables, for models whose class_tag is Class2; otherwise None.
    Per-query value codes, per-step evidence stacks, the evidence row of
    each fitting feedback and the samplers' cumulative rows are cached on
    first use.
    """

    name: str
    dims: Dims
    class_tag: str
    initial: np.ndarray
    rewards: np.ndarray
    state_vectors: np.ndarray
    joint: np.ndarray | None = None
    product: np.ndarray | None = None
    emissions: dict | None = None
    _joint_cache: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _codes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _evidence: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _evidence_slices: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _index: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _rows: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _joint_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _emission_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_states(self):
        return self.state_vectors.shape[0]

    @property
    def transition_form(self):
        return "joint" if self.product is None else "product"

    @classmethod
    def from_joint(
        cls,
        name,
        dims,
        class_tag,
        initial,
        joint,
        rewards,
        state_vectors=None,
        emissions=None,
    ):
        if state_vectors is None:
            state_vectors = canonical_state_vectors(dims)
        m = cls(
            name=name,
            dims=dims,
            class_tag=class_tag,
            initial=np.asarray(initial, dtype=float),
            rewards=np.asarray(rewards, dtype=float),
            state_vectors=np.asarray(state_vectors, dtype=np.int64),
            joint=np.asarray(joint, dtype=float),
            emissions=emissions,
        )
        m.validate()
        return m

    @classmethod
    def from_product(cls, name, dims, class_tag, initial, product, rewards, emissions=None):
        m = cls(
            name=name,
            dims=dims,
            class_tag=class_tag,
            initial=np.asarray(initial, dtype=float),
            rewards=np.asarray(rewards, dtype=float),
            state_vectors=canonical_state_vectors(dims),
            product=np.asarray(product, dtype=float),
            emissions=emissions,
        )
        m.validate()
        return m

    # -- invariants ---------------------------------------------------------

    def validate(self):
        dims = self.dims
        S, d, V, H, A = (
            self.n_states,
            dims.d,
            dims.alphabet_size,
            dims.horizon,
            dims.n_actions,
        )
        if self.class_tag not in CLASS_TAGS:
            raise ValueError(f"unknown class_tag {self.class_tag!r}")
        if (self.joint is None) == (self.product is None):
            raise ValueError("exactly one of joint and product must be set")
        if self.state_vectors.shape != (S, d):
            raise ValueError(f"state_vectors shape {self.state_vectors.shape}")
        if self.state_vectors.min(initial=0) < 0 or self.state_vectors.max(initial=0) >= V:
            raise ValueError("state vector entry outside the alphabet")
        if len(np.unique(self.state_vectors, axis=0)) != S:
            raise ValueError("state vectors must be pairwise distinct")
        tables = {
            "initial": self.initial,
            "rewards": self.rewards,
            "joint": self.joint,
            "product": self.product,
        }
        for key, table in (self.emissions or {}).items():
            tables[f"emissions {key}"] = table
        for label, table in tables.items():
            if table is not None and not np.isfinite(np.asarray(table, dtype=float)).all():
                raise ValueError(f"non-finite value in {label}")
        if self.initial.shape != (S,):
            raise ValueError(f"initial shape {self.initial.shape}, want ({S},)")
        if self.initial.min() < -ATOL or abs(self.initial.sum() - 1.0) > ATOL:
            raise ValueError("initial distribution not normalized")
        if self.rewards.shape != (H, S, A):
            raise ValueError(f"rewards shape {self.rewards.shape}, want {(H, S, A)}")
        if self.rewards.min() < 0.0 or self.rewards.max() > 1.0:
            raise ValueError("reward means must lie in [0, 1]")

        if self.transition_form == "joint":
            if self.joint.shape != (H - 1, S, A, S):
                raise ValueError(f"joint shape {self.joint.shape}")
            rows = self.joint.reshape(-1, S)
        else:
            if self.product.shape != (H - 1, d, V, A, V):
                raise ValueError(f"product shape {self.product.shape}")
            if S != dims.n_states:
                raise ValueError("product form requires the full canonical state list")
            rows = self.product.reshape(-1, V)
        if H > 1:
            if rows.min() < -ATOL:
                raise ValueError("negative transition probability")
            if np.abs(rows.sum(axis=1) - 1.0).max() > ATOL:
                raise ValueError("transition row does not sum to 1")

        if self.class_tag == "Class2":
            if not self.emissions:
                raise ValueError("Class2 model requires emission tables")
            if dims.n_observations < 1:
                raise ValueError("Class2 model requires n_observations >= 1")
            want_keys = {(h, q) for h in range(1, H + 1) for q in dims.query_sets()}
            if set(self.emissions) != want_keys:
                raise ValueError("emissions must cover every (step, query set)")
            for key, table in self.emissions.items():
                table = np.asarray(table, dtype=float)
                if table.shape != (dims.n_observations, dims.n_hidden):
                    raise ValueError(f"emission table shape {table.shape} at {key}")
                if table.min() < -ATOL:
                    raise ValueError(f"negative emission probability at {key}")
                if np.abs(table.sum(axis=0) - 1.0).max() > ATOL:
                    raise ValueError(f"emission column not normalized at {key}")
        elif self.emissions:
            raise ValueError(f"{self.class_tag} model must not carry emission tables")
        return self

    # -- derived tables -----------------------------------------------------

    def joint_transitions(self):
        """(H-1, S, A, S) table; product form is expanded once and cached."""
        if self.joint is not None:
            return self.joint
        if self._joint_cache is None:
            sv = self.state_vectors
            H1 = self.dims.horizon - 1
            out = np.ones((H1, self.n_states, self.dims.n_actions, self.n_states))
            for i in range(self.dims.d):
                k = self.product[:, i]  # (H-1, V, A, V)
                out *= k[:, sv[:, i]][:, :, :, sv[:, i]]
            self._joint_cache = out
        return self._joint_cache

    def query_codes(self, query):
        """Per-state little-endian codes of the values a query reveals and
        of the values it leaves hidden (ascending positions), cached."""
        codes = self._codes.get(query)
        if codes is None:
            hidden = [i for i in range(self.dims.d) if i not in query]
            codes = tuple(
                self.state_vectors[:, list(pos)]
                @ self.dims.alphabet_size ** np.arange(len(pos), dtype=np.int64)
                for pos in (query, hidden)
            )
            self._codes[query] = codes
        return codes

    def sampling_rows(self):
        """The ``_cumulative`` initial row, in product form the (H-1, d, V,
        A) nested lists of ``_cumulative`` transition rows (else None), and
        the (S, d) state vectors as nested lists of ints, built once and
        cached, so each draw and each revealed value reads Python objects
        without converting a row.  Joint-form rows are cumulated only as
        they are drawn (``joint_row``)."""
        if self._rows is None:
            product = None
            if self.product is not None:
                product = [
                    [[[_cumulative(row) for row in cell] for cell in sub] for sub in step]
                    for step in self.product.tolist()
                ]
            self._rows = (
                _cumulative(self.initial.tolist()), product, self.state_vectors.tolist()
            )
        return self._rows

    def joint_row(self, h, s, a):
        """The ``_cumulative`` joint transition row of (step h, state s,
        action a), built on its first draw and kept in step h's table of
        S x A slots.  The cache holds only rows that were drawn, so it never
        holds more doubles than the joint table."""
        slots = self._joint_rows.get(h)
        if slots is None:
            slots = self._joint_rows[h] = [None] * (self.n_states * self.dims.n_actions)
        at = s * self.dims.n_actions + a
        row = slots[at]
        if row is None:
            row = slots[at] = _cumulative(self.joint[h - 1, s, a].tolist())
        return row

    def evidence_stack(self, h):
        """Evidence kernels of step-h feedback under every query set, stacked
        in one ``(Q * R, S)`` array and cached, with R =
        ``dims.n_evidence_rows``: rows ``qi * R`` to ``qi * R + R`` hold the
        kernel of query set ``qi`` (``evidence``).  A stack over
        MAX_TABLE_CELLS cells raises OracleSizeError before it is allocated.
        """
        stack = self._evidence.get(h)
        if stack is None:
            qsets = self.dims.query_sets()
            R, S = self.dims.n_evidence_rows, self.n_states
            if len(qsets) * R * S > MAX_TABLE_CELLS:
                raise OracleSizeError(
                    f"model {self.name!r} needs a ({len(qsets) * R}, {S}) step-{h} "
                    f"evidence stack, over the cap of {MAX_TABLE_CELLS} cells"
                )
            n_obs = max(self.dims.n_observations, 1)
            stack = np.zeros((len(qsets) * R, S))
            cols = np.arange(S)
            for qi, query in enumerate(qsets):
                self._evidence_slices[query] = slice(qi * R, qi * R + R)
                vcode, hcode = self.query_codes(query)
                rows = qi * R + vcode * n_obs + np.arange(n_obs)[:, None]
                if self.emissions:
                    table = np.asarray(self.emissions[(h, query)], dtype=float)
                    stack[rows, cols] = table[:, hcode]
                else:
                    stack[rows[0], cols] = 1.0
            self._evidence[h] = stack
        return stack

    def evidence(self, h, query):
        """Evidence kernel of step-h feedback under a query: a view of its
        block of ``evidence_stack(h)``.

        Shape (``dims.n_evidence_rows``, S): with n_obs = max(n_observations,
        1), row ``v * n_obs + o`` holds, per state, 1[value code = v] times the
        probability of emitting symbol o from the state's hidden values.  A
        model without emissions has indicator rows at o = 0 and zero rows
        elsewhere, so rows line up with each node's ``PolicyGraph.children``.
        """
        stack = self.evidence_stack(h)  # fills the query sets' blocks
        return stack[self._evidence_slices[query]]

    def evidence_index(self, h, feedback):
        """Row of the step-h evidence kernel that one step's feedback
        (revealed values and emitted symbol) selects; raises
        UnsupportedFeedbackError when the symbol does not fit the model.

        Rows are cached by (``feedback.hsi``, ``feedback.observation``),
        which fix the row at every step; feedback that does not fit is never
        cached, so it raises on every call.  On the model's query sets the
        cache holds at most Q x ``dims.n_evidence_rows`` entries.
        """
        key = (feedback.hsi, feedback.observation)
        row = self._index.get(key)
        if row is None:
            n_obs = max(self.dims.n_observations, 1)
            obs = feedback.observation
            emits = bool(self.emissions)
            if (obs is not None) != emits or not 0 <= (obs or 0) < n_obs:
                raise UnsupportedFeedbackError(
                    f"observation {obs!r} at step {h} does not fit model "
                    f"{self.name!r} ({self.class_tag})"
                )
            vcode = encode_state(feedback.values(), self.dims.alphabet_size)
            row = self._index[key] = vcode * n_obs + (obs or 0)
        return row


# -- sampling ---------------------------------------------------------------


def sample_initial(m, rng):
    """Draw the episode's first state index."""
    return _bisect(m.sampling_rows()[0], rng.init.random())


def transition(m, h, s, a, rng):
    """Draw the successor of (state s, action a) at step h (1 <= h <= H-1).

    Product-form models consume one transition draw per sub-state, taken
    together (the same doubles, in order, as d scalar draws), joint
    models one draw total; the count never depends on the sampled values.
    Each draw is ``_bisect`` of a kept cumulative row: a sub-state's row
    from ``sampling_rows``, whose values are encoded little-endian as
    ``encode_state``, or the joint row from ``joint_row``.
    """
    dims = m.dims
    if not 1 <= h <= dims.horizon - 1:
        raise ValueError(f"no transition out of step {h} (horizon {dims.horizon})")
    if m.product is not None:
        _, product, vectors = m.sampling_rows()
        rows = product[h - 1]
        V = dims.alphabet_size
        draws = rng.transition.take(dims.d)
        code, weight = 0, 1
        for sub_rows, v, u in zip(rows, vectors[s], draws):
            code += _bisect(sub_rows[v][a], u) * weight
            weight *= V
        return code
    return _bisect(m.joint_row(h, s, a), rng.transition.random())


def reward(m, h, s, a, rng):
    """Bernoulli reward draw with mean r_h[s, a]; always one draw."""
    mean = m.rewards.item(h - 1, s, a)
    return 1.0 if rng.reward.random() < mean else 0.0


def emit_observation(m, h, s, q, rng):
    """Draw the partial observation for step h under query set q.

    The symbol depends only on the sub-states the query leaves hidden: it
    is ``_bisect`` of the emission column of their value code, cumulated on
    its first draw and kept per (step, query, hidden-value code).  A query
    that is not one of the model's query sets (sorted tuples of distinct
    sub-state indices) has no emission table and raises
    UnsupportedFeedbackError, on every call and before anything is cached.
    """
    key = (h, q)
    columns = m._emission_rows.get(key)
    if columns is None:
        if m.class_tag != "Class2" or not m.emissions:
            raise UnsupportedFeedbackError(
                f"model {m.name!r} ({m.class_tag}) emits no partial observations"
            )
        if key not in m.emissions:
            raise UnsupportedFeedbackError(
                f"model {m.name!r} has no emission table for step {h}, query {q}"
            )
        columns = m._emission_rows[key] = (
            m.query_codes(q)[1].tolist(), [None] * m.dims.n_hidden
        )
    hidden, slots = columns
    code = hidden[s]
    column = slots[code]
    if column is None:
        column = slots[code] = _cumulative(m.emissions[key][:, code].tolist())
    return _bisect(column, rng.emission.random())


# -- hard-instance builders ---------------------------------------------------

EPSILON_MAX = float(np.sqrt(1.0 / 8.0))


def _check_table_size(horizon, n_states, n_actions):
    """Refuse sizes whose largest table exceeds MAX_TABLE_CELLS: the
    (H-1, S, A, S) joint transitions, or the (H, S, A) rewards when H = 1.
    Builders call this before they allocate anything."""
    cells = max((horizon - 1) * n_states, horizon) * n_states * n_actions
    if cells > MAX_TABLE_CELLS:
        raise ValueError(
            f"horizon {horizon}, {n_states} states and {n_actions} actions need "
            f"a {cells}-cell table, over the cap of {MAX_TABLE_CELLS} cells"
        )


def _check_epsilon(epsilon):
    if not 0.0 < epsilon <= EPSILON_MAX + ATOL:
        raise ValueError(f"epsilon must lie in (0, sqrt(1/8)], got {epsilon}")


def groups_state_vectors(d, d_query=1):
    """Vector representations of the two-group instance, group a then b.

    For d_query=1 (any d >= 2 whose 2d-value alphabet keeps the state
    space within ``Dims``'s bound, checked before any vector is built): 2d
    states over an alphabet of 2d values.
    Group a: the base vector [0..d-1], then for delta=2..d the base with
    entries delta-2, delta-1 replaced by d+delta-2, d+delta-1.  Group b:
    for delta=1..d the base with the single entry delta-1 replaced by
    d+delta-1.  For (d, d_query) = (3, 2) the explicit 8-state design over
    6 values is returned.  Other combinations are unsupported.
    """
    if d_query == 1:
        if d < 2:
            raise ValueError(f"need d >= 2, got {d}")
        check_state_space(2 * d, d)
        base = list(range(d))
        group_a = [tuple(base)]
        for delta in range(2, d + 1):
            v = list(base)
            v[delta - 2] = d + delta - 2
            v[delta - 1] = d + delta - 1
            group_a.append(tuple(v))
        group_b = []
        for delta in range(1, d + 1):
            v = list(base)
            v[delta - 1] = d + delta - 1
            group_b.append(tuple(v))
        return group_a, group_b
    if (d, d_query) == (3, 2):
        group_a = [(0, 1, 2), (0, 5, 3), (4, 1, 3), (4, 5, 2)]
        group_b = [(0, 1, 3), (4, 1, 2), (0, 5, 2), (4, 5, 3)]
        return group_a, group_b
    raise ValueError(
        f"two-group construction not defined for d={d}, d_query={d_query}"
    )


def build_hard_instance_groups(d, epsilon, d_query=1, n_actions=2):
    """Two-group hard instance: queries of d_query sub-states cannot tell
    the rewarding group from the matched decoy group.

    Horizon 4, two effective actions (extra actions copy the second's rows),
    start at the first group-a state, terminal reward mean 1/2+epsilon in
    group a and 1/2 in group b.
    """
    _check_epsilon(epsilon)
    if n_actions < 2:
        raise ValueError(f"need n_actions >= 2, got {n_actions}")
    group_a, group_b = groups_state_vectors(d, d_query)
    n_a = len(group_a)
    vectors = np.array(group_a + group_b, dtype=np.int64)
    S = len(vectors)
    _check_table_size(4, S, n_actions)
    alphabet = int(vectors.max()) + 1
    dims = Dims(
        d=d,
        alphabet_size=alphabet,
        d_query=d_query,
        horizon=4,
        n_actions=n_actions,
    )

    a_states = np.arange(n_a)
    b_states = np.arange(n_a, S)
    uniform_a = np.zeros(S)
    uniform_a[a_states] = 1.0 / n_a
    uniform_b = np.zeros(S)
    uniform_b[b_states] = 1.0 / (S - n_a)

    joint = np.zeros((3, S, 2, S))
    # step 1: first action keeps group-a starts in group a, second defects;
    # group-b rows go to group b under both actions.
    joint[0, a_states, 0] = uniform_a
    joint[0, a_states, 1] = uniform_b
    joint[0, b_states, :] = uniform_b
    # step 2: first action sends everything to group b, second preserves group.
    joint[1, :, 0] = uniform_b
    joint[1, a_states, 1] = uniform_a
    joint[1, b_states, 1] = uniform_b
    # step 3: roles swap — first action preserves group, second defects.
    joint[2, a_states, 0] = uniform_a
    joint[2, b_states, 0] = uniform_b
    joint[2, :, 1] = uniform_b

    if n_actions > 2:
        extra = np.repeat(joint[:, :, 1:2, :], n_actions - 2, axis=2)
        joint = np.concatenate([joint, extra], axis=2)

    rewards = np.zeros((4, S, n_actions))
    rewards[3, a_states, :] = 0.5 + epsilon
    rewards[3, b_states, :] = 0.5

    initial = np.zeros(S)
    initial[0] = 1.0

    return EnvModel.from_joint(
        name=f"groups-d{d}-q{d_query}",
        dims=dims,
        class_tag="Generic",
        initial=initial,
        joint=joint,
        rewards=rewards,
        state_vectors=vectors,
    )


def build_hard_instance_flat_emission(epsilon):
    """Two-sub-state product-form instance whose emissions carry no signal.

    Both sub-states share one deterministic kernel: step 1 writes the action
    (first action -> value 0), step 2 the first action forces value 1 while
    the second holds, step 3 the roles swap.  Only the action sequence
    (0, 1, 0) ends at [0, 0], the sole state whose terminal reward mean is
    1/2+epsilon; every emission column is flat, so observations never help.
    """
    _check_epsilon(epsilon)
    dims = Dims(
        d=2,
        alphabet_size=2,
        d_query=1,
        horizon=4,
        n_actions=2,
        n_observations=2,
    )
    kernel = np.zeros((3, 2, 2, 2))  # (step, value, action, next value)
    kernel[0, :, 0, 0] = 1.0
    kernel[0, :, 1, 1] = 1.0
    kernel[1, :, 0, 1] = 1.0
    kernel[1, 0, 1, 0] = 1.0
    kernel[1, 1, 1, 1] = 1.0
    kernel[2, 0, 0, 0] = 1.0
    kernel[2, 1, 0, 1] = 1.0
    kernel[2, :, 1, 1] = 1.0
    product = np.stack([kernel, kernel], axis=1)  # identical sub-state kernels

    rewards = np.zeros((4, 4, 2))
    rewards[3, :, :] = 0.5
    rewards[3, 0, :] = 0.5 + epsilon  # state [0, 0] has code 0

    initial = np.zeros(4)
    initial[0] = 1.0

    flat = np.full((2, 2), 0.5)
    emissions = {
        (h, q): flat.copy() for h in range(1, 5) for q in dims.query_sets()
    }

    return EnvModel.from_product(
        name="flat-emission",
        dims=dims,
        class_tag="Class2",
        initial=initial,
        product=product,
        rewards=rewards,
        emissions=emissions,
    )


def tree_depth(n_states, n_actions):
    """Smallest D with n_actions**D >= n_states (integer arithmetic)."""
    depth, reach = 0, 1
    while reach < n_states:
        reach *= n_actions
        depth += 1
    return depth


def tree_stay_action(m, n_actions):
    """1-based index of the action that holds state m in the stay phase."""
    return max(m % n_actions, 1)


def build_hard_instance_tree(
    alphabet_size, d, n_actions, epsilon, h0=None, m_star=None, horizon=None
):
    """Deterministic fan-out tree over all alphabet_size**d states.

    For the first D = ceil(log_A S) steps, action j (1-based) at state s(m)
    moves to s(A(m-1)+j), wrapping to s(1) past the last state; afterwards
    each state has one hold action (others reset to s(1)).  Reward appears
    only at step h0 (> D, default D+1) for the hold action, mean 1/2 except
    1/2+epsilon at the starred state (default: the last one).
    """
    _check_epsilon(epsilon)
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    check_state_space(alphabet_size, d)
    S = alphabet_size**d
    if n_actions > S:
        raise ValueError(f"need n_actions <= {S}, got {n_actions}")
    if n_actions < 2:
        raise ValueError(f"need n_actions >= 2, got {n_actions}")
    D = tree_depth(S, n_actions)
    if h0 is None:
        h0 = D + 1
    if m_star is None:
        m_star = S
    if horizon is None:
        horizon = h0
    if h0 <= D:
        raise ValueError(f"need h0 > {D}, got {h0}")
    if not 1 <= m_star <= S:
        raise ValueError(f"m_star must lie in [1, {S}], got {m_star}")
    if horizon < h0:
        raise ValueError(f"need horizon >= h0={h0}, got {horizon}")
    _check_table_size(horizon, S, n_actions)

    dims = Dims(
        d=d,
        alphabet_size=alphabet_size,
        d_query=1,
        horizon=horizon,
        n_actions=n_actions,
    )
    joint = np.zeros((horizon - 1, S, n_actions, S))
    for h in range(1, horizon):
        for m in range(1, S + 1):
            for j in range(1, n_actions + 1):
                if h <= D:
                    target = n_actions * (m - 1) + j
                    if target > S:
                        target = 1
                elif j == tree_stay_action(m, n_actions):
                    target = m
                else:
                    target = 1
                joint[h - 1, m - 1, j - 1, target - 1] = 1.0

    rewards = np.zeros((horizon, S, n_actions))
    for m in range(1, S + 1):
        mean = 0.5 + (epsilon if m == m_star else 0.0)
        rewards[h0 - 1, m - 1, tree_stay_action(m, n_actions) - 1] = mean

    initial = np.zeros(S)
    initial[0] = 1.0

    return EnvModel.from_joint(
        name=f"tree-v{alphabet_size}-d{d}-a{n_actions}",
        dims=dims,
        class_tag="Generic",
        initial=initial,
        joint=joint,
        rewards=rewards,
    )


def random_independent_model(dims, rng, name=None):
    """Random model with independently evolving sub-states.

    Per-sub-state transition rows are uniform-simplex draws, the initial
    distribution is a product of per-sub-state simplex draws, and every
    reward mean is uniform on [0, 1].  Identical (dims, seed) give
    bit-identical models.
    """
    _check_table_size(dims.horizon, dims.n_states, dims.n_actions)
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    d, V, H, A, S = (
        dims.d,
        dims.alphabet_size,
        dims.horizon,
        dims.n_actions,
        dims.n_states,
    )
    product = np.zeros((H - 1, d, V, A, V))
    for h in range(H - 1):
        for i in range(d):
            for a in range(A):
                for v in range(V):
                    product[h, i, v, a] = rng.dirichlet(np.ones(V))
    initial = np.ones(1)
    for i in range(d):
        # little-endian state code: later sub-states vary slower
        initial = np.kron(rng.dirichlet(np.ones(V)), initial)
    rewards = rng.random((H, S, A))
    return EnvModel.from_product(
        name=name or f"random-d{d}v{V}a{A}h{H}",
        dims=dims,
        class_tag="Class1",
        initial=initial,
        product=product,
        rewards=rewards,
    )


def build_controlled_drift_instance(
    stay_controlled=0.8, stay_drift=0.7, emission_accuracy=0.8, horizon=2
):
    """Tiny two-sub-state model with noisy partial observations.

    Sub-state 0 is controlled: the first action keeps its value with the
    given probability, the second action flips it with that probability.
    Sub-state 1 drifts on its own (keeps its value with probability
    stay_drift under either action).  Reward arrives at the last step only:
    1 when the action matches sub-state 0's value.  Each step emits a
    symbol matching the joint hidden (unqueried) value code with the given
    accuracy.  The family over (stay_controlled, stay_drift,
    emission_accuracy) shares rewards and the uniform initial state, so
    members differ only in transitions and emissions.
    """
    for p, label in (
        (stay_controlled, "stay_controlled"),
        (stay_drift, "stay_drift"),
        (emission_accuracy, "emission_accuracy"),
    ):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{label} must lie in [0, 1], got {p}")
    if horizon < 2:
        raise ValueError(f"need horizon >= 2, got {horizon}")
    _check_table_size(horizon, 4, 2)
    dims = Dims(
        d=2,
        alphabet_size=2,
        d_query=1,
        horizon=horizon,
        n_actions=2,
        n_observations=2,
    )
    t1, t2, acc = stay_controlled, stay_drift, emission_accuracy
    kernel0 = np.zeros((2, 2, 2))  # (value, action, next value)
    kernel0[0, 0] = [t1, 1.0 - t1]
    kernel0[1, 0] = [1.0 - t1, t1]
    kernel0[0, 1] = [1.0 - t1, t1]
    kernel0[1, 1] = [t1, 1.0 - t1]
    kernel1 = np.zeros((2, 2, 2))
    kernel1[0, :] = [t2, 1.0 - t2]
    kernel1[1, :] = [1.0 - t2, t2]
    product = np.stack(
        [np.stack([kernel0, kernel1], axis=0)] * (horizon - 1), axis=0
    )

    rewards = np.zeros((horizon, 4, 2))
    sv = canonical_state_vectors(dims)
    for s in range(4):
        rewards[horizon - 1, s, sv[s, 0]] = 1.0

    table = np.array([[acc, 1.0 - acc], [1.0 - acc, acc]])
    emissions = {
        (h, q): table.copy()
        for h in range(1, horizon + 1)
        for q in dims.query_sets()
    }

    return EnvModel.from_product(
        name=f"controlled-drift-t{t1:g}-d{t2:g}-e{acc:g}",
        dims=dims,
        class_tag="Class2",
        initial=np.full(4, 0.25),
        product=product,
        rewards=rewards,
        emissions=emissions,
    )


def controlled_drift_candidates(
    stays_controlled=(0.2, 0.8),
    stays_drift=(0.3, 0.7),
    accuracies=(0.5, 0.8),
    horizon=2,
):
    """Candidate class for the controlled-drift family, lexicographic over
    (stay_controlled, stay_drift, emission_accuracy)."""
    return [
        build_controlled_drift_instance(t1, t2, acc, horizon)
        for t1 in stays_controlled
        for t2 in stays_drift
        for acc in accuracies
    ]


# -- diagnostics --------------------------------------------------------------


def estimate_cross_covariance(m):
    """Largest |cov| between two successor sub-state values, over all
    (step, state, action) cells; independence of sub-state evolutions
    makes this 0.

    Computed exactly from the (expanded) joint table.  Sub-state values
    enter as their integer codes.
    """
    d = m.dims.d
    if d < 2:
        return 0.0
    sv = m.state_vectors.astype(float)
    off = ~np.eye(d, dtype=bool)
    joint = m.joint_transitions()  # (H-1, S, A, S)
    first = joint @ sv  # E[v_i]
    second = np.einsum("hsat,ti,tj->hsaij", joint, sv, sv)
    cov = second - first[..., :, None] * first[..., None, :]
    return float(np.abs(cov[..., off]).max(initial=0.0))


def min_partial_singular_value(m):
    """Worst-case emission informativeness over (step, query set).

    For each emission table, take the U-th largest singular value where U
    is the number of unqueried-value combinations (0 if the table has
    fewer); return the minimum.  Flat (column-identical) emissions give 0.
    """
    if m.class_tag != "Class2" or not m.emissions:
        raise ValueError(f"model {m.name!r} has no emission tables")
    U = m.dims.n_hidden
    worst = np.inf
    for key in sorted(m.emissions):
        svals = np.linalg.svd(np.asarray(m.emissions[key], dtype=float), compute_uv=False)
        worst = min(worst, float(svals[U - 1]) if len(svals) >= U else 0.0)
    return worst


# -- two-group representation properties --------------------------------------


def check_groups_same_substate(group_a, group_b):
    """Each state in one group must share at least one (position, value)
    pair with some state of the other group.  Returns (ok, witnesses);
    witnesses list the vectors with no cross-group match.
    """
    bad = []
    d = len(group_a[0])
    for source, target in ((group_a, group_b), (group_b, group_a)):
        for vec in source:
            hit = any(
                any(t[i] == vec[i] for i in range(d)) for t in target
            )
            if not hit:
                bad.append(tuple(vec))
    return not bad, bad


def check_groups_combination(group_a, group_b, d_query=1):
    """Every d_query-subset of every state's sub-values must be assembled
    from the other group: some opposite-group state agrees on that subset.
    Returns (ok, witnesses) with (vector, positions) pairs that fail.
    """
    from itertools import combinations

    bad = []
    d = len(group_a[0])
    subsets = list(combinations(range(d), d_query))
    for source, target in ((group_a, group_b), (group_b, group_a)):
        for vec in source:
            for q in subsets:
                if not any(all(t[i] == vec[i] for i in q) for t in target):
                    bad.append((tuple(vec), q))
    return not bad, bad
