"""Learners for models with independently evolving sub-states, plus baselines.

Two optimistic learners share one skeleton: an exponential-weight layer
picks which sub-states to query, and a tabular optimistic Q-learner keyed
by (step, query set, revealed values, action) picks actions.  Its tables
are stacked over steps, one set per query set, so each episode's backward
backup and greedy policy take a handful of array operations.

* single-query learner (d_query = 1): importance-weighted exponential
  update of one weight per sub-state; one sub-state queried per episode.
* multi-query learner (d_query > 1): a leader chosen per kappa-episode
  block from slowly-updated global weights, supporters rotated without
  replacement so every sub-state is covered within the block, and a local
  reward-driven weight layer inside the block.

The weight updates are module-level functions of a ``WeightState``, which
holds d, d_query, the block length kappa and the block's leader.

Feedback timing: the values of a step's state arrive only after that
step's action, so the policy chooses the step-h action from the previous
step's revealed values and action, through an estimated one-step
predictive distribution over the current values.
"""

import math

import numpy as np

from .core import EpisodeTrace, Feedback, StepRecord, encode_state
from .envs import (
    BLOCK_DRAWS,
    _draw_categorical,
    emit_observation,
    reward,
    sample_initial,
    transition,
)

WEIGHT_RENORM_THRESHOLD = 1e100
MAX_SEQUENCES = 65536  # action sequences the epsilon-greedy bandit tabulates


class ScheduleError(RuntimeError):
    """Block-boundary update invoked at the wrong episode."""


def default_theta1(d, horizon, n_episodes):
    """Global weight learning rate sqrt(d ln d / (H^2 K)), clamped to <= 1."""
    return min(1.0, math.sqrt(d * math.log(d) / (horizon**2 * n_episodes)))


def default_theta2(d, d_query, theta1):
    """Local rate 16(d-1)/(d_query-1) * theta1, clamped to <= 1."""
    if d_query < 2:
        raise ValueError("local rate defined only for d_query >= 2")
    return min(1.0, 16.0 * (d - 1) / (d_query - 1) * theta1)


def block_length(d, d_query):
    """ceil((d-1)/(d_query-1)) episodes per leader block."""
    if d_query < 2:
        raise ValueError("blocks defined only for d_query >= 2")
    return -(-(d - 1) // (d_query - 1))


def _check_episode_reward(value, horizon):
    if horizon is not None and not 0.0 <= value <= horizon + 1e-12:
        raise ValueError(f"episode reward {value} outside [0, {horizon}]")


class WeightState:
    """Exponential weights over sub-states, global and (optionally) local.

    Probability mixtures keep hard floors: global p_i >= theta1/d and local
    p_i >= theta2/d_query.  Raw weights are renormalized by their maximum
    only when they exceed a huge threshold (probabilities are invariant to
    the common scale), so hand-computable weight values stay observable.
    """

    def __init__(self, d, d_query, theta1, theta2=None):
        self.d = d
        self.d_query = d_query
        self.theta1 = float(theta1)
        self.theta2 = None if theta2 is None else float(theta2)
        self.kappa = block_length(d, d_query) if d_query > 1 else None
        self.global_w = np.ones(d)
        self.global_p = np.empty(d)
        self.local_w = np.ones(d)
        self.local_p = None
        self.query_set = None
        self.prev_query_set = None
        self.block_pool = []
        self.leader = None
        self.recompute_global_p()

    def recompute_global_p(self):
        if self.global_w.max() > WEIGHT_RENORM_THRESHOLD:
            self.global_w /= self.global_w.max()
        total = self.global_w.sum()
        self.global_p = (1.0 - self.theta1) * self.global_w / total + self.theta1 / self.d

    def recompute_local_p(self):
        if self.query_set is None:
            raise ValueError("no current query set")
        if self.local_w.max() > WEIGHT_RENORM_THRESHOLD:
            self.local_w /= self.local_w.max()
        w = self.local_w[list(self.query_set)]
        self.local_p = (1.0 - self.theta2) * w / w.sum() + self.theta2 / self.d_query

    def floor_violations(self):
        """Exact floor checks; empty list when all mixtures respect them."""
        out = []
        low, total = self.global_p.min(), self.global_p.sum()
        if low < self.theta1 / self.d:
            out.append(f"global floor broken: {low} < theta1/d")
        if abs(total - 1.0) > 1e-9:
            out.append(f"global p sums to {total}")
        if self.local_p is not None:
            low, total = self.local_p.min(), self.local_p.sum()
            if low < self.theta2 / self.d_query:
                out.append(f"local floor broken: {low} < theta2/d_query")
            if abs(total - 1.0) > 1e-9:
                out.append(f"local p sums to {total}")
        return out


def optll_update(ws, chosen_i, episode_reward, horizon=None):
    """Importance-weighted exponential update after one episode.

    Only the queried sub-state's weight moves:
    w_i *= exp(theta1 * R / (d * p_i)), using the probability the choice
    was made with; then p = (1-theta1) w/sum(w) + theta1/d.
    """
    _check_episode_reward(episode_reward, horizon)
    if episode_reward < 0.0:
        raise ValueError(f"episode reward {episode_reward} negative")
    p_prev = ws.global_p[chosen_i]
    if p_prev <= 0.0:
        raise ValueError(f"chosen sub-state {chosen_i} had probability {p_prev}")
    ws.global_w[chosen_i] *= math.exp(ws.theta1 * episode_reward / (ws.d * p_prev))
    ws.recompute_global_p()
    return ws


def opmll_global_update(ws, block_rewards, chosen_set_history, horizon=None):
    """Block-boundary update of the global (leader) weights.

    w_i *= exp((d-1) theta1 / (d (d_query-1)) * sum of episode rewards of
    the block episodes whose query set contained i); then the usual
    mixture.  Must be fed exactly one completed block.
    """
    if len(block_rewards) != len(chosen_set_history):
        raise ValueError("block rewards and query-set history lengths differ")
    if len(block_rewards) != ws.kappa:
        raise ScheduleError(
            f"global update expects a completed block of {ws.kappa} episodes, "
            f"got {len(block_rewards)}"
        )
    for r in block_rewards:
        _check_episode_reward(r, horizon)
    d = ws.d
    factor = (d - 1) * ws.theta1 / (d * (ws.d_query - 1))
    gains = np.zeros(d)
    for r, qset in zip(block_rewards, chosen_set_history):
        for i in qset:
            gains[i] += r
    ws.global_w *= np.exp(factor * gains)
    ws.recompute_global_p()
    return ws


def opmll_select_supporting(ws, rng):
    """Query set for one episode: the block's leader plus d_query-1 supporters
    drawn uniformly without replacement from the block pool (sub-states
    not yet used this block); the pool refills when it runs short, which
    forces full coverage inside each block.
    """
    if ws.d_query < 2:
        raise ValueError("supporter selection requires d_query >= 2")
    leader = ws.leader
    need = ws.d_query - 1
    pool = [i for i in ws.block_pool if i != leader]
    chosen = []
    if len(pool) < need:
        chosen = pool
        pool = [i for i in range(ws.d) if i != leader and i not in chosen]
    take = need - len(chosen)
    if take:
        picks = sorted(rng.choice(len(pool), size=take, replace=False).tolist())
        chosen = chosen + [pool[j] for j in picks]
        for j in reversed(picks):
            del pool[j]
    ws.block_pool = pool
    ws.prev_query_set = ws.query_set
    ws.query_set = tuple(sorted([leader, *chosen]))
    return ws.query_set


def opmll_local_update(ws, episode_reward, horizon=None):
    """In-block local update: previous query set's weights gain
    exp(theta2 * R / d_query); the local mixture is then recomputed over
    the current query set.
    """
    _check_episode_reward(episode_reward, horizon)
    if episode_reward < 0.0:
        raise ValueError(f"episode reward {episode_reward} negative")
    if ws.prev_query_set is None:
        raise ValueError("no previous query set to update from")
    for i in ws.prev_query_set:
        ws.local_w[i] *= math.exp(ws.theta2 * episode_reward / ws.d_query)
    ws.recompute_local_p()
    return ws


class QTable:
    """Optimistic tabular values keyed by (step, query set, revealed
    values, action), held as one stack of arrays per query set: ``q``,
    ``n`` and ``rsum`` of shape (H, n_codes, A), indexed [h - 1, code,
    action], and successor counts ``succ`` of shape (H-1, n_codes, A,
    n_codes).

    Fresh entries hold Q = H (optimism); counts, reward sums and successor
    counts accumulate as episodes commit.  ``record`` also keeps each
    entry's backup statistics current, in (H, n_codes, A) stacks: the
    divisor ``nn`` (N, 1 while unvisited), the mean reward ``mean`` (rsum
    / nn) and the bonus ``bonus`` (c sqrt(H^2 / N), inf while unvisited).
    """

    def __init__(self, horizon, n_actions, alphabet_size, c_bonus=1.0):
        self.horizon = horizon
        self.n_actions = n_actions
        self.alphabet_size = alphabet_size
        self.c_bonus = float(c_bonus)
        self.q = {}
        self.n = {}
        self.rsum = {}
        self.succ = {}
        self.nn = {}
        self.mean = {}
        self.bonus = {}

    def n_codes(self, qset):
        return self.alphabet_size ** len(qset)

    def ensure(self, qset):
        """Allocate the stacked arrays for one query set."""
        qset = tuple(qset)
        if qset not in self.q:
            H, nc, A = self.horizon, self.n_codes(qset), self.n_actions
            self.q[qset] = np.full((H, nc, A), float(H))
            self.n[qset] = np.zeros((H, nc, A), dtype=np.int64)
            self.rsum[qset] = np.zeros((H, nc, A))
            self.succ[qset] = np.zeros((H - 1, nc, A, nc), dtype=np.int64)
            self.nn[qset] = np.ones((H, nc, A), dtype=np.int64)
            self.mean[qset] = np.zeros((H, nc, A))
            self.bonus[qset] = np.full((H, nc, A), np.inf)
        return qset

    def record(self, h, qset, code, action, step_reward, succ_code):
        key = (h - 1, code, action)
        n = self.n[qset].item(key) + 1
        rsum = self.rsum[qset].item(key) + step_reward
        self.n[qset][key] = self.nn[qset][key] = n
        self.rsum[qset][key] = rsum
        # the same IEEE division and square root as numpy's over whole stacks
        self.mean[qset][key] = rsum / n
        self.bonus[qset][key] = self.c_bonus * math.sqrt(self.horizon**2 / n)
        if succ_code is not None:
            self.succ[qset][h - 1, code, action, succ_code] += 1


class MarkovEpisodePolicy:
    """Deterministic one-episode policy: fixed query set; first action a
    constant; later actions a function of (previous revealed-value code,
    previous action), held as one (H-1, n_codes, A) int array whose row
    h - 2 gives the step-h actions."""

    def __init__(self, query, first_action, decisions, n_actions):
        self.query = tuple(query)
        self.first_action = int(first_action)
        self.decisions = decisions
        self.n_actions = n_actions

    def first_distribution(self):
        out = np.zeros(self.n_actions)
        out[self.first_action] = 1.0
        return out

    def action_matrix(self, h):
        return np.eye(self.n_actions)[self.decisions[h - 2]]

    def action(self, h, prev_code, prev_action):
        if h == 1:
            return self.first_action
        return int(self.decisions[h - 2, prev_code, prev_action])

    def key(self):
        return (
            self.query,
            self.first_action,
            self.decisions.shape,
            self.decisions.tobytes(),
        )

    @classmethod
    def from_sequence(cls, actions, query, n_codes, n_actions):
        decisions = np.empty((len(actions) - 1, n_codes, n_actions), dtype=np.int64)
        decisions[...] = np.reshape(actions[1:], (-1, 1, 1))
        return cls(query, actions[0], decisions, n_actions)


class UniformMarkovPolicy:
    """Uniform-over-actions policy (query set irrelevant to its value)."""

    def __init__(self, query, n_codes, n_actions):
        self.query = tuple(query)
        self.n_codes = n_codes
        self.n_actions = n_actions

    def first_distribution(self):
        return np.full(self.n_actions, 1.0 / self.n_actions)

    def action_matrix(self, h):
        return np.full(
            (self.n_codes, self.n_actions, self.n_actions), 1.0 / self.n_actions
        )

    def key(self):
        return ("uniform", self.query, self.n_actions)


def run_episode(agent, env, k, rng):
    """One episode of the query/act/observe protocol.

    The agent sees the environment only through Feedback records; each
    step's revealed values arrive after the step's action.  Each step's
    ``Feedback`` and ``StepRecord`` are built positionally; both are
    slotted, which makes them cheap to build once per step.
    """
    agent.begin_episode(k)
    s = sample_initial(env, rng)
    trace = EpisodeTrace(episode=k)
    H = env.dims.horizon
    emits = env.class_tag == "Class2"
    vectors = env.sampling_rows()[2]
    for h in range(1, H + 1):
        action, query = agent.act(h)
        r = reward(env, h, s, action, rng)
        vec = vectors[s]
        hsi = tuple([(i, vec[i]) for i in query])
        obs = emit_observation(env, h, s, query, rng) if emits else None
        fb = Feedback(tuple(query), hsi, obs, r)
        agent.observe(h, action, fb)
        trace.append(StepRecord(h, action, fb))
        if h < H:
            s = transition(env, h, s, action, rng)
    agent.end_episode(trace)
    return trace


class _OptimisticQAgent:
    """Shared skeleton: per-episode query set -> optimistic value sweep ->
    eager per-episode policy -> commit statistics as feedback arrives."""

    def __init__(self, dims, rng, c_bonus):
        self.dims = dims
        self.rng = rng
        self.qt = QTable(dims.horizon, dims.n_actions, dims.alphabet_size, c_bonus)
        self.init_counts = {}
        self.invariant_violations = []
        self.episode_policy = None
        self.episode = 0
        self._qset = None
        self._pending = None
        self._prev_code = None
        self._prev_action = None
        self._last_total = None

    # -- per-episode planning -------------------------------------------

    def _sweep(self, qset):
        """Backward optimistic backup over every (values, action) of the
        current query set; vectorized form of the per-key backup.

        The mean reward and the bonus c sqrt(H^2/N) are the ones ``record``
        keeps.  An unvisited entry has an infinite bonus, so the clamp
        leaves it at the optimistic H; its zero counts add nothing before.
        """
        H = self.dims.horizon
        qt = self.qt
        succ, q = qt.succ[qset], qt.q[qset]
        nn, mean, bonus = qt.nn[qset], qt.mean[qset], qt.bonus[qset]
        v_next = None
        for i in range(H - 1, -1, -1):
            est = mean[i]
            if v_next is not None:
                est = est + (succ[i] @ v_next) / nn[i]
            np.minimum(est + bonus[i], float(H), out=q[i])
            v_next = q[i].max(axis=1)
        if q.min() < 0.0 or q.max() > H:
            self.invariant_violations.extend(
                f"episode {self.episode}: Q outside [0, {H}] at step {h}"
                for h in range(H, 0, -1)
                if (q[h - 1] < 0.0).any() or (q[h - 1] > H).any()
            )

    def _build_policy(self, qset):
        """Predictive-greedy policy: the step-h action maximizes the
        estimated distribution over current values (from successor counts
        of the previous step's key; initial-value counts at step 1; uniform
        where unseen) against the just-swept Q."""
        qt = self.qt
        q = qt.q[qset]
        nc = q.shape[1]
        counts1 = self.init_counts.get(qset)
        seen = 0 if counts1 is None else counts1.sum()
        if seen == 0:
            pred1 = np.full(nc, 1.0 / nc)
        else:
            pred1 = counts1 / seen
        first = int(np.argmax(pred1 @ q[0]))
        later = q[1:]  # (H-1, nc, A): steps 2..H
        default = (later.sum(axis=1) / nc).argmax(axis=1)  # mean over codes
        # scores[i, c, a, a'] = sum_v succ[i, c, a, v] * Q[i + 1, v, a'] for
        # the step-(i + 2) action; scaling by 1/N leaves the argmax unchanged
        scores = np.einsum("hcav,hvb->hcab", qt.succ[qset], later)
        decisions = np.where(
            qt.n[qset][:-1] > 0, scores.argmax(axis=3), default[:, None, None]
        )
        self.episode_policy = MarkovEpisodePolicy(
            qset, first, decisions, self.dims.n_actions
        )

    # -- protocol ---------------------------------------------------------

    def act(self, h):
        return (
            self.episode_policy.action(h, self._prev_code, self._prev_action),
            self._qset,
        )

    def observe(self, h, action, fb):
        code = encode_state(fb.values(), self.dims.alphabet_size)
        if h == 1:
            self.init_counts[self._qset][code] += 1
        else:
            ph, pcode, pact, prew = self._pending
            self.qt.record(ph, self._qset, pcode, pact, prew, code)
        self._pending = (h, code, action, fb.reward)
        self._prev_code = code
        self._prev_action = action

    def end_episode(self, trace):
        ph, pcode, pact, prew = self._pending
        self.qt.record(ph, self._qset, pcode, pact, prew, None)
        self._pending = None
        self._last_total = trace.total_reward

    def _start_episode_common(self, qset):
        self._qset = self.qt.ensure(qset)
        if self._qset not in self.init_counts:
            self.init_counts[self._qset] = np.zeros(self.qt.n_codes(self._qset))
        self._prev_code = None
        self._prev_action = None
        self._sweep(self._qset)
        self._build_policy(self._qset)


class OptllAgent(_OptimisticQAgent):
    """Single-query learner: exponential weights choose one sub-state to
    query for the whole episode; optimistic Q-learning over its values."""

    def __init__(self, dims, n_episodes, rng, theta1=None, c_bonus=1.0):
        if dims.d_query != 1:
            raise ValueError("single-query learner requires d_query = 1")
        super().__init__(dims, rng, c_bonus)
        if theta1 is None:
            theta1 = default_theta1(dims.d, dims.horizon, n_episodes)
        self.ws = WeightState(dims.d, 1, theta1)
        self._chosen = None

    def begin_episode(self, k):
        self.episode = k
        if self._chosen is not None:
            optll_update(self.ws, self._chosen, self._last_total, self.dims.horizon)
            self.invariant_violations.extend(
                f"episode {k}: {v}" for v in self.ws.floor_violations()
            )
        self._chosen = _draw_categorical(self.ws.global_p, self.rng)
        self._start_episode_common((self._chosen,))


class OpmllAgent(_OptimisticQAgent):
    """Multi-query learner: per-block leader from global weights,
    without-replacement supporter rotation, in-block local weights, and
    optimistic Q-learning over the episode's revealed value combinations."""

    def __init__(
        self, dims, n_episodes, rng, theta1=None, theta2=None, c_bonus=1.0
    ):
        if dims.d_query < 2:
            raise ValueError("multi-query learner requires d_query >= 2")
        super().__init__(dims, rng, c_bonus)
        if theta1 is None:
            theta1 = default_theta1(dims.d, dims.horizon, n_episodes)
        if theta2 is None:
            theta2 = default_theta2(dims.d, dims.d_query, theta1)
        self.ws = WeightState(dims.d, dims.d_query, theta1, theta2)
        self._block_rewards = []
        self._block_sets = []
        self.selection_log = []  # (episode, leader, query set) per episode

    def begin_episode(self, k):
        self.episode = k
        boundary = (k - 1) % self.ws.kappa == 0
        if boundary:
            if k > 1:
                opmll_global_update(
                    self.ws, self._block_rewards, self._block_sets, self.dims.horizon
                )
                self.invariant_violations.extend(
                    f"episode {k}: {v}" for v in self.ws.floor_violations()
                )
            self.ws.leader = _draw_categorical(self.ws.global_p, self.rng)
            self.ws.block_pool = [i for i in range(self.dims.d) if i != self.ws.leader]
            self.ws.local_w = self.ws.global_w.copy()
            self.ws.query_set = None
            self.ws.prev_query_set = None
            self._block_rewards = []
            self._block_sets = []
        qset = opmll_select_supporting(self.ws, self.rng)
        if not boundary:
            opmll_local_update(self.ws, self._last_total, self.dims.horizon)
        else:
            self.ws.recompute_local_p()
        self.invariant_violations.extend(
            f"episode {k}: {v}" for v in self.ws.floor_violations()
        )
        _draw_categorical(self.ws.local_p, self.rng)  # advances the agent stream
        self.selection_log.append((k, self.ws.leader, qset))
        self._start_episode_common(qset)

    def end_episode(self, trace):
        super().end_episode(trace)
        self._block_rewards.append(trace.total_reward)
        self._block_sets.append(self._qset)


class UniformRandomAgent:
    """Uniform over actions and query sets, independently each step.

    Each step takes two bounded draws from the agent's generator, the
    action and then the query-set index, served from blocks of
    ``BLOCK_DRAWS`` (4096) draws made by one ``integers`` call.
    numpy draws a bounded integer alike in scalar and broadcast calls, so
    the pairs equal two scalar draws per step, in order.  Within a block
    the generator runs ahead of the scalar path; nothing else draws from
    it, as each run derives its own agent generator.
    """

    def __init__(self, dims, rng):
        self.rng = rng
        self._qsets = dims.query_sets()
        self.episode_policy = UniformMarkovPolicy(
            self._qsets[0], dims.n_query_values, dims.n_actions
        )
        self._highs = np.tile(
            [dims.n_actions, len(self._qsets)], BLOCK_DRAWS // 2
        )
        self._block, self._pos = [], 0

    def begin_episode(self, k):
        pass

    def act(self, h):
        pos = self._pos
        if pos == len(self._block):
            self._block = self.rng.integers(0, self._highs).tolist()
            pos = 0
        self._pos = pos + 2
        return self._block[pos], self._qsets[self._block[pos + 1]]

    def observe(self, h, action, fb):
        pass

    def end_episode(self, trace):
        pass


class FixedPolicyAgent:
    """Plays one deterministic Markov episode policy forever."""

    def __init__(self, dims, policy):
        self.dims = dims
        self.episode_policy = policy
        self._prev_code = None
        self._prev_action = None

    def begin_episode(self, k):
        self._prev_code = None
        self._prev_action = None

    def act(self, h):
        pol = self.episode_policy
        return pol.action(h, self._prev_code, self._prev_action), pol.query

    def observe(self, h, action, fb):
        self._prev_code = encode_state(fb.values(), self.dims.alphabet_size)
        self._prev_action = action

    def end_episode(self, trace):
        pass


class EpsilonGreedySequenceAgent:
    """Bandit over open-loop action sequences: with probability epsilon play
    a uniformly random sequence, otherwise the best empirical mean so far
    (ties -> lowest sequence index).  The sequence index is the big-endian
    action code, so lexicographically earlier sequences break ties.

    ``totals`` and ``counts`` are the bandit's only statistics; a
    sequence's total is 0 wherever its count is 0.  Each sequence's actions
    and episode policy are built on its first play and reused after."""

    def __init__(self, dims, rng, epsilon=0.25):
        n_seq = dims.n_actions**dims.horizon
        if n_seq > MAX_SEQUENCES:
            raise ValueError(f"{n_seq} sequences exceed the cap {MAX_SEQUENCES}")
        self.dims = dims
        self.rng = rng
        self.epsilon = float(epsilon)
        self.n_seq = n_seq
        self.totals = np.zeros(n_seq)
        self.counts = np.zeros(n_seq, dtype=np.int64)
        self.episode_policy = None
        self._seq = None
        self._played = {}  # sequence index -> (actions, MarkovEpisodePolicy)

    def sequence_actions(self, index):
        A, H = self.dims.n_actions, self.dims.horizon
        out = []
        for _ in range(H):
            out.append(index % A)
            index //= A
        return tuple(reversed(out))

    def best_sequence(self):
        # an unplayed sequence's mean is its zero total over 1
        return int((self.totals / np.maximum(self.counts, 1)).argmax())

    def begin_episode(self, k):
        if self.rng.random() < self.epsilon:
            idx = int(self.rng.integers(self.n_seq))
        else:
            idx = self.best_sequence()
        self._seq = idx
        played = self._played.get(idx)
        if played is None:
            actions = self.sequence_actions(idx)
            played = self._played[idx] = (
                actions,
                MarkovEpisodePolicy.from_sequence(
                    actions,
                    self.dims.query_sets()[0],
                    self.dims.n_query_values,
                    self.dims.n_actions,
                ),
            )
        self._actions, self.episode_policy = played

    def act(self, h):
        return self._actions[h - 1], self.episode_policy.query

    def observe(self, h, action, fb):
        pass

    def end_episode(self, trace):
        self.totals[self._seq] += trace.total_reward
        self.counts[self._seq] += 1
