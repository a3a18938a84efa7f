"""Brute-force references for the tree-policy planner and the batched
feedback likelihood, and random models with noisy symbols to run them on.

``full_history_policies`` lists every deterministic history-dependent tree
policy of a (small) model, in the order whose index ``PlanningContext``
reports as a plan's ``policy_index``; ``first_best_policy`` scores them all
under one model and returns the first of highest value.
``trace_log_likelihood`` is the exact filter of one model on its own, which
``pors.feedback_log_likelihood`` runs for a whole class at once.
"""

from itertools import product
import math

import numpy as np

from hsilab.envs import EnvModel
from hsilab.pors import (
    TreePolicy,
    evaluate_policy_value,
    level_node_counts,
    tree_branching,
)


def full_history_policies(dims):
    """Every full-history tree policy, lexicographic over per-node choice
    indices (choice = action * n_query_sets + query_set_index), nodes level
    by level then by node index, the last node's choice varying fastest."""
    qsets = dims.query_sets()
    n_q = len(qsets)
    counts = level_node_counts(dims)
    policies = []
    for assign in product(range(dims.n_actions * n_q), repeat=sum(counts)):
        actions, queries, pos = [], [], 0
        for n_nodes in counts:
            level = assign[pos : pos + n_nodes]
            actions.append(tuple(c // n_q for c in level))
            queries.append(tuple(qsets[c % n_q] for c in level))
            pos += n_nodes
        policies.append(
            TreePolicy(
                dims.horizon, tree_branching(dims), tuple(actions), tuple(queries)
            )
        )
    return policies


def first_best_policy(model, policies):
    """(index, policy, value) of the first policy of highest value."""
    values = [evaluate_policy_value(model, p) for p in policies]
    j = int(np.argmax(values))
    return j, policies[j], values[j]


def random_hidden_observation_model(gen, dims):
    """Fully random model with noisy symbols: every probability row is a
    Dirichlet draw, so all traces have positive probability."""
    S, A, H, O = dims.n_states, dims.n_actions, dims.horizon, dims.n_observations
    n_hidden = dims.alphabet_size ** (dims.d - dims.d_query)
    emissions = {}
    for h in range(1, H + 1):
        for q in dims.query_sets():
            emissions[(h, q)] = gen.dirichlet(np.ones(O), size=n_hidden).T.copy()
    return EnvModel.from_joint(
        name="random-hidden-obs",
        dims=dims,
        class_tag="Class2",
        initial=gen.dirichlet(np.ones(S)),
        joint=gen.dirichlet(np.ones(S), size=(H - 1, S, A)),
        rewards=gen.random((H, S, A)),
        emissions=emissions,
    )


def trace_log_likelihood(m, trace):
    """Log-probability of an episode's feedback sequence under the model.

    Accumulates the conditioning mass of each step's feedback through the
    exact filter; the last step conditions without transitioning.  Returns
    -inf for impossible traces.  Realized rewards are not part of the
    evidence.
    """
    p = np.array(m.initial, dtype=float)
    total = 0.0
    H = m.dims.horizon
    for rec in trace.steps:
        row = m.evidence(rec.h, tuple(rec.feedback.query))[
            m.evidence_index(rec.h, rec.feedback)
        ]
        post = p * row
        mass = float(post.sum())
        if mass == 0.0:
            return float("-inf")
        total += math.log(mass)
        if rec.h < H:
            p = (post / mass) @ m.joint_transitions()[rec.h - 1, :, rec.action, :]
    return total
