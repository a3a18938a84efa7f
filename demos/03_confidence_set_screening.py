"""Confidence-set learning with noisy symbols (hidden-emission models).

When unqueried sub-states only show up through noisy emitted symbols,
point estimation is replaced by screening: the learner keeps every
candidate model whose exact feedback log-likelihood is within a
confidence width of the best one, plans optimistically over the
surviving models (each one's own best policy), and lets the data shrink
the set.

The environment here is the controlled-drift family: sub-state 0 obeys
the actions (keep or flip with some fidelity), sub-state 1 drifts on its
own, and each step emits a symbol correlated with the hidden coordinate.
Eight candidate models — all combinations of two control fidelities, two
drift rates, and two emission accuracies — include the truth.

The script runs the learner once and reports, era by era, which
candidates survive, what the planner plays, and the regret so far.
"""

import numpy as np

from hsilab import (
    PlanningContext,
    PorsAgent,
    SampleRng,
    build_controlled_drift_instance,
    controlled_drift_candidates,
    default_beta,
    evaluate_policy_value,
    optimal_value,
    run_episode,
)

EPISODES = 600

candidates = controlled_drift_candidates()
context = PlanningContext.build(candidates)
truth = build_controlled_drift_instance()
truth_index = next(i for i, m in enumerate(candidates) if m.name == truth.name)
v_star = optimal_value(truth)

print("candidate class:")
for i, m in enumerate(candidates):
    marker = "  <- truth" if i == truth_index else ""
    print(f"  [{i}] {m.name}{marker}")
print(f"optimal value under the truth: {v_star:.3f}")
print(f"confidence width (delta=0.05): {default_beta(truth.dims, EPISODES, 0.05):.1f}")
print()

agent = PorsAgent(truth.dims, candidates, EPISODES, context=context)
played_values = {}  # exact value under the truth of each policy played
rng = SampleRng(0)
cum_regret = 0.0
next_report = 1
print(f"{'episode':>7} {'set':>12} {'played value':>12} {'cum regret':>10}")
for k in range(1, EPISODES + 1):
    run_episode(agent, truth, k, rng)
    policy = agent.episode_policy
    if policy not in played_values:
        played_values[policy] = evaluate_policy_value(truth, policy)
    played = played_values[policy]
    cum_regret += v_star - played
    if k == next_report or k == EPISODES:
        survivors = "{" + ",".join(str(i) for i in agent.set_log[-1]) + "}"
        print(f"{k:>7} {survivors:>12} {played:12.3f} {cum_regret:10.1f}")
        next_report *= 4

assert all(truth_index in s for s in agent.set_log)
print()
print(f"the true model [{truth_index}] survived screening in all {EPISODES} episodes")
final = set(agent.set_log[-1])
print(f"final survivors: {sorted(final)} (models sharing the truth's control fidelity)")
