"""Reference instances and the exact oracle.

The library ships three hand-analysed environment constructions whose
optimal values are known in closed form, which makes them useful as
ground truth for everything else:

* the two-group instance: sub-states are split into two groups that move
  in lock-step, so any single query pins down the whole state one step
  later, yet the rewarding group is hidden behind an epsilon-thin margin;
* the flat-emission variant: the same idea for noisy-symbol models, with
  emission tables chosen so the symbols carry no information at all;
* the tree instance: a deterministic action tree where exactly one leaf
  sequence pays extra, the classic needle-in-a-haystack for learners that
  treat action sequences as arms.

This script builds each one, asks the exact oracle for its optimal
value, and runs the structural self-checks that back the constructions.
"""

from hsilab import (
    Dims,
    build_hard_instance_flat_emission,
    build_hard_instance_groups,
    build_hard_instance_tree,
    estimate_cross_covariance,
    min_partial_singular_value,
    oracle_report,
    random_independent_model,
    verify_instance,
)


def show(model):
    report = oracle_report(model)
    dims = model.dims
    print(f"{model.name}")
    print(
        f"  d={dims.d} alphabet={dims.alphabet_size} query width={dims.d_query}"
        f" horizon={dims.horizon} actions={dims.n_actions}"
        f" states={dims.n_states}"
    )
    print(
        f"  optimal value {report['v_star']:.9f}"
        f"  (first action {report['first_action']},"
        f" first query {tuple(report['first_query'])},"
        f" {report['nodes']} beliefs expanded)"
    )


print("=== exact optimal values ===")
show(build_hard_instance_groups(2, 0.1))
show(build_hard_instance_groups(3, 0.1))
show(build_hard_instance_flat_emission(0.1))
show(build_hard_instance_tree(2, 3, 2, 0.1))

# The two-group construction rests on two structural properties: the
# per-step feedback distribution is identical whichever group is the
# rewarding one (so single queries reveal nothing early), and group
# membership is recoverable from any one queried sub-state a step later.
# verify_instance checks both exhaustively on the fully expanded model.
print()
print("=== structural verification ===")
for params in ({"d": 2}, {"d": 3}, {"d": 4}, {"d": 3, "d-query": 2}):
    report = verify_instance("groups", params)
    print(f"groups {params}: {'PASS' if report.passed else 'FAIL'}")
    for check in report.checks:
        print(f"  {check.name}: {check.detail}")
print(f"flat-emission: {'PASS' if verify_instance('flat-emission', {}).passed else 'FAIL'}")
print(f"tree d=3:      {'PASS' if verify_instance('tree', {'d': 3}).passed else 'FAIL'}")

# Two diagnostics classify arbitrary models.  The cross-covariance scan
# measures how far sub-state evolutions are from independent (exactly 0
# for product-form transitions); the partial-emission singular value
# measures how much the emitted symbols reveal about unqueried
# sub-states (0 means the symbols are pure noise).
print()
print("=== model diagnostics ===")
product = random_independent_model(
    Dims(d=3, alphabet_size=2, d_query=1, horizon=3, n_actions=2), 0
)
print(f"cross-covariance of a product-form model:  {estimate_cross_covariance(product):.3f}")
flat = build_hard_instance_flat_emission(0.1)
print(f"emission information of the flat instance: {min_partial_singular_value(flat):.3f}")
