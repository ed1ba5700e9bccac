"""Ablation: arrival-order vs deadline-aware platter fetch (QoS subsystem).

The §4.1 scheduler fetches the platter with the earliest queued arrival —
FIFO across tenants. Under a skewed mix (one hot bulk tenant carrying 80%
of the offered rate, per the orders-of-magnitude per-DC demand spread of
Figure 1c) that policy makes every expedited read wait behind the hot
tenant's backlog. The deadline-aware policy biases each request's fetch
key by its SLO class's slack budget (deadline over weight), bounded by an
anti-starvation arrival term.

The twin runs share a byte-identical trace and tenant mix; only the fetch
policy differs. The acceptance gates — expedited p99 strictly better AND
Jain fairness over deadline-normalized slowdown strictly better — are the
same two encoded as 1.0/0.0 metrics in the ``qos_ablation`` bench
scenario, so pytest and the behaviour gate enforce one condition.
"""

from repro.bench.scenarios import build_qos_sim, qos_ablation_metrics

from conftest import SCALE, hours, print_series


def test_qos_fetch_policy_ablation(once):
    def experiment():
        arrival = build_qos_sim("arrival", scale=SCALE, seed=5).run()
        deadline = build_qos_sim("deadline", scale=SCALE, seed=5).run()
        return qos_ablation_metrics(arrival, deadline)

    metrics = once(experiment)
    rows = [
        f"arrival order (§4.1)  : expedited p99 "
        f"{hours(metrics['arrival_expedited_p99_seconds']):5.2f} h   "
        f"jain {metrics['arrival_jain_index']:.3f}   "
        f"completed {metrics['arrival_requests_completed']:8.0f}",
        f"deadline-aware (QoS)  : expedited p99 "
        f"{hours(metrics['deadline_expedited_p99_seconds']):5.2f} h   "
        f"jain {metrics['deadline_jain_index']:.3f}   "
        f"completed {metrics['deadline_requests_completed']:8.0f}",
    ]
    print_series("Ablation: QoS fetch policy", "fetch policy", rows)

    # Same trace, same mix: neither policy may drop work on the floor.
    assert (
        metrics["deadline_requests_completed"]
        == metrics["arrival_requests_completed"]
    )
    # Gate 1: premium restores see a strictly better tail.
    assert (
        metrics["deadline_expedited_p99_seconds"]
        < metrics["arrival_expedited_p99_seconds"]
    )
    # Gate 2: fairness over deadline-normalized slowdown improves.
    assert metrics["deadline_jain_index"] > metrics["arrival_jain_index"]
    # The encoded CI gates agree with the raw comparisons above.
    assert metrics["deadline_beats_arrival_p99"] == 1.0
    assert metrics["deadline_beats_arrival_jain"] == 1.0
    # The bias must not trash the background class: bulk still completes
    # within its own 48 h deadline budget at p99.
    assert metrics["deadline_bulk_p99_seconds"] < 48 * 3600.0
