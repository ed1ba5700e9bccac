"""Fleet robustness: surviving a whole-library loss with replication.

A single library is one failure domain — when it goes dark, every read
it holds is unavailable until repair. The fleet layer (``repro.fleet``)
places k-of-n replicas across power-isolated libraries and fails reads
over behind a timeout + capped-backoff detector, so the same outage
costs a bounded failover penalty instead of availability.

Both runs replay the identical trace and the identical ``lib:0`` loss;
only the topology differs (3 libraries / k=2 / hedged, vs 1 library /
k=1). The acceptance gates — replicated availability >= 99% while the
single library drops below, with failovers and hedge wins actually
exercised — are the same four encoded as 1.0/0.0 metrics in the
``fleet_outage`` bench scenario, so pytest and the behaviour gate
enforce one condition.
"""

from repro.bench.scenarios import _fleet_outage_run, fleet_outage_metrics  # noqa: F401

from conftest import SCALE, print_series


def test_fleet_survives_library_loss(once):
    def experiment():
        return _fleet_outage_run(SCALE, seed=9).execute()

    metrics = once(experiment)
    rows = [
        f"replicated (3 libs, k=2, hedged): availability "
        f"{metrics['replicated_read_availability']:7.3%}   "
        f"failovers {metrics['replicated_failovers']:6.0f}   "
        f"lost {metrics['replicated_replication_lost']:5.0f}",
        f"single library (k=1)            : availability "
        f"{metrics['single_read_availability']:7.3%}   "
        f"failovers {metrics['single_failovers']:6.0f}   "
        f"lost {metrics['single_replication_lost']:5.0f}",
    ]
    print_series("Fleet: surviving a library loss", "topology", rows)

    # Same trace, same outage: the comparison is topology-only.
    assert (
        metrics["replicated_requests_submitted"]
        == metrics["single_requests_submitted"]
    )
    # Gate 1: replication carries the outage.
    assert metrics["replicated_read_availability"] >= 0.99
    assert metrics["replicated_replication_lost"] == 0.0
    # Gate 2: without replicas the same loss is an availability hole.
    assert metrics["single_read_availability"] < 0.99
    assert metrics["single_replication_lost"] > 0.0
    # Gates 3+4: the mechanisms were actually exercised, not bypassed.
    assert metrics["replicated_failovers"] > 0.0
    assert metrics["replicated_hedge_wins"] > 0.0
    # The encoded CI gates agree with the raw comparisons above.
    assert metrics["replicated_availability_ge_99_gate"] == 1.0
    assert metrics["single_availability_lt_99_gate"] == 1.0
    assert metrics["replicated_failovers_nonzero_gate"] == 1.0
    assert metrics["replicated_hedge_wins_nonzero_gate"] == 1.0
