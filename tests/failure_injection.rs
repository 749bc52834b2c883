//! Failure injection: BCP must degrade gracefully, never wedge or panic.

use bcp::net::addr::NodeId;
use bcp::net::loss::LossModel;
use bcp::net::topo::Topology;
use bcp::sim::time::SimDuration;
use bcp::simnet::{ModelKind, Scenario};

fn pair(seed: u64) -> Scenario {
    let mut s = Scenario::single_hop(ModelKind::DualRadio, 1, 100, seed);
    s.topo = Topology::line(2, 40.0);
    s.sink = NodeId(0);
    s.senders = vec![NodeId(1)];
    s.duration = SimDuration::from_secs(300);
    s
}

fn lossy_pair(seed: u64, low: LossModel, high: LossModel) -> Scenario {
    let mut s = pair(seed);
    s.loss_low = low;
    s.loss_high = high;
    s
}

#[test]
fn lost_wakeups_are_retried() {
    // 30% control-channel loss: handshakes need retries but BCP recovers.
    let stats = lossy_pair(1, LossModel::bernoulli(0.3), LossModel::Perfect).run();
    assert!(
        stats.goodput > 0.5,
        "protocol survives lossy handshakes: {}",
        stats.goodput
    );
    assert!(stats.metrics.handshakes > 0);
}

#[test]
fn lossy_high_channel_costs_energy_not_correctness() {
    let clean = pair(2).run();
    let lossy = lossy_pair(2, LossModel::Perfect, LossModel::bernoulli(0.2)).run();
    // MAC retries push energy per delivered bit up.
    assert!(
        lossy.j_per_kbit > clean.j_per_kbit,
        "retransmissions cost: {} vs {}",
        lossy.j_per_kbit,
        clean.j_per_kbit
    );
    assert!(
        lossy.goodput > 0.5,
        "still mostly delivers: {}",
        lossy.goodput
    );
}

#[test]
fn bursty_outage_does_not_wedge_the_protocol() {
    // Gilbert-Elliott with brutal bad states on BOTH channels.
    let stats = lossy_pair(
        3,
        LossModel::gilbert_elliott(0.02, 0.2, 0.01, 0.9),
        LossModel::gilbert_elliott(0.05, 0.2, 0.05, 0.95),
    )
    .run();
    assert!(
        stats.metrics.delivered_packets > 0,
        "some progress through outages"
    );
    // Whatever was lost is accounted, not leaked.
    let m = &stats.metrics;
    assert_eq!(
        m.delivered_packets + m.drops_mac + m.drops_buffer + m.residual_packets,
        m.generated_packets
    );
}

#[test]
fn receiver_buffer_pressure_clamps_grants() {
    // A relay chain where the middle node's BCP buffer is tiny: the relay
    // grants less than requested, and the system still moves data.
    let mut s = Scenario::single_hop(ModelKind::DualRadio, 1, 100, 4);
    s.topo = Topology::line(3, 40.0);
    s.sink = NodeId(0);
    s.senders = vec![NodeId(2)];
    s.duration = SimDuration::from_secs(400);
    s.bcp.buffer_cap_bytes = s.bcp.threshold_bytes.max(3_300); // ~103 packets
    let stats = s.run();
    assert!(
        stats.metrics.delivered_packets > 0,
        "clamped grants still deliver"
    );
    assert!(
        stats.goodput > 0.3,
        "relay under pressure keeps flowing: {}",
        stats.goodput
    );
}

#[test]
fn total_blackout_on_high_channel_loses_data_loudly() {
    // 100% loss on the high radio: every burst frame dies; the MAC gives
    // up after its retries; BCP accounts the packets as dropped.
    let stats = lossy_pair(5, LossModel::Perfect, LossModel::bernoulli(1.0)).run();
    assert_eq!(
        stats.metrics.delivered_packets, 0,
        "nothing can get through"
    );
    assert!(
        stats.metrics.drops_mac > 0,
        "losses are accounted as MAC drops"
    );
}

#[test]
fn control_blackout_strands_data_but_not_the_simulator() {
    // 100% loss on the LOW radio: wake-ups never arrive, no ack ever
    // comes, the sender retries and gives up forever. No delivery, no
    // wedge, no panic.
    let stats = lossy_pair(6, LossModel::bernoulli(1.0), LossModel::Perfect).run();
    assert_eq!(stats.metrics.delivered_packets, 0);
    assert_eq!(
        stats.metrics.radio_wakeups, 0,
        "high radio never woke: no ack, no wake"
    );
    assert!(stats.metrics.handshakes > 0, "it kept trying");
}

#[test]
fn extreme_contention_many_senders_tiny_bursts() {
    // Worst case for the handshake channel: every node bursts often.
    let mut s = Scenario::single_hop(ModelKind::DualRadio, 35, 10, 7);
    s.duration = SimDuration::from_secs(150);
    let stats = s.run();
    assert!(
        stats.goodput > 0.1,
        "still makes progress: {}",
        stats.goodput
    );
    assert!(stats.metrics.collisions > 0, "contention is real");
}
