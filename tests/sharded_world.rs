//! The sharded simulator's cross-crate guarantees: splitting one world
//! across shards never changes physics (bit-identical `RunStats` for any
//! shard count), and a thousands-of-nodes grid — the regime the sharding
//! exists for — simulates end to end.

use bcp::experiments::scale::sensor_scale;
use bcp::net::addr::NodeId;
use bcp::power::{Battery, PowerConfig};
use bcp::sim::time::{SimDuration, SimTime};
use bcp::simnet::{
    LiveWorld, ModelKind, RunOptions, RunStats, Scenario, ScenarioBuilder, SleepSchedule,
    TrafficPattern, World,
};

/// Every reported quantity must match bit-for-bit, floats included.
fn assert_bit_identical(a: &RunStats, b: &RunStats, label: &str) {
    assert_eq!(a.goodput, b.goodput, "{label}: goodput");
    assert_eq!(a.energy_j, b.energy_j, "{label}: energy");
    assert_eq!(
        a.energy_header_j, b.energy_header_j,
        "{label}: header energy"
    );
    assert_eq!(a.mean_delay_s, b.mean_delay_s, "{label}: delay");
    assert_eq!(a.events, b.events, "{label}: events");
    assert_eq!(a.time_to_first_death_s, b.time_to_first_death_s, "{label}");
    assert_eq!(a.time_to_partition_s, b.time_to_partition_s, "{label}");
    assert_eq!(
        a.delivered_before_first_death, b.delivered_before_first_death,
        "{label}"
    );
    let (ma, mb) = (&a.metrics, &b.metrics);
    assert_eq!(ma.generated_packets, mb.generated_packets, "{label}");
    assert_eq!(ma.delivered_packets, mb.delivered_packets, "{label}");
    assert_eq!(ma.drops_mac, mb.drops_mac, "{label}: mac drops");
    assert_eq!(ma.drops_buffer, mb.drops_buffer, "{label}: buffer drops");
    assert_eq!(ma.residual_packets, mb.residual_packets, "{label}");
    assert_eq!(ma.collisions, mb.collisions, "{label}: collisions");
    assert_eq!(ma.handshakes, mb.handshakes, "{label}: handshakes");
    assert_eq!(ma.radio_wakeups, mb.radio_wakeups, "{label}: wakeups");
    assert_eq!(ma.node_deaths, mb.node_deaths, "{label}: deaths");
    assert_eq!(
        a.energy_low_idle_j, b.energy_low_idle_j,
        "{label}: idle floor"
    );
    assert_eq!(
        a.energy_low_sleep_j, b.energy_low_sleep_j,
        "{label}: sleep floor"
    );
    assert_eq!(a.per_node, b.per_node, "{label}: per-node accounting");
}

#[test]
fn shards_1_2_4_are_bit_identical_with_deaths_and_repair() {
    // The full gauntlet: battery deaths mid-run (global route repair),
    // energy-aware periodic rerouting, cross-shard traffic on the paper
    // grid — delivered counts, energy and death times must all agree.
    let build = |shards: usize| {
        let mut s = Scenario::single_hop(ModelKind::Sensor, 10, 10, 99);
        s.duration = SimDuration::from_secs(50);
        s.power = PowerConfig::unlimited()
            .with_node_battery(7, Battery::ideal_joules(0.9))
            .with_node_battery(21, Battery::ideal_joules(1.1))
            .with_reroute_every(SimDuration::from_secs(10));
        s.shards = shards;
        s
    };
    let one = build(1).run();
    assert!(one.metrics.node_deaths >= 2, "both starved relays die");
    assert!(one.metrics.delivered_packets > 100, "traffic flows");
    for k in [2, 4] {
        assert_bit_identical(&one, &build(k).run(), &format!("shards={k}"));
    }
}

#[test]
fn shards_1_2_4_reach_the_same_world_state_dual_radio() {
    let build = |shards: usize| {
        let mut s = Scenario::multi_hop(ModelKind::DualRadio, 8, 100, 41);
        s.duration = SimDuration::from_secs(60);
        s.shards = shards;
        s
    };
    let one = build(1).run();
    assert!(one.metrics.radio_wakeups > 0, "bursts happened");
    // Whole-world equality at the horizon is strictly stronger than
    // comparing the reported metric stream: a `WorldState` carries every
    // queue entry, RNG stream, radio ledger, MAC register and route
    // table, canonicalized to be shard-count independent — if anything
    // at all drifted, the runs were not the same machine.
    let opts = RunOptions::default();
    let at_horizon = |shards: usize| {
        let mut w = World::build(&build(shards), &opts);
        w.run_to(w.end());
        // `.with_shards(0)` blanks the one field that legitimately
        // differs (the partition the snapshot was taken under).
        w.snapshot().with_shards(0)
    };
    let reference = at_horizon(1);
    for k in [2, 4] {
        assert_eq!(
            at_horizon(k),
            reference,
            "shards={k}: world state at the horizon"
        );
    }
}

/// Strips the wall-clock `"engine":{...}` block out of
/// [`RunStats::to_json`] — the one part of the summary that is
/// deliberately outside the bit-identity contract.
fn strip_engine(json: &str) -> String {
    let start = json
        .find("\"engine\":")
        .expect("stats JSON has an engine block");
    let open = json[start..].find('{').expect("engine opens") + start;
    // The engine block is a flat object (arrays, no nested objects), so
    // the first closing brace ends it; skip the trailing comma too.
    let close = json[open..].find('}').expect("engine closes") + open;
    format!("{}{}", &json[..start], &json[close + 2..])
}

#[test]
fn snapshot_reshard_matrix_on_lpl_broadcast_with_deaths() {
    // The checkpoint exactness matrix on the nastiest compound scenario:
    // sink-to-all broadcast down the dissemination tree, low-power
    // listening (per-node sleep timers and stretched preambles), and a
    // battery death mid-run. The printed summary must be byte-identical
    // across shard counts — and for a 1-shard snapshot taken mid-run and
    // resumed as 4 shards — modulo the wall-clock `.engine` block.
    let build = |shards: usize| {
        let mut s = Scenario::single_hop(ModelKind::Sensor, 1, 10, 11);
        s.pattern = TrafficPattern::Broadcast { source: s.sink };
        s.senders = vec![s.sink];
        s.duration = SimDuration::from_secs(60);
        s.rate_bps = 500.0;
        s.low_sleep =
            SleepSchedule::lpl(SimDuration::from_millis(100), SimDuration::from_millis(10));
        s.power = PowerConfig::unlimited().with_node_battery(5, Battery::ideal_joules(0.05));
        s.shards = shards;
        s
    };
    let one = build(1).run();
    assert!(one.metrics.node_deaths >= 1, "the starved node dies");
    assert!(
        one.metrics.delivered_packets > 0,
        "the broadcast reaches someone"
    );
    let reference = strip_engine(&one.to_json());
    for k in [2, 4] {
        assert_eq!(
            strip_engine(&build(k).run().to_json()),
            reference,
            "shards={k}: summary JSON"
        );
    }
    // Checkpoint the 1-shard run before the death, restore it as 4
    // shards, and let the death and the rest of the dissemination play
    // out under the new partition.
    let opts = RunOptions::default();
    let mut lw = World::build(&build(1), &opts);
    lw.run_to(SimTime::from_secs(10));
    let snap = lw.snapshot();
    let resumed = LiveWorld::restore(&snap.with_shards(4), &opts)
        .finish()
        .stats;
    assert_eq!(
        strip_engine(&resumed.to_json()),
        reference,
        "1-shard checkpoint resumed as 4 shards"
    );
}

#[test]
fn lpl_duty_cycling_is_bit_identical_across_shards_with_deaths() {
    // Low-power listening adds per-node sleep timers, mid-preamble frame
    // lock-ons and preamble-stretched airtimes — all of it strictly
    // node-local, so shard count must still never change physics. The
    // scenario kills a battery-starved relay mid-run to cover the
    // death/repair path under duty cycling too.
    let build = |shards: usize| {
        ScenarioBuilder::single_hop(ModelKind::Sensor, 5, 10, 3)
            .rate_bps(200.0)
            .duration(SimDuration::from_secs(120))
            .low_sleep(SleepSchedule::lpl(
                SimDuration::from_millis(100),
                SimDuration::from_millis(10),
            ))
            .power(PowerConfig::unlimited().with_node_battery(20, Battery::ideal_joules(2.0)))
            .shards(shards)
            .build()
            .expect("valid LPL scenario")
    };
    let one = build(1).run();
    assert_eq!(one.metrics.node_deaths, 1, "the starved relay dies");
    assert!(
        one.metrics.delivered_packets > 50,
        "traffic flows under LPL"
    );
    assert!(
        one.energy_low_sleep_j > 0.0,
        "the low radios really dozed: {} J",
        one.energy_low_sleep_j
    );
    // Duty cycling at ~10% must collapse the idle tax well below the
    // always-on bill (36 nodes x 59.1 mW x 120 s ~ 255 J).
    assert!(
        one.energy_low_idle_j < 100.0,
        "idle floor shrank: {} J",
        one.energy_low_idle_j
    );
    for k in [2, 4] {
        assert_bit_identical(&one, &build(k).run(), &format!("lpl shards={k}"));
    }
}

#[test]
fn lpl_dual_radio_is_bit_identical_across_shards() {
    // The BCP wake-up handshake rides the duty-cycled low radio: every
    // control hop pays the stretched preamble, sometimes times out, and
    // the retry cascade must still replay identically per shard count.
    let build = |shards: usize| {
        ScenarioBuilder::single_hop(ModelKind::DualRadio, 5, 100, 7)
            .duration(SimDuration::from_secs(90))
            .low_sleep(SleepSchedule::lpl(
                SimDuration::from_millis(50),
                SimDuration::from_millis(5),
            ))
            .shards(shards)
            .build()
            .expect("valid LPL dual-radio scenario")
    };
    let one = build(1).run();
    assert!(
        one.metrics.handshakes > 0,
        "handshakes crossed the LPL radio"
    );
    assert!(one.metrics.radio_wakeups > 0, "bursts still happen");
    assert!(one.metrics.delivered_packets > 0, "data still arrives");
    assert!(one.energy_low_sleep_j > 0.0, "the low radios dozed");
    for k in [2, 4] {
        assert_bit_identical(&one, &build(k).run(), &format!("lpl dual shards={k}"));
    }
}

#[test]
fn two_thousand_node_grid_smoke() {
    // 45×45 = 2025 nodes, sensor model, sink at the centre, ~200 senders
    // — the single-run scale the partitioned engine exists for. Short
    // horizon so the smoke test stays inside tier-1 budgets.
    let mut s = sensor_scale(45, 3);
    s.duration = SimDuration::from_secs(4);
    s.shards = 4;
    let stats = s.run();
    assert_eq!(stats.per_node.len(), 2025);
    // ~200 senders funnel 400 kbps into one 250 kbps sink radio: the
    // convergecast is (realistically) congestion-collapsed, so the smoke
    // test asserts coherent completion, not high goodput. Exact packet
    // conservation across 2k nodes is checked inside `finalize`.
    assert!(
        stats.metrics.delivered_packets > 200,
        "large grid moves traffic: {} delivered",
        stats.metrics.delivered_packets
    );
    assert!(
        stats.metrics.generated_packets > 5_000,
        "hundreds of senders generate load"
    );
    assert!(stats.events > 500_000, "large run: {} events", stats.events);
    assert!(stats.energy_j > 0.0);
}

#[test]
fn sharding_composes_with_custom_sinks_and_lines() {
    // A line topology cut into strips: every boundary is exercised in a
    // chain, including one where the sink sits at a strip edge.
    let build = |shards: usize| {
        let mut s = Scenario::single_hop(ModelKind::Sensor, 1, 10, 5);
        s.topo = bcp::net::topo::Topology::line(12, 40.0);
        s.sink = NodeId(5);
        s.senders = vec![NodeId(0), NodeId(11)];
        s.duration = SimDuration::from_secs(60);
        s.shards = shards;
        s
    };
    let one = build(1).run();
    assert!(one.goodput > 0.9, "line delivers: {}", one.goodput);
    for k in [2, 3, 6] {
        assert_bit_identical(&one, &build(k).run(), &format!("shards={k}"));
    }
}
