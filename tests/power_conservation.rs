//! Energy-conservation invariants of the finite-battery subsystem, checked
//! over randomized full-stack scenario runs.
//!
//! The load-bearing property: a node's battery supplies **exactly** what
//! its radio ledgers meter — no energy is created, lost, or double-billed
//! anywhere in the world's event handling — and a dead node's ledger
//! freezes at the instant of death.

use bcp::net::addr::NodeId;
use bcp::net::routing::RouteWeight;
use bcp::net::topo::Topology;
use bcp::power::{Battery, PowerConfig};
use bcp::sim::rng::Rng;
use bcp::sim::time::SimDuration;
use bcp::simnet::{ModelKind, RunStats, Scenario};

/// `battery.drawn() == ledger total` for every node, clamped at capacity
/// for nodes that died (a death's projected instant rounds to the 1 ns
/// event grid, so the bound carries a one-tick allowance).
fn check_conservation(stats: &RunStats, context: &str) {
    assert!(!stats.per_node.is_empty(), "{context}: per-node reports");
    for n in &stats.per_node {
        let Some(drawn) = n.drawn_j else { continue };
        let cap = n.capacity_j.expect("battery nodes report capacity");
        assert!(
            (drawn - n.ledger_j.min(cap)).abs() < 1e-6,
            "{context} {}: battery drew {drawn} J but ledgers metered {} J (cap {cap})",
            n.node,
            n.ledger_j
        );
        let residual = n.residual_j.unwrap();
        assert!(
            (cap - drawn - residual).abs() < 1e-9,
            "{context} {}: capacity {cap} != drawn {drawn} + residual {residual}",
            n.node
        );
        if n.died_at_s.is_some() {
            // Dead ledgers stop accumulating: had the radios kept running
            // past the death, idle drain alone would blow this bound.
            assert!(
                n.ledger_j <= cap + 1e-6,
                "{context} {}: ledger accumulated past depletion ({} J > {cap} J)",
                n.node,
                n.ledger_j
            );
            assert!(
                residual < 1e-9,
                "{context} {}: died with charge left",
                n.node
            );
        }
    }
}

#[test]
fn battery_drain_equals_ledger_totals_across_arbitrary_runs() {
    let mut rng = Rng::new(0xBA77E21);
    for case in 0..12 {
        let model = match rng.range_u64(0, 3) {
            0 => ModelKind::Sensor,
            1 => ModelKind::Dot11,
            _ => ModelKind::DualRadio,
        };
        let senders = rng.range_u64(1, 6) as usize;
        let burst = [10, 50, 100][rng.range_u64(0, 3) as usize];
        let secs = rng.range_u64(60, 240);
        let capacity = 2.0 + rng.f64() * 60.0;
        let seed = rng.next_u64();
        let mut s = Scenario::single_hop(model, senders, burst, seed);
        s.duration = SimDuration::from_secs(secs);
        let mut power = PowerConfig::with_battery(Battery::ideal_joules(capacity));
        if rng.range_u64(0, 2) == 0 {
            power = power.battery_powered_sink();
        }
        if rng.range_u64(0, 2) == 0 {
            s.route_weight = RouteWeight::MaxMinResidual;
            power = power.with_reroute_every(SimDuration::from_secs(30));
        }
        s.power = power;
        let stats = s.run();
        check_conservation(
            &stats,
            &format!("case {case} ({model:?}, {senders} senders, {capacity:.1} J)"),
        );
    }
}

#[test]
fn capacity_rated_batteries_conserve_too() {
    // The mAh@V model goes through the same drain path; make sure the
    // voltage-curve bookkeeping does not leak energy either.
    let mut s = Scenario::single_hop(ModelKind::DualRadio, 5, 100, 9);
    s.duration = SimDuration::from_secs(300);
    s.power = PowerConfig::with_battery(Battery::aa_pair().scaled(5e-4));
    let stats = s.run();
    assert!(stats.metrics.node_deaths > 0, "scaled AA packs deplete");
    check_conservation(&stats, "capacity-rated");
}

#[test]
fn mains_powered_runs_report_ledgers_but_no_batteries() {
    let mut s = Scenario::single_hop(ModelKind::Sensor, 5, 10, 3);
    s.duration = SimDuration::from_secs(120);
    let stats = s.run();
    for n in &stats.per_node {
        assert!(n.drawn_j.is_none() && n.capacity_j.is_none() && n.residual_j.is_none());
        assert!(n.ledger_j > 0.0, "meters still run on mains power");
        assert!(n.died_at_s.is_none());
    }
}

#[test]
fn identical_seeds_reproduce_identical_death_times() {
    let build = || {
        let mut s = Scenario::single_hop(ModelKind::DualRadio, 8, 100, 77);
        s.duration = SimDuration::from_secs(300);
        s.power = PowerConfig::with_battery(Battery::ideal_joules(9.0));
        s.run()
    };
    let (a, b) = (build(), build());
    let deaths =
        |r: &RunStats| -> Vec<Option<f64>> { r.per_node.iter().map(|n| n.died_at_s).collect() };
    assert_eq!(deaths(&a), deaths(&b));
    assert_eq!(a.time_to_first_death_s, b.time_to_first_death_s);
    assert_eq!(a.time_to_partition_s, b.time_to_partition_s);
    assert!(a.metrics.node_deaths > 0, "the scenario exercises death");
}

#[test]
fn starved_relay_dies_first_and_traffic_reroutes() {
    // End-to-end version of the route-repair story on a line topology:
    // 4 nodes, the sender's next hop starved. After it dies the line is
    // genuinely severed (a line has no second path), so the partition
    // instant must match the death instant.
    let mut s = Scenario::single_hop(ModelKind::Sensor, 1, 10, 2);
    s.topo = Topology::line(4, 40.0);
    s.sink = NodeId(0);
    s.senders = vec![NodeId(3)];
    s.duration = SimDuration::from_secs(300);
    s.rate_bps = 500.0;
    s.power = PowerConfig::unlimited().with_node_battery(2, Battery::ideal_joules(4.0));
    let stats = s.run();
    let ttfd = stats.time_to_first_death_s.expect("starved relay dies");
    assert_eq!(stats.per_node[2].died_at_s, Some(ttfd));
    assert_eq!(
        stats.time_to_partition_s,
        Some(ttfd),
        "a severed line partitions at the death"
    );
    assert!(
        stats.delivered_before_first_death > 0,
        "traffic flowed while the relay lived"
    );
    check_conservation(&stats, "starved-relay");
}
