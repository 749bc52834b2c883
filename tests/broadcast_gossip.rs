//! Directional traffic patterns, end to end: sink-to-all broadcast down
//! the dissemination tree (flooding over the low radio, bulk bursts over
//! the high radio) and deterministic many-to-many gossip flows — with the
//! per-flow accounting that makes both auditable:
//!
//! * broadcast reaches every live node (reach fraction, per-flow proof),
//! * gossip flows are a pure function of their seed,
//! * per-flow `FlowStats` sum exactly to the global `RunStats` counters,
//! * broadcast runs are bit-identical across shards 1/2/4 *and*
//!   `BCP_THREADS` 1/4 — sharding and threading change wall-clock time,
//!   never physics.

use bcp::net::addr::NodeId;
use bcp::net::topo::Topology;
use bcp::power::{Battery, PowerConfig};
use bcp::sim::time::SimDuration;
use bcp::simnet::{parse_spec, ModelKind, RunStats, Scenario, ScenarioBuilder, TrafficPattern};

/// A sink-to-all broadcast on the paper grid, sourced at the sink.
fn broadcast_grid(model: ModelKind, secs: u64, seed: u64) -> Scenario {
    ScenarioBuilder::new()
        .model(model)
        .traffic(TrafficPattern::Broadcast { source: NodeId(14) })
        .burst_packets(50)
        .rate_bps(500.0)
        .duration(SimDuration::from_secs(secs))
        .seed(seed)
        .build()
        .expect("broadcast preset is valid")
}

fn gossip_grid(model: ModelKind, pairs: usize, gossip_seed: u64, secs: u64) -> Scenario {
    ScenarioBuilder::new()
        .model(model)
        .traffic(TrafficPattern::Gossip {
            pairs,
            seed: gossip_seed,
        })
        .burst_packets(50)
        .rate_bps(500.0)
        .duration(SimDuration::from_secs(secs))
        .seed(7)
        .build()
        .expect("gossip preset is valid")
}

/// Per-flow stats must sum exactly to the global counters, and the
/// copy-conservation ledger must balance.
fn check_flow_accounting(stats: &RunStats) {
    let m = &stats.metrics;
    let gen: u64 = m.flows.values().map(|f| f.generated_packets).sum();
    let del: u64 = m.flows.values().map(|f| f.delivered_packets).sum();
    let gen_bits: u64 = m.flows.values().map(|f| f.generated_bits).sum();
    let del_bits: u64 = m.flows.values().map(|f| f.delivered_bits).sum();
    let delays: u64 = m.flows.values().map(|f| f.delay.count()).sum();
    assert_eq!(gen, m.generated_packets, "flow generation sums to global");
    assert_eq!(del, m.delivered_packets, "flow delivery sums to global");
    assert_eq!(gen_bits, m.generated_bits);
    assert_eq!(del_bits, m.delivered_bits);
    assert_eq!(delays, m.delivered_packets, "one delay sample per delivery");
    assert_eq!(
        m.delivered_packets + m.drops_mac + m.drops_buffer + m.residual_packets,
        m.generated_packets,
        "copy conservation: delivered {} + mac {} + buffer {} + residual {} == generated {}",
        m.delivered_packets,
        m.drops_mac,
        m.drops_buffer,
        m.residual_packets,
        m.generated_packets
    );
}

// ── broadcast ───────────────────────────────────────────────────────────

#[test]
fn broadcast_flood_reaches_all_alive_nodes() {
    // Sensor-model flooding over the low radio: 35 recipient flows, each
    // delivering essentially everything generated for it (only copies
    // still relaying at the horizon may be outstanding).
    let stats = broadcast_grid(ModelKind::Sensor, 300, 3).run();
    let m = &stats.metrics;
    assert_eq!(m.flows.len(), 35, "one flow per non-source node");
    for ((src, dst), f) in &m.flows {
        assert_eq!(*src, NodeId(14), "all flows originate at the source");
        assert_ne!(*dst, NodeId(14));
        assert!(f.generated_packets > 0, "every recipient was counted");
        assert!(
            f.delivered_packets >= f.generated_packets.saturating_sub(12),
            "{src}->{dst}: flood reached the recipient ({} of {})",
            f.delivered_packets,
            f.generated_packets
        );
    }
    let reach = stats.broadcast_reach.expect("broadcast runs report reach");
    assert!(reach > 0.95, "near-total dissemination: {reach}");
    // Loss-free channel, but concurrent flood relays are hidden terminals
    // to each other: a handful of collision-driven MAC drops is physics.
    assert!(
        (m.drops_mac + m.drops_buffer) as f64 <= m.generated_packets as f64 * 0.01,
        "losses stay rare on a clean channel: {} of {}",
        m.drops_mac + m.drops_buffer,
        m.generated_packets
    );
    check_flow_accounting(&stats);
    // Multi-hop flooding: farther recipients see later copies.
    let near = &m.flows[&(NodeId(14), NodeId(13))];
    let corner = &m.flows[&(NodeId(14), NodeId(35))];
    assert!(
        corner.delay.mean() > near.delay.mean(),
        "the corner is more hops down the tree: {} vs {}",
        corner.delay.mean(),
        near.delay.mean()
    );
}

#[test]
fn broadcast_bulk_over_high_radio_disseminates() {
    // DualRadio: the source buffers per tree child and bursts over the
    // high radio; relays re-buffer and burst onward. The same tree, the
    // paper's bulk trade-off: fewer wakeups, buffering delay.
    let stats = broadcast_grid(ModelKind::DualRadio, 400, 5).run();
    let reach = stats.broadcast_reach.expect("reach reported");
    assert!(reach > 0.7, "bulk dissemination reaches the grid: {reach}");
    assert!(
        stats.metrics.radio_wakeups > 0,
        "dissemination rode the high radio"
    );
    assert!(
        stats.mean_delay_s > 1.0,
        "bulk buffering delay is visible: {}",
        stats.mean_delay_s
    );
    check_flow_accounting(&stats);
}

#[test]
fn broadcast_survives_a_relay_death() {
    // A starved relay dies mid-run; route repair rebuilds the
    // dissemination tree and the flood keeps reaching the survivors.
    let mut s = broadcast_grid(ModelKind::Sensor, 300, 9);
    s.power = PowerConfig::unlimited().with_node_battery(13, Battery::ideal_joules(2.0));
    let stats = s.run();
    let m = &stats.metrics;
    assert_eq!(m.node_deaths, 1, "exactly the starved relay dies");
    let ttfd = stats.time_to_first_death_s.expect("death inside the run");
    assert!(ttfd < 200.0, "death leaves time to recover: {ttfd}");
    assert!(
        m.delivered_packets > m.delivered_before_first_death,
        "dissemination continued after the death"
    );
    // Survivors (e.g. the far corner, which routed through the grid
    // centre) keep receiving: their flows stay near-complete.
    let corner = &m.flows[&(NodeId(14), NodeId(35))];
    assert!(
        corner.reach() > 0.9,
        "the repaired tree still reaches the corner: {}",
        corner.reach()
    );
    // The corpse's flow froze when it died.
    let dead = &m.flows[&(NodeId(14), NodeId(13))];
    assert!(dead.reach() < 1.0, "a corpse stops receiving");
}

// ── gossip ──────────────────────────────────────────────────────────────

#[test]
fn gossip_flows_are_deterministic_per_seed() {
    let a = gossip_grid(ModelKind::Sensor, 6, 11, 120);
    let b = gossip_grid(ModelKind::Sensor, 6, 11, 120);
    assert_eq!(a.flows(), b.flows(), "same gossip seed, same pairs");
    assert_eq!(a.senders, b.senders);
    let ra = a.run();
    let rb = b.run();
    assert_eq!(ra.metrics, rb.metrics, "same scenario, bit-identical run");
    // A different gossip seed draws a different mesh (and therefore
    // different flow keys), while the scenario stays valid.
    let c = gossip_grid(ModelKind::Sensor, 6, 12, 120);
    assert_ne!(a.flows(), c.flows(), "the pair draw depends on its seed");
    // Flows are sorted, distinct-source, and never self- or sink-sourced.
    for (s, d) in a.flows() {
        assert_ne!(s, d);
        assert_ne!(s, NodeId(14), "the sink does not source gossip");
    }
}

#[test]
fn gossip_delivers_between_arbitrary_pairs() {
    for model in [ModelKind::Sensor, ModelKind::DualRadio] {
        let stats = gossip_grid(model, 6, 11, 300).run();
        let m = &stats.metrics;
        assert!(
            m.flows.len() >= 6,
            "{model:?}: at least the six source flows appear"
        );
        assert!(
            stats.goodput > 0.5,
            "{model:?}: gossip mesh delivers: {}",
            stats.goodput
        );
        check_flow_accounting(&stats);
        // Every drawn flow delivered something.
        let scen = gossip_grid(model, 6, 11, 300);
        for (s, d) in scen.flows() {
            let f = &m.flows[&(s, d)];
            assert!(
                f.delivered_packets > 0,
                "{model:?}: flow {s}->{d} delivered nothing"
            );
        }
    }
}

#[test]
fn converge_per_flow_stats_sum_to_global() {
    // The flow ledger is not broadcast-specific: the paper's convergecast
    // run carries one flow per sender and the same exact sums.
    let mut s = Scenario::single_hop(ModelKind::DualRadio, 10, 100, 7);
    s.duration = SimDuration::from_secs(200);
    let stats = s.run();
    assert_eq!(stats.metrics.flows.len(), 10, "one flow per sender");
    assert!(stats
        .metrics
        .flows
        .keys()
        .all(|(_, dst)| *dst == NodeId(14)));
    assert!(stats.broadcast_reach.is_none(), "reach is broadcast-only");
    check_flow_accounting(&stats);
}

// ── bit-identity across shards and threads ──────────────────────────────

fn assert_bit_identical(a: &RunStats, b: &RunStats, label: &str) {
    assert_eq!(a.goodput, b.goodput, "{label}: goodput");
    assert_eq!(a.energy_j, b.energy_j, "{label}: energy");
    assert_eq!(a.mean_delay_s, b.mean_delay_s, "{label}: delay");
    assert_eq!(a.events, b.events, "{label}: events");
    assert_eq!(a.broadcast_reach, b.broadcast_reach, "{label}: reach");
    assert_eq!(a.metrics, b.metrics, "{label}: full metrics incl. flows");
    assert_eq!(a.per_node, b.per_node, "{label}: per-node accounting");
}

/// Restores the process's original `BCP_THREADS` on drop — including on
/// a failing assertion mid-test — so a CI matrix pin (e.g.
/// `BCP_THREADS=1`) survives this test for every sibling that runs
/// after it.
struct ThreadsEnvGuard(Option<String>);

impl ThreadsEnvGuard {
    fn capture() -> Self {
        ThreadsEnvGuard(std::env::var("BCP_THREADS").ok())
    }
}

impl Drop for ThreadsEnvGuard {
    fn drop(&mut self) {
        match &self.0 {
            Some(v) => std::env::set_var("BCP_THREADS", v),
            None => std::env::remove_var("BCP_THREADS"),
        }
    }
}

#[test]
fn broadcast_and_gossip_bit_identical_across_shards_and_threads() {
    // Environment mutation is process-global; every BCP_THREADS case
    // therefore lives in this one test, and the guard puts the original
    // value back afterwards. Concurrent tests reading the variable
    // mid-flip are unaffected *because* of the property under test: the
    // thread count never changes results.
    let _guard = ThreadsEnvGuard::capture();
    let broadcast = |shards: usize| {
        let mut s = broadcast_grid(ModelKind::Sensor, 120, 17);
        // A death mid-run exercises tree repair under sharding too.
        s.power = PowerConfig::unlimited().with_node_battery(20, Battery::ideal_joules(2.0));
        s.shards = shards;
        s
    };
    let gossip = |shards: usize| {
        let mut s = gossip_grid(ModelKind::DualRadio, 6, 11, 120);
        s.shards = shards;
        s
    };
    let b1 = broadcast(1).run();
    assert_eq!(b1.metrics.node_deaths, 1, "the starved relay dies");
    assert!(b1.metrics.delivered_packets > 500, "the flood flows");
    let g1 = gossip(1).run();
    assert!(g1.metrics.delivered_packets > 100, "the mesh flows");
    for threads in ["1", "4"] {
        std::env::set_var("BCP_THREADS", threads);
        for k in [1, 2, 4] {
            let label = |what: &str| format!("{what} shards={k} threads={threads}");
            assert_bit_identical(&b1, &broadcast(k).run(), &label("broadcast"));
            assert_bit_identical(&g1, &gossip(k).run(), &label("gossip"));
        }
    }
}

// ── the .scn surface ────────────────────────────────────────────────────

#[test]
fn traffic_patterns_run_from_scn_text() {
    let b = parse_spec(
        "model = sensor\ntraffic = broadcast:14\nrate_bps = 500.0\n\
         burst_packets = 50\nduration_s = 60\n",
    )
    .expect("broadcast .scn parses");
    assert_eq!(b.senders, vec![NodeId(14)], "the source is the only sender");
    let stats = b.run();
    assert!(stats.broadcast_reach.unwrap() > 0.9);

    let g = parse_spec("traffic = gossip:4:9\nduration_s = 60\nburst_packets = 50\n")
        .expect("gossip .scn parses");
    assert_eq!(g.senders.len(), 4);
    assert_eq!(g.pattern, TrafficPattern::Gossip { pairs: 4, seed: 9 });
}

#[test]
fn broadcast_line_topology_chain_relay() {
    // A 6-node line sourced at one end: every hop is a tree edge, so the
    // flood is a relay chain and delay grows along it.
    let mut s = broadcast_grid(ModelKind::Sensor, 200, 21);
    s.topo = Topology::line(6, 40.0);
    s.sink = NodeId(0);
    s.pattern = TrafficPattern::Broadcast { source: NodeId(0) };
    s.senders = vec![NodeId(0)];
    let stats = s.run();
    let m = &stats.metrics;
    assert_eq!(m.flows.len(), 5);
    check_flow_accounting(&stats);
    let first = &m.flows[&(NodeId(0), NodeId(1))];
    let last = &m.flows[&(NodeId(0), NodeId(5))];
    assert!(first.reach() > 0.95 && last.reach() > 0.9);
    assert!(
        last.delay.mean() > first.delay.mean() * 2.0,
        "five store-and-forward hops dwarf one: {} vs {}",
        last.delay.mean(),
        first.delay.mean()
    );
}
