//! The correctness gate applied to every run or cell, and the physics
//! digest: a hash of `RunStats::to_json` without its wall-clock
//! `engine` block, so two commits (or a traced and an untraced run) can
//! be checked for unchanged simulated results.

use bcp_sim::json::{parse, Value};
use bcp_snapshot::cache::sha256_hex;

/// The counters the benchmark reads out of one run's stats JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Facts {
    pub events: u64,
    pub handshakes: u64,
    pub radio_wakeups: u64,
    pub collisions: u64,
    pub drops_buffer: u64,
    pub drops_mac: u64,
    pub node_deaths: u64,
    pub threads: u64,
    pub windows: u64,
    pub barriers: u64,
    pub serial_steps: u64,
    pub barrier_wait_s: f64,
    pub engine_wall_s: f64,
    pub per_shard_events: Vec<u64>,
    pub max_queue: u64,
}

/// Checks one run's stats and reads its counters. The checks:
/// goodput in [0, 1], finite non-negative energy, and exact packet
/// conservation (delivered + MAC drops + buffer drops + residual ==
/// generated).
pub fn check(stats_json: &str) -> Result<Facts, String> {
    let v = parse(&summary(stats_json)?).map_err(|e| format!("stats are not JSON: {e}"))?;
    let goodput = num(&v, "goodput")?;
    if !(0.0..=1.0 + 1e-9).contains(&goodput) {
        return Err(format!("goodput {goodput} outside [0, 1]"));
    }
    let energy = num(&v, "energy_j")?;
    if !energy.is_finite() || energy < 0.0 {
        return Err(format!("energy {energy} J is not finite and non-negative"));
    }
    let m = v.get("metrics").ok_or("stats lack metrics")?;
    let generated = int(m, "generated_packets")?;
    let delivered = int(m, "delivered_packets")?;
    let drops_mac = int(m, "drops_mac")?;
    let drops_buffer = int(m, "drops_buffer")?;
    let residual = int(m, "residual_packets")?;
    if delivered + drops_mac + drops_buffer + residual != generated {
        return Err(format!(
            "packets not conserved: delivered {delivered} + mac {drops_mac} + buffer \
             {drops_buffer} + residual {residual} != generated {generated}"
        ));
    }
    let e = v.get("engine").ok_or("stats lack the engine block")?;
    let ints = |key: &str| -> Result<Vec<u64>, String> {
        e.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("engine lacks {key}"))?
            .iter()
            .map(|x| {
                x.as_u64()
                    .ok_or(format!("engine {key} holds a non-integer"))
            })
            .collect()
    };
    Ok(Facts {
        events: int(&v, "events")?,
        handshakes: int(m, "handshakes")?,
        radio_wakeups: int(m, "radio_wakeups")?,
        collisions: int(m, "collisions")?,
        drops_buffer,
        drops_mac,
        node_deaths: int(m, "node_deaths")?,
        threads: int(e, "threads")?,
        windows: int(e, "windows")?,
        barriers: int(e, "barriers")?,
        serial_steps: int(e, "serial_steps")?,
        barrier_wait_s: num(e, "barrier_wait_s")?,
        engine_wall_s: num(e, "wall_s")?,
        per_shard_events: ints("per_shard_events")?,
        max_queue: ints("per_shard_max_queue")?.into_iter().max().unwrap_or(0),
    })
}

/// The stats up to (excluding) the per-flow and per-node arrays, closed
/// into an object: every field the gate reads, without parsing one
/// entry per node.
fn summary(stats_json: &str) -> Result<String, String> {
    let cut = stats_json
        .find(",\"flows\":[")
        .ok_or("stats lack the flows array")?;
    Ok(format!("{}}}", &stats_json[..cut]))
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or(format!("stats field {key} is missing or not a number"))
}

fn int(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or(format!("stats field {key} is missing or not an integer"))
}

/// `stats_json` without its top-level `"engine":{...}` member (the only
/// wall-clock part of the stats).
pub fn without_engine(stats_json: &str) -> Result<String, String> {
    const KEY: &str = "\"engine\":{";
    let at = stats_json.find(KEY).ok_or("stats lack an engine block")?;
    let body = at + KEY.len();
    // The engine block holds numbers and arrays only, so the first
    // closing brace after it ends it.
    let close = stats_json[body..]
        .find('}')
        .ok_or("unterminated engine block")?
        + body;
    let mut rest = &stats_json[close + 1..];
    let mut head = &stats_json[..at];
    if let Some(r) = rest.strip_prefix(',') {
        rest = r;
    } else if let Some(h) = head.strip_suffix(',') {
        head = h;
    }
    Ok(format!("{head}{rest}"))
}

/// The physics digest of one run: SHA-256 of the stats without `engine`.
pub fn digest(stats_json: &str) -> Result<String, String> {
    Ok(sha256_hex(without_engine(stats_json)?.as_bytes()))
}

/// One digest over many runs, in the given order.
pub fn combine(digests: &[String]) -> String {
    sha256_hex(digests.join("\n").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATS: &str = "{\"goodput\":0.5,\"energy_j\":2.0,\"events\":10,\
        \"engine\":{\"shards\":2,\"threads\":1,\"windows\":4,\"barriers\":4,\
        \"serial_steps\":0,\"mean_window_s\":0.1,\"barrier_wait_s\":0,\"wall_s\":0.01,\
        \"events_per_sec\":1000,\"per_shard_events\":[6,5],\"per_shard_max_queue\":[3,9]},\
        \"metrics\":{\"generated_packets\":10,\"delivered_packets\":5,\"drops_buffer\":1,\
        \"drops_mac\":2,\"residual_packets\":2,\"handshakes\":1,\"radio_wakeups\":1,\
        \"collisions\":0,\"node_deaths\":0},\"flows\":[],\"per_node\":[]}";

    #[test]
    fn digest_ignores_only_the_engine_block() {
        let stripped = without_engine(STATS).unwrap();
        assert!(!stripped.contains("engine"));
        assert!(!stripped.contains("windows"));
        assert!(stripped.contains("\"events\":10,\"metrics\""));
        assert!(parse(&stripped).is_ok(), "still valid JSON: {stripped}");
        // Wall-clock noise in the engine block leaves the digest alone...
        let noisy = STATS.replace("\"wall_s\":0.01", "\"wall_s\":7.5");
        assert_eq!(digest(STATS).unwrap(), digest(&noisy).unwrap());
        // ...while any simulated result changes it.
        let other = STATS.replace("\"goodput\":0.5", "\"goodput\":0.25");
        assert_ne!(digest(STATS).unwrap(), digest(&other).unwrap());
        // A trailing engine member drops its leading comma.
        assert_eq!(
            without_engine("{\"a\":1,\"engine\":{\"b\":[2]}}").unwrap(),
            "{\"a\":1}"
        );
        assert!(without_engine("{\"a\":1}").is_err());
    }

    #[test]
    fn gate_accepts_conserving_stats_and_reads_counters() {
        let f = check(STATS).unwrap();
        assert_eq!(f.events, 10);
        assert_eq!(f.per_shard_events, vec![6, 5]);
        assert_eq!(f.max_queue, 9);
    }

    #[test]
    fn gate_rejects_broken_physics() {
        let leak = STATS.replace("\"residual_packets\":2", "\"residual_packets\":1");
        assert!(check(&leak).unwrap_err().contains("conserved"));
        let over = STATS.replace("\"goodput\":0.5", "\"goodput\":1.5");
        assert!(check(&over).unwrap_err().contains("goodput"));
        let neg = STATS.replace("\"energy_j\":2.0", "\"energy_j\":-1");
        assert!(check(&neg).unwrap_err().contains("energy"));
        let nan = STATS.replace("\"energy_j\":2.0", "\"energy_j\":null");
        assert!(check(&nan).is_err());
    }
}
