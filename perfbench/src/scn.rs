//! Workload inputs: `.scn` scenario text generated from the workload
//! seed. The program under test only ever sees this text.

/// Runs in one `lifetime_shadowed` study (one pass of the workload).
pub const LIFETIME_STUDY: usize = 48;

/// SplitMix64: the seed stream every generated input draws from.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` scenario seeds derived from the workload seed and a per-workload
/// salt (kept below 10⁹ so they read well in the `.scn` text).
fn seeds(seed: u64, salt: u64, n: usize) -> Vec<u64> {
    let mut st = seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F);
    (0..n)
        .map(|_| 1 + splitmix(&mut st) % 1_000_000_000)
        .collect()
}

/// `lifetime_shadowed`: one study of [`LIFETIME_STUDY`] runs of a
/// one-shard DualRadio BCP grid with the Cabletron high radio,
/// log-normal shadowing, finite batteries and max–min residual
/// rerouting. The shadowing terrain is pinned (`/4242`) so the workload
/// seed varies each run's own random streams, not the terrain: terrain
/// draws alone swing a run's event count by 4x at sigma = 4 dB.
pub fn lifetime(seed: u64) -> Vec<String> {
    seeds(seed, 1, LIFETIME_STUDY)
        .into_iter()
        .map(|s| {
            format!(
                "model = dual_radio\n\
                 topo = grid:8:30.0\n\
                 high_profile = cabletron\n\
                 senders = auto:16\n\
                 rate_bps = 200.0\n\
                 burst_packets = 100\n\
                 duration_s = 1500\n\
                 phys = logn:3.0/4.0/4242\n\
                 battery = ideal:10\n\
                 route_weight = max_min_residual\n\
                 reroute_every_s = 30\n\
                 seed = {s}\n"
            )
        })
        .collect()
}

/// `grid2025_sharded`: the `scale_2025.scn` shape (2025-node sensor
/// convergecast on disk links, 8 shards) over a 5 s horizon.
pub fn grid(seed: u64) -> Vec<String> {
    seeds(seed, 2, 1)
        .into_iter()
        .map(|s| {
            format!(
                "model = sensor\n\
                 topo = grid:45:40.0\n\
                 sink = 1012\n\
                 senders = auto:202\n\
                 rate_bps = 2000.0\n\
                 burst_packets = 10\n\
                 duration_s = 5\n\
                 shards = 8\n\
                 seed = {s}\n"
            )
        })
        .collect()
}

/// A sweep cell: its `.scn` text and seed.
pub type Cell = (String, u64);

/// One sweep cell of the paper's figure grid.
fn sweep_cell(multi_hop: bool, model: &str, senders: usize, seed: u64) -> Cell {
    let burst = if model == "dual_radio" { 100 } else { 10 };
    let high = if multi_hop {
        "high_profile = cabletron\n"
    } else {
        ""
    };
    let text = format!(
        "model = {model}\n\
         {high}senders = auto:{senders}\n\
         rate_bps = 2000.0\n\
         burst_packets = {burst}\n\
         duration_s = 40\n\
         seed = {seed}\n"
    );
    (text, seed)
}

const MODELS: [&str; 3] = ["sensor", "dot11", "dual_radio"];

/// `sweep_serve`'s two jobs. Job 1 is the figure grid: single- and
/// multi-hop cells for the three stacks at three sender counts, four
/// runs each, every cell on its own derived seed. Job 2 resubmits job
/// 1's cells in a seeded new order plus one fresh run per grid point, so
/// the cache serves reads beside new writes.
pub fn sweep_jobs(seed: u64) -> (Vec<Cell>, Vec<Cell>) {
    const SENDERS: [usize; 3] = [5, 10, 15];
    const RUNS: usize = 4;
    let points = 2 * MODELS.len() * SENDERS.len();
    let mut run_seeds = seeds(seed, 3, points * (RUNS + 1)).into_iter();
    let mut job1 = Vec::new();
    let mut fresh = Vec::new();
    for multi in [false, true] {
        for model in MODELS {
            for senders in SENDERS {
                for _ in 0..RUNS {
                    let s = run_seeds.next().expect("one seed per cell");
                    job1.push(sweep_cell(multi, model, senders, s));
                }
                let s = run_seeds.next().expect("one seed per cell");
                fresh.push(sweep_cell(multi, model, senders, s));
            }
        }
    }
    let mut job2 = job1.clone();
    let mut st = seed ^ 0x5EED;
    for i in (1..job2.len()).rev() {
        let j = (splitmix(&mut st) % (i as u64 + 1)) as usize;
        job2.swap(i, j);
    }
    job2.extend(fresh);
    (job1, job2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(lifetime(1), lifetime(1));
        assert_ne!(lifetime(1), lifetime(2));
        assert_eq!(grid(5), grid(5));
        assert_eq!(sweep_jobs(3), sweep_jobs(3));
        assert_ne!(sweep_jobs(3), sweep_jobs(4));
    }

    #[test]
    fn every_generated_scenario_parses() {
        let (j1, j2) = sweep_jobs(1);
        let cells = j1.iter().chain(&j2).map(|c| &c.0);
        for text in lifetime(1).iter().chain(&grid(1)).chain(cells) {
            bcp_simnet::parse_spec(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        }
    }

    #[test]
    fn second_sweep_job_reorders_the_first_and_adds_fresh_cells() {
        let (j1, j2) = sweep_jobs(9);
        assert_eq!(j1.len(), 72);
        assert_eq!(j2.len(), 90);
        assert_ne!(j1[..], j2[..72], "a new order");
        let mut a = j1.clone();
        let mut b = j2[..72].to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b, "the same cells");
        assert!(j2[72..].iter().all(|c| !j1.contains(c)));
    }
}
