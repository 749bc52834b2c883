//! Per-radio energy accounting.
//!
//! An [`EnergyLedger`] integrates the radio's power draw over the time it
//! spends in each state and keeps the result in per-bucket totals. The
//! paper's evaluation needs *selective* totals — e.g. the "Sensor-ideal"
//! model counts only transmit+receive energy while the dual-radio model is
//! "fully charged" — so the ledger never collapses buckets.

use crate::units::{Energy, Power};
use bcp_sim::persist::{Dec, Enc, Persist, Res};
use bcp_sim::time::SimTime;

/// Where a span of consumed energy is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyBucket {
    /// Transmitting.
    Tx,
    /// Receiving a frame addressed to this node.
    Rx,
    /// Receiving a frame addressed to another node.
    Overhear,
    /// Awake and listening with nothing on the air.
    Idle,
    /// Dozing (clock on, radio mostly off).
    Sleep,
    /// Off→on transition energy.
    Wakeup,
    /// Powered off (normally zero draw; kept for completeness).
    Off,
}

impl EnergyBucket {
    /// All buckets, in declaration order.
    pub const ALL: [EnergyBucket; 7] = [
        EnergyBucket::Tx,
        EnergyBucket::Rx,
        EnergyBucket::Overhear,
        EnergyBucket::Idle,
        EnergyBucket::Sleep,
        EnergyBucket::Wakeup,
        EnergyBucket::Off,
    ];

    fn index(self) -> usize {
        match self {
            EnergyBucket::Tx => 0,
            EnergyBucket::Rx => 1,
            EnergyBucket::Overhear => 2,
            EnergyBucket::Idle => 3,
            EnergyBucket::Sleep => 4,
            EnergyBucket::Wakeup => 5,
            EnergyBucket::Off => 6,
        }
    }
}

/// Time-integrating, bucketed energy meter for one radio.
///
/// # Examples
///
/// ```
/// use bcp_radio::energy::{EnergyBucket, EnergyLedger};
/// use bcp_radio::units::Power;
/// use bcp_sim::time::SimTime;
///
/// let mut l = EnergyLedger::new(SimTime::ZERO, EnergyBucket::Idle, Power::from_milliwatts(30.0));
/// l.transition(SimTime::from_secs(1), EnergyBucket::Tx, Power::from_milliwatts(81.0));
/// l.transition(SimTime::from_secs(2), EnergyBucket::Idle, Power::from_milliwatts(30.0));
/// let report = l.snapshot(SimTime::from_secs(2));
/// assert!((report.of(EnergyBucket::Idle).as_millijoules() - 30.0).abs() < 1e-9);
/// assert!((report.of(EnergyBucket::Tx).as_millijoules() - 81.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyLedger {
    buckets: [Energy; 7],
    since: SimTime,
    power: Power,
    bucket: EnergyBucket,
}

/// An immutable view of accumulated energy, closed at some instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyReport {
    buckets: [Energy; 7],
}

impl EnergyLedger {
    /// Starts metering at `t0` in the given bucket at the given draw.
    pub fn new(t0: SimTime, bucket: EnergyBucket, power: Power) -> Self {
        EnergyLedger {
            buckets: [Energy::ZERO; 7],
            since: t0,
            power,
            bucket,
        }
    }

    /// Closes the current span at `t`, attributing its energy to the current
    /// bucket, and starts a new span in `bucket` at `power`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous transition (time runs forward).
    pub fn transition(&mut self, t: SimTime, bucket: EnergyBucket, power: Power) {
        let span = t.duration_since(self.since);
        self.buckets[self.bucket.index()] += self.power * span;
        self.since = t;
        self.power = power;
        self.bucket = bucket;
    }

    /// Re-attributes the *ongoing* span: same power, different destination
    /// bucket. Used when the outcome of a reception (delivered vs overheard)
    /// is only known at its end.
    pub fn rebucket_current(&mut self, bucket: EnergyBucket) {
        self.bucket = bucket;
    }

    /// Adds a lump of energy to a bucket (e.g. the wake-up pulse `E_wakeup`).
    pub fn charge(&mut self, bucket: EnergyBucket, energy: Energy) {
        self.buckets[bucket.index()] += energy;
    }

    /// The bucket the ongoing span is attributed to.
    pub fn current_bucket(&self) -> EnergyBucket {
        self.bucket
    }

    /// The draw of the ongoing span.
    pub fn current_power(&self) -> Power {
        self.power
    }

    /// A report including the ongoing span up to `t`.
    pub fn snapshot(&self, t: SimTime) -> EnergyReport {
        let mut buckets = self.buckets;
        let span = t.saturating_duration_since(self.since);
        buckets[self.bucket.index()] += self.power * span;
        EnergyReport { buckets }
    }
}

impl EnergyReport {
    /// Energy accumulated in one bucket.
    pub fn of(&self, bucket: EnergyBucket) -> Energy {
        self.buckets[bucket.index()]
    }

    /// Total energy over all buckets.
    pub fn total(&self) -> Energy {
        self.buckets.iter().copied().sum()
    }

    /// Total over a chosen subset of buckets — how the paper's models select
    /// which costs count (e.g. Sensor-ideal = `Tx + Rx` only).
    pub fn total_of(&self, buckets: &[EnergyBucket]) -> Energy {
        buckets.iter().map(|b| self.of(*b)).sum()
    }

    /// Adds another report bucket-wise (e.g. two radios of one node, or all
    /// nodes of a network).
    pub fn merged(&self, other: &EnergyReport) -> EnergyReport {
        let mut buckets = self.buckets;
        for (i, b) in other.buckets.iter().enumerate() {
            buckets[i] += *b;
        }
        EnergyReport { buckets }
    }
}

impl core::iter::Sum for EnergyReport {
    fn sum<I: Iterator<Item = EnergyReport>>(iter: I) -> EnergyReport {
        iter.fold(EnergyReport::default(), |a, b| a.merged(&b))
    }
}

bcp_sim::persist!(enum EnergyBucket [Tx, Rx, Overhear, Idle, Sleep, Wakeup, Off]);

/// The raw meter registers: `report` folds the open span in, which a
/// restore must not (the span re-opens at the original instant).
impl Persist for EnergyLedger {
    type Ctx = ();
    fn save(&self, e: &mut Enc) {
        e.put(&self.buckets);
        e.put(&self.since);
        e.put(&self.power);
        e.put(&self.bucket);
    }
    fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
        Ok(EnergyLedger {
            buckets: d.get()?,
            since: d.past()?,
            power: d.get()?,
            bucket: d.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_sim::time::SimDuration;

    fn mw(x: f64) -> Power {
        Power::from_milliwatts(x)
    }

    #[test]
    fn integrates_state_residency() {
        let mut l = EnergyLedger::new(SimTime::ZERO, EnergyBucket::Idle, mw(100.0));
        l.transition(SimTime::from_secs(2), EnergyBucket::Tx, mw(1000.0));
        l.transition(SimTime::from_secs(3), EnergyBucket::Idle, mw(100.0));
        let r = l.snapshot(SimTime::from_secs(5));
        assert!((r.of(EnergyBucket::Idle).as_millijoules() - 400.0).abs() < 1e-9); // 2s + 2s at 100 mW
        assert!((r.of(EnergyBucket::Tx).as_millijoules() - 1000.0).abs() < 1e-9);
        assert!((r.total().as_millijoules() - 1400.0).abs() < 1e-9);
    }

    #[test]
    fn lump_charge() {
        let mut l = EnergyLedger::new(SimTime::ZERO, EnergyBucket::Off, Power::ZERO);
        l.charge(EnergyBucket::Wakeup, Energy::from_millijoules(0.6));
        let r = l.snapshot(SimTime::from_secs(10));
        assert!((r.of(EnergyBucket::Wakeup).as_millijoules() - 0.6).abs() < 1e-12);
        assert_eq!(r.of(EnergyBucket::Off), Energy::ZERO, "off draws nothing");
    }

    #[test]
    fn rebucket_redirects_ongoing_span() {
        let mut l = EnergyLedger::new(SimTime::ZERO, EnergyBucket::Rx, mw(59.1));
        l.rebucket_current(EnergyBucket::Overhear);
        l.transition(SimTime::from_secs(1), EnergyBucket::Idle, mw(59.1));
        let r = l.snapshot(SimTime::from_secs(1));
        assert_eq!(r.of(EnergyBucket::Rx), Energy::ZERO);
        assert!((r.of(EnergyBucket::Overhear).as_millijoules() - 59.1).abs() < 1e-9);
    }

    #[test]
    fn snapshot_is_nondestructive() {
        let mut l = EnergyLedger::new(SimTime::ZERO, EnergyBucket::Idle, mw(10.0));
        let a = l.snapshot(SimTime::from_secs(1));
        let b = l.snapshot(SimTime::from_secs(2));
        assert!(b.total() > a.total());
        l.transition(SimTime::from_secs(3), EnergyBucket::Sleep, mw(0.1));
        let c = l.snapshot(SimTime::from_secs(3));
        assert!((c.of(EnergyBucket::Idle).as_millijoules() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn selective_totals() {
        let mut l = EnergyLedger::new(SimTime::ZERO, EnergyBucket::Tx, mw(100.0));
        l.transition(SimTime::from_secs(1), EnergyBucket::Idle, mw(100.0));
        let r = l.snapshot(SimTime::from_secs(2));
        let ideal = r.total_of(&[EnergyBucket::Tx, EnergyBucket::Rx]);
        assert!((ideal.as_millijoules() - 100.0).abs() < 1e-9);
        assert!((r.total().as_millijoules() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn merged_reports_add() {
        let mut a = EnergyLedger::new(SimTime::ZERO, EnergyBucket::Tx, mw(10.0));
        a.transition(SimTime::from_secs(1), EnergyBucket::Idle, Power::ZERO);
        let mut b = EnergyLedger::new(SimTime::ZERO, EnergyBucket::Rx, mw(20.0));
        b.transition(SimTime::from_secs(1), EnergyBucket::Idle, Power::ZERO);
        let m = a
            .snapshot(SimTime::from_secs(1))
            .merged(&b.snapshot(SimTime::from_secs(1)));
        assert!((m.total().as_millijoules() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn sum_of_reports() {
        let reports: Vec<EnergyReport> = (0..3)
            .map(|_| {
                let l = EnergyLedger::new(SimTime::ZERO, EnergyBucket::Idle, mw(1.0));
                l.snapshot(SimTime::ZERO + SimDuration::from_secs(1))
            })
            .collect();
        let total: EnergyReport = reports.into_iter().sum();
        assert!((total.total().as_millijoules() - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn backwards_transition_panics() {
        let mut l = EnergyLedger::new(SimTime::from_secs(5), EnergyBucket::Idle, mw(1.0));
        l.transition(SimTime::from_secs(1), EnergyBucket::Tx, mw(1.0));
    }
}
