//! Battery models: how much energy a node can spend before it dies.
//!
//! Two concrete models ship behind the [`BatteryModel`] trait:
//!
//! * [`IdealBattery`] — a linear reservoir of joules, fully usable.
//! * [`CapacityBattery`] — a capacity-rated cell (mAh at a terminal
//!   voltage) whose voltage declines linearly with drawn charge and whose
//!   load cuts off at a minimum operating voltage, so only part of the
//!   rated charge is usable — the classic reason "2850 mAh" never means
//!   2850 mAh in the field.
//!
//! [`Battery`] wraps both in a clonable enum so scenarios stay plain data;
//! anything implementing [`BatteryModel`] plugs into the same accounting.

use bcp_radio::units::Energy;

/// A finite energy reservoir that radios drain.
pub trait BatteryModel {
    /// Total usable energy when full.
    fn capacity(&self) -> Energy;

    /// Energy drained so far (never exceeds [`capacity`](Self::capacity)).
    fn drawn(&self) -> Energy;

    /// Drains up to `e`, clamping at depletion; returns the energy actually
    /// supplied.
    fn drain(&mut self, e: Energy) -> Energy;

    /// Usable energy left.
    fn remaining(&self) -> Energy {
        self.capacity().saturating_sub(self.drawn())
    }

    /// `true` once the battery can supply nothing more.
    fn is_depleted(&self) -> bool {
        self.remaining() == Energy::ZERO
    }

    /// State of charge in `[0, 1]`.
    fn state_of_charge(&self) -> f64 {
        let cap = self.capacity().as_joules();
        if cap == 0.0 {
            0.0
        } else {
            self.remaining().as_joules() / cap
        }
    }
}

/// A linear reservoir: every joule of the rated capacity is usable.
#[derive(Debug, Clone, PartialEq)]
pub struct IdealBattery {
    capacity: Energy,
    drawn: Energy,
}

impl IdealBattery {
    /// A full battery holding `capacity`.
    pub fn new(capacity: Energy) -> Self {
        IdealBattery {
            capacity,
            drawn: Energy::ZERO,
        }
    }
}

impl BatteryModel for IdealBattery {
    fn capacity(&self) -> Energy {
        self.capacity
    }

    fn drawn(&self) -> Energy {
        self.drawn
    }

    fn drain(&mut self, e: Energy) -> Energy {
        let supplied = if e < self.remaining() {
            e
        } else {
            self.remaining()
        };
        self.drawn += supplied;
        supplied
    }
}

/// A capacity-rated cell: `mAh` of charge, a terminal voltage that declines
/// linearly from `v_full` to `v_empty` as charge is drawn, and a load that
/// cuts off at `v_cutoff`.
///
/// Usable charge is the fraction drawn before the terminal voltage crosses
/// the cutoff; usable energy is the integral of `v(q) dq` over that span:
///
/// ```text
/// q_usable = q_rated · (v_full − v_cutoff) / (v_full − v_empty)
/// E_usable = q_usable · (v_full + v_cutoff) / 2
/// ```
///
/// # Examples
///
/// ```
/// use bcp_power::battery::{BatteryModel, CapacityBattery};
///
/// // A 2×AA alkaline pack: 2850 mAh, 3.0 V fresh, cutoff at 1.8 V.
/// let b = CapacityBattery::from_mah(2850.0, 3.0, 1.8, 1.6);
/// // Rated energy at the mean usable voltage, not mAh × v_full:
/// assert!(b.capacity().as_joules() < 2.850 * 3600.0 * 3.0);
/// assert!(b.capacity().as_joules() > 2.850 * 3600.0 * 1.8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityBattery {
    mah: f64,
    q_rated_c: f64,
    v_full: f64,
    v_cutoff: f64,
    v_empty: f64,
    usable: Energy,
    drawn: Energy,
}

impl CapacityBattery {
    /// A full cell rated `mah` milliamp-hours, with fresh terminal voltage
    /// `v_full`, load cutoff `v_cutoff`, and fully-discharged voltage
    /// `v_empty` (the linear curve's endpoint).
    ///
    /// # Panics
    ///
    /// Panics unless `v_full > v_cutoff >= v_empty >= 0`, `mah > 0` and
    /// the [usable energy](Self::usable_joules) is finite.
    pub fn from_mah(mah: f64, v_full: f64, v_cutoff: f64, v_empty: f64) -> Self {
        assert!(mah > 0.0, "capacity must be positive: {mah} mAh");
        assert!(
            v_full > v_cutoff && v_cutoff >= v_empty && v_empty >= 0.0,
            "need v_full > v_cutoff >= v_empty >= 0, got {v_full}/{v_cutoff}/{v_empty}"
        );
        let q_rated_c = mah * 3.6; // mAh → coulombs
        let usable = Energy::from_joules(Self::usable_joules(mah, v_full, v_cutoff, v_empty));
        CapacityBattery {
            mah,
            q_rated_c,
            v_full,
            v_cutoff,
            v_empty,
            usable,
            drawn: Energy::ZERO,
        }
    }

    /// The energy such a cell delivers before its cutoff: the charge
    /// above `v_cutoff` on the linear curve at its mean voltage. Callers
    /// validating untrusted parameters check this is finite before
    /// calling [`from_mah`](Self::from_mah).
    pub fn usable_joules(mah: f64, v_full: f64, v_cutoff: f64, v_empty: f64) -> f64 {
        let q_usable = mah * 3.6 * (v_full - v_cutoff) / (v_full - v_empty);
        q_usable * (v_full + v_cutoff) / 2.0
    }

    /// The rated charge in milliamp-hours (the exact `mah` this cell was
    /// built from) — exposed so scenario files can round-trip the
    /// chemistry bit-for-bit.
    pub fn rated_mah(&self) -> f64 {
        self.mah
    }

    /// Fresh terminal voltage.
    pub fn v_full(&self) -> f64 {
        self.v_full
    }

    /// Load cutoff voltage.
    pub fn v_cutoff(&self) -> f64 {
        self.v_cutoff
    }

    /// Fully-discharged voltage (the linear curve's endpoint).
    pub fn v_empty(&self) -> f64 {
        self.v_empty
    }

    /// Present terminal voltage under the linear discharge curve.
    pub fn voltage(&self) -> f64 {
        // Invert E(q) = v_full·q − slope·q²/2 for the drawn charge q.
        let slope = (self.v_full - self.v_empty) / self.q_rated_c;
        let e = self.drawn.as_joules();
        let q = if slope == 0.0 {
            e / self.v_full
        } else {
            // Smaller root of slope/2·q² − v_full·q + e = 0.
            (self.v_full
                - (self.v_full * self.v_full - 2.0 * slope * e)
                    .max(0.0)
                    .sqrt())
                / slope
        };
        (self.v_full - slope * q).max(self.v_cutoff)
    }
}

impl BatteryModel for CapacityBattery {
    fn capacity(&self) -> Energy {
        self.usable
    }

    fn drawn(&self) -> Energy {
        self.drawn
    }

    fn drain(&mut self, e: Energy) -> Energy {
        let supplied = if e < self.remaining() {
            e
        } else {
            self.remaining()
        };
        self.drawn += supplied;
        supplied
    }
}

/// A clonable battery: scenario configuration stays plain data while both
/// models (and scaled variants for experiment sizing) share one type.
#[derive(Debug, Clone, PartialEq)]
pub enum Battery {
    /// A linear joule reservoir.
    Ideal(IdealBattery),
    /// A capacity-rated cell with a cutoff voltage.
    Capacity(CapacityBattery),
}

impl Battery {
    /// An ideal battery holding `capacity`.
    pub fn ideal(capacity: Energy) -> Self {
        Battery::Ideal(IdealBattery::new(capacity))
    }

    /// An ideal battery holding `j` joules.
    pub fn ideal_joules(j: f64) -> Self {
        Battery::ideal(Energy::from_joules(j))
    }

    /// A capacity-rated cell (see [`CapacityBattery::from_mah`]).
    pub fn from_mah(mah: f64, v_full: f64, v_cutoff: f64, v_empty: f64) -> Self {
        Battery::Capacity(CapacityBattery::from_mah(mah, v_full, v_cutoff, v_empty))
    }

    /// The classic mote supply: two AA alkaline cells in series
    /// (2850 mAh, 3.0 V fresh, 1.8 V cutoff, 1.6 V empty) — roughly 17 kJ
    /// usable.
    pub fn aa_pair() -> Self {
        Battery::from_mah(2850.0, 3.0, 1.8, 1.6)
    }

    /// The same chemistry at `k` times the capacity — experiment sizing
    /// (e.g. `aa_pair().scaled(1e-3)` deaths within a short simulation).
    ///
    /// # Panics
    ///
    /// Panics if `k` is not positive and finite.
    pub fn scaled(self, k: f64) -> Self {
        assert!(k.is_finite() && k > 0.0, "invalid battery scale {k}");
        match self {
            Battery::Ideal(b) => Battery::ideal(b.capacity().scaled(k)),
            Battery::Capacity(b) => Battery::Capacity(CapacityBattery::from_mah(
                b.mah * k,
                b.v_full,
                b.v_cutoff,
                b.v_empty,
            )),
        }
    }
}

impl BatteryModel for Battery {
    fn capacity(&self) -> Energy {
        match self {
            Battery::Ideal(b) => b.capacity(),
            Battery::Capacity(b) => b.capacity(),
        }
    }

    fn drawn(&self) -> Energy {
        match self {
            Battery::Ideal(b) => b.drawn(),
            Battery::Capacity(b) => b.drawn(),
        }
    }

    fn drain(&mut self, e: Energy) -> Energy {
        match self {
            Battery::Ideal(b) => b.drain(e),
            Battery::Capacity(b) => b.drain(e),
        }
    }
}

impl Battery {
    /// Overwrites the drained tally — the restore path of a checkpoint.
    /// `drawn` accumulates one floating-point addition per drain, so an
    /// exact restore must set the captured sum verbatim instead of
    /// replaying the history (whose rounding it could never reproduce in
    /// one step).
    pub fn set_drawn(&mut self, drawn: Energy) {
        match self {
            Battery::Ideal(b) => b.drawn = drawn,
            Battery::Capacity(b) => b.drawn = drawn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_drains_linearly_and_clamps() {
        let mut b = IdealBattery::new(Energy::from_joules(10.0));
        assert_eq!(b.drain(Energy::from_joules(4.0)), Energy::from_joules(4.0));
        assert!((b.state_of_charge() - 0.6).abs() < 1e-12);
        assert!(!b.is_depleted());
        // Overdraw clamps at the remaining 6 J.
        assert_eq!(
            b.drain(Energy::from_joules(100.0)),
            Energy::from_joules(6.0)
        );
        assert!(b.is_depleted());
        assert_eq!(b.remaining(), Energy::ZERO);
        assert_eq!(b.drawn(), b.capacity());
    }

    #[test]
    fn capacity_battery_usable_energy_respects_cutoff() {
        // 1000 mAh, 3.0 V → 1.5 V linear, cutoff at 2.25 V: half the charge
        // is usable, at a mean voltage of (3.0 + 2.25)/2.
        let b = CapacityBattery::from_mah(1000.0, 3.0, 2.25, 1.5);
        let q_usable = 1000.0 * 3.6 * 0.5;
        let expect = q_usable * (3.0 + 2.25) / 2.0;
        assert!((b.capacity().as_joules() - expect).abs() < 1e-9);
    }

    #[test]
    fn capacity_battery_voltage_declines_to_cutoff() {
        let mut b = CapacityBattery::from_mah(1000.0, 3.0, 2.0, 1.5);
        assert!((b.voltage() - 3.0).abs() < 1e-9, "fresh cell at v_full");
        let cap = b.capacity();
        b.drain(cap.scaled(0.5));
        let mid = b.voltage();
        assert!(mid < 3.0 && mid > 2.0, "mid-discharge voltage: {mid}");
        b.drain(cap);
        assert!((b.voltage() - 2.0).abs() < 1e-6, "dead cell at cutoff");
        assert!(b.is_depleted());
    }

    #[test]
    fn aa_pair_in_expected_ballpark() {
        let b = Battery::aa_pair();
        let j = b.capacity().as_joules();
        // 2850 mAh × ~2.4 V mean usable ≈ 15–25 kJ.
        assert!((10_000.0..30_000.0).contains(&j), "2×AA ≈ {j} J");
    }

    #[test]
    fn scaling_preserves_chemistry() {
        let full = Battery::aa_pair();
        let tiny = full.clone().scaled(1e-3);
        let ratio = tiny.capacity().as_joules() / full.capacity().as_joules();
        assert!((ratio - 1e-3).abs() < 1e-12);
        let half = Battery::ideal_joules(10.0).scaled(0.5);
        assert_eq!(half.capacity(), Energy::from_joules(5.0));
    }

    #[test]
    #[should_panic(expected = "v_full > v_cutoff")]
    fn inverted_voltages_rejected() {
        let _ = CapacityBattery::from_mah(100.0, 1.5, 3.0, 1.0);
    }
}
