//! The radio device state machine.
//!
//! A [`Radio`] couples a [`RadioProfile`] with
//! an [`EnergyLedger`] and enforces the legal
//! state transitions of a half-duplex transceiver:
//!
//! ```text
//!          begin_wakeup          complete_wakeup
//!   Off ────────────────▶ WakingUp ─────────────▶ Idle ◀──┐
//!    ▲      (also from Sleeping)                  │ ▲ │   │
//!    │ turn_off                           start_tx│ │ │start_rx
//!    └──────────── Idle/Sleeping                  ▼ │ ▼   │
//!                                       Transmitting │ Receiving
//!                       sleep                end_tx ─┘ end_rx
//!             Idle ────────────▶ Sleeping
//!                  ◀────────────
//!                       resume
//! ```
//!
//! Illegal transitions are *model bugs*, so they panic with a description of
//! the attempted move; use the `can_*` queries when the caller legitimately
//! does not know the state.

use crate::energy::{EnergyBucket, EnergyLedger, EnergyReport};
use crate::profile::RadioProfile;
use crate::units::Power;
use bcp_sim::time::{SimDuration, SimTime};

/// Operating state of a radio transceiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadioState {
    /// Powered down; draws nothing; cannot hear anything.
    Off,
    /// Doze mode: negligible draw, cannot hear anything, fast resume.
    Sleeping,
    /// Awake and listening.
    Idle,
    /// Mid-reception.
    Receiving,
    /// Mid-transmission.
    Transmitting,
    /// In the off→on transition.
    WakingUp,
}

/// How a reception ended, deciding its energy attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxOutcome {
    /// Frame was addressed to this node and decoded.
    Delivered,
    /// Frame was addressed to another node (overhearing cost).
    Overheard,
    /// Frame collided or was lost mid-air; energy still spent listening.
    Corrupted,
}

/// A half-duplex radio transceiver with energy metering.
///
/// # Examples
///
/// ```
/// use bcp_radio::device::{Radio, RadioState, RxOutcome};
/// use bcp_radio::profile::micaz;
/// use bcp_sim::time::SimTime;
///
/// let mut r = Radio::new(micaz(), RadioState::Idle, SimTime::ZERO);
/// let t1 = SimTime::from_millis(1);
/// r.start_tx(t1);
/// let t2 = t1 + r.profile().frame_airtime(32);
/// r.end_tx(t2);
/// assert_eq!(r.state(), RadioState::Idle);
/// assert!(r.report(t2).total().as_joules() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Radio {
    profile: RadioProfile,
    state: RadioState,
    ledger: EnergyLedger,
}

impl Radio {
    /// Creates a radio in `initial` state at time `t0`.
    pub fn new(profile: RadioProfile, initial: RadioState, t0: SimTime) -> Self {
        let (bucket, power) = Self::residency(&profile, initial);
        Radio {
            ledger: EnergyLedger::new(t0, bucket, power),
            profile,
            state: initial,
        }
    }

    fn residency(profile: &RadioProfile, state: RadioState) -> (EnergyBucket, Power) {
        match state {
            RadioState::Off => (EnergyBucket::Off, Power::ZERO),
            // Wake-up energy is charged as a lump; no draw during the ramp.
            RadioState::WakingUp => (EnergyBucket::Wakeup, Power::ZERO),
            RadioState::Sleeping => (EnergyBucket::Sleep, profile.p_sleep),
            RadioState::Idle => (EnergyBucket::Idle, profile.p_idle),
            RadioState::Receiving => (EnergyBucket::Rx, profile.p_rx),
            RadioState::Transmitting => (EnergyBucket::Tx, profile.p_tx),
        }
    }

    fn move_to(&mut self, t: SimTime, next: RadioState) {
        let (bucket, power) = Self::residency(&self.profile, next);
        self.ledger.transition(t, bucket, power);
        self.state = next;
    }

    #[track_caller]
    fn expect_state(&self, wanted: &[RadioState], action: &str) {
        assert!(
            wanted.contains(&self.state),
            "{}: cannot {action} from {:?}",
            self.profile.name,
            self.state
        );
    }

    /// The radio's static profile.
    pub fn profile(&self) -> &RadioProfile {
        &self.profile
    }

    /// Current operating state.
    pub fn state(&self) -> RadioState {
        self.state
    }

    /// `true` when the radio is awake enough to start a transmission.
    pub fn can_tx(&self) -> bool {
        self.state == RadioState::Idle
    }

    /// `true` when the radio would hear a frame starting now.
    pub fn can_hear(&self) -> bool {
        matches!(self.state, RadioState::Idle)
    }

    /// `true` when the radio is on (any state except `Off`/`WakingUp`).
    pub fn is_on(&self) -> bool {
        !matches!(self.state, RadioState::Off | RadioState::WakingUp)
    }

    /// Begins the off→on transition, charging `e_wakeup`, and returns the
    /// wake-up duration; call [`complete_wakeup`](Self::complete_wakeup) when
    /// it elapses.
    ///
    /// # Panics
    ///
    /// Panics unless the radio is `Off` or `Sleeping`.
    pub fn begin_wakeup(&mut self, t: SimTime) -> SimDuration {
        self.expect_state(&[RadioState::Off, RadioState::Sleeping], "begin wakeup");
        self.move_to(t, RadioState::WakingUp);
        self.ledger
            .charge(EnergyBucket::Wakeup, self.profile.e_wakeup);
        self.profile.t_wakeup
    }

    /// Finishes the off→on transition.
    ///
    /// # Panics
    ///
    /// Panics unless the radio is `WakingUp`.
    pub fn complete_wakeup(&mut self, t: SimTime) {
        self.expect_state(&[RadioState::WakingUp], "complete wakeup");
        self.move_to(t, RadioState::Idle);
    }

    /// Starts a transmission.
    ///
    /// # Panics
    ///
    /// Panics unless the radio is `Idle`.
    pub fn start_tx(&mut self, t: SimTime) {
        self.expect_state(&[RadioState::Idle], "start tx");
        self.move_to(t, RadioState::Transmitting);
    }

    /// Ends a transmission, returning to `Idle`.
    ///
    /// # Panics
    ///
    /// Panics unless the radio is `Transmitting`.
    pub fn end_tx(&mut self, t: SimTime) {
        self.expect_state(&[RadioState::Transmitting], "end tx");
        self.move_to(t, RadioState::Idle);
    }

    /// Starts a reception.
    ///
    /// # Panics
    ///
    /// Panics unless the radio is `Idle`.
    pub fn start_rx(&mut self, t: SimTime) {
        self.expect_state(&[RadioState::Idle], "start rx");
        self.move_to(t, RadioState::Receiving);
    }

    /// Ends a reception, attributing its energy according to `outcome`, and
    /// returns to `Idle`.
    ///
    /// # Panics
    ///
    /// Panics unless the radio is `Receiving`.
    pub fn end_rx(&mut self, t: SimTime, outcome: RxOutcome) {
        self.expect_state(&[RadioState::Receiving], "end rx");
        if outcome == RxOutcome::Overheard {
            self.ledger.rebucket_current(EnergyBucket::Overhear);
        }
        self.move_to(t, RadioState::Idle);
    }

    /// Enters doze mode.
    ///
    /// # Panics
    ///
    /// Panics unless the radio is `Idle`.
    pub fn sleep(&mut self, t: SimTime) {
        self.expect_state(&[RadioState::Idle], "sleep");
        self.move_to(t, RadioState::Sleeping);
    }

    /// Resumes from doze directly to `Idle`. Unlike the off→on transition
    /// ([`begin_wakeup`](Self::begin_wakeup)), doze keeps the oscillator
    /// running, so resuming is effectively instantaneous and free — this
    /// is what makes low-power listening's frequent channel samples cheap.
    ///
    /// # Panics
    ///
    /// Panics unless the radio is `Sleeping`.
    pub fn resume(&mut self, t: SimTime) {
        self.expect_state(&[RadioState::Sleeping], "resume");
        self.move_to(t, RadioState::Idle);
    }

    /// Powers the radio down (instant and free, per the paper: "the cost of
    /// switching off is negligible").
    ///
    /// # Panics
    ///
    /// Panics unless the radio is `Idle` or `Sleeping`.
    pub fn turn_off(&mut self, t: SimTime) {
        self.expect_state(&[RadioState::Idle, RadioState::Sleeping], "turn off");
        self.move_to(t, RadioState::Off);
    }

    /// The instantaneous power draw of the ongoing state span — what a
    /// battery sees between events.
    pub fn current_draw(&self) -> Power {
        self.ledger.current_power()
    }

    /// Cuts power *now*, from any state: the supply collapsed mid-whatever.
    ///
    /// Unlike [`turn_off`](Self::turn_off) this is not a protocol action but
    /// a physical failure, so no state precondition applies. The ongoing
    /// span's energy stays attributed to the state the radio died in; a
    /// frame being transmitted is truncated (the caller decides what the
    /// channel makes of that), and one mid-reception is simply lost.
    pub fn force_off(&mut self, t: SimTime) {
        self.move_to(t, RadioState::Off);
    }

    /// Adds a lump overhearing charge — used by models that account
    /// header-only overhearing without a full reception (the paper's
    /// "Sensor-header" model).
    pub fn charge_overhear(&mut self, energy: crate::units::Energy) {
        self.ledger.charge(EnergyBucket::Overhear, energy);
    }

    /// Energy accumulated through `t`, including the ongoing state span.
    pub fn report(&self, t: SimTime) -> EnergyReport {
        self.ledger.snapshot(t)
    }
}

bcp_sim::persist!(enum RadioState [Off, Sleeping, Idle, Receiving, Transmitting, WakingUp]);

// The operating state and meter; the profile is scenario configuration.
bcp_sim::persist!(Radio { state, ledger } into blank);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{lucent_11m, micaz};
    use crate::units::Energy;

    #[test]
    fn tx_rx_cycle_energy() {
        let mut r = Radio::new(micaz(), RadioState::Idle, SimTime::ZERO);
        let dur = r.profile().frame_airtime(32);
        r.start_tx(SimTime::ZERO);
        r.end_tx(SimTime::ZERO + dur);
        let rep = r.report(SimTime::ZERO + dur);
        let expect = micaz().tx_energy(32);
        assert!((rep.of(EnergyBucket::Tx).as_joules() - expect.as_joules()).abs() < 1e-12);
    }

    #[test]
    fn wakeup_charges_lump_and_takes_time() {
        let mut r = Radio::new(lucent_11m(), RadioState::Off, SimTime::ZERO);
        let d = r.begin_wakeup(SimTime::from_secs(1));
        assert_eq!(d, lucent_11m().t_wakeup);
        assert_eq!(r.state(), RadioState::WakingUp);
        r.complete_wakeup(SimTime::from_secs(1) + d);
        assert_eq!(r.state(), RadioState::Idle);
        let rep = r.report(SimTime::from_secs(1) + d);
        assert!(
            (rep.of(EnergyBucket::Wakeup).as_millijoules() - 0.6).abs() < 1e-9,
            "one wakeup = 0.6 mJ for Lucent"
        );
        assert_eq!(rep.of(EnergyBucket::Off), Energy::ZERO);
    }

    #[test]
    fn overheard_rx_goes_to_overhear_bucket() {
        let mut r = Radio::new(micaz(), RadioState::Idle, SimTime::ZERO);
        r.start_rx(SimTime::ZERO);
        r.end_rx(SimTime::from_millis(1), RxOutcome::Overheard);
        let rep = r.report(SimTime::from_millis(1));
        assert_eq!(rep.of(EnergyBucket::Rx), Energy::ZERO);
        assert!(rep.of(EnergyBucket::Overhear).as_joules() > 0.0);
    }

    #[test]
    fn corrupted_rx_still_costs_rx() {
        let mut r = Radio::new(micaz(), RadioState::Idle, SimTime::ZERO);
        r.start_rx(SimTime::ZERO);
        r.end_rx(SimTime::from_millis(1), RxOutcome::Corrupted);
        let rep = r.report(SimTime::from_millis(1));
        assert!(rep.of(EnergyBucket::Rx).as_joules() > 0.0);
    }

    #[test]
    fn off_draws_nothing() {
        let mut r = Radio::new(micaz(), RadioState::Idle, SimTime::ZERO);
        r.turn_off(SimTime::from_secs(1));
        let rep = r.report(SimTime::from_secs(100));
        assert_eq!(rep.of(EnergyBucket::Off), Energy::ZERO);
        // Idle second still cost something.
        assert!(rep.of(EnergyBucket::Idle).as_joules() > 0.0);
    }

    #[test]
    fn sleep_draws_sleep_power() {
        let mut r = Radio::new(micaz(), RadioState::Idle, SimTime::ZERO);
        r.sleep(SimTime::ZERO);
        let rep = r.report(SimTime::from_secs(10));
        let expect = micaz().p_sleep * SimDuration::from_secs(10);
        assert!((rep.of(EnergyBucket::Sleep).as_joules() - expect.as_joules()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot start tx")]
    fn tx_while_off_panics() {
        let mut r = Radio::new(micaz(), RadioState::Off, SimTime::ZERO);
        r.start_tx(SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "cannot begin wakeup")]
    fn wakeup_while_idle_panics() {
        let mut r = Radio::new(micaz(), RadioState::Idle, SimTime::ZERO);
        r.begin_wakeup(SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "cannot end rx")]
    fn end_rx_without_start_panics() {
        let mut r = Radio::new(micaz(), RadioState::Idle, SimTime::ZERO);
        r.end_rx(SimTime::ZERO, RxOutcome::Delivered);
    }

    #[test]
    fn state_queries() {
        let mut r = Radio::new(micaz(), RadioState::Off, SimTime::ZERO);
        assert!(!r.can_tx());
        assert!(!r.is_on());
        let d = r.begin_wakeup(SimTime::ZERO);
        assert!(!r.is_on());
        r.complete_wakeup(SimTime::ZERO + d);
        assert!(r.can_tx() && r.can_hear() && r.is_on());
        r.start_rx(SimTime::ZERO + d);
        assert!(!r.can_tx(), "half duplex: busy receiving");
        assert!(r.is_on());
    }

    #[test]
    fn current_draw_tracks_state() {
        let mut r = Radio::new(micaz(), RadioState::Idle, SimTime::ZERO);
        assert_eq!(r.current_draw(), micaz().p_idle);
        r.start_tx(SimTime::ZERO);
        assert_eq!(r.current_draw(), micaz().p_tx);
        r.end_tx(SimTime::from_millis(1));
        assert_eq!(r.current_draw(), micaz().p_idle);
    }

    #[test]
    fn force_off_from_any_state_freezes_the_ledger() {
        let mut r = Radio::new(micaz(), RadioState::Idle, SimTime::ZERO);
        r.start_tx(SimTime::ZERO);
        // Power dies mid-transmission.
        r.force_off(SimTime::from_millis(2));
        assert_eq!(r.state(), RadioState::Off);
        assert_eq!(r.current_draw(), Power::ZERO);
        let at_death = r.report(SimTime::from_millis(2));
        // The truncated transmission's energy was still spent...
        assert!(at_death.of(EnergyBucket::Tx).as_joules() > 0.0);
        // ...and nothing accrues afterwards.
        let later = r.report(SimTime::from_secs(100));
        assert_eq!(at_death.total(), later.total());
    }

    #[test]
    fn charge_overhear_lump() {
        let mut r = Radio::new(micaz(), RadioState::Idle, SimTime::ZERO);
        r.charge_overhear(Energy::from_microjoules(10.0));
        let rep = r.report(SimTime::ZERO);
        assert!((rep.of(EnergyBucket::Overhear).as_microjoules() - 10.0).abs() < 1e-9);
    }
}

/// Exhaustive coverage of the state diagram in the module docs: every
/// legal edge (including `Sleeping` ⇄ `Idle`), every `can_*` query in
/// every state, and panic coverage for illegal moves.
#[cfg(test)]
mod transition_tests {
    use super::*;
    use crate::profile::{lucent_11m, micaz};

    /// Builds a radio parked in `state`, reached through legal edges only.
    fn radio_in(state: RadioState) -> Radio {
        let mut r = Radio::new(micaz(), RadioState::Off, SimTime::ZERO);
        let t = SimTime::from_millis(1);
        match state {
            RadioState::Off => {}
            RadioState::WakingUp => {
                r.begin_wakeup(t);
            }
            RadioState::Idle => {
                let d = r.begin_wakeup(t);
                r.complete_wakeup(t + d);
            }
            RadioState::Sleeping => {
                let d = r.begin_wakeup(t);
                r.complete_wakeup(t + d);
                r.sleep(t + d);
            }
            RadioState::Receiving => {
                let d = r.begin_wakeup(t);
                r.complete_wakeup(t + d);
                r.start_rx(t + d);
            }
            RadioState::Transmitting => {
                let d = r.begin_wakeup(t);
                r.complete_wakeup(t + d);
                r.start_tx(t + d);
            }
        }
        assert_eq!(r.state(), state, "harness reached the requested state");
        r
    }

    const ALL: [RadioState; 6] = [
        RadioState::Off,
        RadioState::Sleeping,
        RadioState::Idle,
        RadioState::Receiving,
        RadioState::Transmitting,
        RadioState::WakingUp,
    ];

    #[test]
    fn every_legal_edge_of_the_diagram() {
        let t = SimTime::from_secs(1);
        // Off → WakingUp → Idle.
        let mut r = radio_in(RadioState::Off);
        r.begin_wakeup(t);
        assert_eq!(r.state(), RadioState::WakingUp);
        r.complete_wakeup(t);
        assert_eq!(r.state(), RadioState::Idle);
        // Idle → Transmitting → Idle.
        r.start_tx(t);
        assert_eq!(r.state(), RadioState::Transmitting);
        r.end_tx(t);
        assert_eq!(r.state(), RadioState::Idle);
        // Idle → Receiving → Idle, for every outcome.
        for outcome in [
            RxOutcome::Delivered,
            RxOutcome::Overheard,
            RxOutcome::Corrupted,
        ] {
            r.start_rx(t);
            assert_eq!(r.state(), RadioState::Receiving);
            r.end_rx(t, outcome);
            assert_eq!(r.state(), RadioState::Idle);
        }
        // Idle → Sleeping → Idle (the LPL doze/resume pair).
        r.sleep(t);
        assert_eq!(r.state(), RadioState::Sleeping);
        r.resume(t);
        assert_eq!(r.state(), RadioState::Idle);
        // Sleeping → WakingUp (a full wake-up from doze is also legal).
        r.sleep(t);
        r.begin_wakeup(t);
        assert_eq!(r.state(), RadioState::WakingUp);
        r.complete_wakeup(t);
        // Idle → Off and Sleeping → Off.
        r.turn_off(t);
        assert_eq!(r.state(), RadioState::Off);
        let mut s = radio_in(RadioState::Sleeping);
        s.turn_off(t);
        assert_eq!(s.state(), RadioState::Off);
    }

    #[test]
    fn force_off_is_legal_from_every_state() {
        for state in ALL {
            let mut r = radio_in(state);
            r.force_off(SimTime::from_secs(2));
            assert_eq!(r.state(), RadioState::Off, "force_off from {state:?}");
            assert_eq!(r.current_draw(), Power::ZERO);
        }
    }

    #[test]
    fn can_queries_in_every_state() {
        for state in ALL {
            let r = radio_in(state);
            assert_eq!(r.can_tx(), state == RadioState::Idle, "can_tx in {state:?}");
            assert_eq!(
                r.can_hear(),
                state == RadioState::Idle,
                "can_hear in {state:?}"
            );
            assert_eq!(
                r.is_on(),
                !matches!(state, RadioState::Off | RadioState::WakingUp),
                "is_on in {state:?}"
            );
        }
    }

    #[test]
    fn current_draw_matches_profile_in_every_state() {
        let p = lucent_11m();
        for (state, want) in [
            (RadioState::Off, Power::ZERO),
            (RadioState::WakingUp, Power::ZERO),
            (RadioState::Sleeping, p.p_sleep),
            (RadioState::Idle, p.p_idle),
            (RadioState::Receiving, p.p_rx),
            (RadioState::Transmitting, p.p_tx),
        ] {
            let r = Radio::new(p.clone(), state, SimTime::ZERO);
            assert_eq!(r.current_draw(), want, "draw in {state:?}");
        }
    }

    #[test]
    fn resume_is_instant_and_free() {
        let mut r = radio_in(RadioState::Sleeping);
        let t = SimTime::from_secs(5);
        let before = r.report(t).of(EnergyBucket::Wakeup);
        r.resume(t);
        assert_eq!(r.state(), RadioState::Idle);
        assert_eq!(
            r.report(t).of(EnergyBucket::Wakeup),
            before,
            "no wake-up lump on doze resume"
        );
    }

    #[test]
    #[should_panic(expected = "cannot resume")]
    fn resume_while_idle_panics() {
        radio_in(RadioState::Idle).resume(SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "cannot sleep")]
    fn sleep_while_off_panics() {
        radio_in(RadioState::Off).sleep(SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "cannot sleep")]
    fn sleep_while_receiving_panics() {
        radio_in(RadioState::Receiving).sleep(SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "cannot turn off")]
    fn turn_off_mid_transmission_panics() {
        radio_in(RadioState::Transmitting).turn_off(SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "cannot start rx")]
    fn start_rx_while_sleeping_panics() {
        radio_in(RadioState::Sleeping).start_rx(SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "cannot end tx")]
    fn end_tx_without_start_panics() {
        radio_in(RadioState::Idle).end_tx(SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "cannot complete wakeup")]
    fn complete_wakeup_from_sleep_panics() {
        radio_in(RadioState::Sleeping).complete_wakeup(SimTime::from_secs(2));
    }
}
