//! The BCP sender: buffer until `α·s*`, wake the receiver, burst, shut down.
//!
//! Sans-IO like the MACs: events arrive as method calls, effects leave as
//! [`SenderAction`]s. One high-power radio per node means **one active
//! session at a time**; other next hops wait their turn.
//!
//! Lifecycle per session (Section 3, sender side):
//!
//! ```text
//! buffer ≥ α·s* ──▶ SendWakeUp ──▶ WaitAck ──(ack)──▶ WakeHighRadio
//!                     ▲   │ timeout × attempts             │ radio ready
//!                     └───┘        │                        ▼
//!                              give up                  Bursting ──▶ Release
//! ```

use crate::buffer::NextHopBuffers;
use crate::config::BcpConfig;
use crate::frag::{pack_frames, total_bytes};
use crate::msg::{AppPacket, BurstId};
use bcp_net::addr::NodeId;
use bcp_sim::persist::{Dec, Enc, Persist, Res};
use bcp_sim::time::SimTime;
use std::collections::VecDeque;

/// Why buffered packets were abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The shared buffer was full on arrival.
    BufferOverflow,
    /// The high-radio MAC exhausted its retries on a burst frame.
    MacFailure,
}

/// Effects requested by the sender machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SenderAction {
    /// Send a wake-up message toward `to` over the low radio (it may be
    /// relayed over multiple low-radio hops).
    SendWakeUp {
        /// The receiver of the planned burst.
        to: NodeId,
        /// Handshake identity.
        burst: BurstId,
        /// Bytes the sender wants to move.
        burst_bytes: usize,
    },
    /// Arm the wake-up ack timeout for this handshake.
    ArmAckTimer {
        /// Handshake identity.
        burst: BurstId,
    },
    /// Cancel the wake-up ack timeout.
    CancelAckTimer {
        /// Handshake identity.
        burst: BurstId,
    },
    /// Acquire (power up) the high radio for this session.
    WakeHighRadio {
        /// Handshake identity.
        burst: BurstId,
    },
    /// Transmit one burst frame over the high radio.
    SendBurstFrame {
        /// The receiver.
        to: NodeId,
        /// Handshake identity.
        burst: BurstId,
        /// Frame index within the burst.
        index: u32,
        /// Total frames in the burst (advertised to the receiver).
        count: u32,
        /// The application packets packed into this frame.
        packets: Vec<AppPacket>,
    },
    /// Release (allow powering down) the high radio.
    ReleaseHighRadio {
        /// Handshake identity.
        burst: BurstId,
    },
    /// Packets irrecoverably lost; metrics should count them.
    PacketsDropped {
        /// The lost packets.
        packets: Vec<AppPacket>,
        /// Why they were lost.
        reason: DropReason,
    },
    /// Aged packets sent immediately over the low radio (delay-constrained
    /// fallback, the paper's Section 5 future work).
    SendLowData {
        /// The next hop (low-radio routing takes it from there).
        to: NodeId,
        /// The packets leaving the buffer.
        packets: Vec<AppPacket>,
    },
    /// A session finished (informational).
    SessionDone {
        /// Handshake identity.
        burst: BurstId,
        /// Packets handed to the high-radio MAC and acknowledged.
        delivered_packets: u64,
        /// Bytes likewise.
        delivered_bytes: usize,
    },
}

/// Sender behaviour counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Handshakes initiated.
    pub handshakes: u64,
    /// Wake-up retransmissions.
    pub wakeup_resends: u64,
    /// Handshakes abandoned after exhausting attempts.
    pub handshake_failures: u64,
    /// Bursts fully processed.
    pub bursts_completed: u64,
    /// Burst frames transmitted successfully (MAC-acked).
    pub frames_ok: u64,
    /// Burst frames the MAC gave up on.
    pub frames_failed: u64,
    /// Packets delivered into successful frames.
    pub packets_sent: u64,
    /// Payload bytes likewise.
    pub bytes_sent: u64,
    /// Packets diverted to the low radio by the delay bound.
    pub low_fallback_packets: u64,
    /// Handshakes abandoned because the grant was below the configured
    /// minimum.
    pub grant_rejections: u64,
}

#[derive(Debug, Clone, PartialEq)]
enum SessState {
    WaitAck { attempts: u32, requested: usize },
    WakingRadio { granted: usize },
    Bursting(Bursting),
}

#[derive(Debug, Clone, PartialEq)]
struct Bursting {
    pending: VecDeque<(u32, Vec<AppPacket>)>,
    count: u32,
    in_flight: Option<(u32, Vec<AppPacket>)>,
    delivered_packets: u64,
    delivered_bytes: usize,
}

#[derive(Debug, Clone, PartialEq)]
struct Session {
    next_hop: NodeId,
    burst: BurstId,
    state: SessState,
}

/// The per-node BCP sender machine.
///
/// # Examples
///
/// See the crate-level docs of `bcp-core` for a full handshake walk-through.
#[derive(Debug, Clone, PartialEq)]
pub struct BcpSender {
    node: NodeId,
    cfg: BcpConfig,
    buffers: NextHopBuffers,
    session: Option<Session>,
    burst_counter: u64,
    draining: bool,
    stats: SenderStats,
}

impl BcpSender {
    /// Creates the sender machine for `node`.
    pub fn new(node: NodeId, cfg: BcpConfig) -> Self {
        cfg.validate();
        let buffers = NextHopBuffers::new(cfg.buffer_cap_bytes);
        BcpSender {
            node,
            cfg,
            buffers,
            session: None,
            burst_counter: 0,
            draining: false,
            stats: SenderStats::default(),
        }
    }

    /// The node this machine belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The configuration in force.
    pub fn config(&self) -> &BcpConfig {
        &self.cfg
    }

    /// Buffer occupancy and drop counters.
    pub fn buffers(&self) -> &NextHopBuffers {
        &self.buffers
    }

    /// Behaviour counters.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// `true` while a handshake/burst is in progress.
    pub fn session_active(&self) -> bool {
        self.session.is_some()
    }

    /// Free buffer space — what this node would grant as a *receiver*
    /// (relays share one buffer pool between forwarding and reception).
    pub fn free_bytes(&self) -> usize {
        self.buffers.free_bytes()
    }

    /// The threshold currently in force: `α·s*` normally, one byte while
    /// draining.
    fn effective_threshold(&self) -> usize {
        if self.draining {
            1
        } else {
            self.cfg.threshold_bytes
        }
    }

    /// Enters drain mode: from now on, *any* buffered data (threshold
    /// ignored) triggers handshakes until the buffers are empty. Used at
    /// the end of finite workloads — the prototype experiment sends exactly
    /// 500 messages and then flushes.
    pub fn flush(&mut self, now: SimTime, out: &mut Vec<SenderAction>) {
        self.draining = true;
        self.maybe_start_session(now, out);
    }

    /// `true` once [`flush`](Self::flush) has been called.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// A data packet routed toward `next_hop` arrives for buffering.
    pub fn on_data(
        &mut self,
        now: SimTime,
        next_hop: NodeId,
        pkt: AppPacket,
        out: &mut Vec<SenderAction>,
    ) {
        if !self.buffers.push(next_hop, pkt) {
            out.push(SenderAction::PacketsDropped {
                packets: vec![pkt],
                reason: DropReason::BufferOverflow,
            });
            return;
        }
        self.apply_delay_bound(now, next_hop, out);
        self.maybe_start_session(now, out);
    }

    /// Delay-constrained fallback: divert aged packets to the low radio
    /// unless a session is about to move them anyway.
    fn apply_delay_bound(&mut self, now: SimTime, next_hop: NodeId, out: &mut Vec<SenderAction>) {
        let Some(bound) = self.cfg.delay_bound else {
            return;
        };
        if self
            .session
            .as_ref()
            .is_some_and(|s| s.next_hop == next_hop)
        {
            return; // a burst toward this hop is already in progress
        }
        if now < SimTime::ZERO + bound {
            return;
        }
        let cutoff = now - bound;
        let aged = self.buffers.take_older_than(next_hop, cutoff);
        if !aged.is_empty() {
            self.stats.low_fallback_packets += aged.len() as u64;
            out.push(SenderAction::SendLowData {
                to: next_hop,
                packets: aged,
            });
        }
    }

    /// Starts a handshake if no session is active and some next hop has
    /// crossed the threshold. Called internally after every buffer change;
    /// public so binders can retry after a failed handshake.
    pub fn maybe_start_session(&mut self, _now: SimTime, out: &mut Vec<SenderAction>) {
        if self.session.is_some() {
            return;
        }
        let Some(next_hop) = self
            .buffers
            .occupied_next_hops()
            .into_iter()
            .find(|nh| self.buffers.bytes_for(*nh) >= self.effective_threshold())
        else {
            return;
        };
        let burst = BurstId::new(self.node, self.burst_counter);
        self.burst_counter += 1;
        let requested = self
            .buffers
            .bytes_for(next_hop)
            .min(self.cfg.max_burst_bytes);
        self.stats.handshakes += 1;
        self.session = Some(Session {
            next_hop,
            burst,
            state: SessState::WaitAck {
                attempts: 1,
                requested,
            },
        });
        out.push(SenderAction::SendWakeUp {
            to: next_hop,
            burst,
            burst_bytes: requested,
        });
        out.push(SenderAction::ArmAckTimer { burst });
    }

    /// The wake-up ack arrived, granting `granted` bytes.
    pub fn on_wakeup_ack(
        &mut self,
        _now: SimTime,
        burst: BurstId,
        granted: usize,
        out: &mut Vec<SenderAction>,
    ) {
        let Some(session) = self.session.as_mut().filter(|s| s.burst == burst) else {
            return; // stale ack for an abandoned handshake
        };
        let SessState::WaitAck { requested, .. } = session.state else {
            return; // duplicate ack
        };
        out.push(SenderAction::CancelAckTimer { burst });
        let granted = granted.min(requested);
        if granted == 0 {
            // Receiver granted nothing: abandon (data stays buffered).
            self.stats.handshake_failures += 1;
            self.session = None;
            return;
        }
        if granted < self.cfg.min_grant_bytes {
            // "If this data size is less than s*, the sender might give up
            // sending" — the paper's unevaluated extension, opt-in here.
            self.stats.grant_rejections += 1;
            self.session = None;
            return;
        }
        session.state = SessState::WakingRadio { granted };
        out.push(SenderAction::WakeHighRadio { burst });
    }

    /// The wake-up ack timer fired.
    pub fn on_ack_timeout(&mut self, now: SimTime, burst: BurstId, out: &mut Vec<SenderAction>) {
        let Some(session) = self.session.as_mut().filter(|s| s.burst == burst) else {
            return;
        };
        let SessState::WaitAck {
            attempts,
            requested,
        } = &mut session.state
        else {
            return; // stale timer; ack already processed
        };
        if *attempts >= self.cfg.wakeup_attempts {
            // Give up; buffered data stays for a later attempt.
            self.stats.handshake_failures += 1;
            let next_hop = session.next_hop;
            self.session = None;
            // Another next hop may be eligible right away.
            let _ = next_hop;
            self.maybe_start_session(now, out);
            return;
        }
        *attempts += 1;
        self.stats.wakeup_resends += 1;
        let (to, req) = (session.next_hop, *requested);
        out.push(SenderAction::SendWakeUp {
            to,
            burst,
            burst_bytes: req,
        });
        out.push(SenderAction::ArmAckTimer { burst });
    }

    /// The high radio finished powering up: drain and start bursting.
    pub fn on_high_radio_ready(
        &mut self,
        now: SimTime,
        burst: BurstId,
        out: &mut Vec<SenderAction>,
    ) {
        let Some(session) = self.session.as_mut().filter(|s| s.burst == burst) else {
            return;
        };
        let SessState::WakingRadio { granted } = session.state else {
            return;
        };
        let next_hop = session.next_hop;
        let batch = self.buffers.take_up_to(next_hop, granted);
        if batch.is_empty() {
            // Everything drained elsewhere meanwhile (should not happen with
            // a single session, but stay safe): close the session.
            out.push(SenderAction::ReleaseHighRadio { burst });
            out.push(SenderAction::SessionDone {
                burst,
                delivered_packets: 0,
                delivered_bytes: 0,
            });
            self.session = None;
            self.maybe_start_session(now, out);
            return;
        }
        let frames = pack_frames(batch, self.cfg.frame_payload);
        let count = frames.len() as u32;
        let mut pending: VecDeque<(u32, Vec<AppPacket>)> = frames
            .into_iter()
            .enumerate()
            .map(|(i, f)| (i as u32, f))
            .collect();
        let first = pending.pop_front().expect("at least one frame");
        let session = self.session.as_mut().expect("session exists");
        session.state = SessState::Bursting(Bursting {
            pending,
            count,
            in_flight: Some(first.clone()),
            delivered_packets: 0,
            delivered_bytes: 0,
        });
        out.push(SenderAction::SendBurstFrame {
            to: next_hop,
            burst,
            index: first.0,
            count,
            packets: first.1,
        });
    }

    /// The high-radio MAC reported the outcome of the in-flight frame.
    pub fn on_frame_outcome(
        &mut self,
        now: SimTime,
        burst: BurstId,
        ok: bool,
        out: &mut Vec<SenderAction>,
    ) {
        let Some(session) = self.session.as_mut().filter(|s| s.burst == burst) else {
            return;
        };
        let next_hop = session.next_hop;
        let SessState::Bursting(b) = &mut session.state else {
            return;
        };
        let (_, packets) = b.in_flight.take().expect("outcome without in-flight frame");
        if ok {
            self.stats.frames_ok += 1;
            b.delivered_packets += packets.len() as u64;
            b.delivered_bytes += total_bytes(&packets);
            self.stats.packets_sent += packets.len() as u64;
            self.stats.bytes_sent += total_bytes(&packets) as u64;
        } else {
            self.stats.frames_failed += 1;
            out.push(SenderAction::PacketsDropped {
                packets,
                reason: DropReason::MacFailure,
            });
        }
        if let Some(next) = b.pending.pop_front() {
            b.in_flight = Some(next.clone());
            let count = b.count;
            out.push(SenderAction::SendBurstFrame {
                to: next_hop,
                burst,
                index: next.0,
                count,
                packets: next.1,
            });
        } else {
            let (dp, db) = (b.delivered_packets, b.delivered_bytes);
            self.stats.bursts_completed += 1;
            out.push(SenderAction::ReleaseHighRadio { burst });
            out.push(SenderAction::SessionDone {
                burst,
                delivered_packets: dp,
                delivered_bytes: db,
            });
            self.session = None;
            // Data may have crossed the threshold during the burst.
            self.maybe_start_session(now, out);
        }
    }
}

impl Persist for SessState {
    type Ctx = ();
    fn save(&self, e: &mut Enc) {
        match self {
            SessState::WaitAck {
                attempts,
                requested,
            } => {
                e.u8(0);
                e.put(attempts);
                e.put(requested);
            }
            SessState::WakingRadio { granted } => {
                e.u8(1);
                e.put(granted);
            }
            SessState::Bursting(b) => {
                e.u8(2);
                e.put(&b.pending);
                e.put(&b.count);
                e.put(&b.in_flight);
                e.u64(b.delivered_packets);
                e.put(&b.delivered_bytes);
            }
        }
    }
    fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
        Ok(match d.tag(&[0, 1, 2], "session state tag")? {
            0 => SessState::WaitAck {
                attempts: d.get()?,
                requested: d.get()?,
            },
            1 => SessState::WakingRadio { granted: d.get()? },
            _ => SessState::Bursting(Bursting {
                pending: d.get()?,
                count: d.get()?,
                in_flight: d.get()?,
                delivered_packets: d.u64()?,
                delivered_bytes: d.get()?,
            }),
        })
    }
}

bcp_sim::persist!(Session {
    next_hop,
    burst,
    state
});

bcp_sim::persist!(SenderStats {
    handshakes,
    wakeup_resends,
    handshake_failures,
    bursts_completed,
    frames_ok,
    frames_failed,
    packets_sent,
    bytes_sent,
    low_fallback_packets,
    grant_rejections
});

/// The buffers, session and counters; the node and config are scenario
/// configuration, so a load fills a sender built from them.
impl Persist for BcpSender {
    type Ctx = BcpSender;
    fn save(&self, e: &mut Enc) {
        e.put(&self.buffers);
        e.put(&self.session);
        e.u64(self.burst_counter);
        e.boolean(self.draining);
        e.put(&self.stats);
    }
    fn load(d: &mut Dec<'_>, blank: BcpSender) -> Res<Self> {
        Ok(BcpSender {
            buffers: NextHopBuffers::load(d, blank.buffers)?,
            session: d.get()?,
            burst_counter: d.u64()?,
            draining: d.boolean()?,
            stats: d.get()?,
            ..blank
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_small() -> BcpConfig {
        // Threshold of 10 packets of 32 B, like the paper's smallest burst.
        let mut c = BcpConfig::paper_defaults().with_burst_packets(10, 32);
        c.frame_payload = 128; // 4 packets per frame -> multi-frame bursts
        c
    }

    fn pkt(seq: u64) -> AppPacket {
        AppPacket::new(NodeId(5), NodeId(0), seq, SimTime::ZERO, 32)
    }

    fn drive_to_wakeup(s: &mut BcpSender) -> (BurstId, Vec<SenderAction>) {
        let mut out = Vec::new();
        for i in 0..10 {
            s.on_data(SimTime::ZERO, NodeId(1), pkt(i), &mut out);
        }
        let burst = out
            .iter()
            .find_map(|a| match a {
                SenderAction::SendWakeUp { burst, .. } => Some(*burst),
                _ => None,
            })
            .expect("wake-up sent at threshold");
        (burst, out)
    }

    #[test]
    fn threshold_triggers_wakeup() {
        let mut s = BcpSender::new(NodeId(5), cfg_small());
        let mut out = Vec::new();
        for i in 0..9 {
            s.on_data(SimTime::ZERO, NodeId(1), pkt(i), &mut out);
        }
        assert!(out.is_empty(), "below threshold: just buffer");
        s.on_data(SimTime::ZERO, NodeId(1), pkt(9), &mut out);
        match &out[..] {
            [SenderAction::SendWakeUp {
                to, burst_bytes, ..
            }, SenderAction::ArmAckTimer { .. }] => {
                assert_eq!(*to, NodeId(1));
                assert_eq!(*burst_bytes, 320);
            }
            other => panic!("unexpected actions {other:?}"),
        }
        assert!(s.session_active());
    }

    #[test]
    fn full_burst_lifecycle() {
        let mut s = BcpSender::new(NodeId(5), cfg_small());
        let (burst, _) = drive_to_wakeup(&mut s);
        let mut out = Vec::new();
        s.on_wakeup_ack(SimTime::ZERO, burst, 320, &mut out);
        assert!(out.contains(&SenderAction::CancelAckTimer { burst }));
        assert!(out.contains(&SenderAction::WakeHighRadio { burst }));

        out.clear();
        s.on_high_radio_ready(SimTime::ZERO, burst, &mut out);
        // 320 B at 128 B/frame = 3 frames (4+4+2 packets); first is sent.
        let (count, first_len) = match &out[..] {
            [SenderAction::SendBurstFrame {
                count,
                packets,
                index: 0,
                ..
            }] => (*count, packets.len()),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(count, 3);
        assert_eq!(first_len, 4);

        // Walk the remaining frames.
        for i in 1..count {
            out.clear();
            s.on_frame_outcome(SimTime::ZERO, burst, true, &mut out);
            assert!(
                matches!(&out[..], [SenderAction::SendBurstFrame { index, .. }] if *index == i)
            );
        }
        out.clear();
        s.on_frame_outcome(SimTime::ZERO, burst, true, &mut out);
        assert!(out.contains(&SenderAction::ReleaseHighRadio { burst }));
        assert!(matches!(
            out.iter()
                .find(|a| matches!(a, SenderAction::SessionDone { .. })),
            Some(SenderAction::SessionDone {
                delivered_packets: 10,
                delivered_bytes: 320,
                ..
            })
        ));
        assert!(!s.session_active());
        assert_eq!(s.stats().bursts_completed, 1);
        assert_eq!(s.stats().packets_sent, 10);
        s.buffers().check_conservation();
    }

    #[test]
    fn wakeup_retries_then_gives_up() {
        let mut s = BcpSender::new(NodeId(5), cfg_small());
        let (burst, _) = drive_to_wakeup(&mut s);
        let attempts = s.config().wakeup_attempts;
        let mut out = Vec::new();
        for _ in 1..attempts {
            out.clear();
            s.on_ack_timeout(SimTime::ZERO, burst, &mut out);
            assert!(
                out.iter()
                    .any(|a| matches!(a, SenderAction::SendWakeUp { .. })),
                "resends while attempts remain"
            );
        }
        out.clear();
        s.on_ack_timeout(SimTime::ZERO, burst, &mut out);
        assert_eq!(s.stats().handshake_failures, 1);
        // Data is NOT lost: still buffered...
        assert_eq!(s.buffers().bytes_for(NodeId(1)), 320);
        // ...and since it is still over threshold, a brand-new handshake
        // (fresh burst id) starts right away.
        let new_burst = out.iter().find_map(|a| match a {
            SenderAction::SendWakeUp { burst, .. } => Some(*burst),
            _ => None,
        });
        assert!(new_burst.is_some_and(|b| b != burst), "fresh handshake");
        assert!(s.session_active());
    }

    #[test]
    fn grant_clamp_limits_burst() {
        let mut s = BcpSender::new(NodeId(5), cfg_small());
        let (burst, _) = drive_to_wakeup(&mut s);
        let mut out = Vec::new();
        // Receiver only grants 128 B (4 packets).
        s.on_wakeup_ack(SimTime::ZERO, burst, 128, &mut out);
        out.clear();
        s.on_high_radio_ready(SimTime::ZERO, burst, &mut out);
        match &out[..] {
            [SenderAction::SendBurstFrame { count, packets, .. }] => {
                assert_eq!(*count, 1);
                assert_eq!(packets.len(), 4);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The other 6 packets remain buffered.
        assert_eq!(s.buffers().bytes_for(NodeId(1)), 192);
    }

    #[test]
    fn zero_grant_abandons() {
        let mut s = BcpSender::new(NodeId(5), cfg_small());
        let (burst, _) = drive_to_wakeup(&mut s);
        let mut out = Vec::new();
        s.on_wakeup_ack(SimTime::ZERO, burst, 0, &mut out);
        assert!(!s.session_active());
        assert!(
            !out.iter()
                .any(|a| matches!(a, SenderAction::WakeHighRadio { .. })),
            "no radio wake on zero grant"
        );
        assert_eq!(s.buffers().bytes_for(NodeId(1)), 320, "data retained");
    }

    #[test]
    fn mac_failure_drops_frame_packets_and_continues() {
        let mut s = BcpSender::new(NodeId(5), cfg_small());
        let (burst, _) = drive_to_wakeup(&mut s);
        let mut out = Vec::new();
        s.on_wakeup_ack(SimTime::ZERO, burst, 320, &mut out);
        out.clear();
        s.on_high_radio_ready(SimTime::ZERO, burst, &mut out);
        out.clear();
        // First frame fails at the MAC.
        s.on_frame_outcome(SimTime::ZERO, burst, false, &mut out);
        assert!(matches!(
            &out[0],
            SenderAction::PacketsDropped {
                reason: DropReason::MacFailure,
                packets
            } if packets.len() == 4
        ));
        assert!(
            out.iter()
                .any(|a| matches!(a, SenderAction::SendBurstFrame { index: 1, .. })),
            "burst continues with the next frame"
        );
        assert_eq!(s.stats().frames_failed, 1);
    }

    #[test]
    fn buffer_overflow_reports_drop() {
        let mut cfg = cfg_small();
        cfg.buffer_cap_bytes = 320; // exactly the threshold
        let mut s = BcpSender::new(NodeId(5), cfg);
        let mut out = Vec::new();
        for i in 0..10 {
            s.on_data(SimTime::ZERO, NodeId(1), pkt(i), &mut out);
        }
        out.clear();
        // Buffer is full (session pending but nothing drained yet).
        s.on_data(SimTime::ZERO, NodeId(1), pkt(10), &mut out);
        assert!(matches!(
            &out[..],
            [SenderAction::PacketsDropped {
                reason: DropReason::BufferOverflow,
                ..
            }]
        ));
    }

    #[test]
    fn single_session_at_a_time() {
        let mut s = BcpSender::new(NodeId(5), cfg_small());
        let mut out = Vec::new();
        // Cross threshold for two different next hops.
        for i in 0..10 {
            s.on_data(SimTime::ZERO, NodeId(1), pkt(i), &mut out);
        }
        for i in 10..20 {
            s.on_data(SimTime::ZERO, NodeId(2), pkt(i), &mut out);
        }
        let wakeups = out
            .iter()
            .filter(|a| matches!(a, SenderAction::SendWakeUp { .. }))
            .count();
        assert_eq!(wakeups, 1, "second hop waits for the radio");
    }

    #[test]
    fn next_hop_session_follows_completion() {
        let mut s = BcpSender::new(NodeId(5), cfg_small());
        let mut out = Vec::new();
        for i in 0..10 {
            s.on_data(SimTime::ZERO, NodeId(1), pkt(i), &mut out);
        }
        for i in 10..20 {
            s.on_data(SimTime::ZERO, NodeId(2), pkt(i), &mut out);
        }
        let (burst, _) = (
            match out.iter().find_map(|a| match a {
                SenderAction::SendWakeUp { burst, .. } => Some(*burst),
                _ => None,
            }) {
                Some(b) => b,
                None => panic!("no wakeup"),
            },
            (),
        );
        out.clear();
        s.on_wakeup_ack(SimTime::ZERO, burst, 320, &mut out);
        s.on_high_radio_ready(SimTime::ZERO, burst, &mut out);
        out.clear();
        // One frame of 4, then 4, then 2 packets: 3 outcomes total.
        for _ in 0..3 {
            s.on_frame_outcome(SimTime::ZERO, burst, true, &mut out);
        }
        // Session for NodeId(2) should start automatically.
        assert!(
            out.iter().any(|a| matches!(
                a,
                SenderAction::SendWakeUp { to, .. } if *to == NodeId(2)
            )),
            "next hop's session starts after completion: {out:?}"
        );
    }

    #[test]
    fn flush_drains_below_threshold() {
        let mut s = BcpSender::new(NodeId(5), cfg_small());
        let mut out = Vec::new();
        // Only 3 packets: well below the 10-packet threshold.
        for i in 0..3 {
            s.on_data(SimTime::ZERO, NodeId(1), pkt(i), &mut out);
        }
        assert!(out.is_empty() && !s.session_active());
        s.flush(SimTime::ZERO, &mut out);
        assert!(s.is_draining());
        assert!(
            matches!(
                &out[0],
                SenderAction::SendWakeUp {
                    burst_bytes: 96,
                    ..
                }
            ),
            "flush starts a sub-threshold handshake: {out:?}"
        );
        // And new arrivals during drain trigger immediately after the
        // current session; complete the session first.
        let burst = match &out[0] {
            SenderAction::SendWakeUp { burst, .. } => *burst,
            _ => unreachable!(),
        };
        out.clear();
        s.on_wakeup_ack(SimTime::ZERO, burst, 96, &mut out);
        s.on_high_radio_ready(SimTime::ZERO, burst, &mut out);
        out.clear();
        s.on_frame_outcome(SimTime::ZERO, burst, true, &mut out);
        assert!(out
            .iter()
            .any(|a| matches!(a, SenderAction::SessionDone { .. })));
        assert_eq!(s.buffers().total_bytes(), 0, "fully drained");
    }

    #[test]
    fn delay_bound_diverts_aged_packets() {
        use bcp_sim::time::SimDuration;
        let cfg = cfg_small().with_delay_bound(SimDuration::from_secs(10));
        let mut s = BcpSender::new(NodeId(5), cfg);
        let mut out = Vec::new();
        // Three packets at t=0: too few for the threshold.
        for i in 0..3 {
            s.on_data(SimTime::ZERO, NodeId(1), pkt(i), &mut out);
        }
        assert!(out.is_empty());
        // A fourth arrival at t=20s finds the first three aged out.
        let late = AppPacket::new(NodeId(5), NodeId(0), 9, SimTime::from_secs(20), 32);
        s.on_data(SimTime::from_secs(20), NodeId(1), late, &mut out);
        match &out[..] {
            [SenderAction::SendLowData { to, packets }] => {
                assert_eq!(*to, NodeId(1));
                assert_eq!(packets.len(), 3, "aged prefix diverted");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.stats().low_fallback_packets, 3);
        // The fresh packet stays buffered for a future burst.
        assert_eq!(s.buffers().bytes_for(NodeId(1)), 32);
        s.buffers().check_conservation();
    }

    #[test]
    fn delay_bound_defers_to_active_session() {
        use bcp_sim::time::SimDuration;
        let cfg = cfg_small().with_delay_bound(SimDuration::from_secs(10));
        let mut s = BcpSender::new(NodeId(5), cfg);
        let mut out = Vec::new();
        for i in 0..10 {
            s.on_data(SimTime::ZERO, NodeId(1), pkt(i), &mut out);
        }
        assert!(s.session_active(), "threshold reached: session started");
        out.clear();
        // Aged data exists, but the session will carry it: no fallback.
        let late = AppPacket::new(NodeId(5), NodeId(0), 99, SimTime::from_secs(30), 32);
        s.on_data(SimTime::from_secs(30), NodeId(1), late, &mut out);
        assert!(
            !out.iter()
                .any(|a| matches!(a, SenderAction::SendLowData { .. })),
            "session in progress suppresses the fallback"
        );
    }

    #[test]
    fn small_grant_rejected_when_configured() {
        let cfg = cfg_small().with_min_grant(200);
        let mut s = BcpSender::new(NodeId(5), cfg);
        let (burst, _) = drive_to_wakeup(&mut s);
        let mut out = Vec::new();
        s.on_wakeup_ack(SimTime::ZERO, burst, 100, &mut out);
        assert!(!s.session_active(), "grant below minimum: gave up");
        assert_eq!(s.stats().grant_rejections, 1);
        assert!(
            !out.iter()
                .any(|a| matches!(a, SenderAction::WakeHighRadio { .. })),
            "radio never woken for a rejected grant"
        );
        assert_eq!(s.buffers().bytes_for(NodeId(1)), 320, "data retained");
    }

    #[test]
    fn stale_events_are_ignored() {
        let mut s = BcpSender::new(NodeId(5), cfg_small());
        let (burst, _) = drive_to_wakeup(&mut s);
        let mut out = Vec::new();
        let bogus = BurstId::new(NodeId(9), 99);
        s.on_wakeup_ack(SimTime::ZERO, bogus, 320, &mut out);
        s.on_ack_timeout(SimTime::ZERO, bogus, &mut out);
        s.on_high_radio_ready(SimTime::ZERO, bogus, &mut out);
        s.on_frame_outcome(SimTime::ZERO, bogus, true, &mut out);
        assert!(out.is_empty(), "foreign burst ids do nothing");
        assert!(s.session_active());
        // Duplicate ack after the first is also ignored.
        s.on_wakeup_ack(SimTime::ZERO, burst, 320, &mut out);
        let n = out.len();
        s.on_wakeup_ack(SimTime::ZERO, burst, 320, &mut out);
        assert_eq!(out.len(), n, "duplicate ack ignored");
    }
}
