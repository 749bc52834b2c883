//! The BCP receiver: wake on request, grant what fits, close early.
//!
//! Section 3, receiver side: "On reception of a wake-up message, the
//! receiver wakes up its high-power radio and sends back a wake-up ack
//! specifying the amount of data the sender can transmit. If the receiver
//! does not have enough space, the ack message returns a lower burst size.
//! If the receiver's buffer is full, no ack is sent. ... the receiver times
//! out and turns its high-power radio off if it does not receive any data
//! packets. ... the receiver turns off its high-power radio when it
//! receives the total number of packets advertised or after a timeout."

use crate::config::BcpConfig;
use crate::frag::Reassembly;
use crate::msg::{AppPacket, BurstId};
use bcp_net::addr::NodeId;
use bcp_sim::persist::{Dec, Enc, Persist, Res};
use bcp_sim::time::SimTime;

/// Effects requested by the receiver machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReceiverAction {
    /// Acquire (power up) the high radio for this inbound session.
    WakeHighRadio {
        /// Handshake identity.
        burst: BurstId,
    },
    /// Send the wake-up ack back over the low radio.
    SendWakeUpAck {
        /// The handshake initiator.
        to: NodeId,
        /// Handshake identity (echoed).
        burst: BurstId,
        /// Bytes granted (≤ requested).
        granted_bytes: usize,
    },
    /// Arm the data-arrival timeout.
    ArmDataTimer {
        /// Handshake identity.
        burst: BurstId,
    },
    /// Cancel the data-arrival timeout.
    CancelDataTimer {
        /// Handshake identity.
        burst: BurstId,
    },
    /// Release (allow powering down) the high radio.
    ReleaseHighRadio {
        /// Handshake identity.
        burst: BurstId,
    },
    /// Hand reassembled application packets to the routing layer.
    DeliverPackets {
        /// The burst's sender.
        from: NodeId,
        /// The packets, in original order.
        packets: Vec<AppPacket>,
    },
}

/// Receiver behaviour counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Wake-ups accepted (session opened).
    pub sessions_opened: u64,
    /// Wake-ups refused because no buffer space was available.
    pub wakeups_refused: u64,
    /// Duplicate wake-ups re-acked.
    pub wakeups_reacked: u64,
    /// Sessions that completed (all advertised frames received).
    pub sessions_completed: u64,
    /// Sessions closed by the data timeout.
    pub sessions_timed_out: u64,
    /// Packets delivered up.
    pub packets_delivered: u64,
    /// Bytes delivered up.
    pub bytes_delivered: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct RecvSession {
    from: NodeId,
    burst: BurstId,
    granted: usize,
    reassembly: Option<Reassembly>,
}

/// The per-node BCP receiver machine.
#[derive(Debug, Clone, PartialEq)]
pub struct BcpReceiver {
    node: NodeId,
    cfg: BcpConfig,
    sessions: Vec<RecvSession>,
    stats: ReceiverStats,
}

impl BcpReceiver {
    /// Creates the receiver machine for `node`.
    pub fn new(node: NodeId, cfg: BcpConfig) -> Self {
        cfg.validate();
        BcpReceiver {
            node,
            cfg,
            sessions: Vec::new(),
            stats: ReceiverStats::default(),
        }
    }

    /// The node this machine belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Behaviour counters.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// Number of inbound sessions currently open.
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// A wake-up message arrived. `free_bytes` is the space this node can
    /// commit (its forwarding buffer headroom; effectively unbounded at the
    /// sink).
    pub fn on_wakeup(
        &mut self,
        _now: SimTime,
        from: NodeId,
        burst: BurstId,
        requested: usize,
        free_bytes: usize,
        out: &mut Vec<ReceiverAction>,
    ) {
        if let Some(sess) = self.sessions.iter().find(|s| s.burst == burst) {
            // Retransmitted wake-up (our ack was lost): re-ack idempotently.
            self.stats.wakeups_reacked += 1;
            out.push(ReceiverAction::SendWakeUpAck {
                to: sess.from,
                burst,
                granted_bytes: sess.granted,
            });
            if sess.reassembly.is_none() {
                out.push(ReceiverAction::ArmDataTimer { burst });
            }
            return;
        }
        let granted = requested.min(free_bytes);
        if granted == 0 {
            // "If the receiver's buffer is full, no ack is sent."
            self.stats.wakeups_refused += 1;
            return;
        }
        self.stats.sessions_opened += 1;
        self.sessions.push(RecvSession {
            from,
            burst,
            granted,
            reassembly: None,
        });
        out.push(ReceiverAction::WakeHighRadio { burst });
        out.push(ReceiverAction::SendWakeUpAck {
            to: from,
            burst,
            granted_bytes: granted,
        });
        out.push(ReceiverAction::ArmDataTimer { burst });
    }

    /// A burst frame arrived over the high radio.
    pub fn on_burst_frame(
        &mut self,
        _now: SimTime,
        burst: BurstId,
        index: u32,
        count: u32,
        packets: Vec<AppPacket>,
        out: &mut Vec<ReceiverAction>,
    ) {
        let Some(pos) = self.sessions.iter().position(|s| s.burst == burst) else {
            return; // session already closed (late frame)
        };
        let sess = &mut self.sessions[pos];
        let reassembly = sess
            .reassembly
            .get_or_insert_with(|| Reassembly::new(burst, count));
        let fresh = reassembly.record_frame(index, &packets);
        if fresh {
            self.stats.packets_delivered += packets.len() as u64;
            self.stats.bytes_delivered += packets.iter().map(|p| p.bytes as u64).sum::<u64>();
            out.push(ReceiverAction::DeliverPackets {
                from: sess.from,
                packets,
            });
        }
        if reassembly.is_complete() {
            self.stats.sessions_completed += 1;
            out.push(ReceiverAction::CancelDataTimer { burst });
            out.push(ReceiverAction::ReleaseHighRadio { burst });
            self.sessions.remove(pos);
        } else {
            // More frames expected: give the sender a fresh window.
            out.push(ReceiverAction::ArmDataTimer { burst });
        }
    }

    /// The data-arrival timer fired: close the session and the radio.
    pub fn on_data_timeout(
        &mut self,
        _now: SimTime,
        burst: BurstId,
        out: &mut Vec<ReceiverAction>,
    ) {
        let Some(pos) = self.sessions.iter().position(|s| s.burst == burst) else {
            return;
        };
        self.stats.sessions_timed_out += 1;
        out.push(ReceiverAction::ReleaseHighRadio { burst });
        self.sessions.remove(pos);
    }

    /// The configured receiver patience (the binder schedules this delay
    /// for [`ReceiverAction::ArmDataTimer`]).
    pub fn data_timeout(&self) -> bcp_sim::time::SimDuration {
        self.cfg.receiver_data_timeout
    }
}

impl Persist for RecvSession {
    type Ctx = ();
    fn save(&self, e: &mut Enc) {
        e.put(&self.from);
        e.put(&self.burst);
        e.put(&self.granted);
        e.opt(self.reassembly.as_ref());
    }
    fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
        let (from, burst, granted) = (d.get()?, d.get()?, d.get()?);
        Ok(RecvSession {
            from,
            burst,
            granted,
            reassembly: d.opt(|d| Reassembly::load(d, burst))?,
        })
    }
}

bcp_sim::persist!(ReceiverStats {
    sessions_opened,
    wakeups_refused,
    wakeups_reacked,
    sessions_completed,
    sessions_timed_out,
    packets_delivered,
    bytes_delivered
});

// The open sessions, in arrival order, and the counters; the node and
// config are scenario configuration.
bcp_sim::persist!(BcpReceiver { sessions, stats } into blank);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BcpConfig;

    fn rx() -> BcpReceiver {
        BcpReceiver::new(NodeId(0), BcpConfig::paper_defaults())
    }

    fn pkt(seq: u64) -> AppPacket {
        AppPacket::new(NodeId(5), NodeId(0), seq, SimTime::ZERO, 32)
    }

    fn burst() -> BurstId {
        BurstId::new(NodeId(5), 0)
    }

    #[test]
    fn wakeup_opens_session_and_acks() {
        let mut r = rx();
        let mut out = Vec::new();
        r.on_wakeup(SimTime::ZERO, NodeId(5), burst(), 16_000, 1 << 20, &mut out);
        assert_eq!(
            out,
            vec![
                ReceiverAction::WakeHighRadio { burst: burst() },
                ReceiverAction::SendWakeUpAck {
                    to: NodeId(5),
                    burst: burst(),
                    granted_bytes: 16_000,
                },
                ReceiverAction::ArmDataTimer { burst: burst() },
            ]
        );
        assert_eq!(r.open_sessions(), 1);
    }

    #[test]
    fn short_buffer_grants_less() {
        // "If the receiver does not have enough space, the ack message
        // returns a lower burst size."
        let mut r = rx();
        let mut out = Vec::new();
        r.on_wakeup(SimTime::ZERO, NodeId(5), burst(), 16_000, 4_000, &mut out);
        assert!(out.contains(&ReceiverAction::SendWakeUpAck {
            to: NodeId(5),
            burst: burst(),
            granted_bytes: 4_000,
        }));
    }

    #[test]
    fn full_buffer_sends_no_ack() {
        // "If the receiver's buffer is full, no ack is sent."
        let mut r = rx();
        let mut out = Vec::new();
        r.on_wakeup(SimTime::ZERO, NodeId(5), burst(), 16_000, 0, &mut out);
        assert!(out.is_empty());
        assert_eq!(r.open_sessions(), 0);
        assert_eq!(r.stats().wakeups_refused, 1);
    }

    #[test]
    fn duplicate_wakeup_reacks_same_grant() {
        let mut r = rx();
        let mut out = Vec::new();
        r.on_wakeup(SimTime::ZERO, NodeId(5), burst(), 16_000, 8_000, &mut out);
        out.clear();
        r.on_wakeup(SimTime::ZERO, NodeId(5), burst(), 16_000, 999, &mut out);
        // Grant is sticky (committed space), not re-derived.
        assert!(out.contains(&ReceiverAction::SendWakeUpAck {
            to: NodeId(5),
            burst: burst(),
            granted_bytes: 8_000,
        }));
        assert_eq!(r.stats().wakeups_reacked, 1);
        assert_eq!(r.open_sessions(), 1, "no second session");
    }

    #[test]
    fn frames_deliver_and_complete_closes_radio() {
        let mut r = rx();
        let mut out = Vec::new();
        r.on_wakeup(SimTime::ZERO, NodeId(5), burst(), 128, 1 << 20, &mut out);
        out.clear();
        r.on_burst_frame(SimTime::ZERO, burst(), 0, 2, vec![pkt(0), pkt(1)], &mut out);
        assert!(matches!(
            &out[0],
            ReceiverAction::DeliverPackets { from, packets } if *from == NodeId(5) && packets.len() == 2
        ));
        assert!(
            out.contains(&ReceiverAction::ArmDataTimer { burst: burst() }),
            "window rearmed mid-burst"
        );
        out.clear();
        r.on_burst_frame(SimTime::ZERO, burst(), 1, 2, vec![pkt(2)], &mut out);
        assert!(out.contains(&ReceiverAction::CancelDataTimer { burst: burst() }));
        assert!(
            out.contains(&ReceiverAction::ReleaseHighRadio { burst: burst() }),
            "early close once everything advertised arrived"
        );
        assert_eq!(r.open_sessions(), 0);
        assert_eq!(r.stats().sessions_completed, 1);
        assert_eq!(r.stats().packets_delivered, 3);
    }

    #[test]
    fn data_timeout_closes_radio() {
        let mut r = rx();
        let mut out = Vec::new();
        r.on_wakeup(SimTime::ZERO, NodeId(5), burst(), 128, 1 << 20, &mut out);
        out.clear();
        r.on_data_timeout(SimTime::from_secs(2), burst(), &mut out);
        assert_eq!(
            out,
            vec![ReceiverAction::ReleaseHighRadio { burst: burst() }]
        );
        assert_eq!(r.stats().sessions_timed_out, 1);
        assert_eq!(r.open_sessions(), 0);
    }

    #[test]
    fn late_frame_after_close_is_ignored() {
        let mut r = rx();
        let mut out = Vec::new();
        r.on_wakeup(SimTime::ZERO, NodeId(5), burst(), 128, 1 << 20, &mut out);
        r.on_data_timeout(SimTime::from_secs(2), burst(), &mut out);
        out.clear();
        r.on_burst_frame(SimTime::from_secs(3), burst(), 0, 1, vec![pkt(0)], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_frame_not_redelivered() {
        let mut r = rx();
        let mut out = Vec::new();
        r.on_wakeup(SimTime::ZERO, NodeId(5), burst(), 128, 1 << 20, &mut out);
        out.clear();
        r.on_burst_frame(SimTime::ZERO, burst(), 0, 2, vec![pkt(0)], &mut out);
        out.clear();
        r.on_burst_frame(SimTime::ZERO, burst(), 0, 2, vec![pkt(0)], &mut out);
        assert!(
            !out.iter()
                .any(|a| matches!(a, ReceiverAction::DeliverPackets { .. })),
            "duplicate frame suppressed"
        );
    }

    #[test]
    fn concurrent_sessions_from_different_senders() {
        let mut r = rx();
        let mut out = Vec::new();
        let b1 = BurstId::new(NodeId(5), 0);
        let b2 = BurstId::new(NodeId(6), 0);
        r.on_wakeup(SimTime::ZERO, NodeId(5), b1, 128, 1 << 20, &mut out);
        r.on_wakeup(SimTime::ZERO, NodeId(6), b2, 128, 1 << 20, &mut out);
        assert_eq!(r.open_sessions(), 2);
        out.clear();
        r.on_burst_frame(SimTime::ZERO, b1, 0, 1, vec![pkt(0)], &mut out);
        assert_eq!(r.open_sessions(), 1, "only b1 closed");
    }
}
