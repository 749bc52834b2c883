//! The event vocabulary of the sharded network simulator.
//!
//! Two kinds of event exist:
//!
//! * [`Ev`] — **shard-local** events. Each one concerns exactly one
//!   shard's nodes; the reception events ([`Ev::RxBegin`], [`Ev::RxEnd`])
//!   are the only way one node's transmission reaches another node, and
//!   they always fire one *link turnaround latency* after the sender's
//!   action — the latency floor that doubles as the conservative
//!   engine's lookahead.
//! * [`GlobalEv`] — rare whole-world events (route repair after a death,
//!   periodic route refresh) executed by the coordinator with exclusive
//!   access to every shard.
//!
//! Every event carries a content-derived [`Keyed::ord`] so that
//! simultaneous events replay in the same order for any shard count.

use bcp_core::msg::{AppPacket, BurstId, HandshakeMsg};
use bcp_mac::types::{MacFrame, MacTimer};
use bcp_net::addr::NodeId;
use bcp_sim::keyed::{pack_ord, Keyed};
use bcp_sim::persist::{bad, Dec, Enc, Persist, Res};
use bcp_sim::time::SimTime;
use std::sync::Arc;

/// Which of a node's two radios an event concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// The low-power sensor radio.
    Low,
    /// The high-power 802.11 radio.
    High,
}

impl Class {
    /// Dense index for per-class arrays.
    pub fn index(self) -> usize {
        match self {
            Class::Low => 0,
            Class::High => 1,
        }
    }
}

/// Folds a node id with a node-local sequence number into one u64 (node
/// in the high 24 bits, sequence in the low 40) — the id scheme of every
/// shard-count-independent identity in the simulator (transmission ids,
/// payload tags; packet and burst ids in `bcp-core` use the same split).
pub fn node_scoped_id(node: NodeId, seq: u64) -> u64 {
    ((node.0 as u64) << 40) | (seq & 0xff_ffff_ffff)
}

/// Identity of one transmission on the air: the sender's id folded with a
/// per-sender counter, so ids are unique *and* independent of how the
/// world is sharded (a global counter would not be).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(pub u64);

impl TxId {
    /// Builds the id of `sender`'s `seq`-th transmission.
    pub fn new(sender: NodeId, seq: u64) -> Self {
        TxId(node_scoped_id(sender, seq))
    }

    /// The transmitting node.
    pub fn sender(self) -> NodeId {
        NodeId((self.0 >> 40) as u32)
    }
}

/// What a MAC frame carries, resolved through its opaque tag. Travels
/// inside [`Ev::RxEnd`] to whichever shard needs to decode it.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// One application packet relayed hop-by-hop (sensor / 802.11 models).
    SensorData(AppPacket),
    /// A BCP handshake message routed over the low radio.
    Control {
        /// The message.
        msg: HandshakeMsg,
        /// Final destination of the (possibly multi-hop) control message.
        dst: NodeId,
    },
    /// A BCP burst frame over the high radio.
    Burst {
        /// The burst this frame belongs to.
        burst: BurstId,
        /// Frame index within the burst.
        index: u32,
        /// Total frames in the burst.
        count: u32,
        /// The packets packed into this frame, shared so the per-shard
        /// `RxEnd` fan-out of a broadcast clones a pointer, not the burst.
        packets: Arc<Vec<AppPacket>>,
    },
}

/// Shard-local simulator events.
#[derive(Debug, Clone, PartialEq)]
pub enum Ev {
    /// A sender's application produced (or is due to produce) a packet.
    AppArrival {
        /// The producing node.
        node: NodeId,
    },
    /// A MAC timer fired.
    MacTimer {
        /// The node whose MAC armed it.
        node: NodeId,
        /// Which radio's MAC.
        class: Class,
        /// Which of the MAC's timers.
        kind: MacTimer,
    },
    /// A transmission's airtime elapsed (fires at the sender).
    TxEnd {
        /// The transmission that ended.
        tx: TxId,
    },
    /// A transmission became audible at this shard's in-range nodes, one
    /// link latency after the sender keyed up. The handler walks the
    /// shard's slice of the sender's neighbour list.
    RxBegin {
        /// The transmission.
        tx: TxId,
        /// The transmitting node.
        sender: NodeId,
        /// The radio class.
        class: Class,
        /// What kind of frame keyed up. LPL receivers may lock on
        /// mid-air only during a *data* frame's wake-up preamble; ACKs
        /// are never stretched, so joining one mid-air is always garbage.
        kind: bcp_mac::types::FrameKind,
    },
    /// A transmission stopped at this shard's in-range nodes, one link
    /// latency after the sender's airtime ended. Carries everything a
    /// receiver needs to decode: the frame, whether the sender's battery
    /// died mid-air, and the payload when someone here may consume it.
    RxEnd {
        /// The transmission.
        tx: TxId,
        /// The transmitting node.
        sender: NodeId,
        /// The radio class.
        class: Class,
        /// The frame on the air.
        frame: MacFrame,
        /// The sender died mid-air: every receiver hears garbage.
        sender_died: bool,
        /// The decoded payload, when a node of this shard may need it.
        payload: Option<Payload>,
    },
    /// A high radio finished powering up.
    RadioWakeDone {
        /// The node whose radio woke.
        node: NodeId,
    },
    /// BCP sender's wake-up-ack timeout.
    BcpAckTimer {
        /// The handshake initiator.
        node: NodeId,
        /// The handshake.
        burst: BurstId,
    },
    /// BCP receiver's data timeout.
    BcpDataTimer {
        /// The receiving node.
        node: NodeId,
        /// The handshake.
        burst: BurstId,
    },
    /// Idle-guard: consider powering the high radio down.
    HighIdleOff {
        /// The node to check.
        node: NodeId,
    },
    /// Traffic cutoff reached: flush this node's BCP buffers.
    Flush {
        /// The node to flush.
        node: NodeId,
    },
    /// Projected battery-depletion instant: re-sync the node's supply and
    /// kill the node if it is indeed dry.
    PowerCheck {
        /// The node whose supply is due.
        node: NodeId,
    },
    /// LPL channel sample: the low radio wakes (if dozing), sniffs the
    /// carrier, and re-arms the next sample one wake interval out. Sleep
    /// timers are strictly node-local — they never cross a shard boundary
    /// and therefore never constrain the conservative lookahead.
    WakeSample {
        /// The duty-cycled node.
        node: NodeId,
    },
    /// End of an LPL channel sample (or of a busy period): the low radio
    /// dozes again if it is idle and the MAC owes nothing.
    Sleep {
        /// The duty-cycled node.
        node: NodeId,
    },
}

fn timer_rank(kind: MacTimer) -> u64 {
    match kind {
        MacTimer::Difs => 0,
        MacTimer::Backoff => 1,
        MacTimer::AckTimeout => 2,
        MacTimer::SifsAck => 3,
    }
}

impl Keyed for Ev {
    fn ord(&self) -> u128 {
        match *self {
            Ev::AppArrival { node } => pack_ord(1, node.0, 0),
            Ev::MacTimer { node, class, kind } => {
                pack_ord(2, node.0, ((class.index() as u64) << 8) | timer_rank(kind))
            }
            Ev::TxEnd { tx } => pack_ord(3, tx.sender().0, tx.0),
            // The per-shard halves of one broadcast share a key on
            // purpose: they touch disjoint receivers and commute.
            Ev::RxBegin { tx, .. } => pack_ord(4, tx.sender().0, tx.0),
            Ev::RxEnd { tx, .. } => pack_ord(5, tx.sender().0, tx.0),
            Ev::RadioWakeDone { node } => pack_ord(6, node.0, 0),
            Ev::BcpAckTimer { node, burst } => pack_ord(7, node.0, burst.0),
            Ev::BcpDataTimer { node, burst } => pack_ord(8, node.0, burst.0),
            Ev::HighIdleOff { node } => pack_ord(9, node.0, 0),
            Ev::Flush { node } => pack_ord(10, node.0, 0),
            Ev::PowerCheck { node } => pack_ord(11, node.0, 0),
            Ev::WakeSample { node } => pack_ord(12, node.0, 0),
            Ev::Sleep { node } => pack_ord(13, node.0, 0),
        }
    }
}

/// Whole-world events, executed serially by the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalEv {
    /// A node's battery emptied at `at`: survivors repair routes around
    /// the corpse. Delivered one link latency after the death so the
    /// repair never lands inside a conservative window.
    NodeDied {
        /// The dead node.
        node: NodeId,
        /// The instant the battery emptied (the death the metrics record).
        at: SimTime,
    },
    /// Periodic residual-energy route refresh (energy-aware routing).
    RouteRefresh,
}

impl Keyed for GlobalEv {
    fn ord(&self) -> u128 {
        match *self {
            GlobalEv::NodeDied { node, .. } => pack_ord(100, node.0, 0),
            GlobalEv::RouteRefresh => pack_ord(101, 0, 0),
        }
    }
}

bcp_sim::persist!(enum Class [Low, High]);

bcp_sim::persist!(TxId(u64));

impl Persist for Payload {
    type Ctx = ();
    fn save(&self, e: &mut Enc) {
        match self {
            Payload::SensorData(pkt) => {
                e.u8(0);
                e.put(pkt);
            }
            Payload::Control { msg, dst } => {
                e.u8(1);
                e.put(msg);
                e.put(dst);
            }
            Payload::Burst {
                burst,
                index,
                count,
                packets,
            } => {
                e.u8(2);
                e.put(burst);
                e.put(index);
                e.put(count);
                e.put(&**packets);
            }
        }
    }
    fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
        Ok(match d.u8()? {
            0 => Payload::SensorData(d.get()?),
            1 => Payload::Control {
                msg: d.get()?,
                dst: d.get()?,
            },
            2 => Payload::Burst {
                burst: d.get()?,
                index: d.get()?,
                count: d.get()?,
                packets: Arc::new(d.get()?),
            },
            b => return Err(bad(format!("invalid payload tag {b}"))),
        })
    }
}

/// An event is its tag (its position in the enum) and its fields.
impl Persist for Ev {
    type Ctx = ();
    fn save(&self, e: &mut Enc) {
        let tag = match self {
            Ev::AppArrival { .. } => 0,
            Ev::MacTimer { .. } => 1,
            Ev::TxEnd { .. } => 2,
            Ev::RxBegin { .. } => 3,
            Ev::RxEnd { .. } => 4,
            Ev::RadioWakeDone { .. } => 5,
            Ev::BcpAckTimer { .. } => 6,
            Ev::BcpDataTimer { .. } => 7,
            Ev::HighIdleOff { .. } => 8,
            Ev::Flush { .. } => 9,
            Ev::PowerCheck { .. } => 10,
            Ev::WakeSample { .. } => 11,
            Ev::Sleep { .. } => 12,
        };
        e.u8(tag);
        match self {
            Ev::AppArrival { node }
            | Ev::RadioWakeDone { node }
            | Ev::HighIdleOff { node }
            | Ev::Flush { node }
            | Ev::PowerCheck { node }
            | Ev::WakeSample { node }
            | Ev::Sleep { node } => e.put(node),
            Ev::MacTimer { node, class, kind } => {
                e.put(node);
                e.put(class);
                e.put(kind);
            }
            Ev::TxEnd { tx } => e.put(tx),
            Ev::RxBegin {
                tx,
                sender,
                class,
                kind,
            } => {
                e.put(tx);
                e.put(sender);
                e.put(class);
                e.put(kind);
            }
            Ev::RxEnd {
                tx,
                sender,
                class,
                frame,
                sender_died,
                payload,
            } => {
                e.put(tx);
                e.put(sender);
                e.put(class);
                e.put(frame);
                e.boolean(*sender_died);
                e.put(payload);
            }
            Ev::BcpAckTimer { node, burst } | Ev::BcpDataTimer { node, burst } => {
                e.put(node);
                e.put(burst);
            }
        }
    }
    fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
        Ok(match d.u8()? {
            0 => Ev::AppArrival { node: d.get()? },
            1 => Ev::MacTimer {
                node: d.get()?,
                class: d.get()?,
                kind: d.get()?,
            },
            2 => Ev::TxEnd { tx: d.get()? },
            3 => Ev::RxBegin {
                tx: d.get()?,
                sender: d.get()?,
                class: d.get()?,
                kind: d.get()?,
            },
            4 => Ev::RxEnd {
                tx: d.get()?,
                sender: d.get()?,
                class: d.get()?,
                frame: d.get()?,
                sender_died: d.boolean()?,
                payload: d.get()?,
            },
            5 => Ev::RadioWakeDone { node: d.get()? },
            6 => Ev::BcpAckTimer {
                node: d.get()?,
                burst: d.get()?,
            },
            7 => Ev::BcpDataTimer {
                node: d.get()?,
                burst: d.get()?,
            },
            8 => Ev::HighIdleOff { node: d.get()? },
            9 => Ev::Flush { node: d.get()? },
            10 => Ev::PowerCheck { node: d.get()? },
            11 => Ev::WakeSample { node: d.get()? },
            12 => Ev::Sleep { node: d.get()? },
            b => return Err(bad(format!("invalid event tag {b}"))),
        })
    }
}

impl Persist for GlobalEv {
    type Ctx = ();
    fn save(&self, e: &mut Enc) {
        match self {
            GlobalEv::NodeDied { node, at } => {
                e.u8(0);
                e.put(node);
                e.put(at);
            }
            GlobalEv::RouteRefresh => e.u8(1),
        }
    }
    fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
        Ok(match d.u8()? {
            0 => GlobalEv::NodeDied {
                node: d.get()?,
                at: d.get()?,
            },
            1 => GlobalEv::RouteRefresh,
            b => return Err(bad(format!("invalid global event tag {b}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_ids_fold_sender_and_sequence() {
        let a = TxId::new(NodeId(7), 0);
        let b = TxId::new(NodeId(7), 1);
        let c = TxId::new(NodeId(8), 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(b.sender(), NodeId(7));
        assert_eq!(c.sender(), NodeId(8));
    }

    #[test]
    fn ords_separate_event_kinds_and_entities() {
        let arrival = Ev::AppArrival { node: NodeId(3) };
        let timer = Ev::MacTimer {
            node: NodeId(3),
            class: Class::Low,
            kind: MacTimer::Difs,
        };
        let timer_hi = Ev::MacTimer {
            node: NodeId(3),
            class: Class::High,
            kind: MacTimer::Difs,
        };
        assert_ne!(arrival.ord(), timer.ord());
        assert_ne!(timer.ord(), timer_hi.ord());
        assert_ne!(
            Ev::PowerCheck { node: NodeId(1) }.ord(),
            Ev::PowerCheck { node: NodeId(2) }.ord()
        );
        // The LPL timers are distinct from each other and from PowerCheck.
        let wake = Ev::WakeSample { node: NodeId(1) };
        let sleep = Ev::Sleep { node: NodeId(1) };
        assert_ne!(wake.ord(), sleep.ord());
        assert_ne!(wake.ord(), Ev::PowerCheck { node: NodeId(1) }.ord());
        assert_ne!(
            Ev::Sleep { node: NodeId(1) }.ord(),
            Ev::Sleep { node: NodeId(2) }.ord()
        );
    }

    #[test]
    fn rx_phases_of_one_tx_are_ordered() {
        let tx = TxId::new(NodeId(5), 9);
        let begin = Ev::RxBegin {
            tx,
            sender: NodeId(5),
            class: Class::Low,
            kind: bcp_mac::types::FrameKind::Data,
        };
        let end = Ev::RxEnd {
            tx,
            sender: NodeId(5),
            class: Class::Low,
            frame: bcp_mac::types::MacFrame {
                id: bcp_mac::types::FrameId(0),
                src: bcp_mac::types::MacAddr(1),
                dst: bcp_mac::types::MacAddr(2),
                payload_bytes: 8,
                kind: bcp_mac::types::FrameKind::Data,
                seq: 0,
                tag: 0,
            },
            sender_died: false,
            payload: None,
        };
        assert!(begin.ord() < end.ord());
    }

    #[test]
    fn globals_rank_after_nothing_by_time_only() {
        let died = GlobalEv::NodeDied {
            node: NodeId(1),
            at: SimTime::ZERO,
        };
        assert_ne!(died.ord(), GlobalEv::RouteRefresh.ord());
    }
}
