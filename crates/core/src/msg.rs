//! BCP's data unit and control messages.
//!
//! The protocol buffers *application packets* (the 32 B sensor readings of
//! the paper) and moves them in bulk. Packets are modelled structurally —
//! identity, origin, size and birth time — because the evaluation needs
//! goodput, energy per bit and per-packet delay, never payload contents.

use bcp_net::addr::NodeId;
use bcp_sim::persist::{Dec, Enc, Persist, Res};
use bcp_sim::time::SimTime;
use core::fmt;

/// Globally unique identity of one application packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

/// One buffered application packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppPacket {
    /// Unique id (origin-scoped counter folded with the origin).
    pub id: PacketId,
    /// The node that generated the packet.
    pub origin: NodeId,
    /// Final destination (the sink in the paper's workloads).
    pub dest: NodeId,
    /// Generation time — delay is measured from here (Section 4: "the
    /// difference in time a packet is generated at the sender and received
    /// by the sink, including buffering delays").
    pub created: SimTime,
    /// Payload size in bytes (32 in the paper).
    pub bytes: usize,
}

impl AppPacket {
    /// Creates a packet; `seq` must be unique at `origin`.
    pub fn new(origin: NodeId, dest: NodeId, seq: u64, created: SimTime, bytes: usize) -> Self {
        AppPacket {
            id: PacketId(((origin.0 as u64) << 40) | (seq & 0xff_ffff_ffff)),
            origin,
            dest,
            created,
            bytes,
        }
    }
}

/// Identity of one wake-up handshake / burst exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BurstId(pub u64);

impl BurstId {
    /// Builds a burst id unique across nodes: the initiating node's id is
    /// folded into the high bits.
    pub fn new(initiator: NodeId, counter: u64) -> Self {
        BurstId(((initiator.0 as u64) << 40) | (counter & 0xff_ffff_ffff))
    }

    /// The node that initiated the handshake.
    pub fn initiator(self) -> NodeId {
        NodeId((self.0 >> 40) as u32)
    }
}

impl fmt::Display for BurstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "burst[{}#{}]", self.initiator(), self.0 & 0xff_ffff_ffff)
    }
}

/// Control messages of the wake-up handshake (carried by the *low* radio).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeMsg {
    /// "A wake-up handshake is initiated by sending a wake-up message
    /// through the low-power radio. The wake-up message ... contains the
    /// burst size."
    WakeUp {
        /// Handshake identity.
        burst: BurstId,
        /// Buffered bytes the sender wants to move.
        burst_bytes: usize,
    },
    /// "On reception of a wake-up message, the receiver wakes up its
    /// high-power radio and sends back a wake-up ack specifying the amount
    /// of data the sender can transmit."
    WakeUpAck {
        /// Handshake identity (echoed).
        burst: BurstId,
        /// Bytes the receiver permits (≤ requested when short on buffer).
        granted_bytes: usize,
    },
}

impl HandshakeMsg {
    /// On-air payload size of this control message over the low radio, in
    /// bytes (id 8 + burst id 8 + length 4).
    pub const WIRE_BYTES: usize = 20;

    /// The handshake this message belongs to.
    pub fn burst(&self) -> BurstId {
        match self {
            HandshakeMsg::WakeUp { burst, .. } | HandshakeMsg::WakeUpAck { burst, .. } => *burst,
        }
    }
}

bcp_sim::persist!(BurstId(u64));
bcp_sim::persist!(PacketId(u64));

bcp_sim::persist!(AppPacket {
    id,
    origin,
    dest,
    created,
    bytes
});

impl Persist for HandshakeMsg {
    type Ctx = ();
    fn save(&self, e: &mut Enc) {
        let (tag, burst, bytes) = match *self {
            HandshakeMsg::WakeUp { burst, burst_bytes } => (0, burst, burst_bytes),
            HandshakeMsg::WakeUpAck {
                burst,
                granted_bytes,
            } => (1, burst, granted_bytes),
        };
        e.u8(tag);
        e.put(&burst);
        e.put(&bytes);
    }
    fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
        let ack = d.tag(&[false, true], "handshake tag")?;
        let (burst, bytes) = (d.get()?, d.get()?);
        Ok(if ack {
            HandshakeMsg::WakeUpAck {
                burst,
                granted_bytes: bytes,
            }
        } else {
            HandshakeMsg::WakeUp {
                burst,
                burst_bytes: bytes,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_ids_unique_per_origin_seq() {
        let a = AppPacket::new(NodeId(1), NodeId(0), 0, SimTime::ZERO, 32);
        let b = AppPacket::new(NodeId(1), NodeId(0), 1, SimTime::ZERO, 32);
        let c = AppPacket::new(NodeId(2), NodeId(0), 0, SimTime::ZERO, 32);
        assert_ne!(a.id, b.id);
        assert_ne!(a.id, c.id);
    }

    #[test]
    fn burst_id_roundtrips_initiator() {
        let b = BurstId::new(NodeId(17), 12345);
        assert_eq!(b.initiator(), NodeId(17));
        assert_eq!(b.to_string(), "burst[n17#12345]");
    }

    #[test]
    fn handshake_burst_accessor() {
        let b = BurstId::new(NodeId(3), 9);
        let w = HandshakeMsg::WakeUp {
            burst: b,
            burst_bytes: 16_000,
        };
        let a = HandshakeMsg::WakeUpAck {
            burst: b,
            granted_bytes: 8_000,
        };
        assert_eq!(w.burst(), b);
        assert_eq!(a.burst(), b);
    }
}
