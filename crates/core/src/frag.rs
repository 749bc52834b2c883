//! Packing sensor packets into high-radio frames, and reassembly tracking.
//!
//! Section 3: "The allowed amount of data is assembled into packets for the
//! high-power radio"; at the receiver, "data messages are received as an
//! assembly of multiple packets from the MAC layer of the high-power radio
//! and are fragmented into the original packets by BCP."

use crate::msg::{AppPacket, BurstId};
use bcp_sim::persist::{bad, Dec, Enc, Persist, Res};

/// Greedily packs packets (FIFO, order-preserving) into frames of at most
/// `frame_cap` payload bytes.
///
/// # Panics
///
/// Panics if any single packet exceeds `frame_cap` (BCP never splits an
/// application packet across high-radio frames) or if `frame_cap == 0`.
pub fn pack_frames(packets: Vec<AppPacket>, frame_cap: usize) -> Vec<Vec<AppPacket>> {
    assert!(frame_cap > 0, "frame capacity must be positive");
    let mut frames: Vec<Vec<AppPacket>> = Vec::new();
    let mut current: Vec<AppPacket> = Vec::new();
    let mut used = 0usize;
    for pkt in packets {
        assert!(
            pkt.bytes <= frame_cap,
            "packet of {} B exceeds frame capacity {frame_cap} B",
            pkt.bytes
        );
        if used + pkt.bytes > frame_cap {
            frames.push(core::mem::take(&mut current));
            used = 0;
        }
        used += pkt.bytes;
        current.push(pkt);
    }
    if !current.is_empty() {
        frames.push(current);
    }
    frames
}

/// Total payload bytes of a packet slice.
pub fn total_bytes(packets: &[AppPacket]) -> usize {
    packets.iter().map(|p| p.bytes).sum()
}

/// Receiver-side progress of one burst's reassembly.
///
/// Tracks which frame indices arrived so lost frames (MAC gave up) are
/// detected and the radio can be closed as soon as everything advertised
/// has been seen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reassembly {
    burst: BurstId,
    expected_frames: u32,
    seen: Vec<bool>,
    packets_received: u64,
    bytes_received: usize,
}

impl Reassembly {
    /// Starts tracking a burst advertised as `expected_frames` frames.
    ///
    /// # Panics
    ///
    /// Panics if `expected_frames == 0`.
    pub fn new(burst: BurstId, expected_frames: u32) -> Self {
        assert!(expected_frames > 0, "bursts carry at least one frame");
        Reassembly {
            burst,
            expected_frames,
            seen: vec![false; expected_frames as usize],
            packets_received: 0,
            bytes_received: 0,
        }
    }

    /// The burst being reassembled.
    pub fn burst(&self) -> BurstId {
        self.burst
    }

    /// Records frame `index` carrying `packets`; returns `false` for
    /// duplicates (already seen) and `true` for fresh frames.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of the advertised range.
    pub fn record_frame(&mut self, index: u32, packets: &[AppPacket]) -> bool {
        assert!(
            index < self.expected_frames,
            "frame index {index} outside advertised count {}",
            self.expected_frames
        );
        if self.seen[index as usize] {
            return false;
        }
        self.seen[index as usize] = true;
        self.packets_received += packets.len() as u64;
        self.bytes_received += total_bytes(packets);
        true
    }

    /// `true` once every advertised frame has arrived — the receiver's
    /// "turns off its high-power radio when it receives the total number of
    /// packets advertised".
    pub fn is_complete(&self) -> bool {
        self.seen.iter().all(|&s| s)
    }

    /// Frames received so far.
    pub fn frames_received(&self) -> u32 {
        self.seen.iter().filter(|&&s| s).count() as u32
    }

    /// Frames still missing.
    pub fn frames_missing(&self) -> u32 {
        self.expected_frames - self.frames_received()
    }

    /// Application packets received so far.
    pub fn packets_received(&self) -> u64 {
        self.packets_received
    }

    /// Payload bytes received so far.
    pub fn bytes_received(&self) -> usize {
        self.bytes_received
    }
}

/// The progress registers; the burst id is the enclosing session's, so
/// `Ctx` supplies it.
impl Persist for Reassembly {
    type Ctx = BurstId;
    fn save(&self, e: &mut Enc) {
        e.put(&self.seen);
        e.u64(self.packets_received);
        e.put(&self.bytes_received);
    }
    fn load(d: &mut Dec<'_>, burst: BurstId) -> Res<Self> {
        let seen: Vec<bool> = d.get()?;
        let expected_frames = u32::try_from(seen.len())
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| bad("a burst carries at least one frame"))?;
        Ok(Reassembly {
            burst,
            expected_frames,
            seen,
            packets_received: d.u64()?,
            bytes_received: d.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_net::addr::NodeId;
    use bcp_sim::time::SimTime;

    fn pkt(seq: u64, bytes: usize) -> AppPacket {
        AppPacket::new(NodeId(1), NodeId(0), seq, SimTime::ZERO, bytes)
    }

    #[test]
    fn packs_exactly_32_per_1024_frame() {
        // The paper's sizes: 32 packets of 32 B fill one 1024 B frame.
        let packets: Vec<AppPacket> = (0..64).map(|i| pkt(i, 32)).collect();
        let frames = pack_frames(packets, 1024);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].len(), 32);
        assert_eq!(frames[1].len(), 32);
    }

    #[test]
    fn tail_frame_is_partial() {
        let packets: Vec<AppPacket> = (0..33).map(|i| pkt(i, 32)).collect();
        let frames = pack_frames(packets, 1024);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].len(), 1, "one packet spills into a new frame");
    }

    #[test]
    fn order_is_preserved_across_frames() {
        let packets: Vec<AppPacket> = (0..100).map(|i| pkt(i, 32)).collect();
        let frames = pack_frames(packets.clone(), 1024);
        let flat: Vec<AppPacket> = frames.into_iter().flatten().collect();
        assert_eq!(flat, packets, "pack/flatten is the identity");
    }

    #[test]
    fn mixed_sizes_never_overflow_cap() {
        let sizes = [100, 500, 300, 700, 50, 1024, 10, 10, 10];
        let packets: Vec<AppPacket> = sizes
            .iter()
            .enumerate()
            .map(|(i, &b)| pkt(i as u64, b))
            .collect();
        let frames = pack_frames(packets, 1024);
        for f in &frames {
            assert!(total_bytes(f) <= 1024);
            assert!(!f.is_empty());
        }
    }

    #[test]
    fn empty_input_no_frames() {
        assert!(pack_frames(Vec::new(), 1024).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds frame capacity")]
    fn oversize_packet_panics() {
        let _ = pack_frames(vec![pkt(0, 2048)], 1024);
    }

    #[test]
    fn reassembly_tracks_completion() {
        let b = BurstId::new(NodeId(1), 0);
        let mut r = Reassembly::new(b, 3);
        assert!(!r.is_complete());
        assert!(r.record_frame(0, &[pkt(0, 32), pkt(1, 32)]));
        assert!(r.record_frame(2, &[pkt(2, 32)]));
        assert_eq!(r.frames_missing(), 1);
        assert!(r.record_frame(1, &[pkt(3, 32)]));
        assert!(r.is_complete());
        assert_eq!(r.packets_received(), 4);
        assert_eq!(r.bytes_received(), 128);
    }

    #[test]
    fn duplicate_frames_detected() {
        let b = BurstId::new(NodeId(1), 0);
        let mut r = Reassembly::new(b, 2);
        assert!(r.record_frame(0, &[pkt(0, 32)]));
        assert!(!r.record_frame(0, &[pkt(0, 32)]), "duplicate");
        assert_eq!(r.packets_received(), 1, "duplicates not double counted");
    }

    #[test]
    #[should_panic(expected = "outside advertised count")]
    fn out_of_range_index_panics() {
        let mut r = Reassembly::new(BurstId::new(NodeId(1), 0), 2);
        r.record_frame(2, &[]);
    }
}
