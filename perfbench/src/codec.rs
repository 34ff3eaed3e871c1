//! The netd codec/framing layer, timed as a post-pass over a recorded
//! delivery stream: `WireCodec::encode` → `encode_frame` →
//! `FrameBuf::next_frame` → `from_bytes`, with round-trip equality.

use crate::report::median;
use dex_core::{dex_msg_class, DexMsg};
use dex_harness::nodes::DexWire;
use dex_harness::AnyUcMsg;
use dex_netd::frame::{class_byte, encode_frame, FrameBuf};
use dex_netd::WireCodec;
use dex_underlying::OracleMsg;
use std::hint::black_box;
use std::time::Instant;

/// What `dex-netd` children put on the wire for single-shot DEX.
pub type NetdMsg = DexMsg<u64, OracleMsg<u64>>;

/// Bytes handed to the frame buffer per simulated socket read.
const READ_CHUNK: usize = 64 * 1024;

/// Codec-layer measurements over one message stream (all zero when no
/// stream was measured).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CodecReport {
    /// Messages in the stream.
    pub msgs: u64,
    /// Median ns per message to encode and frame.
    pub encode_ns_per_msg: f64,
    /// Median ns per message to unframe and decode.
    pub decode_ns_per_msg: f64,
    /// Frame bytes per message, length prefix included.
    pub frame_bytes_per_msg: f64,
    /// Frames that failed to parse, decode, or round-trip equal.
    pub decode_failures: u64,
}

/// The netd form of a simulated message; `None` for traffic of the
/// randomized underlying stack, which `dex-netd` does not carry.
pub fn to_netd(msg: &DexWire) -> Option<NetdMsg> {
    Some(match msg {
        DexMsg::Proposal(v) => DexMsg::Proposal(*v),
        DexMsg::Idb(m) => DexMsg::Idb(m.clone()),
        DexMsg::Uc(AnyUcMsg::Oracle(m)) => DexMsg::Uc(m.clone()),
        DexMsg::Uc(AnyUcMsg::Mvc(_)) => return None,
        DexMsg::EchoBatch(e) => DexMsg::EchoBatch(e.clone()),
        DexMsg::EchoFlushTick => DexMsg::EchoFlushTick,
    })
}

fn encode_all(stream: &[(u32, NetdMsg)]) -> Vec<u8> {
    let mut wire = Vec::new();
    let mut payload = Vec::new();
    for (depth, msg) in stream {
        payload.clear();
        msg.encode(&mut payload);
        wire.extend_from_slice(&encode_frame(
            class_byte(dex_msg_class(msg)),
            *depth,
            &payload,
        ));
    }
    wire
}

/// Decodes a framed stream; `None` marks a frame that failed.
fn decode_all(wire: &[u8]) -> Vec<Option<(u32, NetdMsg)>> {
    let mut buf = FrameBuf::new();
    let mut out = Vec::new();
    for chunk in wire.chunks(READ_CHUNK) {
        buf.extend(chunk);
        loop {
            match buf.next_frame() {
                Ok(Some(frame)) => {
                    out.push(NetdMsg::from_bytes(&frame.payload).map(|m| (frame.depth, m)))
                }
                Ok(None) => break,
                Err(_) => {
                    out.push(None);
                    return out;
                }
            }
        }
    }
    out
}

/// Encodes and decodes `stream` `reps` times, timing each direction.
///
/// # Panics
///
/// Panics on an empty stream or `reps == 0`.
pub fn measure(stream: &[(u32, NetdMsg)], reps: usize) -> CodecReport {
    assert!(!stream.is_empty() && reps > 0);
    let per_msg = |ns: u128| ns as f64 / stream.len() as f64;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut wire = Vec::new();
    let mut decoded = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        wire = black_box(encode_all(black_box(stream)));
        enc.push(per_msg(t.elapsed().as_nanos()));
        let t = Instant::now();
        decoded = black_box(decode_all(black_box(&wire)));
        dec.push(per_msg(t.elapsed().as_nanos()));
    }
    let matched = decoded
        .iter()
        .zip(stream)
        .filter(|(d, s)| d.as_ref() == Some(s))
        .count();
    CodecReport {
        msgs: stream.len() as u64,
        encode_ns_per_msg: median(&enc),
        decode_ns_per_msg: median(&dec),
        frame_bytes_per_msg: wire.len() as f64 / stream.len() as f64,
        decode_failures: (stream.len().max(decoded.len()) - matched) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_broadcast::IdbMessage;
    use dex_types::ProcessId;

    fn stream() -> Vec<(u32, NetdMsg)> {
        vec![
            (1, DexMsg::Proposal(7)),
            (
                1,
                DexMsg::Idb(IdbMessage::Init {
                    key: ProcessId::new(3),
                    value: 7,
                }),
            ),
            (
                2,
                DexMsg::Idb(IdbMessage::Echo {
                    key: ProcessId::new(3),
                    value: 7,
                }),
            ),
            (3, DexMsg::Uc(OracleMsg::Propose(7))),
        ]
    }

    #[test]
    fn round_trip_has_no_failures() {
        let r = measure(&stream(), 2);
        assert_eq!((r.msgs, r.decode_failures), (4, 0));
        assert!(
            r.frame_bytes_per_msg > 9.0,
            "4-byte prefix + class + depth + payload"
        );
    }

    #[test]
    fn corrupt_frames_are_counted() {
        let mut wire = encode_all(&stream());
        wire[0] = 0; // zero length prefix: corrupt, stream abandoned
        let decoded = decode_all(&wire);
        assert_eq!(decoded, vec![None]);
    }
}
