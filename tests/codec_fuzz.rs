//! Fuzz-style property tests for the DAP wire codec: `decode` is total
//! over arbitrary, mutated and truncated byte strings — it returns a
//! frame or a structured [`DecodeError`], and never panics. Receivers
//! parse attacker-controlled bytes, so totality is a security property.
//!
//! Runs on `dap-testkit` (≥ 256 cases per property, shrinking, replay
//! with `DAP_TESTKIT_SEED=<seed> cargo test --test codec_fuzz`).

use crowdsense_dap::crypto::{Key, Mac80};
use crowdsense_dap::dap::codec::{
    decode, decode_datagram, decode_tagged, encode, encode_tagged, peek_sender, FrameAssembler,
    TaggedFrame, MAX_FRAME_LEN,
};
use crowdsense_dap::dap::wire::{Announce, DapMessage, Reveal};
use crowdsense_dap::dap::{DapBootstrap, DapParams, DapSender, SenderId};
use crowdsense_dap::net::session::{SessionConfig, SessionTable};
use crowdsense_dap::simnet::{SimDuration, SimRng, SimTime};
use dap_testkit::{check_with, Config, Gen};

fn fuzz_config() -> Config {
    Config {
        cases: 256,
        ..Config::default()
    }
}

/// A structurally valid frame drawn from the generator.
fn arbitrary_frame(g: &mut Gen) -> DapMessage {
    let index = g.u64_in(0..u64::from(u32::MAX) + 1);
    if g.any_bool() {
        let mac: [u8; 10] = g.byte_array();
        DapMessage::Announce(Announce {
            index,
            mac: Mac80::from_slice(&mac).unwrap(),
        })
    } else {
        let key: [u8; 10] = g.byte_array();
        DapMessage::Reveal(Reveal {
            index,
            key: Key::from_slice(&key).unwrap(),
            message: g.bytes(0..96),
        })
    }
}

/// Every encodable frame round-trips bit-exactly.
#[test]
fn encode_decode_roundtrips() {
    check_with(fuzz_config(), "codec_roundtrip", |g| {
        let frame = arbitrary_frame(g);
        let encoded = encode(&frame).expect("in-range frame encodes");
        assert_eq!(decode(&encoded).expect("own encoding decodes"), frame);
    });
}

/// Arbitrary bytes — pure noise — never panic the decoder.
#[test]
fn decode_is_total_on_noise() {
    check_with(fuzz_config(), "codec_total_on_noise", |g| {
        let noise = g.bytes(0..160);
        // Ok or Err are both fine; reaching this line at all is the
        // property (a panic would unwind out of the closure and fail).
        let _ = decode(&noise);
    });
}

/// Truncating a valid frame at any point yields a structured error or a
/// (shorter) valid frame — never a panic, and never the original frame.
#[test]
fn decode_is_total_on_truncations() {
    check_with(fuzz_config(), "codec_total_on_truncation", |g| {
        let frame = arbitrary_frame(g);
        let encoded = encode(&frame).unwrap();
        let cut = g.usize_in(0..encoded.len());
        if let Ok(other) = decode(&encoded[..cut]) {
            assert_ne!(other, frame, "truncation cannot round-trip");
        }
    });
}

/// Flipping any single bit of a valid frame never panics, and whatever
/// still decodes is not passed off as the original frame.
#[test]
fn decode_is_total_on_bit_flips() {
    check_with(fuzz_config(), "codec_total_on_bitflip", |g| {
        let frame = arbitrary_frame(g);
        let mut encoded = encode(&frame).unwrap();
        let byte = g.usize_in(0..encoded.len());
        let bit = g.u32_in(0..8);
        encoded[byte] ^= 1 << bit;
        if let Ok(mutated) = decode(&encoded) {
            assert_ne!(
                mutated, frame,
                "bit flip at {byte}:{bit} was silently absorbed"
            );
        }
    });
}

/// Stream reassembly: a frame split at *every* byte boundary — not a
/// sampled one — comes back whole from the assembler, with nothing
/// skipped and nothing left pending.
#[test]
fn assembler_recovers_frame_from_every_split_point() {
    check_with(fuzz_config(), "assembler_every_split", |g| {
        let frame = arbitrary_frame(g);
        let encoded = encode(&frame).unwrap();
        for cut in 0..=encoded.len() {
            let mut asm = FrameAssembler::new();
            asm.push(&encoded[..cut]);
            if cut < encoded.len() {
                // A strict prefix must never yield a frame (the codec
                // has no frame that is a prefix of another).
                assert_eq!(asm.next_frame(), None, "prefix of len {cut} decoded");
                asm.push(&encoded[cut..]);
            }
            assert_eq!(asm.next_frame(), Some(frame.clone()), "split at {cut} lost");
            assert_eq!(asm.next_frame(), None);
            assert_eq!(asm.skipped_bytes(), 0, "split at {cut} skipped bytes");
            assert_eq!(asm.pending_bytes(), 0, "split at {cut} left residue");
        }
    });
}

/// Stream reassembly: many concatenated frames, delivered in chunks cut
/// at arbitrary points, come back complete and in order.
#[test]
fn assembler_recovers_chunked_streams() {
    check_with(fuzz_config(), "assembler_chunked_stream", |g| {
        let frames: Vec<DapMessage> = (0..g.usize_in(1..8)).map(|_| arbitrary_frame(g)).collect();
        let mut stream = Vec::new();
        for frame in &frames {
            stream.extend_from_slice(&encode(frame).unwrap());
        }
        let mut asm = FrameAssembler::new();
        let mut recovered = Vec::new();
        let mut offset = 0;
        while offset < stream.len() {
            let chunk = g.usize_in(1..stream.len() - offset + 1);
            asm.push(&stream[offset..offset + chunk]);
            offset += chunk;
            while let Some(frame) = asm.next_frame() {
                recovered.push(frame);
            }
        }
        assert_eq!(recovered, frames, "stream reassembly lost or reordered");
        assert_eq!(asm.skipped_bytes(), 0);
        assert_eq!(asm.pending_bytes(), 0);
    });
}

/// Stream reassembly: garbage between frames is skipped byte-for-byte
/// and the assembler resynchronises on the next real frame — it neither
/// panics, loops forever, nor mis-frames what follows.
#[test]
fn assembler_resynchronises_after_garbage() {
    check_with(fuzz_config(), "assembler_resync", |g| {
        let before = encode(&arbitrary_frame(g)).unwrap();
        let after_frame = arbitrary_frame(g);
        let after = encode(&after_frame).unwrap();
        // Garbage that cannot alias a frame tag (0x01–0x04 could start a
        // phantom frame — tagged shapes included — that swallows the
        // real one: a different, valid outcome this property does not
        // model).
        let garbage: Vec<u8> = g
            .bytes(1..32)
            .into_iter()
            .map(|b| if (0x01..=0x04).contains(&b) { 0xff } else { b })
            .collect();
        let mut stream = before.clone();
        stream.extend_from_slice(&garbage);
        stream.extend_from_slice(&after);

        let mut asm = FrameAssembler::new();
        asm.push(&stream);
        let mut recovered = Vec::new();
        while let Some(frame) = asm.next_frame() {
            recovered.push(frame);
        }
        assert_eq!(recovered.len(), 2, "resync dropped a frame");
        assert_eq!(recovered[1], after_frame, "resync mis-framed the tail");
        assert_eq!(
            asm.skipped_bytes(),
            garbage.len() as u64,
            "skipped-byte accounting is off"
        );
        assert_eq!(asm.pending_bytes(), 0);
    });
}

/// A wire-range sender id (the tagged shapes carry a `u32` field).
fn arbitrary_sender(g: &mut Gen) -> SenderId {
    SenderId(g.u64_in(0..u64::from(u32::MAX) + 1))
}

/// Every encodable tagged frame round-trips bit-exactly, attribution
/// included, and `peek_sender` reads the id without decoding.
#[test]
fn tagged_encode_decode_roundtrips() {
    check_with(fuzz_config(), "tagged_codec_roundtrip", |g| {
        let sender = arbitrary_sender(g);
        let message = arbitrary_frame(g);
        let encoded = encode_tagged(sender, &message).expect("in-range frame encodes");
        assert_eq!(
            decode_tagged(&encoded).expect("own encoding decodes"),
            TaggedFrame { sender, message },
        );
        assert_eq!(peek_sender(&encoded), Some(sender));
    });
}

/// The tagged decoder is as total as the legacy one: pure noise and
/// truncations of valid tagged frames never panic, and a truncation
/// never round-trips.
#[test]
fn tagged_decode_is_total_on_noise_and_truncations() {
    check_with(fuzz_config(), "tagged_codec_total", |g| {
        let _ = decode_tagged(&g.bytes(0..160));
        let _ = peek_sender(&g.bytes(0..8));

        let sender = arbitrary_sender(g);
        let message = arbitrary_frame(g);
        let encoded = encode_tagged(sender, &message).unwrap();
        let cut = g.usize_in(0..encoded.len());
        if let Ok(other) = decode_tagged(&encoded[..cut]) {
            assert_ne!(other.message, message, "truncation cannot round-trip");
        }
    });
}

/// A chunk-split stream mixing tagged and legacy frames reassembles
/// completely with per-frame attribution intact (legacy shapes report
/// [`SenderId::UNTAGGED`]).
#[test]
fn assembler_preserves_sender_attribution() {
    check_with(fuzz_config(), "assembler_tagged_attribution", |g| {
        let frames: Vec<TaggedFrame> = (0..g.usize_in(1..8))
            .map(|_| {
                let sender = if g.any_bool() {
                    arbitrary_sender(g)
                } else {
                    SenderId::UNTAGGED
                };
                TaggedFrame {
                    sender,
                    message: arbitrary_frame(g),
                }
            })
            .collect();
        let mut stream = Vec::new();
        for frame in &frames {
            // UNTAGGED draws the legacy encoding: the wire carries both
            // shapes side by side during a fleet rollout.
            let bytes = if frame.sender == SenderId::UNTAGGED {
                encode(&frame.message).unwrap()
            } else {
                encode_tagged(frame.sender, &frame.message).unwrap()
            };
            stream.extend_from_slice(&bytes);
        }
        let mut asm = FrameAssembler::new();
        let mut recovered = Vec::new();
        let mut offset = 0;
        while offset < stream.len() {
            let chunk = g.usize_in(1..stream.len() - offset + 1);
            asm.push(&stream[offset..offset + chunk]);
            offset += chunk;
            while let Some(frame) = asm.next_tagged_frame() {
                recovered.push(frame);
            }
        }
        assert_eq!(recovered, frames, "attribution lost or reordered");
        assert_eq!(asm.skipped_bytes(), 0);
        assert_eq!(asm.pending_bytes(), 0);
    });
}

/// The wire tag routes but never authenticates: genuine bytes from
/// sender A, re-tagged (spliced) to claim sender B, must never verify
/// under B's session — while the untampered copy still authenticates
/// under A's. The sessions' chains differ, so A's revealed key can
/// never anchor to B's commitment.
#[test]
fn cross_sender_splice_never_authenticates() {
    check_with(fuzz_config(), "cross_sender_splice_rejected", |g| {
        let params = DapParams::new(SimDuration(100), 1, 0, 4);
        let seed = g.any_u64();
        let directory = move |id: SenderId| -> Option<DapBootstrap> {
            // Two provisioned senders with distinct chains.
            (id.0 == 1 || id.0 == 2)
                .then(|| DapSender::new(&(seed ^ id.0).to_be_bytes(), 8, params).bootstrap())
        };
        let mut alice = DapSender::new(&(seed ^ 1).to_be_bytes(), 8, params);
        let mut table = SessionTable::new(SessionConfig::default(), g.any_u64());
        let mut rng = SimRng::new(g.any_u64());

        // Alice walks her chain to a random interval.
        let interval = g.u64_in(1..5);
        let mut announce = None;
        for i in 1..=interval {
            announce = Some(alice.announce(i, b"genuine reading").expect("chain fits"));
        }
        let announce = announce.expect("at least one interval");
        let reveal = alice.reveal(interval).expect("announced");
        let at = SimTime((interval - 1) * 100 + 10);

        // The attacker copies Alice's genuine bytes and rewrites only
        // the sender field — the splice. Both copies hit the receiver.
        for (claim, frame) in [
            (SenderId(1), DapMessage::Announce(announce)),
            (SenderId(2), DapMessage::Announce(announce)),
        ] {
            let bytes = encode_tagged(claim, &frame).unwrap();
            let tagged = decode_tagged(&bytes).unwrap();
            let session = table.lookup(tagged.sender, directory).expect("provisioned");
            if let DapMessage::Announce(a) = &tagged.message {
                session.receiver.on_announce(a, at, &mut rng);
            }
        }
        let reveal_at = SimTime(at.ticks() + 100);
        let mut outcomes = Vec::new();
        for claim in [SenderId(1), SenderId(2)] {
            let bytes = encode_tagged(claim, &DapMessage::Reveal(reveal.clone())).unwrap();
            let tagged = decode_tagged(&bytes).unwrap();
            let session = table.lookup(tagged.sender, directory).expect("provisioned");
            if let DapMessage::Reveal(r) = &tagged.message {
                outcomes.push(session.receiver.on_reveal(r, reveal_at).is_authenticated());
            }
        }
        assert_eq!(
            outcomes,
            vec![true, false],
            "genuine copy must authenticate as Alice and never as Bob"
        );
    });
}

/// Splicing, duplicating and extending frames never panics the decoder.
#[test]
fn decode_is_total_on_splices() {
    check_with(fuzz_config(), "codec_total_on_splice", |g| {
        let a = encode(&arbitrary_frame(g)).unwrap();
        let b = encode(&arbitrary_frame(g)).unwrap();
        let cut_a = g.usize_in(0..a.len() + 1);
        let cut_b = g.usize_in(0..b.len() + 1);
        let mut spliced = a[..cut_a].to_vec();
        spliced.extend_from_slice(&b[cut_b..]);
        let _ = decode(&spliced);
        // Concatenation of two whole frames must be rejected (trailing
        // bytes), not mis-parsed as one frame.
        let mut both = a.clone();
        both.extend_from_slice(&b);
        assert!(decode(&both).is_err(), "two frames decoded as one");
    });
}

/// One datagram's worth of hostile bytes: whole frames of both shapes
/// packed back to back, raw garbage (frame tags 0x01–0x04 included, so
/// phantom frames can start mid-garbage), truncated frames, and now and
/// then a junk run longer than [`MAX_FRAME_LEN`].
fn arbitrary_datagram(g: &mut Gen) -> Vec<u8> {
    let mut bytes = Vec::new();
    for _ in 0..g.usize_in(0..8) {
        let frame = arbitrary_frame(g);
        let encoded = if g.any_bool() {
            encode_tagged(arbitrary_sender(g), &frame).unwrap()
        } else {
            encode(&frame).unwrap()
        };
        match g.u32_in(0..4) {
            0 | 1 => bytes.extend_from_slice(&encoded),
            2 => bytes.extend_from_slice(&g.bytes(1..24)),
            _ => {
                let cut = g.usize_in(0..encoded.len());
                bytes.extend_from_slice(&encoded[..cut]);
            }
        }
    }
    if g.u32_in(0..32) == 0 {
        // 0x00/0xff runs are pure skip; 0x02/0x04 runs parse as chains
        // of phantom reveals that end in a truncated tail.
        let fill = *g.pick(&[0x00u8, 0x02, 0x04, 0xff]);
        let len = MAX_FRAME_LEN + g.usize_in(1..64);
        bytes.extend(std::iter::repeat_n(fill, len));
    }
    bytes
}

/// The pool's in-place datagram decoder applies exactly the assembler's
/// resync rules: over arbitrary hostile bytes it yields the frames a
/// fresh [`FrameAssembler`] fed the whole datagram yields, in the same
/// order, and its junk count equals the assembler's skipped plus
/// pending bytes. It appends, so a reused output keeps earlier frames.
#[test]
fn datagram_decode_matches_a_fresh_assembler() {
    check_with(fuzz_config(), "datagram_decode_matches_assembler", |g| {
        let bytes = arbitrary_datagram(g);
        let mut asm = FrameAssembler::new();
        asm.push(&bytes);
        let mut expected = Vec::new();
        while let Some(frame) = asm.next_tagged_frame() {
            expected.push(frame);
        }
        let expected_junk = asm.skipped_bytes() + asm.pending_bytes() as u64;

        let earlier = TaggedFrame {
            sender: SenderId(7),
            message: arbitrary_frame(g),
        };
        let mut out = vec![earlier.clone()];
        let junk = decode_datagram(&bytes, &mut out);
        assert_eq!(out[0], earlier, "decode_datagram overwrote earlier output");
        assert_eq!(
            &out[1..],
            &expected[..],
            "frames differ from the assembler's"
        );
        assert_eq!(junk, expected_junk, "junk differs from skipped + pending");
    });
}
