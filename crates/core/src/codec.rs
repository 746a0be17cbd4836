//! Wire encoding of DAP frames, following the field layout of Fig. 4.
//!
//! | frame | layout (big-endian) | size |
//! |---|---|---|
//! | announce | `0x01 ‖ index:u32 ‖ mac:10B` | 15 B |
//! | reveal | `0x02 ‖ index:u32 ‖ key:10B ‖ len:u16 ‖ message` | 17 B + len |
//! | tagged announce | `0x03 ‖ sender:u32 ‖ index:u32 ‖ mac:10B` | 19 B |
//! | tagged reveal | `0x04 ‖ sender:u32 ‖ index:u32 ‖ key:10B ‖ len:u16 ‖ message` | 21 B + len |
//!
//! The paper counts 112 bits (14 B) for the announcement; the one extra
//! byte here is the frame tag a self-describing codec needs. The tagged
//! shapes carry the crowdsensing many-to-one attribution — a
//! [`SenderId`] naming which contributor's chain the frame claims —
//! so a fleet receiver can route and verify per sender; untagged frames
//! decode as [`SenderId::UNTAGGED`], which keeps every single-sender
//! deployment on the wire format it already speaks. Decoding is total:
//! any byte string yields either a frame or a [`DecodeError`], never a
//! panic — receivers parse attacker-controlled bytes.

use dap_crypto::{Key, Mac80};

use crate::wire::{Announce, DapMessage, Reveal};

/// Frame tag for announcements.
const TAG_ANNOUNCE: u8 = 0x01;
/// Frame tag for reveals.
const TAG_REVEAL: u8 = 0x02;
/// Frame tag for sender-tagged announcements.
const TAG_ANNOUNCE_FROM: u8 = 0x03;
/// Frame tag for sender-tagged reveals.
const TAG_REVEAL_FROM: u8 = 0x04;

/// Identifies a sender (task distributor) on the tagged wire shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SenderId(pub u64);

impl SenderId {
    /// The implicit sender of untagged (single-sender) wire frames —
    /// what [`decode_prefix_tagged`] attributes a legacy `0x01`/`0x02`
    /// frame to.
    pub const UNTAGGED: SenderId = SenderId(0);
}

impl std::fmt::Display for SenderId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sender#{}", self.0)
    }
}

/// A decoded frame together with the sender it claims to be from.
///
/// The sender field is *attribution, not authentication*: it only says
/// which chain anchor to verify against. A forger can claim any id, but
/// the claimed sender's chain then rejects the forged key — see the
/// cross-sender splice property in `tests/codec_fuzz.rs`.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedFrame {
    /// The claimed sender ([`SenderId::UNTAGGED`] for legacy frames).
    pub sender: SenderId,
    /// The frame payload.
    pub message: DapMessage,
}

/// Why a frame could not be encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EncodeError {
    /// The interval index exceeds the 32-bit wire field of Fig. 4.
    IndexOverflow {
        /// The offending index.
        index: u64,
    },
    /// The message exceeds the 16-bit length field.
    MessageTooLong {
        /// The offending length in bytes.
        len: usize,
    },
    /// The sender id exceeds the 32-bit wire field of the tagged frames.
    SenderOverflow {
        /// The offending sender id.
        sender: u64,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::IndexOverflow { index } => {
                write!(f, "interval index {index} exceeds the 32-bit wire field")
            }
            EncodeError::MessageTooLong { len } => {
                write!(f, "message of {len} bytes exceeds the 16-bit length field")
            }
            EncodeError::SenderOverflow { sender } => {
                write!(f, "sender id {sender} exceeds the 32-bit wire field")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Why a byte string is not a valid frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// Ran out of bytes mid-field.
    Truncated,
    /// The first byte is not a known frame tag.
    UnknownTag(u8),
    /// Valid frame followed by extra bytes.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("frame truncated"),
            DecodeError::UnknownTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes a frame.
///
/// # Errors
///
/// Fails when a field does not fit its wire representation — see
/// [`EncodeError`].
pub fn encode(message: &DapMessage) -> Result<Vec<u8>, EncodeError> {
    encode_frame(None, message)
}

/// Encodes a frame tagged with the sender it is from (the `0x03`/`0x04`
/// wire shapes).
///
/// # Errors
///
/// As [`encode`], plus [`EncodeError::SenderOverflow`] when the sender
/// id does not fit the 32-bit wire field.
pub fn encode_tagged(sender: SenderId, message: &DapMessage) -> Result<Vec<u8>, EncodeError> {
    let wire =
        u32::try_from(sender.0).map_err(|_| EncodeError::SenderOverflow { sender: sender.0 })?;
    encode_frame(Some(wire), message)
}

fn encode_frame(sender: Option<u32>, message: &DapMessage) -> Result<Vec<u8>, EncodeError> {
    let sender_len = if sender.is_some() { 4 } else { 0 };
    match message {
        DapMessage::Announce(a) => {
            let index = wire_index(a.index)?;
            let mut out = Vec::with_capacity(1 + sender_len + 4 + Mac80::LEN);
            out.push(if sender.is_some() {
                TAG_ANNOUNCE_FROM
            } else {
                TAG_ANNOUNCE
            });
            if let Some(s) = sender {
                out.extend_from_slice(&s.to_be_bytes());
            }
            out.extend_from_slice(&index.to_be_bytes());
            out.extend_from_slice(a.mac.as_bytes());
            Ok(out)
        }
        DapMessage::Reveal(r) => {
            let index = wire_index(r.index)?;
            let len = u16::try_from(r.message.len()).map_err(|_| EncodeError::MessageTooLong {
                len: r.message.len(),
            })?;
            let mut out = Vec::with_capacity(1 + sender_len + 4 + Key::LEN + 2 + r.message.len());
            out.push(if sender.is_some() {
                TAG_REVEAL_FROM
            } else {
                TAG_REVEAL
            });
            if let Some(s) = sender {
                out.extend_from_slice(&s.to_be_bytes());
            }
            out.extend_from_slice(&index.to_be_bytes());
            out.extend_from_slice(r.key.as_bytes());
            out.extend_from_slice(&len.to_be_bytes());
            out.extend_from_slice(&r.message);
            Ok(out)
        }
    }
}

fn wire_index(index: u64) -> Result<u32, EncodeError> {
    u32::try_from(index).map_err(|_| EncodeError::IndexOverflow { index })
}

/// The largest encoded frame: a sender-tagged reveal with a maximal
/// 16-bit message.
pub const MAX_FRAME_LEN: usize = 1 + 4 + 4 + Key::LEN + 2 + u16::MAX as usize;

/// Decodes a frame; total over arbitrary input.
///
/// # Errors
///
/// See [`DecodeError`].
pub fn decode(bytes: &[u8]) -> Result<DapMessage, DecodeError> {
    let (message, used) = decode_prefix(bytes)?;
    ensure_empty(&bytes[used..])?;
    Ok(message)
}

/// Decodes a frame keeping its sender attribution; total over arbitrary
/// input. Untagged frames decode as [`SenderId::UNTAGGED`].
///
/// # Errors
///
/// See [`DecodeError`].
pub fn decode_tagged(bytes: &[u8]) -> Result<TaggedFrame, DecodeError> {
    let (frame, used) = decode_prefix_tagged(bytes)?;
    ensure_empty(&bytes[used..])?;
    Ok(frame)
}

/// Decodes one frame from the front of `bytes`, tolerating trailing
/// data: returns the frame and how many bytes it consumed. This is the
/// stream-reassembly entry point ([`FrameAssembler`] is built on it);
/// [`decode`] adds the no-trailing-bytes check datagram transports want.
///
/// # Errors
///
/// [`DecodeError::Truncated`] when the buffer ends mid-frame (more bytes
/// may complete it), [`DecodeError::UnknownTag`] when the first byte is
/// not a frame tag. Never [`DecodeError::TrailingBytes`].
pub fn decode_prefix(bytes: &[u8]) -> Result<(DapMessage, usize), DecodeError> {
    let (frame, used) = decode_prefix_tagged(bytes)?;
    Ok((frame.message, used))
}

/// [`decode_prefix`] keeping the sender attribution: legacy `0x01`/`0x02`
/// frames decode as [`SenderId::UNTAGGED`], the `0x03`/`0x04` shapes
/// carry their explicit sender field.
///
/// # Errors
///
/// As [`decode_prefix`].
pub fn decode_prefix_tagged(bytes: &[u8]) -> Result<(TaggedFrame, usize), DecodeError> {
    let (&tag, rest) = bytes.split_first().ok_or(DecodeError::Truncated)?;
    let (sender, rest, header) = match tag {
        TAG_ANNOUNCE | TAG_REVEAL => (SenderId::UNTAGGED, rest, 1),
        TAG_ANNOUNCE_FROM | TAG_REVEAL_FROM => {
            let (sender, rest) = take_u32(rest)?;
            (SenderId(u64::from(sender)), rest, 1 + 4)
        }
        other => return Err(DecodeError::UnknownTag(other)),
    };
    match tag {
        TAG_ANNOUNCE | TAG_ANNOUNCE_FROM => {
            let (index, rest) = take_u32(rest)?;
            let (mac, _) = take_mac(rest)?;
            Ok((
                TaggedFrame {
                    sender,
                    message: DapMessage::Announce(Announce {
                        index: u64::from(index),
                        mac,
                    }),
                },
                header + 4 + Mac80::LEN,
            ))
        }
        TAG_REVEAL | TAG_REVEAL_FROM => {
            let (index, rest) = take_u32(rest)?;
            let (key, rest) = take_key(rest)?;
            let (len, rest) = take_u16(rest)?;
            if rest.len() < usize::from(len) {
                return Err(DecodeError::Truncated);
            }
            let message = &rest[..usize::from(len)];
            Ok((
                TaggedFrame {
                    sender,
                    message: DapMessage::Reveal(Reveal {
                        index: u64::from(index),
                        key,
                        message: message.to_vec(),
                    }),
                },
                header + 4 + Key::LEN + 2 + usize::from(len),
            ))
        }
        _ => unreachable!("tag classified above"),
    }
}

/// Reads the interval index of the frame at the front of `bytes`
/// without decoding the rest — enough for a receiver pool to route a
/// frame to its shard before any cryptographic work. `None` when the
/// prefix is not a known tag followed by a full index field.
#[must_use]
pub fn peek_index(bytes: &[u8]) -> Option<u64> {
    let (&tag, rest) = bytes.split_first()?;
    let rest = match tag {
        TAG_ANNOUNCE | TAG_REVEAL => rest,
        TAG_ANNOUNCE_FROM | TAG_REVEAL_FROM => rest.get(4..)?,
        _ => return None,
    };
    let (index, _) = take_u32(rest).ok()?;
    Some(u64::from(index))
}

/// Reads the claimed sender of the frame at the front of `bytes`
/// without decoding the rest — the pre-crypto routing key of a
/// by-sender sharded pool. Legacy untagged frames report
/// [`SenderId::UNTAGGED`]; `None` when the prefix is not a known tag
/// followed by a full sender field.
#[must_use]
pub fn peek_sender(bytes: &[u8]) -> Option<SenderId> {
    let (&tag, rest) = bytes.split_first()?;
    match tag {
        TAG_ANNOUNCE | TAG_REVEAL => Some(SenderId::UNTAGGED),
        TAG_ANNOUNCE_FROM | TAG_REVEAL_FROM => {
            let (sender, _) = take_u32(rest).ok()?;
            Some(SenderId(u64::from(sender)))
        }
        _ => None,
    }
}

/// Reassembles frames from a byte stream that may split or concatenate
/// them arbitrarily (TCP-style framing, or UDP datagrams carrying
/// several frames back to back).
///
/// Feed bytes with [`push`](Self::push), then drain complete frames with
/// [`next_frame`](Self::next_frame). Garbage resynchronises: an unknown
/// tag byte is skipped (and counted in
/// [`skipped_bytes`](Self::skipped_bytes)) until a decodable frame
/// starts; a truncated prefix is kept until more bytes arrive. After a
/// drain, at most [`MAX_FRAME_LEN`] bytes stay pending — a hostile
/// stream cannot pin unbounded memory behind a forever-incomplete frame.
///
/// ```
/// use dap_core::codec::{encode, FrameAssembler};
/// use dap_core::{Announce, DapMessage};
/// use dap_crypto::Mac80;
///
/// let frame = DapMessage::Announce(Announce {
///     index: 9,
///     mac: Mac80::from_slice(&[0x5a; 10]).unwrap(),
/// });
/// let bytes = encode(&frame).unwrap();
/// let mut asm = FrameAssembler::new();
/// asm.push(&bytes[..7]); // first half…
/// assert!(asm.next_frame().is_none());
/// asm.push(&bytes[7..]); // …second half
/// assert_eq!(asm.next_frame(), Some(frame));
/// ```
#[derive(Debug, Default, Clone)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    skipped: u64,
}

impl FrameAssembler {
    /// An empty assembler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame, skipping garbage as needed.
    /// `None` means the buffered bytes hold no complete frame yet.
    pub fn next_frame(&mut self) -> Option<DapMessage> {
        self.next_tagged_frame().map(|frame| frame.message)
    }

    /// [`next_frame`](Self::next_frame) keeping the sender attribution
    /// (untagged frames come back as [`SenderId::UNTAGGED`]).
    pub fn next_tagged_frame(&mut self) -> Option<TaggedFrame> {
        loop {
            if self.buf.is_empty() {
                return None;
            }
            match resync_step(&self.buf) {
                Resync::Frame(frame, used) => {
                    self.buf.drain(..used);
                    return Some(frame);
                }
                Resync::Skip => {
                    self.buf.drain(..1);
                    self.skipped += 1;
                }
                Resync::Wait => return None,
            }
        }
    }

    /// Bytes discarded while resynchronising.
    #[must_use]
    pub fn skipped_bytes(&self) -> u64 {
        self.skipped
    }

    /// Bytes buffered awaiting the rest of a frame.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }
}

/// Decodes every frame packed into one datagram, appending them to
/// `out` in wire order, and returns the junk byte count: bytes skipped
/// while resynchronising plus the undecodable tail.
///
/// This is a fresh [`FrameAssembler`] fed the whole datagram and
/// drained — the same resync rules, the same frames in the same order,
/// and a junk count equal to its `skipped_bytes() + pending_bytes()` —
/// but read in place: no assembler buffer, and `out` can be reused
/// across datagrams. Frames never span datagrams, so the tail is
/// damage, not a continuation.
pub fn decode_datagram(bytes: &[u8], out: &mut Vec<TaggedFrame>) -> u64 {
    let mut pos = 0;
    let mut skipped = 0u64;
    while pos < bytes.len() {
        match resync_step(&bytes[pos..]) {
            Resync::Frame(frame, used) => {
                out.push(frame);
                pos += used;
            }
            Resync::Skip => {
                pos += 1;
                skipped += 1;
            }
            Resync::Wait => break,
        }
    }
    skipped + (bytes.len() - pos) as u64
}

/// What the resync rules make of the bytes at the front of a stream.
enum Resync {
    /// A whole frame and the bytes it consumed.
    Frame(TaggedFrame, usize),
    /// Garbage: shed one byte and look again.
    Skip,
    /// A truncated prefix that more bytes may complete.
    Wait,
}

/// The resync rules [`FrameAssembler`] and [`decode_datagram`] share: an
/// unknown tag is garbage, and so is a truncated prefix longer than
/// [`MAX_FRAME_LEN`] (no genuine half-frame is that long).
fn resync_step(bytes: &[u8]) -> Resync {
    match decode_prefix_tagged(bytes) {
        Ok((frame, used)) => Resync::Frame(frame, used),
        Err(DecodeError::UnknownTag(_)) => Resync::Skip,
        Err(DecodeError::Truncated) if bytes.len() > MAX_FRAME_LEN => Resync::Skip,
        Err(DecodeError::Truncated) => Resync::Wait,
        // decode_prefix never reports trailing bytes.
        Err(DecodeError::TrailingBytes { .. }) => unreachable!(),
    }
}

fn take_u32(bytes: &[u8]) -> Result<(u32, &[u8]), DecodeError> {
    if bytes.len() < 4 {
        return Err(DecodeError::Truncated);
    }
    let (head, rest) = bytes.split_at(4);
    Ok((u32::from_be_bytes(head.try_into().expect("4 bytes")), rest))
}

fn take_u16(bytes: &[u8]) -> Result<(u16, &[u8]), DecodeError> {
    if bytes.len() < 2 {
        return Err(DecodeError::Truncated);
    }
    let (head, rest) = bytes.split_at(2);
    Ok((u16::from_be_bytes(head.try_into().expect("2 bytes")), rest))
}

fn take_mac(bytes: &[u8]) -> Result<(Mac80, &[u8]), DecodeError> {
    if bytes.len() < Mac80::LEN {
        return Err(DecodeError::Truncated);
    }
    let (head, rest) = bytes.split_at(Mac80::LEN);
    Ok((Mac80::from_slice(head).expect("exact length"), rest))
}

fn take_key(bytes: &[u8]) -> Result<(Key, &[u8]), DecodeError> {
    if bytes.len() < Key::LEN {
        return Err(DecodeError::Truncated);
    }
    let (head, rest) = bytes.split_at(Key::LEN);
    Ok((Key::from_slice(head).expect("exact length"), rest))
}

fn ensure_empty(rest: &[u8]) -> Result<(), DecodeError> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(DecodeError::TrailingBytes { extra: rest.len() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_announce() -> DapMessage {
        DapMessage::Announce(Announce {
            index: 42,
            mac: Mac80::from_slice(&[7u8; 10]).unwrap(),
        })
    }

    fn sample_reveal() -> DapMessage {
        DapMessage::Reveal(Reveal {
            index: 42,
            key: Key::derive(b"codec", b"k"),
            message: b"sensor reading".to_vec(),
        })
    }

    #[test]
    fn roundtrip_announce() {
        let encoded = encode(&sample_announce()).unwrap();
        assert_eq!(encoded.len(), 15);
        assert_eq!(decode(&encoded).unwrap(), sample_announce());
    }

    #[test]
    fn roundtrip_reveal() {
        let encoded = encode(&sample_reveal()).unwrap();
        assert_eq!(encoded.len(), 17 + 14);
        assert_eq!(decode(&encoded).unwrap(), sample_reveal());
    }

    #[test]
    fn empty_message_reveal_roundtrips() {
        let msg = DapMessage::Reveal(Reveal {
            index: 1,
            key: Key::derive(b"c", b"k"),
            message: Vec::new(),
        });
        let encoded = encode(&msg).unwrap();
        assert_eq!(decode(&encoded).unwrap(), msg);
    }

    #[test]
    fn index_overflow_is_an_encode_error() {
        let msg = DapMessage::Announce(Announce {
            index: u64::from(u32::MAX) + 1,
            mac: Mac80::from_slice(&[0u8; 10]).unwrap(),
        });
        assert!(matches!(
            encode(&msg),
            Err(EncodeError::IndexOverflow { .. })
        ));
        assert!(encode(&msg).unwrap_err().to_string().contains("32-bit"));
    }

    #[test]
    fn oversize_message_is_an_encode_error() {
        let msg = DapMessage::Reveal(Reveal {
            index: 1,
            key: Key::derive(b"c", b"k"),
            message: vec![0u8; 70_000],
        });
        assert!(matches!(
            encode(&msg),
            Err(EncodeError::MessageTooLong { .. })
        ));
    }

    #[test]
    fn truncations_at_every_length_are_rejected() {
        for sample in [sample_announce(), sample_reveal()] {
            let full = encode(&sample).unwrap();
            for cut in 0..full.len() {
                assert_eq!(
                    decode(&full[..cut]),
                    Err(DecodeError::Truncated),
                    "cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut encoded = encode(&sample_announce()).unwrap();
        encoded.push(0);
        assert_eq!(
            decode(&encoded),
            Err(DecodeError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(decode(&[0x7f, 0, 0]), Err(DecodeError::UnknownTag(0x7f)));
        assert!(DecodeError::UnknownTag(0x7f).to_string().contains("0x7f"));
    }

    #[test]
    fn decode_prefix_reports_consumed_bytes() {
        let mut stream = encode(&sample_announce()).unwrap();
        let reveal = encode(&sample_reveal()).unwrap();
        stream.extend_from_slice(&reveal);
        let (first, used) = decode_prefix(&stream).unwrap();
        assert_eq!(first, sample_announce());
        assert_eq!(used, 15);
        let (second, used2) = decode_prefix(&stream[used..]).unwrap();
        assert_eq!(second, sample_reveal());
        assert_eq!(used + used2, stream.len());
    }

    #[test]
    fn peek_index_reads_only_the_header() {
        let ann = encode(&sample_announce()).unwrap();
        assert_eq!(peek_index(&ann), Some(42));
        // Enough for tag + index even if the rest is missing.
        assert_eq!(peek_index(&ann[..5]), Some(42));
        assert_eq!(peek_index(&ann[..4]), None);
        assert_eq!(peek_index(&[0x7f, 0, 0, 0, 1]), None);
        assert_eq!(peek_index(&[]), None);
    }

    #[test]
    fn assembler_reassembles_split_frames() {
        let frame = sample_reveal();
        let bytes = encode(&frame).unwrap();
        let mut asm = FrameAssembler::new();
        asm.push(&bytes[..9]);
        assert_eq!(asm.next_frame(), None);
        assert_eq!(asm.pending_bytes(), 9);
        asm.push(&bytes[9..]);
        assert_eq!(asm.next_frame(), Some(frame));
        assert_eq!(asm.next_frame(), None);
        assert_eq!(asm.skipped_bytes(), 0);
        assert_eq!(asm.pending_bytes(), 0);
    }

    #[test]
    fn assembler_resynchronises_past_garbage() {
        let frame = sample_announce();
        let mut stream = vec![0xffu8; 7]; // no byte of this aliases a tag
        stream.extend_from_slice(&encode(&frame).unwrap());
        let mut asm = FrameAssembler::new();
        asm.push(&stream);
        assert_eq!(asm.next_frame(), Some(frame));
        assert_eq!(asm.skipped_bytes(), 7);
    }

    #[test]
    fn roundtrip_tagged_announce() {
        let encoded = encode_tagged(SenderId(9), &sample_announce()).unwrap();
        assert_eq!(encoded.len(), 19);
        assert_eq!(
            decode_tagged(&encoded).unwrap(),
            TaggedFrame {
                sender: SenderId(9),
                message: sample_announce(),
            }
        );
        // The legacy decoder accepts the same bytes, dropping the tag.
        assert_eq!(decode(&encoded).unwrap(), sample_announce());
    }

    #[test]
    fn roundtrip_tagged_reveal() {
        let encoded = encode_tagged(SenderId(u64::from(u32::MAX)), &sample_reveal()).unwrap();
        assert_eq!(encoded.len(), 21 + 14);
        let frame = decode_tagged(&encoded).unwrap();
        assert_eq!(frame.sender, SenderId(u64::from(u32::MAX)));
        assert_eq!(frame.message, sample_reveal());
    }

    #[test]
    fn untagged_frames_decode_as_the_untagged_sender() {
        for sample in [sample_announce(), sample_reveal()] {
            let encoded = encode(&sample).unwrap();
            let frame = decode_tagged(&encoded).unwrap();
            assert_eq!(frame.sender, SenderId::UNTAGGED);
            assert_eq!(frame.message, sample);
        }
    }

    #[test]
    fn sender_overflow_is_an_encode_error() {
        let err = encode_tagged(SenderId(u64::from(u32::MAX) + 1), &sample_announce());
        assert!(matches!(err, Err(EncodeError::SenderOverflow { .. })));
        assert!(err.unwrap_err().to_string().contains("32-bit"));
    }

    #[test]
    fn tagged_truncations_at_every_length_are_rejected() {
        for sample in [sample_announce(), sample_reveal()] {
            let full = encode_tagged(SenderId(3), &sample).unwrap();
            for cut in 0..full.len() {
                assert_eq!(
                    decode_tagged(&full[..cut]),
                    Err(DecodeError::Truncated),
                    "cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn peek_sender_and_index_read_tagged_headers() {
        let tagged = encode_tagged(SenderId(7), &sample_announce()).unwrap();
        assert_eq!(peek_sender(&tagged), Some(SenderId(7)));
        assert_eq!(peek_index(&tagged), Some(42));
        // Enough for tag + sender, even if the index is missing.
        assert_eq!(peek_sender(&tagged[..5]), Some(SenderId(7)));
        assert_eq!(peek_index(&tagged[..8]), None);
        let legacy = encode(&sample_announce()).unwrap();
        assert_eq!(peek_sender(&legacy), Some(SenderId::UNTAGGED));
        assert_eq!(peek_sender(&[0x7f, 0, 0, 0, 1]), None);
        assert_eq!(peek_sender(&[]), None);
    }

    #[test]
    fn assembler_yields_tagged_frames_with_attribution() {
        let tagged = encode_tagged(SenderId(11), &sample_reveal()).unwrap();
        let legacy = encode(&sample_announce()).unwrap();
        let mut asm = FrameAssembler::new();
        asm.push(&tagged[..10]);
        assert_eq!(asm.next_tagged_frame(), None);
        asm.push(&tagged[10..]);
        asm.push(&legacy);
        assert_eq!(
            asm.next_tagged_frame(),
            Some(TaggedFrame {
                sender: SenderId(11),
                message: sample_reveal(),
            })
        );
        assert_eq!(
            asm.next_tagged_frame(),
            Some(TaggedFrame {
                sender: SenderId::UNTAGGED,
                message: sample_announce(),
            })
        );
        assert_eq!(asm.next_tagged_frame(), None);
        assert_eq!(asm.skipped_bytes(), 0);
        assert_eq!(asm.pending_bytes(), 0);
    }

    #[test]
    fn decode_never_accepts_mutated_length_silently() {
        let mut encoded = encode(&sample_reveal()).unwrap();
        // Grow the claimed message length beyond the buffer.
        encoded[15] = 0xff;
        encoded[16] = 0xff;
        assert_eq!(decode(&encoded), Err(DecodeError::Truncated));
    }
}
