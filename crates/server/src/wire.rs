//! Length-prefixed framing over any byte stream.
//!
//! Every message — client↔server and server↔worker alike — travels as one
//! frame:
//!
//! ```text
//! ┌──────────────┬──────────────────┬──────────────┐
//! │ magic (4 B)  │ length (4 B, BE) │ payload      │
//! │ "LVS" 0x01   │ payload bytes    │ JSON message │
//! └──────────────┴──────────────────┴──────────────┘
//! ```
//!
//! The magic doubles as the *wire* version (the trailing byte); the JSON
//! payload carries its own *schema* version through the `Hello` handshake.
//! A reader rejects bad magic, oversized declarations and truncated
//! payloads with typed errors and never panics, so a malformed peer costs
//! one connection, not the server.
//!
//! A frame is assembled in one buffer — header slot, then the message
//! serialized in place — and handed to the stream in one `write_all`, so a
//! small frame is one system call; a reader takes the 8-byte header in one
//! read and the payload in another.

use std::io::{Read, Write};

/// Frame magic: `LVS` plus wire-format version 1.
pub const MAGIC: [u8; 4] = [b'L', b'V', b'S', 0x01];

/// The default ceiling on payload size. A threshold surface over thousands
/// of cells serializes to a few hundred kilobytes; 16 MiB is generous
/// headroom while still bounding a hostile length declaration.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the stream cleanly between frames.
    Eof,
    /// A read timeout expired between frames (only on streams with a read
    /// timeout set). The stream is intact; the caller may retry.
    Idle,
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The frame did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The declared payload length exceeds the reader's limit.
    Oversized(u32),
    /// The stream ended inside a declared payload.
    Truncated,
    /// The payload was not a valid message.
    Codec(serde::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Eof => write!(f, "peer closed the connection"),
            WireError::Idle => write!(f, "read timeout expired between frames"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::Oversized(len) => write!(f, "declared frame length {len} exceeds the limit"),
            WireError::Truncated => write!(f, "stream ended inside a frame payload"),
            WireError::Codec(e) => write!(f, "malformed payload: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Header bytes before the payload: magic plus length.
const HEADER: usize = 8;

/// Writes one frame.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> Result<(), WireError> {
    let mut frame = Vec::with_capacity(HEADER + payload.len());
    frame.extend_from_slice(&[0; HEADER]);
    frame.extend_from_slice(payload);
    send(writer, frame)
}

/// Fills in the header of a frame whose payload follows `HEADER` reserved
/// bytes, and writes it with a single call.
fn send<W: Write>(writer: &mut W, mut frame: Vec<u8>) -> Result<(), WireError> {
    let len = frame.len() - HEADER;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(len as u32));
    }
    frame[..4].copy_from_slice(&MAGIC);
    frame[4..HEADER].copy_from_slice(&(len as u32).to_be_bytes());
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame, enforcing `max_bytes` on the declared payload length.
///
/// A clean close *between* frames reads as [`WireError::Eof`]; a close
/// inside the header or payload reads as [`WireError::Truncated`]. The
/// magic is checked as soon as its four bytes are in.
pub fn read_frame<R: Read>(reader: &mut R, max_bytes: usize) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; HEADER];
    read_exact_or(reader, &mut header, true)?;
    let len = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
    if len as usize > max_bytes {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or(reader, &mut payload, false)?;
    Ok(payload)
}

/// `read_exact` that distinguishes a clean pre-frame close (`Eof`, when
/// reading a `header` and no byte has arrived yet) from a mid-frame one
/// (`Truncated`), and rejects a header's magic once four bytes are in. On
/// streams with a read timeout, an expiry before the frame's first byte
/// reads as `Idle` (retryable); one mid-frame keeps waiting, since
/// aborting there would desynchronise the stream.
fn read_exact_or<R: Read>(reader: &mut R, buf: &mut [u8], header: bool) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if header && filled == 0 {
                    WireError::Eof
                } else {
                    WireError::Truncated
                })
            }
            Ok(read) => {
                filled += read;
                if header && filled >= MAGIC.len() && buf[..MAGIC.len()] != MAGIC {
                    let mut magic = [0u8; 4];
                    magic.copy_from_slice(&buf[..MAGIC.len()]);
                    return Err(WireError::BadMagic(magic));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if header && filled == 0 {
                    return Err(WireError::Idle);
                }
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Serializes a message straight into a frame buffer and writes it as one
/// frame, with one write call.
pub fn write_message<W: Write, T: serde::Serialize>(
    writer: &mut W,
    message: &T,
) -> Result<(), WireError> {
    let mut frame = Vec::with_capacity(512);
    frame.extend_from_slice(&[0; HEADER]);
    message.serialize(&mut frame);
    send(writer, frame)
}

/// Reads one frame and deserializes the message it carries.
pub fn read_message<R: Read, T>(reader: &mut R, max_bytes: usize) -> Result<T, WireError>
where
    T: for<'de> serde::Deserialize<'de>,
{
    let payload = read_frame(reader, max_bytes)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|_| WireError::Codec(serde::Error::custom("payload is not UTF-8")))?;
    serde::json::from_str(text).map_err(WireError::Codec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap(), b"");
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME_BYTES),
            Err(WireError::Eof)
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"x").unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut Cursor::new(bytes), MAX_FRAME_BYTES),
            Err(WireError::BadMagic(_))
        ));
    }

    /// A writer that counts its `write` calls and accepts whole buffers.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A reader that hands out its bytes `step` at a time, then reports
    /// either a clean close or, with `hang`, a peer that never sends again.
    struct Trickle {
        bytes: Vec<u8>,
        pos: usize,
        step: usize,
        hang: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos == self.bytes.len() {
                assert!(!self.hang, "read past the last byte of a hanging peer");
                return Ok(0);
            }
            let n = self.step.min(buf.len()).min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn each_frame_is_one_write_call() {
        let mut writer = CountingWriter::default();
        write_message(&mut writer, &vec![1u64, 2, 3]).unwrap();
        assert_eq!(writer.writes, 1);
        write_frame(&mut writer, b"hello").unwrap();
        assert_eq!(writer.writes, 2);
        let mut expected = Vec::new();
        for payload in [&b"[1,2,3]"[..], b"hello"] {
            expected.extend_from_slice(&MAGIC);
            expected.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            expected.extend_from_slice(payload);
        }
        assert_eq!(writer.bytes, expected);
    }

    #[test]
    fn bad_magic_is_reported_once_four_bytes_are_in() {
        // Four wrong bytes, then a close.
        let closed = Trickle {
            bytes: b"XXXX".to_vec(),
            pos: 0,
            step: 4,
            hang: false,
        };
        // Four wrong bytes one at a time, then a peer that never sends the
        // length: the reader must not wait for it.
        let hanging = Trickle {
            bytes: b"GET ".to_vec(),
            pos: 0,
            step: 1,
            hang: true,
        };
        for mut reader in [closed, hanging] {
            assert!(matches!(
                read_frame(&mut reader, MAX_FRAME_BYTES),
                Err(WireError::BadMagic(_))
            ));
        }
    }

    #[test]
    fn frames_read_from_byte_at_a_time_streams() {
        let mut bytes = Vec::new();
        write_message(&mut bytes, &"a frame".to_string()).unwrap();
        let mut reader = Trickle {
            bytes,
            pos: 0,
            step: 1,
            hang: false,
        };
        let text: String = read_message(&mut reader, MAX_FRAME_BYTES).unwrap();
        assert_eq!(text, "a frame");
        assert!(matches!(
            read_frame(&mut reader, MAX_FRAME_BYTES),
            Err(WireError::Eof)
        ));
    }

    #[test]
    fn oversized_declarations_are_rejected_before_allocation() {
        let mut bytes = Vec::from(MAGIC);
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(bytes), MAX_FRAME_BYTES),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn truncation_inside_header_or_payload_is_distinguished_from_eof() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"hello").unwrap();
        for cut in 1..bytes.len() {
            let result = read_frame(&mut Cursor::new(&bytes[..cut]), MAX_FRAME_BYTES);
            assert!(matches!(result, Err(WireError::Truncated)), "cut at {cut}");
        }
    }

    #[test]
    fn messages_round_trip() {
        let mut buf = Vec::new();
        write_message(&mut buf, &vec![1u64, 2, 3]).unwrap();
        let decoded: Vec<u64> = read_message(&mut Cursor::new(buf), MAX_FRAME_BYTES).unwrap();
        assert_eq!(decoded, vec![1, 2, 3]);
    }

    #[test]
    fn garbage_payload_is_a_codec_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"\xff\xfenot json").unwrap();
        let result: Result<Vec<u64>, _> = read_message(&mut Cursor::new(buf), MAX_FRAME_BYTES);
        assert!(matches!(result, Err(WireError::Codec(_))));
    }
}
