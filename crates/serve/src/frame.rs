//! Length-prefixed framing over a byte stream.
//!
//! Every protocol message — in both directions — is one *frame*: a 4-byte
//! big-endian length followed by that many bytes of UTF-8 JSON.  Framing is
//! where most of the daemon's robustness lives: the length is validated
//! against a configurable ceiling *before* any allocation, truncated frames
//! are distinguished from clean closes, and read timeouts surface as their
//! own error variants — [`FrameError::Idle`] before a frame starts,
//! [`FrameError::TimedOut`] mid-frame (slow-loris defence) — so the server
//! can tell a waiting client from a stalled one.

use std::io::{Read, Write};

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The socket read timeout expired before the first byte of a frame:
    /// the peer sent nothing, and may just be waiting for a reply.
    Idle,
    /// The peer closed the connection mid-frame (after the prefix, or
    /// partway through either the prefix or the body).
    Truncated,
    /// The length prefix announced a body larger than the negotiated ceiling.
    /// The connection must be dropped: the body was not consumed.
    TooLarge {
        /// The announced body length.
        announced: u64,
        /// The ceiling it exceeded.
        max: usize,
    },
    /// The socket read timeout expired mid-frame (after at least one byte
    /// of it arrived).
    TimedOut,
    /// Any other transport failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Idle => write!(f, "timed out waiting for a frame to start"),
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::TooLarge { announced, max } => {
                write!(f, "frame of {announced} bytes exceeds the {max}-byte limit")
            }
            FrameError::TimedOut => write!(f, "timed out waiting for frame bytes"),
            FrameError::Io(err) => write!(f, "frame transport error: {err}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(err: std::io::Error) -> Self {
        match err.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => FrameError::TimedOut,
            std::io::ErrorKind::UnexpectedEof => FrameError::Truncated,
            _ => FrameError::Io(err),
        }
    }
}

/// Reads one frame body. `Ok(None)` is a clean close (EOF exactly on a frame
/// boundary); EOF anywhere else is [`FrameError::Truncated`].
pub fn read_frame(reader: &mut impl Read, max_len: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let first = reader
        .read(&mut prefix[..])
        .map_err(|err| match err.into() {
            FrameError::TimedOut => FrameError::Idle,
            other => other,
        });
    match first? {
        0 => return Ok(None),
        mut got => {
            while got < 4 {
                match reader.read(&mut prefix[got..])? {
                    0 => return Err(FrameError::Truncated),
                    n => got += n,
                }
            }
        }
    }
    let announced = u32::from_be_bytes(prefix) as u64;
    if announced > max_len as u64 {
        return Err(FrameError::TooLarge {
            announced,
            max: max_len,
        });
    }
    let mut body = vec![0u8; announced as usize];
    let mut filled = 0;
    while filled < body.len() {
        match reader.read(&mut body[filled..])? {
            0 => return Err(FrameError::Truncated),
            n => filled += n,
        }
    }
    Ok(Some(body))
}

/// Writes one frame (prefix + body) and flushes.
pub fn write_frame(writer: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(body.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame body exceeds u32")
    })?;
    writer.write_all(&len.to_be_bytes())?;
    writer.write_all(body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trips_a_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"op\":\"stats\"}").unwrap();
        let mut cursor = Cursor::new(wire);
        let body = read_frame(&mut cursor, 1 << 20).unwrap().unwrap();
        assert_eq!(body, b"{\"op\":\"stats\"}");
        assert!(read_frame(&mut cursor, 1 << 20).unwrap().is_none());
    }

    #[test]
    fn clean_eof_is_none_but_partial_prefix_is_truncated() {
        let mut empty = Cursor::new(Vec::new());
        assert!(read_frame(&mut empty, 64).unwrap().is_none());

        let mut partial = Cursor::new(vec![0u8, 0, 0]);
        assert!(matches!(
            read_frame(&mut partial, 64),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn truncated_body_is_reported() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        wire.truncate(wire.len() - 2);
        let mut cursor = Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cursor, 64),
            Err(FrameError::Truncated)
        ));
    }

    /// Yields its bytes, then fails every read as a socket read timeout
    /// does.
    struct Stalls(Cursor<Vec<u8>>);

    impl Read for Stalls {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.read(buf)? {
                0 => Err(std::io::ErrorKind::WouldBlock.into()),
                n => Ok(n),
            }
        }
    }

    #[test]
    fn a_timeout_before_any_byte_is_idle_and_after_one_is_mid_frame() {
        let mut silent = Stalls(Cursor::new(Vec::new()));
        assert!(matches!(read_frame(&mut silent, 64), Err(FrameError::Idle)));

        let mut stalled_prefix = Stalls(Cursor::new(vec![0u8, 0]));
        assert!(matches!(
            read_frame(&mut stalled_prefix, 64),
            Err(FrameError::TimedOut)
        ));

        let mut stalled_body = Stalls(Cursor::new(vec![0u8, 0, 0, 8, b'{']));
        assert!(matches!(
            read_frame(&mut stalled_body, 64),
            Err(FrameError::TimedOut)
        ));
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocating() {
        let mut wire = u32::MAX.to_be_bytes().to_vec();
        wire.extend_from_slice(b"ignored");
        let mut cursor = Cursor::new(wire);
        match read_frame(&mut cursor, 1024) {
            Err(FrameError::TooLarge { announced, max }) => {
                assert_eq!(announced, u32::MAX as u64);
                assert_eq!(max, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }
}
