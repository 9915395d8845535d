//! Length-prefixed framing for the daemon's TCP protocol.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! [ payload length, u32 big-endian ][ payload: UTF-8 JSON ]
//! ```
//!
//! Frames larger than [`MAX_FRAME`] are rejected before any allocation,
//! so a corrupt or hostile length prefix cannot make the daemon reserve
//! gigabytes. A clean EOF *between* frames is a normal connection close
//! (`Ok(None)`); EOF *inside* a frame is an error.

use std::io::{self, Read, Write};

/// Largest accepted frame payload (64 KiB — a query is ~200 bytes).
pub const MAX_FRAME: usize = 64 * 1024;

/// Reads one frame; `Ok(None)` on clean EOF before any length byte.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // Distinguish "closed between frames" from "died mid-frame". A signal
    // interrupting the first read is retried, as `read_exact` retries it.
    loop {
        match stream.read(&mut len_buf) {
            Ok(0) => return Ok(None),
            Ok(n) => {
                stream.read_exact(&mut len_buf[n..])?;
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME} byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes one frame and flushes it.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "refusing to send a {} byte frame (cap {MAX_FRAME})",
                payload.len()
            ),
        ));
    }
    let len = (payload.len() as u32).to_be_bytes();
    stream.write_all(&len)?;
    stream.write_all(payload)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"cmd\": \"ping\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cur).unwrap().as_deref(),
            Some(&b"{\"cmd\": \"ping\"}"[..])
        );
        assert_eq!(read_frame(&mut cur).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut cur).unwrap(), None);
    }

    #[test]
    fn clean_eof_between_frames_is_none() {
        let mut cur = Cursor::new(Vec::new());
        assert_eq!(read_frame(&mut cur).unwrap(), None);
    }

    #[test]
    fn eof_inside_a_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(6); // length prefix + 2 of 5 payload bytes
        let mut cur = Cursor::new(buf);
        assert!(read_frame(&mut cur).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = (u32::MAX).to_be_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        let mut cur = Cursor::new(buf);
        let err = read_frame(&mut cur).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Fails its first `read` with `Interrupted`, then reads from `inner`.
    struct InterruptOnce<R> {
        interrupted: bool,
        inner: R,
    }

    impl<R: Read> Read for InterruptOnce<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(io::ErrorKind::Interrupted.into());
            }
            self.inner.read(buf)
        }
    }

    #[test]
    fn an_interrupted_length_read_is_retried() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut stream = InterruptOnce {
            interrupted: false,
            inner: Cursor::new(buf),
        };
        assert_eq!(
            read_frame(&mut stream).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(read_frame(&mut stream).unwrap(), None);
    }

    #[test]
    fn oversized_writes_are_refused() {
        let big = vec![0u8; MAX_FRAME + 1];
        let mut out = Vec::new();
        assert!(write_frame(&mut out, &big).is_err());
        assert!(out.is_empty());
    }
}
