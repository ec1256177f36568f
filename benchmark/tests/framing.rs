//! Reply framing must not depend on how the bytes were split across reads.

use eventscale_bench::framing::{FrameError, Framer, Piece, ReplyHead};
use httpcore::{write_head_full, Status, Version};

/// What a framer made of a byte stream.
#[derive(Debug, Default, PartialEq)]
struct Seen {
    heads: Vec<ReplyHead>,
    bodies: Vec<Vec<u8>>,
    ends: usize,
}

/// Feed `stream` in chunks of the lengths `cuts` yields (then the rest).
fn frame(stream: &[u8], cuts: impl IntoIterator<Item = usize>) -> Result<Seen, FrameError> {
    let mut framer = Framer::new();
    let mut seen = Seen::default();
    let mut rest = stream;
    let mut cuts = cuts.into_iter();
    while !rest.is_empty() {
        let take = cuts.next().unwrap_or(rest.len()).clamp(1, rest.len());
        let (mut chunk, tail) = rest.split_at(take);
        rest = tail;
        while let Some(piece) = framer.next(&mut chunk)? {
            match piece {
                Piece::Head(head) => {
                    seen.heads.push(head);
                    seen.bodies.push(Vec::new());
                }
                Piece::Body(bytes) => seen
                    .bodies
                    .last_mut()
                    .expect("head first")
                    .extend_from_slice(bytes),
                Piece::End => seen.ends += 1,
            }
        }
        assert!(
            chunk.is_empty(),
            "the framer stops only when the input is used up"
        );
    }
    // A reply with an empty body ends on the call after its head; after
    // the last `End` an empty input yields nothing more.
    let mut nothing: &[u8] = &[];
    while let Some(piece) = framer.next(&mut nothing)? {
        assert_eq!(piece, Piece::End);
        seen.ends += 1;
    }
    Ok(seen)
}

/// Three replies as the servers render them: 700 bytes, empty, 3 bytes
/// with `Connection: close`.
fn replies() -> (Vec<u8>, Seen) {
    let bodies: [Vec<u8>; 3] = [
        (0..700).map(|i| (i % 251) as u8).collect(),
        Vec::new(),
        b"\r\n\r".to_vec(),
    ];
    let mut stream = Vec::new();
    let mut heads = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        let keep_alive = i != 2;
        write_head_full(
            &mut stream,
            Version::Http11,
            Status::Ok,
            body.len(),
            keep_alive,
            "Thu, 01 Jan 2004 00:00:00 GMT",
            Some("Thu, 01 Jan 2004 00:01:00 GMT"),
        );
        stream.extend_from_slice(body);
        heads.push(ReplyHead {
            status: 200,
            content_length: body.len(),
        });
    }
    let expected = Seen {
        heads,
        bodies: bodies.to_vec(),
        ends: 3,
    };
    (stream, expected)
}

#[test]
fn one_read_frames_all_replies() {
    let (stream, expected) = replies();
    assert_eq!(frame(&stream, []).unwrap(), expected);
}

#[test]
fn every_two_way_split_frames_the_same() {
    let (stream, expected) = replies();
    for cut in 1..stream.len() {
        assert_eq!(frame(&stream, [cut]).unwrap(), expected, "split at {cut}");
    }
}

#[test]
fn byte_by_byte_frames_the_same() {
    let (stream, expected) = replies();
    assert_eq!(frame(&stream, std::iter::repeat(1)).unwrap(), expected);
}

#[test]
fn arbitrary_splits_frame_the_same() {
    let (stream, expected) = replies();
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    for round in 0..200 {
        let cuts = std::iter::repeat_with(|| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            1 + (state >> 33) as usize % 97
        });
        assert_eq!(
            frame(&stream, cuts.take(4096)).unwrap(),
            expected,
            "round {round}"
        );
    }
}

#[test]
fn malformed_heads_are_errors() {
    let bad_status = b"HTTP/1.1 abc OK\r\nContent-Length: 1\r\n\r\nx";
    assert_eq!(frame(bad_status, []), Err(FrameError::BadStatusLine));
    let no_length = b"HTTP/1.1 200 OK\r\nServer: x\r\n\r\n";
    assert_eq!(frame(no_length, []), Err(FrameError::MissingContentLength));
    let bad_length = b"HTTP/1.1 200 OK\r\nContent-Length: many\r\n\r\n";
    assert_eq!(frame(bad_length, [7]), Err(FrameError::BadContentLength));
    let endless = vec![b'x'; 20_000];
    assert_eq!(
        frame(&endless, std::iter::repeat(1000)),
        Err(FrameError::HeadTooLong)
    );
}
