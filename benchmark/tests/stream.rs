//! The request stream is a function of the seed alone, the two
//! architectures are sent the same bytes, and seeds change the order of
//! the requests but not what a cycle costs.

use eventscale_bench::live::{NIO_CHURN, NIO_LARGE, NIO_PIPELINED, NIO_SMALL, POOL_SMALL};
use eventscale_bench::stream::{content_files, RequestStream};
use httpcore::{ParseOutcome, RequestParser};

#[test]
fn same_seed_gives_byte_identical_streams_for_both_architectures() {
    let files = content_files();
    let nio = RequestStream::build(&files, NIO_SMALL.stream, 7);
    let again = RequestStream::build(&files, NIO_SMALL.stream, 7);
    let pool = RequestStream::build(&files, POOL_SMALL.stream, 7);
    assert_eq!(nio, again);
    assert_eq!(nio.wire, pool.wire);
    assert_eq!(nio.targets, pool.targets);
}

#[test]
fn another_seed_gives_another_stream_of_the_same_cost() {
    let files = content_files();
    for spec in [NIO_SMALL, NIO_PIPELINED, NIO_LARGE, NIO_CHURN] {
        let a = RequestStream::build(&files, spec.stream, 1);
        let b = RequestStream::build(&files, spec.stream, 2);
        assert_ne!(a.targets, b.targets);
        assert_ne!(a.wire, b.wire);
        // The same requests, in another order: equal bytes per cycle.
        let sorted = |s: &RequestStream| {
            let mut t = s.targets.clone();
            t.sort();
            t
        };
        assert_eq!(sorted(&a), sorted(&b));
        assert_eq!(a.wire.len(), b.wire.len());
    }
}

#[test]
fn targets_stay_inside_the_size_class_and_divide_into_whole_bursts() {
    let files = content_files();
    for spec in [NIO_SMALL, NIO_PIPELINED, NIO_LARGE, NIO_CHURN] {
        let s = RequestStream::build(&files, spec.stream, 3);
        assert!(s.targets.len() >= 4096);
        assert_eq!(s.ops.len() * spec.stream.depth, s.targets.len());
        for &id in &s.targets {
            let size = files.size_of(id);
            assert!(
                (spec.stream.min_bytes..=spec.stream.max_bytes).contains(&size),
                "{size}"
            );
        }
        let last = s.ops.last().unwrap();
        assert_eq!(last.wire_end, s.wire.len());
        assert_eq!(s.targets_of(last).len(), spec.stream.depth);
    }
}

#[test]
fn the_servers_parser_reads_back_the_targets() {
    let files = content_files();
    let s = RequestStream::build(&files, NIO_PIPELINED.stream, 5);
    let mut parser = RequestParser::new();
    for op in s.ops.iter().take(64) {
        parser.feed(s.bytes_of(op));
        for &id in s.targets_of(op) {
            match parser.parse() {
                ParseOutcome::Complete(req) => {
                    assert_eq!(req.target, format!("/f/{}", id.0));
                    assert!(req.keep_alive());
                    parser.recycle(req);
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(parser.buffered(), 0);
    }
    let churn = RequestStream::build(&files, NIO_CHURN.stream, 5);
    parser.feed(churn.bytes_of(&churn.ops[0]));
    match parser.parse() {
        ParseOutcome::Complete(req) => assert!(!req.keep_alive()),
        other => panic!("{other:?}"),
    }
}
