//! The request stream a live workload sends: made from `--seed`, and the
//! only thing the server sees.
//!
//! The server's content is the default SURGE file set built from a fixed
//! content seed. A workload draws its targets from the files of one size
//! class. The seed decides the *order*: the stream is a whole number of
//! rounds, each round every file of the class once, shuffled. Two seeds
//! therefore send different streams that cost the same — the same requests
//! and the same reply bytes per cycle — so repeating a run under another
//! seed measures the program and the host, not the luck of the draw. (SURGE
//! popularity is deliberately not applied inside a class: with a few
//! hundred kilobytes between the smallest and largest file of `nio-large`,
//! sampling by popularity would move bytes per reply by a percent or more
//! from seed to seed.)

use desim::Rng;
use workload::{FileId, FileSet, SurgeConfig};

/// Seed of the served content; constant so that every run serves the same
/// files whatever `--seed` orders the requests.
pub const CONTENT_SEED: u64 = 0x5EED_C0DE;

/// Shortest stream, in requests, before it repeats.
const MIN_REQUESTS: usize = 4096;

/// The document tree every live workload serves.
pub fn content_files() -> FileSet {
    FileSet::build(&SurgeConfig::default(), &mut Rng::new(CONTENT_SEED))
}

/// Shape of a live workload's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSpec {
    /// Smallest and largest file requested, bytes (inclusive).
    pub min_bytes: u64,
    pub max_bytes: u64,
    /// Requests written back to back before any reply is awaited.
    pub depth: usize,
    /// Ask the server to close after the reply (`Connection: close`).
    pub close: bool,
}

/// One request, or one burst of `depth` pipelined requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Byte range of the operation in [`RequestStream::wire`].
    pub wire_start: usize,
    pub wire_end: usize,
    /// Index of its first target in [`RequestStream::targets`].
    pub first_target: usize,
}

impl Op {
    /// Bytes the operation writes.
    pub fn len(&self) -> usize {
        self.wire_end - self.wire_start
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The requests of one cycle, pre-rendered; a run repeats the cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestStream {
    pub depth: usize,
    pub targets: Vec<FileId>,
    pub wire: Vec<u8>,
    pub ops: Vec<Op>,
}

impl RequestStream {
    pub fn build(files: &FileSet, spec: StreamSpec, seed: u64) -> RequestStream {
        assert!(spec.depth > 0, "an operation sends at least one request");
        let mut class: Vec<FileId> = files
            .iter()
            .filter(|&(_, size)| (spec.min_bytes..=spec.max_bytes).contains(&size))
            .map(|(id, _)| id)
            .collect();
        assert!(!class.is_empty(), "no file in the size class");
        // A multiple of `depth` rounds, so the stream divides into whole
        // bursts.
        let rounds = spec.depth * MIN_REQUESTS.div_ceil(class.len() * spec.depth);
        let mut rng = Rng::new(seed);
        let mut targets = Vec::with_capacity(rounds * class.len());
        for _ in 0..rounds {
            rng.shuffle(&mut class);
            targets.extend_from_slice(&class);
        }
        let mut wire = Vec::new();
        let mut ops = Vec::with_capacity(targets.len() / spec.depth);
        for (i, burst) in targets.chunks(spec.depth).enumerate() {
            let wire_start = wire.len();
            for id in burst {
                wire.extend_from_slice(
                    format!("GET /f/{} HTTP/1.1\r\nHost: sut\r\n", id.0).as_bytes(),
                );
                if spec.close {
                    wire.extend_from_slice(b"Connection: close\r\n");
                }
                wire.extend_from_slice(b"\r\n");
            }
            ops.push(Op {
                wire_start,
                wire_end: wire.len(),
                first_target: i * spec.depth,
            });
        }
        RequestStream {
            depth: spec.depth,
            targets,
            wire,
            ops,
        }
    }

    /// The bytes operation `op` writes.
    pub fn bytes_of(&self, op: &Op) -> &[u8] {
        &self.wire[op.wire_start..op.wire_end]
    }

    /// The files operation `op` asks for, in reply order.
    pub fn targets_of(&self, op: &Op) -> &[FileId] {
        &self.targets[op.first_target..op.first_target + self.depth]
    }
}
