//! The synthetic static content store the real servers serve.
//!
//! A [`ContentStore`] materialises a SURGE [`FileSet`] as an in-memory
//! virtual document tree: file `FileId(i)` lives at path `/f/<i>` and its
//! body is a window into one shared byte arena (no per-file allocation —
//! serving is a bounds-checked slice, like `sendfile` from page cache).

use std::sync::Arc;
use workload::{FileId, FileSet};

/// In-memory static site.
#[derive(Debug)]
pub struct ContentStore {
    sizes: Vec<u64>,
    /// Pre-rendered Last-Modified header values, one per file — the reply
    /// hot path must not re-format a date (or allocate) per response.
    last_modified: Vec<String>,
    /// Shared so [`ArenaSlice`] handles can hold the arena alive without
    /// copying body bytes out of it.
    arena: Arc<[u8]>,
}

/// A cheaply clonable, owned handle to one file's body: the shared arena
/// plus a length. This is what a staged zero-copy response holds instead of
/// a memcpy'd `Vec<u8>` — cloning it is one atomic increment, and the bytes
/// are read straight out of the arena at `write_vectored` time.
#[derive(Debug, Clone)]
pub struct ArenaSlice {
    arena: Arc<[u8]>,
    len: usize,
}

impl ArenaSlice {
    /// The body bytes (a prefix window of the arena).
    pub fn as_bytes(&self) -> &[u8] {
        &self.arena[..self.len]
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl ContentStore {
    /// Build from a SURGE file set. The arena is as large as the biggest
    /// file; every body is served as a prefix slice of it.
    pub fn from_fileset(files: &FileSet) -> ContentStore {
        let sizes: Vec<u64> = files.iter().map(|(_, s)| s).collect();
        let max = sizes.iter().copied().max().unwrap_or(0) as usize;
        // Deterministic, compressible-but-not-trivial filler.
        let arena: Vec<u8> = (0..max)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect();
        let last_modified = (0..sizes.len())
            .map(|i| crate::date::http_date(lm_unix(i as u32)))
            .collect();
        ContentStore {
            sizes,
            last_modified,
            arena: arena.into(),
        }
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Canonical path of a file.
    pub fn path_of(&self, id: FileId) -> String {
        format!("/f/{}", id.0)
    }

    /// Resolve a request target to a file id.
    pub fn resolve(&self, target: &str) -> Option<FileId> {
        let rest = target.strip_prefix("/f/")?;
        // Ignore any query string.
        let rest = rest.split('?').next().unwrap_or(rest);
        let id: u32 = rest.parse().ok()?;
        if (id as usize) < self.sizes.len() {
            Some(FileId(id))
        } else {
            None
        }
    }

    /// Body of a file, as a slice of the shared arena.
    pub fn body(&self, id: FileId) -> &[u8] {
        let len = self.sizes[id.0 as usize] as usize;
        &self.arena[..len]
    }

    /// Body of a file as an owned arena handle — the zero-copy staging
    /// form: no bytes move, the response just keeps the arena alive.
    pub fn body_slice(&self, id: FileId) -> ArenaSlice {
        ArenaSlice {
            arena: Arc::clone(&self.arena),
            len: self.sizes[id.0 as usize] as usize,
        }
    }

    /// Size of a file in bytes.
    pub fn size_of(&self, id: FileId) -> u64 {
        self.sizes[id.0 as usize]
    }

    /// Deterministic Last-Modified timestamp of a file (unix seconds):
    /// paper-era content, staggered per file so conditional-GET tests can
    /// tell documents apart.
    pub fn last_modified_unix(&self, id: FileId) -> u64 {
        lm_unix(id.0)
    }

    /// The Last-Modified header value of a file — pre-rendered at store
    /// build, so a reply costs no date formatting and no allocation.
    pub fn last_modified(&self, id: FileId) -> &str {
        &self.last_modified[id.0 as usize]
    }
}

fn lm_unix(id: u32) -> u64 {
    // 2004-01-01T00:00:00Z = 1072915200; staggered per file so
    // conditional-GET tests can tell documents apart.
    1_072_915_200 + id as u64 * 60
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Rng;
    use workload::SurgeConfig;

    fn store() -> ContentStore {
        let mut rng = Rng::new(5);
        let fs = FileSet::build(
            &SurgeConfig {
                num_files: 50,
                ..SurgeConfig::default()
            },
            &mut rng,
        );
        ContentStore::from_fileset(&fs)
    }

    #[test]
    fn paths_resolve_roundtrip() {
        let s = store();
        for i in 0..s.len() as u32 {
            let id = FileId(i);
            assert_eq!(s.resolve(&s.path_of(id)), Some(id));
        }
    }

    #[test]
    fn unknown_paths_do_not_resolve() {
        let s = store();
        assert_eq!(s.resolve("/"), None);
        assert_eq!(s.resolve("/f/999999"), None);
        assert_eq!(s.resolve("/f/abc"), None);
        assert_eq!(s.resolve("/g/1"), None);
    }

    #[test]
    fn query_strings_ignored() {
        let s = store();
        assert_eq!(s.resolve("/f/3?cache=no"), Some(FileId(3)));
    }

    #[test]
    fn bodies_match_sizes() {
        let s = store();
        for i in 0..s.len() as u32 {
            let id = FileId(i);
            assert_eq!(s.body(id).len() as u64, s.size_of(id));
        }
    }

    #[test]
    fn last_modified_is_stable_and_distinct() {
        let s = store();
        let a = s.last_modified(FileId(0));
        assert_eq!(a, s.last_modified(FileId(0)));
        assert_ne!(a, s.last_modified(FileId(1)));
        assert!(a.ends_with(" GMT"));
        assert!(a.contains("2004"), "{a}");
    }

    #[test]
    fn bodies_share_a_prefix_arena() {
        let s = store();
        let a = s.body(FileId(0));
        let b = s.body(FileId(1));
        let common = a.len().min(b.len());
        assert_eq!(&a[..common], &b[..common]);
    }
}
