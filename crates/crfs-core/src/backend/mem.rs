//! In-memory backend: a thread-safe tree of directories and byte files.
//!
//! Used by unit tests, property tests and examples; also handy as a
//! RAM-disk-like staging target.
//!
//! ## Crash states
//!
//! [`MemBackend::crashing_after`] models a power cut by what was synced,
//! as ALICE and CrashMonkey build crash states from a persistence model.
//! Each file keeps the image its last `sync` made durable and the whole
//! writes and resizes made since (a truncating open is a resize to 0).
//! The power fails at the `n`th write, resize or sync: it and every
//! later one fail, and so does every namespace op after it.
//! [`MemBackend::crash_image`] then builds what a reboot finds: each
//! file's synced image plus a seeded subset of its changes since,
//! applied in order. Namespace ops (create, mkdir, rename, unlink) are
//! durable at once and in order, as if each synced its directory: a file
//! created and never synced comes back, holding a subset of its writes.

use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use super::{normalize_path, parent_of, Backend, BackendFile, OpenOptions};
use crate::transform::frame::fnv1a64;

#[derive(Clone)]
enum Node {
    Dir,
    File(Arc<RwLock<Vec<u8>>>),
}

/// An in-memory [`Backend`].
pub struct MemBackend {
    nodes: Mutex<HashMap<String, Node>>,
    /// Counts fsync calls, so tests can assert durability points. Shared
    /// with every open file handle.
    syncs: Arc<AtomicU64>,
    /// The crash model's record (module docs, "Crash states").
    journal: Option<Arc<Mutex<Journal>>>,
}

/// What the crash model remembers: the steps (writes, resizes, syncs)
/// seen, the step at which the power fails, and per file, by identity
/// (a rename keeps it), what a crash keeps of it.
#[derive(Default)]
struct Journal {
    steps: u64,
    cut: u64,
    files: HashMap<usize, FileJournal>,
}

struct FileJournal {
    /// Holds the file, so that its identity is not reused.
    _data: Arc<RwLock<Vec<u8>>>,
    synced: Vec<u8>,
    since: Vec<Change>,
}

/// A change to a file's bytes since its last sync.
enum Change {
    Write(u64, Vec<u8>),
    SetLen(u64),
}

impl Change {
    fn apply(&self, bytes: &mut Vec<u8>) {
        match self {
            Change::Write(offset, data) => {
                let (at, end) = (*offset as usize, *offset as usize + data.len());
                if bytes.len() < end {
                    bytes.resize(end, 0);
                }
                bytes[at..end].copy_from_slice(data);
            }
            Change::SetLen(len) => bytes.resize(*len as usize, 0),
        }
    }
}

impl Journal {
    /// Fails once the power is out.
    fn alive(&self) -> io::Result<()> {
        match self.steps > self.cut {
            true => Err(io::Error::other("modelled power cut: the backend is down")),
            false => Ok(()),
        }
    }

    /// Counts one step, which fails from the cut on.
    fn step(&mut self) -> io::Result<()> {
        self.steps += 1;
        self.alive()
    }

    fn file(&mut self, data: &Arc<RwLock<Vec<u8>>>) -> &mut FileJournal {
        let key = Arc::as_ptr(data) as usize;
        self.files.entry(key).or_insert_with(|| FileJournal {
            _data: Arc::clone(data),
            synced: Vec::new(),
            since: Vec::new(),
        })
    }

    /// A step that changes `data`'s bytes, recorded if it is taken.
    fn change(&mut self, data: &Arc<RwLock<Vec<u8>>>, change: Change) -> io::Result<()> {
        self.step()?;
        self.file(data).since.push(change);
        Ok(())
    }

    /// A sync of `data`: its bytes now are what a crash keeps.
    fn sync(&mut self, data: &Arc<RwLock<Vec<u8>>>) -> io::Result<()> {
        self.step()?;
        let file = self.file(data);
        file.synced = data.read().clone();
        file.since.clear();
        Ok(())
    }
}

impl Default for MemBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl MemBackend {
    /// Creates an empty filesystem containing only the root directory.
    pub fn new() -> MemBackend {
        let mut nodes = HashMap::new();
        nodes.insert("/".to_string(), Node::Dir);
        MemBackend {
            nodes: Mutex::new(nodes),
            syncs: Arc::new(AtomicU64::new(0)),
            journal: None,
        }
    }

    /// An empty filesystem whose power fails at its `cut`th write,
    /// resize or sync, counted from 0 (module docs, "Crash states");
    /// `u64::MAX` never fails.
    pub fn crashing_after(cut: u64) -> MemBackend {
        let journal = Journal {
            cut,
            ..Journal::default()
        };
        MemBackend {
            journal: Some(Arc::new(Mutex::new(journal))),
            ..MemBackend::new()
        }
    }

    /// Writes, resizes and syncs seen by a [`crashing_after`]
    /// backend, the failed ones included.
    ///
    /// [`crashing_after`]: Self::crashing_after
    pub fn crash_steps(&self) -> u64 {
        self.journal.as_ref().map_or(0, |j| j.lock().steps)
    }

    /// What a reboot after the power cut finds (module docs, "Crash
    /// states"): each file's synced image plus the changes since that
    /// `seed` keeps, a fair coin per change, drawn per path.
    pub fn crash_image(&self, seed: u64) -> MemBackend {
        // The tree first, then the journal: the order a truncating open
        // takes them in.
        let source = self.nodes.lock();
        let journal = self.journal.as_ref().expect("a crashing_after backend");
        let journal = journal.lock();
        let image = MemBackend::new();
        let mut nodes = image.nodes.lock();
        for (path, node) in source.iter() {
            let node = match node {
                Node::Dir => Node::Dir,
                Node::File(data) => {
                    let mut bytes = Vec::new();
                    if let Some(file) = journal.files.get(&(Arc::as_ptr(data) as usize)) {
                        bytes = file.synced.clone();
                        let mut coin = Coin(seed ^ fnv1a64(path.as_bytes()));
                        let kept = file.since.iter().filter(|_| coin.heads());
                        kept.for_each(|change| change.apply(&mut bytes));
                    }
                    Node::File(Arc::new(RwLock::new(bytes)))
                }
            };
            nodes.insert(path.clone(), node);
        }
        drop(nodes);
        image
    }

    /// Fails once a [`crashing_after`](Self::crashing_after) backend's
    /// power is out.
    fn alive(&self) -> io::Result<()> {
        self.journal.as_ref().map_or(Ok(()), |j| j.lock().alive())
    }

    /// Number of `sync` calls observed across all files.
    pub fn sync_count(&self) -> u64 {
        self.syncs.load(Relaxed)
    }

    /// Returns a copy of a file's bytes (test convenience).
    pub fn contents(&self, path: &str) -> io::Result<Vec<u8>> {
        let path = normalize_path(path)?;
        let nodes = self.nodes.lock();
        match nodes.get(&path) {
            Some(Node::File(data)) => Ok(data.read().clone()),
            Some(Node::Dir) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{path:?} is a directory"),
            )),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{path:?} not found"),
            )),
        }
    }

    fn require_parent_dir(nodes: &HashMap<String, Node>, path: &str) -> io::Result<()> {
        let parent = parent_of(path);
        match nodes.get(parent) {
            Some(Node::Dir) => Ok(()),
            Some(Node::File(_)) => Err(io::Error::new(
                io::ErrorKind::NotADirectory,
                format!("parent {parent:?} is a file"),
            )),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("parent directory {parent:?} missing"),
            )),
        }
    }
}

/// A seeded coin per path: splitmix64 over the seed and the path's
/// FNV-1a hash.
struct Coin(u64);

impl Coin {
    fn heads(&mut self) -> bool {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) & 1 == 1
    }
}

impl Backend for MemBackend {
    fn name(&self) -> &str {
        "mem"
    }

    fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
        let path = normalize_path(path)?;
        if opts.write || opts.create {
            self.alive()?;
        }
        let mut nodes = self.nodes.lock();
        let data = match nodes.get(&path) {
            Some(Node::File(d)) => {
                if opts.truncate {
                    if let Some(journal) = &self.journal {
                        journal.lock().change(d, Change::SetLen(0))?;
                    }
                    d.write().clear();
                }
                Arc::clone(d)
            }
            Some(Node::Dir) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{path:?} is a directory"),
                ))
            }
            None => {
                if !opts.create {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("{path:?} not found"),
                    ));
                }
                Self::require_parent_dir(&nodes, &path)?;
                let d = Arc::new(RwLock::new(Vec::new()));
                nodes.insert(path.clone(), Node::File(Arc::clone(&d)));
                d
            }
        };
        Ok(Box::new(MemFile {
            data,
            opts,
            backend_syncs: Arc::clone(&self.syncs),
            journal: self.journal.clone(),
        }))
    }

    fn mkdir(&self, path: &str) -> io::Result<()> {
        let path = normalize_path(path)?;
        self.alive()?;
        let mut nodes = self.nodes.lock();
        if nodes.contains_key(&path) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{path:?} exists"),
            ));
        }
        Self::require_parent_dir(&nodes, &path)?;
        nodes.insert(path, Node::Dir);
        Ok(())
    }

    fn rmdir(&self, path: &str) -> io::Result<()> {
        let path = normalize_path(path)?;
        self.alive()?;
        if path == "/" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot remove root",
            ));
        }
        let mut nodes = self.nodes.lock();
        match nodes.get(&path) {
            Some(Node::Dir) => {}
            Some(Node::File(_)) => {
                return Err(io::Error::new(
                    io::ErrorKind::NotADirectory,
                    format!("{path:?} is a file"),
                ))
            }
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("{path:?} not found"),
                ))
            }
        }
        let prefix = format!("{path}/");
        if nodes.keys().any(|k| k.starts_with(&prefix)) {
            return Err(io::Error::new(
                io::ErrorKind::DirectoryNotEmpty,
                format!("{path:?} not empty"),
            ));
        }
        nodes.remove(&path);
        Ok(())
    }

    fn unlink(&self, path: &str) -> io::Result<()> {
        let path = normalize_path(path)?;
        self.alive()?;
        let mut nodes = self.nodes.lock();
        match nodes.get(&path) {
            Some(Node::File(_)) => {
                nodes.remove(&path);
                Ok(())
            }
            Some(Node::Dir) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{path:?} is a directory"),
            )),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{path:?} not found"),
            )),
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let from = normalize_path(from)?;
        let to = normalize_path(to)?;
        self.alive()?;
        let mut nodes = self.nodes.lock();
        let node = nodes.get(&from).cloned().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("{from:?} not found"))
        })?;
        Self::require_parent_dir(&nodes, &to)?;
        match node {
            Node::File(_) => {
                nodes.remove(&from);
                nodes.insert(to, node);
            }
            Node::Dir => {
                // Move the directory and every descendant.
                let prefix = format!("{from}/");
                let moved: Vec<(String, Node)> = nodes
                    .iter()
                    .filter(|(k, _)| k.as_str() == from || k.starts_with(&prefix))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                for (k, _) in &moved {
                    nodes.remove(k);
                }
                for (k, v) in moved {
                    let new_key = format!("{}{}", to, &k[from.len()..]);
                    nodes.insert(new_key, v);
                }
            }
        }
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        match normalize_path(path) {
            Ok(p) => self.nodes.lock().contains_key(&p),
            Err(_) => false,
        }
    }

    fn file_len(&self, path: &str) -> io::Result<u64> {
        let path = normalize_path(path)?;
        match self.nodes.lock().get(&path) {
            Some(Node::File(d)) => Ok(d.read().len() as u64),
            Some(Node::Dir) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{path:?} is a directory"),
            )),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{path:?} not found"),
            )),
        }
    }

    fn list_dir(&self, path: &str) -> io::Result<Vec<String>> {
        let path = normalize_path(path)?;
        let nodes = self.nodes.lock();
        match nodes.get(&path) {
            Some(Node::Dir) => {}
            Some(Node::File(_)) => {
                return Err(io::Error::new(
                    io::ErrorKind::NotADirectory,
                    format!("{path:?} is a file"),
                ))
            }
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("{path:?} not found"),
                ))
            }
        }
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        let mut names: Vec<String> = nodes
            .keys()
            .filter(|k| k.as_str() != "/" && k.starts_with(&prefix))
            .filter_map(|k| {
                let rest = &k[prefix.len()..];
                (!rest.is_empty() && !rest.contains('/')).then(|| rest.to_string())
            })
            .collect();
        names.sort();
        Ok(names)
    }
}

struct MemFile {
    data: Arc<RwLock<Vec<u8>>>,
    opts: OpenOptions,
    backend_syncs: Arc<AtomicU64>,
    journal: Option<Arc<Mutex<Journal>>>,
}

impl BackendFile for MemFile {
    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        if !self.opts.write {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "file not opened for writing",
            ));
        }
        if let Some(journal) = &self.journal {
            let change = Change::Write(offset, data.to_vec());
            journal.lock().change(&self.data, change)?;
        }
        let mut v = self.data.write();
        let end = offset as usize + data.len();
        if v.len() < end {
            v.resize(end, 0);
        }
        v[offset as usize..end].copy_from_slice(data);
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        if !self.opts.read {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "file not opened for reading",
            ));
        }
        let v = self.data.read();
        let off = offset as usize;
        if off >= v.len() {
            return Ok(0);
        }
        let n = buf.len().min(v.len() - off);
        buf[..n].copy_from_slice(&v[off..off + n]);
        Ok(n)
    }

    fn sync(&self) -> io::Result<()> {
        if let Some(journal) = &self.journal {
            journal.lock().sync(&self.data)?;
        }
        self.backend_syncs.fetch_add(1, Relaxed);
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.data.read().len() as u64)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        if let Some(journal) = &self.journal {
            journal.lock().change(&self.data, Change::SetLen(len))?;
        }
        let mut v = self.data.write();
        v.resize(len as usize, 0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read_roundtrip() {
        let be = MemBackend::new();
        let f = be.open("/a.bin", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"hello").unwrap();
        f.write_at(5, b" world").unwrap();
        let mut buf = vec![0u8; 11];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 11);
        assert_eq!(&buf, b"hello world");
        assert_eq!(be.file_len("/a.bin").unwrap(), 11);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let be = MemBackend::new();
        let f = be.open("/s", OpenOptions::create_truncate()).unwrap();
        f.write_at(10, b"x").unwrap();
        assert_eq!(f.len().unwrap(), 11);
        let mut buf = vec![9u8; 11];
        f.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf[..10], &[0u8; 10]);
        assert_eq!(buf[10], b'x');
    }

    #[test]
    fn read_past_eof_returns_zero() {
        let be = MemBackend::new();
        let f = be.open("/e", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"ab").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(f.read_at(2, &mut buf).unwrap(), 0);
        assert_eq!(f.read_at(1, &mut buf).unwrap(), 1);
    }

    #[test]
    fn open_missing_without_create_fails() {
        let be = MemBackend::new();
        let err = be.open("/nope", OpenOptions::read_only()).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn create_requires_parent_dir() {
        let be = MemBackend::new();
        let err = be
            .open("/no/such/dir/f", OpenOptions::create_truncate())
            .err()
            .unwrap();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        be.mkdir("/no").unwrap();
        be.mkdir("/no/such").unwrap();
        be.mkdir("/no/such/dir").unwrap();
        be.open("/no/such/dir/f", OpenOptions::create_truncate())
            .unwrap();
    }

    #[test]
    fn mkdir_rmdir_semantics() {
        let be = MemBackend::new();
        be.mkdir("/d").unwrap();
        assert!(be.exists("/d"));
        assert_eq!(
            be.mkdir("/d").unwrap_err().kind(),
            io::ErrorKind::AlreadyExists
        );
        be.open("/d/f", OpenOptions::create_truncate()).unwrap();
        assert_eq!(
            be.rmdir("/d").unwrap_err().kind(),
            io::ErrorKind::DirectoryNotEmpty
        );
        be.unlink("/d/f").unwrap();
        be.rmdir("/d").unwrap();
        assert!(!be.exists("/d"));
    }

    #[test]
    fn rename_moves_directory_trees() {
        let be = MemBackend::new();
        be.mkdir("/a").unwrap();
        be.open("/a/f", OpenOptions::create_truncate())
            .unwrap()
            .write_at(0, b"z")
            .unwrap();
        be.rename("/a", "/b").unwrap();
        assert!(!be.exists("/a/f"));
        assert_eq!(be.contents("/b/f").unwrap(), b"z");
    }

    #[test]
    fn list_dir_returns_sorted_names() {
        let be = MemBackend::new();
        be.mkdir("/ckpt").unwrap();
        for n in ["r2", "r0", "r1"] {
            be.open(&format!("/ckpt/{n}"), OpenOptions::create_truncate())
                .unwrap();
        }
        assert_eq!(be.list_dir("/ckpt").unwrap(), vec!["r0", "r1", "r2"]);
        assert_eq!(be.list_dir("/").unwrap(), vec!["ckpt"]);
    }

    #[test]
    fn truncate_on_open_clears_contents() {
        let be = MemBackend::new();
        be.open("/t", OpenOptions::create_truncate())
            .unwrap()
            .write_at(0, b"old data")
            .unwrap();
        let f = be.open("/t", OpenOptions::create_truncate()).unwrap();
        assert_eq!(f.len().unwrap(), 0);
    }

    /// A crash keeps each file's synced image and a seeded subset of
    /// its changes since; the power cut fails the cut step and every
    /// later op, and namespace ops before it are durable.
    #[test]
    fn a_crash_keeps_what_was_synced_and_a_subset_of_the_rest() {
        let be = MemBackend::crashing_after(5);
        be.mkdir("/d").unwrap();
        let f = be.open("/d/f", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"synced").unwrap();
        f.sync().unwrap();
        for (at, byte) in [(0, b"S"), (6, b"+"), (7, b"!")] {
            f.write_at(at, byte).unwrap();
        }
        assert!(f.write_at(8, b"?").is_err(), "the cut step");
        assert!(f.sync().is_err() && be.unlink("/d/f").is_err());
        assert_eq!(be.crash_steps(), 7);
        let mut kept = std::collections::HashSet::new();
        for seed in 0..64 {
            let image = be.crash_image(seed);
            let bytes = image.contents("/d/f").unwrap();
            assert!(bytes.starts_with(b"synced") || bytes.starts_with(b"Synced"));
            assert!(!bytes.ends_with(b"?"), "a failed write landed");
            assert_eq!(be.crash_image(seed).contents("/d/f").unwrap(), bytes);
            kept.insert(bytes);
        }
        // Every subset of the three writes: S, + and ! each kept or not
        // (a lone ! lands past a zero byte).
        assert_eq!(kept.len(), 8, "{kept:?}");
    }

    #[test]
    fn permission_bits_enforced() {
        let be = MemBackend::new();
        be.open("/p", OpenOptions::create_truncate()).unwrap();
        let ro = be.open("/p", OpenOptions::read_only()).unwrap();
        assert_eq!(
            ro.write_at(0, b"x").unwrap_err().kind(),
            io::ErrorKind::PermissionDenied
        );
    }
}
