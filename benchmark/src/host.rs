//! What the harness asks of the host: process CPU and memory, the
//! filesystem under the data directory, tool versions, and a scratch
//! directory that removes itself.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The benchmark package's own directory (`<checkout>/benchmark`).
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where results and span files go (`benchmark/out`, git-ignored).
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

// The harness reads `/proc`, opens files with `O_DIRECT` and lays out
// `struct rusage` by hand; all three are 64-bit Linux.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark harness supports 64-bit Linux only");

/// Process CPU time so far, `(user, system)` in seconds.
pub fn cpu_seconds() -> (f64, f64) {
    // `struct rusage` on 64-bit Linux: two `timeval`s (seconds and
    // microseconds as `long`) followed by fourteen `long` fields.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable, correctly sized and aligned
    // `struct rusage` for this target (layout above); getrusage writes
    // only within it and has no other preconditions.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    (secs(ru.utime), secs(ru.stime))
}

/// A `/proc/self/status` field in MiB (`VmRSS`, `VmHWM`); 0 if absent.
pub fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Filesystem type holding `path`, from the longest matching mount
/// point in `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then(|| (at.len(), ty.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, ty)| ty)
}

/// Whether a file under `dir` can be opened with `O_DIRECT` — what
/// `LocalFileBackend` needs for its direct path (older tmpfs refuses).
pub fn direct_available(dir: &Path) -> bool {
    use std::os::unix::fs::OpenOptionsExt;
    const O_DIRECT: i32 = 0o40000;
    let probe = dir.join(".direct-probe");
    let ok = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .custom_flags(O_DIRECT)
        .open(&probe)
        .is_ok();
    let _ = std::fs::remove_file(&probe);
    ok
}

/// First line of a command's output, or `"unknown"`.
fn first_line(cmd: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Commit of the checkout, `"unknown"` outside a git repository.
pub fn git_rev() -> String {
    first_line("git", &["rev-parse", "--short=12", "HEAD"], package_dir())
}

/// `rustc --version`.
pub fn rustc_version() -> String {
    first_line("rustc", &["--version"], package_dir())
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(bytes, files)` under `dir`, recursively: the sum of file lengths
/// and the number of regular files.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_usage(&e.path()),
            Ok(m) => (m.len(), 1),
            Err(_) => (0, 0),
        })
        .fold((0, 0), |(b, f), (db, df)| (b + db, f + df))
}

/// A fresh scratch directory, removed when dropped — on the normal path
/// and while a panic unwinds alike.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<parent>/crfs-bench-<pid>-<tag>`, replacing a leftover.
    pub fn create(parent: &Path, tag: &str) -> std::io::Result<ScratchDir> {
        let path = parent.join(format!("crfs-bench-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let (u0, s0) = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let (u1, s1) = cpu_seconds();
        assert!(u1 + s1 > u0 + s0, "{u0}+{s0} -> {u1}+{s1}");
    }

    #[test]
    fn scratch_dir_is_removed_on_drop_and_on_panic() {
        let parent = out_dir();
        std::fs::create_dir_all(&parent).unwrap();
        let kept;
        {
            let d = ScratchDir::create(&parent, "drop").unwrap();
            kept = d.path().to_path_buf();
            std::fs::write(kept.join("f"), b"x").unwrap();
            assert_eq!(dir_usage(&kept), (1, 1));
        }
        assert!(!kept.exists());
        let panicked = std::panic::catch_unwind(|| {
            let d = ScratchDir::create(&out_dir(), "panic").unwrap();
            let p = d.path().to_path_buf();
            std::panic::panic_any(p);
        })
        .unwrap_err();
        let p = panicked.downcast::<PathBuf>().unwrap();
        assert!(!p.exists());
    }

    #[test]
    fn rss_and_fs_type_are_reported() {
        assert!(status_mib("VmRSS") > 0.0);
        assert!(status_mib("VmHWM") >= status_mib("VmRSS") * 0.5);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}
