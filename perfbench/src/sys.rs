//! Machine context recorded with every result, and peak memory.
//!
//! Throughput of the same code drifts over time on shared
//! machines, so only results recorded with the same context are
//! comparable. Everything here is read through libc calls, CPUID and
//! child processes, never from files outside the working directory.

use std::fs;
use std::path::Path;
use std::process::Command;

use crate::digest::Digest;

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn getloadavg(loadavg: *mut f64, nelem: i32) -> i32;
}

/// Peak resident set size of this process, MiB (0 if unavailable).
pub fn peak_rss_mb() -> f64 {
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the layout of `struct rusage` on 64-bit
    // Linux (two `timeval`s, then fourteen `long`s), and the pointer is
    // valid for writes for the duration of the call. RUSAGE_SELF = 0.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc == 0 {
        u.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// The 1-minute load average (-1 if unavailable).
pub fn load_avg_1m() -> f64 {
    let mut l = [0f64; 1];
    // SAFETY: the buffer holds exactly the one element requested.
    let n = unsafe { getloadavg(l.as_mut_ptr(), 1) };
    if n == 1 {
        l[0]
    } else {
        -1.0
    }
}

/// The CPU brand string from CPUID.
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        #[allow(unused_unsafe)]
        // SAFETY: CPUID is available on every x86-64 processor; the
        // extended leaves are read only after leaf 0x8000_0000 reports
        // them.
        let brand = unsafe {
            if __cpuid(0x8000_0000).eax < 0x8000_0004 {
                return "unknown".into();
            }
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for w in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&w.to_le_bytes());
                }
            }
            bytes
        };
        String::from_utf8_lossy(&brand)
            .trim_matches(char::from(0))
            .trim()
            .to_owned()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "unknown".into()
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV digest of the workspace sources under `root` (crates, manifests
/// and lock file), so a result names the code it measured even where
/// there is no git metadata.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut d = Digest::default();
    for f in &files {
        if let Ok(bytes) = fs::read(f) {
            d.str(&f.strip_prefix(root).unwrap_or(f).to_string_lossy())
                .bytes(&bytes);
        }
    }
    format!("{:016x}", d.value())
}

/// The context line printed with every result.
pub struct Context {
    pub nproc: usize,
    pub cpu: String,
    pub load_start: f64,
    pub rustc: String,
    pub commit: String,
    pub source: String,
}

impl Context {
    /// Records everything but the end-of-run load average.
    pub fn capture(root: &Path) -> Context {
        Context {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            load_start: load_avg_1m(),
            rustc: command_line("rustc", &["-V"]),
            // Only this checkout's own metadata: `--git-dir` stops git
            // from searching parent directories.
            commit: command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"]),
            source: source_digest(root),
        }
    }
}
