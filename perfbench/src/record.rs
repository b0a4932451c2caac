//! The run record: host block, source identity and the deterministic
//! fingerprint of a workload, plus the small JSON writer the benchmark
//! prints its results with.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// A JSON object built field by field, in insertion order.
#[derive(Default)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        self.body.push_str(&json_string(key));
        self.body.push_str(": ");
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.body.push_str(&json_string(value));
        self
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    /// A float with all its digits; non-finite values become `null`.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        push_num(&mut self.body, value);
        self
    }

    /// An array of floats, each written as [`Self::num`] writes one.
    pub fn nums(&mut self, key: &str, values: &[f64]) -> &mut Self {
        self.key(key);
        self.body.push('[');
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                self.body.push_str(", ");
            }
            push_num(&mut self.body, v);
        }
        self.body.push(']');
        self
    }

    pub fn obj(&mut self, key: &str, value: &JsonObject) -> &mut Self {
        self.key(key);
        self.body.push_str(&value.render());
        self
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn push_num(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Core count, toolchain, source identity and date of this run.
pub fn host_block() -> JsonObject {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only a checkout's own `.git` names its commit; a parent
    // repository's would name the wrong one.
    let commit = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    let mut host = JsonObject::default();
    host.int("cores", cores as u64)
        .str("rustc", &rustc)
        .str("commit", &commit)
        .str("source_fnv64", &source_fingerprint())
        .str("date", &utc_date());
    host
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(str::to_owned)
}

/// FNV-1a over the paths and contents of the simulator's sources
/// (`crates/`, the workspace manifest and lock file), in sorted path
/// order. It names the program version where no commit is available,
/// so runs of the same sources match across checkouts.
fn source_fingerprint() -> String {
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    files.push("Cargo.toml".into());
    files.push("Cargo.lock".into());
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let Ok(bytes) = std::fs::read(path) else {
            return "unknown".into();
        };
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days conversion).
fn utc_date() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// System-wide CPU tick counters from the first line of `/proc/stat`:
/// time the CPUs ran (user, nice, system, irq, softirq) and time the
/// hypervisor ran something else while a virtual CPU wanted to run
/// (steal).
#[derive(Debug, Clone, Copy)]
struct CpuTicks {
    busy: u64,
    steal: u64,
}

impl CpuTicks {
    fn now() -> Option<CpuTicks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        let (user, nice, system, irq, softirq, steal) = (
            *fields.first()?,
            *fields.get(1)?,
            *fields.get(2)?,
            *fields.get(5)?,
            *fields.get(6)?,
            *fields.get(7)?,
        );
        Some(CpuTicks {
            busy: user + nice + system + irq + softirq,
            steal,
        })
    }

    /// Share of the wanted CPU time since `earlier` that was stolen.
    fn steal_frac_since(&self, earlier: &CpuTicks) -> f64 {
        let steal = self.steal.saturating_sub(earlier.steal) as f64;
        let busy = self.busy.saturating_sub(earlier.busy) as f64;
        if steal + busy == 0.0 {
            0.0
        } else {
            steal / (steal + busy)
        }
    }
}

/// The steal share of successive wall-clock intervals. Steal is time a
/// virtual CPU wanted to run while the hypervisor ran another guest; it
/// slows whatever runs then by an amount the program does not control.
pub struct StealClock {
    mark: Option<CpuTicks>,
}

impl StealClock {
    pub fn start() -> Self {
        StealClock {
            mark: CpuTicks::now(),
        }
    }

    /// Steal share since the previous lap (or the start); `0` where
    /// `/proc/stat` cannot be read.
    pub fn lap(&mut self) -> f64 {
        let now = CpuTicks::now();
        let frac = match (&self.mark, &now) {
            (Some(earlier), Some(later)) => later.steal_frac_since(earlier),
            _ => 0.0,
        };
        self.mark = now;
        frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_object_escapes_and_nests() {
        let mut inner = JsonObject::default();
        inner
            .num("x", 1.5)
            .num("bad", f64::NAN)
            .nums("v", &[0.25, f64::INFINITY]);
        let mut o = JsonObject::default();
        o.str("s", "a\"b\n")
            .int("n", 3)
            .bool("ok", true)
            .obj("in", &inner);
        assert_eq!(
            o.render(),
            r#"{"s": "a\"b\u000a", "n": 3, "ok": true, "in": {"x": 1.5, "bad": null, "v": [0.25, null]}}"#
        );
    }

    #[test]
    fn utc_date_is_well_formed() {
        let d = utc_date();
        assert_eq!(d.len(), 10);
        assert!(d.starts_with("20"));
    }
}
