//! The system under test on the wire: the shipped `puppies-cli serve`
//! binary as a child process on loopback, with its defaults (fsync on,
//! every request access-logged, instrumentation on). Everything the
//! benchmark learns about the server it reads from outside: `/metrics`
//! over HTTP and `/proc/<pid>` for CPU time and peak memory.

use puppies_psp::net::Client;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, 100 on every mainstream Linux configuration).
const CLOCK_TICKS: f64 = 100.0;

pub struct Serve {
    child: Child,
    stdout: Option<std::thread::JoinHandle<()>>,
    pub addr: String,
    pub dir: PathBuf,
    admin: String,
}

impl Serve {
    /// Starts `bin serve` on an ephemeral loopback port with a fresh
    /// store directory and waits until `/readyz` answers 200.
    pub fn start(bin: &Path, dir: &Path) -> Result<Serve, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let stderr = std::fs::File::create(dir.with_extension("stderr"))
            .map_err(|e| format!("serve stderr file: {e}"))?;
        let mut child = Command::new(bin)
            .args(["serve", "--dir"])
            .arg(dir)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(a) = line.strip_prefix("psp-serve listening on ") {
                        break a.trim().to_string();
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("serve exited before listening".into());
                }
            }
        };
        // Keep draining stdout so the child never blocks on a full pipe.
        let stdout = std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
        let mut serve = Serve {
            child,
            stdout: Some(stdout),
            addr,
            dir: dir.to_path_buf(),
            admin: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut c) = Client::connect(&serve.addr) {
                if c.ready().unwrap_or(false) {
                    break;
                }
            }
            if Instant::now() > deadline {
                return Err(format!("serve at {} not ready after 30 s", serve.addr));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        serve.admin = std::fs::read_to_string(dir.join("admin.token"))
            .map_err(|e| format!("admin token: {e}"))?
            .trim()
            .to_string();
        Ok(serve)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// One `/metrics` scrape.
    pub fn scrape(&self) -> Result<Scrape, String> {
        let text = self
            .connect()?
            .metrics_text()
            .map_err(|e| format!("/metrics: {e}"))?;
        Ok(Scrape::parse(&text))
    }

    /// Server CPU seconds so far (user + system).
    pub fn cpu_s(&self) -> f64 {
        proc_cpu_s(&format!("/proc/{}/stat", self.pid()))
    }

    /// Server peak resident memory so far, MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        peak_rss_mib(&format!("/proc/{}/status", self.pid()))
    }

    /// Bytes the store holds on disk: every file of the store directory
    /// except the access log.
    pub fn stored_bytes(&self) -> u64 {
        dir_bytes(&self.dir)
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Graceful drain first; kill if it does not end in time.
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.shutdown(&self.admin);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_file(self.dir.with_extension("stderr"));
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| {
            let path = e.path();
            match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&path),
                Ok(m) if path.file_name().is_some_and(|n| n != "access.log") => m.len(),
                _ => 0,
            }
        })
        .sum()
}

/// CPU seconds (utime + stime) from a `/proc/<pid>/stat` file.
pub fn proc_cpu_s(path: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(path) else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        f.get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (tick(11) + tick(12)) / CLOCK_TICKS
}

/// `VmHWM` from a `/proc/<pid>/status` file, MiB.
pub fn peak_rss_mib(path: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A parsed Prometheus text scrape: plain samples by name, and each
/// histogram's cumulative `(le, count)` buckets.
#[derive(Debug, Default, Clone)]
pub struct Scrape {
    pub values: HashMap<String, f64>,
    pub buckets: HashMap<String, Vec<(f64, f64)>>,
}

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut s = Scrape::default();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(v) = value.parse::<f64>() else {
                continue;
            };
            match key.split_once("_bucket{le=\"") {
                Some((name, le)) => {
                    let le = le.trim_end_matches("\"}");
                    let le = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse().unwrap_or(f64::NAN)
                    };
                    s.buckets.entry(name.to_string()).or_default().push((le, v));
                }
                None => {
                    s.values.insert(key.to_string(), v);
                }
            }
        }
        s
    }

    /// `self[name] − before[name]` (0 for a sample absent from both).
    pub fn delta(&self, before: &Scrape, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
            - before.values.get(name).copied().unwrap_or(0.0)
    }

    /// Median of histogram `name` over the observations made between
    /// `before` and `self`: the upper bound of the first bucket whose
    /// cumulative delta reaches half the count delta.
    pub fn hist_p50_delta(&self, before: &Scrape, name: &str) -> f64 {
        let count = self.delta(before, &format!("{name}_count"));
        if count <= 0.0 {
            return f64::NAN;
        }
        let old: HashMap<u64, f64> = before
            .buckets
            .get(name)
            .map(|b| b.iter().map(|&(le, c)| (le.to_bits(), c)).collect())
            .unwrap_or_default();
        let mut cur = self.buckets.get(name).cloned().unwrap_or_default();
        cur.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Buckets are sparse (occupied cells only): a cell absent from an
        // earlier scrape holds what the next lower cell held then.
        let mut old_sorted: Vec<(f64, f64)> =
            old.iter().map(|(&k, &c)| (f64::from_bits(k), c)).collect();
        old_sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let old_at = |le: f64| {
            old_sorted
                .iter()
                .take_while(|(l, _)| *l <= le)
                .last()
                .map_or(0.0, |&(_, c)| c)
        };
        cur.into_iter()
            .find(|&(le, c)| c - old_at(le) >= count / 2.0)
            .map_or(f64::NAN, |(le, _)| le)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_parses_samples_and_histogram_deltas() {
        let before = Scrape::parse(
            "# TYPE x counter\npsp_cache_hit_total 10\nh_bucket{le=\"5\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n",
        );
        let after = Scrape::parse(
            "psp_cache_hit_total 25\nh_bucket{le=\"5\"} 3\nh_bucket{le=\"9\"} 6\nh_bucket{le=\"20\"} 12\nh_bucket{le=\"+Inf\"} 12\nh_count 12\n",
        );
        assert_eq!(after.delta(&before, "psp_cache_hit_total"), 15.0);
        assert_eq!(after.delta(&before, "absent"), 0.0);
        // 10 new observations: 1 at <=5, 3 at <=9, 6 at <=20 -> median bucket 20.
        assert_eq!(after.hist_p50_delta(&before, "h"), 20.0);
    }
}
