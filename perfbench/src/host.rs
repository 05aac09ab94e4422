//! The host record and the one-CPU confinement check.
//!
//! Thread wake-ups on a small multi-CPU host are bimodal, so every
//! workload runs with the whole process confined to one CPU (`run.py`
//! sets the affinity before starting this binary). A process that finds
//! itself allowed on more than one CPU refuses to measure rather than
//! silently measuring a different program.

use std::fs;

/// What the numbers were measured on.
#[derive(Debug)]
pub struct Host {
    /// Online CPUs of the machine (not of the confined process).
    pub nproc: usize,
    pub cpu_model: String,
    pub clocksource: String,
    /// The process's allowed CPU list, as the kernel prints it.
    pub cpus_allowed: String,
}

impl Host {
    /// Reads the host record and checks the confinement.
    pub fn confined() -> Result<Host, String> {
        let status = read("/proc/self/status")?;
        let cpus_allowed = field(&status, "Cpus_allowed_list:")
            .ok_or("no Cpus_allowed_list in /proc/self/status")?;
        if cpus_allowed.contains([',', '-']) {
            return Err(format!(
                "the process may run on CPUs {cpus_allowed}; it must be confined to one \
                 (start it through perfbench/run.py)"
            ));
        }
        let cpuinfo = read("/proc/cpuinfo")?;
        Ok(Host {
            nproc: cpuinfo
                .lines()
                .filter(|l| l.starts_with("processor"))
                .count(),
            cpu_model: field(&cpuinfo, "model name").map_or_else(
                || "unknown".to_string(),
                |v| v.trim_start_matches(':').trim().to_string(),
            ),
            clocksource: read("/sys/devices/system/clocksource/clocksource0/current_clocksource")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            cpus_allowed,
        })
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"clocksource\": \"{}\", \"cpus_allowed\": \"{}\"}}",
            self.nproc,
            self.cpu_model.replace(['"', '\\'], ""),
            self.clocksource,
            self.cpus_allowed
        )
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let kb: f64 = read("/proc/self/status")
        .ok()
        .and_then(|s| field(&s, "VmHWM:"))
        .and_then(|v| v.trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is readable from /proc/self/status");
    kb / 1024.0
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The rest of the first line starting with `key`, trimmed.
fn field(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim().to_string())
}
