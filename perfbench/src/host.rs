//! Host metadata and process memory, read from `/proc` and `rustc`.

use std::fs;
use std::process::Command;

/// `key: value` field of a `/proc` file, if present.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// Sysfs cache sizes of CPU 0, as `L1d=48K L2=4096K ...`.
fn cache_sizes() -> String {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        let suffix = match kind.trim() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{}{}={}", level.trim(), suffix, size.trim()));
    }
    out.join(" ")
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// `(key, value)` pairs describing the host the numbers come from.
pub fn metadata() -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("cores", cores.to_string()),
        (
            "cpu",
            proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        ),
        ("caches", cache_sizes()),
        ("rustc", rustc_version()),
    ]
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
