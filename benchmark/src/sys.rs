//! What the operating system says about this process and this machine:
//! CPU time, peak resident memory, and the hardware line printed next to
//! every number.

use std::time::{SystemTime, UNIX_EPOCH};

/// Kernel clock ticks per second in `/proc/self/stat`. `USER_HZ` has been
/// 100 on every mainstream Linux architecture for decades; `std` has no
/// `sysconf`, so it is a constant here and named in the README.
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, all threads) in microseconds, from
/// `/proc/self/stat`; `None` where `/proc` is unavailable.
pub fn cpu_time_us() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After ")" comes field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ * 1e6)
}

/// Peak resident set size (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `nproc=<n> date=<yyyy-mm-dd> rustc=<version>` — printed with every
/// result, because a number without its machine is not a measurement.
pub fn hardware_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "rustc unknown".to_string());
    format!("nproc={nproc} date={} {rustc}", today_utc())
}

/// Today's UTC date from the system clock (civil-from-days, H. Hinnant).
fn today_utc() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

fn civil_from_days(days: i64) -> (i64, i64, i64) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (yoe + era * 400 + i64::from(m <= 2), m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
        assert_eq!(civil_from_days(20_726), (2026, 9, 30));
    }

    #[test]
    fn proc_readings_are_positive_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(cpu_time_us().is_some());
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
        assert!(hardware_line().starts_with("nproc="));
    }
}
