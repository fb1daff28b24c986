//! Pure helpers: order statistics, seed derivation and `/proc` parsing.

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1]`) of `values`, reported only
/// when at least [`SAMPLES_BEYOND`] samples lie beyond its rank; `None`
/// otherwise, so a p95 needs at least 200 samples.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let rank = (q * n as f64).ceil() as usize; // 1-based
    if n - rank < SAMPLES_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed of input `index` of scenario `scenario` under workload seed
/// `workload_seed`. Index 0 seeds the scaled campaign, index `i + 1`
/// replay `i`. Hashed here rather than through the program's RNG, so a
/// change to the program cannot change the benchmark's inputs.
pub fn derive_seed(workload_seed: u64, scenario: &str, index: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in scenario.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    }
    splitmix64(splitmix64(workload_seed ^ h) ^ index)
}

/// Peak resident set size in MiB from the text of `/proc/self/status`
/// (the `VmHWM` line, which the kernel reports in kB).
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: u64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // rank ceil(0.95 * 200) = 190 leaves exactly ten beyond.
        assert_eq!(percentile(&v, 0.95), Some(190.0));
        assert_eq!(percentile(&v[..199], 0.95), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&v, 1.0), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=400).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 0.95), Some(380.0));
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(derive_seed(1, "a", 0), derive_seed(1, "a", 0));
        let seeds = [
            derive_seed(1, "a", 0),
            derive_seed(2, "a", 0),
            derive_seed(1, "b", 0),
            derive_seed(1, "a", 1),
            derive_seed(1, "ab", 0),
        ];
        for (i, x) in seeds.iter().enumerate() {
            for y in &seeds[i + 1..] {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn seed_derivation_is_pinned() {
        // The benchmark's inputs must not drift: this value fixes the
        // hash, and with it every scaled-digest pin.
        assert_eq!(
            derive_seed(0, "", 0),
            splitmix64(splitmix64(0xCBF2_9CE4_8422_2325))
        );
    }

    #[test]
    fn vm_hwm_parses_a_fixed_sample() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  123456 kB\nVmHWM:\t    5120 kB\nVmRSS:\t    4096 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(5.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 4096 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 4096 MB\n"), None);
    }
}
