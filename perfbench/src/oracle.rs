//! Output checking: reference outputs, their digests, the committed
//! digest list, and the attempted/failed tally every workload reports.

use std::sync::Arc;

use ccm2_support::defs::DefProvider as _;
use ccm2_support::hash::StableHasher;
use ccm2_support::Interner;
use ccm2_workload::GeneratedModule;

/// A compile result in the interner-independent form every layer can
/// produce: the encoded object image and the rendered diagnostics.
pub type Output = (Option<Vec<u8>>, Vec<String>);

/// Digests recorded by `--record-digests` for the default seeds, one
/// `workload seed seconds key digest` line each.
const COMMITTED: &str = include_str!("../digests.txt");

/// The reference output of `m`: the sequential compiler's.
pub fn seq_output(m: &GeneratedModule) -> Output {
    let out = ccm2_seq::compile(&m.source, &m.defs);
    ccm2_incr::comparable_output(
        out.image.as_ref(),
        &out.diagnostics,
        &out.sources,
        &out.interner,
    )
}

/// A cold concurrent compile's output under `options` (fresh interner,
/// no store).
pub fn concurrent_output(m: &GeneratedModule, options: ccm2::Options) -> Output {
    let out = ccm2::compile_concurrent(
        &m.source,
        Arc::new(m.defs.clone()),
        Arc::new(Interner::new()),
        options,
    );
    ccm2_incr::comparable_output(
        out.image.as_ref(),
        &out.diagnostics,
        &out.sources,
        &out.interner,
    )
}

/// A 64-bit digest of one output.
pub fn output_digest(out: &Output) -> u64 {
    let mut h = StableHasher::new();
    match &out.0 {
        Some(bytes) => {
            h.write_u32(1);
            h.write(bytes);
        }
        None => h.write_u32(0),
    }
    for d in &out.1 {
        h.write_str(d);
    }
    h.finish().fold64()
}

/// A digest of generated inputs — the modules and the operations run
/// on them, as text — so two machines can confirm they ran the same
/// workload.
pub fn inputs_digest<'a>(
    modules: impl IntoIterator<Item = &'a GeneratedModule>,
    schedule: &str,
) -> String {
    let mut h = StableHasher::new();
    h.write_str(schedule);
    for m in modules {
        h.write_str(&m.name);
        h.write_str(&m.source);
        for (name, text) in m.defs.all_definitions().unwrap_or_default() {
            h.write_str(&name);
            h.write_str(&text);
        }
    }
    format!("{:016x}", h.finish().fold64())
}

/// Operations attempted and failed, with a note per failure.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed when `ok` is false.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(20);
    }
}

/// The committed `(key, digest)` pairs of one run; empty when none were
/// recorded for its workload, seed and length.
pub fn committed(workload: &str, seed: u64, seconds: u64) -> Vec<(String, u64)> {
    parse_digests(COMMITTED, workload, seed, seconds)
}

fn parse_digests(text: &str, workload: &str, seed: u64, seconds: u64) -> Vec<(String, u64)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 5, "malformed digest line `{l}`");
            let matches = f[0] == workload
                && f[1].parse::<u64>().expect("seed") == seed
                && f[2].parse::<u64>().expect("seconds") == seconds;
            matches.then(|| {
                let digest = u64::from_str_radix(f[4], 16).expect("hex digest");
                (f[3].to_string(), digest)
            })
        })
        .collect()
}

/// Checks one run's reference digests against its committed digests.
/// Each committed entry is one attempted operation, failed when the
/// reference digest differs or is missing.
pub fn check_committed(
    committed: &[(String, u64)],
    reference: &[(String, u64)],
    tally: &mut Tally,
) {
    for (key, want) in committed {
        let got = reference.iter().find(|(k, _)| k == key).map(|(_, d)| *d);
        tally.record(got == Some(*want), || match got {
            Some(got) => {
                format!("committed digest of {key}: {want:016x}, reference output {got:016x}")
            }
            None => format!("committed digest of {key}: no reference output"),
        });
    }
}

/// Formats `--record-digests` lines for one run.
pub fn digest_lines(
    workload: &str,
    seed: u64,
    seconds: u64,
    reference: &[(String, u64)],
) -> String {
    reference
        .iter()
        .map(|(key, d)| format!("{workload} {seed} {seconds} {key} {d:016x}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_lines_round_trip() {
        let reference = vec![("A".to_string(), 0x11), ("B".to_string(), 0x22)];
        let text = digest_lines("w", 3, 10, &reference);
        assert_eq!(parse_digests(&text, "w", 3, 10), reference);
        assert!(parse_digests(&text, "w", 4, 10).is_empty());
    }
}
