//! Per-job row digests recorded at the default seed.
//!
//! Every job renders its output as one row string that carries every
//! float by its bit pattern. At [`DEFAULT_SEED`] the digest of each row
//! must equal the one recorded under `digests/<workload>.txt`, so a
//! change that alters any simulated output — a single bit of one
//! measurement — fails the run.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The seed whose job rows are pinned by recorded digests.
pub const DEFAULT_SEED: u64 = 2024;

/// FNV-1a 64-bit digest of a row.
pub fn digest(row: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in row.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Where a workload's recorded digests live.
pub fn path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("digests")
        .join(format!("{workload}.txt"))
}

/// Recorded digests by job index.
#[derive(Debug, Default)]
pub struct Recorded {
    by_job: BTreeMap<usize, u64>,
}

impl Recorded {
    /// Parses `<job index> <16 hex digits>` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Recorded, String> {
        let mut by_job = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("line {}: expected `<job> <hex digest>`", n + 1);
            let (job, hex) = line.split_once(' ').ok_or_else(bad)?;
            let job: usize = job.parse().map_err(|_| bad())?;
            let value = u64::from_str_radix(hex.trim(), 16).map_err(|_| bad())?;
            if by_job.insert(job, value).is_some() {
                return Err(format!("line {}: job {job} recorded twice", n + 1));
            }
        }
        Ok(Recorded { by_job })
    }

    /// Renders the digests of `rows` in the format [`Self::parse`] reads.
    pub fn render(workload: &str, rows: &[String]) -> String {
        let mut out = format!("# {workload} job row digests at seed {DEFAULT_SEED}\n");
        for (i, row) in rows.iter().enumerate() {
            out.push_str(&format!("{i} {:016x}\n", digest(row)));
        }
        out
    }

    /// Number of recorded rows.
    pub fn len(&self) -> usize {
        self.by_job.len()
    }

    /// `Some(true)` when job `index`'s row matches its recorded digest,
    /// `Some(false)` on a mismatch, `None` when nothing is recorded.
    pub fn matches(&self, index: usize, row: &str) -> Option<bool> {
        self.by_job.get(&index).map(|&d| d == digest(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<String> {
        vec![
            "SC1-CF1|GGN:3fe0000000000000|best=bfd3333333333333".to_owned(),
            "{\"sweep\":\"fleet_sweep\",\"submitted\":1200,\"completed\":1100}".to_owned(),
        ]
    }

    #[test]
    fn recorded_digests_round_trip() {
        let rows = rows();
        let book = Recorded::parse(&Recorded::render("w", &rows)).expect("renders parse");
        assert_eq!(book.len(), 2);
        assert_eq!(book.matches(0, &rows[0]), Some(true));
        assert_eq!(book.matches(1, &rows[1]), Some(true));
        assert_eq!(book.matches(2, &rows[1]), None);
    }

    #[test]
    fn a_tampered_row_trips_the_check() {
        let rows = rows();
        let book = Recorded::parse(&Recorded::render("w", &rows)).expect("renders parse");
        // One flipped bit of one float, one changed count, one reordered
        // job: each is caught.
        let flipped = rows[0].replace("3fe0000000000000", "3fe0000000000001");
        assert_eq!(book.matches(0, &flipped), Some(false));
        let recount = rows[1].replace("1100", "1101");
        assert_eq!(book.matches(1, &recount), Some(false));
        assert_eq!(book.matches(0, &rows[1]), Some(false));
    }

    #[test]
    fn malformed_digest_files_are_refused() {
        assert!(Recorded::parse("0 zz\n").is_err());
        assert!(Recorded::parse("x 00\n").is_err());
        assert!(Recorded::parse("0 01\n0 02\n").is_err());
        assert!(Recorded::parse("# only a comment\n\n")
            .expect("comments parse")
            .by_job
            .is_empty());
    }
}
