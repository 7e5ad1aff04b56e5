//! The value codec of the journaled [`TileCache`](crate::TileCache):
//! which results are worth keeping, and how one is written to and read
//! back from a journal record.
//!
//! The encoding is deliberately dumb: fixed-width little-endian fields,
//! no varints, one format version byte. A value that fails to decode (a
//! corrupt record that slipped past the journal checksum, or a future
//! format) is `None` — the cache counts and skips it, never trusts it.

use crate::cache::SelectResult;
use crate::model::{EatssError, EatssSolution, SolutionProvenance};
use eatss_affine::tiling::TileConfig;
use eatss_smt::SolverStats;
use std::time::Duration;

/// Version byte opening every encoded value. Bumped to 2 when the
/// warm-start counters joined [`SolverStats`]; version-1 journal entries
/// decode to `None` and are re-solved on the next miss.
const VALUE_VERSION: u8 = 2;
/// Value tags.
const TAG_SOLUTION: u8 = 0;
const TAG_INFEASIBLE: u8 = 1;

/// Whether a result is *committed* — a fully solved selection or a
/// proved infeasibility — and therefore worth keeping. Anytime/fallback
/// solutions (a bigger budget could beat them) and transient errors
/// (faults, exhaustion — retrying may succeed) are not.
pub fn is_committed(result: &SelectResult) -> bool {
    match result {
        Ok(s) => s.provenance == SolutionProvenance::Solved,
        Err(e) => matches!(e, EatssError::Unsatisfiable { .. }),
    }
}

/// Encodes a cache result for the journal. Returns `None` for results
/// that are not [committed](is_committed) and so must not be persisted.
pub fn encode_result(result: &SelectResult) -> Option<Vec<u8>> {
    let mut v = Vec::with_capacity(160);
    v.push(VALUE_VERSION);
    match result {
        Ok(s) if s.provenance == SolutionProvenance::Solved => {
            v.push(TAG_SOLUTION);
            let sizes = s.tiles.sizes();
            v.extend_from_slice(&(sizes.len() as u32).to_le_bytes());
            for &t in sizes {
                v.extend_from_slice(&t.to_le_bytes());
            }
            v.extend_from_slice(&s.objective.to_le_bytes());
            v.extend_from_slice(&s.solver_calls.to_le_bytes());
            v.extend_from_slice(&(s.solve_time.as_micros() as u64).to_le_bytes());
            // The optimal byte: only a proved-optimal solution is written.
            v.push(1);
            for c in s.stats.values() {
                v.extend_from_slice(&c.to_le_bytes());
            }
            Some(v)
        }
        Err(EatssError::Unsatisfiable { reason }) => {
            v.push(TAG_INFEASIBLE);
            v.extend_from_slice(&(reason.len() as u32).to_le_bytes());
            v.extend_from_slice(reason.as_bytes());
            Some(v)
        }
        _ => None,
    }
}

/// Splits the next `N` bytes off the front of `bytes`.
fn take<const N: usize>(bytes: &mut &[u8]) -> Option<[u8; N]> {
    let (head, tail) = bytes.split_first_chunk::<N>()?;
    *bytes = tail;
    Some(*head)
}

/// Decodes a journaled value. `None` means the bytes are not a valid
/// persisted result (corrupt or from the future) — the entry is dropped.
pub fn decode_result(mut bytes: &[u8]) -> Option<SelectResult> {
    let b = &mut bytes;
    let [version, tag] = take(b)?;
    if version != VALUE_VERSION {
        return None;
    }
    let result = match tag {
        TAG_SOLUTION => {
            let n = u32::from_le_bytes(take(b)?) as usize;
            if n > 64 {
                return None; // no kernel is 64-deep; reject garbage early
            }
            let mut sizes = Vec::with_capacity(n);
            for _ in 0..n {
                sizes.push(i64::from_le_bytes(take(b)?));
            }
            let objective = i64::from_le_bytes(take(b)?);
            let solver_calls = u32::from_le_bytes(take(b)?);
            let solve_time = Duration::from_micros(u64::from_le_bytes(take(b)?));
            if take(b)? != [1] {
                return None; // a committed solution is proved optimal
            }
            let mut counters = [0u64; SolverStats::NAMES.len()];
            for slot in &mut counters {
                *slot = u64::from_le_bytes(take(b)?);
            }
            Ok(EatssSolution {
                tiles: TileConfig::new(sizes),
                objective,
                solver_calls,
                solve_time,
                provenance: SolutionProvenance::Solved,
                stats: SolverStats::from_values(counters),
            })
        }
        TAG_INFEASIBLE => {
            let len = u32::from_le_bytes(take(b)?) as usize;
            let (reason, rest) = b.split_at_checked(len)?;
            *b = rest;
            let reason = String::from_utf8(reason.to_vec()).ok()?;
            Err(EatssError::Unsatisfiable { reason })
        }
        _ => return None,
    };
    if !b.is_empty() {
        return None; // trailing bytes ⇒ not something this version wrote
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_codec_round_trips() {
        // What the build before `SolverStats` generated its own codec
        // order wrote for this solution: journals written by any
        // version-2 build must keep replaying, so these bytes may only
        // change together with `VALUE_VERSION`.
        const GOLDEN: &str = "0200030000001000000000000000800100000000000001000000000000001018\
             00000000000009000000d2040000000000000101000000000000000200000000\
             0000000300000000000000040000000000000005000000000000000600000000\
             0000000700000000000000080000000000000009000000000000000a00000000\
             0000000b000000000000000c000000000000000d000000000000000e00000000\
             0000000f00000000000000";
        let solution = EatssSolution {
            tiles: TileConfig::new(vec![16, 384, 1]),
            objective: 6160,
            solver_calls: 9,
            solve_time: Duration::from_micros(1234),
            provenance: SolutionProvenance::Solved,
            stats: SolverStats {
                checks: 1,
                nodes: 2,
                propagations: 3,
                values_pruned: 4,
                backtracks: 5,
                node_limit_hits: 6,
                deadline_hits: 7,
                cancellations: 8,
                bound_prunes: 9,
                hull_rebuilds: 10,
                warm_seeds: 11,
                warm_cut_hits: 12,
                solve_time: Duration::from_micros(13),
                propagation_time: Duration::from_micros(14),
                search_time: Duration::from_micros(15),
            },
        };
        assert!(is_committed(&Ok(solution.clone())));
        let encoded = encode_result(&Ok(solution.clone())).unwrap();
        let hex: String = encoded.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        let decoded = decode_result(&encoded).unwrap().unwrap();
        assert_eq!(decoded.tiles.sizes(), solution.tiles.sizes());
        assert_eq!(decoded.objective, solution.objective);
        assert_eq!(decoded.solver_calls, solution.solver_calls);
        assert_eq!(decoded.solve_time, solution.solve_time);
        assert_eq!(decoded.provenance, solution.provenance);
        assert_eq!(decoded.stats, solution.stats);

        let reason = "WAF 16 exceeds extent 8";
        let infeasible = Err(EatssError::Unsatisfiable {
            reason: reason.into(),
        });
        let decoded = decode_result(&encode_result(&infeasible).unwrap()).unwrap();
        assert_eq!(
            decoded.unwrap_err(),
            EatssError::Unsatisfiable {
                reason: reason.into()
            }
        );
    }

    #[test]
    fn non_committed_results_are_not_persisted() {
        // Anytime and fallback solutions, and transient errors, stay out
        // of the journal.
        let mut anytime = EatssSolution::ppcg_default(3);
        anytime.provenance = SolutionProvenance::SolvedIncomplete;
        for result in [
            Ok(anytime),
            Ok(EatssSolution::ppcg_default(3)),
            Err(EatssError::Exhausted {
                reason: "deadline".into(),
            }),
            Err(EatssError::EmptyProgram),
        ] {
            assert!(!is_committed(&result) && encode_result(&result).is_none());
        }
    }

    /// Only a proved-optimal solution is ever written, so a solution
    /// record whose optimal byte is 0 is not one this version wrote: it
    /// decodes to `None`, which the cache counts as undecodable.
    #[test]
    fn a_solution_record_not_proved_optimal_is_undecodable() {
        let mut solved = EatssSolution::ppcg_default(2);
        solved.provenance = SolutionProvenance::Solved;
        let mut encoded = encode_result(&Ok(solved)).unwrap();
        assert!(decode_result(&encoded).unwrap().is_ok());
        let optimal_byte = encoded.len() - 8 * SolverStats::NAMES.len() - 1;
        assert_eq!(encoded[optimal_byte], 1);
        encoded[optimal_byte] = 0;
        assert!(decode_result(&encoded).is_none());
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_bytes() {
        let encoded =
            encode_result(&Err(EatssError::Unsatisfiable { reason: "r".into() })).unwrap();
        for cut in 0..encoded.len() {
            assert!(decode_result(&encoded[..cut]).is_none(), "cut at {cut}");
        }
        let mut padded = encoded.clone();
        padded.push(0);
        assert!(decode_result(&padded).is_none());
        assert!(decode_result(&[]).is_none());
        assert!(decode_result(&[9, 9, 9]).is_none());
    }
}
