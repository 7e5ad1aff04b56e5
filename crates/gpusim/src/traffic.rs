//! The memory-hierarchy traffic model.
//!
//! For every reference we derive, from the tile-level footprints supplied
//! by the compiler:
//!
//! 1. **L1 residency** — if the summed per-step footprints of the cached
//!    (`L1_set`) references exceed the L1 carve-out, they thrash and
//!    re-request data from L2 (this is the dominant failure mode of the
//!    `32^d` default tiling on 4-D kernels, Fig. 10/11);
//! 2. **L1→L2 sector counts** — the Nsight
//!    `lts__t_sectors_srcunit_tex_op_read` proxy of Fig. 9; uncoalesced
//!    references pay one 32-byte sector per access;
//! 3. **L2 filtering** — redundant requests (beyond each datum's
//!    compulsory fetch) hit in L2 with a probability given by how much of
//!    the *concurrent wave working set* fits in L2 (block scheduling is
//!    x-first, so a reference invariant along grid-x is shared by a whole
//!    wave);
//! 4. **DRAM traffic** with a row-buffer efficiency factor driven by the
//!    contiguous run length along the fastest array dimension (long
//!    x-tiles stream whole DRAM bursts; short ones waste activations).

use crate::arch::GpuArch;
use crate::occupancy::Occupancy;
use crate::spec::KernelExecSpec;
use std::sync::Arc;

/// Traffic of one reference.
#[derive(Debug, Clone, PartialEq)]
pub struct RefTrafficReport {
    /// Reference name.
    pub name: Arc<str>,
    /// Element requests from L1/SMs to L2 over the whole launch.
    pub l2_request_elems: f64,
    /// 32-byte L2 sectors read over the whole launch.
    pub l2_sectors: f64,
    /// Bytes fetched from DRAM.
    pub dram_bytes: f64,
    /// DRAM row-buffer efficiency in `(0, 1]`.
    pub row_efficiency: f64,
    /// Whether this reference thrashes the L1 carve-out.
    pub l1_thrashed: bool,
}

/// Aggregated traffic of a launch.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficReport {
    /// Total L2 sectors read (the Fig. 9 metric).
    pub l2_sectors_read: f64,
    /// Total L2 sectors written.
    pub l2_sectors_written: f64,
    /// Total bytes moved through L2 (reads + writes).
    pub l2_bytes: f64,
    /// Total bytes moved to/from DRAM.
    pub dram_bytes: f64,
    /// DRAM bytes weighted by inverse row efficiency (time cost).
    pub dram_time_bytes: f64,
    /// DRAM bytes weighted by activation overhead `2 − row_eff`
    /// (energy cost).
    pub dram_energy_bytes: f64,
    /// Bytes served by shared memory.
    pub shared_bytes: f64,
    /// Bytes served by L1 hits.
    pub l1_hit_bytes: f64,
    /// Whether any cached reference thrashes L1.
    pub l1_thrash: bool,
    /// Estimated L2 hit fraction for redundant requests.
    pub l2_hit_fraction: f64,
    /// Per-reference breakdown.
    pub per_ref: Vec<RefTrafficReport>,
}

/// Runs the traffic model.
pub fn model(arch: &GpuArch, spec: &KernelExecSpec, occ: &Occupancy) -> TrafficReport {
    let elem = spec.elem_bytes as f64;
    let sector = arch.sector_bytes() as f64;
    let blocks = spec.grid_blocks.max(0) as f64;

    // --- L1 residency of the cached set -------------------------------
    let cached_step_bytes: f64 = spec
        .refs
        .iter()
        .filter(|r| !r.staged_shared)
        .map(|r| r.tile_footprint_elems as f64 * elem)
        .sum();
    // Each resident block competes for the same L1.
    let resident_blocks = occ.blocks_per_sm.max(1) as f64;
    let l1_pressure = cached_step_bytes * resident_blocks / (spec.l1_avail_bytes.max(1) as f64);
    let l1_thrash = l1_pressure > 1.0;

    // --- concurrent wave working set (for L2 filtering) ---------------
    let wave_blocks = (arch.sm_count as f64 * occ.blocks_per_sm as f64)
        .min(blocks)
        .max(1.0);
    let grid_x = spec.grid_x_blocks.max(1) as f64;
    let mut wave_ws_bytes = 0.0;
    for r in &spec.refs {
        let wx = if r.varies_block_x {
            grid_x.min(wave_blocks)
        } else {
            1.0
        };
        let wy = if r.varies_block_y {
            (wave_blocks / grid_x).ceil().max(1.0)
        } else {
            1.0
        };
        let distinct = (wx * wy).min(wave_blocks);
        let ws = (r.tile_footprint_elems as f64 * elem * distinct)
            .min(r.total_footprint_elems as f64 * elem);
        wave_ws_bytes += ws;
    }
    let l2_hit_fraction = if wave_ws_bytes <= 0.0 {
        1.0
    } else {
        (arch.l2_bytes as f64 / wave_ws_bytes).clamp(0.0, 1.0)
    };

    // --- per-reference traffic -----------------------------------------
    let mut per_ref = Vec::with_capacity(spec.refs.len());
    let mut l2_sectors_read = 0.0;
    let mut l2_sectors_written = 0.0;
    let mut dram_bytes = 0.0;
    let mut dram_time_bytes = 0.0;
    let mut dram_energy_bytes = 0.0;
    let mut shared_bytes = 0.0;
    let mut l1_hit_bytes = 0.0;

    for (i, r) in spec.refs.iter().enumerate() {
        let accesses = r.accesses_per_block.max(0) as f64;
        let footprint = r.block_footprint_elems.max(0) as f64;
        // Only the first reference group of an array pays its compulsory
        // DRAM traffic; sibling groups (stencil halos) touch the same
        // lines and are satisfied by L2.
        let first_of_array = !spec.refs[..i].iter().any(|p| p.name == r.name);

        // Requests that escape the SM towards L2.
        let (request_elems, thrashed) = if r.staged_shared {
            // Cooperative staging loads each element of the block footprint
            // exactly once; reuse is served by shared memory.
            shared_bytes += (accesses - footprint).max(0.0) * elem * blocks;
            (footprint, false)
        } else if !l1_thrash {
            // L1-resident: each distinct element is fetched once per block;
            // the remaining accesses hit in L1.
            l1_hit_bytes += (accesses - footprint).max(0.0) * elem * blocks;
            (footprint, false)
        } else {
            // Thrashing: re-fetches scale with the overcommit ratio, capped
            // by the raw access count.
            let refetch = (footprint * l1_pressure).min(accesses);
            l1_hit_bytes += (accesses - refetch).max(0.0) * elem * blocks;
            (refetch.max(footprint), true)
        };
        let total_requests = request_elems * blocks;

        // Sector counting: coalesced warps move elem-packed sectors;
        // uncoalesced accesses pay a whole sector each.
        let sectors = if r.coalesced {
            total_requests * elem / sector
        } else {
            total_requests
        };
        if r.is_write {
            l2_sectors_written += sectors;
        } else {
            l2_sectors_read += sectors;
        }

        // DRAM: compulsory once per datum (bounded by what is actually
        // requested, and claimed by the array's first group); redundant
        // requests miss L2 with probability (1 − hit).
        let compulsory = if first_of_array {
            (r.total_footprint_elems.max(0) as f64).min(total_requests)
        } else {
            0.0
        };
        let redundant = (total_requests - compulsory).max(0.0);
        let miss_elems = compulsory + redundant * (1.0 - l2_hit_fraction);
        let amplification = if r.coalesced { 1.0 } else { sector / elem };
        let ref_dram_bytes = miss_elems * elem * amplification;

        let row_eff = ((r.contiguous_x_elems.max(1) as f64 * elem) / arch.dram_row_chunk_bytes)
            .clamp(1.0 / 16.0, 1.0);
        dram_bytes += ref_dram_bytes;
        dram_time_bytes += ref_dram_bytes / row_eff.max(0.25);
        dram_energy_bytes += ref_dram_bytes * (2.0 - row_eff);

        per_ref.push(RefTrafficReport {
            name: Arc::clone(&r.name),
            l2_request_elems: total_requests,
            l2_sectors: sectors,
            dram_bytes: ref_dram_bytes,
            row_efficiency: row_eff,
            l1_thrashed: thrashed,
        });
    }

    // Register spills add local-memory traffic through L1/L2 on every
    // point iteration: a thread covering many points keeps reloading its
    // spilled working set (the classic local-memory performance cliff).
    if occ.register_spill {
        let spilled = occ.regs_per_thread.saturating_sub(occ.regs_granted).min(32) as f64;
        let spill_bytes = spec.total_threads() as f64
            * spec.points_per_thread.max(1) as f64
            * spilled
            * 4.0
            * 2.0; // store + reload
        l2_sectors_read += spill_bytes / sector;
        dram_time_bytes += spill_bytes * 0.25;
        dram_energy_bytes += spill_bytes * 0.25;
        dram_bytes += spill_bytes * 0.25;
    }

    let l2_bytes = (l2_sectors_read + l2_sectors_written) * sector;
    TrafficReport {
        l2_sectors_read,
        l2_sectors_written,
        l2_bytes,
        dram_bytes,
        dram_time_bytes,
        dram_energy_bytes,
        shared_bytes,
        l1_hit_bytes,
        l1_thrash,
        l2_hit_fraction,
        per_ref,
    }
}

#[allow(clippy::too_many_arguments)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::occupancy;
    use crate::spec::RefAccess;

    fn base_spec() -> KernelExecSpec {
        KernelExecSpec {
            name: "traffic".into(),
            grid_blocks: 1000,
            grid_x_blocks: 100,
            threads_per_block: 256,
            points_per_thread: 1,
            serial_steps_per_block: 10,
            flops_total: 1e9,
            elem_bytes: 8,
            shared_bytes_per_block: 0,
            l1_avail_bytes: 96 * 1024,
            num_refs: 1,
            refs: vec![],
        }
    }

    fn run(spec: &KernelExecSpec) -> TrafficReport {
        let arch = GpuArch::ga100();
        let occ = occupancy(&arch, spec);
        model(&arch, spec, &occ)
    }

    #[test]
    fn resident_ref_requests_footprint_once_per_block() {
        let mut spec = base_spec();
        spec.refs = vec![RefAccess {
            name: "A".into(),
            staged_shared: false,
            tile_footprint_elems: 1024,
            block_footprint_elems: 1024,
            total_footprint_elems: 1_000_000,
            accesses_per_block: 1024 * 50,
            coalesced: true,
            contiguous_x_elems: 128,
            varies_block_x: true,
            varies_block_y: true,
            is_write: false,
        }];
        let t = run(&spec);
        assert!(!t.l1_thrash);
        let expected_requests = 1024.0 * 1000.0;
        assert!((t.per_ref[0].l2_request_elems - expected_requests).abs() < 1.0);
        // 49/50 of accesses hit in L1.
        assert!(t.l1_hit_bytes > 0.0);
        // Coalesced FP64: 4 elements per 32B sector.
        assert!((t.per_ref[0].l2_sectors - expected_requests / 4.0).abs() < 1.0);
    }

    #[test]
    fn uncoalesced_pays_sector_per_access() {
        let mut spec = base_spec();
        let mk = |coalesced| RefAccess {
            name: "A".into(),
            staged_shared: false,
            tile_footprint_elems: 1024,
            block_footprint_elems: 1024,
            total_footprint_elems: 1_000_000,
            accesses_per_block: 1024,
            coalesced,
            contiguous_x_elems: 128,
            varies_block_x: true,
            varies_block_y: true,
            is_write: false,
        };
        spec.refs = vec![mk(true)];
        let coalesced = run(&spec);
        spec.refs = vec![mk(false)];
        let uncoalesced = run(&spec);
        assert!(
            uncoalesced.l2_sectors_read > 3.9 * coalesced.l2_sectors_read,
            "FP64: 4x sector amplification"
        );
        assert!(uncoalesced.dram_bytes > coalesced.dram_bytes);
    }

    #[test]
    fn thrashing_inflates_requests() {
        let mut spec = base_spec();
        let mk = |tile_elems: i64| RefAccess {
            name: "A".into(),
            staged_shared: false,
            tile_footprint_elems: tile_elems,
            block_footprint_elems: tile_elems,
            total_footprint_elems: 100_000_000,
            accesses_per_block: tile_elems * 100,
            coalesced: true,
            contiguous_x_elems: 128,
            varies_block_x: true,
            varies_block_y: true,
            is_write: false,
        };
        // 4 KiB per step: fits.
        spec.refs = vec![mk(512)];
        let small = run(&spec);
        assert!(!small.l1_thrash);
        // 2 MiB per step: thrashes the 96 KiB carve-out.
        spec.refs = vec![mk(256 * 1024)];
        let big = run(&spec);
        assert!(big.l1_thrash);
        assert!(big.per_ref[0].l1_thrashed);
        let small_ratio = small.per_ref[0].l2_request_elems / (512.0 * 1000.0);
        let big_ratio = big.per_ref[0].l2_request_elems / (256.0 * 1024.0 * 1000.0);
        assert!(big_ratio > 2.0 * small_ratio);
    }

    #[test]
    fn staged_refs_serve_reuse_from_shared() {
        let mut spec = base_spec();
        spec.shared_bytes_per_block = 8 * 1024;
        spec.refs = vec![RefAccess {
            name: "In".into(),
            staged_shared: true,
            tile_footprint_elems: 1024,
            block_footprint_elems: 10_240,
            total_footprint_elems: 1_000_000,
            accesses_per_block: 10_240 * 32,
            coalesced: true,
            contiguous_x_elems: 32,
            varies_block_x: false,
            varies_block_y: true,
            is_write: false,
        }];
        let t = run(&spec);
        assert!(t.shared_bytes > 0.0);
        // Global-side requests are just the block footprint.
        assert!((t.per_ref[0].l2_request_elems - 10_240.0 * 1000.0).abs() < 1.0);
    }

    #[test]
    fn l2_filtering_bounds_dram_by_compulsory() {
        let mut spec = base_spec();
        // Tiny working set: wave ws fits easily in 40 MiB L2.
        spec.refs = vec![RefAccess {
            name: "B".into(),
            staged_shared: false,
            tile_footprint_elems: 512,
            block_footprint_elems: 512,
            total_footprint_elems: 4096, // shared across blocks
            accesses_per_block: 512,
            coalesced: true,
            contiguous_x_elems: 512,
            varies_block_x: false,
            varies_block_y: false,
            is_write: false,
        }];
        let t = run(&spec);
        assert!((t.l2_hit_fraction - 1.0).abs() < 1e-9);
        // DRAM sees only the compulsory 4096 elements.
        assert!((t.per_ref[0].dram_bytes - 4096.0 * 8.0).abs() < 1.0);
    }

    #[test]
    fn row_efficiency_rewards_long_contiguous_tiles() {
        let mut spec = base_spec();
        let mk = |contig: i64| RefAccess {
            name: "A".into(),
            staged_shared: false,
            tile_footprint_elems: 4096,
            block_footprint_elems: 4096,
            total_footprint_elems: 1_000_000_000,
            accesses_per_block: 4096,
            coalesced: true,
            contiguous_x_elems: contig,
            varies_block_x: true,
            varies_block_y: true,
            is_write: false,
        };
        spec.refs = vec![mk(16)]; // 128 B runs: poor
        let short = run(&spec);
        spec.refs = vec![mk(256)]; // 2 KiB runs: full bursts
        let long = run(&spec);
        assert!(short.dram_time_bytes > long.dram_time_bytes);
        assert!(short.dram_energy_bytes > long.dram_energy_bytes);
        assert!((long.per_ref[0].row_efficiency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn writes_count_in_written_sectors() {
        let mut spec = base_spec();
        let mut w = RefAccess::streaming("out", 1_000_000, 1024, true);
        w.is_write = true;
        spec.refs = vec![w];
        let t = run(&spec);
        assert!(t.l2_sectors_written > 0.0);
        assert_eq!(t.l2_sectors_read, 0.0);
    }

    #[test]
    fn spills_add_traffic() {
        let mut spec = base_spec();
        spec.threads_per_block = 1024; // only 64 regs/thread affordable
        spec.refs = vec![RefAccess::streaming("a", 1_000_000, 1024, true)];
        let base = run(&spec);
        spec.points_per_thread = 128;
        spec.num_refs = 8;
        let spilled = run(&spec);
        assert!(spilled.l2_sectors_read > base.l2_sectors_read);
    }
}
