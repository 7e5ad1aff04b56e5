//! Property test: any `DeviceProfile` — physical or not — survives
//! pretty-print → re-parse bit-identically.
//! (Validation is a separate concern; the printer/parser pair must be a
//! lossless codec on its own.)

use eatss_gpusim::{DeviceProfile, GpuArch, PowerCoefficients};
use proptest::prelude::*;

/// Names chosen to stress escaping: quotes, hashes, backslashes, tabs
/// and non-ASCII.
const NAMES: &[&str] = &[
    "GA100",
    "dev \"quoted\"",
    "hash#device",
    "back\\slash",
    "tab\there",
    "π-device",
    "a",
];

/// Maps raw bits to a finite positive double (full exponent range).
fn finite_pos(bits: u64) -> f64 {
    let v = f64::from_bits(bits & 0x7FFF_FFFF_FFFF_FFFF);
    if v.is_finite() && v > 0.0 {
        v
    } else {
        (bits % 100_000) as f64 + 0.5
    }
}

fn arch_from_words(name: &str, w: &[u64]) -> GpuArch {
    GpuArch {
        name: name.to_owned(),
        sm_count: w[0] as u32,
        max_threads_per_block: w[1] as u32,
        threads_per_warp: w[2] as u32,
        max_threads_per_sm: w[3] as u32,
        max_blocks_per_sm: w[4] as u32,
        regs_per_sm: w[5] as u32,
        regs_per_thread: w[6] as u32,
        // Cap at 2^53 - the largest range the JSON number round trip
        // represents exactly (and the loader's documented limit).
        l1_shared_bytes: w[7] & ((1 << 53) - 1),
        max_shared_per_block: w[8] & ((1 << 53) - 1),
        l2_bytes: w[9] & ((1 << 53) - 1),
        dram_bytes: w[10] & ((1 << 53) - 1),
        peak_fp32_gflops: finite_pos(w[11]),
        peak_fp64_gflops: finite_pos(w[12]),
        peak_fp64_tensor_gflops: finite_pos(w[13]),
        dram_bw_gbs: finite_pos(w[14]),
        l2_bw_gbs: finite_pos(w[15]),
        shared_bw_gbs: finite_pos(w[16]),
        tdp_w: finite_pos(w[17]),
        launch_overhead_s: finite_pos(w[18]),
        barrier_overhead_s: finite_pos(w[19]),
        dram_row_chunk_bytes: finite_pos(w[20]),
        power_ramp_tau_s: finite_pos(w[21]),
        power: PowerCoefficients {
            p_constant_w: finite_pos(w[22]),
            p_static_base_w: finite_pos(w[23]),
            p_static_active_w: finite_pos(w[24]),
            p_sm_dynamic_w: finite_pos(w[25]),
            e_flop_j_per_gflop: finite_pos(w[26]),
            e_l2_j_per_gb: finite_pos(w[27]),
            e_dram_j_per_gb: finite_pos(w[28]),
            e_shared_j_per_gb: finite_pos(w[29]),
        },
    }
}

fn float_bits(a: &GpuArch) -> [u64; 19] {
    let p = &a.power;
    [
        a.peak_fp32_gflops,
        a.peak_fp64_gflops,
        a.peak_fp64_tensor_gflops,
        a.dram_bw_gbs,
        a.l2_bw_gbs,
        a.shared_bw_gbs,
        a.tdp_w,
        a.launch_overhead_s,
        a.barrier_overhead_s,
        a.dram_row_chunk_bytes,
        a.power_ramp_tau_s,
        p.p_constant_w,
        p.p_static_base_w,
        p.p_static_active_w,
        p.p_sm_dynamic_w,
        p.e_flop_j_per_gflop,
        p.e_l2_j_per_gb,
        p.e_dram_j_per_gb,
        p.e_shared_j_per_gb,
    ]
    .map(f64::to_bits)
}

fn int_fields(a: &GpuArch) -> [u64; 11] {
    [
        a.sm_count as u64,
        a.max_threads_per_block as u64,
        a.threads_per_warp as u64,
        a.max_threads_per_sm as u64,
        a.max_blocks_per_sm as u64,
        a.regs_per_sm as u64,
        a.regs_per_thread as u64,
        a.l1_shared_bytes,
        a.max_shared_per_block,
        a.l2_bytes,
        a.dram_bytes,
    ]
}

fn assert_bit_identical(a: &GpuArch, b: &GpuArch) {
    assert_eq!(a.name, b.name);
    assert_eq!(int_fields(a), int_fields(b));
    assert_eq!(float_bits(a), float_bits(b));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn pretty_print_reparse_is_a_fixpoint(
        words in prop::collection::vec(0u64..=u64::MAX, 30usize),
        name_idx in 0usize..NAMES.len(),
    ) {
        let profile = DeviceProfile::new(arch_from_words(NAMES[name_idx], &words));

        let json = profile.to_json_pretty();
        let from_json = DeviceProfile::from_json(&json).expect("printer output parses");
        assert_bit_identical(profile.arch(), from_json.arch());
        // Fixpoint: printing the re-parse reproduces the bytes.
        assert_eq!(from_json.to_json_pretty(), json);
    }
}
