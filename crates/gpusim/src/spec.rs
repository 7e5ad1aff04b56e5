//! Kernel execution specifications — the simulator's input language.
//!
//! A [`KernelExecSpec`] summarizes what a tiled GPU kernel does:
//! launch geometry, arithmetic, and one [`RefAccess`] per distinct array
//! reference describing footprints, access counts, coalescing and
//! block-level sharing. The PPCG stand-in (`eatss-ppcg`) lowers a tiled
//! affine kernel to this form.

/// Per-reference memory behaviour within one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct RefAccess {
    /// Array name (diagnostics only).
    pub name: String,
    /// Staged through software-managed shared memory (the `SH_set` of
    /// §IV-E) rather than relying on the L1 cache.
    pub staged_shared: bool,
    /// Distinct elements touched per block *per serial tile step* (the
    /// inner working set that must stay L1/shared resident).
    pub tile_footprint_elems: i64,
    /// Distinct elements touched per block over its whole lifetime.
    pub block_footprint_elems: i64,
    /// Distinct elements touched by the whole kernel.
    pub total_footprint_elems: i64,
    /// Dynamic element accesses issued by all threads of one block.
    pub accesses_per_block: i64,
    /// Whether consecutive threads access consecutive elements (coalesced
    /// along the thread-x dimension).
    pub coalesced: bool,
    /// Contiguous run length (elements) along the fastest-varying array
    /// dimension covered by one tile — drives DRAM row-buffer efficiency.
    pub contiguous_x_elems: i64,
    /// Whether different block-x indices touch different data.
    pub varies_block_x: bool,
    /// Whether different block-y indices touch different data.
    pub varies_block_y: bool,
    /// Whether the reference is written.
    pub is_write: bool,
}

impl RefAccess {
    /// Convenience constructor for a purely streaming reference (each
    /// block touches its own contiguous chunk exactly once) — useful for
    /// tests and simple kernels. The result is saturated: a `per_block`
    /// exceeding `total_elems` clamps the footprints to the array size
    /// (the extra accesses are repeats, not new elements).
    pub fn streaming(name: &str, total_elems: i64, per_block: i64, coalesced: bool) -> Self {
        RefAccess {
            name: name.to_owned(),
            staged_shared: false,
            tile_footprint_elems: per_block,
            block_footprint_elems: per_block,
            total_footprint_elems: total_elems,
            accesses_per_block: per_block,
            coalesced,
            contiguous_x_elems: per_block,
            varies_block_x: true,
            varies_block_y: true,
            is_write: false,
        }
        .saturated()
    }

    /// Rejects references no consistent kernel can produce: negative
    /// footprints, access counts or contiguity runs.
    ///
    /// # Errors
    ///
    /// A message naming the first negative field.
    pub fn validate(&self) -> Result<(), String> {
        for (field, v) in [
            ("tile_footprint_elems", self.tile_footprint_elems),
            ("block_footprint_elems", self.block_footprint_elems),
            ("total_footprint_elems", self.total_footprint_elems),
            ("accesses_per_block", self.accesses_per_block),
            ("contiguous_x_elems", self.contiguous_x_elems),
        ] {
            if v < 0 {
                return Err(format!("reference `{}`: {field} is negative ({v})", self.name));
            }
        }
        Ok(())
    }

    /// Whether [`RefAccess::saturated`] would change nothing.
    pub fn is_saturated(&self) -> bool {
        self.block_footprint_elems <= self.total_footprint_elems
            && self.tile_footprint_elems <= self.block_footprint_elems
            && self.contiguous_x_elems <= self.total_footprint_elems.max(1)
    }

    /// Restores the footprint containment chain a real kernel obeys:
    /// a block cannot touch more distinct elements than the whole kernel,
    /// one serial step cannot touch more than the block's lifetime, and a
    /// contiguous run cannot outrun the array. Access *counts* are left
    /// alone — re-touching an element is repetition, not new footprint.
    pub fn saturated(&self) -> RefAccess {
        let mut r = self.clone();
        r.block_footprint_elems = r.block_footprint_elems.min(r.total_footprint_elems);
        r.tile_footprint_elems = r.tile_footprint_elems.min(r.block_footprint_elems);
        r.contiguous_x_elems = r.contiguous_x_elems.min(r.total_footprint_elems.max(1));
        r
    }
}

/// A [`KernelExecSpec`] the simulator refuses to price: the launch
/// geometry or a reference is structurally impossible (not merely
/// un-saturated), so any energy number would be fiction.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// The offending kernel's name.
    pub kernel: String,
    /// What is inconsistent.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inconsistent spec for `{}`: {}", self.kernel, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Everything the simulator needs to know about one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelExecSpec {
    /// Kernel name (diagnostics and noise seeding).
    pub name: String,
    /// Number of thread blocks launched.
    pub grid_blocks: i64,
    /// Extent of the fastest-varying (x) grid dimension in blocks; block
    /// ids are scheduled x-first, so this controls which tiles coexist in
    /// a wave. Use `grid_blocks` for 1-D grids.
    pub grid_x_blocks: i64,
    /// Threads per block (≤ `T_P_B`).
    pub threads_per_block: i64,
    /// Iteration points each thread covers per serial step (PPCG's
    /// point-loop multiplicity when the tile exceeds the block).
    pub points_per_thread: i64,
    /// Serial tile steps executed by each block (e.g. `K / T_k` for
    /// matmul) — each ends with a block barrier when staging is used.
    pub serial_steps_per_block: i64,
    /// Total floating-point operations of the launch.
    pub flops_total: f64,
    /// Element width in bytes (4 = FP32, 8 = FP64).
    pub elem_bytes: u8,
    /// Shared memory consumed per block, bytes.
    pub shared_bytes_per_block: u32,
    /// L1 cache available per SM under the chosen carve-out, bytes.
    pub l1_avail_bytes: u64,
    /// Number of distinct-cache-line references (register-pressure model,
    /// §IV-G).
    pub num_refs: u32,
    /// Per-reference access descriptions.
    pub refs: Vec<RefAccess>,
}

impl KernelExecSpec {
    /// Estimated registers per thread: a fixed base plus per-reference
    /// address/operand registers scaled by precision (§IV-G, §IV-I), plus
    /// accumulators for multi-point threads. Clamped to the value range
    /// real compilers produce.
    pub fn regs_per_thread(&self) -> u32 {
        let fp_factor = if self.elem_bytes >= 8 { 2 } else { 1 };
        let base = 16u32;
        let per_ref = 3 * self.num_refs * fp_factor;
        // Point loops are unrolled up to a compiler window (~16 points):
        // each unrolled point holds value temporaries plus per-reference
        // address registers.
        let unrolled = self.points_per_thread.clamp(0, 16) as u32;
        let acc = 2 * unrolled * fp_factor;
        let addr = if self.points_per_thread > 1 {
            2 * self.num_refs
        } else {
            0
        };
        (base + per_ref + acc + addr).min(512)
    }

    /// Total dynamic threads of the launch.
    pub fn total_threads(&self) -> i64 {
        self.grid_blocks.saturating_mul(self.threads_per_block)
    }

    /// Rejects launches no driver would accept: non-positive grids or
    /// blocks, negative work, non-finite flops, zero-width elements, or a
    /// reference with negative counts. Degenerate-but-representable specs
    /// (footprint ordering violations) are *not* errors — they are
    /// repaired by [`KernelExecSpec::saturated`] instead.
    ///
    /// # Errors
    ///
    /// A [`SpecError`] naming the first violated rule.
    pub fn validate(&self) -> Result<(), SpecError> {
        let fail = |message: String| {
            Err(SpecError {
                kernel: self.name.clone(),
                message,
            })
        };
        for (field, v) in [
            ("grid_blocks", self.grid_blocks),
            ("grid_x_blocks", self.grid_x_blocks),
            ("threads_per_block", self.threads_per_block),
        ] {
            if v <= 0 {
                return fail(format!("{field} must be positive (got {v})"));
            }
        }
        for (field, v) in [
            ("points_per_thread", self.points_per_thread),
            ("serial_steps_per_block", self.serial_steps_per_block),
        ] {
            if v < 0 {
                return fail(format!("{field} is negative ({v})"));
            }
        }
        if !self.flops_total.is_finite() || self.flops_total < 0.0 {
            return fail(format!(
                "flops_total must be finite and non-negative (got {})",
                self.flops_total
            ));
        }
        if self.elem_bytes == 0 {
            return fail("elem_bytes must be positive".to_owned());
        }
        for r in &self.refs {
            if let Err(message) = r.validate() {
                return fail(message);
            }
        }
        Ok(())
    }

    /// Whether [`KernelExecSpec::saturated`] would change nothing.
    pub fn is_saturated(&self) -> bool {
        self.grid_x_blocks <= self.grid_blocks && self.refs.iter().all(RefAccess::is_saturated)
    }

    /// Clamps the spec onto the consistent envelope: the x-extent of the
    /// grid cannot exceed the grid, and every reference obeys the
    /// footprint containment chain (see [`RefAccess::saturated`]).
    pub fn saturated(&self) -> KernelExecSpec {
        let mut s = self.clone();
        s.grid_x_blocks = s.grid_x_blocks.min(s.grid_blocks);
        for r in &mut s.refs {
            if !r.is_saturated() {
                *r = r.saturated();
            }
        }
        s
    }

    /// A stable 64-bit fingerprint of the launch (noise seeding).
    pub fn fingerprint(&self) -> u64 {
        let mut h = eatss_trace::FNV1A64_OFFSET;
        for b in self.name.as_bytes() {
            h = crate::noise::fnv_step(h, *b as u64);
        }
        for v in [
            self.grid_blocks as u64,
            self.threads_per_block as u64,
            self.points_per_thread as u64,
            self.serial_steps_per_block as u64,
            self.flops_total.to_bits(),
            self.elem_bytes as u64,
            self.shared_bytes_per_block as u64,
            self.l1_avail_bytes,
        ] {
            h = crate::noise::fnv_step(h, v);
        }
        for r in &self.refs {
            for v in [
                r.tile_footprint_elems as u64,
                r.block_footprint_elems as u64,
                r.accesses_per_block as u64,
                r.coalesced as u64,
                r.staged_shared as u64,
            ] {
                h = crate::noise::fnv_step(h, v);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> KernelExecSpec {
        KernelExecSpec {
            name: "t".into(),
            grid_blocks: 10,
            grid_x_blocks: 5,
            threads_per_block: 128,
            points_per_thread: 2,
            serial_steps_per_block: 4,
            flops_total: 1e6,
            elem_bytes: 8,
            shared_bytes_per_block: 1024,
            l1_avail_bytes: 64 * 1024,
            num_refs: 3,
            refs: vec![RefAccess::streaming("a", 1000, 100, true)],
        }
    }

    #[test]
    fn regs_scale_with_precision_and_refs() {
        let mut s = small_spec();
        let fp64 = s.regs_per_thread();
        s.elem_bytes = 4;
        let fp32 = s.regs_per_thread();
        assert!(fp64 > fp32);
        s.num_refs = 6;
        assert!(s.regs_per_thread() > fp32);
    }

    #[test]
    fn regs_are_clamped() {
        let mut s = small_spec();
        s.points_per_thread = 100_000;
        s.num_refs = 40;
        assert!(s.regs_per_thread() <= 512);
        // The unroll window caps the point-dependent term.
        let mut t = small_spec();
        t.points_per_thread = 16;
        let at_window = t.regs_per_thread();
        t.points_per_thread = 1_000;
        assert_eq!(t.regs_per_thread(), at_window);
    }

    #[test]
    fn streaming_constructor_is_self_consistent() {
        let r = RefAccess::streaming("x", 1_000_000, 256, true);
        assert_eq!(r.block_footprint_elems, 256);
        assert_eq!(r.accesses_per_block, 256);
        assert!(!r.is_write);
    }

    #[test]
    fn streaming_saturates_oversized_blocks() {
        // A block "touching" 256 elements of a 100-element array touches
        // 100 distinct elements 256 times.
        let r = RefAccess::streaming("x", 100, 256, true);
        assert_eq!(r.total_footprint_elems, 100);
        assert_eq!(r.block_footprint_elems, 100);
        assert_eq!(r.tile_footprint_elems, 100);
        assert_eq!(r.contiguous_x_elems, 100);
        assert_eq!(r.accesses_per_block, 256, "accesses are repeats, kept");
        assert!(r.is_saturated());
    }

    #[test]
    fn ref_validate_rejects_negative_counts() {
        let good = RefAccess::streaming("x", 1000, 100, true);
        assert_eq!(good.validate(), Ok(()));
        for mutate in [
            |r: &mut RefAccess| r.tile_footprint_elems = -1,
            |r: &mut RefAccess| r.block_footprint_elems = -1,
            |r: &mut RefAccess| r.total_footprint_elems = -1,
            |r: &mut RefAccess| r.accesses_per_block = -1,
            |r: &mut RefAccess| r.contiguous_x_elems = -1,
        ] {
            let mut r = good.clone();
            mutate(&mut r);
            assert!(r.validate().is_err());
        }
    }

    #[test]
    fn saturation_restores_containment_chain() {
        let mut r = RefAccess::streaming("x", 1000, 100, true);
        r.tile_footprint_elems = 5000;
        r.block_footprint_elems = 2000;
        r.contiguous_x_elems = 9999;
        assert!(!r.is_saturated());
        let s = r.saturated();
        assert_eq!(s.block_footprint_elems, 1000);
        assert_eq!(s.tile_footprint_elems, 1000);
        assert_eq!(s.contiguous_x_elems, 1000);
        assert!(s.is_saturated());
        // Saturation is idempotent.
        assert_eq!(s.saturated(), s);
    }

    #[test]
    fn spec_validate_rejects_impossible_launches() {
        let good = small_spec();
        assert!(good.validate().is_ok());
        type Case = (&'static str, Box<dyn Fn(&mut KernelExecSpec)>);
        let cases: Vec<Case> = vec![
            ("zero grid", Box::new(|s| s.grid_blocks = 0)),
            ("negative grid x", Box::new(|s| s.grid_x_blocks = -1)),
            ("zero threads", Box::new(|s| s.threads_per_block = 0)),
            ("negative points", Box::new(|s| s.points_per_thread = -1)),
            ("negative steps", Box::new(|s| s.serial_steps_per_block = -2)),
            ("nan flops", Box::new(|s| s.flops_total = f64::NAN)),
            ("negative flops", Box::new(|s| s.flops_total = -1.0)),
            ("zero-width elems", Box::new(|s| s.elem_bytes = 0)),
            (
                "negative ref field",
                Box::new(|s| s.refs[0].accesses_per_block = -7),
            ),
        ];
        for (what, mutate) in cases {
            let mut s = good.clone();
            mutate(&mut s);
            let err = s.validate().expect_err(what);
            assert_eq!(err.kernel, "t");
            assert!(!err.message.is_empty());
        }
    }

    #[test]
    fn spec_saturation_clamps_grid_x_and_refs() {
        let mut s = small_spec();
        s.grid_x_blocks = 64; // > grid_blocks = 10
        s.refs[0].contiguous_x_elems = 1_000_000;
        assert!(!s.is_saturated());
        let sat = s.saturated();
        assert_eq!(sat.grid_x_blocks, 10);
        assert_eq!(sat.refs[0].contiguous_x_elems, 1000);
        assert!(sat.is_saturated());
        assert!(small_spec().is_saturated());
    }

    #[test]
    fn fingerprint_changes_with_fields() {
        let a = small_spec();
        let mut b = small_spec();
        b.grid_blocks = 11;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = small_spec();
        c.refs[0].coalesced = false;
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), small_spec().fingerprint());
    }

    #[test]
    fn total_threads_multiplies() {
        assert_eq!(small_spec().total_threads(), 1280);
    }
}
