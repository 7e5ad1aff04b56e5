//! Metric tables, the result record, and the small measurements every
//! run takes of the machine itself.
//!
//! The tables below are the single definition of every metric's name,
//! unit, direction and regression bound; `BENCHMARK.json` restates them
//! for the driver and a unit test keeps the two in step.

use eatss_trace::json::{escape, Json};
use eatss_trace::Provenance;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by before it
    /// counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
        bound: None,
    }
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("latency_p50_ms", "ms", false, 0.25),
    e2e("latency_p99_ms", "ms", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.10),
    e2e("sim_energy_ratio", "ratio", false, 0.005),
    e2e("sim_ppw_gain", "ratio", true, 0.005),
];

/// Single-layer measurements, reported by the traced run only. All but
/// the `share.*` / `trace.*` group come from the layer tour (`tour.rs`),
/// which is the same fixed work whatever workload was asked for.
pub const PER_LAYER: [MetricDef; 68] = [
    lower("affine.parser.parse_us", "us"),
    higher("affine.parser.mb_per_s", "MB/s"),
    higher("affine.parser.kernels", "count"),
    lower("affine.interp.run_us", "us"),
    higher("affine.interp.points_per_s", "1/s"),
    lower("core.model.build_us", "us"),
    lower("core.model.constraints", "count"),
    lower("core.evaluate.evaluate_us", "us"),
    lower("core.sweep.sweep_us", "us"),
    higher("core.sweep.points", "count"),
    lower("core.sweep.fallbacks", "count"),
    lower("core.sweep.infeasible", "count"),
    lower("core.sweep.pareto_us", "us"),
    lower("core.sweep.overhead_ratio", "ratio"),
    lower("core.cache.key_encode_us", "us"),
    lower("core.cache.hit_us", "us"),
    lower("core.persist.append_us", "us"),
    lower("core.persist.replay_ms", "ms"),
    lower("core.journal.bytes_per_record", "bytes"),
    lower("core.persist.garbage_ratio", "ratio"),
    lower("core.cli.run_ms_p50", "ms"),
    lower("core.cli.spawn_floor_ms_p50", "ms"),
    lower("smt.solve_us", "us"),
    lower("smt.propagation_us", "us"),
    lower("smt.search_us", "us"),
    lower("smt.nodes", "count"),
    lower("smt.solver_calls", "count"),
    higher("smt.bound_prunes", "count"),
    lower("smt.hull_rebuilds", "count"),
    higher("smt.warm_cut_hits", "count"),
    lower("ppcg.compile_us", "us"),
    lower("ppcg.cuda_bytes", "bytes"),
    lower("ppcg.invalid_variants", "count"),
    lower("ppcg.exec.emulate_us", "us"),
    higher("ppcg.exec.points_per_s", "1/s"),
    lower("ppcg.oracle.verify_us", "us"),
    higher("ppcg.oracle.points", "count"),
    higher("ppcg.oracle.points_per_s", "1/s"),
    lower("ppcg.oracle.mismatches", "count"),
    lower("gpusim.simulate_us", "us"),
    lower("gpusim.launches", "count"),
    lower("serve.roundtrip_hit_us_p50", "us"),
    lower("serve.roundtrip_miss_us_p50", "us"),
    lower("serve.roundtrip_inline_us_p50", "us"),
    lower("serve.protocol.parse_us", "us"),
    higher("serve.hit_ratio", "ratio"),
    lower("serve.restart_ready_ms", "ms"),
    lower("serve.restart_lost_entries", "count"),
    lower("serve.request_us_p50", "us"),
    lower("serve.request_us_p99", "us"),
    lower("serve.queue_us_p99", "us"),
    lower("serve.solve_us_p50", "us"),
    lower("serve.journal_append_us_p50", "us"),
    lower("serve.parse_us_p50", "us"),
    lower("serve.coalesced", "count"),
    lower("serve.shed", "count"),
    higher("serve.parse_cache_hits", "count"),
    lower("serve.transport_us", "us"),
    lower("share.affine", "ratio"),
    lower("share.core", "ratio"),
    lower("share.smt", "ratio"),
    lower("share.ppcg", "ratio"),
    lower("share.gpusim", "ratio"),
    lower("share.serve", "ratio"),
    lower("trace.spans", "count"),
    higher("trace.coverage", "ratio"),
    higher("trace.overhead_ratio", "ratio"),
    lower("machine.reference_ms", "ms"),
];

/// Named values in table order.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `{"name":{"value":v,"unit":"u"},...}` over `table`, in table order.
    ///
    /// # Errors
    ///
    /// Names a metric of `table` that is missing or not finite: the result
    /// line promises every metric, as measured.
    pub fn to_json(&self, table: &[MetricDef]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, def) in table.iter().enumerate() {
            let value = self
                .get(def.name)
                .ok_or_else(|| format!("metric `{}` was not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric `{}` is not finite ({value})", def.name));
            }
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                def.name, def.unit
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Geometric mean of positive ratios.
pub fn geomean(ratios: &[f64]) -> f64 {
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// What one [`reference_ms`] sample reads on the box this benchmark was
/// written on, in a quiet hour.
pub const REFERENCE_NOMINAL_MS: f64 = 2.2;

/// How much more the program slows than the reference does, as the
/// exponent of [`slowdown`]. Under another tenant's load the pipeline's
/// code, with its larger cache footprint, loses more than the small
/// reference kernel. Fitted per workload and busy hour (the exponent that
/// left the least run-to-run spread) it came out between 1.0 and 1.6 —
/// highest for `select-cold`, lowest for `serve-mixed`, whose round trips
/// are thread wake-ups more than cache — and 1.3 served all four.
const REFERENCE_SENSITIVITY: f64 = 1.3;

/// One sample of the machine's speed: fixed work that calls nothing of
/// the program — ordered-map and vector churn, so allocator, branches and
/// small objects spread over the cache, like the pipeline's own code.
///
/// The host is shared, and while another tenant shares the core its speed
/// moves by 10 – 40% over seconds to minutes. A plain ALU loop does not
/// notice (it moved 1% while the workloads moved 17%); of the kernels
/// tried, this one followed the workloads best (correlation 0.91 – 0.96
/// over 3 s buckets). Every window samples it between its ops and states
/// each slice's timings against the samples taken around that slice
/// ([`slowdown`]), so a slow minute is not read as slow code.
pub fn reference_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut buckets: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for _ in 0..(1u32 << 15) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        buckets.entry(x % 1024).or_default().push(x);
    }
    std::hint::black_box(buckets);
    started.elapsed().as_secs_f64() * 1e3
}

/// How much slower than on the quiet reference box the program ran while
/// `samples` were taken: their median over [`REFERENCE_NOMINAL_MS`],
/// raised to [`REFERENCE_SENSITIVITY`]. Wall times are divided by it,
/// rates multiplied. 1 when there is no sample.
pub fn slowdown(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    (median_f64(&mut samples.to_vec()) / REFERENCE_NOMINAL_MS).powf(REFERENCE_SENSITIVITY)
}

/// Where a result came from; part of every record.
#[derive(Debug, Clone)]
pub struct RunProvenance {
    pub build: Provenance,
    /// Load-generating threads / connections the workload used.
    pub threads_used: usize,
    pub seed: u64,
    pub window_seconds: f64,
    /// Median [`reference_ms`] sample of the run.
    pub reference_ms: f64,
    /// (`ops_per_s`, `latency_p50_ms`, `latency_p99_ms`) of a timed window
    /// on the wall clock, before they were stated against the reference.
    pub as_measured: Option<[f64; 3]>,
}

impl RunProvenance {
    pub fn to_json(&self) -> String {
        let as_measured = self.as_measured.map_or(String::new(), |[ops, p50, p99]| {
            format!(",\"as_measured\":{{\"ops_per_s\":{ops},\"latency_p50_ms\":{p50},\"latency_p99_ms\":{p99}}}")
        });
        format!(
            "{{\"git_sha\":\"{}\",\"rustc\":\"{}\",\"nproc\":{},\"threads_used\":{},\"seed\":{},\"window_seconds\":{},\"machine.reference_ms\":{}{as_measured}}}",
            escape(&self.build.git_sha),
            escape(&self.build.rustc_version),
            self.build.threads,
            self.threads_used,
            self.seed,
            self.window_seconds,
            self.reference_ms
        )
    }
}

/// One run's full result: the contract fields plus workload and
/// provenance. One JSON line of it is what `--record` appends and
/// `--compare` reads.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    pub values: Values,
    pub provenance: RunProvenance,
    /// First few failure reasons, for the human reading the output.
    pub failures: Vec<String>,
}

impl Record {
    fn table(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn contract_line(&self) -> Result<String, String> {
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.values.to_json(self.table())?
        ))
    }

    /// The full record as one JSON line.
    pub fn record_line(&self) -> Result<String, String> {
        Ok(format!(
            "{{\"workload\":\"{}\",\"traced\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"samples\":{},\"provenance\":{},\"metrics\":{}}}",
            self.workload,
            self.traced,
            self.correct(),
            self.attempted,
            self.failed,
            self.samples,
            self.provenance.to_json(),
            self.values.to_json(self.table())?
        ))
    }

    /// Every metric by name with its unit, for a person.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} ({}) ==\nprovenance {}\nattempted {}  failed {}  latency samples {}\n",
            self.workload,
            if self.traced {
                "traced run"
            } else {
                "timed window"
            },
            self.provenance.to_json(),
            self.attempted,
            self.failed,
            self.samples
        );
        for def in self.table() {
            if let Some(v) = self.values.get(def.name) {
                let _ = writeln!(out, "  {:<32} {:>16.6} {}", def.name, v, def.unit);
            }
        }
        for reason in &self.failures {
            let _ = writeln!(out, "  FAILED: {reason}");
        }
        out
    }
}

/// The fields `--compare` needs back out of a record line.
#[derive(Debug, Clone)]
pub struct ParsedRecord {
    pub workload: String,
    pub traced: bool,
    pub attempted: f64,
    pub failed: f64,
    pub reference_ms: f64,
    pub metrics: Vec<(String, f64)>,
}

impl ParsedRecord {
    pub fn parse(line: &str) -> Result<ParsedRecord, String> {
        let json = Json::parse(line)?;
        let field = |key: &str| {
            json.get(key)
                .ok_or_else(|| format!("record has no `{key}`"))
        };
        let num = |key: &str| {
            field(key)?
                .as_f64()
                .ok_or_else(|| format!("`{key}` is not a number"))
        };
        let metrics = field("metrics")?
            .as_object()
            .ok_or("`metrics` is not an object")?
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("metric `{name}` has no numeric value"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ParsedRecord {
            workload: field("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .to_string(),
            traced: field("traced")?.as_bool().ok_or("`traced` is not a bool")?,
            attempted: num("attempted")?,
            failed: num("failed")?,
            reference_ms: field("provenance")?
                .get("machine.reference_ms")
                .and_then(Json::as_f64)
                .ok_or("provenance has no machine.reference_ms")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WORKLOADS;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.5), 500);
        assert_eq!(quantile(&v, 0.99), 990);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_is_one_at_nominal_and_grows_with_the_reference() {
        assert_eq!(slowdown(&[]), 1.0);
        assert_eq!(slowdown(&[REFERENCE_NOMINAL_MS]), 1.0);
        // The median sample decides, and a slower machine reads above 1.
        let slow = slowdown(&[REFERENCE_NOMINAL_MS * 1.2, 100.0, 0.1]);
        assert!(slow > 1.2 && slow < 1.3, "{slow}");
        assert!(slowdown(&[REFERENCE_NOMINAL_MS * 0.9]) < 1.0);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate {}", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
    }

    /// `BENCHMARK.json` is the driver's copy of the tables above.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let check = |key: &str, table: &[MetricDef]| {
            let listed = json.get(key).unwrap().as_array().unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(
                    entry.get("unit").unwrap().as_str(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                let better = if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(better),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
        let workloads = json.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(entry.get("name").unwrap().as_str(), Some(w.name));
            assert_eq!(entry.get("why").unwrap().as_str(), Some(w.why));
        }
    }

    #[test]
    fn record_line_round_trips_through_the_parser() {
        let mut values = Values::default();
        for (i, def) in END_TO_END.iter().enumerate() {
            values.set(def.name, 1.5 + i as f64);
        }
        let record = Record {
            workload: "select-cold",
            traced: false,
            attempted: 10,
            failed: 1,
            samples: 9,
            values,
            provenance: RunProvenance {
                build: Provenance::collect(Some(1)),
                threads_used: 1,
                seed: 3,
                window_seconds: 2.0,
                reference_ms: 50.25,
                as_measured: Some([9.0, 1.0, 2.0]),
            },
            failures: vec![],
        };
        let parsed = ParsedRecord::parse(&record.record_line().unwrap()).unwrap();
        assert_eq!(parsed.workload, "select-cold");
        assert_eq!((parsed.attempted, parsed.failed), (10.0, 1.0));
        assert_eq!(parsed.reference_ms, 50.25);
        assert_eq!(parsed.metrics.len(), END_TO_END.len());
        let contract = Json::parse(&record.contract_line().unwrap()).unwrap();
        assert_eq!(contract.as_object().unwrap().len(), 4);
        assert_eq!(contract.get("correct").unwrap().as_bool(), Some(false));
    }
}
