//! The one envelope every gate bin (`bench_engines`, `bench_pareto`,
//! `bench_serve`) writes: who ran what, the sections of evidence, and the
//! regressions that alone decide the exit code.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::sink::Provenance;

/// A gate bin's report. Printed as
/// `{"bench", "mode", "provenance", "regressions", "sections"}`; a run
/// passed iff `regressions` is empty.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Which bin produced the report.
    pub bench: String,
    /// `smoke` or `full`.
    pub mode: String,
    /// Commit, compiler and core count of the producing run.
    pub provenance: Provenance,
    /// The evidence, one named value per table the bin prints.
    pub sections: BTreeMap<String, Json>,
    /// One line per failed gate.
    pub regressions: Vec<String>,
}

impl Report {
    /// An empty report stamped with the current process's provenance
    /// (the gate bins have no `--jobs` setting).
    pub fn new(bench: &str, mode: &str) -> Report {
        Report {
            bench: bench.to_owned(),
            mode: mode.to_owned(),
            provenance: Provenance::collect(None),
            sections: BTreeMap::new(),
            regressions: Vec::new(),
        }
    }

    /// The report as one JSON value.
    pub fn to_json(&self) -> Json {
        let p = &self.provenance;
        Json::object([
            ("bench", self.bench.as_str().into()),
            ("mode", self.mode.as_str().into()),
            (
                "provenance",
                Json::object([
                    ("git_sha", p.git_sha.as_str().into()),
                    ("rustc_version", p.rustc_version.as_str().into()),
                    ("threads", p.threads.into()),
                    ("jobs", p.jobs.into()),
                ]),
            ),
            ("regressions", self.regressions.clone().into()),
            ("sections", Json::Obj(self.sections.clone())),
        ])
    }

    /// Writes the report to `out`, names every regression on stderr, and
    /// returns the process's exit code: failure iff a regression was
    /// recorded or the file could not be written.
    pub fn finish(&self, out: &Path) -> ExitCode {
        if let Err(e) = std::fs::write(out, format!("{}\n", self.to_json())) {
            eprintln!("error: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", out.display());
        for r in &self.regressions {
            eprintln!("REGRESSION: {r}");
        }
        if self.regressions.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        Report {
            bench: "unit".to_owned(),
            mode: "smoke".to_owned(),
            provenance: Provenance {
                git_sha: "abc".to_owned(),
                rustc_version: "rustc 1.0".to_owned(),
                threads: 2,
                jobs: None,
            },
            sections: BTreeMap::from([("rows".to_owned(), Json::from(vec![1u64, 2]))]),
            regressions: Vec::new(),
        }
    }

    #[test]
    fn finish_fails_iff_a_regression_was_recorded() {
        let out = std::env::temp_dir().join(format!("eatss-report-{}.json", std::process::id()));
        let mut r = report();
        assert_eq!(r.finish(&out), ExitCode::SUCCESS);
        r.regressions
            .push("gemm interp wall_ratio 0.9 < 1.0".to_owned());
        assert_eq!(r.finish(&out), ExitCode::FAILURE);

        let written = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(written, r.to_json());
        assert_eq!(
            written
                .get("regressions")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
        std::fs::remove_file(&out).unwrap();
    }

    #[test]
    fn finish_fails_when_the_report_cannot_be_written() {
        let missing = std::env::temp_dir()
            .join("eatss-report-no-such-dir")
            .join("r.json");
        assert_eq!(report().finish(&missing), ExitCode::FAILURE);
    }
}
