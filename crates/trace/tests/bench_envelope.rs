//! Every committed `BENCH_*.json` is a [`eatss_trace::Report`]: it parses
//! through the repo's own `Json`, carries the shared envelope, and was
//! committed from a passing full-mode run.

use eatss_trace::json::Json;

#[test]
fn committed_bench_reports_share_the_envelope() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for bench in ["engines", "pareto", "serve"] {
        let file = format!("BENCH_{bench}.json");
        let text = std::fs::read_to_string(root.join(&file)).expect(&file);
        let doc = Json::parse(&text).expect(&file);
        let string_at = |outer: &Json, key: &str| match outer.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{file}: `{key}` is {other:?}, not a string"),
        };
        assert_eq!(string_at(&doc, "bench"), bench);
        assert_eq!(string_at(&doc, "mode"), "full", "{file}");
        let provenance = doc.get("provenance").expect("provenance");
        assert_eq!(string_at(provenance, "git_sha").len(), 40, "{file}");
        assert!(string_at(provenance, "rustc_version").starts_with("rustc "));
        let regressions = doc.get("regressions").and_then(Json::as_array);
        assert_eq!(regressions.map(<[Json]>::len), Some(0), "{file}");
        let sections = doc.get("sections").and_then(Json::as_object);
        assert!(sections.is_some_and(|s| !s.is_empty()), "{file}");
        // Written by `Report`, i.e. by `Json`'s printer: printing what was
        // parsed reproduces the file.
        assert_eq!(format!("{doc}\n"), text, "{file}: not the printer's output");
    }
    // Those three are the only dialect-bearing files left.
    let committed = std::fs::read_dir(&root)
        .expect("repo root")
        .filter(|entry| {
            let name = entry.as_ref().expect("dir entry").file_name();
            let name = name.to_string_lossy();
            name.starts_with("BENCH_") && name.ends_with(".json")
        });
    assert_eq!(committed.count(), 3);
}
