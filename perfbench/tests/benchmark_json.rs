//! `BENCHMARK.json` names exactly the workloads and metrics the
//! benchmark reports.

use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use serve::json::{parse, Json};

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read(path).expect("BENCHMARK.json at the repository root")).expect("valid JSON")
}

fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("array")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_code() {
    let doc = spec();
    let workloads: Vec<String> = names(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(names(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names(&doc, "per_layer"), owned(&PER_LAYER));
}
