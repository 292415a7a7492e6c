//! Integration pin for the H2P-slice experiment: the report must be
//! byte-identical for any worker-thread count.

use sim::experiments::h2p::run_with_report;
use sim::experiments::ExpEnv;

fn tiny() -> ExpEnv {
    ExpEnv {
        scale: 0.04,
        ..ExpEnv::tiny()
    }
}

#[test]
fn h2p_report_is_bit_identical_for_any_thread_count() {
    let reference = run_with_report(&tiny().with_threads(1));
    for threads in [2, 3, 8] {
        let (tables, json) = run_with_report(&tiny().with_threads(threads));
        assert_eq!(
            json, reference.1,
            "{threads}-thread JSON report diverged from sequential"
        );
        for (t, r) in tables.iter().zip(&reference.0) {
            assert_eq!(t.render(), r.render(), "threads={threads}");
        }
    }
}

#[test]
fn h2p_sides_follow_the_paper_split() {
    // Baseline label names the conventional 16KB 2Bc-gskew; hybrid label
    // names the tuned preset — the §6 replay/re-execution split.
    let (tables, json) = run_with_report(&tiny());
    assert!(tables[0].title.contains("replay"));
    assert!(tables[0].title.contains("re-execution"));
    assert!(json.contains("\"baseline\": \"16KB 2Bc-gskew alone\""));
    assert!(json.contains("\"hybrid\":"));
    sim::json::parse(json.as_bytes()).unwrap();
}
