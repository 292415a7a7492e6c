//! The timing wrappers are transparent: they forward every method of
//! `DirectionPredictor`, `Critic` and `PipelineModel` unchanged, and a
//! traced run of each workload yields the same results and digests as
//! an untraced one.

use std::path::PathBuf;

use perfbench::exec::{self, run_plain, run_traced, ExecLayers};
use perfbench::probe::{Spans, TimedCritic, TimedPredictor};
use perfbench::{replay, serve, Args};
use predictors::{DirectionPredictor, HistoryBits, Pc, PredictInput};
use prophet_critic::{Budget, Critic, CriticKind, CriticTrainInput, ProphetKind};
use workloads::rng::SmallRng;

fn inputs(seed: u64, n: usize) -> Vec<PredictInput> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut hist = HistoryBits::new(64);
    (0..n)
        .map(|_| {
            let taken = rng.gen_bool(0.6);
            let input = PredictInput {
                pc: Pc::new(0x40_0000 + 4 * rng.gen_range(0..512u64)),
                hist,
                taken,
            };
            hist.push(taken);
            input
        })
        .collect()
}

#[test]
fn predictor_wrapper_forwards_every_method() {
    for kind in ProphetKind::ALL {
        let mut plain = kind.build(Budget::K8);
        let mut timed = TimedPredictor::new(kind.build(Budget::K8));
        assert_eq!(plain.name(), timed.name());
        assert_eq!(plain.history_len(), timed.history_len());
        assert_eq!(plain.storage_bits(), timed.storage_bits());
        assert_eq!(plain.storage_bytes(), timed.storage_bytes());
        let stream = inputs(7, 640);
        for chunk in stream.chunks(64).take(3) {
            for i in chunk {
                assert_eq!(plain.predict(i.pc, i.hist), timed.predict(i.pc, i.hist));
                plain.update(i.pc, i.hist, i.taken);
                timed.update(i.pc, i.hist, i.taken);
            }
        }
        for chunk in stream.chunks(64).skip(3).take(3) {
            assert_eq!(plain.predict_block(chunk), timed.predict_block(chunk));
            plain.train_block(chunk);
            timed.train_block(chunk);
        }
        for chunk in stream.chunks(64).skip(6) {
            let pcs: Vec<Pc> = chunk.iter().map(|i| i.pc).collect();
            let outcomes = chunk
                .iter()
                .enumerate()
                .fold(0u64, |w, (b, i)| w | (u64::from(i.taken) << b));
            assert_eq!(
                plain.replay_block(&pcs, outcomes, chunk[0].hist),
                timed.replay_block(&pcs, outcomes, chunk[0].hist),
                "{}",
                kind.label()
            );
        }
        assert!(timed.tally.calls() > 0 && timed.tally.items() > 0);
    }
}

#[test]
fn critic_wrapper_forwards_every_method() {
    for kind in CriticKind::ALL {
        for confident in [false, true] {
            let build = || {
                let mut c = kind.build(Budget::K4);
                c.set_confident_override(confident);
                c
            };
            let mut plain = build();
            let mut timed = TimedCritic::new(build());
            assert_eq!(plain.name(), timed.name());
            assert_eq!(plain.bor_len(), timed.bor_len());
            assert_eq!(plain.storage_bits(), timed.storage_bits());
            assert_eq!(plain.storage_bytes(), timed.storage_bytes());
            let stream = inputs(11, 512);
            for (n, i) in stream.iter().enumerate() {
                let prophet = n % 3 == 0;
                assert_eq!(
                    plain.critique(i.pc, i.hist, prophet),
                    timed.critique(i.pc, i.hist, prophet)
                );
                if n < 256 {
                    plain.train(i.pc, i.hist, i.taken, prophet);
                    timed.train(i.pc, i.hist, i.taken, prophet);
                }
            }
            let batch: Vec<CriticTrainInput> = stream[256..]
                .iter()
                .map(|i| CriticTrainInput {
                    pc: i.pc,
                    bor: i.hist,
                    outcome: i.taken,
                    prophet_pred: !i.taken,
                })
                .collect();
            plain.train_block(&batch);
            timed.train_block(&batch);
            for i in &stream[..64] {
                assert_eq!(
                    plain.critique(i.pc, i.hist, true),
                    timed.critique(i.pc, i.hist, true)
                );
            }
        }
    }
}

#[test]
fn traced_cells_equal_plain_cells() {
    // Covers the model wrapper around `ExecModel` as well.
    let bench = exec::benchmarks(3).remove(0);
    let program = exec::programs().remove(0);
    let mut layers = ExecLayers::default();
    let mut spans = Spans::new();
    for (i, spec) in exec::lineup().iter().enumerate() {
        let plain = run_plain(spec, &bench, &program, 30_000);
        let traced = run_traced(
            spec,
            &bench,
            &program,
            30_000,
            &mut layers,
            &mut spans,
            i as u64,
        );
        assert_eq!(plain.acc, traced.acc, "{spec}");
        assert_eq!(plain.cyc, traced.cyc, "{spec}");
    }
    assert_eq!(spans.spans().len(), 3 * exec::lineup().len());
}

fn args(workload: &str, trace: bool) -> Args {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("transparency-{workload}-{trace}"));
    Args {
        workload: workload.to_string(),
        seed: 5,
        seconds: 0.01,
        trace,
        work_dir: dir,
    }
}

fn run_both(run: impl Fn(&Args) -> Result<perfbench::Outcome, String>, workload: &str) {
    let plain = run(&args(workload, false)).expect("untraced run");
    let traced = run(&args(workload, true)).expect("traced run");
    assert_eq!(plain.failed, 0, "{:?}", plain.errors);
    assert_eq!(traced.failed, 0, "{:?}", traced.errors);
    assert!(!plain.digest.is_empty());
    assert_eq!(plain.digest, traced.digest, "{workload}");
}

#[test]
fn exec_digest_is_the_same_traced_and_untraced() {
    run_both(|a| exec::run_with(a, 20_000, 4), "exec");
}

#[test]
fn replay_digest_is_the_same_traced_and_untraced() {
    run_both(|a| replay::run_with(a, 20_000, 2), "replay");
}

fn serve_params(pass_requests: usize, min_passes: usize) -> serve::Params {
    serve::Params {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_serve")),
        pass_requests,
        min_passes,
        clients: 2,
    }
}

#[test]
fn serve_digest_is_the_same_traced_and_untraced() {
    run_both(|a| serve::run_with(a, &serve_params(250, 4)), "serve");
}

#[test]
fn too_few_requests_report_an_error_instead_of_a_p99() {
    let err = serve::run_with(&args("serve-short", false), &serve_params(40, 1)).unwrap_err();
    assert!(
        err.contains("req_p99_ms") && err.contains("1000 samples"),
        "{err}"
    );
}
