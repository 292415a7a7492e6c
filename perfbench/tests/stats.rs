//! The statistics helpers on fixed inputs, and the run-loop helpers.

use std::time::{Duration, Instant};

use perfbench::speed::HostSpeed;
use perfbench::stats::{highest_supported, median, quartiles, supported_percentile};
use perfbench::{passes, repeated_setup, Outcome, SetupTimes};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[7.0]), Some(7.0));
    assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some(3.0));
    assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
}

#[test]
fn quartiles_match_pythons_statistics_quantiles() {
    // Expected values from `statistics.quantiles(v, n=4)`.
    let cases: [(&[f64], [f64; 3]); 4] = [
        (&[1.0, 2.0, 3.0, 4.0], [1.25, 2.5, 3.75]),
        (&[5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 3.0, 4.5]),
        (&[10.0, 20.0], [7.5, 15.0, 22.5]),
        (
            &[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0],
            [1.75, 3.5, 5.25],
        ),
    ];
    for (values, want) in cases {
        assert_eq!(quartiles(values), Some(want), "{values:?}");
    }
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    // Nearest rank: p90 of 1..=100 is 90, with exactly ten samples beyond.
    assert_eq!(supported_percentile(&hundred, 90.0), Ok(90.0));
    assert!(supported_percentile(&hundred, 95.0).is_err());
    assert_eq!(highest_supported(&hundred), Some((90.0, 90.0)));

    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(supported_percentile(&thousand, 99.0), Ok(990.0));
    assert_eq!(highest_supported(&thousand), Some((99.0, 990.0)));

    let err = supported_percentile(&thousand[..999], 99.0).unwrap_err();
    assert!(err.contains("at least 1000 samples"), "{err}");
    assert_eq!(highest_supported(&[1.0; 19]), None);
    assert_eq!(highest_supported(&[1.0; 20]), Some((50.0, 1.0)));
}

#[test]
fn time_between_passes_counts_toward_neither_a_pass_nor_the_budget() {
    let mut betweens = 0;
    let runs = passes(
        Duration::from_millis(50),
        1,
        |_| std::thread::sleep(Duration::from_millis(5)),
        || {
            betweens += 1;
            std::thread::sleep(Duration::from_millis(50));
        },
    );
    assert_eq!(betweens, runs.len());
    // Counting the 50 ms gaps would end the loop after one pass.
    assert!(runs.len() >= 3, "{} passes", runs.len());
    assert!(runs.iter().all(|r| r.wall < Duration::from_millis(50)));
}

#[test]
fn set_up_times_count_only_successful_set_ups() {
    let (last, mut times) = repeated_setup(3, Ok).unwrap();
    assert_eq!(last, 2);
    assert!(times.time(|| Err::<(), _>("failed".to_string())).is_err());
    let mut out = Outcome::default();
    times.record(&mut out, &HostSpeed::unscaled());
    assert!(out.value("setup_s").is_some());
    let samples = out.facts.iter().find(|(k, _)| k == "setup_samples");
    assert_eq!(samples.map(|(_, v)| v.as_str()), Some("3"));
    assert!(repeated_setup(3, |_| Err::<(), _>("failed".to_string())).is_err());
    assert_eq!(SetupTimes::default().median(&HostSpeed::new()), 0.0);
}

#[test]
fn host_speed_scales_by_the_kernel_samples_around_an_interval() {
    let unscaled = HostSpeed::unscaled();
    unscaled.sample();
    assert_eq!(unscaled.samples(), 0);
    let now = Instant::now();
    assert_eq!(unscaled.factor(now, now), 1.0);
    assert_eq!(unscaled.scaled(now, Duration::from_millis(3)), 0.003);

    let speed = HostSpeed::new();
    let start = Instant::now();
    for _ in 0..4 {
        speed.sample();
    }
    let wall = start.elapsed();
    assert_eq!(speed.samples(), 4);
    let factor = speed.factor(start, start + wall);
    assert!(factor.is_finite() && factor > 0.0, "{factor}");
    // An interval holding nothing but kernel samples has no work left.
    assert!(speed.scaled(start, wall) < 0.1 * wall.as_secs_f64() * factor);
    // An interval with no samples inside uses the nearest ones.
    let later = Instant::now();
    assert_eq!(speed.factor(later, later), factor);
}
