//! Smoke test: every experiment in `atp_sim::experiments` runs its `quick`
//! preset in-process and produces sane output — non-empty, free of NaN or
//! infinity, with monotone time statistics.

use adaptive_token_passing::sim::experiments::{
    ablation, drops, failure, fairness, fig10, fig9, geo, latency, messages, partition, shards,
    throughput, worstcase,
};
use adaptive_token_passing::sim::runner::{run_experiment, ExperimentSpec, Protocol};
use adaptive_token_passing::sim::workload::GlobalPoisson;

fn assert_sane(name: &str, rendered: &str) {
    assert!(!rendered.trim().is_empty(), "{name}: empty output");
    assert!(
        !rendered.contains("NaN"),
        "{name}: NaN in output:\n{rendered}"
    );
    assert!(
        !rendered.contains("inf"),
        "{name}: inf in output:\n{rendered}"
    );
}

macro_rules! smoke {
    ($($test:ident => $module:ident),* $(,)?) => {$(
        #[test]
        fn $test() {
            let rendered = $module::run(&$module::Config::quick()).render();
            assert_sane(stringify!($module), &rendered);
        }
    )*};
}

smoke! {
    fig9_quick_preset_is_sane => fig9,
    fig10_quick_preset_is_sane => fig10,
    messages_quick_preset_is_sane => messages,
    worstcase_quick_preset_is_sane => worstcase,
    fairness_quick_preset_is_sane => fairness,
    ablation_quick_preset_is_sane => ablation,
    failure_quick_preset_is_sane => failure,
    drops_quick_preset_is_sane => drops,
    partition_quick_preset_is_sane => partition,
    throughput_quick_preset_is_sane => throughput,
    latency_quick_preset_is_sane => latency,
    geo_quick_preset_is_sane => geo,
    shards_quick_preset_is_sane => shards,
}

/// The quantiles of every timing statistic are monotone and the scalar
/// metrics finite — the "monotonically-timed" half of the smoke check,
/// asserted on a direct quick-scale run of each protocol.
#[test]
fn quick_run_statistics_are_finite_and_monotone() {
    for protocol in Protocol::ALL {
        let spec = ExperimentSpec::new(protocol, 16, 2_000).with_seed(5);
        let mut wl = GlobalPoisson::new(10.0);
        let s = run_experiment(&spec, &mut wl);
        assert!(s.duration_ticks > 0);
        assert!(
            s.net.events > 0,
            "{}: no events dispatched",
            protocol.label()
        );
        for (label, st) in [
            ("responsiveness", &s.metrics.responsiveness),
            ("waiting", &s.metrics.waiting),
        ] {
            assert!(st.count > 0, "{}: no {label} samples", protocol.label());
            assert!(st.mean.is_finite());
            assert!(
                st.min <= st.p50 && st.p50 <= st.p95 && st.p95 <= st.p99 && st.p99 <= st.max,
                "{}: {label} quantiles not monotone: {st:?}",
                protocol.label()
            );
        }
        assert!(s.metrics.jain.is_finite() && (0.0..=1.0).contains(&s.metrics.jain));
    }
}
