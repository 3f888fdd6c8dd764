//! The benchmark's own checks, at a short size: simulated results repeat
//! for a seed, every metric is well named with a unit and declared in
//! `BENCHMARK.json`, and the layer map refers only to metrics and
//! workloads that exist.

use perfbench::layers::LAYERS;
use perfbench::metrics::{end_to_end, per_layer, Metric, Traced};
use perfbench::spans::Recorder;
use perfbench::workloads::{rep, Obsv, Rep, Size, Workload};

fn short(w: Workload, seed: u64, obsv: Obsv, rec: &mut Recorder) -> Rep {
    let r = rep(w, seed, Size::Short, obsv, rec);
    assert!(r.failures.is_empty(), "{}: {:?}", w.name(), r.failures);
    r
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `name` values of one flat array section of `BENCHMARK.json`.
fn section_names(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key} section"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("closing bracket")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn all_metrics(w: Workload) -> (Vec<Metric>, Vec<Metric>) {
    let untraced = vec![short(w, 3, Obsv::On, &mut Recorder::new(false))];
    let off = vec![short(w, 3, Obsv::Off, &mut Recorder::new(false))];
    let mut rec = Recorder::new(true);
    let r = short(w, 3, Obsv::On, &mut rec);
    let traced = vec![Traced {
        rep: r,
        self_s: rec.self_times(0),
    }];
    (
        end_to_end(&untraced, 1.0),
        per_layer(&traced, &untraced, &off),
    )
}

#[test]
fn simulated_results_and_digests_repeat_for_a_seed() {
    for w in Workload::ALL {
        let a = short(w, 7, Obsv::On, &mut Recorder::new(false));
        let b = short(w, 7, Obsv::On, &mut Recorder::new(true));
        assert_eq!(a.victim_p99_ms, b.victim_p99_ms, "{}", w.name());
        assert_eq!(
            a.victim_slo_miss_frac,
            b.victim_slo_miss_frac,
            "{}",
            w.name()
        );
        assert_eq!(a.counts, b.counts, "{}", w.name());
        assert_eq!(a.digests, b.digests, "{}: traced vs untraced", w.name());
        assert!(
            a.counts.requests > 0 && a.victim_p99_ms > 0.0,
            "{}",
            w.name()
        );
        let c = short(w, 8, Obsv::On, &mut Recorder::new(false));
        assert_ne!(
            a.digests,
            c.digests,
            "{}: the seed must change the inputs",
            w.name()
        );
    }
}

#[test]
fn every_metric_is_named_with_a_unit_and_declared() {
    let json = benchmark_json();
    let declared_e2e = section_names(&json, "end_to_end");
    let declared_layer = section_names(&json, "per_layer");
    let ok_name = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    for w in Workload::ALL {
        let (e2e, layer) = all_metrics(w);
        for (metrics, declared) in [(&e2e, &declared_e2e), (&layer, &declared_layer)] {
            let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(&names, declared, "{}: printed vs declared", w.name());
            for m in metrics {
                assert!(ok_name(&m.name), "bad metric name {:?}", m.name);
                assert!(!m.unit.is_empty(), "{} has no unit", m.name);
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
        }
    }
    let workloads = section_names(&json, "workloads");
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn layer_map_refers_to_existing_metrics_and_workloads() {
    let json = benchmark_json();
    let e2e = section_names(&json, "end_to_end");
    let layer = section_names(&json, "per_layer");
    let workloads = section_names(&json, "workloads");
    for row in LAYERS {
        for m in row.metrics {
            assert!(
                layer.iter().any(|n| n == m),
                "{}: no per-layer metric {m}",
                row.layer
            );
        }
        for m in row.moves {
            assert!(
                e2e.iter().any(|n| n == m),
                "{}: no end-to-end metric {m}",
                row.layer
            );
        }
        assert!(
            row.on == "all" || workloads.iter().any(|w| w == row.on),
            "{}: no workload {}",
            row.layer,
            row.on
        );
    }
}
