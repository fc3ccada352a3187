//! Criterion micro-benchmarks for the design choices DESIGN.md calls out:
//! edit-distance algorithms, G2P throughput, M-Tree split policies
//! (the §4.2.1 random-split ablation), closure memoization (the §4.3
//! ablation), and histogram-based ψ selectivity estimation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mlql_mtree::{MTree, SplitPolicy};
use mlql_phonetics::distance::{edit_distance, edit_distance_banded, DistanceBuffer};
use mlql_phonetics::ConverterRegistry;
use mlql_taxonomy::{generate, ClosureCache, GeneratorConfig};
use mlql_unitext::{LanguageRegistry, UniText};

fn bench_edit_distance(c: &mut Criterion) {
    let a = b"nakarapetilanevaru";
    let b = b"nakaraptilanovarux";
    let mut group = c.benchmark_group("edit_distance");
    group.bench_function("full_dp", |bench| {
        bench.iter(|| edit_distance(black_box(a), black_box(b)))
    });
    group.bench_function("banded_k3", |bench| {
        bench.iter(|| edit_distance_banded(black_box(a), black_box(b), 3))
    });
    group.bench_function("banded_k3_reused_buffer", |bench| {
        let mut buf = DistanceBuffer::new();
        bench.iter(|| buf.distance_within(black_box(a), black_box(b), 3))
    });
    // Early-exit on clearly-far strings: the length pre-filter.
    group.bench_function("banded_k1_far", |bench| {
        bench.iter(|| edit_distance_banded(black_box(b"nehru"), black_box(b"subramanian"), 1))
    });
    group.finish();
}

fn bench_g2p(c: &mut Criterion) {
    let langs = LanguageRegistry::new();
    let convs = ConverterRegistry::with_builtins(&langs);
    let mut group = c.benchmark_group("g2p");
    for (label, text, lang) in [
        ("english", "subramanian", "English"),
        ("french", "bourguignon", "French"),
        ("hindi", "नेहरू", "Hindi"),
        ("tamil", "சுப்பிரமணியம்", "Tamil"),
    ] {
        let v = UniText::compose(text, langs.id_of(lang));
        group.bench_function(label, |bench| {
            bench.iter(|| convs.phonemes_of(black_box(&v)))
        });
    }
    group.finish();
}

fn bench_mtree_split_policies(c: &mut Criterion) {
    let langs = LanguageRegistry::new();
    let convs = ConverterRegistry::with_builtins(&langs);
    let data = mlql_datagen::names_dataset(
        &langs,
        &mlql_datagen::NamesConfig {
            records: 2000,
            noise: 0.25,
            seed: 5,
            ..Default::default()
        },
    );
    let keys: Vec<Vec<u8>> = data
        .iter()
        .map(|r| convs.phonemes_of(&r.name).as_bytes().to_vec())
        .collect();
    type Metric = fn(&Vec<u8>, &Vec<u8>) -> f64;
    let metric: Metric = |a, b| edit_distance(a, b) as f64;

    let mut group = c.benchmark_group("mtree_split");
    group.sample_size(10);
    for (label, policy) in [
        ("build_random", SplitPolicy::Random),
        ("build_minmax", SplitPolicy::MinMaxRadius),
    ] {
        group.bench_function(label, |bench| {
            bench.iter(|| {
                let mut t: MTree<Vec<u8>, usize, Metric> =
                    MTree::with_options(metric, 64, policy, 9);
                for (i, k) in keys.iter().enumerate() {
                    t.insert(k.clone(), i);
                }
                black_box(t.node_count())
            })
        });
    }
    // Query pruning comparison at threshold 3 (the paper's setting).
    for (label, policy) in [
        ("probe_random", SplitPolicy::Random),
        ("probe_minmax", SplitPolicy::MinMaxRadius),
    ] {
        let mut t: MTree<Vec<u8>, usize, Metric> = MTree::with_options(metric, 64, policy, 9);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k.clone(), i);
        }
        let probe = keys[0].clone();
        group.bench_function(label, |bench| {
            bench.iter(|| {
                black_box(t.range(black_box(&probe), 3.0))
                    .1
                    .dist_computations
            })
        });
    }
    group.finish();
}

fn bench_closure_memoization(c: &mut Criterion) {
    let langs = LanguageRegistry::new();
    let taxonomy = generate(
        langs.id_of("English"),
        &GeneratorConfig {
            synsets: 20_000,
            ..GeneratorConfig::default()
        },
    );
    let picks = mlql_taxonomy::generator::synsets_near_closure_sizes(&taxonomy, &[1000]);
    let (_, synset, _) = picks[0];

    let mut group = c.benchmark_group("omega_closure");
    group.bench_function("uncached", |bench| {
        bench.iter(|| black_box(mlql_taxonomy::closure::compute_closure(&taxonomy, synset).len()))
    });
    group.bench_function("memoized", |bench| {
        let mut cache = ClosureCache::new();
        cache.closure(&taxonomy, synset); // warm
        bench.iter(|| black_box(cache.closure(&taxonomy, synset).len()))
    });
    // The interval index answers the membership probe without
    // materializing the closure at all (the engine's Ω fast path).
    let index = mlql_taxonomy::IntervalIndex::build(&taxonomy);
    let candidate = mlql_taxonomy::SynsetId(17);
    group.bench_function("interval_index_probe", |bench| {
        bench.iter(|| black_box(index.contains(synset, candidate)))
    });
    group.finish();
}

fn bench_psi_selectivity(c: &mut Criterion) {
    use mlql_mural::selectivity::psi_scan_selectivity;
    let mcvs: Vec<(Vec<u8>, f64)> = (0..10)
        .map(|i| (format!("phoneme{i}").into_bytes(), 0.02))
        .collect();
    c.bench_with_input(
        BenchmarkId::new("psi_selectivity", "10mcv"),
        &mcvs,
        |bench, mcvs| bench.iter(|| psi_scan_selectivity(black_box(mcvs), &[], b"phoneme4x", 2)),
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_edit_distance,
        bench_g2p,
        bench_mtree_split_policies,
        bench_closure_memoization,
        bench_psi_selectivity
}
criterion_main!(benches);
