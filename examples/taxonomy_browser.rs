//! Taxonomy browser: SemEQUAL over a WordNet-scale hierarchy.
//!
//! Generates a multilingual linked taxonomy (the paper's §5.1 replication
//! methodology), installs it as Ω's pinned hierarchy, loads a documents
//! table categorized by random concepts, and answers subsumption queries —
//! showing closure sizes, plan-cache behaviour, and query times.
//!
//! Run: `cargo run --release --example taxonomy_browser [synsets]`

use mlql::kernel::{Datum, Session};
use mlql::mural::install_with_taxonomy;
use mlql::mural::types::unitext_datum;
use mlql::taxonomy::{generate, synsets_near_closure_sizes, GeneratorConfig};
use mlql::unitext::{LanguageRegistry, UniText};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    let synsets: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(30_000);
    let langs = LanguageRegistry::new();
    let en = langs.id_of("English");

    println!("generating a {synsets}-synset hierarchy and linking a French copy ...");
    let mut taxonomy = generate(
        en,
        &GeneratorConfig {
            synsets,
            ..GeneratorConfig::default()
        },
    );
    let fr = langs.id_of("French");
    taxonomy.replicate_linked(&[fr], |w, _| format!("{w}_fr"));
    let stats = taxonomy.stats();
    println!(
        "taxonomy: {} synsets, {} word forms, {} relationships, height {}, avg fan-out {:.2}",
        stats.synsets, stats.word_forms, stats.relationships, stats.height, stats.avg_fanout
    );

    // Pick concepts with interesting closure sizes before installing.
    let picks = synsets_near_closure_sizes(&taxonomy, &[100, 1000, 5000]);
    let concept_words: Vec<(String, usize)> = picks
        .iter()
        .map(|&(_, synset, approx)| (taxonomy.words(synset)[0].clone(), approx))
        .collect();

    let mut db = Session::new_in_memory();
    let mural = install_with_taxonomy(&mut db, taxonomy).expect("install mural");

    // A documents table categorized by random synset word forms.
    println!("\nloading 20000 documents with random categories ...");
    db.execute("CREATE TABLE docs (id INT, category UNITEXT)")
        .unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let taxonomy = mural.sem.taxonomy();
    for i in 0..20_000 {
        let sid = mlql::taxonomy::SynsetId(rng.gen_range(0..synsets as u32));
        let word = &taxonomy.words(sid)[0];
        let v = UniText::compose(word.clone(), en);
        db.insert_row(
            "docs",
            vec![Datum::Int(i), unitext_datum(mural.unitext_type, &v)],
        )
        .unwrap();
    }
    db.execute("ANALYZE docs").unwrap();

    for (word, approx_closure) in &concept_words {
        let sql = format!(
            "SELECT count(*) FROM docs WHERE category SEMEQUAL unitext('{word}','English')"
        );
        // Cold: parses and plans the statement.
        let t = Instant::now();
        let n = db.query(&sql).unwrap();
        let cold = t.elapsed();
        // Warm: the plan is cached; both runs read the interval labels.
        let t = Instant::now();
        let n2 = db.query(&sql).unwrap();
        let warm = t.elapsed();
        assert!(n[0][0].eq_sql(&n2[0][0]));
        println!(
            "concept {word:>14} (closure ≈ {approx_closure:>5}): {} docs — cold {cold:?}, warm {warm:?}",
            n[0][0]
        );
    }

    println!(
        "\nselectivity of the largest concept: {:.4} (exact-closure estimator, §3.4.2)",
        mural
            .sem
            .closure_size_of(&UniText::compose(concept_words[2].0.clone(), en))
            .unwrap() as f64
            / (stats.synsets as f64)
    );
}
