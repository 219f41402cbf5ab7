//! Saved-model compatibility across the three RouteNet variants.
//!
//! `tests/fixtures/model_{original,extended,qos}.json` are tiny trained-shape
//! models written by an earlier build. Each must keep loading into its own
//! type with bitwise-identical predictions to the same model rebuilt from
//! its recipe, and must be refused — with an error naming both variants —
//! by the other two types, instead of loading with an entity silently
//! dropped or left missing.
//!
//! Regenerate the files (only after an intentional format change) with:
//!
//! ```sh
//! RN_REGEN_GOLDEN=1 cargo test --test saved_models
//! ```

use rn_dataset::{generate, Dataset, GeneratorConfig, QosGenConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use routenet::model::PathPredictor;
use routenet::persist::{load_model, save_model};
use routenet::{ExtendedRouteNet, ModelConfig, OriginalRouteNet, QosRouteNet};
use std::path::{Path, PathBuf};

fn fixture_path(variant: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("model_{variant}.json"))
}

/// The recipe every fixture was built from: a fixed-seed toy5 dataset (two
/// traffic classes for the QoS model) and a tiny fixed-seed configuration.
fn recipe_dataset(qos: bool) -> Dataset {
    let config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 30.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        qos: qos.then(QosGenConfig::two_class_mix),
        ..GeneratorConfig::default()
    };
    generate(&topologies::toy5(), &config, 20_190_104, 1)
}

fn recipe<M: PathPredictor>(new: fn(ModelConfig) -> M, ds: &Dataset) -> M {
    let mut model = new(ModelConfig {
        state_dim: 4,
        mp_iterations: 2,
        readout_hidden: 4,
        seed: 13,
        ..ModelConfig::default()
    });
    model.fit_preprocessing(ds, 5);
    model
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

type Load<M> = fn(&Path) -> Result<M, String>;

/// Load `variant`'s fixture as `M` (or rewrite it under `RN_REGEN_GOLDEN`)
/// and compare its predictions bit for bit with the rebuilt recipe model.
fn check_loads<M: PathPredictor>(
    variant: &str,
    new: fn(ModelConfig) -> M,
    save: fn(&M, &Path) -> Result<(), String>,
    load: Load<M>,
    qos: bool,
) {
    let ds = recipe_dataset(qos);
    let rebuilt = recipe(new, &ds);
    let path = fixture_path(variant);
    if std::env::var("RN_REGEN_GOLDEN").is_ok() {
        save(&rebuilt, &path).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let loaded = load(&path).unwrap_or_else(|e| panic!("{variant}: {e}"));
    assert_eq!(loaded.name(), variant);
    let plan = rebuilt.plan(&ds.samples[0]);
    assert_eq!(
        bits(&loaded.predict(&loaded.plan(&ds.samples[0]))),
        bits(&rebuilt.predict(&plan)),
        "{variant}: loaded model predicts differently"
    );
}

/// Loading `file`'s fixture as `M` must fail with an error that names both
/// the file's variant and `M`'s (in backticks, so the file path in the
/// message cannot satisfy the check).
fn check_refused<M>(load: Load<M>, file: &str, wanted: &str) {
    let err = match load(&fixture_path(file)) {
        Ok(_) => panic!("a saved `{file}` model loaded as `{wanted}`"),
        Err(e) => e,
    };
    assert!(
        err.contains(&format!("`{file}`")) && err.contains(&format!("`{wanted}`")),
        "error must name both variants, got: {err}"
    );
}

#[test]
fn saved_models_load_into_their_own_variant() {
    check_loads(
        "original",
        OriginalRouteNet::new,
        save_model,
        load_model,
        false,
    );
    check_loads(
        "extended",
        ExtendedRouteNet::new,
        save_model,
        load_model,
        false,
    );
    check_loads("qos", QosRouteNet::new, save_model, load_model, true);
}

#[test]
fn saved_models_are_refused_by_the_other_variants() {
    if std::env::var("RN_REGEN_GOLDEN").is_ok() {
        return;
    }
    check_refused(load_model::<ExtendedRouteNet>, "original", "extended");
    check_refused(load_model::<QosRouteNet>, "original", "qos");
    check_refused(load_model::<OriginalRouteNet>, "extended", "original");
    check_refused(load_model::<QosRouteNet>, "extended", "qos");
    check_refused(load_model::<OriginalRouteNet>, "qos", "original");
    check_refused(load_model::<ExtendedRouteNet>, "qos", "extended");
}
