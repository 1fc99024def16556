//! Prior-run reuse (the paper's reference [3], Chung & Hollingsworth
//! SC'04): publish everything a tuning session measures into a shared
//! estimate tier, export the tier as a performance database, and
//! warm-start the next session from it.
//!
//! ```text
//! cargo run --release --example prior_runs
//! ```

use harmony::core::warm_start_center;
use harmony::prelude::*;
use harmony::surface::SharedPerfDb;

/// One 8-client, 120-step min-of-2 server session, publishing its
/// measured estimates into `tier`.
fn session(
    gs2: &Gs2Model,
    noise: &Noise,
    pro: &mut ProOptimizer,
    tier: &SharedPerfDb,
    seed: u64,
) -> TuningOutcome {
    let cfg = ServerConfig::new(8, 120, Estimator::MinOfK(2), seed).expect("valid server config");
    let opts = SessionOptions {
        shared: SharedSession {
            costs: None,
            estimates: Some(tier),
        },
        ..SessionOptions::default()
    };
    run_session(gs2, noise, pro, cfg, opts)
        .expect("fault-free session")
        .outcome
}

fn main() {
    let gs2 = Gs2Model::paper_scale();
    let noise = Noise::paper_default(0.2);
    let tier = SharedPerfDb::new(gs2.space().clone(), 4);

    // --- run 1: cold start, publishing every measured estimate ---
    let mut cold = ProOptimizer::with_defaults(gs2.space().clone());
    let cold_out = session(&gs2, &noise, &mut cold, &tier, 1);
    tier.flush();
    println!(
        "cold run:  best {} -> {:.3} s/iter  ({} configs measured, {} estimates)",
        gs2.space().describe(&cold_out.best_point),
        cold_out.best_true_cost,
        tier.len(),
        tier.stats().records,
    );

    // --- the tier is itself a performance database (§6 shape) ---
    let db = tier.to_database();
    println!(
        "exported:  prior-run database with {} entries ({:.1}% of the lattice)",
        db.len(),
        100.0 * db.coverage()
    );

    // --- run 2: warm start at the smoothed prior best ---
    let mut warm = ProOptimizer::with_defaults(gs2.space().clone());
    warm.recenter(&warm_start_center(&tier).expect("cold run published estimates"));
    let warm_out = session(&gs2, &noise, &mut warm, &tier, 2);
    println!(
        "warm run:  best {} -> {:.3} s/iter",
        gs2.space().describe(&warm_out.best_point),
        warm_out.best_true_cost,
    );

    let optimum = best_on_lattice(&gs2).expect("finite lattice").1;
    println!(
        "optimality: cold {:.2}x, warm {:.2}x of the global optimum ({optimum:.3})",
        cold_out.best_true_cost / optimum,
        warm_out.best_true_cost / optimum,
    );
    println!("\nthe warm session starts its simplex where the cold one ended, so");
    println!("its budget refines the prior basin instead of rediscovering it");
    println!("(single instances are noisy; average with e.g. harmony-tune --reps).");
}
