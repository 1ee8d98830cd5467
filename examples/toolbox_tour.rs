//! A tour of the supporting toolbox around the placer: netlist lints,
//! LDE field atlases, operating-point reports, routing congestion, and
//! learned-policy extraction.
//!
//! Run with: `cargo run --release --example toolbox_tour`

use breaksym::anneal::SaConfig;
use breaksym::core::{
    run_portfolio, Budget, Driver, MethodSpec, MlmaConfig, MultiLevelPlacer, Objective,
    PlacementTask,
};
use breaksym::layout::LayoutEnv;
use breaksym::lde::{Atlas, Component, LdeModel};
use breaksym::netlist::{circuits, lint::lint, PortRole};
use breaksym::route::{congestion_score, CongestionMap, MazeRouter, RouteConfig};
use breaksym::sim::{DcSolver, Evaluator, ExtraElement, MnaContext, OpReport, SolverWorkspace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = circuits::five_transistor_ota();

    // 1. Lint: structural sanity before wasting simulations.
    let warnings = lint(&circuit);
    println!("lint: {} warning(s)", warnings.len());
    for w in &warnings {
        println!("  - {w}");
    }

    // 2. The LDE battlefield.
    let lde = LdeModel::nonlinear(1.0, 5);
    let atlas = Atlas::sample(&lde, Component::Vth, 14);
    let (lo, hi) = atlas.range();
    println!(
        "\nVth field: {:.1}..{:.1} mV across the die, roughness {:.3} mV/cell",
        lo * 1e3,
        hi * 1e3,
        atlas.roughness() * 1e3
    );
    print!("{}", atlas.render_ascii());

    // 3. Operating point of the nominal circuit.
    let vss = circuit.require_port(PortRole::Vss)?;
    let inp = circuit.require_port(PortRole::InP)?;
    let inn = circuit.require_port(PortRole::InN)?;
    let extras = vec![
        ExtraElement::Vsource { p: inp, n: vss, volts: 0.55, ac: 0.0 },
        ExtraElement::Vsource { p: inn, n: vss, volts: 0.55, ac: 0.0 },
    ];
    let ctx = MnaContext::new(&circuit, &extras);
    let dc = DcSolver::new(&circuit, &[], &extras).solve_ws(&ctx, &mut SolverWorkspace::new())?;
    let report = OpReport::new(&circuit, &dc);
    println!("\noperating point:\n{report}");
    println!("devices out of saturation: {}", report.out_of_saturation().len());

    // 4. Optimise, then inspect what the agents learned.
    let task = PlacementTask::new(circuit, 14, lde);
    let env0 = task.initial_env()?;
    let evaluator = Evaluator::new(task.lde.clone());
    let initial = evaluator.evaluate(&env0)?;
    let objective = Objective::normalized_to(&initial);

    let cfg = MlmaConfig {
        episodes: 10,
        steps_per_episode: 15,
        max_evals: 600,
        seed: 5,
        ..MlmaConfig::default()
    };
    // Train the placer whose learned policy is extracted below.
    let mut placer = MultiLevelPlacer::new(&env0, cfg);
    let report = Driver::new(Budget::from_mlma(&cfg)).run(&task, &mut placer)?;
    println!(
        "offset: {:.3} mV -> {:.3} mV in {} sims",
        initial.primary() * 1e3,
        report.best_primary() * 1e3,
        report.evaluations
    );
    println!(
        "objective cost of the best placement: {:.4}",
        objective.cost(&report.best_metrics)
    );

    // Extract the trained hierarchy's greedy policy as a move macro.
    let mut env = task.initial_env()?;
    let rollout = placer.greedy_rollout(&mut env, 8);
    println!("\ngreedy rollout of the trained hierarchy: {} moves", rollout.len());

    // 5. The same method, step-driven: the generic Driver owns the budget
    // and checkpointing, the placer only proposes and observes. Grab the
    // first mid-run checkpoint, round-trip it through JSON, and resume it
    // with a fresh placer — bit-identical to the uninterrupted run.
    let mut stepped = MultiLevelPlacer::new(&task.initial_env()?, cfg);
    let mut first_ckpt = None;
    let driver = Driver::new(Budget::from_mlma(&cfg)).with_checkpoint_every(200);
    let direct = driver.run_observed(&task, &mut stepped, |c| {
        if first_ckpt.is_none() {
            first_ckpt = Some(c.clone());
        }
    })?;
    if let Some(ckpt) = first_ckpt {
        let json = ckpt.to_json()?;
        let parsed = breaksym::core::RunCheckpoint::from_json(&json)?;
        let mut fresh = MultiLevelPlacer::new(&task.initial_env()?, cfg);
        let resumed = Driver::new(Budget::from_mlma(&cfg)).resume(&task, &mut fresh, &parsed)?;
        println!(
            "\ndriver: checkpoint at eval {} ({} bytes of JSON); resumed best {:.4} vs direct {:.4} ({})",
            ckpt.evals,
            json.len(),
            resumed.best_cost,
            direct.best_cost,
            if resumed.best_cost.to_bits() == direct.best_cost.to_bits() {
                "bit-identical"
            } else {
                "DIVERGED"
            }
        );
    }

    // 6. A deterministic portfolio: seeds × methods across threads. The
    // trajectories are bit-identical whatever the thread count.
    let small = MlmaConfig { max_evals: 200, ..cfg };
    let methods = [
        MethodSpec::Mlma(small),
        MethodSpec::Sa(SaConfig { max_evals: 200, ..SaConfig::default() }),
    ];
    let reports = run_portfolio(&task, &methods, &[5, 6], 4)?;
    println!("\nportfolio (2 seeds x 2 methods, 4 threads):");
    for r in &reports {
        println!(
            "  {:8} best {:.4} in {} evals ({} ms)",
            r.method, r.best_cost, r.evaluations, r.elapsed_ms
        );
    }

    // 7. Route the optimised placement and audit congestion.
    let routed_env = LayoutEnv::new(task.circuit.clone(), task.spec, report.best_placement)?;
    let routed = MazeRouter::new(RouteConfig::default()).route(&routed_env);
    let map = CongestionMap::new(&routed, routed_env.spec());
    println!(
        "\nrouting: {:.1} um total, congestion score {:.0}, hotspot {:?}",
        routed.total_length_um,
        congestion_score(&map),
        map.hotspot()
    );
    print!("{}", map.render_ascii());
    Ok(())
}
