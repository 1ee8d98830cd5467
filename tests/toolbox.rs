//! Integration coverage of the supporting toolbox: lints, atlases,
//! congestion audits, operating-point reports, transient analysis,
//! checkpointing and multi-seed execution — all through the facade.

use breaksym::core::{runner, MlmaConfig, MultiLevelPlacer, PlacementTask};
use breaksym::layout::LayoutEnv;
use breaksym::lde::{Atlas, Component, LdeModel};
use breaksym::netlist::{circuits, lint::lint, PortRole};
use breaksym::route::{congestion_score, CongestionMap, MazeRouter, RouteConfig};
use breaksym::sim::{
    DcSolver, EvalOptions, Evaluator, ExtraElement, MnaContext, OpReport, SolverWorkspace,
    TransientSolver,
};

#[test]
fn every_library_circuit_lints_clean_and_reports_an_op_point() {
    for circuit in [
        circuits::current_mirror_medium(),
        circuits::comparator(),
        circuits::folded_cascode_ota(),
        circuits::five_transistor_ota(),
        circuits::two_stage_miller(),
    ] {
        let name = circuit.name().to_string();
        assert!(lint(&circuit).is_empty(), "{name} must lint clean");

        // Build testbench-ish extras only for circuits with In ports.
        let vss = circuit.require_port(PortRole::Vss).expect("bound");
        let mut extras = Vec::new();
        if let (Some(inp), Some(inn)) = (circuit.port(PortRole::InP), circuit.port(PortRole::InN)) {
            let vcm = 0.5;
            extras.push(ExtraElement::Vsource { p: inp, n: vss, volts: vcm, ac: 0.0 });
            if circuit.find_device("VCM").is_none() {
                extras.push(ExtraElement::Vsource { p: inn, n: vss, volts: vcm, ac: 0.0 });
            } else {
                extras.pop(); // inp already driven by the embedded source
                extras.push(ExtraElement::Vsource { p: inn, n: vss, volts: 0.55, ac: 0.0 });
            }
        }
        if let Some(clk) = circuit.port(PortRole::Clock) {
            extras.push(ExtraElement::Vsource { p: clk, n: vss, volts: 1.1, ac: 0.0 });
        }
        let ctx = MnaContext::new(&circuit, &extras);
        let dc = DcSolver::new(&circuit, &[], &extras)
            .solve_ws(&ctx, &mut SolverWorkspace::new())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = OpReport::new(&circuit, &dc);
        let mos_count = circuit.devices().iter().filter(|d| d.mos_polarity().is_some()).count();
        assert_eq!(report.devices.len(), mos_count, "{name}");
        assert!(!report.to_string().is_empty());
    }
}

#[test]
fn atlas_reflects_the_model_the_evaluator_uses() {
    let lde = LdeModel::nonlinear(1.0, 9);
    let atlas = Atlas::sample(&lde, Component::Vth, 10);
    // The atlas sample at a cell center equals the model evaluated there.
    let v = atlas.value(3, 7);
    let direct = lde.shift_at_norm(3.5 / 10.0, 7.5 / 10.0).dvth_v;
    assert!((v - direct).abs() < 1e-15);
    // And the non-linear model really varies across the die.
    let (lo, hi) = atlas.range();
    assert!(hi - lo > 1e-3, "field must span millivolts, got {:.3e}", hi - lo);
}

#[test]
fn optimised_layouts_route_with_bounded_congestion() {
    let task = PlacementTask::new(circuits::five_transistor_ota(), 14, LdeModel::nonlinear(1.0, 4));
    let rl = runner::run_mlma(
        &task,
        &MlmaConfig {
            episodes: 4,
            steps_per_episode: 10,
            max_evals: 200,
            seed: 4,
            ..MlmaConfig::default()
        },
    )
    .expect("runs");
    let env = LayoutEnv::new(task.circuit.clone(), task.spec, rl.best_placement).expect("legal");
    let routed = MazeRouter::new(RouteConfig::default()).route(&env);
    assert!(routed.failed.is_empty(), "all nets must route");
    let map = CongestionMap::new(&routed, env.spec());
    assert!(map.used_cells() > 0);
    assert!(congestion_score(&map).is_finite());
    let (_, peak) = map.hotspot().expect("routed nets exist");
    assert!(peak < 16, "congestion should stay bounded, got {peak}");
}

#[test]
fn transient_and_formula_delays_are_same_order() {
    let env =
        LayoutEnv::sequential(circuits::comparator(), breaksym::geometry::GridSpec::square(16))
            .expect("fits");
    let formula = Evaluator::new(LdeModel::none())
        .evaluate(&env)
        .expect("simulates")
        .delay_s
        .expect("reported");
    let transient = Evaluator::new(LdeModel::none())
        .with_options(EvalOptions { comp_transient: true, ..EvalOptions::default() })
        .evaluate(&env)
        .expect("simulates")
        .delay_s
        .expect("reported");
    assert!(formula > 0.0 && transient > 0.0);
    let ratio = transient / formula;
    assert!(
        (0.02..50.0).contains(&ratio),
        "formula ({formula:.3e}) and transient ({transient:.3e}) must agree within ~an order"
    );
}

#[test]
fn checkpoint_survives_facade_round_trip_and_seeds_run_in_parallel() {
    let task = PlacementTask::new(circuits::diff_pair(), 10, LdeModel::nonlinear(1.0, 6));
    let cfg = MlmaConfig {
        episodes: 3,
        steps_per_episode: 8,
        max_evals: 150,
        seed: 6,
        ..MlmaConfig::default()
    };
    // Parallel seeds (std::thread under the hood).
    let reports = runner::run_mlma_seeds(&task, &cfg, &[1, 2, 3]).expect("runs");
    assert_eq!(reports.len(), 3);
    for r in &reports {
        assert!(r.best_cost <= r.initial_cost);
    }

    // Checkpoint round trip through the facade.
    let env = task.initial_env().expect("fits");
    let placer = MultiLevelPlacer::new(&env, cfg);
    let json = placer.to_json().expect("serialises");
    let restored = MultiLevelPlacer::from_json(&json).expect("parses");
    assert_eq!(restored, placer);
}

#[test]
fn transient_rc_through_facade() {
    use breaksym::netlist::{CircuitBuilder, CircuitClass, GroupKind, NetKind};
    let mut b = CircuitBuilder::new("rc", CircuitClass::Generic);
    let vin = b.net("vin", NetKind::Signal);
    let vout = b.net("vout", NetKind::Signal);
    let vss = b.net("vss", NetKind::Ground);
    let g = b.add_group("g", GroupKind::Passive).expect("fresh");
    b.add_resistor("R1", 10e3, 1, g, vin, vout).expect("valid");
    b.add_capacitor("C1", 100e-12, 1, g, vout, vss).expect("valid");
    b.bind_port(PortRole::Vss, vss);
    let circuit = b.build().expect("valid");
    let extras = vec![ExtraElement::Vsource { p: vin, n: vss, volts: 0.0, ac: 0.0 }];
    let tran = TransientSolver::new(&circuit, &[], &extras, &[]);
    // tau = 1 µs; at t = tau the output sits at 1 − 1/e.
    let result = tran
        .run_ws(1e-6, 1e-8, |_| vec![(0, 1.0)], &mut SolverWorkspace::new())
        .expect("integrates");
    let last = result.waveform(vout).last().map(|&(_, v)| v).expect("steps");
    let expect = 1.0 - (-1.0f64).exp();
    assert!((last - expect).abs() < 0.01, "got {last}, expected {expect}");
}
