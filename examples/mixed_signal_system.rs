//! The paper's closing claim — "the framework … can be extended to handle
//! analog/mixed-signal system layout" — exercised on a small SAR-ADC
//! slice: an R-string reference ladder, a sampling comparator front-end,
//! and a latch, all placed together as one multi-group problem.
//!
//! Also demonstrates the LDE field atlas and Q-table checkpointing.
//!
//! Run with: `cargo run --release --example mixed_signal_system`

use breaksym::core::{runner, Budget, Driver, MlmaConfig, MultiLevelPlacer, PlacementTask};
use breaksym::layout::LayoutEnv;
use breaksym::lde::{Atlas, Component, LdeModel};
use breaksym::netlist::{
    CircuitBuilder, CircuitClass, GroupKind, MosParams, MosPolarity, NetKind, PortRole,
};

/// A 1-bit SAR slice: 4+4 reference resistors, an NMOS input pair sampling
/// against the ladder tap, a cross-coupled decision latch, and a tail.
fn sar_slice() -> Result<breaksym::netlist::Circuit, breaksym::netlist::NetlistError> {
    let mut b = CircuitBuilder::new("sar_slice", CircuitClass::Generic);
    let vdd = b.net("vdd", NetKind::Power);
    let vss = b.net("vss", NetKind::Ground);
    let vin = b.net("vin", NetKind::Signal);
    let tap = b.net("tap", NetKind::Signal);
    let tail = b.net("ntail", NetKind::Signal);
    let outp = b.net("outp", NetKind::Signal);
    let outn = b.net("outn", NetKind::Signal);
    let nb = b.net("nbias", NetKind::Bias);

    // Reference ladder: matched resistors, one group (critical matching —
    // ladder mismatch is directly code-dependent nonlinearity in an ADC).
    let g_ladder = b.add_group("g_ladder", GroupKind::Passive)?;
    let mut prev = vdd;
    for i in 0..4 {
        let next = if i == 3 {
            tap
        } else {
            b.net(&format!("nu{i}"), NetKind::Signal)
        };
        b.add_resistor(&format!("RU{i}"), 4e3, 2, g_ladder, prev, next)?;
        prev = next;
    }
    let mut prev = tap;
    for i in 0..4 {
        let next = if i == 3 {
            vss
        } else {
            b.net(&format!("nl{i}"), NetKind::Signal)
        };
        b.add_resistor(&format!("RL{i}"), 4e3, 2, g_ladder, prev, next)?;
        prev = next;
    }

    // Comparator front-end.
    let g_in = b.add_group("g_in", GroupKind::InputPair)?;
    let g_latch = b.add_group("g_latch", GroupKind::CrossCoupledPair)?;
    let g_tail = b.add_group("g_tail", GroupKind::TailSource)?;
    let p_in = MosParams::nmos_default(2.5, 0.15);
    let p_l = MosParams::nmos_default(2.0, 0.15);
    let p_t = MosParams::nmos_default(3.0, 0.3);
    b.add_mos("M1", MosPolarity::Nmos, p_in, 3, g_in, outp, vin, tail, vss)?;
    b.add_mos("M2", MosPolarity::Nmos, p_in, 3, g_in, outn, tap, tail, vss)?;
    b.add_mos("ML1", MosPolarity::Nmos, p_l, 2, g_latch, outp, outn, vss, vss)?;
    b.add_mos("ML2", MosPolarity::Nmos, p_l, 2, g_latch, outn, outp, vss, vss)?;
    b.add_mos("MT", MosPolarity::Nmos, p_t, 2, g_tail, tail, nb, vss, vss)?;

    b.add_vsource("VDD", breaksym::netlist::circuits::VDD, vdd, vss)?;
    b.add_vsource("VB", 0.6, nb, vss)?;
    b.bind_port(PortRole::Vdd, vdd);
    b.bind_port(PortRole::Vss, vss);
    b.bind_port(PortRole::InP, vin);
    b.bind_port(PortRole::InN, tap);
    b.bind_port(PortRole::OutP, outp);
    b.bind_port(PortRole::OutN, outn);
    b.build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = sar_slice()?;
    println!("system: {circuit}");

    // Inspect the field the placer has to fight.
    let lde = LdeModel::nonlinear(1.0, 31);
    println!("\nLDE Vth field over the die (dark = high):");
    print!("{}", Atlas::sample(&lde, Component::Vth, 16).render_ascii());

    let task = PlacementTask::new(circuit, 16, lde);
    let symmetric = runner::best_symmetric_baseline(&task)?;
    println!(
        "\nbest symmetric ({}): group Vth spread = {:.3} mV",
        symmetric.method,
        symmetric.best_primary() * 1e3
    );

    let cfg = MlmaConfig {
        episodes: 20,
        steps_per_episode: 20,
        max_evals: 1_200,
        target_primary: Some(symmetric.best_primary()),
        stop_at_target: false,
        seed: 31,
        ..MlmaConfig::default()
    };
    let mut placer = MultiLevelPlacer::new(&task.initial_env()?, cfg);
    let rl = Driver::new(Budget::from_mlma(&cfg)).run(&task, &mut placer)?;
    println!(
        "mlma-q: group Vth spread = {:.3} mV after {} sims (target hit at {:?})",
        rl.best_primary() * 1e3,
        rl.evaluations,
        rl.sims_to_target
    );

    let env = LayoutEnv::new(task.circuit.clone(), task.spec, rl.best_placement.clone())?;
    println!("\nsystem layout (A=ladder, B=input pair, C=latch, D=tail):");
    print!("{}", env.render_ascii());

    // Checkpoint the learned tables for a future session.
    let checkpoint = placer.to_json()?;
    println!(
        "\ncheckpoint: {} bytes of Q-tables (MultiLevelPlacer::from_json resumes them)",
        checkpoint.len()
    );
    Ok(())
}
