//! Class-specific testbenches: how each benchmark circuit is excited,
//! measured, and reduced to a [`Metrics`] vector.

use breaksym_lde::ParamShift;
use breaksym_netlist::{Circuit, CircuitClass, GroupKind, NetId, PortRole};

use crate::metrics::analyze_gain_sweep;
use crate::{
    AcSolver, AcSweep, DcSolver, ExtraElement, Metrics, MnaContext, SimError, SolverWorkspace,
};

/// Options shared by the testbenches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOptions {
    /// OTA load capacitance in farads.
    pub cl_farads: f64,
    /// Input common-mode voltage for NMOS-input circuits, in volts.
    pub vcm_n: f64,
    /// Input common-mode voltage for PMOS-input circuits, in volts.
    pub vcm_p: f64,
    /// Compliance voltage applied to mirror outputs, in volts.
    pub mirror_compliance_v: f64,
    /// Comparator clock frequency for dynamic power, in Hz.
    pub fclk_hz: f64,
    /// Comparator input amplitude for the delay formula, in volts.
    pub comp_vin: f64,
    /// Measure the comparator delay by transient simulation instead of the
    /// regeneration-constant formula (slower; used for reporting, not in
    /// the optimisation loop).
    pub comp_transient: bool,
    /// AC sweep for OTA frequency response.
    pub sweep: AcSweep,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            cl_farads: 200e-15,
            vcm_n: 0.55,
            vcm_p: 0.45,
            mirror_compliance_v: 0.6,
            fclk_hz: 1e9,
            comp_vin: 10e-3,
            comp_transient: false,
            sweep: AcSweep::default(),
        }
    }
}

/// The testbench dispatcher: evaluates a circuit of any supported class.
#[derive(Debug, Clone, Default)]
pub struct Testbench {
    /// Options shared by the class benches.
    pub options: EvalOptions,
}

impl Testbench {
    /// Evaluates `circuit` under per-device `shifts` and per-net parasitic
    /// capacitances `node_caps`; fills the class-specific metric fields
    /// (area/wirelength are the caller's business). Every solve inside the
    /// class benches draws its scratch from `ws`, so repeated evaluations
    /// of the same circuit allocate nothing after the first.
    ///
    /// # Errors
    ///
    /// Propagates solver failures and missing ports.
    pub fn run_ws(
        &self,
        circuit: &Circuit,
        shifts: &[ParamShift],
        node_caps: &[(NetId, f64)],
        ws: &mut SolverWorkspace,
    ) -> Result<Metrics, SimError> {
        match circuit.class() {
            CircuitClass::CurrentMirror => self.run_mirror(circuit, shifts, node_caps, ws),
            CircuitClass::Ota => self.run_ota(circuit, shifts, node_caps, ws),
            CircuitClass::Comparator => self.run_comparator(circuit, shifts, node_caps, ws),
            CircuitClass::Generic => self.run_generic(circuit, shifts),
        }
    }

    /// CM: clamp every output at the compliance voltage, measure branch
    /// currents, and report the worst relative deviation from the measured
    /// reference current.
    fn run_mirror(
        &self,
        circuit: &Circuit,
        shifts: &[ParamShift],
        node_caps: &[(NetId, f64)],
        ws: &mut SolverWorkspace,
    ) -> Result<Metrics, SimError> {
        let _ = node_caps; // capacitance does not matter at DC
        let vss = circuit.require_port(PortRole::Vss)?;
        let mut outs = Vec::new();
        for k in 0..16u8 {
            match circuit.port(PortRole::Iout(k)) {
                Some(n) => outs.push(n),
                None => break,
            }
        }
        if outs.is_empty() {
            return Err(SimError::BadCircuit { reason: "current mirror has no iout ports".into() });
        }
        let extras: Vec<ExtraElement> = outs
            .iter()
            .map(|&n| ExtraElement::Vsource {
                p: n,
                n: vss,
                volts: self.options.mirror_compliance_v,
                ac: 0.0,
            })
            .collect();
        let ctx = MnaContext::new(circuit, &extras);
        let dc = DcSolver::new(circuit, shifts, &extras).solve_ws(&ctx, ws)?;

        // Reference current: what the IREF source pushes in.
        let iref_dev = circuit
            .devices()
            .iter()
            .position(|d| matches!(d.kind, breaksym_netlist::DeviceKind::CurrentSource { .. }))
            .ok_or_else(|| SimError::BadCircuit {
                reason: "mirror lacks a reference source".into(),
            })?;
        let iref = match circuit.devices()[iref_dev].kind {
            breaksym_netlist::DeviceKind::CurrentSource { amps } => amps.abs(),
            _ => unreachable!("position() matched a current source"),
        };

        let mut worst = 0.0f64;
        for (ei, _) in outs.iter().enumerate() {
            let ib = dc.extra_branch_current(&ctx, ei).expect("clamps are voltage sources");
            let iout = ib.abs();
            let err = (iout - iref).abs() / iref;
            worst = worst.max(err);
        }

        let power = self.supply_power(circuit, &ctx, &dc)?;
        let mut m = Metrics::empty(circuit.class());
        m.mismatch_pct = Some(worst * 100.0);
        m.power_w = Some(power);
        Ok(m)
    }

    /// OTA: offset by the output-clamp/transconductance method, frequency
    /// response by AC sweep at the nominal operating point.
    fn run_ota(
        &self,
        circuit: &Circuit,
        shifts: &[ParamShift],
        node_caps: &[(NetId, f64)],
        ws: &mut SolverWorkspace,
    ) -> Result<Metrics, SimError> {
        let vss = circuit.require_port(PortRole::Vss)?;
        let inp = circuit.require_port(PortRole::InP)?;
        let inn = circuit.require_port(PortRole::InN)?;
        let out = circuit.require_port(PortRole::Out)?;

        // Base excitation: inputs at the common mode (±0.5 differential AC)
        // and the load capacitor.
        let vcm = self.input_vcm(circuit);
        let base = vec![
            ExtraElement::Vsource { p: inp, n: vss, volts: vcm, ac: 0.5 },
            ExtraElement::Vsource { p: inn, n: vss, volts: vcm, ac: -0.5 },
            ExtraElement::Capacitor { p: out, n: vss, farads: self.options.cl_farads },
        ];

        // Pass 1 — nominal (no shifts): operating point and output voltage.
        let ctx = MnaContext::new(circuit, &base);
        let dc_nom = DcSolver::new(circuit, &[], &base).solve_ws(&ctx, ws)?;
        let vout_nom = dc_nom.voltage(out);

        // Pass 2 — offset-nulled shifted operating point: clamp the output
        // at the nominal voltage. High-gain OTAs rail their outputs under
        // any realistic systematic offset in open loop, so all small-signal
        // performance is measured at this nulled point (the equivalent of
        // an offset-corrected open-loop measurement).
        let mut clamped = base.clone();
        clamped.push(ExtraElement::Vsource { p: out, n: vss, volts: vout_nom, ac: 0.0 });
        let clamp_idx = clamped.len() - 1;
        let ctx_c = MnaContext::new(circuit, &clamped);
        let dc_c = DcSolver::new(circuit, shifts, &clamped).solve_ws(&ctx_c, ws)?;

        // Frequency response: the AC stamp only consumes the per-device
        // operating points, so the nulled DC solution drives an AC solve on
        // the clamp-free topology.
        let ac = AcSolver::new(circuit, shifts, &base, &dc_c, node_caps);
        let mut sweep_points = Vec::new();
        for f in self.options.sweep.frequencies() {
            let sol = ac.solve_ws(&ctx, f, ws)?;
            sweep_points.push((f, sol.voltage(out)));
        }
        let (gain_db, ugb, pm) = analyze_gain_sweep(&sweep_points);

        // Common-mode gain: drive both inputs with the same +1 V AC at the
        // lowest sweep frequency; CMRR = |Adm| / |Acm|. With perfectly
        // matched devices Acm is limited only by the finite tail impedance,
        // so CMRR is large; mismatch degrades it.
        let cm_extras = vec![
            ExtraElement::Vsource { p: inp, n: vss, volts: vcm, ac: 1.0 },
            ExtraElement::Vsource { p: inn, n: vss, volts: vcm, ac: 1.0 },
            ExtraElement::Capacitor { p: out, n: vss, farads: self.options.cl_farads },
        ];
        let ctx_cm = MnaContext::new(circuit, &cm_extras);
        let f_low = self.options.sweep.f_start;
        let acm = AcSolver::new(circuit, shifts, &cm_extras, &dc_c, node_caps)
            .solve_ws(&ctx_cm, f_low, ws)?
            .voltage(out)
            .abs();
        let adm = sweep_points.first().map(|(_, h)| h.abs()).unwrap_or(0.0);
        let cmrr_db = if acm > 0.0 && adm > 0.0 {
            Some(20.0 * (adm / acm).log10())
        } else {
            None
        };

        // Supply rejection: ripple the embedded VDD source by 1 V AC (the
        // input extras stay AC-quiet for this solve) and compare with the
        // differential gain.
        let psrr_db = circuit
            .devices()
            .iter()
            .position(|d| {
                matches!(d.kind, breaksym_netlist::DeviceKind::VoltageSource { .. })
                    && d.pin(breaksym_netlist::Terminal::P) == circuit.port(PortRole::Vdd)
            })
            .and_then(|vdd_idx| {
                let quiet: Vec<ExtraElement> = base
                    .iter()
                    .map(|e| match *e {
                        ExtraElement::Vsource { p, n, volts, .. } => {
                            ExtraElement::Vsource { p, n, volts, ac: 0.0 }
                        }
                        other => other,
                    })
                    .collect();
                let avdd = AcSolver::new(circuit, shifts, &quiet, &dc_c, node_caps)
                    .with_device_drive(breaksym_netlist::DeviceId::new(vdd_idx as u32), 1.0)
                    .solve_ws(&ctx, f_low, ws)
                    .ok()?
                    .voltage(out)
                    .abs();
                (avdd > 0.0 && adm > 0.0).then(|| 20.0 * (adm / avdd).log10())
            });

        // Offset: the clamp's branch current is the output imbalance;
        // refer it to the input through the measured transconductance.
        let di = dc_c.extra_branch_current(&ctx_c, clamp_idx).expect("clamp is a voltage source");
        // Transconductance to the clamped output: AC drive is the ±0.5
        // differential pair already in `base`; measure the clamp current.
        let ac_c = AcSolver::new(circuit, shifts, &clamped, &dc_c, node_caps);
        let gm_sol = ac_c.solve_ws(&ctx_c, 0.0, ws)?;
        let gm = gm_sol
            .extra_branch_current(&ctx_c, clamp_idx)
            .expect("clamp is a voltage source")
            .abs();
        let offset = if gm > 1e-12 { di / gm } else { f64::INFINITY };

        let power = self.supply_power(circuit, &ctx_c, &dc_c)?;
        let mut m = Metrics::empty(circuit.class());
        m.offset_v = Some(offset);
        m.gain_db = gain_db;
        m.ugb_hz = ugb;
        m.phase_margin_deg = pm;
        m.cmrr_db = cmrr_db;
        m.psrr_db = psrr_db;
        m.noise_nv_rthz = input_referred_noise(circuit, &dc_c);
        m.power_w = Some(power);
        Ok(m)
    }

    /// COMP: hold the latch balanced with a 0 V clamp between the outputs
    /// (clock high = evaluation phase), read the imbalance current, refer
    /// through the simulated differential transconductance; delay from the
    /// regeneration time constant.
    fn run_comparator(
        &self,
        circuit: &Circuit,
        shifts: &[ParamShift],
        node_caps: &[(NetId, f64)],
        ws: &mut SolverWorkspace,
    ) -> Result<Metrics, SimError> {
        let vss = circuit.require_port(PortRole::Vss)?;
        let vdd_net = circuit.require_port(PortRole::Vdd)?;
        let inn = circuit.require_port(PortRole::InN)?;
        let outp = circuit.require_port(PortRole::OutP)?;
        let outn = circuit.require_port(PortRole::OutN)?;
        let clk = circuit.require_port(PortRole::Clock)?;

        let vdd = breaksym_netlist::circuits::VDD;
        let extras = vec![
            ExtraElement::Vsource { p: clk, n: vss, volts: vdd, ac: 0.0 },
            // inp is driven by the embedded VCM source; inn gets the
            // matching drive, carrying the differential AC for the Gm
            // measurement.
            ExtraElement::Vsource { p: inn, n: vss, volts: self.input_vcm(circuit), ac: 1.0 },
            ExtraElement::clamp(outp, outn),
        ];
        let clamp_idx = 2;
        let ctx = MnaContext::new(circuit, &extras);
        let dc = DcSolver::new(circuit, shifts, &extras).solve_ws(&ctx, ws)?;
        let di = dc.extra_branch_current(&ctx, clamp_idx).expect("clamp is a voltage source");

        let ac = AcSolver::new(circuit, shifts, &extras, &dc, node_caps);
        let gm_sol = ac.solve_ws(&ctx, 0.0, ws)?;
        let gm = gm_sol
            .extra_branch_current(&ctx, clamp_idx)
            .expect("clamp is a voltage source")
            .abs();
        let offset = if gm > 1e-12 {
            di.abs() / gm
        } else {
            f64::INFINITY
        };

        // Regeneration: τ = C_out / gm_latch with gm_latch the sum of the
        // cross-coupled transconductances on one output.
        let mut gm_latch = 0.0;
        let mut c_out = 0.0;
        for (di_, dev) in circuit.devices().iter().enumerate() {
            let Some(op) = dc.mos_op(breaksym_netlist::DeviceId::new(di_ as u32)) else {
                continue;
            };
            let is_cc = dev
                .group
                .map(|g| circuit.group(g).kind == GroupKind::CrossCoupledPair)
                .unwrap_or(false);
            let on_outp = dev.pins.first() == Some(&outp);
            if is_cc && on_outp {
                gm_latch += op.gm;
            }
            if on_outp {
                if let Some(params) = dev.mos_params() {
                    let (cgs, _) = crate::mos::capacitances(params, dev.num_units, op.saturated);
                    c_out += cgs * 0.5; // drain-side loading approximation
                }
            }
        }
        for &(net, c) in node_caps {
            if net == outp {
                c_out += c;
            }
        }
        c_out = c_out.max(1e-15);
        let delay = if self.options.comp_transient {
            self.comparator_transient_delay(circuit, shifts, node_caps, self.options.comp_vin, ws)?
                .unwrap_or(f64::INFINITY)
        } else if gm_latch > 1e-9 {
            (c_out / gm_latch) * (vdd / (2.0 * self.options.comp_vin)).ln()
        } else {
            f64::INFINITY
        };

        // Dynamic power: the four latch nodes swing rail-to-rail each cycle.
        let mut c_dyn = 0.0;
        for &(net, c) in node_caps {
            c_dyn += c;
            let _ = net;
        }
        c_dyn += 4.0 * c_out;
        let static_w = self.supply_power(circuit, &ctx, &dc)?;
        let power = c_dyn * vdd * vdd * self.options.fclk_hz + static_w;
        let _ = vdd_net;

        let mut m = Metrics::empty(circuit.class());
        m.offset_v = Some(offset);
        m.delay_s = Some(delay);
        m.power_w = Some(power);
        Ok(m)
    }

    /// Measures the comparator's decision delay by transient simulation:
    /// precharge with the clock low, release the clock at `t = 0` with a
    /// differential input of `dv`, and report the time until the outputs
    /// separate by half the supply. Returns `None` when the latch never
    /// resolves within the simulated window.
    ///
    /// # Errors
    ///
    /// Propagates transient solver failures.
    pub fn comparator_transient_delay(
        &self,
        circuit: &Circuit,
        shifts: &[ParamShift],
        node_caps: &[(NetId, f64)],
        dv: f64,
        ws: &mut SolverWorkspace,
    ) -> Result<Option<f64>, SimError> {
        let vss = circuit.require_port(PortRole::Vss)?;
        let inn = circuit.require_port(PortRole::InN)?;
        let outp = circuit.require_port(PortRole::OutP)?;
        let outn = circuit.require_port(PortRole::OutN)?;
        let clk = circuit.require_port(PortRole::Clock)?;
        let vdd = breaksym_netlist::circuits::VDD;

        // t <= 0: clock low (precharge), inn offset by −dv relative to the
        // embedded inp common mode so the differential input is +dv.
        let extras = vec![
            ExtraElement::Vsource { p: clk, n: vss, volts: 0.0, ac: 0.0 },
            ExtraElement::Vsource { p: inn, n: vss, volts: self.input_vcm(circuit) - dv, ac: 0.0 },
        ];
        let tran = crate::TransientSolver::new(circuit, shifts, &extras, node_caps);
        // 2 ns window at 5 ps resolution covers GHz-class comparators.
        let result = tran.run_ws(2e-9, 5e-12, |_t| vec![(0, vdd)], ws)?;
        let (op, on) = (outp.index(), outn.index());
        Ok(result.first_time(|v| (v[op] - v[on]).abs() > vdd / 2.0))
    }

    /// Generic circuits: no testbench; the "offset" proxy is the worst
    /// intra-group spread of systematic Vth shifts over matching-critical
    /// groups — exactly the quantity symmetric layouts try to null.
    fn run_generic(&self, circuit: &Circuit, shifts: &[ParamShift]) -> Result<Metrics, SimError> {
        let mut worst = 0.0f64;
        for g in circuit.groups() {
            if !g.kind.is_matching_critical() {
                continue;
            }
            let vths: Vec<f64> = g
                .devices
                .iter()
                .map(|d| shifts.get(d.index()).copied().unwrap_or(ParamShift::ZERO).dvth_v)
                .collect();
            if vths.len() < 2 {
                continue;
            }
            let max = vths.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let min = vths.iter().cloned().fold(f64::INFINITY, f64::min);
            worst = worst.max(max - min);
        }
        let mut m = Metrics::empty(circuit.class());
        m.offset_v = Some(worst);
        Ok(m)
    }

    /// Picks the input common-mode voltage by the polarity of the input
    /// pair: NMOS inputs want a CM above mid-rail, PMOS inputs below.
    fn input_vcm(&self, circuit: &Circuit) -> f64 {
        let pmos_input = circuit
            .groups()
            .iter()
            .find(|g| g.kind == GroupKind::InputPair)
            .and_then(|g| g.devices.first())
            .and_then(|&d| circuit.device(d).mos_polarity())
            .map(|p| p == breaksym_netlist::MosPolarity::Pmos)
            .unwrap_or(false);
        if pmos_input {
            self.options.vcm_p
        } else {
            self.options.vcm_n
        }
    }

    /// DC power drawn from the supply voltage source.
    fn supply_power(
        &self,
        circuit: &Circuit,
        ctx: &MnaContext,
        dc: &crate::DcSolution,
    ) -> Result<f64, SimError> {
        let mut power = 0.0;
        for (di, dev) in circuit.devices().iter().enumerate() {
            if let breaksym_netlist::DeviceKind::VoltageSource { volts } = dev.kind {
                if let Some(i) =
                    dc.device_branch_current(ctx, breaksym_netlist::DeviceId::new(di as u32))
                {
                    power += (volts * i).abs();
                }
            }
        }
        Ok(power)
    }
}

/// Input-referred thermal noise density of a differential amplifier from
/// the classic gm-ratio formula:
/// `vn² = 4kT·γ·(2/gm_in)·(1 + gm_load/gm_in)` (V²/Hz), returned in
/// nV/√Hz. `None` when the circuit lacks an input pair or it is off.
fn input_referred_noise(circuit: &Circuit, dc: &crate::DcSolution) -> Option<f64> {
    const FOUR_KT: f64 = 4.0 * 1.380649e-23 * 300.0;
    const GAMMA: f64 = 2.0 / 3.0;
    let group_gm = |kind: GroupKind| -> Option<f64> {
        let g = circuit.groups().iter().position(|g| g.kind == kind)?;
        let devs = &circuit.groups()[g].devices;
        let gms: Vec<f64> = devs.iter().filter_map(|&d| dc.mos_op(d).map(|op| op.gm)).collect();
        if gms.is_empty() {
            None
        } else {
            Some(gms.iter().sum::<f64>() / gms.len() as f64)
        }
    };
    let gm_in = group_gm(GroupKind::InputPair)?;
    if gm_in < 1e-9 {
        return None;
    }
    let gm_load = group_gm(GroupKind::CurrentMirror)
        .or_else(|| group_gm(GroupKind::LoadPair))
        .unwrap_or(0.0);
    let vn2 = FOUR_KT * GAMMA * (2.0 / gm_in) * (1.0 + gm_load / gm_in);
    Some(vn2.sqrt() * 1e9)
}

#[cfg(test)]
mod workspace_tests {
    use super::*;
    use breaksym_netlist::circuits;

    /// One workspace shared across circuits of every class reproduces the
    /// fresh-workspace metrics exactly (`Metrics` is all-`f64`, so
    /// `PartialEq` here is value equality on every field).
    #[test]
    fn shared_workspace_run_matches_fresh_runs() {
        let bench = Testbench::default();
        let mut ws = SolverWorkspace::new();
        for c in [
            circuits::current_mirror_medium(),
            circuits::five_transistor_ota(),
            circuits::comparator(),
        ] {
            let fresh = bench
                .run_ws(&c, &[], &[], &mut SolverWorkspace::new())
                .expect("fresh run simulates");
            let reused = bench.run_ws(&c, &[], &[], &mut ws).expect("ws run simulates");
            assert_eq!(fresh, reused, "{}", c.name());
        }
        assert!(!ws.last_pivots().is_empty(), "workspace was actually used");
    }
}

#[cfg(test)]
mod noise_tests {
    use breaksym_geometry::GridSpec;
    use breaksym_layout::LayoutEnv;
    use breaksym_lde::LdeModel;
    use breaksym_netlist::circuits;

    #[test]
    fn ota_noise_is_in_the_physical_range() {
        for c in [
            circuits::five_transistor_ota(),
            circuits::folded_cascode_ota(),
        ] {
            let name = c.name().to_string();
            let side = if c.num_units() > 20 { 18 } else { 12 };
            let env = LayoutEnv::sequential(c, GridSpec::square(side)).unwrap();
            let m = crate::Evaluator::new(LdeModel::none()).evaluate(&env).unwrap();
            let vn = m.noise_nv_rthz.unwrap_or_else(|| panic!("{name}: noise reported"));
            // mA/V-class gm ⇒ a few nV/√Hz.
            assert!((1.0..100.0).contains(&vn), "{name}: vn = {vn} nV/rtHz");
        }
    }

    #[test]
    fn mirror_reports_no_noise_metric() {
        let env =
            LayoutEnv::sequential(circuits::current_mirror_medium(), GridSpec::square(16)).unwrap();
        let m = crate::Evaluator::new(LdeModel::none()).evaluate(&env).unwrap();
        assert!(m.noise_nv_rthz.is_none());
    }
}

#[cfg(test)]
mod comparator_transient_tests {
    use super::*;
    use breaksym_netlist::circuits;

    fn bench() -> Testbench {
        Testbench::default()
    }

    #[test]
    fn transient_delay_resolves_and_shrinks_with_bigger_input() {
        let c = circuits::comparator();
        let d_small = bench()
            .comparator_transient_delay(&c, &[], &[], 5e-3, &mut SolverWorkspace::new())
            .expect("simulates")
            .expect("latch must resolve");
        let d_big = bench()
            .comparator_transient_delay(&c, &[], &[], 100e-3, &mut SolverWorkspace::new())
            .expect("simulates")
            .expect("latch must resolve");
        assert!(d_small > 0.0 && d_big > 0.0);
        assert!(
            d_big < d_small,
            "a larger input must resolve faster ({d_big:.3e} vs {d_small:.3e})"
        );
    }

    #[test]
    fn transient_decision_follows_input_sign() {
        let c = circuits::comparator();
        let vss = c.port(PortRole::Vss).unwrap();
        let inn = c.port(PortRole::InN).unwrap();
        let outp = c.port(PortRole::OutP).unwrap();
        let outn = c.port(PortRole::OutN).unwrap();
        let clk = c.port(PortRole::Clock).unwrap();
        let vdd = breaksym_netlist::circuits::VDD;
        let bench = bench();
        let mut decisions: Vec<(f64, f64)> = Vec::new();
        for sign in [1.0f64, -1.0] {
            let extras = vec![
                ExtraElement::Vsource { p: clk, n: vss, volts: 0.0, ac: 0.0 },
                ExtraElement::Vsource {
                    p: inn,
                    n: vss,
                    volts: bench.input_vcm(&c) - sign * 50e-3,
                    ac: 0.0,
                },
            ];
            let tran = crate::TransientSolver::new(&c, &[], &extras, &[]);
            let result = tran
                .run_ws(2e-9, 5e-12, |_t| vec![(0, vdd)], &mut SolverWorkspace::new())
                .expect("simulates");
            let last = result.times.len() - 1;
            let diff = result.voltage_at(last, outp) - result.voltage_at(last, outn);
            // The latch must fully resolve for either polarity; record the
            // decision sign to check consistency across the two runs.
            assert!(diff.abs() > vdd / 2.0, "latch must resolve, diff={diff}");
            decisions.push((sign, diff.signum()));
        }
        // Opposite inputs produce opposite decisions.
        assert_ne!(decisions[0].1, decisions[1].1, "{decisions:?}");
    }

    #[test]
    fn evaluator_can_use_transient_delay() {
        use breaksym_geometry::GridSpec;
        use breaksym_layout::LayoutEnv;
        use breaksym_lde::LdeModel;

        let env = LayoutEnv::sequential(circuits::comparator(), GridSpec::square(16)).unwrap();
        let eval = crate::Evaluator::new(LdeModel::none())
            .with_options(EvalOptions { comp_transient: true, ..EvalOptions::default() });
        let m = eval.evaluate(&env).expect("simulates");
        let delay = m.delay_s.expect("delay reported");
        assert!(delay > 1e-12 && delay < 2e-9, "physical delay range, got {delay:.3e}");
    }
}

#[cfg(test)]
mod psrr_tests {
    use breaksym_geometry::GridSpec;
    use breaksym_layout::LayoutEnv;
    use breaksym_lde::LdeModel;
    use breaksym_netlist::circuits;

    #[test]
    fn ota_reports_positive_psrr() {
        for c in [
            circuits::five_transistor_ota(),
            circuits::two_stage_miller(),
        ] {
            let name = c.name().to_string();
            let side = if c.num_units() > 16 { 16 } else { 12 };
            let env = LayoutEnv::sequential(c, GridSpec::square(side)).unwrap();
            let m = crate::Evaluator::new(LdeModel::none()).evaluate(&env).unwrap();
            let psrr = m.psrr_db.unwrap_or_else(|| panic!("{name}: psrr reported"));
            assert!(
                psrr > 0.0 && psrr < 150.0,
                "{name}: psrr {psrr} dB outside the plausible band"
            );
        }
    }

    #[test]
    fn comparator_reports_no_psrr() {
        let env = LayoutEnv::sequential(circuits::comparator(), GridSpec::square(16)).unwrap();
        let m = crate::Evaluator::new(LdeModel::none()).evaluate(&env).unwrap();
        assert!(m.psrr_db.is_none());
    }
}
