//! Backward-Euler transient analysis.
//!
//! Each time step replaces every capacitance by its backward-Euler
//! companion model — a conductance `C/h` in parallel with a history current
//! `(C/h)·v_prev` — and solves the resulting *DC* system with the existing
//! damped-Newton machinery, warm-started from the previous step. This is
//! textbook SPICE transient analysis restricted to a fixed step size,
//! which is all the comparator-delay measurement needs.
//!
//! Capacitances included: explicit netlist capacitors, testbench extras,
//! per-net parasitic capacitance, and (optionally) fixed MOS gate
//! capacitances evaluated with the saturated-geometry formula.

use breaksym_lde::ParamShift;
use breaksym_netlist::{Circuit, DeviceKind, NetId};

use crate::workspace::SolverWorkspace;
use crate::{mos, DcSolver, ExtraElement, MnaContext, SimError};

/// One capacitance between two nets (ground expressed as the ground net).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cap {
    p: NetId,
    n: NetId,
    farads: f64,
}

/// A recorded transient waveform set.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    /// Time points, uniformly spaced from `h` to `t_stop`.
    pub times: Vec<f64>,
    /// `voltages[k][net]` = voltage of `net` at `times[k]`.
    voltages: Vec<Vec<f64>>,
}

impl TransientResult {
    /// The waveform of one net as `(t, v)` pairs.
    pub fn waveform(&self, net: NetId) -> Vec<(f64, f64)> {
        self.times
            .iter()
            .zip(&self.voltages)
            .map(|(&t, v)| (t, v[net.index()]))
            .collect()
    }

    /// Voltage of `net` at step `k`.
    pub fn voltage_at(&self, k: usize, net: NetId) -> f64 {
        self.voltages[k][net.index()]
    }

    /// The first time at which `f(state)` holds, scanning in order.
    pub fn first_time<F>(&self, mut f: F) -> Option<f64>
    where
        F: FnMut(&[f64]) -> bool,
    {
        self.times.iter().zip(&self.voltages).find(|(_, v)| f(v)).map(|(&t, _)| t)
    }
}

/// The transient engine.
///
/// # Examples
///
/// Charging an RC from a step input follows `1 − e^(−t/RC)`:
///
/// ```
/// use breaksym_netlist::{CircuitBuilder, CircuitClass, GroupKind, NetKind, PortRole};
/// use breaksym_sim::{ExtraElement, SolverWorkspace, TransientSolver};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::new("rc", CircuitClass::Generic);
/// let vin = b.net("vin", NetKind::Signal);
/// let vout = b.net("vout", NetKind::Signal);
/// let vss = b.net("vss", NetKind::Ground);
/// let g = b.add_group("g", GroupKind::Passive)?;
/// b.add_resistor("R1", 1e3, 1, g, vin, vout)?;
/// b.add_capacitor("C1", 1e-9, 1, g, vout, vss)?;
/// b.bind_port(PortRole::Vss, vss);
/// let circuit = b.build()?;
///
/// let extras = vec![ExtraElement::Vsource { p: vin, n: vss, volts: 0.0, ac: 0.0 }];
/// let tran = TransientSolver::new(&circuit, &[], &extras, &[]);
/// // Drive the source to 1 V for t > 0 and integrate 10 time constants.
/// let result = tran.run_ws(10e-6, 1e-8, |_t| vec![(0, 1.0)], &mut SolverWorkspace::new())?;
/// let (_, v_end) = *result.waveform(vout).last().expect("has steps");
/// assert!((v_end - 1.0).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TransientSolver<'a> {
    circuit: &'a Circuit,
    shifts: &'a [ParamShift],
    extras: &'a [ExtraElement],
    node_caps: &'a [(NetId, f64)],
    include_mos_caps: bool,
}

impl<'a> TransientSolver<'a> {
    /// Creates a solver; MOS gate capacitances are included by default.
    pub fn new(
        circuit: &'a Circuit,
        shifts: &'a [ParamShift],
        extras: &'a [ExtraElement],
        node_caps: &'a [(NetId, f64)],
    ) -> Self {
        TransientSolver { circuit, shifts, extras, node_caps, include_mos_caps: true }
    }

    /// Excludes the fixed MOS gate capacitances (pure-RC testing).
    pub fn without_mos_caps(mut self) -> Self {
        self.include_mos_caps = false;
        self
    }

    fn ground(&self) -> NetId {
        MnaContext::new(self.circuit, self.extras).ground()
    }

    /// Collects every capacitance in the system.
    fn caps(&self) -> Vec<Cap> {
        let ground = self.ground();
        let mut caps = Vec::new();
        for dev in self.circuit.devices() {
            match &dev.kind {
                DeviceKind::Capacitor { farads } => {
                    caps.push(Cap { p: dev.pins[0], n: dev.pins[1], farads: *farads });
                }
                DeviceKind::Mos { params, .. } if self.include_mos_caps => {
                    let (cgs, cgd) = mos::capacitances(params, dev.num_units, true);
                    caps.push(Cap { p: dev.pins[1], n: dev.pins[2], farads: cgs });
                    caps.push(Cap { p: dev.pins[1], n: dev.pins[0], farads: cgd });
                }
                _ => {}
            }
        }
        for e in self.extras {
            if let ExtraElement::Capacitor { p, n, farads } = *e {
                caps.push(Cap { p, n, farads });
            }
        }
        for &(net, farads) in self.node_caps {
            caps.push(Cap { p: net, n: ground, farads });
        }
        caps.retain(|c| c.farads > 0.0 && c.p != c.n);
        caps
    }

    /// Integrates from the DC state at `t = 0` (with the un-overridden
    /// extras) to `t_stop` in steps of `h`. `drive(t)` returns
    /// `(extra_index, volts)` overrides applied to voltage-source extras
    /// for the step ending at time `t` — the clock and input stimuli.
    ///
    /// The per-step extras buffer, the MNA context, and all Newton/LU
    /// scratch are reused across steps from `ws` — the companion-model
    /// kinds and order are the same every step, so the MNA structure is
    /// too.
    ///
    /// # Errors
    ///
    /// Propagates Newton failures from any step.
    ///
    /// # Panics
    ///
    /// Panics if `h` or `t_stop` is not positive, or a drive index does not
    /// point at a voltage-source extra.
    pub fn run_ws<F>(
        &self,
        t_stop: f64,
        h: f64,
        mut drive: F,
        ws: &mut SolverWorkspace,
    ) -> Result<TransientResult, SimError>
    where
        F: FnMut(f64) -> Vec<(usize, f64)>,
    {
        assert!(h > 0.0 && t_stop > 0.0, "time step and stop time must be positive");
        let caps = self.caps();
        let num_nets = self.circuit.nets().len();

        // Initial condition: DC with the baseline extras (t <= 0 stimulus).
        let ctx0 = MnaContext::new(self.circuit, self.extras);
        let mut prev = DcSolver::new(self.circuit, self.shifts, self.extras).solve_ws(&ctx0, ws)?;

        let steps = (t_stop / h).ceil() as usize;
        let mut times = Vec::with_capacity(steps);
        let mut voltages = Vec::with_capacity(steps);
        let mut extras_step: Vec<ExtraElement> =
            Vec::with_capacity(self.extras.len() + 2 * caps.len());
        let mut ctx_step: Option<MnaContext> = None;

        for k in 1..=steps {
            let t = k as f64 * h;
            // Assemble this step's extras: stimulus overrides + companions.
            extras_step.clear();
            extras_step.extend_from_slice(self.extras);
            for (idx, volts) in drive(t) {
                match extras_step.get_mut(idx) {
                    Some(ExtraElement::Vsource { volts: v, .. }) => *v = volts,
                    other => panic!("drive index {idx} is not a voltage source: {other:?}"),
                }
            }
            for c in &caps {
                let g = c.farads / h;
                let v_prev = prev.voltage(c.p) - prev.voltage(c.n);
                extras_step.push(ExtraElement::Resistor { p: c.p, n: c.n, ohms: 1.0 / g });
                // History current g·v_prev injected *into* p (source pushes
                // current from n through itself into p when v_prev > 0).
                extras_step.push(ExtraElement::Isource {
                    p: c.n,
                    n: c.p,
                    amps: g * v_prev,
                    ac: 0.0,
                });
            }
            let ctx = ctx_step.get_or_insert_with(|| MnaContext::new(self.circuit, &extras_step));
            let sol = DcSolver::new(self.circuit, self.shifts, &extras_step)
                .solve_from_ws(ctx, &prev, ws)?;
            let snapshot: Vec<f64> =
                (0..num_nets as u32).map(|i| sol.voltage(NetId::new(i))).collect();
            times.push(t);
            voltages.push(snapshot);
            prev = sol;
        }

        Ok(TransientResult { times, voltages })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use breaksym_netlist::{CircuitBuilder, CircuitClass, GroupKind, NetKind, PortRole};

    fn rc_circuit(r: f64, c: f64) -> (Circuit, NetId, NetId) {
        let mut b = CircuitBuilder::new("rc", CircuitClass::Generic);
        let vin = b.net("vin", NetKind::Signal);
        let vout = b.net("vout", NetKind::Signal);
        let vss = b.net("vss", NetKind::Ground);
        let g = b.add_group("g", GroupKind::Passive).unwrap();
        b.add_resistor("R1", r, 1, g, vin, vout).unwrap();
        b.add_capacitor("C1", c, 1, g, vout, vss).unwrap();
        b.bind_port(PortRole::Vss, vss);
        (b.build().unwrap(), vin, vout)
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        let (circuit, vin, vout) = rc_circuit(1e3, 1e-9); // tau = 1 µs
        let vss = circuit.port(PortRole::Vss).unwrap();
        let extras = vec![ExtraElement::Vsource { p: vin, n: vss, volts: 0.0, ac: 0.0 }];
        let tran = TransientSolver::new(&circuit, &[], &extras, &[]);
        let h = 1e-8; // tau/100 keeps backward-Euler error small
        let result = tran.run_ws(3e-6, h, |_| vec![(0, 1.0)], &mut SolverWorkspace::new()).unwrap();
        for &(t, v) in result.waveform(vout).iter().step_by(25) {
            let expect = 1.0 - (-t / 1e-6_f64).exp();
            assert!((v - expect).abs() < 0.01, "t={t:.2e}: got {v:.4}, expected {expect:.4}");
        }
    }

    #[test]
    fn rc_time_constant_scales_with_c() {
        let half_rise = |c_farads: f64| {
            let (circuit, vin, vout) = rc_circuit(1e3, c_farads);
            let vss = circuit.port(PortRole::Vss).unwrap();
            let extras = vec![ExtraElement::Vsource { p: vin, n: vss, volts: 0.0, ac: 0.0 }];
            let tran = TransientSolver::new(&circuit, &[], &extras, &[]);
            let result = tran
                .run_ws(10e-6, 2e-8, |_| vec![(0, 1.0)], &mut SolverWorkspace::new())
                .unwrap();
            let vo = vout;
            result.first_time(move |v| v[vo.index()] > 0.5).expect("must cross half")
        };
        let t1 = half_rise(1e-9);
        let t2 = half_rise(2e-9);
        assert!(
            (t2 / t1 - 2.0).abs() < 0.1,
            "doubling C must double the half-rise time ({t1:.2e} vs {t2:.2e})"
        );
    }

    #[test]
    fn initial_condition_comes_from_dc() {
        // With the source already at 1 V at t<=0, the cap starts charged:
        // no transient at all.
        let (circuit, vin, vout) = rc_circuit(1e3, 1e-9);
        let vss = circuit.port(PortRole::Vss).unwrap();
        let extras = vec![ExtraElement::Vsource { p: vin, n: vss, volts: 1.0, ac: 0.0 }];
        let tran = TransientSolver::new(&circuit, &[], &extras, &[]);
        let result = tran.run_ws(1e-6, 1e-8, |_| vec![], &mut SolverWorkspace::new()).unwrap();
        for &(_, v) in &result.waveform(vout) {
            assert!((v - 1.0).abs() < 1e-9);
        }
    }

    /// Transients through a reused workspace are bit-identical to fresh runs.
    #[test]
    fn workspace_runs_are_bit_identical() {
        let (circuit, vin, _vout) = rc_circuit(1e3, 1e-9);
        let vss = circuit.port(PortRole::Vss).unwrap();
        let extras = vec![ExtraElement::Vsource { p: vin, n: vss, volts: 0.0, ac: 0.0 }];
        let tran = TransientSolver::new(&circuit, &[], &extras, &[]);
        let fresh = tran
            .run_ws(1e-6, 1e-8, |_| vec![(0, 1.0)], &mut SolverWorkspace::new())
            .unwrap();
        let mut ws = SolverWorkspace::new();
        let first = tran.run_ws(1e-6, 1e-8, |_| vec![(0, 1.0)], &mut ws).unwrap();
        let second = tran.run_ws(1e-6, 1e-8, |_| vec![(0, 1.0)], &mut ws).unwrap();
        assert_eq!(fresh, first);
        assert_eq!(fresh, second, "warm arena must not perturb a single bit");
    }

    #[test]
    #[should_panic(expected = "not a voltage source")]
    fn driving_a_non_source_panics() {
        let (circuit, vin, _vout) = rc_circuit(1e3, 1e-9);
        let vss = circuit.port(PortRole::Vss).unwrap();
        let extras = vec![
            ExtraElement::Vsource { p: vin, n: vss, volts: 0.0, ac: 0.0 },
            ExtraElement::Resistor { p: vin, n: vss, ohms: 1e6 },
        ];
        let tran = TransientSolver::new(&circuit, &[], &extras, &[]);
        let _ = tran.run_ws(1e-7, 1e-8, |_| vec![(1, 1.0)], &mut SolverWorkspace::new());
    }
}
