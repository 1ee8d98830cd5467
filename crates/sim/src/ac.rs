//! Complex small-signal (AC) solver linearised at a DC operating point.

use breaksym_lde::ParamShift;
use breaksym_netlist::{Circuit, DeviceKind, NetId};

use crate::dc::DcSolution;
use crate::linalg::lu_solve_in_place;
use crate::mos;
use crate::workspace::{LinearScratch, SolverWorkspace};
use crate::{Complex, ExtraElement, MnaContext, SimError};

/// The phasor solution of one AC solve.
#[derive(Debug, Clone)]
pub struct AcSolution {
    voltages: Vec<Complex>,
    branch_currents: Vec<Complex>,
}

impl AcSolution {
    /// Phasor voltage of a net.
    pub fn voltage(&self, net: NetId) -> Complex {
        self.voltages[net.index()]
    }

    /// Phasor current through the branch of extra voltage source `e`.
    pub fn extra_branch_current(&self, ctx: &MnaContext, e: usize) -> Option<Complex> {
        ctx.extra_branch_index(e).map(|i| self.branch_currents[i - ctx.num_nodes()])
    }
}

/// Small-signal solver: stamps the linearised circuit at a given DC
/// operating point and solves one frequency at a time.
///
/// AC excitation comes from the `ac` amplitudes of the [`ExtraElement`]s
/// (netlist-embedded sources are AC-quiet). Per-net parasitic capacitances
/// extracted from routing can be injected via `node_caps`.
#[derive(Debug, Clone)]
pub struct AcSolver<'a> {
    circuit: &'a Circuit,
    shifts: &'a [ParamShift],
    extras: &'a [ExtraElement],
    dc: &'a DcSolution,
    /// Extra capacitance to ground per net (from parasitics), in farads.
    node_caps: &'a [(NetId, f64)],
    /// AC amplitudes injected onto netlist-embedded voltage sources
    /// (device id, volts) — how supply-rejection measurements ripple VDD.
    device_drives: Vec<(breaksym_netlist::DeviceId, f64)>,
}

impl<'a> AcSolver<'a> {
    /// Creates a solver around an existing operating point.
    pub fn new(
        circuit: &'a Circuit,
        shifts: &'a [ParamShift],
        extras: &'a [ExtraElement],
        dc: &'a DcSolution,
        node_caps: &'a [(NetId, f64)],
    ) -> Self {
        AcSolver { circuit, shifts, extras, dc, node_caps, device_drives: Vec::new() }
    }

    /// Adds an AC amplitude to a netlist-embedded voltage source (e.g. the
    /// `VDD` supply for PSRR measurements).
    pub fn with_device_drive(mut self, device: breaksym_netlist::DeviceId, ac: f64) -> Self {
        self.device_drives.push((device, ac));
        self
    }

    fn shift_of(&self, d: usize) -> ParamShift {
        self.shifts.get(d).copied().unwrap_or(ParamShift::ZERO)
    }

    /// Solves the linearised system at `freq_hz` (0 Hz = DC small-signal),
    /// with the complex matrix/RHS/solution drawn from `ws` so a frequency
    /// sweep allocates nothing after the first point.
    ///
    /// # Errors
    ///
    /// [`SimError::SingularMatrix`] on floating nodes.
    pub fn solve_ws(
        &self,
        ctx: &MnaContext,
        freq_hz: f64,
        ws: &mut SolverWorkspace,
    ) -> Result<AcSolution, SimError> {
        let n = ctx.size();
        let omega = 2.0 * std::f64::consts::PI * freq_hz;
        let LinearScratch { a, b, x, pivots } = &mut ws.lin;
        a.clear();
        a.resize(n * n, Complex::ZERO);
        b.clear();
        b.resize(n, Complex::ZERO);

        macro_rules! add_a {
            ($r:expr, $c:expr, $v:expr) => {
                if let (Some(r), Some(c)) = ($r, $c) {
                    a[r * n + c] += $v;
                }
            };
        }
        macro_rules! add_b {
            ($r:expr, $v:expr) => {
                if let Some(r) = $r {
                    b[r] += $v;
                }
            };
        }

        let jc = |farads: f64| Complex::new(0.0, omega * farads);

        for (di, dev) in self.circuit.devices().iter().enumerate() {
            match &dev.kind {
                DeviceKind::Mos { params, .. } => {
                    let op = self.dc.mos_op(breaksym_netlist::DeviceId::new(di as u32));
                    let Some(op) = op else { continue };
                    let (d, g, s) = (dev.pins[0], dev.pins[1], dev.pins[2]);
                    let (nd, ng, ns) = (ctx.node(d), ctx.node(g), ctx.node(s));
                    // Conductive part: i_d = d_vd·v_d + d_vg·v_g + d_vs·v_s
                    // (the DC terminal derivatives are exactly the small-
                    // signal conductances, polarity included).
                    add_a!(nd, nd, Complex::real(op.d_vd));
                    add_a!(nd, ng, Complex::real(op.d_vg));
                    add_a!(nd, ns, Complex::real(op.d_vs));
                    add_a!(ns, nd, Complex::real(-op.d_vd));
                    add_a!(ns, ng, Complex::real(-op.d_vg));
                    add_a!(ns, ns, Complex::real(-op.d_vs));
                    // Capacitive part: cgs between g-s, cgd between g-d.
                    let (cgs, cgd) = mos::capacitances(params, dev.num_units, op.saturated);
                    for (cap, (x, y)) in [(cgs, (ng, ns)), (cgd, (ng, nd))] {
                        let y_c = jc(cap);
                        add_a!(x, x, y_c);
                        add_a!(y, y, y_c);
                        add_a!(x, y, -y_c);
                        add_a!(y, x, -y_c);
                    }
                }
                DeviceKind::Resistor { ohms } => {
                    let g = 1.0 / (ohms * (1.0 + self.shift_of(di).dr_rel));
                    let (np, nq) = (ctx.node(dev.pins[0]), ctx.node(dev.pins[1]));
                    let gc = Complex::real(g);
                    add_a!(np, np, gc);
                    add_a!(nq, nq, gc);
                    add_a!(np, nq, -gc);
                    add_a!(nq, np, -gc);
                }
                DeviceKind::Capacitor { farads } => {
                    let y = jc(*farads);
                    let (np, nq) = (ctx.node(dev.pins[0]), ctx.node(dev.pins[1]));
                    add_a!(np, np, y);
                    add_a!(nq, nq, y);
                    add_a!(np, nq, -y);
                    add_a!(nq, np, -y);
                }
                DeviceKind::CurrentSource { .. } => {} // AC-quiet
                DeviceKind::VoltageSource { .. } => {
                    // AC short by default; a device drive turns the source
                    // into an AC stimulus (supply ripple for PSRR).
                    let br = ctx.device_branch_index(di).expect("vsource branch");
                    let (np, nq) = (ctx.node(dev.pins[0]), ctx.node(dev.pins[1]));
                    add_a!(np, Some(br), Complex::ONE);
                    add_a!(nq, Some(br), -Complex::ONE);
                    add_a!(Some(br), np, Complex::ONE);
                    add_a!(Some(br), nq, -Complex::ONE);
                    let drive = self
                        .device_drives
                        .iter()
                        .find(|(d, _)| d.index() == di)
                        .map_or(0.0, |&(_, ac)| ac);
                    if drive != 0.0 {
                        b[br] = Complex::real(drive);
                    }
                }
            }
        }

        for (ei, e) in self.extras.iter().enumerate() {
            match *e {
                ExtraElement::Vsource { p, n: q, ac, .. } => {
                    let br = ctx.extra_branch_index(ei).expect("vsource branch");
                    let (np, nq) = (ctx.node(p), ctx.node(q));
                    add_a!(np, Some(br), Complex::ONE);
                    add_a!(nq, Some(br), -Complex::ONE);
                    add_a!(Some(br), np, Complex::ONE);
                    add_a!(Some(br), nq, -Complex::ONE);
                    b[br] = Complex::real(ac);
                }
                ExtraElement::Isource { p, n: q, ac, .. } => {
                    // Positive AC current leaves p, enters q (as in DC).
                    add_b!(ctx.node(p), Complex::real(-ac));
                    add_b!(ctx.node(q), Complex::real(ac));
                }
                ExtraElement::Resistor { p, n: q, ohms } => {
                    let g = Complex::real(1.0 / ohms);
                    let (np, nq) = (ctx.node(p), ctx.node(q));
                    add_a!(np, np, g);
                    add_a!(nq, nq, g);
                    add_a!(np, nq, -g);
                    add_a!(nq, np, -g);
                }
                ExtraElement::Capacitor { p, n: q, farads } => {
                    let y = jc(farads);
                    let (np, nq) = (ctx.node(p), ctx.node(q));
                    add_a!(np, np, y);
                    add_a!(nq, nq, y);
                    add_a!(np, nq, -y);
                    add_a!(nq, np, -y);
                }
            }
        }

        // Parasitic node capacitances to ground.
        for &(net, farads) in self.node_caps {
            let y = jc(farads);
            add_a!(ctx.node(net), ctx.node(net), y);
        }

        lu_solve_in_place(a, b, x, pivots)?;
        let voltages = (0..self.circuit.nets().len() as u32)
            .map(|i| ctx.node(NetId::new(i)).map_or(Complex::ZERO, |k| x[k]))
            .collect();
        let branch_currents = x[ctx.num_nodes()..].to_vec();
        Ok(AcSolution { voltages, branch_currents })
    }
}

/// A logarithmic frequency sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcSweep {
    /// Start frequency in Hz.
    pub f_start: f64,
    /// Stop frequency in Hz.
    pub f_stop: f64,
    /// Points per decade.
    pub points_per_decade: usize,
}

impl Default for AcSweep {
    /// 1 kHz … 100 GHz at 10 points/decade.
    fn default() -> Self {
        AcSweep { f_start: 1e3, f_stop: 100e9, points_per_decade: 10 }
    }
}

impl AcSweep {
    /// The frequency grid of the sweep.
    pub fn frequencies(&self) -> Vec<f64> {
        let decades = (self.f_stop / self.f_start).log10();
        let n = (decades * self.points_per_decade as f64).ceil() as usize + 1;
        (0..n)
            .map(|i| self.f_start * 10f64.powf(i as f64 / self.points_per_decade as f64))
            .filter(|&f| f <= self.f_stop * 1.0001)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DcSolver;
    use breaksym_netlist::{CircuitBuilder, CircuitClass, GroupKind, NetKind, PortRole};

    /// RC low-pass driven by an AC source: |H| = 1/√(1+(ωRC)²).
    #[test]
    fn rc_lowpass_transfer() {
        let mut b = CircuitBuilder::new("rc", CircuitClass::Generic);
        let vin = b.net("vin", NetKind::Signal);
        let vout = b.net("vout", NetKind::Signal);
        let vss = b.net("vss", NetKind::Ground);
        let g = b.add_group("g", GroupKind::Passive).unwrap();
        let r = 1e3;
        let c = 1e-9;
        b.add_resistor("R1", r, 1, g, vin, vout).unwrap();
        b.add_capacitor("C1", c, 1, g, vout, vss).unwrap();
        b.bind_port(PortRole::Vss, vss);
        let circuit = b.build().unwrap();

        let extras = vec![ExtraElement::Vsource { p: vin, n: vss, volts: 0.0, ac: 1.0 }];
        let ctx = MnaContext::new(&circuit, &extras);
        let dc = DcSolver::new(&circuit, &[], &extras)
            .solve_ws(&ctx, &mut SolverWorkspace::new())
            .unwrap();
        let ac = AcSolver::new(&circuit, &[], &extras, &dc, &[]);

        let fc = 1.0 / (2.0 * std::f64::consts::PI * r * c); // ≈159 kHz
        for (f, expect_mag) in [
            (fc / 100.0, 0.99995),
            (fc, std::f64::consts::FRAC_1_SQRT_2),
            (fc * 100.0, 0.01),
        ] {
            let sol = ac.solve_ws(&ctx, f, &mut SolverWorkspace::new()).unwrap();
            let h = sol.voltage(vout).abs();
            assert!(
                (h - expect_mag).abs() < 0.01,
                "f={f:.3e}: |H|={h:.4}, expected {expect_mag:.4}"
            );
        }
        // Phase at the corner is −45°.
        let sol = ac.solve_ws(&ctx, fc, &mut SolverWorkspace::new()).unwrap();
        let phase = sol.voltage(vout).arg().to_degrees();
        assert!((phase + 45.0).abs() < 1.0, "phase {phase}");
    }

    /// Parasitic node capacitance lowers the pole.
    #[test]
    fn node_caps_shift_the_pole() {
        let mut b = CircuitBuilder::new("rc2", CircuitClass::Generic);
        let vin = b.net("vin", NetKind::Signal);
        let vout = b.net("vout", NetKind::Signal);
        let vss = b.net("vss", NetKind::Ground);
        let g = b.add_group("g", GroupKind::Passive).unwrap();
        b.add_resistor("R1", 1e3, 1, g, vin, vout).unwrap();
        b.add_capacitor("C1", 1e-9, 1, g, vout, vss).unwrap();
        b.bind_port(PortRole::Vss, vss);
        let circuit = b.build().unwrap();
        let extras = vec![ExtraElement::Vsource { p: vin, n: vss, volts: 0.0, ac: 1.0 }];
        let ctx = MnaContext::new(&circuit, &extras);
        let dc = DcSolver::new(&circuit, &[], &extras)
            .solve_ws(&ctx, &mut SolverWorkspace::new())
            .unwrap();
        let f = 160e3;
        let bare = AcSolver::new(&circuit, &[], &extras, &dc, &[])
            .solve_ws(&ctx, f, &mut SolverWorkspace::new())
            .unwrap()
            .voltage(vout)
            .abs();
        let caps = [(vout, 1e-9)];
        let loaded = AcSolver::new(&circuit, &[], &extras, &dc, &caps)
            .solve_ws(&ctx, f, &mut SolverWorkspace::new())
            .unwrap()
            .voltage(vout)
            .abs();
        assert!(loaded < bare, "added cap must attenuate ({loaded} vs {bare})");
    }

    /// Sweeping through a reused workspace is bit-identical to fresh
    /// per-point solves.
    #[test]
    fn workspace_sweep_is_bit_identical_to_fresh_solves() {
        let mut b = CircuitBuilder::new("rc3", CircuitClass::Generic);
        let vin = b.net("vin", NetKind::Signal);
        let vout = b.net("vout", NetKind::Signal);
        let vss = b.net("vss", NetKind::Ground);
        let g = b.add_group("g", GroupKind::Passive).unwrap();
        b.add_resistor("R1", 1e3, 1, g, vin, vout).unwrap();
        b.add_capacitor("C1", 1e-9, 1, g, vout, vss).unwrap();
        b.bind_port(PortRole::Vss, vss);
        let circuit = b.build().unwrap();
        let extras = vec![ExtraElement::Vsource { p: vin, n: vss, volts: 0.0, ac: 1.0 }];
        let ctx = MnaContext::new(&circuit, &extras);
        let dc = DcSolver::new(&circuit, &[], &extras)
            .solve_ws(&ctx, &mut SolverWorkspace::new())
            .unwrap();
        let ac = AcSolver::new(&circuit, &[], &extras, &dc, &[]);
        let mut ws = crate::SolverWorkspace::new();
        for f in AcSweep::default().frequencies() {
            let fresh = ac.solve_ws(&ctx, f, &mut SolverWorkspace::new()).unwrap().voltage(vout);
            let reused = ac.solve_ws(&ctx, f, &mut ws).unwrap().voltage(vout);
            assert_eq!(fresh.re.to_bits(), reused.re.to_bits(), "f={f:.3e}");
            assert_eq!(fresh.im.to_bits(), reused.im.to_bits(), "f={f:.3e}");
        }
    }

    #[test]
    fn sweep_grid_is_logarithmic_and_covers_range() {
        let sweep = AcSweep { f_start: 1e3, f_stop: 1e6, points_per_decade: 5 };
        let fs = sweep.frequencies();
        assert_eq!(fs.len(), 16);
        assert!((fs[0] - 1e3).abs() < 1.0);
        assert!((fs.last().unwrap() - 1e6).abs() < 2.0);
        // Uniform ratio between consecutive points.
        let ratio = fs[1] / fs[0];
        for w in fs.windows(2) {
            assert!((w[1] / w[0] - ratio).abs() < 1e-9);
        }
    }
}
