//! Damped-Newton DC operating-point solver over the MNA system.

use breaksym_lde::ParamShift;
use breaksym_netlist::{Circuit, DeviceId, DeviceKind, NetId, NetKind};

use crate::linalg::lu_solve_real_into;
use crate::mos::{self, MosOp};
use crate::workspace::{LinearScratch, NewtonScratch, SolverWorkspace};
use crate::{ExtraElement, MnaContext, SimError};

/// Maximum Newton iterations before reporting non-convergence.
const MAX_ITERS: usize = 300;
/// Convergence threshold on the KCL residual norm (amperes).
const RESIDUAL_TOL: f64 = 1e-10;
/// Maximum per-iteration voltage step (volts) — classic SPICE damping.
const STEP_LIMIT: f64 = 0.3;

/// The DC operating point of a circuit (plus testbench extras).
#[derive(Debug, Clone)]
pub struct DcSolution {
    /// Net voltages indexed by net id (ground = 0 V).
    voltages: Vec<f64>,
    /// Branch currents indexed by branch number (see [`MnaContext`]).
    branch_currents: Vec<f64>,
    /// Operating point of each MOS device (by device id; `None` for
    /// non-MOS devices).
    device_ops: Vec<Option<MosOp>>,
    /// Newton iterations used.
    pub iterations: usize,
}

impl DcSolution {
    /// Voltage of a net, in volts.
    pub fn voltage(&self, net: NetId) -> f64 {
        self.voltages[net.index()]
    }

    /// Operating point of a MOS device.
    pub fn mos_op(&self, device: DeviceId) -> Option<&MosOp> {
        self.device_ops[device.index()].as_ref()
    }

    /// All device operating points (by device id).
    pub fn device_ops(&self) -> &[Option<MosOp>] {
        &self.device_ops
    }

    /// Current through the branch of circuit voltage source `d`, flowing
    /// p → n through the source, in amperes.
    pub fn device_branch_current(&self, ctx: &MnaContext, d: DeviceId) -> Option<f64> {
        ctx.device_branch_index(d.index())
            .map(|i| self.branch_currents[i - ctx.num_nodes()])
    }

    /// Current through the branch of extra voltage source `e`, in amperes.
    pub fn extra_branch_current(&self, ctx: &MnaContext, e: usize) -> Option<f64> {
        ctx.extra_branch_index(e).map(|i| self.branch_currents[i - ctx.num_nodes()])
    }
}

/// DC solver for one circuit with per-device LDE shifts and testbench
/// extras.
#[derive(Debug, Clone)]
pub struct DcSolver<'a> {
    circuit: &'a Circuit,
    /// Per-device systematic parameter shifts (index = device id). An empty
    /// slice means all-nominal.
    shifts: &'a [ParamShift],
    extras: &'a [ExtraElement],
}

impl<'a> DcSolver<'a> {
    /// Creates a solver. `shifts` must be empty or one entry per device.
    pub fn new(circuit: &'a Circuit, shifts: &'a [ParamShift], extras: &'a [ExtraElement]) -> Self {
        debug_assert!(
            shifts.is_empty() || shifts.len() == circuit.devices().len(),
            "shifts must be per-device"
        );
        DcSolver { circuit, shifts, extras }
    }

    fn shift_of(&self, d: usize) -> ParamShift {
        self.shifts.get(d).copied().unwrap_or(ParamShift::ZERO)
    }

    /// Like [`DcSolver::solve_ws`] but warm-started from a previous
    /// solution's node voltages — the transient solver's per-step entry
    /// point.
    ///
    /// # Errors
    ///
    /// As [`DcSolver::solve_ws`].
    pub fn solve_from_ws(
        &self,
        ctx: &MnaContext,
        previous: &DcSolution,
        ws: &mut SolverWorkspace,
    ) -> Result<DcSolution, SimError> {
        let warm = {
            let (x, newton, lin) = ws.dc_parts();
            self.initial_guess_into(ctx, x);
            for (i, _net) in self.circuit.nets().iter().enumerate() {
                if let Some(node) = ctx.node(breaksym_netlist::NetId::new(i as u32)) {
                    x[node] = previous.voltage(breaksym_netlist::NetId::new(i as u32));
                }
            }
            self.newton_ws(ctx, x, 0.0, MAX_ITERS, newton, lin)
        };
        match warm {
            Ok(iters) => Ok(self.finish(ctx, &ws.x, iters)),
            Err(SimError::NoConvergence { .. }) => self.solve_ws(ctx, ws),
            Err(e) => Err(e),
        }
    }

    /// Solves for the operating point: damped Newton with residual
    /// backtracking, falling back to gmin-stepping homotopy when the plain
    /// iteration limit-cycles (high-gain nodes). All scratch (solution
    /// vector, Jacobian, LU buffers) is drawn from `ws`, so repeated solves
    /// of the same circuit allocate nothing after warmup.
    ///
    /// # Errors
    ///
    /// [`SimError::SingularMatrix`] on structural problems,
    /// [`SimError::NoConvergence`] when even the homotopy stalls.
    pub fn solve_ws(
        &self,
        ctx: &MnaContext,
        ws: &mut SolverWorkspace,
    ) -> Result<DcSolution, SimError> {
        let mut total_iters = 0usize;
        let plain = {
            let (x, newton, lin) = ws.dc_parts();
            self.initial_guess_into(ctx, x);
            self.newton_ws(ctx, x, 0.0, MAX_ITERS, newton, lin)
        };
        match plain {
            Ok(iters) => return Ok(self.finish(ctx, &ws.x, iters)),
            Err(SimError::NoConvergence { .. }) => {}
            Err(e) => return Err(e),
        }
        // Gmin stepping: start heavily damped toward ground, relax in
        // decades, warm-starting each stage from the previous solution.
        let mut last_err = None;
        let mut converged = false;
        {
            let (x, newton, lin) = ws.dc_parts();
            self.initial_guess_into(ctx, x);
            for k in 0..=10 {
                let gstep = if k == 10 { 0.0 } else { 1e-3 * 10f64.powi(-k) };
                match self.newton_ws(ctx, x, gstep, MAX_ITERS, newton, lin) {
                    Ok(iters) => {
                        total_iters += iters;
                        if gstep == 0.0 {
                            converged = true;
                            break;
                        }
                    }
                    Err(e) => last_err = Some(e),
                }
            }
        }
        if converged {
            return Ok(self.finish(ctx, &ws.x, total_iters));
        }
        Err(last_err
            .unwrap_or(SimError::NoConvergence { iterations: total_iters, residual: f64::NAN }))
    }

    /// One damped-Newton run with an extra `gmin_step` conductance from
    /// every node to ground. Returns the iteration count on convergence.
    /// All scratch comes from the caller's workspace — the loop allocates
    /// nothing once the arena is warm.
    fn newton_ws(
        &self,
        ctx: &MnaContext,
        x: &mut [f64],
        gmin_step: f64,
        max_iters: usize,
        scratch: &mut NewtonScratch,
        lin: &mut LinearScratch,
    ) -> Result<usize, SimError> {
        let n = ctx.size();
        let mut residual_norm = f64::INFINITY;
        // Buffers reused across iterations, line-search trials, and (via
        // the workspace) whole evaluations — the dense Jacobian is the
        // largest allocation of the whole solve.
        let NewtonScratch { jac, rhs, tj, tf, trial, delta } = scratch;
        for iter in 0..max_iters {
            self.assemble_into(ctx, x, jac, rhs);
            for node in 0..ctx.num_nodes() {
                jac[node * n + node] += gmin_step;
                rhs[node] += gmin_step * x[node];
            }
            for v in rhs.iter_mut() {
                *v = -*v; // solve J·Δ = −F
            }
            let new_norm = rhs.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if new_norm < RESIDUAL_TOL && iter > 0 {
                return Ok(iter);
            }
            // Backtrack: if the residual grew, halve the previous step
            // instead of taking a fresh full one.
            residual_norm = new_norm;
            lu_solve_real_into(jac, rhs, lin, delta)?;
            let max_dv = delta[..ctx.num_nodes()].iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let mut scale = if max_dv > STEP_LIMIT {
                STEP_LIMIT / max_dv
            } else {
                1.0
            };
            // Line search on the true residual.
            let mut accepted = false;
            for _ in 0..12 {
                trial.clear();
                trial.extend_from_slice(x);
                for i in 0..n {
                    trial[i] += delta[i] * scale;
                }
                self.assemble_into(ctx, trial, tj, tf);
                for node in 0..ctx.num_nodes() {
                    tj[node * n + node] += gmin_step;
                    tf[node] += gmin_step * trial[node];
                }
                let t_norm = tf.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                if t_norm <= residual_norm * (1.0 - 1e-4) || t_norm < RESIDUAL_TOL {
                    x.copy_from_slice(trial);
                    accepted = true;
                    break;
                }
                scale *= 0.5;
            }
            if !accepted {
                // Fully stalled: take the tiny step anyway and hope the
                // next linearisation escapes; abort if steps vanish.
                if scale * max_dv < 1e-14 {
                    return Err(SimError::NoConvergence {
                        iterations: iter,
                        residual: residual_norm,
                    });
                }
                for i in 0..n {
                    x[i] += delta[i] * scale;
                }
            }
        }
        Err(SimError::NoConvergence { iterations: max_iters, residual: residual_norm })
    }

    /// Initial guess, written into the caller's buffer: supplies at their
    /// source value, everything else at half the largest supply.
    fn initial_guess_into(&self, ctx: &MnaContext, x: &mut Vec<f64>) {
        let mut vdd_guess = 0.0f64;
        for d in self.circuit.devices() {
            if let DeviceKind::VoltageSource { volts } = d.kind {
                vdd_guess = vdd_guess.max(volts.abs());
            }
        }
        x.clear();
        x.resize(ctx.size(), vdd_guess * 0.5);
        for branch in x.iter_mut().skip(ctx.num_nodes()) {
            *branch = 0.0; // branch currents start at zero
        }
        // Pin power nets to the guess supply.
        for (i, net) in self.circuit.nets().iter().enumerate() {
            if let Some(node) = ctx.node(NetId::new(i as u32)) {
                if net.kind == NetKind::Power {
                    x[node] = vdd_guess;
                }
            }
        }
    }

    /// Builds the Jacobian (row-major `n×n`) and residual `F(x)` into the
    /// caller's buffers (cleared and resized here), so the Newton loop
    /// allocates nothing per iteration.
    fn assemble_into(&self, ctx: &MnaContext, x: &[f64], jac: &mut Vec<f64>, res: &mut Vec<f64>) {
        let n = ctx.size();
        jac.clear();
        jac.resize(n * n, 0.0);
        res.clear();
        res.resize(n, 0.0);

        let volt = |net: NetId| ctx.node(net).map_or(0.0, |i| x[i]);
        // Closures cannot borrow jac/res mutably twice; use macros instead.
        macro_rules! add_j {
            ($r:expr, $c:expr, $v:expr) => {
                if let (Some(r), Some(c)) = ($r, $c) {
                    jac[r * n + c] += $v;
                }
            };
        }
        macro_rules! add_f {
            ($r:expr, $v:expr) => {
                if let Some(r) = $r {
                    res[r] += $v;
                }
            };
        }

        for (di, dev) in self.circuit.devices().iter().enumerate() {
            match &dev.kind {
                DeviceKind::Mos { polarity, params } => {
                    let d = dev.pins[0];
                    let g = dev.pins[1];
                    let s = dev.pins[2];
                    let shift = self.shift_of(di);
                    let op = mos::eval(
                        *polarity,
                        params,
                        dev.num_units,
                        &shift,
                        volt(d),
                        volt(g),
                        volt(s),
                    );
                    let (nd, ng, ns) = (ctx.node(d), ctx.node(g), ctx.node(s));
                    add_f!(nd, op.id);
                    add_f!(ns, -op.id);
                    add_j!(nd, nd, op.d_vd);
                    add_j!(nd, ng, op.d_vg);
                    add_j!(nd, ns, op.d_vs);
                    add_j!(ns, nd, -op.d_vd);
                    add_j!(ns, ng, -op.d_vg);
                    add_j!(ns, ns, -op.d_vs);
                }
                DeviceKind::Resistor { ohms } => {
                    let shift = self.shift_of(di);
                    let r_eff = ohms * (1.0 + shift.dr_rel);
                    let g = 1.0 / r_eff;
                    let (p, q) = (dev.pins[0], dev.pins[1]);
                    let (np, nq) = (ctx.node(p), ctx.node(q));
                    let i = g * (volt(p) - volt(q));
                    add_f!(np, i);
                    add_f!(nq, -i);
                    add_j!(np, np, g);
                    add_j!(np, nq, -g);
                    add_j!(nq, np, -g);
                    add_j!(nq, nq, g);
                }
                DeviceKind::Capacitor { .. } => {} // open in DC
                DeviceKind::CurrentSource { amps } => {
                    let (np, nq) = (ctx.node(dev.pins[0]), ctx.node(dev.pins[1]));
                    add_f!(np, *amps);
                    add_f!(nq, -*amps);
                }
                DeviceKind::VoltageSource { volts } => {
                    let b = ctx.device_branch_index(di).expect("vsource has a branch");
                    let (p, q) = (dev.pins[0], dev.pins[1]);
                    let (np, nq) = (ctx.node(p), ctx.node(q));
                    // KCL: branch current leaves p, enters q.
                    add_f!(np, x[b]);
                    add_f!(nq, -x[b]);
                    add_j!(np, Some(b), 1.0);
                    add_j!(nq, Some(b), -1.0);
                    // Constraint row: v_p − v_q = volts.
                    res[b] = volt(p) - volt(q) - volts;
                    add_j!(Some(b), np, 1.0);
                    add_j!(Some(b), nq, -1.0);
                }
            }
        }

        for (ei, e) in self.extras.iter().enumerate() {
            match *e {
                ExtraElement::Vsource { p, n: q, volts, .. } => {
                    let b = ctx.extra_branch_index(ei).expect("vsource branch");
                    let (np, nq) = (ctx.node(p), ctx.node(q));
                    add_f!(np, x[b]);
                    add_f!(nq, -x[b]);
                    add_j!(np, Some(b), 1.0);
                    add_j!(nq, Some(b), -1.0);
                    res[b] = volt(p) - volt(q) - volts;
                    add_j!(Some(b), np, 1.0);
                    add_j!(Some(b), nq, -1.0);
                }
                ExtraElement::Isource { p, n: q, amps, .. } => {
                    add_f!(ctx.node(p), amps);
                    add_f!(ctx.node(q), -amps);
                }
                ExtraElement::Resistor { p, n: q, ohms } => {
                    let g = 1.0 / ohms;
                    let (np, nq) = (ctx.node(p), ctx.node(q));
                    let i = g * (volt(p) - volt(q));
                    add_f!(np, i);
                    add_f!(nq, -i);
                    add_j!(np, np, g);
                    add_j!(np, nq, -g);
                    add_j!(nq, np, -g);
                    add_j!(nq, nq, g);
                }
                ExtraElement::Capacitor { .. } => {} // open in DC
            }
        }
    }

    fn finish(&self, ctx: &MnaContext, x: &[f64], iterations: usize) -> DcSolution {
        let volt = |net: NetId| ctx.node(net).map_or(0.0, |i| x[i]);
        let voltages = (0..self.circuit.nets().len() as u32).map(|i| volt(NetId::new(i))).collect();
        let device_ops = self
            .circuit
            .devices()
            .iter()
            .enumerate()
            .map(|(di, dev)| match &dev.kind {
                DeviceKind::Mos { polarity, params } => Some(mos::eval(
                    *polarity,
                    params,
                    dev.num_units,
                    &self.shift_of(di),
                    volt(dev.pins[0]),
                    volt(dev.pins[1]),
                    volt(dev.pins[2]),
                )),
                _ => None,
            })
            .collect();
        let branch_currents = x[ctx.num_nodes()..].to_vec();
        DcSolution { voltages, branch_currents, device_ops, iterations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use breaksym_netlist::{circuits, CircuitBuilder, CircuitClass, GroupKind, PortRole};

    /// Resistor divider: VDD=1.0 across two equal resistors → midpoint 0.5.
    #[test]
    fn resistor_divider() {
        let mut b = CircuitBuilder::new("div", CircuitClass::Generic);
        let vdd = b.net("vdd", breaksym_netlist::NetKind::Power);
        let vss = b.net("vss", breaksym_netlist::NetKind::Ground);
        let mid = b.net("mid", breaksym_netlist::NetKind::Signal);
        let g = b.add_group("g", GroupKind::Passive).unwrap();
        b.add_resistor("R1", 1e3, 1, g, vdd, mid).unwrap();
        b.add_resistor("R2", 1e3, 1, g, mid, vss).unwrap();
        b.add_vsource("V1", 1.0, vdd, vss).unwrap();
        b.bind_port(PortRole::Vss, vss);
        let c = b.build().unwrap();
        let ctx = MnaContext::new(&c, &[]);
        let sol = DcSolver::new(&c, &[], &[]).solve_ws(&ctx, &mut SolverWorkspace::new()).unwrap();
        assert!((sol.voltage(mid) - 0.5).abs() < 1e-9);
        assert!((sol.voltage(vdd) - 1.0).abs() < 1e-12);
        // Source current: 1.0 V / 2 kΩ = 0.5 mA, flowing out of the source's
        // positive terminal externally ⇒ branch current (p→n internal) is −0.5 mA.
        let v1 = c.find_device("V1").unwrap();
        let i = sol.device_branch_current(&ctx, v1).unwrap();
        assert!((i + 0.5e-3).abs() < 1e-9, "got {i}");
    }

    /// Diode-connected NMOS fed by a current source settles at
    /// vgs = vth + sqrt(2 I / beta).
    #[test]
    fn diode_connected_nmos() {
        let mut b = CircuitBuilder::new("diode", CircuitClass::Generic);
        let vss = b.net("vss", breaksym_netlist::NetKind::Ground);
        let d = b.net("d", breaksym_netlist::NetKind::Signal);
        let g = b.add_group("g", GroupKind::Custom).unwrap();
        let p = breaksym_netlist::MosParams::nmos_default(2.0, 0.2);
        b.add_mos("M1", breaksym_netlist::MosPolarity::Nmos, p, 2, g, d, d, vss, vss)
            .unwrap();
        b.add_isource("I1", 50e-6, vss, d).unwrap(); // pushes 50 µA into d
        b.bind_port(PortRole::Vss, vss);
        let c = b.build().unwrap();
        let ctx = MnaContext::new(&c, &[]);
        let sol = DcSolver::new(&c, &[], &[]).solve_ws(&ctx, &mut SolverWorkspace::new()).unwrap();
        let beta = p.kp * 2.0 * p.aspect();
        // Ignore lambda for the hand estimate; allow a few percent.
        let expect = p.vth0 + (2.0 * 50e-6 / beta).sqrt();
        let got = sol.voltage(d);
        assert!((got - expect).abs() < 0.02, "vgs: got {got:.4}, expected ≈{expect:.4}");
        let op = sol.mos_op(c.find_device("M1").unwrap()).unwrap();
        assert!(op.saturated);
        assert!((op.id - 50e-6).abs() < 1e-6);
    }

    /// The benchmark circuits all converge with nominal parameters.
    #[test]
    fn benchmarks_converge() {
        for (c, extras) in [
            (circuits::current_mirror_medium(), vec![]),
            (circuits::five_transistor_ota(), ota_5t_extras()),
            (circuits::diff_pair(), diff_extras()),
        ] {
            let name = c.name().to_string();
            let ctx = MnaContext::new(&c, &extras);
            let sol = DcSolver::new(&c, &[], &extras)
                .solve_ws(&ctx, &mut SolverWorkspace::new())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(sol.iterations < 300, "{name} took {} iters", sol.iterations);
            // Sanity: every node voltage within the rails ±0.2 V.
            for (i, net) in c.nets().iter().enumerate() {
                let v = sol.voltage(NetId::new(i as u32));
                assert!(
                    (-0.3..=1.4).contains(&v),
                    "{name}: node {} = {v:.3} V out of range",
                    net.name
                );
            }
        }
    }

    fn ota_5t_extras() -> Vec<ExtraElement> {
        let c = circuits::five_transistor_ota();
        let vss = c.port(PortRole::Vss).unwrap();
        let inp = c.port(PortRole::InP).unwrap();
        let inn = c.port(PortRole::InN).unwrap();
        vec![
            ExtraElement::Vsource { p: inp, n: vss, volts: 0.6, ac: 0.5 },
            ExtraElement::Vsource { p: inn, n: vss, volts: 0.6, ac: -0.5 },
        ]
    }

    fn diff_extras() -> Vec<ExtraElement> {
        let c = circuits::diff_pair();
        let vss = c.port(PortRole::Vss).unwrap();
        let inp = c.port(PortRole::InP).unwrap();
        let inn = c.port(PortRole::InN).unwrap();
        vec![
            ExtraElement::Vsource { p: inp, n: vss, volts: 0.7, ac: 0.5 },
            ExtraElement::Vsource { p: inn, n: vss, volts: 0.7, ac: -0.5 },
        ]
    }

    /// A reused workspace must not change a single bit of any solution:
    /// the arena is a buffer-lifetime optimisation, not an algorithm.
    #[test]
    fn reused_workspace_is_bit_identical_to_fresh_solves() {
        let mut ws = SolverWorkspace::new();
        for (c, extras) in [
            (circuits::current_mirror_medium(), vec![]),
            (circuits::five_transistor_ota(), ota_5t_extras()),
            (circuits::diff_pair(), diff_extras()),
        ] {
            let ctx = MnaContext::new(&c, &extras);
            let solver = DcSolver::new(&c, &[], &extras);
            let fresh = solver.solve_ws(&ctx, &mut SolverWorkspace::new()).unwrap();
            let reused = solver.solve_ws(&ctx, &mut ws).unwrap();
            assert_eq!(fresh.iterations, reused.iterations);
            for i in 0..c.nets().len() as u32 {
                let net = NetId::new(i);
                assert_eq!(
                    fresh.voltage(net).to_bits(),
                    reused.voltage(net).to_bits(),
                    "{}: net {i} diverged",
                    c.name()
                );
            }
        }
        assert!(!ws.last_pivots().is_empty(), "workspace recorded the pivot order");
    }

    /// A Vth shift on one side of a diff pair unbalances the outputs.
    #[test]
    fn vth_shift_unbalances_diff_pair() {
        let c = circuits::diff_pair();
        let extras = diff_extras();
        let ctx = MnaContext::new(&c, &extras);
        let outp = c.port(PortRole::OutP).unwrap();
        let outn = c.port(PortRole::OutN).unwrap();

        let nom = DcSolver::new(&c, &[], &extras)
            .solve_ws(&ctx, &mut SolverWorkspace::new())
            .unwrap();
        let imbalance_nom = nom.voltage(outp) - nom.voltage(outn);
        assert!(imbalance_nom.abs() < 1e-6, "nominal pair is balanced");

        let mut shifts = vec![ParamShift::ZERO; c.devices().len()];
        let m1 = c.find_device("M1").unwrap();
        shifts[m1.index()] = ParamShift::new(5e-3, 0.0, 0.0); // +5 mV on M1
        let off = DcSolver::new(&c, &shifts, &extras)
            .solve_ws(&ctx, &mut SolverWorkspace::new())
            .unwrap();
        let imbalance = off.voltage(outp) - off.voltage(outn);
        assert!(
            imbalance.abs() > 1e-3,
            "5 mV Vth shift must visibly unbalance the outputs (got {imbalance})"
        );
        // Direction: higher Vth on M1 → less current through M1 → outp rises.
        assert!(imbalance > 0.0);
    }
}
