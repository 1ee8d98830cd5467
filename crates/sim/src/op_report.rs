//! Human-readable operating-point reports — the `.op` printout every
//! circuit debugger wants.

use std::fmt;

use breaksym_netlist::{Circuit, DeviceId, NetId, Terminal};

use crate::DcSolution;

/// The conduction region of one MOS device at the operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// `|Vgs| < |Vth|`.
    Cutoff,
    /// Conducting with `|Vds| < |Vov|`.
    Triode,
    /// Conducting and saturated.
    Saturation,
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Region::Cutoff => "cutoff",
            Region::Triode => "triode",
            Region::Saturation => "sat",
        })
    }
}

/// One device's line in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceOp {
    /// Instance name.
    pub name: String,
    /// Conduction region.
    pub region: Region,
    /// Drain current magnitude in amperes.
    pub id_a: f64,
    /// Transconductance in siemens.
    pub gm_s: f64,
    /// Output conductance in siemens.
    pub gds_s: f64,
    /// Gate-source voltage in volts.
    pub vgs_v: f64,
    /// Drain-source voltage in volts.
    pub vds_v: f64,
}

/// A formatted DC operating-point report over every MOS device plus the
/// node voltages.
///
/// # Examples
///
/// ```
/// use breaksym_netlist::{circuits, PortRole};
/// use breaksym_sim::{DcSolver, ExtraElement, MnaContext, OpReport, SolverWorkspace};
///
/// # fn main() -> Result<(), breaksym_sim::SimError> {
/// let c = circuits::five_transistor_ota();
/// let vss = c.port(PortRole::Vss).expect("bound");
/// let inp = c.port(PortRole::InP).expect("bound");
/// let inn = c.port(PortRole::InN).expect("bound");
/// let extras = vec![
///     ExtraElement::Vsource { p: inp, n: vss, volts: 0.55, ac: 0.0 },
///     ExtraElement::Vsource { p: inn, n: vss, volts: 0.55, ac: 0.0 },
/// ];
/// let ctx = MnaContext::new(&c, &extras);
/// let dc = DcSolver::new(&c, &[], &extras).solve_ws(&ctx, &mut SolverWorkspace::new())?;
/// let report = OpReport::new(&c, &dc);
/// assert!(report.to_string().contains("M1"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OpReport {
    /// Per-MOS rows, in device order.
    pub devices: Vec<DeviceOp>,
    /// `(net name, volts)` for every net.
    pub nodes: Vec<(String, f64)>,
}

impl OpReport {
    /// Extracts the report from a solved operating point.
    pub fn new(circuit: &Circuit, dc: &DcSolution) -> Self {
        let mut devices = Vec::new();
        for (i, dev) in circuit.devices().iter().enumerate() {
            let Some(op) = dc.mos_op(DeviceId::new(i as u32)) else {
                continue;
            };
            let vd = dc.voltage(dev.pin(Terminal::Drain).expect("mos has drain"));
            let vg = dc.voltage(dev.pin(Terminal::Gate).expect("mos has gate"));
            let vs = dc.voltage(dev.pin(Terminal::Source).expect("mos has source"));
            // Conduction test: anything beyond the GMIN leak counts.
            let leak = crate::mos::GMIN * (vd - vs);
            let conducting = (op.id - leak).abs() > 10.0 * crate::mos::GMIN;
            let region = if !conducting {
                Region::Cutoff
            } else if op.saturated {
                Region::Saturation
            } else {
                Region::Triode
            };
            devices.push(DeviceOp {
                name: dev.name.clone(),
                region,
                id_a: op.id.abs(),
                gm_s: op.gm,
                gds_s: op.gds,
                vgs_v: vg - vs,
                vds_v: vd - vs,
            });
        }
        let nodes = circuit
            .nets()
            .iter()
            .enumerate()
            .map(|(i, n)| (n.name.clone(), dc.voltage(NetId::new(i as u32))))
            .collect();
        OpReport { devices, nodes }
    }

    /// The row of one device, by instance name.
    pub fn device(&self, name: &str) -> Option<&DeviceOp> {
        self.devices.iter().find(|d| d.name == name)
    }

    /// Devices *not* in saturation — the usual first question when an
    /// amplifier underperforms.
    pub fn out_of_saturation(&self) -> Vec<&DeviceOp> {
        self.devices.iter().filter(|d| d.region != Region::Saturation).collect()
    }
}

impl fmt::Display for OpReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "--- nodes ---")?;
        for (name, v) in &self.nodes {
            writeln!(f, "{name:>10} = {v:8.4} V")?;
        }
        writeln!(
            f,
            "--- devices ---\n{:>8} {:>8} {:>11} {:>11} {:>11} {:>8} {:>8}",
            "name", "region", "id[A]", "gm[S]", "gds[S]", "vgs[V]", "vds[V]"
        )?;
        for d in &self.devices {
            writeln!(
                f,
                "{:>8} {:>8} {:>11.3e} {:>11.3e} {:>11.3e} {:>8.3} {:>8.3}",
                d.name, d.region, d.id_a, d.gm_s, d.gds_s, d.vgs_v, d.vds_v
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DcSolver, ExtraElement, MnaContext, SolverWorkspace};
    use breaksym_netlist::{circuits, PortRole};

    fn ota_report() -> OpReport {
        let c = circuits::five_transistor_ota();
        let vss = c.port(PortRole::Vss).unwrap();
        let inp = c.port(PortRole::InP).unwrap();
        let inn = c.port(PortRole::InN).unwrap();
        let extras = vec![
            ExtraElement::Vsource { p: inp, n: vss, volts: 0.55, ac: 0.0 },
            ExtraElement::Vsource { p: inn, n: vss, volts: 0.55, ac: 0.0 },
        ];
        let ctx = MnaContext::new(&c, &extras);
        let dc = DcSolver::new(&c, &[], &extras)
            .solve_ws(&ctx, &mut SolverWorkspace::new())
            .unwrap();
        OpReport::new(&c, &dc)
    }

    #[test]
    fn five_t_ota_bias_is_healthy() {
        let r = ota_report();
        assert_eq!(r.devices.len(), 5);
        // Every device conducts; the signal devices saturate.
        for name in ["M1", "M2", "M3", "M4"] {
            let d = r.device(name).unwrap_or_else(|| panic!("{name} in report"));
            assert_eq!(d.region, Region::Saturation, "{name}: {d:?}");
            assert!(d.id_a > 1e-6, "{name} must conduct");
            assert!(d.gm_s > 0.0);
        }
        // Balanced pair: M1/M2 carry equal current.
        let (m1, m2) = (r.device("M1").unwrap(), r.device("M2").unwrap());
        assert!((m1.id_a - m2.id_a).abs() / m1.id_a < 1e-6);
        assert!(r.out_of_saturation().len() <= 1, "at most the tail may be triode");
    }

    #[test]
    fn cutoff_is_reported() {
        // Comparator with the clock held low: tail and latch are off.
        let c = circuits::comparator();
        let vss = c.port(PortRole::Vss).unwrap();
        let inn = c.port(PortRole::InN).unwrap();
        let clk = c.port(PortRole::Clock).unwrap();
        let extras = vec![
            ExtraElement::Vsource { p: clk, n: vss, volts: 0.0, ac: 0.0 },
            ExtraElement::Vsource { p: inn, n: vss, volts: 0.55, ac: 0.0 },
        ];
        let ctx = MnaContext::new(&c, &extras);
        let dc = DcSolver::new(&c, &[], &extras)
            .solve_ws(&ctx, &mut SolverWorkspace::new())
            .unwrap();
        let r = OpReport::new(&c, &dc);
        let tail = r.device("MTAIL").unwrap();
        assert_eq!(tail.region, Region::Cutoff, "{tail:?}");
    }

    #[test]
    fn display_contains_nodes_and_devices() {
        let r = ota_report();
        let s = r.to_string();
        assert!(s.contains("--- nodes ---"));
        assert!(s.contains("ntail"));
        assert!(s.contains("M5"));
        assert!(s.contains("sat"));
    }
}
