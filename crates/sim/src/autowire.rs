//! Testbench auto-wiring: make a bare user netlist simulatable.
//!
//! A circuit parsed from user SPICE frequently arrives without the
//! scaffolding the class testbenches expect: `.port` bindings, an embedded
//! supply source, the mirror's reference current, a comparator input
//! common-mode drive, or DC bias sources on gate-only nets. [`autowire`]
//! fills those gaps deterministically:
//!
//! 1. **Port inference.** Unbound roles required by the circuit's class are
//!    matched to nets by kind (`Ground`/`Power` for the rails) and by
//!    conventional names (`inp`, `outn`, `clk`, `iref`, `iout0`, …),
//!    case-insensitively.
//! 2. **Source injection.** Missing testbench sources are appended with
//!    `_AUTO`-suffixed names: the supply (`VDD_AUTO`), the mirror reference
//!    (`IREF_AUTO`), the comparator input common mode (`VCM_AUTO`, level
//!    chosen by input-pair polarity), and a DC bias (`VB_AUTO_<net>`) for
//!    every undriven net whose placeable connections are all MOS gates —
//!    the signature of a floating bias rail.
//!
//! The rebuilt circuit preserves net, group, and device order exactly, so
//! every pre-existing id stays valid; new sources are appended after all
//! original devices and add no placeable units. When nothing is missing the
//! input circuit is returned unchanged (as a clone) with an empty action
//! log.

use breaksym_netlist::{
    circuits::VDD, Circuit, CircuitBuilder, CircuitClass, DeviceKind, GroupKind, MosPolarity,
    NetId, NetKind, NetlistError, PortRole, Terminal,
};

use crate::EvalOptions;

/// Result of [`autowire`]: the completed circuit plus a human-readable log
/// of every inference and injection performed (empty for a no-op).
#[derive(Debug, Clone)]
pub struct Autowired {
    /// The circuit with inferred ports bound and missing sources appended.
    pub circuit: Circuit,
    /// One line per action taken (or per gap that could not be filled).
    pub actions: Vec<String>,
}

/// Infers missing port bindings and injects missing testbench sources.
///
/// # Errors
///
/// Propagates [`CircuitBuilder`] errors from the rebuild; these indicate an
/// invalid input circuit, not a wiring failure.
///
/// # Examples
///
/// ```
/// use breaksym_netlist::circuits;
/// use breaksym_sim::autowire;
///
/// // Library circuits are fully wired already: autowire is a no-op.
/// let aw = autowire(&circuits::five_transistor_ota())?;
/// assert!(aw.actions.is_empty());
/// # Ok::<(), breaksym_netlist::NetlistError>(())
/// ```
pub fn autowire(circuit: &Circuit) -> Result<Autowired, NetlistError> {
    let mut w =
        Wirer { c: circuit, new_ports: Vec::new(), new_sources: Vec::new(), actions: Vec::new() };
    w.infer_ports();
    w.inject_sources();
    w.finish()
}

/// A testbench source queued for injection.
enum NewSource {
    Voltage {
        name: String,
        volts: f64,
        p: NetId,
        n: NetId,
    },
    Current {
        name: String,
        amps: f64,
        p: NetId,
        n: NetId,
    },
}

impl NewSource {
    fn name(&self) -> &str {
        match self {
            NewSource::Voltage { name, .. } | NewSource::Current { name, .. } => name,
        }
    }
}

struct Wirer<'a> {
    c: &'a Circuit,
    new_ports: Vec<(PortRole, NetId)>,
    new_sources: Vec<NewSource>,
    actions: Vec<String>,
}

impl Wirer<'_> {
    fn port(&self, role: PortRole) -> Option<NetId> {
        self.c
            .port(role)
            .or_else(|| self.new_ports.iter().find(|(r, _)| *r == role).map(|&(_, n)| n))
    }

    fn is_port_bound(&self, net: NetId) -> bool {
        self.c.ports().iter().any(|&(_, n)| n == net)
            || self.new_ports.iter().any(|&(_, n)| n == net)
    }

    fn find_net_ci(&self, name: &str) -> Option<NetId> {
        self.c
            .nets()
            .iter()
            .position(|n| n.name.eq_ignore_ascii_case(name))
            .map(|i| NetId::new(i as u32))
    }

    fn first_net_of_kind(&self, kind: NetKind) -> Option<NetId> {
        self.c.nets().iter().position(|n| n.kind == kind).map(|i| NetId::new(i as u32))
    }

    // ---- 1. port inference ----------------------------------------------

    fn infer_ports(&mut self) {
        let roles: &[PortRole] = match self.c.class() {
            CircuitClass::CurrentMirror => &[PortRole::Vss, PortRole::Vdd, PortRole::Iref],
            CircuitClass::Ota => &[
                PortRole::Vss,
                PortRole::Vdd,
                PortRole::InP,
                PortRole::InN,
                PortRole::Out,
            ],
            CircuitClass::Comparator => &[
                PortRole::Vss,
                PortRole::Vdd,
                PortRole::InP,
                PortRole::InN,
                PortRole::OutP,
                PortRole::OutN,
                PortRole::Clock,
            ],
            CircuitClass::Generic => &[PortRole::Vss, PortRole::Vdd],
        };
        for &role in roles {
            self.infer_port(role);
        }
        if self.c.class() == CircuitClass::CurrentMirror {
            for k in 0..16u8 {
                if self.c.port(PortRole::Iout(k)).is_some() {
                    continue;
                }
                let found = self
                    .find_net_ci(&format!("iout{k}"))
                    .or_else(|| (k == 0).then(|| self.find_net_ci("iout")).flatten());
                match found {
                    Some(net) => self.bind(PortRole::Iout(k), net),
                    None => break,
                }
            }
        }
    }

    fn infer_port(&mut self, role: PortRole) {
        if self.c.port(role).is_some() {
            return;
        }
        let by_kind = match role {
            PortRole::Vss => self.first_net_of_kind(NetKind::Ground),
            PortRole::Vdd => self.first_net_of_kind(NetKind::Power),
            _ => None,
        };
        let by_name = || {
            let names: &[&str] = match role {
                PortRole::Vss => &["vss", "gnd", "0", "vee", "avss"],
                PortRole::Vdd => &["vdd", "vcc", "avdd"],
                PortRole::InP => &["inp", "vinp", "vip", "in_p"],
                PortRole::InN => &["inn", "vinn", "vin", "vim", "in_n"],
                PortRole::Out => &["out", "vout"],
                PortRole::OutP => &["outp", "voutp", "out_p"],
                PortRole::OutN => &["outn", "voutn", "out_n"],
                PortRole::Clock => &["clk", "clock", "ck"],
                PortRole::Iref => &["iref", "nref", "ref"],
                PortRole::Bias | PortRole::Iout(_) => &[],
            };
            names.iter().find_map(|n| self.find_net_ci(n))
        };
        if let Some(net) = by_kind.or_else(by_name) {
            self.bind(role, net);
        } else {
            self.actions
                .push(format!("port {role} is unbound and no net matched its naming conventions"));
        }
    }

    fn bind(&mut self, role: PortRole, net: NetId) {
        self.actions.push(format!("bound port {role} to net {}", self.c.net(net).name));
        self.new_ports.push((role, net));
    }

    // ---- 2. source injection --------------------------------------------

    /// Whether any embedded voltage source drives (has its `p` pin on) `net`.
    fn vsource_driven(&self, net: NetId) -> bool {
        self.c.devices().iter().any(|d| {
            matches!(d.kind, DeviceKind::VoltageSource { .. }) && d.pins.first() == Some(&net)
        })
    }

    /// Whether any embedded source touches `net` at all (a current source
    /// injects at both terminals).
    fn source_driven(&self, net: NetId) -> bool {
        self.c.devices().iter().any(|d| !d.kind.is_placeable() && d.pins.contains(&net))
    }

    fn add_source(&mut self, src: NewSource, action: String) {
        let name = src.name();
        if self.c.find_device(name).is_some() || self.new_sources.iter().any(|s| s.name() == name) {
            self.actions
                .push(format!("skipped injecting {name}: a device with that name already exists"));
            return;
        }
        self.actions.push(action);
        self.new_sources.push(src);
    }

    fn inject_sources(&mut self) {
        let Some(vss) = self.port(PortRole::Vss) else {
            self.actions
                .push("cannot inject testbench sources: no ground net identified".into());
            return;
        };

        // Supply rail.
        if let Some(vdd) = self.port(PortRole::Vdd) {
            if !self.vsource_driven(vdd) {
                let net = self.c.net(vdd).name.clone();
                self.add_source(
                    NewSource::Voltage { name: "VDD_AUTO".into(), volts: VDD, p: vdd, n: vss },
                    format!("added supply source VDD_AUTO ({VDD} V) on net {net}"),
                );
            }
        }

        // Mirror reference current.
        if self.c.class() == CircuitClass::CurrentMirror
            && !self
                .c
                .devices()
                .iter()
                .any(|d| matches!(d.kind, DeviceKind::CurrentSource { .. }))
        {
            if let (Some(iref), Some(vdd)) = (self.port(PortRole::Iref), self.port(PortRole::Vdd)) {
                let net = self.c.net(iref).name.clone();
                self.add_source(
                    NewSource::Current { name: "IREF_AUTO".into(), amps: 20e-6, p: vdd, n: iref },
                    format!("added reference source IREF_AUTO (20 uA) into net {net}"),
                );
            } else {
                self.actions.push(
                    "mirror has no reference current source and no iref/vdd nets to hang one on"
                        .into(),
                );
            }
        }

        // Comparator input common mode (the testbench drives `inn` itself
        // and expects `inp` held by an embedded source).
        if self.c.class() == CircuitClass::Comparator {
            if let Some(inp) = self.port(PortRole::InP) {
                if !self.vsource_driven(inp) {
                    let opts = EvalOptions::default();
                    let vcm = if self.pmos_input_pair() {
                        opts.vcm_p
                    } else {
                        opts.vcm_n
                    };
                    let net = self.c.net(inp).name.clone();
                    self.add_source(
                        NewSource::Voltage { name: "VCM_AUTO".into(), volts: vcm, p: inp, n: vss },
                        format!("added input common-mode source VCM_AUTO ({vcm} V) on net {net}"),
                    );
                }
            }
        }

        // Floating bias rails: undriven, not a port, and every placeable
        // connection is a MOS gate.
        for i in 0..self.c.nets().len() {
            let net = NetId::new(i as u32);
            if self.is_port_bound(net) || self.source_driven(net) {
                continue;
            }
            let mut polarities: Vec<MosPolarity> = Vec::new();
            let mut all_gates = true;
            for d in self.c.placeable_devices() {
                let dev = self.c.device(d);
                for (pi, &pin) in dev.pins.iter().enumerate() {
                    if pin != net {
                        continue;
                    }
                    if dev.mos_polarity().is_some()
                        && dev.pin(Terminal::Gate) == Some(net)
                        && pi == 1
                    {
                        polarities.push(dev.mos_polarity().expect("checked MOS"));
                    } else {
                        all_gates = false;
                    }
                }
            }
            if polarities.is_empty() || !all_gates {
                continue;
            }
            let nmos = polarities.contains(&MosPolarity::Nmos);
            let pmos = polarities.contains(&MosPolarity::Pmos);
            let volts = match (nmos, pmos) {
                (true, false) => 0.6,
                (false, true) => VDD - 0.6,
                _ => 0.55,
            };
            let name = format!("VB_AUTO_{}", self.c.net(net).name.to_ascii_uppercase());
            let net_name = self.c.net(net).name.clone();
            self.add_source(
                NewSource::Voltage { name, volts, p: net, n: vss },
                format!(
                    "added bias source VB_AUTO_{} ({volts} V) on gate-only net {net_name}",
                    net_name.to_ascii_uppercase()
                ),
            );
        }
    }

    fn pmos_input_pair(&self) -> bool {
        let annotated = self
            .c
            .groups()
            .iter()
            .find(|g| g.kind == GroupKind::InputPair)
            .and_then(|g| g.devices.first())
            .and_then(|&d| self.c.device(d).mos_polarity());
        let inferred = || {
            self.port(PortRole::InP).and_then(|inp| {
                self.c.placeable_devices().find_map(|d| {
                    let dev = self.c.device(d);
                    (dev.pin(Terminal::Gate) == Some(inp)).then(|| dev.mos_polarity()).flatten()
                })
            })
        };
        annotated.or_else(inferred) == Some(MosPolarity::Pmos)
    }

    // ---- 3. rebuild ------------------------------------------------------

    fn finish(self) -> Result<Autowired, NetlistError> {
        if self.new_ports.is_empty() && self.new_sources.is_empty() {
            return Ok(Autowired { circuit: self.c.clone(), actions: self.actions });
        }
        let mut b = CircuitBuilder::new(self.c.name().to_string(), self.c.class());
        for net in self.c.nets() {
            b.add_net(&net.name, net.kind)?;
        }
        for g in self.c.groups() {
            b.add_group(&g.name, g.kind)?;
        }
        for dev in self.c.devices() {
            match dev.kind {
                DeviceKind::Mos { polarity, params } => {
                    let group = dev.group.expect("placeable MOS devices are always grouped");
                    b.add_mos(
                        &dev.name,
                        polarity,
                        params,
                        dev.num_units,
                        group,
                        dev.pins[0],
                        dev.pins[1],
                        dev.pins[2],
                        dev.pins[3],
                    )?;
                }
                DeviceKind::Resistor { ohms } => {
                    let group = dev.group.expect("placeable resistors are always grouped");
                    b.add_resistor(
                        &dev.name,
                        ohms,
                        dev.num_units,
                        group,
                        dev.pins[0],
                        dev.pins[1],
                    )?;
                }
                DeviceKind::Capacitor { farads } => {
                    let group = dev.group.expect("placeable capacitors are always grouped");
                    b.add_capacitor(
                        &dev.name,
                        farads,
                        dev.num_units,
                        group,
                        dev.pins[0],
                        dev.pins[1],
                    )?;
                }
                DeviceKind::CurrentSource { amps } => {
                    b.add_isource(&dev.name, amps, dev.pins[0], dev.pins[1])?;
                }
                DeviceKind::VoltageSource { volts } => {
                    b.add_vsource(&dev.name, volts, dev.pins[0], dev.pins[1])?;
                }
            }
        }
        for src in &self.new_sources {
            match *src {
                NewSource::Voltage { ref name, volts, p, n } => {
                    b.add_vsource(name, volts, p, n)?;
                }
                NewSource::Current { ref name, amps, p, n } => {
                    b.add_isource(name, amps, p, n)?;
                }
            }
        }
        for &(role, net) in self.c.ports() {
            b.bind_port(role, net);
        }
        for &(role, net) in &self.new_ports {
            b.bind_port(role, net);
        }
        Ok(Autowired { circuit: b.build()?, actions: self.actions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Testbench;
    use breaksym_netlist::{circuits, spice};

    /// Strips `.port` lines and testbench source cards (`V…`/`I…`) from a
    /// SPICE dump — the shape of a bare user netlist.
    fn strip_testbench(src: &str) -> String {
        src.lines()
            .filter(|l| {
                let t = l.trim();
                !(t.starts_with(".port") || t.starts_with('V') || t.starts_with('I'))
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn autowire_is_a_noop_on_fully_wired_circuits() {
        for c in [
            circuits::current_mirror_medium(),
            circuits::five_transistor_ota(),
            circuits::comparator(),
            circuits::two_stage_miller(),
            circuits::folded_cascode_ota(),
        ] {
            let aw = autowire(&c).expect("autowire succeeds");
            assert!(aw.actions.is_empty(), "{}: {:?}", c.name(), aw.actions);
            assert_eq!(spice::write(&aw.circuit), spice::write(&c), "{}", c.name());
        }
    }

    #[test]
    fn stripped_netlists_are_rewired_and_simulate() {
        let bench = Testbench::default();
        for c in [
            circuits::current_mirror_medium(),
            circuits::five_transistor_ota(),
            circuits::comparator(),
        ] {
            let name = c.name().to_string();
            let bare = spice::parse(&strip_testbench(&spice::write(&c)))
                .unwrap_or_else(|e| panic!("{name}: stripped dump parses: {e}"));
            assert!(bare.port(breaksym_netlist::PortRole::Vss).is_none(), "{name}: ports gone");
            let aw = autowire(&bare).unwrap_or_else(|e| panic!("{name}: autowire: {e}"));
            assert!(!aw.actions.is_empty(), "{name}: actions logged");
            // Unit structure is untouched: sources carry no units.
            assert_eq!(aw.circuit.num_units(), c.num_units(), "{name}");
            let m = bench
                .run_ws(&aw.circuit, &[], &[], &mut crate::SolverWorkspace::new())
                .unwrap_or_else(|e| panic!("{name}: rewired circuit simulates: {e}"));
            match c.class() {
                breaksym_netlist::CircuitClass::CurrentMirror => {
                    let mm = m.mismatch_pct.expect("mirror reports mismatch");
                    assert!(mm.is_finite() && mm >= 0.0, "{name}: mismatch {mm}");
                }
                breaksym_netlist::CircuitClass::Ota => {
                    let g = m.gain_db.expect("ota reports gain");
                    assert!(g > 0.0, "{name}: gain {g} dB");
                }
                breaksym_netlist::CircuitClass::Comparator => {
                    let d = m.delay_s.expect("comparator reports delay");
                    assert!(d.is_finite() && d > 0.0, "{name}: delay {d}");
                }
                breaksym_netlist::CircuitClass::Generic => unreachable!(),
            }
        }
    }

    #[test]
    fn bias_injection_matches_the_hand_wired_levels() {
        let c = circuits::five_transistor_ota();
        let bare = spice::parse(&strip_testbench(&spice::write(&c))).expect("parses");
        let aw = autowire(&bare).expect("autowire succeeds");
        let vb = aw.circuit.find_device("VB_AUTO_NB_TAIL").expect("bias source injected");
        match aw.circuit.device(vb).kind {
            DeviceKind::VoltageSource { volts } => assert_eq!(volts, 0.6),
            ref k => panic!("expected a voltage source, got {k:?}"),
        }
        assert!(aw.circuit.find_device("VDD_AUTO").is_some());
        // The comparator's clock net is port-bound after inference, so it
        // must NOT be mistaken for a floating bias rail.
        let comp = circuits::comparator();
        let bare = spice::parse(&strip_testbench(&spice::write(&comp))).expect("parses");
        let aw = autowire(&bare).expect("autowire succeeds");
        assert!(aw.circuit.port(breaksym_netlist::PortRole::Clock).is_some());
        assert!(
            !aw.circuit.devices().iter().any(|d| d.name.starts_with("VB_AUTO_CLK")),
            "clock net wrongly biased: {:?}",
            aw.actions
        );
        let vcm = aw.circuit.find_device("VCM_AUTO").expect("input common mode injected");
        match aw.circuit.device(vcm).kind {
            DeviceKind::VoltageSource { volts } => assert_eq!(volts, 0.55),
            ref k => panic!("expected a voltage source, got {k:?}"),
        }
    }
}
