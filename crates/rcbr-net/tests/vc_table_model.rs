//! The switch's VC table against a map-based model.
//!
//! [`Switch`] keeps its routed VCs in one compact table with a hashed
//! index, entries shifting as VCs come and go; before that it kept three
//! ordered maps (VCI → port, per port VCI → rate with zero rates absent,
//! VCI → last lease refresh). [`Model`] is those three maps and the port
//! arithmetic written out again as it was. Random operation sequences —
//! every public mutator, VCIs strided so that they collide in the index,
//! uninstall followed by install so that positions are reused — must
//! leave the two agreeing on every return value and every view, floats to
//! the bit.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rcbr_net::{RateField, RmCell, Switch, SwitchError};

const CAPACITIES: [f64; 2] = [10_000.0, 4_000.0];

struct ModelPort {
    capacity: f64,
    ceiling: f64,
    reserved: f64,
    per_vci: BTreeMap<u32, f64>,
}

impl ModelPort {
    fn rate(&self, vci: u32) -> f64 {
        self.per_vci.get(&vci).copied().unwrap_or(0.0)
    }

    fn apply(&mut self, vci: u32, old: f64, new: f64) {
        self.reserved = (self.reserved - old + new).max(0.0);
        if new == 0.0 {
            self.per_vci.remove(&vci);
        } else {
            self.per_vci.insert(vci, new);
        }
    }

    fn try_reserve_delta(&mut self, vci: u32, delta: f64) -> bool {
        let old = self.rate(vci);
        let new = old + delta;
        if new < -1e-9 {
            return false;
        }
        let new = new.max(0.0);
        if delta > 0.0 && self.reserved + delta > self.ceiling + 1e-9 {
            return false;
        }
        self.apply(vci, old, new);
        true
    }

    fn try_set_absolute(&mut self, vci: u32, rate: f64) -> bool {
        let old = self.rate(vci);
        if self.reserved - old + rate > self.ceiling + 1e-9 {
            return false;
        }
        self.apply(vci, old, rate);
        true
    }

    fn release(&mut self, vci: u32) -> f64 {
        let old = self.rate(vci);
        self.apply(vci, old, 0.0);
        old
    }
}

struct Model {
    ports: Vec<ModelPort>,
    vci_table: BTreeMap<u32, usize>,
    last_refresh: BTreeMap<u32, u64>,
}

impl Model {
    fn new() -> Self {
        Self {
            ports: CAPACITIES
                .iter()
                .map(|&capacity| ModelPort {
                    capacity,
                    ceiling: capacity,
                    reserved: 0.0,
                    per_vci: BTreeMap::new(),
                })
                .collect(),
            vci_table: BTreeMap::new(),
            last_refresh: BTreeMap::new(),
        }
    }

    fn port_of(&mut self, vci: u32) -> Result<&mut ModelPort, SwitchError> {
        let port = *self
            .vci_table
            .get(&vci)
            .ok_or(SwitchError::UnknownVci(vci))?;
        Ok(&mut self.ports[port])
    }

    fn setup(&mut self, vci: u32, port: usize, rate: f64) -> Result<bool, SwitchError> {
        if self.vci_table.contains_key(&vci) {
            return Err(SwitchError::VciInUse(vci));
        }
        let p = self
            .ports
            .get_mut(port)
            .ok_or(SwitchError::UnknownPort(port))?;
        if !p.try_reserve_delta(vci, rate) {
            return Ok(false);
        }
        self.vci_table.insert(vci, port);
        Ok(true)
    }

    fn uninstall(&mut self, vci: u32) -> Option<f64> {
        let port = self.vci_table.remove(&vci)?;
        self.last_refresh.remove(&vci);
        Some(self.ports[port].release(vci))
    }

    fn process_rm(&mut self, vci: u32, rate: RateField) -> Result<bool, SwitchError> {
        let p = self.port_of(vci)?;
        Ok(match rate {
            RateField::Delta(d) => p.try_reserve_delta(vci, d),
            RateField::Absolute(r) => p.try_set_absolute(vci, r),
        })
    }

    /// A touch refreshes a routed VCI's lease. (The maps would also have
    /// remembered a touch of an unrouted VCI until its install; nothing
    /// ever relied on that and the table does not do it.)
    fn touch_lease(&mut self, vci: u32, now: u64) {
        if self.vci_table.contains_key(&vci) {
            self.last_refresh.insert(vci, now);
        }
    }

    fn expire_leases(&mut self, now: u64, lease: u64) -> u64 {
        let routed: Vec<u32> = self.vci_table.keys().copied().collect();
        let mut reclaimed = 0;
        for vci in routed {
            let refreshed = self.last_refresh.get(&vci).copied().unwrap_or(0);
            if now.saturating_sub(refreshed) > lease {
                self.last_refresh.insert(vci, now);
                if self.ports[self.vci_table[&vci]].release(vci) > 0.0 {
                    reclaimed += 1;
                }
            }
        }
        reclaimed
    }

    fn wipe_soft_state(&mut self) {
        for p in &mut self.ports {
            p.reserved = 0.0;
            p.per_vci.clear();
            p.ceiling = p.capacity;
        }
        self.last_refresh.clear();
    }
}

/// Every view of `sw` equals the model's.
fn check_views(sw: &Switch, model: &Model, vcis: &[u32]) -> Result<(), TestCaseError> {
    let routed: Vec<u32> = model.vci_table.keys().copied().collect();
    prop_assert_eq!(sw.vcis(), routed);
    let mut held: Vec<(u32, u64)> = Vec::new();
    for (idx, p) in model.ports.iter().enumerate() {
        let port = sw.port(idx).expect("two ports");
        prop_assert_eq!(port.reserved().to_bits(), p.reserved.to_bits());
        prop_assert_eq!(port.admit_ceiling().to_bits(), p.ceiling.to_bits());
        held.extend(p.per_vci.iter().map(|(&v, &r)| (v, r.to_bits())));
    }
    held.sort_unstable();
    let entries: Vec<(u32, u64)> = sw
        .vci_entries()
        .into_iter()
        .map(|(v, r)| (v, r.to_bits()))
        .collect();
    prop_assert_eq!(entries, held);
    for &vci in vcis {
        let rate = model
            .vci_table
            .get(&vci)
            .map(|&port| model.ports[port].rate(vci).to_bits());
        prop_assert_eq!(sw.vci_rate(vci).map(f64::to_bits), rate, "rate of {}", vci);
        let refreshed = model.last_refresh.get(&vci).copied().unwrap_or(0);
        prop_assert_eq!(sw.lease_refreshed_at(vci), refreshed, "lease of {}", vci);
    }
    prop_assert!(sw.is_consistent());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn switch_agrees_with_the_three_map_model(
        ops in proptest::collection::vec(
            (0u8..14, 0usize..24, 0usize..3, -3_000.0..3_000.0f64, 0u64..40),
            1..400,
        ),
    ) {
        // 24 VCIs in four residue classes of a 96-switch ring, eight laps
        // apart: what one switch of the runtime carries.
        let vcis: Vec<u32> = (0..24u32).map(|i| 96 * (i / 4) + 92 + i % 4).collect();
        let mut sw = Switch::new(&CAPACITIES);
        let mut model = Model::new();
        let mut now = 0u64;
        for (op, pick, port, x, dt) in ops {
            let vci = vcis[pick];
            now += dt;
            match op {
                0 | 1 => prop_assert_eq!(sw.setup(vci, port, x.abs()), model.setup(vci, port, x.abs())),
                2 => {
                    let port = port % CAPACITIES.len();
                    sw.install(vci, port);
                    model.vci_table.entry(vci).or_insert(port);
                }
                3 => prop_assert_eq!(
                    sw.uninstall(vci).map(f64::to_bits),
                    model.uninstall(vci).map(f64::to_bits)
                ),
                4..=7 => {
                    let rate = if op == 7 { RateField::Absolute(x.abs()) } else { RateField::Delta(x) };
                    let cell = RmCell { vci, rate, denied: false, pressure: false };
                    let got = sw.process_rm(cell).map(|c| !c.denied);
                    prop_assert_eq!(got, model.process_rm(vci, rate));
                }
                8 => prop_assert_eq!(
                    sw.try_rollback_delta(vci, x),
                    model.process_rm(vci, RateField::Delta(-x))
                ),
                9 => {
                    sw.touch_lease(vci, now);
                    model.touch_lease(vci, now);
                }
                10 => {
                    #[expect(clippy::disallowed_methods, reason = "the model check drives the sweep")]
                    let expired = sw.expire_leases(now, 25);
                    prop_assert_eq!(expired, model.expire_leases(now, 25));
                }
                11 => {
                    // Rare: a wipe empties everything the next ops build on.
                    if pick == 0 {
                        sw.wipe_soft_state();
                        model.wipe_soft_state();
                    }
                }
                12 => {
                    let port = port % CAPACITIES.len();
                    let ceiling = CAPACITIES[port] * (0.5 + x.abs() / 3_000.0);
                    #[expect(clippy::disallowed_methods, reason = "the model check drives the ceiling")]
                    sw.set_admit_ceiling(port, ceiling);
                    model.ports[port].ceiling = ceiling;
                }
                _ => {
                    let forced = model.port_of(vci).map(|p| {
                        let old = p.rate(vci);
                        p.apply(vci, old, x.abs());
                    });
                    let set = sw.slot(vci).map(|mut slot| slot.set_unchecked(x.abs()));
                    prop_assert_eq!(set.ok_or(SwitchError::UnknownVci(vci)), forced);
                }
            }
            check_views(&sw, &model, &vcis)?;
        }
    }
}
