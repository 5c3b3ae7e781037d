//! The consolidated inspection / fault surface.
//!
//! Media inspection and attack plumbing used to be spread over ad-hoc
//! per-accessor escape hatches on `Machine` and `TransferredModule`;
//! each did one narrow thing and each had to be audited separately by
//! the confinement pass. The deprecated shims are gone — these two
//! planes are the only surface:
//!
//! * [`InspectPlane`] ([`Machine::inspect_plane`]) — read-only: raw media
//!   lines, wear telemetry, the Merkle root, the quarantine set, the
//!   armed injector's state. Handing one out can never change the
//!   machine.
//! * [`FaultPlane`] ([`Machine::fault_plane`]) — every way to make the
//!   device misbehave, in one audited place: raw tampering,
//!   arming/disarming deterministic [`FaultPlan`]s, power-cut control and
//!   the quarantine knobs. The confinement gate's `debug-reach` and
//!   `plaintext-confinement` rules allowlist exactly this module, so a
//!   raw write appearing anywhere else still fails the gate.
//!
//! [`TransferredModule`] gets the same split ([`ModuleInspect`] /
//! [`ModuleFault`]) for the in-transit attacker model.
//!
//! [`Machine::inspect_plane`]: crate::Machine::inspect_plane
//! [`Machine::fault_plane`]: crate::Machine::fault_plane
//! [`TransferredModule`]: crate::machine::TransferredModule

use fsencr_faults::{FaultEvent, FaultPlan};
use fsencr_nvm::{NvmDevice, PhysAddr, WearTracker, LINE_BYTES};

use crate::controller::MemoryController;

/// Read-only window onto the machine's media and fault state.
///
/// Obtained from [`crate::Machine::inspect_plane`]; borrows the
/// controller immutably, so it cannot perturb the simulation.
#[derive(Debug)]
pub struct InspectPlane<'a> {
    ctrl: &'a MemoryController,
}

impl<'a> InspectPlane<'a> {
    pub(crate) fn new(ctrl: &'a MemoryController) -> Self {
        InspectPlane { ctrl }
    }

    /// Reads a raw media line (ciphertext) — what a physical probe sees.
    /// Zero simulated time; bypasses the fault injector.
    pub fn media_line(&self, addr: PhysAddr) -> [u8; LINE_BYTES] {
        self.ctrl.nvm().peek_line(addr)
    }

    /// Per-page write-wear telemetry from the device.
    pub fn wear(&self) -> &'a WearTracker {
        self.ctrl.nvm().wear()
    }

    /// The current on-chip Merkle root.
    pub fn merkle_root(&self) -> [u8; 8] {
        self.ctrl.merkle_root()
    }

    /// Currently quarantined lines, in address order.
    pub fn quarantined(&self) -> Vec<u64> {
        self.ctrl.quarantined_lines().collect()
    }

    /// Whether auto-quarantine is enabled on the controller.
    pub fn auto_quarantine(&self) -> bool {
        self.ctrl.auto_quarantine()
    }

    /// True while an armed injector has cut power.
    pub fn power_lost(&self) -> bool {
        self.ctrl.power_lost()
    }

    /// The controller itself, for read-only statistics.
    pub fn controller(&self) -> &'a MemoryController {
        self.ctrl
    }
}

/// The machine's consolidated fault surface: everything that makes the
/// device misbehave, in one audited place.
///
/// Obtained from [`crate::Machine::fault_plane`]. This is deliberately
/// the *only* module (outside tests) that reaches the raw device through
/// the controller's debug hatch — the static confinement gate enforces
/// that with targeted allowlist entries for this file.
#[derive(Debug)]
pub struct FaultPlane<'a> {
    ctrl: &'a mut MemoryController,
}

impl<'a> FaultPlane<'a> {
    pub(crate) fn new(ctrl: &'a mut MemoryController) -> Self {
        FaultPlane { ctrl }
    }

    /// Reads a raw media line, like [`InspectPlane::media_line`].
    pub fn media_line(&self, addr: PhysAddr) -> [u8; LINE_BYTES] {
        self.ctrl.nvm().peek_line(addr)
    }

    /// Overwrites a raw media line behind the controller's back — the
    /// tampering attacker. Integrity verification is expected to catch
    /// the modification on the next covered read.
    pub fn tamper_line(&mut self, addr: PhysAddr, data: &[u8; LINE_BYTES]) {
        self.ctrl.debug_nvm_mut().poke_line(addr, data);
    }

    /// Arms a deterministic fault plan (replacing any armed injector and
    /// healing the wear-out overlay).
    pub fn arm(&mut self, plan: FaultPlan) {
        self.ctrl.arm_faults(plan);
    }

    /// Disarms the injector, returning the log of applied faults.
    pub fn disarm(&mut self) -> Vec<FaultEvent> {
        self.ctrl.disarm_faults()
    }

    /// True while the armed injector has cut power.
    pub fn power_lost(&self) -> bool {
        self.ctrl.power_lost()
    }

    /// Restores power after a cut; crash-recover before trusting the
    /// device again.
    pub fn restore_power(&mut self) {
        self.ctrl.restore_power();
    }

    /// Enables or disables auto-quarantine of integrity failures.
    pub fn set_auto_quarantine(&mut self, on: bool) {
        self.ctrl.set_auto_quarantine(on);
    }

    /// Manually quarantines a line (line-aligned byte address).
    pub fn quarantine_line(&mut self, line: u64) {
        self.ctrl.quarantine_line(line);
    }

    /// Lifts every quarantine.
    pub fn clear_quarantine(&mut self) {
        self.ctrl.clear_quarantine();
    }

    /// Currently quarantined lines, in address order.
    pub fn quarantined(&self) -> Vec<u64> {
        self.ctrl.quarantined_lines().collect()
    }

    /// Raw mutable controller access. Debug/attack surface only.
    pub fn controller_mut(&mut self) -> &mut MemoryController {
        self.ctrl
    }
}

/// Read-only media window onto a transferred module (what the in-transit
/// attacker sees: ciphertext only).
#[derive(Debug)]
pub struct ModuleInspect<'a> {
    nvm: &'a NvmDevice,
}

impl<'a> ModuleInspect<'a> {
    pub(crate) fn new(nvm: &'a NvmDevice) -> Self {
        ModuleInspect { nvm }
    }

    /// Reads a raw media line of the travelling DIMM.
    pub fn media_line(&self, addr: PhysAddr) -> [u8; LINE_BYTES] {
        self.nvm.peek_line(addr)
    }
}

/// Fault surface of a transferred module — the in-transit tampering
/// attacker. Import-time authentication against the envelope's root
/// digest is expected to catch anything done here.
#[derive(Debug)]
pub struct ModuleFault<'a> {
    nvm: &'a mut NvmDevice,
}

impl<'a> ModuleFault<'a> {
    pub(crate) fn new(nvm: &'a mut NvmDevice) -> Self {
        ModuleFault { nvm }
    }

    /// Reads a raw media line of the travelling DIMM.
    pub fn media_line(&self, addr: PhysAddr) -> [u8; LINE_BYTES] {
        self.nvm.peek_line(addr)
    }

    /// Overwrites a raw media line of the travelling DIMM.
    pub fn tamper_line(&mut self, addr: PhysAddr, data: &[u8; LINE_BYTES]) {
        self.nvm.poke_line(addr, data);
    }
}
