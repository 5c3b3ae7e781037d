//! Single-server resource occupancy model.
//!
//! Memory banks, the shared memory bus and the AES engines serve one request
//! at a time. [`Resource`] tracks when a server becomes free and computes
//! queueing delay for a request arriving at a given time — the standard
//! "busy-until" approximation used by request-level memory simulators.

use crate::clock::Cycle;

/// A single-server resource with FIFO queueing.
///
/// # Examples
///
/// ```
/// use fsencr_sim::{Cycle, Resource};
///
/// let mut bank = Resource::new();
/// // First request at t=0 with 60 cycles of service finishes at 60.
/// let done = bank.serve(Cycle::ZERO, Cycle::new(60));
/// assert_eq!(done, Cycle::new(60));
/// // A request arriving at t=10 must wait until the bank frees up.
/// let done = bank.serve(Cycle::new(10), Cycle::new(60));
/// assert_eq!(done, Cycle::new(120));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Resource {
    busy_until: Cycle,
    served: u64,
    busy_cycles: u64,
}

impl Resource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Resource::default()
    }

    /// Serves a request arriving at `now` with the given `service` time.
    ///
    /// Returns the completion time: the request starts when both the
    /// requester has arrived and the server is free.
    pub fn serve(&mut self, now: Cycle, service: Cycle) -> Cycle {
        let start = now.max(self.busy_until);
        let done = start + service;
        self.busy_until = done;
        self.served += 1;
        self.busy_cycles += service.get();
        done
    }

    /// The time at which the server next becomes free.
    pub fn busy_until(&self) -> Cycle {
        self.busy_until
    }

    /// Total number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Total cycles spent serving requests (utilization numerator).
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Serializes the occupancy state into a snapshot section.
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        enc.put_u64(self.busy_until.get());
        enc.put_u64(self.served);
        enc.put_u64(self.busy_cycles);
    }

    /// Restores occupancy state from a snapshot section.
    pub fn snap_load(
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<Resource, fsencr_snapshot::SnapError> {
        Ok(Resource {
            busy_until: Cycle::new(dec.get_u64()?),
            served: dec.get_u64()?,
            busy_cycles: dec.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = Resource::new();
        assert_eq!(r.busy_until(), Cycle::ZERO);
        let done = r.serve(Cycle::new(100), Cycle::new(25));
        assert_eq!(done, Cycle::new(125));
        assert_eq!(r.busy_until(), Cycle::new(125));
    }

    #[test]
    fn queueing_delay_accumulates() {
        let mut r = Resource::new();
        let d1 = r.serve(Cycle::ZERO, Cycle::new(10));
        let d2 = r.serve(Cycle::ZERO, Cycle::new(10));
        let d3 = r.serve(Cycle::ZERO, Cycle::new(10));
        assert_eq!(
            (d1, d2, d3),
            (Cycle::new(10), Cycle::new(20), Cycle::new(30))
        );
    }

    #[test]
    fn late_arrival_finds_free_server() {
        let mut r = Resource::new();
        r.serve(Cycle::ZERO, Cycle::new(10));
        let done = r.serve(Cycle::new(50), Cycle::new(5));
        assert_eq!(done, Cycle::new(55));
        assert_eq!(r.busy_until(), Cycle::new(55));
    }

    #[test]
    fn bookkeeping() {
        let mut r = Resource::new();
        r.serve(Cycle::ZERO, Cycle::new(3));
        r.serve(Cycle::ZERO, Cycle::new(4));
        assert_eq!(r.served(), 2);
        assert_eq!(r.busy_cycles(), 7);
    }
}
