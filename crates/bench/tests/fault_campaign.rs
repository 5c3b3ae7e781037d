//! Acceptance properties of the deterministic fault-injection subsystem:
//!
//! * `FAULTS_report.json` is byte-identical for the same seed at any
//!   worker count and under every [`Schedule`] policy — fault campaigns
//!   are replayable evidence, not flaky observations.
//! * An armed-but-empty (or armed-then-disarmed) injector is invisible:
//!   simulated cycles, statistics and data bytes are bit-equal to a
//!   machine that never saw the fault API. The datapath pays one branch,
//!   nothing else.
//! * Whatever the seed, every in-coverage corruption the injector
//!   applies is detected — `undetected_in_coverage` stays 0.
//!
//! Kept as one sequential test where the pool globals are involved: jobs
//! and schedule are process-wide.

use proptest::prelude::*;

use fsencr::snapshot::StatsSnapshot;
use fsencr::{Machine, MachineOpts, SecurityMode};
use fsencr_bench::faultcamp;
use fsencr_bench::pool::{self, Schedule};
use fsencr_faults::{CampaignSpec, FaultPlan};
use fsencr_fs::{GroupId, Mode, UserId};

#[test]
fn report_is_byte_identical_across_jobs_and_schedules() {
    let spec: CampaignSpec = "scenarios=3,ops=24".parse().unwrap();
    let jobs0 = pool::jobs();
    let sched0 = pool::schedule();

    let reference = faultcamp::run_campaign(42, &spec).to_json();
    for jobs in [1, 4] {
        for sched in [
            Schedule::Fifo,
            Schedule::Lifo,
            Schedule::EvenOdd,
            Schedule::Stagger,
        ] {
            pool::set_jobs(jobs);
            pool::set_schedule(sched);
            let got = faultcamp::run_campaign(42, &spec).to_json();
            assert_eq!(
                got, reference,
                "report diverged at jobs={jobs} sched={sched:?}"
            );
        }
    }

    pool::set_jobs(jobs0);
    pool::set_schedule(sched0);
}

#[test]
fn different_seeds_give_different_reports() {
    let spec: CampaignSpec = "scenarios=2,ops=16".parse().unwrap();
    let a = faultcamp::run_campaign(42, &spec).to_json();
    let b = faultcamp::run_campaign(43, &spec).to_json();
    assert_ne!(a, b, "seed must steer the campaign");
}

/// Drives a fixed small workload and returns the stats snapshot plus
/// every byte read back.
fn drive(m: &mut Machine) -> (StatsSnapshot, Vec<u8>) {
    let user = UserId::new(1);
    let h = m
        .create(
            user,
            GroupId::new(1),
            "neutral.bin",
            Mode::PRIVATE,
            Some("pw"),
        )
        .unwrap();
    let map = m.mmap(&h).unwrap();
    for i in 0u64..16 {
        let block = [i as u8 ^ 0x5A; 128];
        m.write(0, map, i * 128, &block).unwrap();
        m.persist(0, map, i * 128, 128).unwrap();
    }
    let mut data = vec![0u8; 16 * 128];
    m.read(0, map, 0, &mut data).unwrap();
    (m.snapshot(), data)
}

#[test]
fn empty_or_disarmed_injector_is_invisible() {
    // Baseline: the fault API is never touched.
    let mut base = Machine::new(MachineOpts::small_test(), SecurityMode::FsEncr);
    let (snap_base, data_base) = drive(&mut base);

    // An armed-but-empty plan: hooks run on every access, apply nothing.
    let mut empty = Machine::new(MachineOpts::small_test(), SecurityMode::FsEncr);
    empty.controller_mut().arm_faults(FaultPlan::empty());
    let (snap_empty, data_empty) = drive(&mut empty);
    assert!(
        empty.controller_mut().disarm_faults().is_empty(),
        "empty plan applied a fault"
    );

    // Armed and disarmed again before any traffic.
    let mut cycled = Machine::new(MachineOpts::small_test(), SecurityMode::FsEncr);
    cycled.controller_mut().arm_faults(FaultPlan::empty());
    let _ = cycled.controller_mut().disarm_faults();
    let (snap_cycled, data_cycled) = drive(&mut cycled);

    assert_eq!(data_base, data_empty, "empty injector changed data bytes");
    assert_eq!(
        data_base, data_cycled,
        "disarmed injector changed data bytes"
    );
    assert_eq!(
        snap_base, snap_empty,
        "empty injector changed simulated stats"
    );
    assert_eq!(
        snap_base, snap_cycled,
        "disarmed injector changed simulated stats"
    );
}

proptest! {
    /// The tentpole safety property, quantified over seeds: whatever the
    /// injector does, nothing it corrupts inside coverage survives the
    /// audit undetected — and the campaign is not vacuous (faults are
    /// planned, and the report re-derives byte-identically).
    #[test]
    fn no_seed_produces_undetected_in_coverage_corruption(seed in 0u64..24) {
        let spec: CampaignSpec = "scenarios=2,ops=20".parse().unwrap();
        let report = faultcamp::run_campaign(seed, &spec);
        prop_assert_eq!(
            report.undetected_in_coverage(),
            0,
            "seed {} let silent corruption through",
            seed
        );
        prop_assert!(report.to_json() == faultcamp::run_campaign(seed, &spec).to_json());
    }
}
