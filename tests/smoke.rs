//! Cross-crate smoke test for the headline claims, small enough for
//! tier-1:
//!
//! * a two-scenario fault campaign leaves no undetected corruption
//!   inside coverage, and its snapshot-seeded run equals the cold
//!   reference run byte for byte;
//! * a machine snapshot survives save → restore → save byte-equal;
//! * a tiny Figures 12-14 run renders identically at 1 and 2 jobs.
//!
//! One `#[test]` runs all three, so nothing else races the global
//! worker count while it is pinned.

use fsencr::{Machine, MachineOpts, SecurityMode};
use fsencr_bench::faultcamp::{run_campaign, run_campaign_cold};
use fsencr_bench::{fig12_13_14, pool};
use fsencr_fs::{GroupId, Mode, UserId};

const PAGE: u64 = 4096;

/// One encrypted file of `pages` pages, each written and persisted.
fn persisted_file_machine(pages: u64) -> Machine {
    let mut m = Machine::new(MachineOpts::small_test(), SecurityMode::FsEncr);
    let h = m
        .create(
            UserId::new(1),
            GroupId::new(1),
            "smoke.bin",
            Mode::PRIVATE,
            Some("pw"),
        )
        .expect("create");
    let map = m.mmap(&h).expect("mmap");
    for p in 0..pages {
        let page: Vec<u8> = (0..PAGE)
            .map(|i| (i ^ p.wrapping_mul(0x9E)) as u8)
            .collect();
        m.write(0, map, p * PAGE, &page).expect("write");
        m.persist(0, map, p * PAGE, PAGE).expect("persist");
    }
    m
}

fn render(
    figs: (
        impl std::fmt::Display,
        impl std::fmt::Display,
        impl std::fmt::Display,
    ),
) -> String {
    format!("{}{}{}", figs.0, figs.1, figs.2)
}

#[test]
fn headline_claims_hold_at_small_scale() {
    let spec = "scenarios=2,ops=48".parse().expect("campaign spec");
    let report = run_campaign(42, &spec);
    assert_eq!(
        report.undetected_in_coverage(),
        0,
        "silent corruption escaped"
    );
    assert_eq!(
        report.to_json(),
        run_campaign_cold(42, &spec).to_json(),
        "snapshot-seeded campaign diverged from the cold reference"
    );

    let saved = persisted_file_machine(4).save_snapshot().expect("save");
    let restored =
        Machine::restore_snapshot(MachineOpts::small_test(), SecurityMode::FsEncr, &saved)
            .expect("restore");
    assert!(
        restored.save_snapshot().expect("re-save") == saved,
        "snapshot round trip changed the image"
    );

    pool::set_jobs(1);
    let serial = render(fig12_13_14(0.01));
    pool::set_jobs(2);
    let parallel = render(fig12_13_14(0.01));
    pool::set_jobs(0);
    assert_eq!(serial, parallel, "fig12-14 depends on the job count");
}
