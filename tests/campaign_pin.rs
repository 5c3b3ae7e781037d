//! Pins the bytes of one seeded fault-campaign report.
//!
//! Host-side optimisations of the machine lifecycle (cache allocation,
//! snapshot encoding, recovery's candidate search) must leave every
//! simulated outcome unchanged. The report records per-scenario fault,
//! recovery and audit counts, so its FNV-1a-64 digest moves if any of
//! them does. A change that is meant to alter campaign outcomes updates
//! `PINNED` and says why.

use fsencr_bench::faultcamp::run_campaign;
use fsencr_snapshot::fnv1a64_once;

/// FNV-1a-64 of `run_campaign(7, "scenarios=64,ops=128").to_json()`.
const PINNED: u64 = 0xe8df_d9ac_af09_6462;

#[test]
fn seeded_campaign_report_is_pinned() {
    let spec = "scenarios=64,ops=128".parse().expect("campaign spec");
    let report = run_campaign(7, &spec);
    assert_eq!(
        report.undetected_in_coverage(),
        0,
        "silent corruption escaped"
    );
    let json = report.to_json();
    let digest = fnv1a64_once(json.as_bytes());
    assert_eq!(
        digest,
        PINNED,
        "campaign report changed: digest {digest:#018x}, {} bytes",
        json.len()
    );
}
