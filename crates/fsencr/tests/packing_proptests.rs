//! Property tests for the Figure 6 counter-block codecs and the OTT
//! spill region: FECB field packing must round-trip at every legal
//! value, and spilled file keys must survive a flush + crash + rebuild
//! cycle ("reload") byte-exactly.

use proptest::prelude::*;

use fsencr::OttSpill;
use fsencr_crypto::{Key128, PadDomain};
use fsencr_nvm::NvmDevice;
use fsencr_secmem::{CounterBlock, MetadataLayout, MetadataSystem, MINORS_PER_BLOCK};
use fsencr_sim::config::{NvmConfig, SecurityConfig};
use fsencr_sim::Cycle;

/// Adapts spill-datapath errors to proptest case failures.
fn tc(e: impl std::fmt::Display) -> TestCaseError {
    TestCaseError::fail(format!("spill datapath error: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn fecb_fields_roundtrip(
        gid in 0u32..(1 << 18),
        fid in 0u32..(1 << 14),
        major in any::<u32>(),
        block in 0usize..64,
        minor in 0u8..128,
    ) {
        let mut fecb = CounterBlock::new(PadDomain::File);
        fecb.stamp(gid, fid);
        fecb.set(u64::from(major), block, minor);
        let back = CounterBlock::from_bytes(PadDomain::File, &fecb.to_bytes());
        prop_assert_eq!(back.gid(), gid);
        prop_assert_eq!(back.fid(), fid);
        prop_assert_eq!(back.major(), u64::from(major));
        prop_assert_eq!(back.minor(block), minor);
        prop_assert_eq!(back, fecb);
    }

    #[test]
    fn fecb_id_word_is_gid_shl_14_or_fid(
        gid in 0u32..(1 << 18),
        fid in 0u32..(1 << 14),
    ) {
        // The on-media identity word must pack exactly 18 + 14 bits —
        // neighbouring files/groups must never collide after packing.
        let mut fecb = CounterBlock::new(PadDomain::File);
        fecb.stamp(gid, fid);
        let bytes = fecb.to_bytes();
        let word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        prop_assert_eq!(word >> 14, gid);
        prop_assert_eq!(word & ((1 << 14) - 1), fid);
    }

    #[test]
    fn mecb_minor_vector_roundtrips(
        major in any::<u64>(),
        minors in prop::collection::vec(0u8..128, MINORS_PER_BLOCK),
    ) {
        let mut mecb = CounterBlock::new(PadDomain::Memory);
        for (block, &minor) in minors.iter().enumerate() {
            mecb.set(major, block, minor);
        }
        let back = CounterBlock::from_bytes(PadDomain::Memory, &mecb.to_bytes());
        prop_assert_eq!(back.major(), major);
        for (block, &minor) in minors.iter().enumerate() {
            prop_assert_eq!(back.minor(block), minor, "minor {block}");
        }
    }

    #[test]
    fn spilled_keys_survive_crash_and_rebuild(
        fids in prop::collection::vec(0u32..64, 1..12),
        key_seed in any::<u64>(),
    ) {
        // 16 pages of data + a 512-byte (16 slot) spill region.
        let ott_bytes = 512u64;
        let layout = MetadataLayout::new(16 * 4096, ott_bytes);
        let base = layout.ott_base();
        let mut meta = MetadataSystem::new(layout, &SecurityConfig::default());
        let mut nvm = NvmDevice::new(NvmConfig::default());
        let ott_key = Key128::from_seed(0xA11CE);
        let spill = OttSpill::new(base, ott_bytes, &ott_key);

        let mut unique: Vec<u32> = fids.clone();
        unique.sort_unstable();
        unique.dedup();
        let mut t = Cycle::ZERO;
        for &fid in &unique {
            let key = Key128::from_seed(key_seed ^ u64::from(fid));
            t = spill.insert(&mut meta, &mut nvm, t, 1, fid, &key).map_err(tc)?;
        }

        // Persist, lose all volatile state, recover from media — the
        // reload path of a reboot — and re-resolve through a *fresh*
        // OttSpill holding the same processor-resident OTT key.
        meta.flush(&mut nvm, t);
        meta.crash();
        meta.rebuild(&mut nvm);
        let reloaded = OttSpill::new(base, ott_bytes, &ott_key);
        for &fid in &unique {
            let want = Key128::from_seed(key_seed ^ u64::from(fid));
            let (found, done) = reloaded.lookup(&mut meta, &mut nvm, t, 1, fid).map_err(tc)?;
            t = done;
            prop_assert_eq!(found, Some(want), "fid {fid}");
        }
        // And an id that was never spilled must stay absent.
        let (missing, _) = reloaded.lookup(&mut meta, &mut nvm, t, 1, 1 << 13).map_err(tc)?;
        prop_assert_eq!(missing, None);
    }
}
