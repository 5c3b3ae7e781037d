//! The layout invariant checker.
//!
//! Re-derives the security-metadata geometry from the *live* workspace
//! crates and compares it against the paper's values (Figures 5–6 and
//! Table III of Zubair/Mohaisen/Awad, HPCA 2022):
//!
//! * 64-byte metadata lines, 4 KiB pages, 128 B of counters per page
//!   (one MECB + one FECB, interleaved);
//! * MECB = 64-bit major + 64 x 7-bit minors in exactly 64 bytes;
//! * FECB = 18-bit Group ID + 14-bit File ID + 32-bit major +
//!   64 x 7-bit minors, with the ID word packed `(gid << 14) | fid`;
//! * 8-ary Bonsai Merkle tree over counters + spilled OTT, <= 9 levels
//!   at paper scale (12 GiB data in a 16 GiB device);
//! * OTT: 8 ways x 128 entries, 20-cycle lookup, Osiris stop-loss 4,
//!   40-cycle MACs, 512 KiB metadata cache;
//! * OTT spill slots: two 32-byte slots per line — state byte, 4-byte
//!   `(gid << 14) | fid` word, 16-byte AES-ECB-wrapped key, zero pad —
//!   with the key never stored in plaintext.
//!
//! Unlike the lint pass this is semantic: it executes the real codecs
//! and the real spill datapath, so a refactor that silently changes the
//! on-media format fails the gate even if every test was updated.

use fsencr::OttSpill;
use fsencr_crypto::{Key128, PadDomain};
use fsencr_nvm::{LineAddr, NvmDevice, PageId, PhysAddr, LINE_BYTES, PAGE_BYTES};
use fsencr_secmem::counters::{FID_LIMIT, GID_LIMIT};
use fsencr_secmem::layout::META_PER_PAGE;
use fsencr_secmem::{CounterBlock, MetadataLayout, MetadataSystem, MINORS_PER_BLOCK, MINOR_LIMIT};
use fsencr_sim::config::{NvmConfig, SecurityConfig};
use fsencr_sim::Cycle;

use crate::Finding;

fn expect_eq<T: PartialEq + std::fmt::Debug>(
    findings: &mut Vec<Finding>,
    area: &str,
    what: &str,
    got: T,
    want: T,
) {
    if got != want {
        findings.push(Finding {
            path: format!("layout:{area}"),
            line: 0,
            rule: "layout",
            message: format!("{what}: expected {want:?}, got {got:?}"),
        });
    }
}

fn expect(findings: &mut Vec<Finding>, area: &str, what: &str, ok: bool) {
    if !ok {
        findings.push(Finding {
            path: format!("layout:{area}"),
            line: 0,
            rule: "layout",
            message: what.to_string(),
        });
    }
}

/// Runs every invariant check; returns one finding per violated
/// invariant, sorted.
pub fn check() -> Vec<Finding> {
    let mut f = Vec::new();
    check_constants(&mut f);
    check_mecb(&mut f);
    check_fecb(&mut f);
    check_region_map(&mut f);
    check_merkle(&mut f);
    check_paper_scale(&mut f);
    check_security_config(&mut f);
    check_spill_format(&mut f);
    check_coverage_datapath(&mut f);
    f.sort();
    f
}

fn check_constants(f: &mut Vec<Finding>) {
    expect_eq(f, "constants", "metadata line bytes", LINE_BYTES, 64);
    expect_eq(f, "constants", "page bytes", PAGE_BYTES, 4096);
    expect_eq(
        f,
        "constants",
        "counter bytes per page (MECB + FECB)",
        META_PER_PAGE,
        128,
    );
    expect_eq(
        f,
        "constants",
        "minors per counter block",
        MINORS_PER_BLOCK,
        64,
    );
    expect_eq(
        f,
        "constants",
        "7-bit minor limit",
        u32::from(MINOR_LIMIT),
        128,
    );
    expect_eq(f, "constants", "18-bit Group ID limit", GID_LIMIT, 1 << 18);
    expect_eq(f, "constants", "14-bit File ID limit", FID_LIMIT, 1 << 14);
}

fn check_mecb(f: &mut Vec<Finding>) {
    let mut b = CounterBlock::new(PadDomain::Memory);
    b.set(0x0123_4567_89AB_CDEF, 63, 127);
    let bytes = b.to_bytes();
    expect_eq(
        f,
        "mecb",
        "64-bit major little-endian at bytes 0..8",
        bytes[..8].to_vec(),
        0x0123_4567_89AB_CDEFu64.to_le_bytes().to_vec(),
    );
    expect_eq(
        f,
        "mecb",
        "round-trip",
        CounterBlock::from_bytes(PadDomain::Memory, &bytes),
        b,
    );
    // 64 x 7-bit minors must occupy bytes 8..64 exactly: all-maxed
    // minors saturate all 448 packed bits.
    let mut full = CounterBlock::new(PadDomain::Memory);
    for block in 0..MINORS_PER_BLOCK {
        full.set(0, block, MINOR_LIMIT - 1);
    }
    expect(
        f,
        "mecb",
        "64 x 7-bit minors fill bytes 8..64 bit-exactly",
        full.to_bytes()[8..64].iter().all(|&x| x == 0xff),
    );
}

fn check_fecb(f: &mut Vec<Finding>) {
    let gid = GID_LIMIT - 1;
    let fid = FID_LIMIT - 1;
    let mut b = CounterBlock::new(PadDomain::File);
    b.stamp(gid, fid);
    b.set(0xDEAD_BEEF, 17, 99);
    let bytes = b.to_bytes();
    expect_eq(
        f,
        "fecb",
        "ID word `(gid << 14) | fid` little-endian at bytes 0..4",
        bytes[..4].to_vec(),
        ((gid << 14) | fid).to_le_bytes().to_vec(),
    );
    expect_eq(
        f,
        "fecb",
        "32-bit major little-endian at bytes 4..8",
        bytes[4..8].to_vec(),
        0xDEAD_BEEFu32.to_le_bytes().to_vec(),
    );
    let back = CounterBlock::from_bytes(PadDomain::File, &bytes);
    expect_eq(
        f,
        "fecb",
        "Group ID survives the round-trip",
        back.gid(),
        gid,
    );
    expect_eq(
        f,
        "fecb",
        "File ID survives the round-trip",
        back.fid(),
        fid,
    );
    expect_eq(
        f,
        "fecb",
        "major survives the round-trip",
        back.major(),
        0xDEAD_BEEF,
    );
    expect_eq(
        f,
        "fecb",
        "minor survives the round-trip",
        back.minor(17),
        99,
    );
    // 18 + 14 = 32: the widest IDs must not bleed into the major field.
    expect_eq(
        f,
        "fecb",
        "18b + 14b IDs fit the 32-bit word exactly",
        u64::from(gid) << 14 | u64::from(fid),
        u64::from(u32::MAX),
    );
}

fn check_region_map(f: &mut Vec<Finding>) {
    let pages = 16u64;
    let ott_bytes = 512u64;
    let layout = MetadataLayout::new(pages * PAGE_BYTES as u64, ott_bytes);
    expect_eq(
        f,
        "regions",
        "counters start right after data",
        layout.meta_base(),
        pages * PAGE_BYTES as u64,
    );
    expect_eq(
        f,
        "regions",
        "OTT region starts after 128 B/page of counters",
        layout.ott_base(),
        layout.meta_base() + pages * META_PER_PAGE,
    );
    expect_eq(
        f,
        "regions",
        "Merkle nodes start after the OTT region",
        layout.merkle_base(),
        layout.ott_base() + ott_bytes,
    );
    let page = PageId::new(3);
    let mecb = layout.mecb_addr(page);
    let fecb = layout.fecb_addr(page);
    expect_eq(
        f,
        "regions",
        "MECB and FECB of a page are interleaved, one line apart",
        fecb.get(),
        mecb.get() + LINE_BYTES as u64,
    );
    expect_eq(
        f,
        "regions",
        "leaf index of page 3's MECB (two lines per page)",
        layout.leaf_index(mecb),
        6,
    );
    expect(
        f,
        "regions",
        "counter lines are Merkle-covered metadata",
        layout.is_metadata(mecb) && layout.is_metadata(LineAddr::new(layout.ott_base())),
    );
    expect(
        f,
        "regions",
        "data lines are not metadata",
        layout.is_data(LineAddr::new(0)) && !layout.is_metadata(LineAddr::new(0)),
    );
}

fn check_merkle(f: &mut Vec<Finding>) {
    // 16 pages -> 32 counter lines + 8 OTT lines = 40 leaves; an 8-ary
    // tree needs ceil(40/8) = 5 level-0 nodes and one root above them.
    let layout = MetadataLayout::new(16 * PAGE_BYTES as u64, 512);
    expect_eq(
        f,
        "merkle",
        "levels over 40 leaves (8-ary)",
        layout.merkle_levels(),
        2,
    );
    let leaf = 9u64;
    let path = layout.path_of_leaf(leaf);
    expect_eq(f, "merkle", "path length equals level count", path.len(), 2);
    if let Some(&(level, node, slot)) = path.first() {
        expect_eq(
            f,
            "merkle",
            "level-0 hop of leaf 9 is node leaf/8",
            (level, node),
            (0, 1),
        );
        expect_eq(
            f,
            "merkle",
            "slot of leaf 9 in its parent is leaf%8",
            slot,
            1,
        );
    }
    if let Some(&(level, node, _)) = path.last() {
        expect_eq(
            f,
            "merkle",
            "path ends at the single root",
            (level, node),
            (1, 0),
        );
    }
    // node_addr/node_coords must be inverses.
    let addr = layout.node_addr(0, 4);
    expect_eq(
        f,
        "merkle",
        "node_coords inverts node_addr",
        layout.node_coords(addr),
        Some((0, 4)),
    );
}

fn check_paper_scale(f: &mut Vec<Finding>) {
    // Section VI: 12 GiB of protected data plus a 256 KiB OTT spill
    // region must fit a 16 GiB device with a <= 9-level 8-ary tree.
    let layout = MetadataLayout::new(12u64 << 30, 256 << 10);
    expect(
        f,
        "paper-scale",
        "12 GiB data + metadata fits a 16 GiB device",
        layout.total_bytes() <= 16u64 << 30,
    );
    expect(
        f,
        "paper-scale",
        "Merkle tree is at most 9 levels at paper scale",
        layout.merkle_levels() <= 9,
    );
}

fn check_security_config(f: &mut Vec<Finding>) {
    let cfg = SecurityConfig::default();
    expect_eq(f, "config", "OTT capacity (8 x 128)", cfg.ott_entries, 1024);
    expect_eq(
        f,
        "config",
        "OTT lookup latency cycles",
        cfg.ott_latency_cycles,
        20,
    );
    expect_eq(
        f,
        "config",
        "Osiris stop-loss period",
        cfg.osiris_stop_loss,
        4,
    );
    expect_eq(f, "config", "MAC latency cycles", cfg.mac_cycles, 40);
    expect_eq(f, "config", "AES pad latency ns", cfg.aes_ns, 40);
    expect_eq(
        f,
        "config",
        "metadata cache bytes (512 KiB)",
        cfg.metadata_cache.size_bytes,
        512 << 10,
    );
    expect_eq(
        f,
        "config",
        "metadata cache ways",
        cfg.metadata_cache.ways,
        8,
    );
}

fn check_spill_format(f: &mut Vec<Finding>) {
    // Drive the real spill datapath and inspect the stored line through
    // the metadata system: two 32-byte slots per 64-byte line, each
    // `state | id_word | wrapped key | zero pad`, key never in plaintext.
    let ott_bytes = 512u64;
    let layout = MetadataLayout::new(16 * PAGE_BYTES as u64, ott_bytes);
    let base = layout.ott_base();
    let mut meta = MetadataSystem::new(layout, &SecurityConfig::default());
    let mut nvm = NvmDevice::new(NvmConfig::default());
    let ott_key = Key128::from_seed(0xA11CE);
    let spill = OttSpill::new(base, ott_bytes, &ott_key);

    expect_eq(
        f,
        "spill",
        "two 32-byte slots per 64-byte line",
        spill.capacity(),
        ott_bytes / LINE_BYTES as u64 * 2,
    );

    let (gid, fid) = (3u32, 5u32);
    let file_key = Key128::from_seed(7);
    let Ok(t) = spill.insert(&mut meta, &mut nvm, Cycle::ZERO, gid, fid, &file_key) else {
        expect(
            f,
            "spill",
            "insert into an empty spill region succeeds",
            false,
        );
        return;
    };
    meta.flush(&mut nvm, t);

    let mut occupied = Vec::new();
    let mut now = t;
    for line in 0..(ott_bytes / LINE_BYTES as u64) {
        let addr = LineAddr::new(base + line * LINE_BYTES as u64);
        let Ok((bytes, acc)) = meta.read_block(&mut nvm, now, addr) else {
            expect(
                f,
                "spill",
                "spill lines verify against the Merkle tree",
                false,
            );
            return;
        };
        now = acc.done;
        for off in [0usize, 32] {
            if bytes[off] != 0 {
                occupied.push((bytes, off));
            }
        }
    }
    expect_eq(
        f,
        "spill",
        "exactly one occupied slot after one insert",
        occupied.len(),
        1,
    );
    let Some(&(bytes, off)) = occupied.first() else {
        return;
    };
    expect_eq(f, "spill", "slot state byte is OCCUPIED (1)", bytes[off], 1);
    expect_eq(
        f,
        "spill",
        "slot ID word is `(gid << 14) | fid` little-endian",
        bytes[off + 1..off + 5].to_vec(),
        ((gid << 14) | fid).to_le_bytes().to_vec(),
    );
    expect(
        f,
        "spill",
        "stored key bytes differ from the plaintext key (AES-ECB wrapped)",
        &bytes[off + 5..off + 21] != file_key.as_bytes().as_slice(),
    );
    expect(
        f,
        "spill",
        "slot pad bytes 21..32 are zero",
        bytes[off + 21..off + 32].iter().all(|&x| x == 0),
    );

    // The wrap must round-trip under the right OTT key and *not* under a
    // different one.
    match spill.lookup(&mut meta, &mut nvm, now, gid, fid) {
        Ok((found, done)) => {
            expect_eq(
                f,
                "spill",
                "lookup recovers the inserted key",
                found,
                Some(file_key),
            );
            now = done;
        }
        Err(_) => expect(f, "spill", "lookup succeeds after insert", false),
    }
    let wrong = OttSpill::new(base, ott_bytes, &Key128::from_seed(0xBAD));
    if let Ok((found, _)) = wrong.lookup(&mut meta, &mut nvm, now, gid, fid) {
        expect(
            f,
            "spill",
            "a different OTT key does not recover the plaintext key",
            found != Some(file_key),
        );
    }

    // Raw media sanity: the stored line must be in the OTT region of the
    // physical device, not aliased over data pages.
    let media = nvm.peek_line(PhysAddr::new(base));
    expect_eq(
        f,
        "spill",
        "spill line is materialized on media",
        media.len(),
        LINE_BYTES,
    );
}

fn check_coverage_datapath(f: &mut Vec<Finding>) {
    // The Merkle-coverage invariant on the *live* datapath: drive counter
    // updates (with Osiris write-throughs), an explicit persist run, OTT
    // spill inserts, a full flush and a crash/rebuild through a real
    // MetadataSystem with the coverage oracle armed — the persist paths
    // self-check every line they push to NVM — and then independently
    // re-walk every covered leaf and every tree node from the media,
    // confirming each is reachable from the on-chip root.
    let ott_bytes = 512u64;
    let layout = MetadataLayout::new(16 * PAGE_BYTES as u64, ott_bytes);
    let base = layout.ott_base();
    let mut meta = MetadataSystem::new(layout, &SecurityConfig::default());
    meta.set_coverage_oracle(true);
    let mut nvm = NvmDevice::new(NvmConfig::default());

    let mut t = Cycle::ZERO;
    // Five update rounds per counter block: stop-loss 4 guarantees at
    // least one Osiris write-through per block under the armed oracle.
    for round in 0..5u8 {
        for p in 0..16u64 {
            let page = PageId::new(p);
            for (addr, fill) in [
                (meta.layout().mecb_addr(page), p as u8 + round + 1),
                (meta.layout().fecb_addr(page), p as u8 + round + 101),
            ] {
                let Ok(acc) = meta.write_block(&mut nvm, t, addr, [fill; 64]) else {
                    expect(f, "coverage", "counter write-back verifies", false);
                    return;
                };
                t = acc.done;
            }
        }
    }

    // Explicit persist run over every counter line (the persist_blocks
    // entry point the oracle guards).
    let addrs: Vec<LineAddr> = (0..16u64)
        .flat_map(|p| {
            [
                meta.layout().mecb_addr(PageId::new(p)),
                meta.layout().fecb_addr(PageId::new(p)),
            ]
        })
        .collect();
    match meta.persist_blocks(&mut nvm, t, &addrs) {
        Ok(done) => t = done,
        Err(_) => {
            expect(
                f,
                "coverage",
                "persist_blocks verifies every counter line",
                false,
            );
            return;
        }
    }

    // OTT spill traffic: spilled entries persist through the same guarded
    // paths and their lines are Merkle-covered leaves like any counter.
    let spill = OttSpill::new(base, ott_bytes, &Key128::from_seed(0xC0FE));
    for (gid, fid, seed) in [(1u32, 2u32, 11u64), (3, 4, 12)] {
        match spill.insert(&mut meta, &mut nvm, t, gid, fid, &Key128::from_seed(seed)) {
            Ok(done) => t = done,
            Err(_) => {
                expect(f, "coverage", "OTT spill insert persists cleanly", false);
                return;
            }
        }
    }
    t = meta.flush(&mut nvm, t);

    // Independent sweep: every covered leaf (counters *and* spill slots)
    // and every tree node must be reachable from the root as stored.
    let mut spill_leaves = 0usize;
    for leaf in meta.layout().leaves() {
        expect(
            f,
            "coverage",
            "covered leaf reachable from the root after flush",
            meta.check_coverage(&nvm, leaf).is_ok(),
        );
        if leaf.get() >= base && leaf.get() < meta.layout().merkle_base() {
            spill_leaves += 1;
        }
    }
    expect(
        f,
        "coverage",
        "sweep includes OTT-spill leaves",
        spill_leaves > 0,
    );
    for level in 0..meta.layout().merkle_levels() {
        for idx in 0..meta.layout().nodes_at(level) {
            let node = meta.layout().node_addr(level, idx);
            expect(
                f,
                "coverage",
                "tree node reachable from the root after flush",
                meta.check_coverage(&nvm, node).is_ok(),
            );
        }
    }

    // Crash and rebuild: the oracle's post-rebuild sweep runs inside
    // rebuild(); re-walk here too and confirm the data survived.
    meta.crash();
    meta.rebuild(&mut nvm);
    for leaf in meta.layout().leaves() {
        expect(
            f,
            "coverage",
            "covered leaf reachable from the rebuilt root",
            meta.check_coverage(&nvm, leaf).is_ok(),
        );
    }
    let probe = meta.layout().mecb_addr(PageId::new(7));
    match meta.read_block(&mut nvm, t, probe) {
        Ok((bytes, _)) => expect_eq(
            f,
            "coverage",
            "counter content survives flush + crash + rebuild",
            bytes,
            [7u8 + 5; 64],
        ),
        Err(_) => expect(f, "coverage", "post-rebuild counter read verifies", false),
    }

    // Teeth: a raw media tamper of a persisted leaf must break the walk.
    let victim = meta.layout().fecb_addr(PageId::new(0));
    meta.crash(); // drop trusted cached copies so the walk reads media
    let mut evil = nvm.peek_line(PhysAddr::new(victim.get()));
    evil[0] ^= 0x5a;
    nvm.poke_line(PhysAddr::new(victim.get()), &evil);
    expect(
        f,
        "coverage",
        "tampered media line is rejected by the coverage walk",
        meta.check_coverage(&nvm, victim).is_err(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_tree_satisfies_every_invariant() {
        let findings = check();
        assert!(findings.is_empty(), "{findings:#?}");
    }
}
