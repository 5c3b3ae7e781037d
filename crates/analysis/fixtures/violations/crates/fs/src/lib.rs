//! Seeded-violation fixture: a fake filesystem-image loader that trips
//! `no-panic` twice (crafted image bytes pass the keyless section digest,
//! so a bad inode or name must surface as a typed `SnapError`, never
//! abort the restore). Never compiled.
//! A doc-comment names.get(name).expect("x") here must NOT be flagged.
#![forbid(unsafe_code)]

pub fn load_inode(names: &Names, name: &str, raw: Option<u32>) -> u32 {
    let ino = raw.unwrap();
    names.get(name).expect("namespace consistent");
    ino
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_panic() {
        Some(1u32).unwrap();
    }
}
