//! The audited-exception allowlist, shared by every source pass.
//!
//! One file, one format: `rule path needle -- justification` per line,
//! where `rule` may name the lint rule (`hot-alloc`) or a confinement
//! rule (`plaintext-confinement`, `pad-site`,
//! `debug-reach`, `confinement-reach`). The lint pass and the
//! item-graph confinement pass consume the *same* parsed instance, so
//! the stale-entry check is global: an entry that matches no finding in
//! *any* pass becomes an `allowlist-unused` finding and fails the gate.

use crate::Finding;

/// One audited exception from `allowlist.txt`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// The rule being excepted.
    pub rule: String,
    /// `/`-separated path relative to the analysis root.
    pub path: String,
    /// Substring that must appear in the finding's message.
    pub needle: String,
    /// 1-based line of the entry in the allowlist file.
    pub line_no: u32,
}

/// The parsed allowlist, tracking which entries actually fired.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
    used: Vec<bool>,
}

impl Allowlist {
    /// Parses the `rule path needle [-- justification]` line format.
    /// Blank lines and `#` comments are ignored.
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let (Some(rule), Some(path), Some(rest)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let needle = rest.split(" -- ").next().unwrap_or(rest).trim();
            entries.push(AllowEntry {
                rule: rule.to_string(),
                path: path.to_string(),
                needle: needle.to_string(),
                line_no: (idx + 1) as u32,
            });
        }
        let used = vec![false; entries.len()];
        Allowlist { entries, used }
    }

    /// Whether `finding` is covered by an entry; marks the entry used.
    pub fn suppresses(&mut self, finding: &Finding) -> bool {
        for (entry, used) in self.entries.iter().zip(self.used.iter_mut()) {
            if entry.rule == finding.rule
                && entry.path == finding.path
                && finding.message.contains(&entry.needle)
            {
                *used = true;
                return true;
            }
        }
        false
    }

    /// Findings for entries that never matched anything. Call this once,
    /// after *every* pass that shares the instance has run.
    pub fn unused_findings(&self, allowlist_path: &str) -> Vec<Finding> {
        self.entries
            .iter()
            .zip(self.used.iter())
            .filter(|(_, used)| !**used)
            .map(|(entry, _)| Finding {
                path: allowlist_path.to_string(),
                line: entry.line_no,
                rule: "allowlist-unused",
                message: format!(
                    "allowlist entry `{} {} {}` matched no finding; delete it",
                    entry.rule, entry.path, entry.needle
                ),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_instance_tracks_usage_across_rules() {
        let mut allow = Allowlist::parse(
            "# comment\n\
             hot-alloc crates/secmem/src/ecc.rs Vec::new -- audited\n\
             plaintext-confinement crates/secmem/src/metadata.rs persist_one -- counters only\n\
             pad-site crates/x/src/y.rs never-fires -- stale\n",
        );
        let lint_hit = Finding {
            path: "crates/secmem/src/ecc.rs".to_string(),
            line: 3,
            rule: "hot-alloc",
            message: "bare `Vec::new()` in allocation-free hot-path file".to_string(),
        };
        let confine_hit = Finding {
            path: "crates/secmem/src/metadata.rs".to_string(),
            line: 890,
            rule: "plaintext-confinement",
            message: "raw NVM write in `MetadataSystem::persist_one`".to_string(),
        };
        assert!(allow.suppresses(&lint_hit));
        assert!(allow.suppresses(&confine_hit));
        let unused = allow.unused_findings("allowlist.txt");
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].rule, "allowlist-unused");
        assert_eq!(unused[0].line, 4);
    }
}
