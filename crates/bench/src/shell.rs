//! A scriptable command shell over the simulated machine — the backing
//! engine of the `fsenctl` binary.
//!
//! Commands take one line each; output is returned as text so the shell
//! is equally usable interactively, from scripts, and from tests.

use fsencr::machine::{Machine, MachineOpts, MapId, SecurityMode};
use fsencr::security;
use fsencr_fs::{AccessKind, FileHandle, GroupId, Mode, UserId};

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The shell: a machine plus the open-file table. A `BTreeMap` keeps any
/// listing of open files in deterministic (sorted) order.
pub struct Shell {
    machine: Machine,
    open: BTreeMap<String, (FileHandle, MapId)>,
}

impl std::fmt::Debug for Shell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shell")
            .field("open_files", &self.open.len())
            .finish_non_exhaustive()
    }
}

/// Outcome of one command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShellOutcome {
    /// Text to print.
    Output(String),
    /// The user asked to leave.
    Quit,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|e| format!("bad number {s}: {e}"))
    } else {
        s.parse().map_err(|e| format!("bad number {s}: {e}"))
    }
}

fn parse_usize(s: &str) -> Result<usize, String> {
    usize::try_from(parse_u64(s)?).map_err(|e| format!("bad number {s}: {e}"))
}

/// Parses a user ID, which must fit 32 bits.
fn parse_uid(s: &str) -> Result<UserId, String> {
    u32::try_from(parse_u64(s)?)
        .map(UserId::new)
        .map_err(|_| format!("user ID {s} exceeds 32 bits"))
}

/// Parses a group ID, which the FECB holds in 18 bits.
fn parse_gid(s: &str) -> Result<GroupId, String> {
    match u32::try_from(parse_u64(s)?) {
        Ok(gid) if gid <= GroupId::MAX => Ok(GroupId::new(gid)),
        _ => Err(format!("group ID {s} exceeds 18 bits")),
    }
}

/// Parses an octal mode, which may use only the nine rwx bits.
fn parse_mode(s: &str) -> Result<Mode, String> {
    match u16::from_str_radix(s, 8) {
        Ok(bits) if bits <= 0o777 => Ok(Mode::new(bits)),
        Ok(_) => Err(format!("mode {s} uses bits beyond 0o777")),
        Err(e) => Err(format!("bad mode: {e}")),
    }
}

const HELP: &str = "\
commands:
  create <name> <uid> <gid> <octal-mode> [passphrase]   create a file
  open <name> <uid> [passphrase]                        open + mmap
  close <name>                                          munmap
  write <name> <offset> <text>                          write bytes
  read <name> <offset> <len>                            read bytes
  persist <name> <offset> <len>                         clwb + fence
  msync <name>                                          durable sync
  chmod <name> <octal-mode> <uid>                       change mode
  unlink <name> <uid>                                   delete + shred
  copy <src> <dst> <uid> <src-pass> <dst-pass>          copy through CPU
  rekey <name> <uid> <old-pass> <new-pass>              rotate file key
  ls | stat <name> | stats | mode                       inspect
  scan <text>                                           attacker media scan
  crash | recover | flush                               lifecycle
  lock | unlock                                         file-engine auth
  profile on [span-cap] | profile off                   cycle attribution
  profile | profile json                                show attribution
  help | quit";

impl Shell {
    /// Creates a shell around a fresh machine.
    pub fn new(mode: SecurityMode, opts: MachineOpts) -> Self {
        Shell {
            machine: Machine::new(opts, mode),
            open: BTreeMap::new(),
        }
    }

    /// The underlying machine (tests peek at it).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    fn handle_of(&self, name: &str) -> Result<(FileHandle, MapId), String> {
        self.open
            .get(name)
            .copied()
            .ok_or_else(|| format!("{name}: not open (use `open` first)"))
    }

    /// Executes one command line.
    pub fn exec(&mut self, line: &str) -> ShellOutcome {
        match self.try_exec(line) {
            Ok(out) => out,
            Err(msg) => ShellOutcome::Output(format!("error: {msg}")),
        }
    }

    fn try_exec(&mut self, line: &str) -> Result<ShellOutcome, String> {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return Ok(ShellOutcome::Output(String::new()));
        };
        let args: Vec<&str> = parts.collect();
        let out = match (cmd, args.as_slice()) {
            ("help", _) => HELP.to_string(),
            ("quit" | "exit", _) => return Ok(ShellOutcome::Quit),
            ("mode", _) => format!("{}", self.machine.mode()),

            ("create", [name, uid, gid, mode, rest @ ..]) => {
                let user = parse_uid(uid)?;
                let group = parse_gid(gid)?;
                let mode = parse_mode(mode)?;
                let pass = rest.first().copied();
                let h = self
                    .machine
                    .create(user, group, name, mode, pass)
                    .map_err(|e| e.to_string())?;
                let map = self.machine.mmap(&h).map_err(|e| e.to_string())?;
                self.open.insert(name.to_string(), (h, map));
                format!(
                    "created {name} ({}, {}, {})",
                    h.ino,
                    h.group,
                    if h.fek.is_some() {
                        "encrypted"
                    } else {
                        "plain"
                    }
                )
            }
            ("open", [name, uid, rest @ ..]) => {
                let user = parse_uid(uid)?;
                let pass = rest.first().copied();
                let h = self
                    .machine
                    .open(user, &[], name, AccessKind::Write, pass)
                    .map_err(|e| e.to_string())?;
                let map = self.machine.mmap(&h).map_err(|e| e.to_string())?;
                self.open.insert(name.to_string(), (h, map));
                format!("opened {name} ({})", h.ino)
            }
            ("close", [name]) => {
                let (_, map) = self.handle_of(name)?;
                self.machine.munmap(0, map).map_err(|e| e.to_string())?;
                self.open.remove(*name);
                format!("closed {name}")
            }
            ("write", [name, offset, text @ ..]) if !text.is_empty() => {
                let (_, map) = self.handle_of(name)?;
                let offset = parse_u64(offset)?;
                let data = text.join(" ");
                self.machine
                    .write(0, map, offset, data.as_bytes())
                    .map_err(|e| e.to_string())?;
                format!("wrote {} bytes at {offset}", data.len())
            }
            ("read", [name, offset, len]) => {
                let (_, map) = self.handle_of(name)?;
                let offset = parse_u64(offset)?;
                let len = parse_usize(len)?;
                let mut buf = vec![0u8; len.min(4096)];
                self.machine
                    .read(0, map, offset, &mut buf)
                    .map_err(|e| e.to_string())?;
                match std::str::from_utf8(&buf) {
                    Ok(s) if s.chars().all(|c| !c.is_control() || c == '\n') => s.to_string(),
                    _ => {
                        let mut hex = String::new();
                        for b in &buf {
                            let _ = write!(hex, "{b:02x}");
                        }
                        hex
                    }
                }
            }
            ("persist", [name, offset, len]) => {
                let (_, map) = self.handle_of(name)?;
                self.machine
                    .persist(0, map, parse_u64(offset)?, parse_u64(len)?)
                    .map_err(|e| e.to_string())?;
                "persisted".to_string()
            }
            ("msync", [name]) => {
                let (_, map) = self.handle_of(name)?;
                self.machine
                    .msync(0, map, 0, 0)
                    .map_err(|e| e.to_string())?;
                "synced".to_string()
            }
            ("chmod", [name, mode, uid]) => {
                let user = parse_uid(uid)?;
                let mode = parse_mode(mode)?;
                self.machine
                    .chmod(user, name, mode)
                    .map_err(|e| e.to_string())?;
                format!("{name} -> {mode}")
            }
            ("unlink", [name, uid]) => {
                let user = parse_uid(uid)?;
                self.open.remove(*name);
                self.machine.unlink(user, name).map_err(|e| e.to_string())?;
                format!("unlinked and shredded {name}")
            }
            ("copy", [src, dst, uid, src_pass, dst_pass]) => {
                let user = parse_uid(uid)?;
                self.machine
                    .copy_file(0, user, &[], src, dst, Some(src_pass), Some(dst_pass))
                    .map_err(|e| e.to_string())?;
                format!("copied {src} -> {dst}")
            }
            ("rekey", [name, uid, old, new]) => {
                let user = parse_uid(uid)?;
                self.machine
                    .rekey(user, name, old, new)
                    .map_err(|e| e.to_string())?;
                format!("rotated key of {name}")
            }
            ("ls", _) => {
                let mut out = String::new();
                for (name, ino) in self.machine.fs().list() {
                    let _ = writeln!(out, "{ino}  {name}");
                }
                out.trim_end().to_string()
            }
            ("stat", [name]) => {
                let inode = self
                    .machine
                    .fs()
                    .stat(name)
                    .ok_or_else(|| format!("{name}: no such file"))?;
                format!(
                    "{} owner={} group={} mode={} size={} encrypted={}",
                    inode.ino(),
                    inode.owner(),
                    inode.group(),
                    inode.mode(),
                    inode.size(),
                    inode.is_encrypted()
                )
            }
            ("stats", _) => {
                let s = self.machine.measurement_snapshot();
                format!(
                    "cycles={} nvm_reads={} nvm_writes={} meta_hit={:.1}% ott={}h/{}m file_accesses={} read_p50={} read_p99={}",
                    s.cycles,
                    s.nvm_reads,
                    s.nvm_writes,
                    100.0 * s.meta_hit_rate(),
                    s.ott_hits,
                    s.ott_misses,
                    s.file_accesses,
                    s.read_latency.percentile(0.5),
                    s.read_latency.percentile(0.99)
                )
            }
            ("scan", text @ [_, ..]) => {
                let needle = text.join(" ");
                format!(
                    "plaintext `{needle}` on media: {}",
                    security::media_contains(&self.machine, needle.as_bytes())
                )
            }
            ("crash", _) => {
                self.open.clear();
                self.machine.crash();
                "crashed (volatile state lost; mappings closed)".to_string()
            }
            ("recover", _) => {
                let r = self.machine.recover();
                format!(
                    "recovered: {} clean, {} repaired, {} unrecoverable",
                    r.clean, r.repaired, r.unrecoverable
                )
            }
            ("flush", _) => {
                self.machine.shutdown_flush().map_err(|e| e.to_string())?;
                "flushed".to_string()
            }
            ("lock", _) => {
                self.machine.controller_mut().lock_file_engine();
                "file engine locked".to_string()
            }
            ("unlock", _) => {
                self.machine.controller_mut().unlock_file_engine();
                "file engine unlocked".to_string()
            }
            ("profile", ["on", rest @ ..]) => {
                let cap = match rest.first() {
                    Some(v) => parse_usize(v)?,
                    None => 4096,
                };
                self.machine.enable_observer(cap);
                format!("observer enabled (span capacity {cap})")
            }
            ("profile", ["off"]) => {
                self.machine.controller_mut().disable_observer();
                "observer disabled".to_string()
            }
            ("profile", ["json"]) => self.machine.observer().to_json(),
            ("profile", []) => {
                let obs = self.machine.observer();
                if !obs.is_enabled() {
                    "observer disabled (use `profile on`)".to_string()
                } else {
                    let mut out = String::new();
                    for (k, v) in obs.metrics() {
                        let _ = writeln!(out, "{k:<32} {v}");
                    }
                    let _ = write!(
                        out,
                        "spans: {} recorded, {} dropped",
                        obs.spans().count(),
                        obs.spans_dropped()
                    );
                    out
                }
            }
            _ => format!("unknown or malformed command: {line} (try `help`)"),
        };
        Ok(ShellOutcome::Output(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shell() -> Shell {
        Shell::new(SecurityMode::FsEncr, MachineOpts::small_test())
    }

    fn out(shell: &mut Shell, cmd: &str) -> String {
        match shell.exec(cmd) {
            ShellOutcome::Output(s) => s,
            ShellOutcome::Quit => panic!("unexpected quit"),
        }
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut sh = shell();
        let created = out(&mut sh, "create notes 1 1 600 secret-pw");
        assert!(created.contains("encrypted"), "{created}");
        out(&mut sh, "write notes 0 hello shell");
        assert_eq!(out(&mut sh, "read notes 0 11"), "hello shell");
        assert_eq!(out(&mut sh, "persist notes 0 11"), "persisted");
    }

    #[test]
    fn scan_and_lifecycle() {
        let mut sh = shell();
        out(&mut sh, "create f 1 1 600 pw");
        out(&mut sh, "write f 0 SUPERSECRET");
        out(&mut sh, "persist f 0 11");
        out(&mut sh, "flush");
        assert!(out(&mut sh, "scan SUPERSECRET").ends_with("false"));
        let rec = out(&mut sh, "recover");
        assert!(rec.contains("0 unrecoverable"), "{rec}");
    }

    #[test]
    fn crash_closes_mappings() {
        let mut sh = shell();
        out(&mut sh, "create f 1 1 600 pw");
        out(&mut sh, "write f 0 x");
        out(&mut sh, "crash");
        let err = out(&mut sh, "write f 0 y");
        assert!(err.contains("not open"), "{err}");
        // reopen after recovery
        out(&mut sh, "recover");
        let opened = out(&mut sh, "open f 1 pw");
        assert!(opened.contains("opened"), "{opened}");
    }

    #[test]
    fn permission_errors_surface() {
        let mut sh = shell();
        out(&mut sh, "create priv 1 1 600 pw");
        let err = out(&mut sh, "open priv 2 pw");
        assert!(err.contains("permission denied"), "{err}");
        let err = out(&mut sh, "open priv 1 wrong");
        assert!(err.contains("passphrase"), "{err}");
    }

    #[test]
    fn ls_stat_stats_mode() {
        let mut sh = shell();
        out(&mut sh, "create a 1 1 640 pw");
        out(&mut sh, "create b 1 2 600");
        let ls = out(&mut sh, "ls");
        assert!(ls.contains("a") && ls.contains("b"));
        let stat = out(&mut sh, "stat a");
        assert!(
            stat.contains("mode=640") && stat.contains("encrypted=true"),
            "{stat}"
        );
        assert!(out(&mut sh, "stats").contains("cycles="));
        assert_eq!(out(&mut sh, "mode"), "fsencr");
    }

    #[test]
    fn copy_and_rekey() {
        let mut sh = shell();
        out(&mut sh, "create src 1 1 600 p1");
        out(&mut sh, "write src 0 copy me");
        out(&mut sh, "persist src 0 7");
        let copied = out(&mut sh, "copy src dst 1 p1 p2");
        assert!(copied.contains("copied"), "{copied}");
        out(&mut sh, "open dst 1 p2");
        assert_eq!(out(&mut sh, "read dst 0 7"), "copy me");
        let rk = out(&mut sh, "rekey src 1 p1 p3");
        assert!(rk.contains("rotated"), "{rk}");
    }

    #[test]
    fn out_of_range_numbers_are_error_lines() {
        let mut sh = shell();
        let err = out(&mut sh, "create f 1 999999 600");
        assert!(
            err.starts_with("error:") && err.contains("18 bits"),
            "{err}"
        );
        let err = out(&mut sh, "create f 1 1 7777");
        assert!(err.starts_with("error:") && err.contains("0o777"), "{err}");
        // 2^32 + 1 and 2^32 must not wrap to uid 1 and group 0.
        let err = out(&mut sh, "create f 4294967297 1 600");
        assert!(
            err.starts_with("error:") && err.contains("32 bits"),
            "{err}"
        );
        let err = out(&mut sh, "create f 1 4294967296 600");
        assert!(
            err.starts_with("error:") && err.contains("18 bits"),
            "{err}"
        );
        assert_eq!(out(&mut sh, "ls"), "", "no file was created");
        out(&mut sh, "create f 1 1 600 pw");
        let err = out(&mut sh, "chmod f 1000 1");
        assert!(err.starts_with("error:") && err.contains("0o777"), "{err}");
        let err = out(&mut sh, "unlink f 4294967297");
        assert!(
            err.starts_with("error:") && err.contains("32 bits"),
            "{err}"
        );
        assert!(out(&mut sh, "stat f").contains("mode=600"));
    }

    #[test]
    fn out_of_range_offsets_are_error_lines() {
        let mut sh = shell();
        out(&mut sh, "create f 1 1 600 pw");
        // `offset + len` wraps past u64::MAX, and 2^40 bytes fit in u64
        // but not in the mapping: each is refused before any page is
        // faulted in or any line walked.
        for cmd in [
            "write f 18446744073709551615 hi",
            "read f 18446744073709551615 2",
            "persist f 0 1099511627776",
        ] {
            let err = out(&mut sh, cmd);
            assert!(
                err.starts_with("error:") && err.contains("beyond"),
                "{cmd}: {err}"
            );
        }
        assert!(out(&mut sh, "write f 0 hi").contains("wrote 2"));
        assert_eq!(out(&mut sh, "read f 0 2"), "hi");
    }

    #[test]
    fn lock_unlock_and_unknown() {
        let mut sh = shell();
        assert!(out(&mut sh, "lock").contains("locked"));
        assert!(out(&mut sh, "unlock").contains("unlocked"));
        assert!(out(&mut sh, "frobnicate").contains("unknown"));
        assert!(matches!(sh.exec("quit"), ShellOutcome::Quit));
    }

    #[test]
    fn profile_command_toggles_attribution() {
        let mut sh = shell();
        assert!(out(&mut sh, "profile").contains("disabled"));
        assert!(out(&mut sh, "profile on 64").contains("span capacity 64"));
        out(&mut sh, "create f 1 1 600 pw");
        out(&mut sh, "write f 0 attribution please");
        out(&mut sh, "persist f 0 18");
        let text = out(&mut sh, "profile");
        assert!(text.contains("ctrl/write/total_cycles"), "{text}");
        assert!(text.contains("spans:"), "{text}");
        let json = out(&mut sh, "profile json");
        assert!(json.contains("\"metrics\""), "{json}");
        assert!(out(&mut sh, "profile off").contains("disabled"));
    }

    #[test]
    fn flush_reports_an_oversized_filesystem_image() {
        // Long names outgrow the reserved image pages: `flush` answers
        // with an error line instead of aborting the shell.
        let mut sh = shell();
        for i in 0..1000 {
            let created = out(&mut sh, &format!("create {i:0>244} 1 1 600"));
            assert!(created.starts_with("created"), "{created}");
        }
        assert_eq!(
            out(&mut sh, "flush"),
            "error: no space left in persistent region"
        );
        assert!(out(&mut sh, "ls").contains(&format!("{:0>244}", 999)));
    }

    #[test]
    fn unlink_shreds() {
        let mut sh = shell();
        out(&mut sh, "create t 1 1 600 pw");
        out(&mut sh, "write t 0 GONE-SOON");
        out(&mut sh, "persist t 0 9");
        out(&mut sh, "unlink t 1");
        assert!(out(&mut sh, "scan GONE-SOON").ends_with("false"));
        assert!(out(&mut sh, "stat t").contains("no such file"));
    }
}
