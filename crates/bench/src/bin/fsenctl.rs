//! `fsenctl` — an interactive/scriptable shell over the simulated FsEncr
//! machine.
//!
//! ```sh
//! cargo run --release -p fsencr-bench --bin fsenctl [mode]
//! echo -e "create f 1 1 600 pw\nwrite f 0 hi\nread f 0 2" | fsenctl fsencr
//! ```
//!
//! `mode` is one of `dax`, `baseline`, `fsencr` (default), `software`.

use std::io::{BufRead, Write};

use fsencr::machine::{MachineOpts, SecurityMode};
use fsencr_bench::shell::{Shell, ShellOutcome};

fn main() {
    let mode = match std::env::args().nth(1).as_deref() {
        None | Some("fsencr") => SecurityMode::FsEncr,
        Some("dax") => SecurityMode::Unencrypted,
        Some("baseline") => SecurityMode::MemoryOnly,
        Some("software") => SecurityMode::Software,
        Some(other) => {
            eprintln!("unknown mode {other}: use dax|baseline|fsencr|software");
            std::process::exit(2);
        }
    };
    let opts = MachineOpts {
        general_bytes: 8 << 20,
        pmem_bytes: 16 << 20,
        ..MachineOpts::small_test()
    };
    let mut shell = Shell::new(mode, opts);

    let interactive = std::env::var_os("FSENCTL_BATCH").is_none();
    let stdin = std::io::stdin();
    if interactive {
        println!("fsenctl — simulated FsEncr machine ({mode}); `help` for commands");
    }
    loop {
        if interactive {
            print!("fsenctl> ");
            let _ = std::io::stdout().flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        match shell.exec(line.trim()) {
            ShellOutcome::Quit => break,
            ShellOutcome::Output(out) => {
                if !out.is_empty() {
                    println!("{out}");
                }
            }
        }
    }
}
