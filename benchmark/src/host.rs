//! The host block written into every result file: a number counts only
//! if it says which machine, toolchain and code produced it.

use std::process::Command;

use crate::json::Json;

/// Cores the OS lets this process run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Ranks every workload runs on: as many as there are cores, at least
/// two (message passing needs a partner) and at most four.
pub fn ranks() -> usize {
    cores().clamp(2, 4)
}

/// Why wall-clock *scaling* figures (speed-up over one rank) are not to
/// be believed on this host, if they are not: with fewer cores than
/// ranks the ranks time-share, and the figure measures the scheduler.
pub fn scaling_refusal() -> Option<String> {
    let (cores, ranks) = (cores(), ranks());
    (cores < ranks).then(|| format!("{cores} core(s) for {ranks} ranks: ranks time-share"))
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            let text = String::from_utf8_lossy(&out.stdout);
            text.lines().next().map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host block. `pinned` says whether this process pinned its ranks
/// one per CPU; `None` for a parent (`aa`) that only starts runs, whose
/// own result files say.
pub fn block(seed: u64, seconds: f64, pinned: Option<bool>) -> Json {
    Json::obj([
        ("available_parallelism", Json::Num(cores() as f64)),
        ("ranks", Json::Num(ranks() as f64)),
        (
            "ranks_pinned_one_per_cpu",
            pinned.map_or(Json::Null, Json::Bool),
        ),
        (
            "wall_scaling_refused",
            scaling_refusal().map_or(Json::Null, Json::str),
        ),
        // A driver checkout is not a git repository: "unknown" there.
        (
            "git_commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(first_line("rustc", &["--version"]))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
        ("seed", Json::str(seed.to_string())),
        ("seconds", Json::Num(seconds)),
    ])
}
