//! Result persistence: JSON files under `target/experiments/` so runs can be
//! diffed and plotted outside the harness.

use std::ffi::OsString;
use std::path::{Path, PathBuf};

use serde::Serialize;

/// The `target` directory results go under: `CARGO_TARGET_DIR` if set, else
/// `<cwd>/target` when `cwd` is the root of a checkout of this workspace —
/// the checkout being *run*, so two checkouts compared side by side each keep
/// their own results — else the workspace this binary was compiled in
/// (benches and tests run from their package directory).
fn target_dir(env: Option<OsString>, cwd: &Path) -> PathBuf {
    if let Some(dir) = env {
        return PathBuf::from(dir);
    }
    if cwd.join("crates/experiments/Cargo.toml").is_file() {
        return cwd.join("target");
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target")
}

/// Writes `rows` as pretty JSON to `target/experiments/<name>.json`, best-effort
/// (failures are reported to stderr but never abort an experiment).
pub fn write_json<T: Serialize>(name: &str, rows: &T) {
    let dir = target_dir(std::env::var_os("CARGO_TARGET_DIR"), Path::new("")).join("experiments");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(rows) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("cannot write {}: {e}", path.display());
            } else {
                println!("(results saved to {})", path.display());
            }
        }
        Err(e) => eprintln!("cannot serialize {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_land_in_the_checkout_that_runs() {
        let built_in = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target");
        let tmp = std::env::temp_dir().join(format!("dps-output-{}", std::process::id()));
        // A directory that is no checkout of this workspace: where we built.
        std::fs::create_dir_all(&tmp).unwrap();
        assert_eq!(target_dir(None, &tmp), built_in);
        // A second checkout's root: its own target, not the building tree's.
        std::fs::create_dir_all(tmp.join("crates/experiments")).unwrap();
        std::fs::write(tmp.join("crates/experiments/Cargo.toml"), "").unwrap();
        assert_eq!(target_dir(None, &tmp), tmp.join("target"));
        // One of its crate directories is not the root.
        assert_eq!(target_dir(None, &tmp.join("crates/experiments")), built_in);
        // The environment wins over both.
        assert_eq!(
            target_dir(Some("/elsewhere".into()), &tmp),
            PathBuf::from("/elsewhere")
        );
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
