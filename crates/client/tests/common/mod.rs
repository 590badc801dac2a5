//! Shared helpers for tests that drive a live `dps-broker` subprocess.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Path of a workspace binary, resolved from the test executable's location
/// (`target/<profile>/deps/this_test` → `target/<profile>/<name>`). The
/// binaries are built by the same `cargo test` invocation that runs this.
pub fn bin(name: &str) -> PathBuf {
    let mut p = std::env::current_exe().expect("test binary path");
    p.pop();
    if p.ends_with("deps") {
        p.pop();
    }
    let bin = p.join(name);
    assert!(
        bin.exists(),
        "{} not found — run via `cargo test` at the workspace root so all bins are built",
        bin.display()
    );
    bin
}

/// Minimal scoped temp dir (std-only; no external crates).
pub struct TempDir {
    pub path: PathBuf,
}

impl TempDir {
    pub fn new() -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "dps-e2e-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("temp dir");
        TempDir { path }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A broker subprocess that is killed (and its socket removed) on drop.
pub struct BrokerProc {
    pub child: Child,
    pub socket: String,
    _dir: TempDir,
}

impl BrokerProc {
    pub fn start(seed: u64) -> BrokerProc {
        let dir = TempDir::new();
        let socket = dir.path.join("dps.sock").display().to_string();
        let child = Command::new(bin("dps-broker"))
            .args(["--socket", &socket, "--seed", &seed.to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("dps-broker starts");
        // Wait until a connect succeeds, not for the socket file: `bind(2)`
        // creates the file before `listen(2)` has run, and a connect in
        // between is refused. The probe hangs up at once; the broker logs a
        // session that came and went.
        let deadline = Instant::now() + Duration::from_secs(10);
        while std::os::unix::net::UnixStream::connect(&socket).is_err() {
            assert!(
                Instant::now() < deadline,
                "broker never listened on {socket}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        BrokerProc {
            child,
            socket,
            _dir: dir,
        }
    }

    /// Panics if the broker died (e.g. panicked) since start.
    pub fn assert_alive(&mut self) {
        assert!(
            self.child.try_wait().expect("try_wait").is_none(),
            "broker process exited early"
        );
    }
}

impl Drop for BrokerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
