//! Child-process lifecycle: the `tristream-cli serve` daemon, `count`
//! jobs, peak-memory reads, and scratch directories that never outlive a
//! run.

use crate::trace::now;
use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::Duration;

/// `VmHWM` (peak resident set) of a live process, in KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// A running `tristream-cli serve` child. Dropping it kills the process
/// (if still running) and reaps it.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns `serve --addr 127.0.0.1:0` (plus `--state-dir` when given)
    /// and returns once its "listening on" line names the bound address.
    pub fn spawn(cli: &Path, state_dir: Option<&Path>) -> Result<Self, String> {
        let mut cmd = Command::new(cli);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        if let Some(dir) = state_dir {
            cmd.arg("--state-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", cli.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout is not piped".to_string());
        };
        let mut daemon = Self {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        loop {
            line.clear();
            match daemon.stdout.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("daemon exited before listening".to_string()),
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().split("listening on ").nth(1) {
                daemon.addr = addr
                    .parse()
                    .map_err(|e| format!("bad listening address {addr:?}: {e}"))?;
                return Ok(daemon);
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn peak_rss_kib(&self) -> Option<u64> {
        vm_hwm_kib(self.pid())
    }

    /// SIGKILL, then reap.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Waits for a daemon that was sent SHUTDOWN to drain and exit, killing
    /// it if it has not exited within `limit`. Returns whether it exited on
    /// its own with success.
    pub fn wait_drained(mut self, limit: Duration) -> bool {
        let mut rest = Vec::new();
        let _ = self.stdout.read_to_end(&mut rest);
        wait_or_kill(&mut self.child, limit).is_some_and(|s| s.success())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Polls `child` until it exits or `limit` passes; on timeout kills it and
/// returns `None`.
fn wait_or_kill(child: &mut Child, limit: Duration) -> Option<ExitStatus> {
    let deadline = now() + limit;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) if now() < deadline => std::thread::sleep(Duration::from_millis(2)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return None;
            }
        }
    }
}

/// What one finished `count` child produced.
#[derive(Debug)]
pub struct JobOutput {
    pub wall: Duration,
    pub stdout: String,
    pub success: bool,
    /// Last `VmHWM` read while the child ran, in KiB.
    pub peak_rss_kib: Option<u64>,
}

/// Runs `cli args…` to completion, timing it from spawn to exit and
/// sampling its peak resident set while it runs. Output goes to a file in
/// `scratch` so a full pipe can never stall the child.
pub fn run_job(
    cli: &Path,
    args: &[String],
    scratch: &Path,
    limit: Duration,
) -> Result<JobOutput, String> {
    let out_path = scratch.join("job.out");
    let out = fs::File::create(&out_path).map_err(|e| e.to_string())?;
    let start = now();
    let mut child = Command::new(cli)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", cli.display()))?;
    let mut peak = None;
    let mut polls = 0u32;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {}
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e.to_string());
            }
        }
        if start.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("job {args:?} exceeded {limit:?}"));
        }
        if polls.is_multiple_of(8) {
            peak = vm_hwm_kib(child.id()).or(peak);
        }
        polls += 1;
        std::thread::sleep(Duration::from_millis(1));
    };
    let wall = start.elapsed();
    let stdout = fs::read_to_string(&out_path).map_err(|e| e.to_string())?;
    Ok(JobOutput {
        wall,
        stdout,
        success: status.success(),
        peak_rss_kib: peak,
    })
}

/// A directory removed, with everything in it, when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(path: PathBuf) -> Result<Self, String> {
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}
