//! The closed-loop client: one `pdce serve --jobs 1` child over stdio,
//! one request in flight.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// A running server process.
pub struct ServerProcess {
    child: Child,
    stdin: Option<BufWriter<ChildStdin>>,
    stdout: BufReader<ChildStdout>,
    buf: String,
}

impl ServerProcess {
    /// Starts `bin serve --jobs 1 --cache <cache> --cache-bytes <n>` and
    /// waits for its first `ping` reply.
    ///
    /// The server gets one malloc arena: it spawns a worker thread per
    /// batch, and with glibc's default arenas its peak RSS depended on
    /// which arena each worker landed in.
    pub fn spawn(bin: &Path, cache: &Path, cache_bytes: u64) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--jobs", "1", "--cache"])
            .arg(cache)
            .args(["--cache-bytes", &cache_bytes.to_string()])
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start `{}`: {e}", bin.display()))?;
        let stdin = Some(BufWriter::new(child.stdin.take().expect("piped stdin")));
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = ServerProcess {
            child,
            stdin,
            stdout,
            buf: String::new(),
        };
        let pong = server.round_trip("{\"op\":\"ping\",\"id\":\"ping\"}")?;
        if !pong.contains("\"pong\":true") {
            return Err(format!("unexpected ping reply: {pong}"));
        }
        Ok(server)
    }

    /// The server's process id (for `/proc` readings).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Writes one request line and reads its response line.
    pub fn round_trip(&mut self, line: &str) -> Result<&str, String> {
        let io = |e: std::io::Error| format!("server i/o: {e}");
        let stdin = self.stdin.as_mut().ok_or("server input already closed")?;
        stdin.write_all(line.as_bytes()).map_err(io)?;
        stdin.write_all(b"\n").map_err(io)?;
        stdin.flush().map_err(io)?;
        self.buf.clear();
        let n = self.stdout.read_line(&mut self.buf).map_err(io)?;
        if n == 0 {
            return Err("server closed its output".to_string());
        }
        Ok(self.buf.trim_end_matches('\n'))
    }

    /// Sends `shutdown`, then waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let ack = self.round_trip("{\"op\":\"shutdown\"}")?.to_string();
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !ack.contains("\"shutdown\":true") || !status.success() {
            return Err(format!("unclean server shutdown ({status}): {ack}"));
        }
        Ok(())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path:
        // never leave it behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
