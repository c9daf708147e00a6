//! The serving shell: bounded worker pool, admission queue, backpressure
//! and the line-delimited connection loop.
//!
//! Admission is a bounded FIFO. Once the queue holds `queue_cap` pending
//! requests, further submissions are shed immediately with the typed
//! `overloaded` error and a `retry_after_ms` hint — the queue never grows
//! without bound and a slow worker pool cannot wedge accepting threads.
//!
//! Time spent queued counts against a request's deadline: the worker
//! shrinks `deadline_ms` by the queue wait before handling, so a request
//! that waited out its whole deadline in the queue degrades (measured
//! kinds) or fails typed (static kinds) instead of running anyway.

use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use crate::json;
use crate::oracle::{Oracle, OracleConfig};
use crate::wire::{ErrorCode, Request, Response};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads; 0 means one per host thread
    /// ([`std::thread::available_parallelism`]).
    pub workers: usize,
    /// Pending requests admitted before shedding load.
    pub queue_cap: usize,
    /// The `retry_after_ms` hint attached to shed requests.
    pub retry_after_ms: u64,
    /// Largest request frame (bytes) a connection accepts.
    pub max_frame_bytes: usize,
    /// Oracle knobs.
    pub oracle: OracleConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_cap: 64,
            retry_after_ms: 25,
            max_frame_bytes: 4 << 20,
            oracle: OracleConfig::default(),
        }
    }
}

struct Job {
    req: Request,
    admitted: Instant,
    reply: mpsc::Sender<Response>,
}

struct QueueState {
    jobs: std::collections::VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    oracle: Oracle,
    queue: Mutex<QueueState>,
    cv: Condvar,
    cfg: ServerConfig,
}

/// The running service: an oracle behind a bounded worker pool.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.workers.len())
            .field("cfg", &self.shared.cfg)
            .finish()
    }
}

impl Server {
    /// Starts the worker pool.
    pub fn start(cfg: ServerConfig) -> Self {
        let workers = if cfg.workers == 0 {
            thread::available_parallelism().map_or(1, usize::from)
        } else {
            cfg.workers
        };
        let shared = Arc::new(Shared {
            oracle: Oracle::new(cfg.oracle),
            queue: Mutex::new(QueueState {
                jobs: std::collections::VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            cfg,
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Server {
            shared,
            workers: handles,
        }
    }

    /// The oracle, for stats inspection in tests and the soak harness.
    pub fn oracle(&self) -> &Oracle {
        &self.shared.oracle
    }

    /// The config the server was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.shared.cfg
    }

    /// Submits one request and blocks for its response. Sheds immediately
    /// with the typed `overloaded` error when the admission queue is full.
    pub fn submit(&self, req: Request) -> Response {
        let id = req.id;
        let (tx, rx) = mpsc::channel();
        {
            let mut queue = self.shared.queue.lock().expect("queue lock poisoned");
            if queue.shutdown {
                return Response::error(id, ErrorCode::Io, "server shutting down");
            }
            if queue.jobs.len() >= self.shared.cfg.queue_cap {
                return Response::overloaded(id, self.shared.cfg.retry_after_ms);
            }
            queue.jobs.push_back(Job {
                req,
                admitted: Instant::now(),
                reply: tx,
            });
        }
        self.shared.cv.notify_one();
        rx.recv()
            .unwrap_or_else(|_| Response::error(id, ErrorCode::Io, "worker dropped the request"))
    }

    /// Serves one line-delimited JSON connection until EOF. Malformed
    /// frames get a typed `bad_request` response and the connection stays
    /// up; a write failure (client went away mid-request) ends the loop
    /// quietly. This is the same loop for TCP connections and stdio.
    pub fn serve_connection<R: BufRead, W: Write>(&self, reader: R, mut writer: W) {
        for line in reader.split(b'\n') {
            let Ok(raw) = line else {
                return; // read error: client is gone
            };
            let response = self.frame_response(&raw);
            let mut text = response.to_json().render();
            text.push('\n');
            if writer.write_all(text.as_bytes()).is_err() || writer.flush().is_err() {
                return; // mid-request disconnect
            }
        }
    }

    /// Parses and handles one raw frame; every failure mode is a typed
    /// response, never a panic or a dropped connection.
    fn frame_response(&self, raw: &[u8]) -> Response {
        if raw.len() > self.shared.cfg.max_frame_bytes {
            return Response::error(
                0,
                ErrorCode::BadRequest,
                format!(
                    "frame of {} bytes exceeds the {}-byte cap",
                    raw.len(),
                    self.shared.cfg.max_frame_bytes
                ),
            );
        }
        let Ok(text) = std::str::from_utf8(raw) else {
            return Response::error(0, ErrorCode::BadRequest, "frame is not utf-8");
        };
        if text.trim().is_empty() {
            return Response::error(0, ErrorCode::BadRequest, "empty frame");
        }
        let parsed = match json::parse(text) {
            Ok(v) => v,
            Err(e) => return Response::error(0, ErrorCode::BadRequest, format!("bad json: {e}")),
        };
        let req = match Request::from_json(&parsed) {
            Ok(r) => r,
            Err(e) => {
                let id = parsed.get("id").and_then(json::Json::as_u64).unwrap_or(0);
                return Response::error(id, ErrorCode::BadRequest, format!("bad request: {e}"));
            }
        };
        self.submit(req)
    }

    /// Accept loop: serves every TCP connection on `listener`, one thread
    /// per connection, until the process exits.
    pub fn serve_tcp(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        for stream in listener.incoming() {
            let stream = stream?;
            let server = Arc::clone(self);
            thread::spawn(move || {
                let reader = match stream.try_clone() {
                    Ok(s) => std::io::BufReader::new(s),
                    Err(_) => return,
                };
                server.serve_connection(reader, stream);
            });
        }
        Ok(())
    }

    /// Stops the workers after the queue drains of already-admitted jobs.
    pub fn shutdown(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("queue lock poisoned");
            queue.shutdown = true;
        }
        self.shared.cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.cv.wait(queue).expect("queue lock poisoned");
            }
        };
        let mut req = job.req;
        // Queue wait counts against the request's deadline.
        if let Some(ms) = req.deadline_ms {
            let waited = job.admitted.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
            req.deadline_ms = Some(ms.saturating_sub(waited));
        }
        let response = shared.oracle.handle(&req);
        // A disconnected submitter (client gave up) is fine; drop the
        // response on the floor and move on.
        let _ = job.reply.send(response);
    }
}
