//! The load generator's side of the wire: the service's own
//! one-request-per-connection `HttpClient`, timed per call.

use crate::Rng;
use caladrius_api::json::{self, Value};
use caladrius_api::HttpClient;
use std::time::{Duration, Instant};

/// One completed HTTP exchange.
#[derive(Debug)]
pub struct Call {
    pub status: u16,
    pub body: String,
    /// Client-timed round trip: connect, request, response, close.
    pub rtt_ms: f64,
}

pub fn get(client: &HttpClient, target: &str) -> Result<Call, String> {
    let started = Instant::now();
    let (status, body) = client
        .get(target)
        .map_err(|e| format!("GET {target}: {e}"))?;
    Ok(Call {
        status,
        body,
        rtt_ms: started.elapsed().as_secs_f64() * 1e3,
    })
}

pub fn post(client: &HttpClient, target: &str, body: &str) -> Result<Call, String> {
    let started = Instant::now();
    let (status, body) = client
        .post(target, body)
        .map_err(|e| format!("POST {target}: {e}"))?;
    Ok(Call {
        status,
        body,
        rtt_ms: started.elapsed().as_secs_f64() * 1e3,
    })
}

pub fn parse(body: &str) -> Result<Value, String> {
    json::parse(body).map_err(|e| format!("response is not JSON: {e}"))
}

/// An asynchronous job submitted over HTTP and polled to completion.
#[derive(Debug)]
pub struct Job {
    pub id: u64,
    /// The finished job's poll response, parsed.
    pub done: Value,
    /// Raw size of the final poll response.
    pub done_bytes: usize,
    pub submit_rtt_ms: f64,
    pub poll_rtts_ms: Vec<f64>,
}

/// The benchmark's fixed poll schedule: the sleeps between polls are
/// drawn uniformly from 1–6 ms by a generator of their own. The range
/// spans one period of the server's 5 ms accept-loop sleep, so polls do
/// not lock onto its phase, and a job's observed latency moves smoothly
/// with its run time instead of in whole poll periods.
#[derive(Debug)]
pub struct Poller(Rng);

impl Poller {
    pub fn new(seed: u64) -> Self {
        Poller(Rng::new(seed ^ 0x706F_6C6C))
    }

    fn backoff(&mut self) -> Duration {
        Duration::from_micros(1000 + self.0.below(5000))
    }
}

/// Submits `body` to `route` and polls the returned URL on `poller`'s
/// schedule until the job finishes. Any non-2xx status (a 429 included)
/// or a failed job is an error: the operation failed.
pub fn run_job(
    client: &HttpClient,
    route: &str,
    body: &str,
    poller: &mut Poller,
) -> Result<Job, String> {
    let submit = post(client, route, body)?;
    if submit.status != 202 {
        return Err(format!(
            "POST {route}: status {} {}",
            submit.status, submit.body
        ));
    }
    let envelope = parse(&submit.body)?;
    let id = envelope
        .get("job_id")
        .and_then(Value::as_f64)
        .ok_or("202 without a job_id")? as u64;
    let poll = envelope
        .get("poll")
        .and_then(Value::as_str)
        .ok_or("202 without a poll URL")?
        .to_string();
    let mut poll_rtts_ms = Vec::new();
    loop {
        let polled = get(client, &poll)?;
        poll_rtts_ms.push(polled.rtt_ms);
        match polled.status {
            202 => std::thread::sleep(poller.backoff()),
            200 => {
                let done = parse(&polled.body)?;
                return match done.get("state").and_then(Value::as_str) {
                    Some("done") => Ok(Job {
                        id,
                        done,
                        done_bytes: polled.body.len(),
                        submit_rtt_ms: submit.rtt_ms,
                        poll_rtts_ms,
                    }),
                    _ => Err(format!("job {id} failed: {}", polled.body)),
                };
            }
            other => return Err(format!("GET {poll}: status {other} {}", polled.body)),
        }
    }
}
