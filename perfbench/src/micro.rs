//! Layer measurements taken outside any workload's traffic, in every
//! traced run: the codec on the workloads' request mix, the bare ticket
//! body, and the task engine's spawn-to-run delay.

use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

use amf_concurrency::TaskEngine;
use amf_service::codec::{decode_request, decode_response, encode_request, encode_response};
use amf_service::{Request, Response, ServiceConfig};
use amf_ticketing::{Ticket, TicketServer};

use crate::{median, percentile, Inputs};

const BATCHES: usize = 9;

/// Median over batches of the mean ns per item of `f` over `items`.
fn ns_per_item<T>(items: &[T], reps: usize, mut f: impl FnMut(&T)) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                items.iter().for_each(&mut f);
            }
            t0.elapsed().as_nanos() as f64 / (reps * items.len()) as f64
        })
        .collect();
    median(&per_batch)
}

pub fn measure(inputs: &mut Inputs) -> Vec<(&'static str, f64)> {
    // The wire workloads' mix: an open and the assign that returns its
    // ticket, each with its response.
    let pairs: Vec<(Request, Response)> = inputs
        .tickets(1 << 12, 0, 256)
        .into_iter()
        .flat_map(|t| {
            let ticket = Ticket::new(t.id, t.summary.clone());
            [
                (
                    Request::Open {
                        token: 7,
                        id: t.id,
                        severity: t.severity,
                        summary: t.summary,
                    },
                    Response::Ok(None),
                ),
                (Request::Assign { token: 7 }, Response::Ok(Some(ticket))),
            ]
        })
        .collect();
    let frames: Vec<(Vec<u8>, Vec<u8>)> = pairs
        .iter()
        .map(|(q, r)| (encode_request(q).to_vec(), encode_response(r).to_vec()))
        .collect();
    let wire_bytes =
        frames.iter().map(|(q, r)| q.len() + r.len()).sum::<usize>() as f64 / frames.len() as f64;
    let encode_ns = ns_per_item(&pairs, 20, |(q, r)| {
        black_box(encode_request(black_box(q)));
        black_box(encode_response(black_box(r)));
    });
    let decode_ns = ns_per_item(&frames, 20, |(q, r)| {
        black_box(decode_request(black_box(&q[4..])).expect("request decodes"));
        black_box(decode_response(black_box(&r[4..])).expect("response decodes"));
    });

    // A bare TicketServer open+assign pair, tickets built beforehand.
    let mut server = TicketServer::new(64);
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let tickets: Vec<Ticket> = inputs
                .tickets(1 << 13, 0, 20_000)
                .into_iter()
                .map(|t| Ticket::new(t.id, t.summary))
                .collect();
            let n = tickets.len();
            let t0 = Instant::now();
            for t in tickets {
                server.open(t).expect("room in the buffer");
                black_box(server.assign().expect("a ticket to assign"));
            }
            t0.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    let body_ns = median(&per_batch);

    // Spawn-to-run on a standalone engine of the service's size, one
    // task at a time so each finds the workers idle, as at low load.
    let engine = TaskEngine::new(ServiceConfig::default().workers);
    let (tx, rx) = mpsc::channel::<Instant>();
    let mut delays: Vec<u64> = (0..2_200)
        .filter_map(|i| {
            let tx = tx.clone();
            let t0 = Instant::now();
            engine.spawn(move || tx.send(Instant::now()).expect("receiver alive"));
            let ran = rx.recv().expect("task ran");
            (i >= 200).then(|| ran.duration_since(t0).as_nanos() as u64)
        })
        .collect();
    engine.shutdown();
    delays.sort_unstable();

    vec![
        ("service.codec.encode_ns", encode_ns),
        ("service.codec.decode_ns", decode_ns),
        ("service.codec.wire_bytes_per_req", wire_bytes),
        ("ticketing.body_ns", body_ns),
        (
            "concurrency.task.spawn_to_run_us",
            percentile(&delays, 0.5) as f64 / 1e3,
        ),
    ]
}
