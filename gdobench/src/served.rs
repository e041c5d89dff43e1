//! `served_mix`: an in-process `Gateway` and one worker (`run_worker`)
//! over loopback TCP, loaded by a closed loop of client connections that
//! submit small Table-2 jobs by suite name through the NDJSON client
//! protocol. Every result netlist is compared byte for byte with an
//! offline run of the same circuit, seed and configuration.

use crate::measure::{median, mix, ratio, run_passes, Checks, Metrics, Setup, Spans};
use crate::offline::{prepare, Prepared, Source};
use crate::report::{
    add_stats, check_coverage, check_traced, put_gdo_layers, put_own_layers, put_partition_layers,
    put_setup_layers, EndToEnd, GatewayLayers,
};
use crate::{Args, RunResult};
use gateway::{Gateway, GatewayConfig, WorkerOptions};
use gdo::{Budget, GdoConfig, GdoStats, OptimizeRequest, Pipeline, VerifyPolicy};
use library::Library;
use proto::json::Json;
use proto::{JobSource, Priority, SubmitRequest};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::RunReport;

/// The circuits of the gateway's acceptance batch: the first three
/// Table-2 circuits, which the CI gateway smoke sends as its first batch
/// and the end-to-end duplicate-batch test submits twice.
const POOL: [&str; 3] = ["9sym", "Z5xp1", "term1"];

/// Units of six jobs in one pass; a multiple of the pool size, so every
/// circuit is duplicated equally often.
const UNITS: usize = 6;

#[derive(Clone, Debug)]
struct Job {
    circuit: &'static str,
    seed: u64,
    /// An exact copy of an earlier job of the same client: a cache hit.
    /// Every other job has a (circuit, seed) no other job uses: a miss.
    duplicate: bool,
}

/// The seeded job sequence, one list per client connection. It repeats
/// the CI gateway smoke's six-job unit: a first batch of the three pool
/// circuits, then a second batch of one exact duplicate and two more
/// jobs, so one job in six is a cache hit. The smoke's two other jobs
/// are larger circuits (dp96, frg2); here they are distinct-seed
/// repeats of the two pool circuits not duplicated, which keeps every
/// circuit at the same count in every pass. A unit goes to one client,
/// so under the closed loop a duplicate's original has finished and the
/// hit/miss split is exact.
fn sequence(seed: u64, clients: usize) -> Vec<Vec<Job>> {
    let mut state = mix(seed);
    let mut next = move || {
        state = mix(state);
        state
    };
    let mut used = std::collections::BTreeSet::new();
    // Seeds stay below 2^32 (the wire carries numbers as doubles) and
    // unique per circuit, so only duplicates can hit the cache.
    let mut fresh = |circuit: &'static str, next: &mut dyn FnMut() -> u64| loop {
        let seed = next() & 0xffff_ffff;
        if used.insert((circuit, seed)) {
            return Job {
                circuit,
                seed,
                duplicate: false,
            };
        }
    };
    let mut lists: Vec<Vec<Job>> = vec![Vec::new(); clients];
    #[allow(clippy::cast_possible_truncation)]
    let offset = (next() % POOL.len() as u64) as usize;
    for unit in 0..UNITS {
        let mut first: Vec<Job> = POOL.iter().map(|&c| fresh(c, &mut next)).collect();
        let dup = POOL[(offset + unit) % POOL.len()];
        let mut second: Vec<Job> = POOL
            .iter()
            .filter(|&&c| c != dup)
            .map(|&c| fresh(c, &mut next))
            .collect();
        let original = first.iter().find(|j| j.circuit == dup).expect("in pool");
        second.push(Job {
            duplicate: true,
            ..original.clone()
        });
        shuffle(&mut first, &mut next);
        shuffle(&mut second, &mut next);
        let list = &mut lists[unit % clients];
        list.extend(first);
        list.extend(second);
    }
    lists
}

fn shuffle<T>(v: &mut [T], next: &mut impl FnMut() -> u64) {
    for i in (1..v.len()).rev() {
        #[allow(clippy::cast_possible_truncation)]
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// What one client saw of one job.
struct Record {
    job: Job,
    outcome: String,
    cached: bool,
    blif: Option<String>,
    summary: BTreeMap<String, f64>,
    latency: f64,
    admit: f64,
    queue_wait: Option<f64>,
    run: Option<f64>,
}

fn submit_line(job: &Job) -> String {
    proto::submit_to_json(&SubmitRequest {
        id: None,
        source: JobSource::Suite(job.circuit.to_string()),
        deadline_ms: None,
        work_limit: None,
        seed: Some(job.seed),
        vectors: None,
        verify: None,
        engines: None,
        partitions: None,
        priority: Priority::Normal,
        resume: None,
        checkpoint: None,
        want_netlist: true,
        want_progress: false,
        panic_attempts: None,
    })
}

/// One closed-loop client: submits its jobs one at a time, each after
/// the previous one's terminal event.
fn client(addr: SocketAddr, jobs: Vec<Job>) -> Result<Vec<Record>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("client connect: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut records = Vec::with_capacity(jobs.len());
    for job in jobs {
        // One write per request line: a line split over two writes
        // waits out Nagle's algorithm and the peer's delayed ACK.
        let line = format!("{}\n", submit_line(&job));
        let t0 = Instant::now();
        writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("client send: {e}"))?;
        let (mut accepted, mut started) = (None, None);
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("gateway closed a client connection".to_string());
            }
            let at = t0.elapsed().as_secs_f64();
            let v = proto::json::parse(line.trim()).map_err(|e| format!("bad event: {e}"))?;
            let kind = v
                .get("event")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            match kind.as_str() {
                "accepted" => accepted = Some(at),
                "started" => started = Some(at),
                "progress" => {}
                _ => {
                    let summary = match v.get("report") {
                        Some(r) => proto::report_from_json(r)?.summary,
                        None => BTreeMap::new(),
                    };
                    let admit = accepted.unwrap_or(at);
                    records.push(Record {
                        cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
                        blif: v.get("blif").and_then(Json::as_str).map(str::to_string),
                        summary,
                        latency: at,
                        admit,
                        queue_wait: started.map(|s| s - admit),
                        run: started.map(|s| at - s),
                        outcome: kind,
                        job,
                    });
                    break;
                }
            }
        }
    }
    Ok(records)
}

/// A running gateway with its worker and accept-loop threads.
struct Stack {
    gw: Arc<Gateway>,
    client_addr: SocketAddr,
    threads: Vec<JoinHandle<Result<(), String>>>,
}

fn start_stack() -> Result<Stack, String> {
    let clients = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let workers = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let client_addr = clients.local_addr().map_err(|e| e.to_string())?;
    let worker_addr = workers.local_addr().map_err(|e| e.to_string())?;
    let gw = Gateway::new(GatewayConfig::default());
    let mut threads = Vec::new();
    let serving = Arc::clone(&gw);
    threads.push(std::thread::spawn(move || {
        serving.serve_clients(&clients).map_err(|e| e.to_string())
    }));
    let serving = Arc::clone(&gw);
    threads.push(std::thread::spawn(move || {
        serving.serve_workers(&workers).map_err(|e| e.to_string())
    }));
    threads.push(std::thread::spawn(move || {
        gateway::run_worker(&worker_addr.to_string(), &WorkerOptions::default())
    }));
    let t0 = Instant::now();
    while gw.worker_table().is_empty() {
        if t0.elapsed() > Duration::from_secs(30) {
            return Err("worker did not register within 30 s".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    // The worker turns the process-global collector on before it
    // registers; only traced passes may carry the in-program probes.
    telemetry::disable();
    Ok(Stack {
        gw,
        client_addr,
        threads,
    })
}

/// Drains the gateway over the client protocol and joins every thread.
fn stop_stack(stack: Stack) -> Result<(), String> {
    let stream = TcpStream::connect(stack.client_addr).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writeln!(writer, "{{\"op\":\"drain\"}}").map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    for line in BufReader::new(stream).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.contains("\"drained\"") {
            break;
        }
    }
    drop(writer);
    for t in stack.threads {
        t.join()
            .map_err(|_| "gateway thread panicked".to_string())??;
    }
    Ok(())
}

/// One pass of the job sequence through a fresh gateway.
struct Pass {
    records: Vec<Record>,
    makespan: f64,
    hits: u64,
    misses: u64,
    shed: u64,
    report: Option<RunReport>,
}

fn run_pass(lists: &[Vec<Job>], spans: &mut Spans, traced: bool) -> Result<Pass, String> {
    let stack = spans.time("gateway.start", start_stack)?;
    if traced {
        telemetry::reset();
        telemetry::enable();
    }
    let addr = stack.client_addr;
    let t0 = Instant::now();
    let results: Vec<Result<Vec<Record>, String>> = spans.time("gateway.clients", || {
        let handles: Vec<_> = lists
            .iter()
            .map(|jobs| {
                let jobs = jobs.clone();
                std::thread::spawn(move || client(addr, jobs))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client panicked".to_string()))
            })
            .collect()
    });
    let makespan = t0.elapsed().as_secs_f64();
    let report = traced.then(telemetry::snapshot);
    let counters: BTreeMap<&str, u64> = stack.gw.counter_pairs().into_iter().collect();
    spans.time("gateway.drain", || stop_stack(stack))?;
    let mut records = Vec::new();
    for r in results {
        records.extend(r?);
    }
    Ok(Pass {
        records,
        makespan,
        hits: counters.get("gateway.cache.hits").copied().unwrap_or(0),
        misses: counters.get("gateway.cache.misses").copied().unwrap_or(0),
        shed: counters.get("gateway.shed").copied().unwrap_or(0),
        report,
    })
}

/// The offline reference of one (circuit, seed): the configuration a
/// worker runs (one BPFS thread, final verification), its result as
/// mapped BLIF, and whether the checks on it passed.
struct Reference {
    blif: String,
    errors: Vec<String>,
}

fn reference(
    input: &Prepared,
    seed: u64,
    lib: &Library,
    spans: &mut Spans,
) -> Result<Reference, String> {
    let cfg = GdoConfig::builder()
        .seed(seed)
        .verify_policy(VerifyPolicy::Final)
        .threads(1)
        .build()
        .map_err(|e| e.to_string())?;
    let mut nl = spans.time("netlist.clone", || input.mapped.clone());
    let req = OptimizeRequest::new(cfg);
    let stats = spans
        .time("gdo.optimize", || {
            Pipeline::new(lib).run(&req, &mut nl, &Budget::unlimited())
        })
        .map_err(|e| format!("{}: optimize: {e}", input.name))?;
    spans
        .time("formats.write", || formats::write_blif(&nl))
        .map_err(|e| format!("{}: write: {e}", input.name))?;
    let blif = spans
        .time("library.write_blif", || {
            library::write_mapped_blif(lib, &nl)
        })
        .map_err(|e| format!("{}: write: {e}", input.name))?;
    let mut errors = Vec::new();
    match spans.time("sat.verify", || sat::check_equiv(&input.mapped, &nl)) {
        Ok(true) => {}
        Ok(false) => errors.push(format!("{}: offline result not equivalent", input.name)),
        Err(e) => errors.push(format!("{}: equivalence check failed: {e}", input.name)),
    }
    if stats.delay_after > stats.delay_before + 1e-9 {
        errors.push(format!("{}: delay grew", input.name));
    }
    Ok(Reference { blif, errors })
}

/// Runs `served_mix` for `args.seconds` and reports its metrics.
pub fn run(args: &Args, lib: &Library) -> Result<RunResult, String> {
    let mut run_spans = Spans::start();
    let mut checks = Checks::default();
    let clients = crate::nproc();
    let lists = sequence(args.seed, clients);

    // Set-up: the offline preparation of every pool circuit and the
    // start of a gateway and its worker, repeated.
    let sources: Vec<Source> = POOL
        .iter()
        .map(|name| {
            let entry = workloads::lookup_circuit(name).map_err(|e| e.to_string())?;
            Ok(Source {
                name: (*name).to_string(),
                generate: Box::new(move || entry.build()),
                parse: false,
                script: false,
            })
        })
        .collect::<Result<_, String>>()?;
    let mut setup = Setup::new(
        |spans| {
            let inputs = sources
                .iter()
                .map(|src| prepare(src, lib, spans))
                .collect::<Result<Vec<_>, _>>()?;
            let stack = spans.time("gateway.start", start_stack)?;
            Ok((inputs, stack))
        },
        |(inputs, stack), spans| {
            spans.time("gateway.drain", || stop_stack(stack))?;
            Ok(inputs)
        },
    );
    let inputs = setup.once()?;

    // Offline references for every distinct (circuit, seed).
    let mut refs: BTreeMap<(&str, u64), Reference> = BTreeMap::new();
    let mut ref_spans = Spans::start();
    for job in lists.iter().flatten() {
        if refs.contains_key(&(job.circuit, job.seed)) {
            continue;
        }
        let input = inputs
            .iter()
            .find(|i| i.name == job.circuit)
            .expect("every pool circuit is prepared");
        let r = reference(input, job.seed, lib, &mut ref_spans)?;
        checks.op(r.errors.clone());
        refs.insert((job.circuit, job.seed), r);
    }

    let mut pass_spans = Spans::start();
    let left = args.seconds - run_spans.wall() - setup.owed_s();
    let (passes, untraced) = run_passes(left, args.trace, |traced| {
        setup.slot()?;
        run_pass(&lists, &mut pass_spans, traced)
    })?;
    let setup = setup.finish()?;

    // Per-job checks: a clean `done`, byte-identical to the offline run,
    // from the cache exactly when it is a duplicate.
    for r in passes.iter().flat_map(|p| &p.records) {
        let mut errors = Vec::new();
        let key = (r.job.circuit, r.job.seed);
        if r.outcome != "done" {
            errors.push(format!("{key:?}: terminal event {:?}", r.outcome));
        }
        if r.blif.is_none() || r.blif.as_ref() != refs.get(&key).map(|x| &x.blif) {
            errors.push(format!(
                "{key:?}: served netlist differs from the offline run"
            ));
        }
        if r.cached != r.job.duplicate {
            errors.push(format!(
                "{key:?}: cached={} for a job with duplicate={}",
                r.cached, r.job.duplicate
            ));
        }
        checks.op(errors);
    }
    // Real work and exact repeats.
    let first = &passes[0];
    checks.require(first.hits > 0 && first.misses > 0, || {
        format!("{} cache hits and {} misses", first.hits, first.misses)
    });
    let applied = job_stats(&first.records).total_mods();
    checks.require(applied > 0, || "workload applied 0 rewrites".to_string());
    for p in &passes[1..] {
        checks.require((p.hits, p.misses) == (first.hits, first.misses), || {
            format!(
                "cache hits/misses not repeatable: {}/{} vs {}/{}",
                first.hits, first.misses, p.hits, p.misses
            )
        });
    }
    // The traced pass's collector saw only the jobs the worker ran; put
    // their summed counters beside it so the funnel can be checked.
    let reports: Vec<RunReport> = passes
        .iter()
        .filter_map(|p| {
            let mut report = p.report.clone()?;
            job_stats(&p.records).merge_into_report(&mut report);
            Some(report)
        })
        .collect();
    check_traced(&mut checks, &reports);

    for (_, s) in &setup {
        run_spans.absorb(s);
    }
    run_spans.absorb(&ref_spans);
    run_spans.absorb(&pass_spans);
    let coverage = check_coverage(&mut checks, &run_spans);

    let measured = &passes[..untraced];
    let sum = |key: &str| -> f64 {
        let values = first.records.iter().map(|r| r.summary.get(key).copied());
        values.map(|v| v.unwrap_or(0.0)).sum()
    };
    let e2e = EndToEnd {
        setup: setup.iter().map(|(wall, _)| *wall).collect(),
        optimize: measured.iter().map(|p| p.makespan).collect(),
        latencies: POOL
            .iter()
            .map(|&c| {
                let records = measured.iter().flat_map(|p| &p.records);
                records
                    .filter(|r| r.job.circuit == c)
                    .map(|r| r.latency)
                    .collect()
            })
            .collect(),
        ops_per_pass: first.records.len(),
        delay: (sum("delay_before"), sum("delay_after")),
        literals: (sum("literals_before"), sum("literals_after")),
    };
    let mut info = BTreeMap::new();
    e2e.describe(&mut info);
    info.insert("connections".to_string(), clients.to_string());
    info.insert("worker_slots".to_string(), "1".to_string());
    info.insert("passes".to_string(), passes.len().to_string());
    info.insert("jobs_per_pass".to_string(), first.records.len().to_string());
    info.insert("cache_hits".to_string(), first.hits.to_string());
    info.insert("cache_misses".to_string(), first.misses.to_string());
    info.insert("applied_rewrites".to_string(), applied.to_string());
    info.insert(
        "trace.span_coverage_pct".to_string(),
        (100.0 * coverage).to_string(),
    );

    let mut metrics = Metrics::default();
    if args.trace {
        let traced = &passes[untraced];
        let report = reports.first().cloned().unwrap_or_default();
        let reps: Vec<Spans> = setup.into_iter().map(|(_, s)| s).collect();
        put_setup_layers(&mut metrics, &reps);
        let gates: usize = inputs.iter().map(|i| i.mapped.stats().gates).sum();
        #[allow(clippy::cast_precision_loss)]
        metrics.put("library.mapped_gates", gates as f64, "count");
        put_gdo_layers(&mut metrics, &report, &job_stats(&traced.records));
        put_partition_layers(&mut metrics, &report, None, 1);
        let misses: Vec<&Record> = traced.records.iter().filter(|r| !r.cached).collect();
        let admits: Vec<f64> = traced.records.iter().map(|r| r.admit).collect();
        let waits: Vec<f64> = misses.iter().filter_map(|r| r.queue_wait).collect();
        let runs: Vec<f64> = misses.iter().filter_map(|r| r.run).collect();
        #[allow(clippy::cast_precision_loss)]
        GatewayLayers {
            admit_s: median(&admits),
            queue_wait_p50_s: median(&waits),
            run_p50_s: median(&runs),
            cache_hit_ratio: ratio(traced.hits as f64, (traced.hits + traced.misses) as f64),
            shed: traced.shed,
        }
        .put(&mut metrics);
        let traced_optimize: Vec<f64> = passes[untraced..].iter().map(|p| p.makespan).collect();
        put_own_layers(
            &mut metrics,
            ref_spans.total("formats.write"),
            ref_spans.total("sat.verify"),
            (&e2e.optimize, &traced_optimize),
            coverage,
        );
    } else {
        e2e.put(&mut metrics);
    }
    Ok(RunResult {
        checks,
        metrics,
        info,
    })
}

/// The optimizer counters of the jobs a worker actually ran (cache
/// hits replay a report and run nothing).
fn job_stats(records: &[Record]) -> GdoStats {
    let mut total = GdoStats::default();
    for r in records.iter().filter(|r| !r.cached) {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let get = |k: &str| r.summary.get(k).copied().unwrap_or(0.0) as usize;
        let s = GdoStats {
            proofs: get("proofs"),
            proofs_valid: get("proofs_valid"),
            sub2_mods: get("sub2_mods"),
            sub3_mods: get("sub3_mods"),
            const_mods: get("const_mods"),
            resub_mods: get("resub_mods"),
            ..GdoStats::default()
        };
        add_stats(&mut total, &s);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_sends_the_same_mix_and_duplicates_follow_their_original() {
        for seed in 0..20 {
            let lists = sequence(seed, 2);
            let jobs: Vec<&Job> = lists.iter().flatten().collect();
            assert_eq!(jobs.len(), 6 * UNITS);
            assert_eq!(jobs.iter().filter(|j| j.duplicate).count(), UNITS);
            for c in POOL {
                let of = |dup: bool| {
                    let same = jobs.iter().filter(|j| j.circuit == c);
                    same.filter(|j| j.duplicate == dup).count()
                };
                assert_eq!((of(false), of(true)), (5 * UNITS / 3, UNITS / 3));
            }
            for list in &lists {
                for (i, job) in list.iter().enumerate() {
                    let earlier = list[..i]
                        .iter()
                        .any(|j| !j.duplicate && (j.circuit, j.seed) == (job.circuit, job.seed));
                    assert_eq!(earlier, job.duplicate);
                }
            }
        }
    }
}
