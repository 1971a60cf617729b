//! The traced run: one in-process replay of the pipeline, stage by stage,
//! through each crate's public functions, with a harness-side span around
//! every call. It yields the per-layer metrics of `catalog::PER_LAYER`.
//!
//! The replay must produce the same contig bytes as
//! `FocusAssembler::assemble`, or the run fails: the spans then measure the
//! program and not a lookalike. Cross-cutting layers that `assemble` does
//! not touch (paged store, checkpoint files, the out-of-core path, the
//! recorder, the job server) are measured by probes on the same data after
//! the replay, outside its root span.

use crate::catalog::PER_LAYER;
use crate::gen::fnv1a64;
use crate::json::{self, obj, Value};
use crate::spans::{self, max_seconds, self_seconds, total_seconds, Span, Tracer};
use crate::workload::{
    parse_fastq, spawn_child, write_contigs, Pass, PassDirs, Workload, OOC_BUDGET_BYTES,
};
use fc_align::{AlignScratch, KernelScratch, Overlap, Overlapper, PairStats};
use fc_ckpt::{CheckpointStore, FsFaultPlan, LoadOutcome};
use fc_dist::{DistributedConfig, DistributedHybrid, DistributedReport, FaultPlan, FaultRates};
use fc_exec::Pool;
use fc_graph::{HybridSet, MultilevelSet, OverlapGraph};
use fc_obs::{ObsOptions, Recorder};
use fc_partition::{
    edge_cut, partition_balance, partition_graph_set, partition_graph_set_obs, PartitionConfig,
    PartitionResult,
};
use fc_seq::{DnaString, Orientation, PagedReadStore, PagedStoreWriter, ReadStore};
use fc_serve::{Serve, ServeConfig};
use focus_core::{
    config_fingerprint, input_digest, AssemblyJobRunner, AssemblyOutcome, AssemblyStats,
    CheckpointOptions, FocusAssembler, FocusConfig, OocOptions,
};
use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The one fault plan `dist.faulted_run_s` is measured under.
const FAULT_SEED: u64 = 0xFA17;
const FAULT_RATES: FaultRates = FaultRates {
    crash: 0.10,
    drop: 0.20,
    drop_repeats: 2,
    delay: 0.10,
    delay_factor: 4.0,
    straggle: 0.10,
    straggle_factor: 8.0,
};

/// Empty batches of ten tasks pushed through the pool to price a dispatch.
const DISPATCH_PROBE_BATCHES: usize = 200;
const DISPATCH_PROBE_TASKS: usize = 10;
/// Spans opened and dropped to price one recorder span.
const SPAN_PROBE_ROUNDS: u32 = 50_000;
/// On/off rounds per stage of the recorder-tax probe; the fastest counts.
const TAX_ROUNDS: usize = 3;

pub struct TraceOutput {
    /// One value for every name in [`PER_LAYER`], in catalog order.
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
    pub contig_digest: u64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Contig of one traversal path: the hybrid nodes' contigs merged by the
/// edges' shifts, first sequence wins. Mirrors focus-core's private
/// `path_contig`; the digest check in [`run`] holds the two together.
fn path_contig(dh: &DistributedHybrid, nodes: &[u32]) -> Result<DnaString, String> {
    let mut seq = dh.contig(nodes[0]).clone();
    let mut covered_to = seq.len() as i64;
    let mut offset = 0i64;
    for step in nodes.windows(2) {
        let edge = dh
            .graph
            .edge(step[0], step[1])
            .ok_or_else(|| format!("path step {}->{} has no edge", step[0], step[1]))?;
        offset += i64::from(edge.shift);
        let next = dh.contig(step[1]);
        let from = (covered_to - offset).max(0);
        if from < next.len() as i64 {
            seq.extend_from(&next.slice(from as usize, next.len()));
            covered_to = covered_to.max(offset + next.len() as i64);
        }
    }
    Ok(seq)
}

/// Seconds a stage takes longer with an enabled recorder than with a
/// disabled one: fastest of [`TAX_ROUNDS`] each way, inputs built untimed.
fn recorder_tax<I>(make: impl Fn() -> I, run: impl Fn(I, &Recorder)) -> f64 {
    let fastest = |recorder: &dyn Fn() -> Recorder| {
        (0..TAX_ROUNDS)
            .map(|_| {
                let (input, rec) = (make(), recorder());
                timed(|| run(input, &rec)).1
            })
            .fold(f64::INFINITY, f64::min)
    };
    fastest(&|| Recorder::new(ObsOptions::wall_clock())) - fastest(&Recorder::disabled)
}

fn dir_size(dir: &Path) -> (u64, u64) {
    let (mut files, mut bytes) = (0, 0);
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        match entry.metadata() {
            Ok(meta) if meta.is_dir() => {
                let (f, b) = dir_size(&entry.path());
                files += f;
                bytes += b;
            }
            Ok(meta) => {
                files += 1;
                bytes += meta.len();
            }
            Err(_) => {}
        }
    }
    (files, bytes)
}

/// One HTTP/1.1 exchange; the server closes the connection after it.
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(io)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .map_err(io)?;
    stream.write_all(body).map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: no header end"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("{method} {path}: no status"))?;
    Ok((status, raw[split + 4..].to_vec()))
}

/// Submits the FASTQ as one job to an in-process server, polls it to done,
/// fetches the contigs; returns the round-trip seconds and the contigs.
fn serve_roundtrip(
    config: FocusConfig,
    fastq: &[u8],
    state_dir: &Path,
) -> Result<(f64, Vec<u8>), String> {
    let runner = AssemblyJobRunner::new(config).map_err(|e| e.to_string())?;
    let server = Serve::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            job_threads: config.threads,
            ..ServeConfig::default()
        },
        state_dir,
        Arc::new(runner),
    )
    .map_err(|e| e.to_string())?;
    let addr = server.addr();
    let exchange = || -> Result<(f64, Vec<u8>), String> {
        let started = Instant::now();
        let (status, body) = http(addr, "POST", "/jobs?tenant=bench", fastq)?;
        if status != 202 {
            return Err(format!(
                "submit answered {status}: {}",
                String::from_utf8_lossy(&body)
            ));
        }
        let id = json::parse(&String::from_utf8_lossy(&body))?
            .text("id")?
            .to_string();
        loop {
            let (_, body) = http(addr, "GET", &format!("/jobs/{id}"), b"")?;
            let status = json::parse(&String::from_utf8_lossy(&body))?;
            match status.text("state")? {
                "queued" | "running" => std::thread::sleep(Duration::from_millis(10)),
                "done" => break,
                other => return Err(format!("job {id} ended {other}: {}", status.to_compact())),
            }
            if started.elapsed() > Duration::from_secs(120) {
                return Err(format!("job {id} did not finish in 120 s"));
            }
        }
        let (status, contigs) = http(addr, "GET", &format!("/jobs/{id}/contigs"), b"")?;
        if status != 200 {
            return Err(format!("contigs answered {status}"));
        }
        Ok((started.elapsed().as_secs_f64(), contigs))
    };
    let outcome = exchange();
    server.shutdown(true);
    server.join();
    outcome
}

/// What the replay leaves behind for the probes and the counts.
struct Replay {
    reads: Vec<fc_seq::Read>,
    store: ReadStore,
    overlaps: Vec<Overlap>,
    pair_stats: Vec<(usize, usize, PairStats)>,
    graph: OverlapGraph,
    multilevel: MultilevelSet,
    hybrid: HybridSet,
    partition: PartitionResult,
    /// The distributed stage as it was before trimming.
    pristine: DistributedHybrid,
    report: DistributedReport,
    contigs: Vec<DnaString>,
}

fn partition_config(config: &FocusConfig) -> PartitionConfig {
    PartitionConfig::new(config.partitions, config.partition_seed).with_threads(config.threads)
}

fn dist_config(config: &FocusConfig) -> DistributedConfig {
    DistributedConfig {
        threads: config.threads,
        ..config.dist
    }
}

/// The pipeline of `FocusAssembler::assemble`, stage by stage through the
/// crates' public functions, under one root span with a span per call.
/// Writes the contigs to `contigs_path`.
fn replay(
    tracer: &Tracer,
    config: &FocusConfig,
    input: &Path,
    contigs_path: &Path,
) -> Result<Replay, String> {
    tracer.span("replay", None, |root| {
        let root = Some(root);
        let k = config.partitions;
        let reads = tracer.span("seq.fastq_parse", root, |_| parse_fastq(input))?;
        let store = tracer
            .span("seq.preprocess", root, |_| {
                ReadStore::preprocess(&reads, &config.trim)
            })
            .map_err(|e| e.to_string())?;
        let overlapper = Overlapper::new(&store, config.overlap).map_err(|e| e.to_string())?;
        let subsets = store.split_subsets(config.subsets);
        let pool = Pool::new(config.threads);
        let (overlaps, pair_stats) = tracer.span("align.overlap_all", root, |all| {
            let indexes = pool.map(subsets.len(), |j| {
                tracer.span("align.index_build", Some(all), |_| {
                    overlapper.index_subset(&subsets[j])
                })
            });
            let pairs: Vec<(usize, usize)> = (0..subsets.len())
                .flat_map(|j| (0..=j).map(move |i| (i, j)))
                .collect();
            let results = pool.map_with(
                pairs.len(),
                || (AlignScratch::default(), false),
                |t, scratch| {
                    let (i, j) = pairs[t];
                    let reused = std::mem::replace(&mut scratch.1, true);
                    let found = tracer.span("align.pair_task", Some(all), |_| {
                        overlapper.overlap_pair_with(
                            &subsets[i],
                            &indexes[j],
                            i == j,
                            &mut scratch.0,
                        )
                    });
                    (found, reused)
                },
            );
            tracer.span("align.merge", Some(all), |_| {
                overlapper.merge_pair_results(pairs.into_iter().zip(results), &Recorder::disabled())
            })
        });
        let graph = tracer.span("graph.build", root, |_| {
            OverlapGraph::build(&store, &overlaps)
        });
        let multilevel = tracer.span("graph.coarsen", root, |_| {
            MultilevelSet::build(graph.undirected.clone(), &config.coarsen)
        });
        let hybrid = tracer.span("graph.hybrid", root, |_| {
            HybridSet::build(&multilevel, &graph, &store, &config.layout)
        });
        let partition = tracer
            .span("partition.hybrid", root, |_| {
                partition_graph_set(&hybrid.set, &partition_config(config))
            })
            .map_err(|e| e.to_string())?;
        let mut dh = tracer
            .span("dist.setup", root, |_| {
                DistributedHybrid::with_consensus(&hybrid, &store, partition.finest().to_vec(), k)
            })
            .map_err(|e| e.to_string())?;
        let pristine = tracer.span("bench.copy", root, |_| dh.clone());
        let report = tracer
            .span("dist.run", root, |_| {
                dh.run_with_faults(&dist_config(config), FaultPlan::none())
            })
            .map_err(|e| e.to_string())?;
        let contigs = tracer.span("focus.emit_contigs", root, |_| {
            let contigs = report
                .paths
                .iter()
                .map(|p| path_contig(&dh, &p.nodes))
                .collect::<Result<Vec<_>, _>>()?;
            std::hint::black_box(AssemblyStats::from_contigs(&contigs));
            Ok::<_, String>(contigs)
        })?;
        tracer.span("seq.fasta_write", root, |_| {
            write_contigs(contigs_path, &contigs)
        })?;
        drop(overlapper);
        Ok(Replay {
            reads,
            store,
            overlaps,
            pair_stats,
            graph,
            multilevel,
            hybrid,
            partition,
            pristine,
            report,
            contigs,
        })
    })
}

/// Runs the traced replay and every probe for `w` on the FASTQ at `input`,
/// using `scratch` for files.
pub fn run(w: &Workload, input: &Path, scratch: &Path) -> Result<TraceOutput, String> {
    // The replay is the in-core stage sequence at the workload's thread
    // count; the out-of-core path is measured by its own probe below.
    let config = FocusConfig {
        memory_budget: None,
        ..w.config()
    };
    let k = config.partitions;
    let threads = Pool::new(config.threads).threads();
    let fastq_bytes = std::fs::metadata(input).map_err(|e| e.to_string())?.len();
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", w.name);

    // ---- Reference: the program itself, untraced, in a process of its
    // own. The replay below also starts on a fresh heap, so the two walls
    // differ by the tracing and by nothing else.
    let reference_path = scratch.join("reference-contigs.fasta");
    let reference_dirs = PassDirs {
        input: input.to_path_buf(),
        contigs: reference_path.clone(),
        scratch: scratch.to_path_buf(),
    };
    let reference = spawn_child(w, &reference_dirs, Pass::Reference)?;
    let untraced_s = reference
        .passes
        .first()
        .ok_or("the reference pass timed nothing")?
        .0;
    let reference_bytes = std::fs::read(&reference_path).map_err(|e| e.to_string())?;
    let reference_digest = fnv1a64(&reference_bytes);

    // ---- Replay: the same stages, one span per call. ----
    let replay_path = scratch.join("replay-contigs.fasta");
    let tracer = Tracer::new();
    let replay = replay(&tracer, &config, input, &replay_path).map_err(|e| err(&e))?;
    let replay_bytes = std::fs::read(&replay_path).map_err(|e| e.to_string())?;
    if replay_bytes != reference_bytes {
        return Err(format!(
            "{}: the staged replay wrote contigs with digest {:016x}, assemble() wrote {reference_digest:016x}",
            w.name,
            fnv1a64(&replay_bytes)
        ));
    }
    let Replay {
        reads,
        store,
        overlaps,
        pair_stats,
        graph,
        multilevel,
        hybrid,
        partition,
        pristine,
        report,
        contigs,
    } = replay;

    // ---- Probes, outside the replay's root span. ----
    let overlapper = Overlapper::new(&store, config.overlap).map_err(|e| err(&e))?;
    let subsets = store.split_subsets(config.subsets);
    let requests = tracer.span("probe.gather_requests", None, |_| {
        overlapper.gather_requests(&subsets)
    });
    tracer.span("probe.verify_requests", None, |_| {
        let mut verdicts = Vec::new();
        overlapper.verify_requests(
            &requests,
            &mut KernelScratch::default(),
            &mut PairStats::default(),
            &mut verdicts,
        );
        std::hint::black_box(verdicts);
    });

    let partition_config = partition_config(&config);
    let multilevel_partition = tracer
        .span("probe.partition_multilevel", None, |_| {
            partition_graph_set(&multilevel.set, &partition_config)
        })
        .map_err(|e| err(&e))?;

    let dist_config = dist_config(&config);
    let mut faulty = pristine.clone();
    let faulted = tracer
        .span("probe.dist_faulted", None, |_| {
            faulty.run_with_faults(&dist_config, FaultPlan::random(FAULT_SEED, k, &FAULT_RATES))
        })
        .map_err(|e| err(&e))?;
    if faulted.paths != report.paths {
        return Err(format!(
            "{}: the faulted distributed run changed the paths",
            w.name
        ));
    }

    // Paged store: the trimmed forward reads out to pages and back.
    let fingerprint = config_fingerprint(&config);
    let digest = input_digest(&reads);
    let pages_dir = scratch.join("probe-pages");
    tracer
        .span("probe.paged_write", None, |_| {
            let mut writer =
                PagedStoreWriter::create(&pages_dir, fingerprint, 4096, FsFaultPlan::none());
            for id in store
                .ids()
                .filter(|&id| store.orientation(id) == Orientation::Forward)
            {
                writer.push(store.get(id).clone(), store.source_index(id) as u32)?;
            }
            writer.finish(digest).map(drop)
        })
        .map_err(|e| err(&e))?;
    let (_, paged_bytes) = dir_size(&pages_dir);
    let materialized = tracer
        .span("probe.paged_materialize", None, |_| {
            PagedReadStore::open(&pages_dir, fingerprint, digest, FsFaultPlan::none())?
                .materialize()
        })
        .map_err(|e| err(&e))?;
    if materialized.len() != store.len() {
        return Err(format!(
            "{}: paged store gave back {} of {} reads",
            w.name,
            materialized.len(),
            store.len()
        ));
    }
    drop(materialized);

    // Checkpoint files: every subset pair's run saved the way the
    // out-of-core path spills it, then loaded back.
    let mut offset = 0usize;
    let pair_runs: Vec<(Vec<Overlap>, PairStats)> = pair_stats
        .iter()
        .map(|(_, _, stats)| {
            let run = overlaps[offset..offset + stats.overlaps as usize].to_vec();
            offset += stats.overlaps as usize;
            (run, *stats)
        })
        .collect();
    let payloads: Vec<Vec<u8>> = pair_runs.iter().map(fc_ckpt::encode_to_vec).collect();
    let ckpt_bytes: usize = payloads.iter().map(Vec::len).sum();
    let mut ckpt = CheckpointStore::new(scratch.join("probe-ckpt"), fingerprint, digest);
    tracer.span("probe.ckpt_save", None, |_| {
        for (t, payload) in payloads.iter().enumerate() {
            match ckpt.save(t as u32, "align_pair", vec![payload.clone()]) {
                Ok(true) => {}
                Ok(false) => return Err(format!("{}: checkpoint store degraded", w.name)),
                Err(e) => return Err(err(&e)),
            }
        }
        Ok(())
    })?;
    tracer.span("probe.ckpt_load", None, |_| {
        for (t, payload) in payloads.iter().enumerate() {
            match ckpt.load(t as u32, "align_pair") {
                LoadOutcome::Loaded(records) if records.len() == 1 && &records[0] == payload => {}
                other => {
                    return Err(format!(
                        "{}: checkpoint {t} did not read back: {other:?}",
                        w.name
                    ))
                }
            }
        }
        Ok(())
    })?;

    // Out-of-core path: what it leaves in its spill directory.
    let spill_dir = scratch.join("probe-spill");
    let ooc_assembler = FocusAssembler::new(FocusConfig {
        memory_budget: Some(OOC_BUDGET_BYTES),
        ..config
    })
    .map_err(|e| err(&e))?;
    let outcome = ooc_assembler
        .assemble_fastq_ooc(
            input,
            &CheckpointOptions::default(),
            &OocOptions::in_dir(&spill_dir),
        )
        .map_err(|e| err(&e))?;
    match outcome {
        AssemblyOutcome::Completed(result) if result.contigs == contigs => {}
        _ => {
            return Err(format!(
                "{}: the out-of-core path changed the contigs",
                w.name
            ))
        }
    }
    let (spill_files, spill_bytes) = dir_size(&spill_dir);

    // Recorder: the same assembly with wall-clock observability on must
    // write the same contigs; its event count is what `--trace` users get.
    let observed = FocusAssembler::new(FocusConfig {
        observability: ObsOptions::wall_clock(),
        ..config
    })
    .map_err(|e| err(&e))?;
    let (result, observed_s) = timed(|| observed.assemble(&reads));
    if result.map_err(|e| err(&e))?.contigs != contigs {
        return Err(format!("{}: observability changed the contigs", w.name));
    }
    let obs_events = observed.recorder().events().len();
    // Its cost is far below the run-to-run noise of a whole assembly, so it
    // is priced stage by stage: every stage that takes a recorder (the
    // pair-task fan-out does not) runs with it on and off on the replay's
    // own data, and the differences add up.
    let recorder_tax_s = recorder_tax(
        || {
            pair_stats
                .iter()
                .zip(&pair_runs)
                .map(|(&(i, j, _), run)| ((i, j), (run.clone(), false)))
                .collect::<Vec<_>>()
        },
        |runs, rec| {
            std::hint::black_box(overlapper.merge_pair_results(runs, rec));
        },
    ) + recorder_tax(
        || graph.undirected.clone(),
        |g0, rec| {
            std::hint::black_box(MultilevelSet::build_obs(g0, &config.coarsen, rec));
        },
    ) + recorder_tax(
        || (),
        |(), rec| {
            std::hint::black_box(HybridSet::build_obs(
                &multilevel,
                &graph,
                &store,
                &config.layout,
                rec,
            ));
        },
    ) + recorder_tax(
        || (),
        |(), rec| {
            std::hint::black_box(
                partition_graph_set_obs(&hybrid.set, &partition_config, rec).is_ok(),
            );
        },
    ) + recorder_tax(
        || pristine.clone(),
        |mut dh, rec| {
            std::hint::black_box(
                dh.run_with_faults_obs(&dist_config, FaultPlan::none(), rec)
                    .is_ok(),
            );
        },
    );
    let span_ns = |recorder: &Recorder| {
        let started = Instant::now();
        for _ in 0..SPAN_PROBE_ROUNDS {
            drop(std::hint::black_box(recorder.span("bench", "bench.probe")));
        }
        started.elapsed().as_nanos() as f64 / f64::from(SPAN_PROBE_ROUNDS)
    };
    let span_ns_enabled = span_ns(&Recorder::new(ObsOptions::wall_clock()));
    let span_ns_disabled = span_ns(&Recorder::disabled());

    // Pool: what one task costs to hand out, in batches shaped like the
    // pair fan-out (thread start and join included, as in the pipeline).
    let pool = Pool::new(config.threads);
    let (_, dispatch_s) = timed(|| {
        for _ in 0..DISPATCH_PROBE_BATCHES {
            std::hint::black_box(pool.map(DISPATCH_PROBE_TASKS, |i| i));
        }
    });

    // Job server: the same FASTQ as one job over HTTP.
    let fastq = std::fs::read(input).map_err(|e| e.to_string())?;
    let (roundtrip_s, served) = serve_roundtrip(config, &fastq, &scratch.join("probe-serve"))?;
    if served != reference_bytes {
        return Err(format!("{}: the job server returned other contigs", w.name));
    }

    // ---- Metrics. ----
    let spans = tracer.finish();
    let root = spans
        .iter()
        .find(|s| s.name == "replay")
        .expect("the replay span was recorded");
    let in_replay: Vec<&Span> = {
        let mut ids = vec![root.id];
        let mut members = vec![root];
        // Spans are ordered by start, so a parent precedes its children.
        for s in &spans {
            if s.parent.is_some_and(|p| ids.contains(&p)) {
                ids.push(s.id);
                members.push(s);
            }
        }
        members
    };
    let layer_sum_s: f64 = in_replay
        .iter()
        .filter(|s| s.lane == root.lane)
        .map(|s| self_seconds(s, &spans))
        .sum();
    let root_s = root.seconds();
    if (layer_sum_s - root_s).abs() > 0.02 * root_s {
        return Err(format!(
            "{}: span self times sum to {layer_sum_s} s, the replay took {root_s} s",
            w.name
        ));
    }

    let secs = |name: &str| total_seconds(&spans, name);
    let mut totals = PairStats::default();
    for (_, _, stats) in &pair_stats {
        totals.merge(stats);
    }
    let index_build_s = secs("align.index_build");
    let pair_task_sum_s = secs("align.pair_task");
    let overlap_all_s = secs("align.overlap_all");
    let hybrid_work = partition.total_work();
    let multilevel_work = multilevel_partition.total_work();
    let g0 = &graph.undirected;
    let finest = hybrid.set.finest();
    let mb = |bytes: f64, seconds: f64| bytes / 1e6 / seconds;

    let values: BTreeMap<&str, f64> = [
        ("seq.fastq_parse_s", secs("seq.fastq_parse")),
        (
            "seq.fastq_parse_mb_per_s",
            mb(fastq_bytes as f64, secs("seq.fastq_parse")),
        ),
        ("seq.preprocess_s", secs("seq.preprocess")),
        ("seq.reads_kept", store.len() as f64),
        ("seq.store_bytes", store.approx_bytes() as f64),
        ("seq.fasta_write_s", secs("seq.fasta_write")),
        ("seq.paged_write_s", secs("probe.paged_write")),
        ("seq.paged_materialize_s", secs("probe.paged_materialize")),
        ("seq.paged_bytes", paged_bytes as f64),
        ("align.index_build_s", index_build_s),
        // gather_requests builds the four indexes again, serially, before
        // it seeds and votes; what is left after them is seeding + voting.
        (
            "align.seed_vote_s",
            secs("probe.gather_requests") - index_build_s,
        ),
        ("align.verify_s", secs("probe.verify_requests")),
        ("align.overlap_all_s", overlap_all_s),
        ("align.pair_task_sum_s", pair_task_sum_s),
        (
            "align.pair_task_max_s",
            max_seconds(&spans, "align.pair_task"),
        ),
        ("align.kmer_lookups", totals.kmer_lookups as f64),
        ("align.kmer_hits", totals.kmer_hits as f64),
        ("align.candidates", totals.candidates as f64),
        ("align.verify_requests", requests.len() as f64),
        ("align.overlaps", totals.overlaps as f64),
        ("align.nw_cells", totals.nw_cells as f64),
        ("align.prefilter_rejected", totals.prefilter_rejected as f64),
        ("align.exact_hits", totals.exact_hits as f64),
        (
            "align.candidate_yield",
            totals.overlaps as f64 / totals.candidates as f64,
        ),
        ("exec.tasks", (subsets.len() + pair_stats.len()) as f64),
        (
            "exec.dispatch_us_per_task",
            dispatch_s * 1e6 / (DISPATCH_PROBE_BATCHES * DISPATCH_PROBE_TASKS) as f64,
        ),
        (
            "exec.align_efficiency",
            pair_task_sum_s / (threads as f64 * overlap_all_s),
        ),
        ("graph.build_s", secs("graph.build")),
        ("graph.coarsen_s", secs("graph.coarsen")),
        ("graph.hybrid_s", secs("graph.hybrid")),
        ("graph.g0_nodes", g0.node_count() as f64),
        ("graph.g0_edges", g0.edge_count() as f64),
        ("graph.levels", multilevel.level_count() as f64),
        ("graph.hybrid_nodes", hybrid.node_count() as f64),
        (
            "graph.compression_ratio",
            g0.node_count() as f64 / hybrid.node_count() as f64,
        ),
        ("partition.hybrid_s", secs("partition.hybrid")),
        ("partition.multilevel_s", secs("probe.partition_multilevel")),
        ("partition.work_units_hybrid", hybrid_work as f64),
        ("partition.work_units_multilevel", multilevel_work as f64),
        (
            "partition.hybrid_work_ratio",
            hybrid_work as f64 / multilevel_work as f64,
        ),
        ("partition.tasks", partition.tasks.len() as f64),
        (
            "partition.edge_cut",
            edge_cut(finest, partition.finest()) as f64,
        ),
        (
            "partition.balance_permille",
            (partition_balance(finest, partition.finest(), k) * 1000.0).round(),
        ),
        ("dist.setup_s", secs("dist.setup")),
        ("dist.run_s", secs("dist.run")),
        ("dist.messages", report.messages as f64),
        ("dist.bytes", report.bytes as f64),
        ("dist.virtual_trim_units", report.trimming_time),
        ("dist.virtual_traverse_units", report.traversal_time),
        ("dist.transitive_removed", report.transitive_removed as f64),
        ("dist.contained_removed", report.contained_removed as f64),
        (
            "dist.false_edges_removed",
            report.false_edges_removed as f64,
        ),
        (
            "dist.error_nodes_removed",
            report.error_nodes_removed as f64,
        ),
        ("dist.paths", report.paths.len() as f64),
        ("dist.faulted_run_s", secs("probe.dist_faulted")),
        ("dist.fault_retries", f64::from(faulted.fault.retries)),
        ("ckpt.save_s", secs("probe.ckpt_save")),
        ("ckpt.load_s", secs("probe.ckpt_load")),
        ("ckpt.bytes", ckpt_bytes as f64),
        (
            "ckpt.save_mb_per_s",
            mb(ckpt_bytes as f64, secs("probe.ckpt_save")),
        ),
        ("ooc.spill_files", spill_files as f64),
        ("ooc.spill_bytes", spill_bytes as f64),
        ("obs.recorder_tax_pct", recorder_tax_s / untraced_s * 100.0),
        ("obs.events", obs_events as f64),
        ("obs.span_ns_enabled", span_ns_enabled),
        ("obs.span_ns_disabled", span_ns_disabled),
        ("focus.prepare_s", reference.prepare_s),
        ("focus.assemble_prepared_s", reference.assemble_prepared_s),
        ("focus.tail_other_s", secs("focus.emit_contigs")),
        ("focus.contigs", contigs.len() as f64),
        ("serve.job_roundtrip_s", roundtrip_s),
        // Against the direct call in this same, by now warm, process: the
        // observed assembly above plus the replay's parse and write.
        (
            "serve.tax_pct",
            (roundtrip_s / (observed_s + secs("seq.fastq_parse") + secs("seq.fasta_write")) - 1.0)
                * 100.0,
        ),
        (
            "bench.trace_overhead_pct",
            (root_s / untraced_s - 1.0) * 100.0,
        ),
        ("bench.layer_sum_s", layer_sum_s),
        ("bench.span_count", spans.len() as f64),
    ]
    .into_iter()
    .collect();

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            values
                .get(m.name)
                .map(|&v| (m.name, v))
                .ok_or_else(|| format!("the trace has no value for {}", m.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if values.len() != PER_LAYER.len() {
        return Err("the trace computed a metric the catalog does not list".to_string());
    }
    Ok(TraceOutput {
        metrics,
        spans,
        contig_digest: reference_digest,
    })
}

/// `layers.json`: every per-layer metric with its unit and class.
pub fn layers_json(w: &Workload, seed: u64, env: Value, out: &TraceOutput) -> Value {
    obj([
        ("workload", Value::from(w.name)),
        ("seed", Value::from(seed)),
        ("env", env),
        (
            "contig_digest",
            Value::from(format!("{:016x}", out.contig_digest)),
        ),
        (
            "layers",
            Value::Obj(
                out.metrics
                    .iter()
                    .zip(&PER_LAYER)
                    .map(|(&(name, value), m)| {
                        (
                            name.to_string(),
                            obj([
                                ("value", Value::from(value)),
                                ("unit", Value::from(m.unit)),
                                ("class", Value::from(m.class.label())),
                                ("exact", Value::from(m.exact)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Writes `trace.json` and `layers.json` into `dir`.
pub fn write_outputs(
    dir: &Path,
    layers: &Value,
    spans: &[Span],
) -> Result<(PathBuf, PathBuf), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let trace_path = dir.join("trace.json");
    let layers_path = dir.join("layers.json");
    std::fs::write(&trace_path, spans::chrome_trace(spans).to_compact())
        .map_err(|e| e.to_string())?;
    std::fs::write(&layers_path, layers.to_pretty()).map_err(|e| e.to_string())?;
    Ok((trace_path, layers_path))
}
