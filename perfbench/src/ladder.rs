//! The traced run: replays a workload's inputs down a ladder of public
//! entry points, one layer per rung, recording a span around every call.
//!
//! For each frame the rungs run top-down: `wire` (`WireClient::query_batch`)
//! → `registry` (`MonitorRegistry::query_batch`) → `serve`
//! (`MonitorEngine::submit_batch`) → `core.verdict_batch`
//! (`Monitor::verdict_batch_scratch`) → `nn.forward`, `core.abstract` and
//! `core.membership` (the three steps of one verdict, called directly). A
//! span's parent is the rung above, and all spans of one frame share the
//! frame's id. A rung's self time is its duration minus its children's, so
//! the self times of one frame add up to its `wire` time; per layer the
//! benchmark reports the median over frames, and `bench.unattributed_ns`
//! is what those medians leave of the median frame.

use crate::deploy::{
    references, serve, BenchResult, Deployer, Member, Versions, SEGMENT_WORDS, TENANT,
};
use crate::inputs::{Inputs, LAYER};
use crate::load::{lemma_warnings, open_loop, Conn, Ledger, Target};
use crate::stats::{median, quantile};
use crate::{report, Args, Metric, Outcome, OUT_DIR};
use napmon_absint::propagate::Propagator;
use napmon_absint::BoxBounds;
use napmon_artifact::MonitorArtifact;
use napmon_bdd::{BitSliceSet, BitWord};
use napmon_core::{FeatureExtractor, Monitor, QueryScratch, Verdict};
use napmon_nn::ForwardScratch;
use napmon_store::{PatternStore, StoreConfig};
use napmon_wire::{Request, TenantRoute, WireClient};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The frame-chain rungs, top-down, with the metric each one's self time
/// is reported as.
const CHAIN: [(&str, &str); 7] = [
    ("wire", "wire.rtt_ns"),
    ("registry", "registry.route_ns"),
    ("serve", "serve.overhead_ns"),
    ("core.verdict_batch", "core.verdict_batch_ns"),
    ("nn.forward", "nn.forward_ns"),
    ("core.abstract", "core.abstract_ns"),
    ("core.membership", "core.membership_ns"),
];

/// Span ids of build and deploy steps; frame ids count up from 0.
const STEP: u64 = 1 << 40;

/// One timed call.
struct Span {
    id: u64,
    name: &'static str,
    parent: Option<&'static str>,
    start_ns: u64,
    end_ns: u64,
}

/// The benchmark's in-memory span log.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Whether `span` records; when off it only makes the call.
    recording: bool,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            recording: true,
        }
    }

    fn span<T>(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        call: impl FnOnce() -> T,
    ) -> T {
        if !self.recording {
            return call();
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = call();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            name,
            parent,
            start_ns,
            end_ns,
        });
        out
    }

    /// Durations (ns) of every span called `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time (ns) of every span called `name`: its duration minus the
    /// durations of the spans of the same id whose parent it is.
    fn self_times(&self, name: &str) -> Vec<f64> {
        let mut by_id: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let dur = (s.end_ns - s.start_ns) as f64;
            if s.name == name {
                by_id.entry(s.id).or_default().0 += dur;
            } else if s.parent == Some(name) {
                by_id.entry(s.id).or_default().1 += dur;
            }
        }
        by_id
            .values()
            .map(|(own, children)| own - children)
            .collect()
    }

    /// Writes every span as one tab-separated line.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id,
                s.name,
                s.parent.unwrap_or("-"),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn check(got: &[Verdict], reference: &[Verdict], ledger: &mut Ledger) {
    ledger.verdicts += got.len() as u64;
    if got != reference {
        ledger.mismatches += 1;
    }
}

pub fn run(dep: &mut Deployer, inputs: &Inputs, args: &Args, work: &Path) -> BenchResult<Outcome> {
    let workload = dep.workload;
    let design = workload.design();
    let mut tr = Tracer::new();
    let mut ledger = Ledger::default();
    let robust = dep.spec.robust.expect("robust spec");
    let train = &inputs.versions[0];

    // Build: bounds and forward passes on their own, then the whole build.
    let prop = Propagator::new(&dep.net, robust.domain);
    for (i, x) in train.iter().enumerate() {
        let input = BoxBounds::from_center_radius(x, robust.delta);
        tr.span(STEP + i as u64, "absint.bounds", None, || {
            black_box(prop.bounds(0, LAYER, &input))
        });
    }
    let extractor = FeatureExtractor::new(&dep.net, LAYER)?
        .with_neurons(dep.spec.layers[0].neurons.clone().expect("neuron subset"))?;
    tr.span(STEP, "nn.train_forward", None, || {
        for x in train {
            black_box(extractor.features(&dep.net, x).expect("forward"));
        }
    });
    let monitor = tr.span(STEP, "core.build", None, || dep.build(train))?;
    let member = Member::of(&monitor);
    let patterns = member.patterns();
    let versions = Versions::first(references(&monitor, &dep.net, &inputs.frames)?);
    let warn_rate = crate::warn_rate(&versions.all(1));

    // Artifact round trip, then serve it.
    let path = dep.fresh_path("artifact").with_extension("json");
    let artifact =
        MonitorArtifact::from_parts(dep.spec.clone(), dep.net.clone(), monitor, train.len())?;
    tr.span(STEP, "artifact.save", None, || artifact.save_json(&path))?;
    drop(artifact);
    let artifact_bytes = std::fs::metadata(&path)?.len() as f64;
    let loaded = tr.span(STEP, "artifact.load", None, || {
        MonitorArtifact::load_json(&path)
    })?;
    let json = loaded.to_json_string()?;
    drop(loaded);
    let server = serve()?;
    let addr = server.local_addr();
    let registry = Arc::clone(server.registry().expect("registry backend"));
    let degraded_before = WireClient::connect(addr)?.stats()?.degraded;
    let mut admin = WireClient::connect(addr)?;
    admin.set_route(Some(TenantRoute::pinned(TENANT, 1)));
    ledger.attempted += 1;
    tr.span(STEP + 1, "wire.mount", None, || {
        admin.mount_artifact(false, &json)
    })?;

    // Deploy ladder: alternate wire and in-process shadow mounts, mirror
    // traffic, promote in-process.
    let target = Target {
        frames: &inputs.frames,
        versions: &versions,
        depth: None,
    };
    let mut conn = Conn::new(addr, TENANT, 0);
    let (mut mirrored, mut dropped) = (0u64, 0u64);
    let last = (design.rollouts + 1).min(5) as u32;
    for v in 2..=last {
        let slice = &inputs.versions[v as usize - 1];
        let candidate = dep.build(slice)?;
        versions.publish(v, references(&candidate, &dep.net, &inputs.frames)?);
        let json = dep.artifact_json(candidate, slice.len())?;
        let id = STEP + u64::from(v);
        if v % 2 == 0 {
            admin.set_route(Some(TenantRoute::pinned(TENANT, v)));
            ledger.attempted += 1;
            tr.span(id, "wire.mount", None, || admin.mount_artifact(true, &json))?;
        } else {
            let artifact = MonitorArtifact::from_json_str(&json)?;
            tr.span(id, "registry.mount", None, || {
                registry.mount_shadow(TENANT, v, artifact)
            })?;
        }
        for _ in 0..32 {
            target.send(&mut conn, &mut ledger);
        }
        registry.shadow_sync(TENANT)?;
        let shadow = registry.shadow_stats(TENANT)?;
        mirrored += shadow.mirrored;
        dropped += shadow.dropped;
        tr.span(id, "registry.promote", None, || registry.promote(TENANT))?;
        versions.promoted(v);
        registry.reap_retired();
    }
    let active = versions.active();
    let lemma = lemma_warnings(&mut conn, &inputs.lemma[active as usize - 1], &mut ledger);

    // The frame chain.
    let mounted = registry.resolve(TENANT, 0)?;
    let engine = mounted.engine();
    let (monitor, net) = (engine.monitor(), engine.network());
    let member = Member::of(monitor);
    let arcs: Vec<Arc<[Vec<f64>]>> = inputs.frames.iter().map(|f| f.clone().into()).collect();
    let width = design.frame_inputs;
    let (mut scratch, mut forward) = (QueryScratch::new(), ForwardScratch::new());
    let mut out = Vec::new();
    let mut feats = vec![Vec::new(); width];
    let mut words = vec![BitWord::default(); width];
    // Blocks of 64 frames alternate between traced and untraced, so the
    // two wall-clock means that price the tracing see the same host.
    let chain_end = Instant::now() + Duration::from_secs_f64(args.seconds * 0.65);
    let mut frames = 0u64;
    let mut wall = [(0.0f64, 0u64); 2];
    while Instant::now() < chain_end {
        tr.recording = (frames / 64).is_multiple_of(2);
        let frame_started = Instant::now();
        let i = frames as usize % inputs.frames.len();
        let frame = &inputs.frames[i];
        let reference = versions.reference(active, i);
        let id = frames;
        ledger.attempted += 1;
        match tr.span(id, "wire", None, || conn.query(frame)) {
            Some(got) => check(&got, &reference, &mut ledger),
            None => ledger.failed += 1,
        }
        let got = tr.span(id, "registry", Some("wire"), || {
            registry.query_batch(TENANT, Arc::clone(&arcs[i]))
        })?;
        check(&got, &reference, &mut ledger);
        let got = tr.span(id, "serve", Some("registry"), || {
            engine.submit_batch(Arc::clone(&arcs[i]))
        })?;
        check(&got, &reference, &mut ledger);
        tr.span(id, "core.verdict_batch", Some("serve"), || {
            monitor.verdict_batch_scratch(net, frame, &mut scratch, &mut out)
        })?;
        check(&out, &reference, &mut ledger);
        tr.span(id, "nn.forward", Some("core.verdict_batch"), || {
            for (x, f) in frame.iter().zip(feats.iter_mut()) {
                member
                    .extractor()
                    .features_into(net, x, &mut forward, f)
                    .expect("forward");
            }
        });
        tr.span(id, "core.abstract", Some("core.verdict_batch"), || {
            for (f, w) in feats.iter().zip(words.iter_mut()) {
                member.abstract_into(f, w);
            }
        });
        let hits = tr.span(id, "core.membership", Some("core.verdict_batch"), || {
            words.iter().filter(|w| member.contains(w)).count()
        });
        let warned = reference.iter().filter(|v| v.warning).count();
        if hits + warned != frame.len() {
            ledger.mismatches += 1;
        }
        let slot = &mut wall[usize::from(tr.recording)];
        slot.0 += frame_started.elapsed().as_nanos() as f64;
        slot.1 += 1;
        frames += 1;
    }
    tr.recording = true;
    let [(plain_ns, plain_frames), (traced_ns, traced_frames)] = wall;
    let trace_overhead = (traced_ns / traced_frames as f64) / (plain_ns / plain_frames as f64);

    // Side rungs over the same abstraction: the bit-sliced kernel over the
    // training patterns, and a scratch pattern store.
    let word_of = |x: &Vec<f64>| {
        let f = member.extractor().features(net, x).expect("forward");
        let mut w = BitWord::default();
        member.abstract_into(&f, &mut w);
        w
    };
    let train_words: Vec<BitWord> = inputs.versions[active as usize - 1]
        .iter()
        .map(word_of)
        .collect();
    let frame_words: Vec<Vec<BitWord>> = inputs
        .frames
        .iter()
        .map(|f| f.iter().map(word_of).collect())
        .collect();
    let sliced: BitSliceSet = train_words.iter().cloned().collect();
    let mut hits = vec![false; width];
    for (k, q) in frame_words.iter().enumerate() {
        tr.span(STEP + k as u64, "bdd.sliced_batch", None, || {
            sliced.contains_within_batch(q, member.tau(), &mut hits)
        });
    }
    let bits = train_words[0].len();
    let mut store = PatternStore::create(
        work.join("ladder-store"),
        StoreConfig::new(bits).segment_capacity(SEGMENT_WORDS),
    )?;
    let mut appended = 0u64;
    let mut fresh = 0u64;
    let lemma_words: Vec<BitWord> = inputs.lemma[active as usize - 1]
        .iter()
        .map(word_of)
        .collect();
    for (k, w) in train_words
        .iter()
        .chain(&lemma_words)
        .chain(frame_words.iter().flatten())
        .enumerate()
    {
        let new = tr.span(STEP + k as u64, "store.append", None, || store.append(w))?;
        appended += 1;
        fresh += u64::from(new);
    }
    tr.span(STEP, "store.commit", None, || store.commit())?;
    tr.span(STEP, "store.seal", None, || store.seal())?;
    for (k, w) in frame_words.iter().flatten().enumerate() {
        tr.span(STEP + k as u64, "store.contains_within", None, || {
            store.contains_within(w, member.tau())
        })?;
    }
    let segments = store.stats()?.segments as f64;
    drop(store);

    // A short open loop at the nominal rate for the generator's lateness
    // and the engine's backlog.
    let depth_probe = || engine.queue_depth() as u64;
    let probed = Target {
        depth: Some(&depth_probe),
        ..target
    };
    let mut conns = Conn::spread(
        addr,
        TENANT,
        crate::query_conns(workload)?,
        inputs.frames.len(),
    );
    let open = open_loop(
        probed,
        &mut conns,
        design.nominal_fps,
        args.seconds * 0.2,
        None,
    );
    ledger.add(open.ledger);
    let queue_depth_max = open.ledger.depth_max as f64;
    let batch_size_p50 = engine.report().batch_sizes.p50();
    let frame_bytes = Request::QueryBatch(inputs.frames[0].clone())
        .into_frame(1)?
        .routed(TenantRoute::active(TENANT))
        .encode()?
        .len() as f64;
    let degraded = WireClient::connect(addr)?.stats()?.degraded;
    drop(mounted);
    server.shutdown_registry();
    tr.write(
        &std::env::current_dir()?
            .join(OUT_DIR)
            .join(format!("trace-{}.tsv", workload.name())),
    )?;

    // Per-layer figures from the spans.
    let mut metrics = Vec::new();
    let mut attributed = 0.0;
    for (span, metric) in CHAIN {
        let value = median(&tr.self_times(span));
        attributed += value;
        metrics.push((metric, value, "ns"));
    }
    let frame_ns = median(&tr.durations("wire"));
    let bounds_ns: f64 = tr.durations("absint.bounds").iter().sum();
    let build_ns = median(&tr.durations("core.build"));
    let forward_ns = median(&tr.durations("nn.train_forward"));
    let one = |name: &str| median(&tr.durations(name));
    metrics.extend([
        ("bench.frame_ns", frame_ns, "ns"),
        ("bench.unattributed_ns", frame_ns - attributed, "ns"),
        ("bench.trace_overhead", trace_overhead, "ratio"),
        ("bench.sched_lag_p99_us", quantile(&open.lag_us, 0.99), "us"),
        ("bdd.sliced_batch_ns", one("bdd.sliced_batch"), "ns"),
        (
            "store.contains_within_ns",
            one("store.contains_within"),
            "ns",
        ),
        ("store.append_ns", one("store.append"), "ns"),
        ("store.commit_ms", ms(one("store.commit")), "ms"),
        ("store.seal_ms", ms(one("store.seal")), "ms"),
        (
            "store.dedup_ratio",
            1.0 - fresh as f64 / appended as f64,
            "ratio",
        ),
        ("store.segments", segments, "count"),
        ("serve.batch_size_p50", batch_size_p50, "count"),
        ("serve.queue_depth_max", queue_depth_max, "count"),
        ("registry.mount_ms", ms(one("registry.mount")), "ms"),
        ("registry.promote_ms", ms(one("registry.promote")), "ms"),
        (
            "registry.mirror_drop_ratio",
            dropped as f64 / (mirrored + dropped).max(1) as f64,
            "ratio",
        ),
        ("wire.frame_bytes", frame_bytes, "bytes"),
        (
            "wire.busy",
            (degraded.busy_total() - degraded_before.busy_total()) as f64,
            "count",
        ),
        (
            "wire.shed",
            (degraded.shed_watermark - degraded_before.shed_watermark) as f64,
            "count",
        ),
        (
            "wire.evicted",
            (degraded.evicted_total() - degraded_before.evicted_total()) as f64,
            "count",
        ),
        ("wire.mount_ms", ms(one("wire.mount")), "ms"),
        ("absint.bounds_us", one("absint.bounds") / 1e3, "us"),
        ("core.build_s", build_ns / 1e9, "s"),
        (
            "core.absorb_s",
            (build_ns - forward_ns - bounds_ns) / 1e9,
            "s",
        ),
        ("core.patterns", patterns, "count"),
        ("artifact.save_ms", ms(one("artifact.save")), "ms"),
        ("artifact.load_ms", ms(one("artifact.load")), "ms"),
        ("artifact.bytes", artifact_bytes, "bytes"),
    ]);
    println!(
        "-- {} traced ladder: {frames} frames, {} spans --",
        workload.name(),
        tr.spans.len()
    );
    for &(name, value, unit) in &metrics {
        report(name, value, unit);
    }
    report("verdict_mismatches", ledger.mismatches as f64, "count");
    report("lemma1_warns", lemma as f64, "count");
    report("warn_rate", warn_rate, "ratio");
    report("cores", crate::stats::cores() as f64, "count");
    Ok(Outcome {
        ledger,
        lemma_warnings: lemma,
        warn_rate,
        metrics: metrics
            .into_iter()
            .map(|(name, value, unit)| Metric::new(name, value, unit))
            .collect(),
    })
}
