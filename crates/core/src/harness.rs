//! Experiment wiring: build a two-host fabric, spawn the middleware's
//! thread pools, connect the control channel, and run a transfer to
//! completion.
//!
//! This is the programmatic equivalent of starting an RFTP server and
//! client on two testbed machines. The control queue pair is wired
//! up-front (in reality `rdma_cm` does this before the protocol speaks);
//! everything else — parameter negotiation, data-channel establishment,
//! credits, teardown — happens in-protocol.

use crate::config::{SinkConfig, SourceConfig};
use crate::engine::{SinkEngine, SourceEngine};
use crate::multi::{Endpoint, MultiEngine};
use crate::stats::{SinkStats, SourceStats};
use rftp_fabric::{
    build_sim, two_host_fabric_with_frag, Application, FabricCore, FabricWorld, HostId, QpOptions,
};
use rftp_netsim::kernel::Sim;
use rftp_netsim::testbed::Testbed;
use rftp_netsim::time::{SimDur, SimTime};

/// A fully wired transfer experiment, ready to run.
pub struct Experiment {
    pub sim: Sim<FabricWorld>,
    pub src: HostId,
    pub dst: HostId,
}

/// Results of a completed transfer.
#[derive(Debug, Clone)]
pub struct TransferReport {
    pub source: SourceStats,
    pub sink: SinkStats,
    /// Wall-clock (simulated) duration from start to the source's finish.
    pub elapsed: SimDur,
    /// Application goodput in Gbps over the whole run.
    pub goodput_gbps: f64,
    /// Client (source host) CPU in nmon convention.
    pub src_cpu_pct: f64,
    /// Server (sink host) CPU.
    pub dst_cpu_pct: f64,
    /// Per-thread CPU breakdown, (label, pct), source then sink.
    pub src_threads: Vec<(&'static str, f64)>,
    pub dst_threads: Vec<(&'static str, f64)>,
}

/// Spawn one source→sink pair's middleware threads and pre-wire its
/// control QP pair: the source runs on host `src`, the sink on host
/// `dst`. The control channel is `rdma_cm`'s job, so it is connected
/// here; everything else — negotiation, data channels, credits,
/// teardown — the engines do in-protocol.
fn wire_pair(
    core: &mut FabricCore,
    src: HostId,
    src_cfg: SourceConfig,
    dst: HostId,
    snk_cfg: SinkConfig,
) -> (SourceEngine, SinkEngine) {
    // Source threads: control poller, loaders, data-CQ pollers (Fig. 2).
    let src_cpu = &mut core.hosts[src.index()].cpu;
    let src_ctrl = src_cpu.spawn("ctrl");
    let loaders: Vec<_> = (0..src_cfg.loader_threads)
        .map(|_| src_cpu.spawn("loader"))
        .collect();
    let src_data: Vec<_> = (0..src_cfg.data_cq_threads)
        .map(|_| src_cpu.spawn("data"))
        .collect();

    // Sink threads: control poller, data-CQ pollers, consumer.
    let dst_cpu = &mut core.hosts[dst.index()].cpu;
    let dst_ctrl = dst_cpu.spawn("ctrl");
    let dst_data: Vec<_> = (0..snk_cfg.data_cq_threads)
        .map(|_| dst_cpu.spawn("data"))
        .collect();
    let consumer = dst_cpu.spawn("consumer");

    // Queue depths must cover the control rings: every ring slot can be
    // outstanding at once on a long-RTT path.
    let ring = src_cfg.ctrl_ring_slots.max(snk_cfg.ctrl_ring_slots);
    let ctrl_opts = QpOptions {
        sq_depth: ring + 8,
        rq_depth: ring + 8,
        ..QpOptions::default()
    };
    let src_cq = core.hosts[src.index()].create_cq(src_ctrl);
    let dst_cq = core.hosts[dst.index()].create_cq(dst_ctrl);
    let src_qp = core.create_qp(src, ctrl_opts, src_cq, src_cq);
    let dst_qp = core.create_qp(dst, ctrl_opts, dst_cq, dst_cq);
    core.connect(src_qp, dst_qp).expect("control connect");

    (
        SourceEngine::new(src_cfg, src_qp, loaders, src_data),
        SinkEngine::new(snk_cfg, dst_qp, dst_data, consumer),
    )
}

/// Build an experiment on `tb` with the given endpoint configurations.
pub fn build_experiment(tb: &Testbed, src_cfg: SourceConfig, snk_cfg: SinkConfig) -> Experiment {
    build_experiment_with_frag(tb, src_cfg, snk_cfg, rftp_fabric::DEFAULT_FRAG_SIZE)
}

/// Like [`build_experiment`] with an explicit NIC fragment size (large
/// sweeps trade arbitration granularity for event count).
pub fn build_experiment_with_frag(
    tb: &Testbed,
    src_cfg: SourceConfig,
    snk_cfg: SinkConfig,
    frag_size: u64,
) -> Experiment {
    let (mut core, src, dst) = two_host_fabric_with_frag(tb, frag_size);
    let (source, sink) = wire_pair(&mut core, src, src_cfg, dst, snk_cfg);
    let sim = build_sim(core, vec![Some(Box::new(source)), Some(Box::new(sink))]);
    Experiment { sim, src, dst }
}

impl Experiment {
    /// Run until the transfer completes (or `horizon`). Panics on
    /// protocol failure; returns the report.
    pub fn run(self, horizon: SimDur) -> TransferReport {
        self.run_keep_world(horizon).0
    }

    /// Run and also return the world for deeper inspection.
    pub fn run_keep_world(mut self, horizon: SimDur) -> (TransferReport, Sim<FabricWorld>) {
        let src = self.src;
        let dst = self.dst;
        let outcome = self.sim.run_until(SimTime::ZERO + horizon, |w| {
            let s: &SourceEngine = w.app(src);
            let k: &SinkEngine = w.app(dst);
            // Stop on failure either side, or when both endpoints have
            // fully finished (the sink keeps consuming briefly after the
            // source's teardown message).
            s.failure.is_some() || k.failure.is_some() || (s.done && k.all_sessions_complete())
        });
        let w = self.sim.world();
        let source: &SourceEngine = w.app(src);
        let sink: &SinkEngine = w.app(dst);
        if let Some(f) = &source.failure {
            panic!("source failed: {f}");
        }
        if let Some(f) = &sink.failure {
            panic!("sink failed: {f}");
        }
        assert!(
            source.done,
            "transfer did not finish before horizon ({outcome:?}, now={})",
            self.sim.now()
        );
        let end = source.stats.finished_at;
        let elapsed = end.since(source.stats.started_at);
        let report = TransferReport {
            goodput_gbps: rftp_netsim::gbps(source.stats.bytes_sent, elapsed),
            elapsed,
            source: source.stats.clone(),
            sink: sink.stats.clone(),
            src_cpu_pct: w.core.hosts[src.index()].cpu.utilization_pct(end),
            dst_cpu_pct: w.core.hosts[dst.index()].cpu.utilization_pct(end),
            src_threads: w.core.hosts[src.index()].cpu.per_thread_pct(end),
            dst_threads: w.core.hosts[dst.index()].cpu.per_thread_pct(end),
        };
        (report, self.sim)
    }
}

/// Convenience: run one memory-to-memory transfer with default sink
/// policy and return the report.
pub fn run_transfer(tb: &Testbed, src_cfg: SourceConfig) -> TransferReport {
    build_experiment(tb, src_cfg, SinkConfig::default()).run(SimDur::from_secs(3600))
}

/// Run one [`MultiEngine`] per host (in host order) until every engine
/// has finished. Panics if any engine fails or the run stalls.
fn run_multi(core: FabricCore, apps: [MultiEngine; 2]) -> Sim<FabricWorld> {
    let hosts = [HostId(0), HostId(1)];
    let apps = apps.map(|m| Some(Box::new(m) as Box<dyn Application>));
    let mut sim = build_sim(core, apps.into());
    let outcome = sim.run_until(SimTime::ZERO + SimDur::from_secs(36_000), |w| {
        let all = hosts.map(|h| w.app::<MultiEngine>(h));
        all.iter().all(|m| m.is_finished()) || all.iter().any(|m| m.failure().is_some())
    });
    for h in hosts {
        let m: &MultiEngine = sim.world().app(h);
        assert!(
            m.failure().is_none(),
            "host {h:?} failed: {:?}",
            m.failure()
        );
        assert!(m.is_finished(), "host {h:?} incomplete ({outcome:?})");
    }
    sim
}

/// Run N independent jobs concurrently over one link: job `i` gets its
/// own source engine on host A and sink engine on host B (distinct
/// control QPs, pools, sessions, token tags), all sharing the wire.
/// Returns per-job source stats plus total elapsed time.
pub fn run_parallel_jobs(
    tb: &Testbed,
    jobs: Vec<(SourceConfig, SinkConfig)>,
) -> (Vec<SourceStats>, SimDur) {
    assert!(!jobs.is_empty() && jobs.len() <= 200);
    let (mut core, a, b) = rftp_fabric::two_host_fabric(tb);
    let mut a_parts = Vec::new();
    let mut b_parts = Vec::new();
    for (i, (mut src_cfg, snk_cfg)) in jobs.into_iter().enumerate() {
        let tag = (i + 1) as u8;
        // Distinct session-id ranges per job keep wire traces readable.
        src_cfg.first_session = (i as u32 + 1) * 1000;
        let (source, sink) = wire_pair(&mut core, a, src_cfg, b, snk_cfg);
        a_parts.push(Endpoint::Source(source.with_token_tag(tag)));
        b_parts.push(Endpoint::Sink(sink.with_token_tag(tag)));
    }
    let sim = run_multi(core, [MultiEngine::new(a_parts), MultiEngine::new(b_parts)]);
    let ma: &MultiEngine = sim.world().app(a);
    let stats: Vec<SourceStats> = ma
        .endpoints
        .iter()
        .filter_map(|e| e.as_source().map(|s| s.stats.clone()))
        .collect();
    let end = stats
        .iter()
        .map(|s| s.finished_at)
        .max()
        .expect("at least one job");
    (stats, end.since(SimTime::ZERO))
}

/// Results of a bidirectional (full-duplex) experiment.
#[derive(Debug, Clone)]
pub struct DuplexReport {
    /// A→B direction.
    pub forward: SourceStats,
    /// B→A direction.
    pub reverse: SourceStats,
    pub forward_gbps: f64,
    pub reverse_gbps: f64,
    pub a_cpu_pct: f64,
    pub b_cpu_pct: f64,
}

/// Run two simultaneous transfers in opposite directions over one link:
/// host A uploads `a_cfg` to B while B uploads `b_cfg` to A (`a_snk` is
/// the sink on host A, `b_snk` the one on B). Each host runs its source
/// and its sink behind one [`MultiEngine`]; full-duplex links carry both
/// payload streams at line rate concurrently.
pub fn run_duplex(
    tb: &Testbed,
    a_cfg: SourceConfig,
    a_snk: SinkConfig,
    b_cfg: SourceConfig,
    b_snk: SinkConfig,
) -> DuplexReport {
    let (mut core, a, b) = rftp_fabric::two_host_fabric(tb);
    let (a_source, b_sink) = wire_pair(&mut core, a, a_cfg, b, b_snk);
    let (b_source, a_sink) = wire_pair(&mut core, b, b_cfg, a, a_snk);
    let sim = run_multi(
        core,
        [
            MultiEngine::new(vec![Endpoint::Source(a_source), Endpoint::Sink(a_sink)]),
            MultiEngine::new(vec![Endpoint::Source(b_source), Endpoint::Sink(b_sink)]),
        ],
    );
    let w = sim.world();
    let ma: &MultiEngine = w.app(a);
    let mb: &MultiEngine = w.app(b);
    let forward = &ma.endpoints[0].as_source().expect("A's source").stats;
    let reverse = &mb.endpoints[0].as_source().expect("B's source").stats;
    let end = forward.finished_at.max(reverse.finished_at);
    DuplexReport {
        forward_gbps: forward.goodput_gbps(),
        reverse_gbps: reverse.goodput_gbps(),
        forward: forward.clone(),
        reverse: reverse.clone(),
        a_cpu_pct: w.core.hosts[a.index()].cpu.utilization_pct(end),
        b_cpu_pct: w.core.hosts[b.index()].cpu.utilization_pct(end),
    }
}
