//! Testbed presets reproducing Table I of the paper.
//!
//! Three environments are modelled:
//!
//! * **RoCE LAN** — back-to-back 40 Gbps RoCE hosts at Stony Brook
//!   (Xeon X5650, 12 cores), RTT 0.025 ms, MTU 9000, TCP bic.
//! * **InfiniBand LAN** — two NERSC nodes (Xeon X5550, 8 cores) on a 4X
//!   QDR switch: 32 Gbps data rate, but the eight-lane PCIe 2.0 adapter
//!   caps bare-metal bandwidth at ≈25.6 Gbps (the paper quotes the vendor's
//!   ~25 Gbps); RTT 0.013 ms, MTU 65520, TCP cubic.
//! * **ANI WAN** — ANL (Opteron 6140, 16 cores) to NERSC (Xeon E5530,
//!   8 cores) over the DOE Advanced Networking Initiative testbed:
//!   10 Gbps RoCE NICs, RTT 49 ms, MTU 9000, TCP cubic/htcp.
//!
//! Each preset also carries the **cost model** — per-operation CPU costs
//! that calibrate the simulator. These are the only free parameters of the
//! reproduction; everything else is protocol logic. Sources for the
//! values are noted inline; where the paper gives a measurement (e.g.
//! "loading data from /dev/zero at 25 Gbps leads to a 50 % utilization of
//! one core") the constant is derived from it.

use crate::link::Link;
use crate::tcp::CcAlgo;
use crate::time::{Bandwidth, SimDur};

/// Descriptive host hardware profile (Table I rows).
#[derive(Debug, Clone)]
pub struct HostProfile {
    pub name: &'static str,
    pub cpu: &'static str,
    pub cores: u32,
    pub mem_gbytes: u32,
    pub os: &'static str,
    pub kernel: &'static str,
}

/// Per-operation CPU costs for one host.
///
/// All `*_ps` fields are picoseconds per byte; all `SimDur` fields are per
/// operation.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Posting one work request (doorbell + descriptor build).
    /// ~0.7 us on RoCE; the paper observes libibverbs has lower overhead
    /// on InfiniBand, modelled as ~0.5 us.
    pub verbs_post: SimDur,
    /// Reaping one completion-queue entry including the interrupt /
    /// event-channel wakeup amortized over it.
    pub verbs_cqe: SimDur,
    /// Reaping an *additional* completion within one interrupt batch
    /// (pure poll, no wakeup). Used when CQ moderation coalesces
    /// completions (`create_cq_moderated`).
    pub verbs_poll: SimDur,
    /// Registering memory: pinning cost per 4 KiB page.
    pub mr_reg_per_page: SimDur,
    /// One socket syscall (send/recv/poll dispatch).
    pub syscall: SimDur,
    /// Kernel TCP/IP processing per wire packet (softirq side).
    pub tcp_per_packet: SimDur,
    /// User<->kernel copy, picoseconds per byte (~250 ps/B = 4 GB/s/core).
    pub copy_per_byte_ps: u64,
    /// Application "loading" cost, picoseconds per byte. Derived from the
    /// paper: filling buffers from /dev/zero at 25 Gbps used 50 % of one
    /// core, i.e. 0.5 core-s per 3.125 GB = 160 ps/B.
    pub load_per_byte_ps: u64,
    /// Consuming received data into /dev/null (near zero).
    pub sink_per_byte_ps: u64,
    /// Direct-I/O disk write path per byte (DMA setup, alignment; no
    /// kernel buffer copy).
    pub disk_direct_per_byte_ps: u64,
    /// POSIX buffered disk write path per byte (user→page-cache copy
    /// plus writeback bookkeeping).
    pub disk_buffered_per_byte_ps: u64,
    /// Per-operation cost jitter, ± percent, applied by the fabric with
    /// a seeded RNG. Zero (the default) keeps runs perfectly idealized;
    /// a real host's cache misses and scheduling noise correspond to
    /// 10–30. Jitter desynchronizes parallel channels, producing the
    /// out-of-order arrivals real multi-QP transfers exhibit.
    pub jitter_pct: u32,
}

impl CostModel {
    /// Costs for a RoCE host (Ethernet verbs path).
    pub fn roce() -> CostModel {
        CostModel {
            verbs_post: SimDur::from_nanos(700),
            verbs_cqe: SimDur::from_nanos(2_000),
            verbs_poll: SimDur::from_nanos(400),
            mr_reg_per_page: SimDur::from_nanos(350),
            syscall: SimDur::from_nanos(1_200),
            tcp_per_packet: SimDur::from_nanos(600),
            copy_per_byte_ps: 250,
            load_per_byte_ps: 160,
            sink_per_byte_ps: 10,
            disk_direct_per_byte_ps: 30,
            disk_buffered_per_byte_ps: 300,
            jitter_pct: 0,
        }
    }

    /// Costs for a native InfiniBand host: the paper notes RFTP consumes
    /// less CPU on IB because libibverbs has lower overhead there.
    pub fn infiniband() -> CostModel {
        CostModel {
            verbs_post: SimDur::from_nanos(500),
            verbs_cqe: SimDur::from_nanos(1_400),
            verbs_poll: SimDur::from_nanos(300),
            mr_reg_per_page: SimDur::from_nanos(350),
            syscall: SimDur::from_nanos(1_200),
            tcp_per_packet: SimDur::from_nanos(600),
            copy_per_byte_ps: 250,
            load_per_byte_ps: 160,
            sink_per_byte_ps: 10,
            disk_direct_per_byte_ps: 30,
            disk_buffered_per_byte_ps: 300,
            jitter_pct: 0,
        }
    }
}

/// A complete experiment environment: link + two hosts + cost models.
#[derive(Debug, Clone)]
pub struct Testbed {
    pub name: &'static str,
    /// NIC signalling rate as quoted in Table I ("NICs (Gbps)").
    pub nic_gbps: u32,
    /// Effective bare-metal ceiling: what the hardware can actually carry
    /// (PCIe 2.0 x8 caps the IB testbed at ~25.6 Gbps).
    pub bare_metal: Bandwidth,
    /// One-way propagation delay.
    pub one_way: SimDur,
    pub mtu: u32,
    /// Link-layer overhead per MTU packet (headers, CRC, IPG).
    pub wire_overhead_per_packet: u32,
    pub src: HostProfile,
    pub dst: HostProfile,
    pub src_costs: CostModel,
    pub dst_costs: CostModel,
    /// TCP variant the hosts were tuned with (Table I row).
    pub tcp_algo: CcAlgo,
    /// Residual random loss probability per wire packet (clean research
    /// networks: zero on LANs, a residual microloss on the 2000-mile path).
    pub loss_per_packet: f64,
    /// RTT as reported in Table I, for display.
    pub rtt_ms: f64,
}

impl Testbed {
    /// Build the link object for this testbed.
    pub fn link(&self) -> Link {
        Link::new(self.bare_metal, self.one_way, self.mtu)
    }

    /// Path round-trip time.
    pub fn rtt(&self) -> SimDur {
        SimDur(self.one_way.nanos() * 2)
    }

    /// Bandwidth-delay product in bytes (window needed to fill the pipe).
    pub fn bdp_bytes(&self) -> u64 {
        self.bare_metal.bytes_in(self.rtt())
    }

    /// Wire bytes consumed by a message of `payload` bytes.
    pub fn wire_bytes(&self, payload: u64) -> u64 {
        let packets = payload.div_ceil(self.mtu as u64).max(1);
        payload + packets * self.wire_overhead_per_packet as u64
    }
}

/// The 40 Gbps RoCE back-to-back LAN at Stony Brook (Table I, column 2).
pub fn roce_lan() -> Testbed {
    let host = HostProfile {
        name: "sbu-roce",
        cpu: "Intel Xeon X5650 2.67GHz",
        cores: 12,
        mem_gbytes: 24,
        os: "CentOS 6.2",
        kernel: "2.6.32-220",
    };
    Testbed {
        name: "RoCE LAN",
        nic_gbps: 40,
        bare_metal: Bandwidth::from_gbps(40),
        one_way: SimDur::from_micros(13), // RTT 0.025 ms, rounded to 26 us round trip
        mtu: 9000,
        wire_overhead_per_packet: 58, // Eth+IP+UDP+IB BTH for RoCE
        src: host.clone(),
        dst: host,
        src_costs: CostModel::roce(),
        dst_costs: CostModel::roce(),
        tcp_algo: CcAlgo::Bic,
        loss_per_packet: 0.0,
        rtt_ms: 0.025,
    }
}

/// The NERSC 4X QDR InfiniBand LAN (Table I, column 1). Link modelled at
/// the PCIe 2.0 x8 ceiling the paper identifies as the bare-metal limit.
pub fn ib_lan() -> Testbed {
    let host = HostProfile {
        name: "nersc-ib",
        cpu: "Intel Xeon X5550 2.67GHz",
        cores: 8,
        mem_gbytes: 48,
        os: "RHEL 5.5",
        kernel: "2.6.18-238",
    };
    Testbed {
        name: "InfiniBand LAN",
        nic_gbps: 40,
        bare_metal: Bandwidth::from_gbps_f64(25.6),
        one_way: SimDur::from_nanos(6_500), // RTT 0.013 ms
        mtu: 65520,
        wire_overhead_per_packet: 30, // native IB LRH+BTH+ICRC per (large) MTU
        src: host.clone(),
        dst: host,
        src_costs: CostModel::infiniband(),
        dst_costs: CostModel::infiniband(),
        tcp_algo: CcAlgo::Cubic,
        loss_per_packet: 0.0,
        rtt_ms: 0.013,
    }
}

/// The DOE ANI 100G testbed WAN path: ANL (Chicago) to NERSC (Oakland),
/// ~2000 miles, 10 Gbps RoCE NICs, 49 ms RTT (Table I, column 3).
pub fn ani_wan() -> Testbed {
    let anl = HostProfile {
        name: "anl",
        cpu: "AMD Opteron 6140 2.6GHz",
        cores: 16,
        mem_gbytes: 64,
        os: "CentOS 5.7",
        kernel: "2.6.32-220",
    };
    let nersc = HostProfile {
        name: "nersc",
        cpu: "Intel Xeon E5530 2.40GHz",
        cores: 8,
        mem_gbytes: 24,
        os: "CentOS 6.2",
        kernel: "2.6.32.27",
    };
    Testbed {
        name: "ANI WAN",
        nic_gbps: 10,
        bare_metal: Bandwidth::from_gbps(10),
        one_way: SimDur::from_micros(24_500), // RTT 49 ms
        mtu: 9000,
        wire_overhead_per_packet: 58,
        src: anl,
        dst: nersc,
        src_costs: CostModel::roce(),
        dst_costs: CostModel::roce(),
        tcp_algo: CcAlgo::Htcp, // NERSC end ran htcp, ANL cubic; htcp governs
        // Residual microloss on the 2000-mile path: ~1 drop per 10^6
        // jumbo packets (one per ~9 GB). Enough to keep single-stream TCP
        // window-limited at 49 ms RTT, invisible to the RDMA transports.
        loss_per_packet: 1e-6,
        rtt_ms: 49.0,
    }
}

/// iWARP LAN: the third RDMA architecture §II discusses. iWARP carries
/// the verbs service over a full offloaded TCP/IP stack (MPA/DDP/RDMAP
/// framing); the paper cites Cohen et al. \[9\] for RoCE being the more
/// efficient Ethernet mapping. Modelled as the RoCE LAN with heavier
/// per-operation verbs costs (TOE doorbells/completions) and larger
/// per-packet framing.
pub fn iwarp_lan() -> Testbed {
    let mut tb = roce_lan();
    tb.name = "iWARP LAN";
    let costs = CostModel {
        verbs_post: SimDur::from_nanos(1_000),
        verbs_cqe: SimDur::from_nanos(3_000),
        verbs_poll: SimDur::from_nanos(700),
        ..CostModel::roce()
    };
    tb.src_costs = costs.clone();
    tb.dst_costs = costs;
    // TCP/IP + MPA framing instead of IB BTH: ~78 B + markers per packet.
    tb.wire_overhead_per_packet = 94;
    tb
}

/// Forward-looking preset: the ESnet 100 Gbps wide-area wave the paper's
/// project targets ("our developmental work is part of a larger project
/// to exploit the full capacity of a 100Gbps network in ... ESnet").
/// Hosts are a generation newer than Table I's (more cores, faster
/// memory paths); the RTT matches the same ANL↔NERSC route.
pub fn esnet_100g() -> Testbed {
    let host = HostProfile {
        name: "esnet-100g",
        cpu: "2x Intel Xeon E5-2680 2.7GHz",
        cores: 32,
        mem_gbytes: 128,
        os: "CentOS 6.2",
        kernel: "2.6.32-220",
    };
    let mut costs = CostModel::roce();
    // Faster memory subsystem on the newer platform.
    costs.load_per_byte_ps = 100;
    costs.copy_per_byte_ps = 180;
    Testbed {
        name: "ESnet 100G WAN",
        nic_gbps: 100,
        bare_metal: Bandwidth::from_gbps(100),
        one_way: SimDur::from_micros(24_500),
        mtu: 9000,
        wire_overhead_per_packet: 58,
        src: host.clone(),
        dst: host,
        src_costs: costs.clone(),
        dst_costs: costs,
        tcp_algo: CcAlgo::Htcp,
        loss_per_packet: 1e-6,
        rtt_ms: 49.0,
    }
}

/// All three Table I presets, in the paper's column order.
pub fn all() -> Vec<Testbed> {
    vec![ib_lan(), roce_lan(), ani_wan()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtts_match_table_one() {
        assert_eq!(roce_lan().rtt(), SimDur::from_micros(26)); // ~0.025 ms
        assert_eq!(ib_lan().rtt(), SimDur::from_micros(13));
        assert_eq!(ani_wan().rtt(), SimDur::from_millis(49));
    }

    #[test]
    fn wan_bdp_is_about_61_megabytes() {
        // 10 Gbps * 49 ms = 61.25 MB — the window GridFTP must sustain.
        let bdp = ani_wan().bdp_bytes();
        assert!((bdp as f64 - 61_250_000.0).abs() < 1e4, "bdp={bdp}");
    }

    #[test]
    fn ib_bare_metal_is_pcie_limited() {
        let tb = ib_lan();
        assert_eq!(tb.nic_gbps, 40);
        assert!((tb.bare_metal.as_gbps() - 25.6).abs() < 1e-9);
    }

    #[test]
    fn wire_bytes_overhead() {
        let tb = roce_lan();
        // One max-size packet: payload + one header.
        assert_eq!(tb.wire_bytes(9000), 9058);
        // 90 KB = 10 packets.
        assert_eq!(tb.wire_bytes(90_000), 90_000 + 580);
        // Tiny control message still pays one header.
        assert_eq!(tb.wire_bytes(64), 64 + 58);
    }

    #[test]
    fn load_cost_matches_paper_measurement() {
        // Paper: loading from /dev/zero at 25 Gbps = 50 % of one core.
        let costs = CostModel::roce();
        let bytes_per_sec = 25_000_000_000u64 / 8;
        let busy = crate::cpu::per_byte_cost(costs.load_per_byte_ps, bytes_per_sec);
        let frac = busy.as_secs_f64();
        assert!((frac - 0.5).abs() < 0.01, "load at 25 Gbps = {frac} cores");
    }

    #[test]
    fn presets_all() {
        let v = all();
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|t| t.src.cores >= 8));
    }

    #[test]
    fn iwarp_is_costlier_than_roce_per_op() {
        let i = iwarp_lan();
        let r = roce_lan();
        assert!(i.src_costs.verbs_cqe > r.src_costs.verbs_cqe);
        assert!(i.wire_overhead_per_packet > r.wire_overhead_per_packet);
        assert_eq!(i.bare_metal, r.bare_metal);
    }

    #[test]
    fn esnet_preset_is_a_bigger_pipe_same_route() {
        let e = esnet_100g();
        assert_eq!(e.rtt(), ani_wan().rtt());
        assert_eq!(e.bare_metal.as_gbps(), 100.0);
        // BDP scales with the rate: ~612 MB of in-flight data needed.
        assert!(e.bdp_bytes() > 600_000_000);
    }
}
