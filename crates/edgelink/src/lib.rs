//! edgelink — wireless link + multi-client edge inference server for the
//! HBO reproduction.
//!
//! The paper's decision space assumes every AI task runs on the device
//! (CPU / GPU / NNAPI). This crate models the fourth option — offloading
//! the task over a wireless link to a shared edge server — so HBO can
//! treat **Edge** as one more allocation target rather than a separate
//! system (see `DESIGN.md` §6 for the rationale).
//!
//! Three layers, from pure to orchestrated:
//!
//! - [`link`] — a parametric uplink/downlink model: serialization at the
//!   configured bandwidth, lognormal propagation jitter around `rtt/2`,
//!   and loss handled as bounded retransmission. Transfer plans are pure
//!   functions of `(params, direction, bytes, flow seed, sequence
//!   number)`, so the simulation re-derives them instead of storing them
//!   and determinism is free.
//! - [`server`] — an edge inference server: K worker lanes (reusing
//!   [`soc::FifoServer`]) behind a *bounded* admission queue that NACKs
//!   overload instead of buffering it.
//! - [`medium`] — [`medium::Medium`], the shared-bandwidth radio layer:
//!   contended cells whose flows fair-share capacity with progress-based
//!   reallocation, distance-dependent rate caps, waypoint mobility, and
//!   mid-session handover. Both simulators below can run on it instead of
//!   per-client radios (enum-selected; the private default is untouched).
//! - [`sim`] — [`sim::EdgeSim`], the discrete-event loop in which N
//!   closed-loop clients contend for the same link profile and server.
//! - [`cluster`] — [`cluster::ClusterSim`], the fleet-scale layer:
//!   heterogeneous churning sessions routed across multiple servers by a
//!   pluggable load-balancing policy ([`cluster::RoutePolicy`]).
//!
//! Everything is deterministic under [`simcore::rng`] streams: a fixed
//! master seed produces bit-identical traces regardless of host or
//! thread count (the property tests below and the `edge_offload` golden
//! test pin this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod link;
pub mod medium;
pub mod server;
pub mod sim;

pub use cluster::{
    ClusterMetrics, ClusterParams, ClusterRadio, ClusterSim, RoutePolicy, ServerSpec, SessionSpec,
    SharedMedium,
};
pub use link::{plan_transfer, ByteCounters, Direction, LinkParams, TransferPlan};
pub use medium::{CellParams, CrossTraffic, Medium, MediumParams, Mobility, RateLaw, SharedCell};
pub use server::{Admission, EdgeServer, ServerParams};
pub use sim::{ClientSpec, EdgeSim, FlowMetrics};

#[cfg(test)]
mod properties {
    //! Property tests for the link invariants (ISSUE 4, satellite b).

    use simcore::check::{self, f64s, u64s, usizes};
    use simcore::trace::Tracer;
    use simcore::{prop_assert, prop_assert_eq};

    use crate::link::{plan_transfer, Direction, LinkParams};
    use crate::sim::{ClientSpec, EdgeSim};
    use crate::ServerParams;

    fn world(seed: u64, n_clients: usize, link: LinkParams) -> EdgeSim {
        let clients = (0..n_clients)
            .map(|i| ClientSpec::mar_default(format!("c{i}")))
            .collect();
        EdgeSim::new(
            link,
            ServerParams::small(),
            None,
            clients,
            seed,
            Tracer::disabled(),
        )
    }

    /// End-to-end latency is strictly positive and finite for every
    /// delivery, under any seed, client count, bandwidth, and jitter.
    #[test]
    fn latency_is_positive_and_finite() {
        check::check(
            "edgelink_latency_positive",
            (u64s(..), usizes(1..=6), f64s(2.0..200.0), f64s(0.0..1.5)),
            |&(seed, n, mbps, sigma)| {
                let link = LinkParams {
                    uplink_mbps: mbps,
                    downlink_mbps: mbps * 2.0,
                    jitter_sigma: sigma,
                    ..LinkParams::wifi()
                };
                let mut sim = world(seed, n, link);
                sim.run_for_secs(5.0);
                for c in 0..n {
                    let m = sim.metrics(c);
                    prop_assert!(m.completed() > 0, "client {c} completed nothing");
                    for &(_, lat) in m.samples() {
                        prop_assert!(
                            lat.is_finite() && lat > 0.0,
                            "client {c}: bad latency {lat}"
                        );
                    }
                }
                Ok(())
            },
        );
    }

    /// Deliveries stay FIFO per flow despite propagation jitter: delivery
    /// timestamps never go backwards, and the simulator's internal
    /// sequence-order assertion (which would panic on reordering) holds
    /// even with violent jitter.
    #[test]
    fn fifo_per_flow_despite_jitter() {
        check::check(
            "edgelink_fifo_per_flow",
            (u64s(..), usizes(1..=5), f64s(0.5..2.5)),
            |&(seed, n, sigma)| {
                let link = LinkParams {
                    jitter_sigma: sigma,
                    ..LinkParams::wifi()
                };
                let mut sim = world(seed, n, link);
                sim.run_for_secs(8.0);
                for c in 0..n {
                    let samples = sim.metrics(c).samples();
                    prop_assert!(samples.len() > 1, "client {c}: too few deliveries");
                    for w in samples.windows(2) {
                        prop_assert!(
                            w[0].0 <= w[1].0,
                            "client {c}: delivery times went backwards"
                        );
                    }
                }
                Ok(())
            },
        );
    }

    /// Byte conservation across retransmits: nothing is created or lost.
    /// Offered bytes either arrive or belong to the (at most one per
    /// flow) in-flight request; the air carries at least every offered
    /// byte and at most `max_attempts` copies of each.
    #[test]
    fn bytes_conserved_across_retransmits() {
        check::check(
            "edgelink_byte_conservation",
            (u64s(..), usizes(1..=5), f64s(0.0..0.8)),
            |&(seed, n, loss)| {
                let link = LinkParams {
                    loss_prob: loss,
                    ..LinkParams::wifi()
                };
                let mut sim = world(seed, n, link);
                sim.run_for_secs(10.0);
                for c in 0..n {
                    let m = sim.metrics(c);
                    let spec = ClientSpec::mar_default("x");
                    for (dir, b, bytes) in [
                        ("up", &m.uplink, spec.request_bytes),
                        ("down", &m.downlink, spec.response_bytes),
                    ] {
                        prop_assert!(
                            b.delivered <= b.offered,
                            "client {c} {dir}: delivered {} > offered {}",
                            b.delivered,
                            b.offered
                        );
                        // Closed loop: at most one request in flight per
                        // flow, so at most one payload is unaccounted.
                        prop_assert!(
                            b.offered - b.delivered <= bytes,
                            "client {c} {dir}: lost bytes ({} offered, {} delivered)",
                            b.offered,
                            b.delivered
                        );
                        prop_assert!(
                            b.transmitted >= b.delivered,
                            "client {c} {dir}: transmitted < delivered"
                        );
                        prop_assert!(
                            b.transmitted <= b.offered * link.max_attempts as u64,
                            "client {c} {dir}: more copies than max_attempts allows"
                        );
                    }
                    prop_assert_eq!(
                        m.uplink.offered % spec.request_bytes,
                        0,
                        "client {c}: offered uplink bytes not a whole number of requests"
                    );
                }
                Ok(())
            },
        );
    }

    /// Transfer plans are pure: the same identity always yields the same
    /// plan, and distinct flows draw from independent streams.
    #[test]
    fn transfer_plans_are_pure_functions_of_identity() {
        check::check(
            "edgelink_plan_purity",
            (u64s(..), u64s(1..100_000), f64s(0.0..0.9)),
            |&(flow_seed, seq, loss)| {
                let link = LinkParams {
                    loss_prob: loss,
                    ..LinkParams::wifi()
                };
                let a = plan_transfer(&link, Direction::Up, 4096, flow_seed, seq);
                let b = plan_transfer(&link, Direction::Up, 4096, flow_seed, seq);
                prop_assert_eq!(a.attempts, b.attempts);
                prop_assert_eq!(a.occupancy, b.occupancy);
                prop_assert_eq!(a.propagation, b.propagation);
                prop_assert!(a.attempts >= 1 && a.attempts <= link.max_attempts);
                Ok(())
            },
        );
    }
}
