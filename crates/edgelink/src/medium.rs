//! Shared-medium radio cells: fair-share bandwidth with progress-based
//! reallocation, client mobility, and mid-session handover.
//!
//! The per-client radios in [`crate::sim`] and [`crate::cluster`] give every
//! session a private serialization pipe, so N clients on one AP never contend
//! for airtime. This module models the regime that actually drives offload
//! decisions in dense MAR deployments: one (or more) cells of fixed capacity
//! whose concurrent flows *fair-share* the medium, with rates re-solved on
//! every flow arrival, departure, rate-cap change, or cross-traffic phase
//! flip.
//!
//! # Progress-based reallocation
//!
//! Following the dslab-network shared-bandwidth design, each in-flight
//! transfer tracks `remaining` bytes rather than a fixed completion time.
//! Whenever the allocation changes, every affected flow is *settled*
//! (`remaining -= rate × elapsed`) and its completion deadline recomputed
//! from the new rate. [`simcore`]'s scheduler has no event cancellation, so
//! the host simulator keeps exactly one logical wake-up outstanding: it
//! schedules an event at [`Medium::next_deadline`] carrying
//! [`Medium::wake_gen`], and ignores any event whose generation is stale.
//! Every mutation bumps the generation.
//!
//! # Fair share
//!
//! Within one cell and direction, rates solve the max-min water-filling
//! problem under per-client caps: flows whose distance-dependent cap is
//! below the equal share get their cap; the residual capacity is split
//! equally among the rest. Uplink and downlink are independent pools.
//! Optional deterministic cross-traffic (a square wave) subtracts from the
//! cell capacity while "on".
//!
//! # Mobility and handover
//!
//! A client is either [`Mobility::Fixed`] or walks a piecewise-linear random
//! waypoint path derived from a per-client seed (`0x3E11_*`-keyed streams,
//! so placement never perturbs other draws). Walking clients are re-evaluated
//! on a fixed tick: position → distance to the serving cell → rate cap; if
//! another cell is closer by more than the hysteresis margin, the client
//! hands over and its in-flight flows move with it, bytes preserved.

use simcore::rng::mix;
use simcore::{SimDuration, SimTime};

use crate::link::Direction;

/// Tag for the waypoint-leg stream of a walking client.
const TAG_WAYPOINT: u64 = 0x3E11_0001;
/// Tag for the initial-placement draw of a client.
const TAG_PLACEMENT: u64 = 0x3E11_0002;

/// Bytes-per-nanosecond for a megabit-per-second figure.
fn bytes_per_ns(mbps: f64) -> f64 {
    mbps / 8000.0
}

/// Megabits-per-second for a bytes-per-nanosecond rate.
fn to_mbps(bpns: f64) -> f64 {
    bpns * 8000.0
}

/// Uniform in `[0, 1)` from a mixed hash.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A flow finishing below this many bytes counts as complete (the ceil on
/// the deadline means settlement can undershoot zero by float dust).
const EPS_BYTES: f64 = 1e-4;

/// Distance-dependent per-client rate cap: `peak / (1 + (d/d_ref)^alpha)`.
///
/// A smooth stand-in for rate adaptation: near the AP a client modulates at
/// `peak_mbps`; at `d_ref_m` it has fallen to half; far out it decays like
/// `d^-alpha`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLaw {
    /// Cap at distance zero, in Mbit/s.
    pub peak_mbps: f64,
    /// Distance at which the cap halves, in meters.
    pub d_ref_m: f64,
    /// Decay exponent beyond `d_ref_m`.
    pub alpha: f64,
}

impl RateLaw {
    /// A Wi-Fi-like cell: 120 Mbit/s at the AP, halved at 20 m, cubic decay.
    pub fn wifi_cell() -> Self {
        RateLaw {
            peak_mbps: 120.0,
            d_ref_m: 20.0,
            alpha: 3.0,
        }
    }

    /// The rate cap at `d_m` meters, in Mbit/s.
    pub fn cap_mbps(&self, d_m: f64) -> f64 {
        self.peak_mbps / (1.0 + (d_m / self.d_ref_m).powf(self.alpha))
    }
}

/// Deterministic on/off background load on a cell: a square wave that
/// subtracts `load_mbps` from the cell capacity for the first `duty`
/// fraction of every `period_ms` window (simulation-start aligned).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossTraffic {
    /// Capacity stolen while the wave is "on", in Mbit/s.
    pub load_mbps: f64,
    /// Wave period, in milliseconds.
    pub period_ms: f64,
    /// Fraction of the period the wave is on, in `(0, 1)`.
    pub duty: f64,
}

impl CrossTraffic {
    /// Is the wave on at `now`?
    fn is_on(&self, now: SimTime) -> bool {
        let period = SimDuration::from_millis_f64(self.period_ms).as_nanos();
        let on = SimDuration::from_millis_f64(self.period_ms * self.duty).as_nanos();
        now.as_nanos() % period < on
    }

    /// The next instant strictly after `now` at which the wave flips.
    fn next_flip(&self, now: SimTime) -> SimTime {
        let period = SimDuration::from_millis_f64(self.period_ms).as_nanos();
        let on = SimDuration::from_millis_f64(self.period_ms * self.duty).as_nanos();
        let phase = now.as_nanos() % period;
        let until = if phase < on {
            on - phase
        } else {
            period - phase
        };
        now + SimDuration::from_nanos(until.max(1))
    }
}

/// One cell site: a position and a shared capacity per direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellParams {
    /// AP position, meters.
    pub x_m: f64,
    /// AP position, meters.
    pub y_m: f64,
    /// Shared uplink capacity, Mbit/s.
    pub uplink_mbps: f64,
    /// Shared downlink capacity, Mbit/s.
    pub downlink_mbps: f64,
    /// Optional deterministic background load.
    pub cross: Option<CrossTraffic>,
}

impl CellParams {
    /// The nominal (cross-traffic-free) capacity for `dir`, Mbit/s.
    fn capacity_mbps(&self, dir: Direction) -> f64 {
        match dir {
            Direction::Up => self.uplink_mbps,
            Direction::Down => self.downlink_mbps,
        }
    }

    /// The effective capacity for `dir` at `now`, Mbit/s.
    fn effective_mbps(&self, dir: Direction, now: SimTime) -> f64 {
        let c = self.capacity_mbps(dir);
        match self.cross {
            Some(x) if x.is_on(now) => (c - x.load_mbps).max(0.0),
            _ => c,
        }
    }
}

/// The shared-medium deployment: cells plus the client-side radio physics.
#[derive(Debug, Clone, PartialEq)]
pub struct MediumParams {
    /// Cell sites (at least one).
    pub cells: Vec<CellParams>,
    /// Distance → per-client rate cap.
    pub rate_law: RateLaw,
    /// Re-evaluation period for walking clients, milliseconds.
    pub mobility_tick_ms: f64,
    /// A client hands over only when another cell is closer than the
    /// serving cell by more than this margin (hysteresis), meters.
    pub handover_margin_m: f64,
}

impl MediumParams {
    /// One cell at the origin with the given capacities and no mobility
    /// churn beyond the defaults.
    pub fn single_cell(uplink_mbps: f64, downlink_mbps: f64) -> Self {
        MediumParams {
            cells: vec![CellParams {
                x_m: 0.0,
                y_m: 0.0,
                uplink_mbps,
                downlink_mbps,
                cross: None,
            }],
            rate_law: RateLaw::wifi_cell(),
            mobility_tick_ms: 250.0,
            handover_margin_m: 5.0,
        }
    }

    /// Panics if the deployment is malformed.
    pub fn validate(&self) {
        assert!(!self.cells.is_empty(), "medium needs at least one cell");
        for c in &self.cells {
            assert!(c.uplink_mbps > 0.0 && c.downlink_mbps > 0.0);
            if let Some(x) = c.cross {
                assert!(x.load_mbps >= 0.0 && x.period_ms > 0.0);
                assert!(x.duty > 0.0 && x.duty < 1.0);
            }
        }
        assert!(self.rate_law.peak_mbps > 0.0 && self.rate_law.d_ref_m > 0.0);
        assert!(self.mobility_tick_ms > 0.0);
        assert!(self.handover_margin_m >= 0.0);
    }
}

/// A single contended cell, packaged for [`crate::sim::EdgeSim`]'s shared
/// mode (and `marsim`'s `EdgeSpec`): one AP at the origin, clients parked at
/// seed-drawn distances inside `radius_m`. `Copy`, so specs embedding it
/// stay `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedCell {
    /// Shared uplink capacity, Mbit/s.
    pub uplink_mbps: f64,
    /// Shared downlink capacity, Mbit/s.
    pub downlink_mbps: f64,
    /// Distance → per-client rate cap.
    pub rate_law: RateLaw,
    /// Clients are placed uniformly inside this radius, meters.
    pub radius_m: f64,
    /// Optional deterministic background load.
    pub cross: Option<CrossTraffic>,
}

impl SharedCell {
    /// The stadium cell the contention sweep uses: an 80/160 Mbit/s AP
    /// serving clients scattered over a 40 m radius.
    pub fn stadium() -> Self {
        SharedCell {
            uplink_mbps: 80.0,
            downlink_mbps: 160.0,
            rate_law: RateLaw::wifi_cell(),
            radius_m: 40.0,
            cross: None,
        }
    }

    /// The [`MediumParams`] deployment for this cell.
    pub fn medium_params(&self) -> MediumParams {
        MediumParams {
            cells: vec![CellParams {
                x_m: 0.0,
                y_m: 0.0,
                uplink_mbps: self.uplink_mbps,
                downlink_mbps: self.downlink_mbps,
                cross: self.cross,
            }],
            rate_law: self.rate_law,
            mobility_tick_ms: 250.0,
            handover_margin_m: 5.0,
        }
    }

    /// The seed-drawn distance of client `i` from the AP: uniform over the
    /// disc (`r·√u`), on a `0x3E11`-keyed stream so placement never
    /// perturbs flow or jitter draws.
    pub fn client_distance_m(&self, master_seed: u64, client: usize) -> f64 {
        let u = unit(mix(mix(master_seed, TAG_PLACEMENT), client as u64));
        self.radius_m * u.sqrt()
    }

    /// The rate-law cap at client `i`'s drawn position, Mbit/s.
    pub fn client_cap_mbps(&self, master_seed: u64, client: usize) -> f64 {
        self.rate_law
            .cap_mbps(self.client_distance_m(master_seed, client))
    }

    /// The effective per-client bandwidth HBO should plan with when `n`
    /// clients share the cell: the smaller of the rate-law cap at the mean
    /// client distance (⅔·radius for a uniform disc) and the equal share
    /// of the cell capacity.
    pub fn effective_client_mbps(&self, dir: Direction, n: usize) -> f64 {
        let cap = self.rate_law.cap_mbps(self.radius_m * 2.0 / 3.0);
        let share = match dir {
            Direction::Up => self.uplink_mbps,
            Direction::Down => self.downlink_mbps,
        } / n.max(1) as f64;
        cap.min(share)
    }
}

/// How a client moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mobility {
    /// Parked at a point.
    Fixed {
        /// Position, meters.
        x_m: f64,
        /// Position, meters.
        y_m: f64,
    },
    /// Random-waypoint walk inside the `[0, area_m]²` square: successive
    /// targets come from the `0x3E11`-keyed stream of `seed`, legs are
    /// walked at constant `speed_mps`.
    Waypoints {
        /// Per-client stream seed.
        seed: u64,
        /// Walking speed, meters per second.
        speed_mps: f64,
        /// Side of the deployment square, meters.
        area_m: f64,
    },
}

impl Mobility {
    /// A parked client at the seed's first waypoint draw — the fixed
    /// counterpart of a [`Mobility::Waypoints`] walk starting from the
    /// same seed, so a deployment can flip walking on and off without
    /// re-placing its population.
    pub fn parked(seed: u64, area_m: f64) -> Mobility {
        let (x_m, y_m) = waypoint(seed, 0, area_m);
        Mobility::Fixed { x_m, y_m }
    }
}

/// The `leg`-th waypoint of a walking client's stream.
fn waypoint(seed: u64, leg: u64, area_m: f64) -> (f64, f64) {
    let s = mix(seed, TAG_WAYPOINT);
    let x = unit(mix(s, 2 * leg)) * area_m;
    let y = unit(mix(s, 2 * leg + 1)) * area_m;
    (x, y)
}

/// A client attached to the medium.
#[derive(Debug, Clone)]
struct ClientState {
    mobility: Mobility,
    /// Serving cell index.
    cell: usize,
    /// Current position (as of the last tick / leg update).
    x: f64,
    y: f64,
    /// Walking state: current leg endpoints and times. Unused when fixed.
    leg: u64,
    leg_from: (f64, f64),
    leg_to: (f64, f64),
    leg_start: SimTime,
    leg_end: SimTime,
    /// Per-client rate cap at the current position, bytes/ns.
    cap: f64,
    /// Next mobility re-evaluation (walking clients only).
    next_tick: Option<SimTime>,
    handovers: u64,
}

impl ClientState {
    /// Position at `t`, advancing waypoint legs as needed.
    fn position_at(&mut self, t: SimTime) -> (f64, f64) {
        let (seed, speed, area) = match self.mobility {
            Mobility::Fixed { .. } => return (self.x, self.y),
            Mobility::Waypoints {
                seed,
                speed_mps,
                area_m,
            } => (seed, speed_mps, area_m),
        };
        while t >= self.leg_end {
            self.leg += 1;
            self.leg_from = self.leg_to;
            self.leg_to = waypoint(seed, self.leg, area);
            self.leg_start = self.leg_end;
            let d = dist(self.leg_from, self.leg_to);
            // A degenerate (zero-length) leg still consumes one tick's worth
            // of time so the loop always terminates.
            let secs = (d / speed.max(1e-9)).max(1e-3);
            self.leg_end = self.leg_start + SimDuration::from_secs_f64(secs);
        }
        let span = (self.leg_end - self.leg_start).as_secs_f64();
        let frac = if span > 0.0 {
            (t - self.leg_start).as_secs_f64() / span
        } else {
            1.0
        };
        self.x = self.leg_from.0 + (self.leg_to.0 - self.leg_from.0) * frac;
        self.y = self.leg_from.1 + (self.leg_to.1 - self.leg_from.1) * frac;
        (self.x, self.y)
    }
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    let dx = a.0 - b.0;
    let dy = a.1 - b.1;
    (dx * dx + dy * dy).sqrt()
}

/// An in-flight transfer.
#[derive(Debug, Clone)]
struct FlowState<K> {
    key: K,
    client: usize,
    dir: Direction,
    size: f64,
    remaining: f64,
    /// Allocated rate, bytes/ns. Zero when the cell is starved.
    rate: f64,
    /// Completion deadline under the current rate (`None` if starved).
    done_at: Option<SimTime>,
}

/// A completed transfer, as reported by [`Medium::advance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion<K> {
    /// The key the flow was started with.
    pub key: K,
    /// The cell that served the final bytes.
    pub cell: usize,
    /// Flow direction.
    pub dir: Direction,
}

/// The shared-medium engine. Host simulators drive it with a single
/// generation-guarded wake event; see the module docs for the protocol.
#[derive(Debug, Clone)]
pub struct Medium<K: Copy> {
    params: MediumParams,
    clients: Vec<ClientState>,
    flows: Vec<Option<FlowState<K>>>,
    free: Vec<usize>,
    /// Per `(cell, dir as index)`: active flow slots, ascending. Rate sums
    /// and trace counters add up in this order.
    active: Vec<[Vec<usize>; 2]>,
    /// Per `(cell, dir as index)`: the water-fill order, `(cap, slot)`
    /// ascending by [`fill_order`]. Maintained by sorted insert and remove;
    /// rebuilt only after a mobility tick, the one place caps change.
    order: Vec<[Vec<(f64, usize)>; 2]>,
    /// Earliest completion deadline, as of the last solve (the only place
    /// `done_at` changes).
    min_done: Option<SimTime>,
    /// Earliest mobility tick over all clients.
    min_tick: Option<SimTime>,
    /// Last instant `remaining` was settled at. Flows start settled and
    /// every mutation settles them all first, so one instant serves all.
    settled_at: SimTime,
    wake_gen: u64,
    /// Instant of the last rate solve (for invariant checking).
    resolved_at: SimTime,
    offered_bytes: f64,
    delivered_bytes: f64,
    handovers: u64,
    reallocs: u64,
}

fn dir_idx(dir: Direction) -> usize {
    match dir {
        Direction::Up => 0,
        Direction::Down => 1,
    }
}

/// The water-fill total order: ascending cap, ties by slot.
fn fill_order(a: &(f64, usize), b: &(f64, usize)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// The earlier of two optional instants.
fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        _ => a.or(b),
    }
}

/// Inserts `slot` into the ascending `lane`.
fn insert_slot(lane: &mut Vec<usize>, slot: usize) {
    let at = lane.binary_search(&slot).expect_err("slot already in lane");
    lane.insert(at, slot);
}

/// Removes `slot` from the ascending `lane`.
fn remove_slot(lane: &mut Vec<usize>, slot: usize) {
    let at = lane.binary_search(&slot).expect("slot in lane");
    lane.remove(at);
}

impl<K: Copy> Medium<K> {
    /// A new medium with no clients and no flows.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`MediumParams::validate`].
    pub fn new(params: MediumParams) -> Self {
        params.validate();
        let n_cells = params.cells.len();
        Medium {
            params,
            clients: Vec::new(),
            flows: Vec::new(),
            free: Vec::new(),
            active: (0..n_cells).map(|_| [Vec::new(), Vec::new()]).collect(),
            order: (0..n_cells).map(|_| [Vec::new(), Vec::new()]).collect(),
            min_done: None,
            min_tick: None,
            settled_at: SimTime::ZERO,
            wake_gen: 0,
            resolved_at: SimTime::ZERO,
            offered_bytes: 0.0,
            delivered_bytes: 0.0,
            handovers: 0,
            reallocs: 0,
        }
    }

    /// Attaches a client at `now`; returns its id. Clients are expected to
    /// be added up front, before the host schedules its first wake.
    pub fn add_client(&mut self, now: SimTime, mobility: Mobility) -> usize {
        let (x, y, leg_to, leg_end, next_tick) = match mobility {
            Mobility::Fixed { x_m, y_m } => (x_m, y_m, (x_m, y_m), SimTime::MAX, None),
            Mobility::Waypoints { seed, area_m, .. } => {
                let start = waypoint(seed, 0, area_m);
                // position_at advances onto leg 1 immediately (leg_end == now).
                let tick = now + SimDuration::from_millis_f64(self.params.mobility_tick_ms);
                (start.0, start.1, start, now, Some(tick))
            }
        };
        let cell = self.nearest_cell(x, y).0;
        let cap = bytes_per_ns(self.params.rate_law.cap_mbps(dist(
            (x, y),
            (self.params.cells[cell].x_m, self.params.cells[cell].y_m),
        )));
        self.clients.push(ClientState {
            mobility,
            cell,
            x,
            y,
            leg: 0,
            leg_from: (x, y),
            leg_to,
            leg_start: now,
            leg_end,
            cap,
            next_tick,
            handovers: 0,
        });
        self.min_tick = earliest(self.min_tick, next_tick);
        self.wake_gen += 1;
        self.clients.len() - 1
    }

    /// Starts a transfer of `bytes` for `client` in `dir`, keyed `key`.
    /// Rates in the client's cell re-solve immediately.
    pub fn start_flow(&mut self, now: SimTime, client: usize, dir: Direction, bytes: f64, key: K) {
        assert!(bytes > 0.0, "flow must carry bytes");
        self.settle_all(now);
        let cell = self.clients[client].cell;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.flows.push(None);
                self.flows.len() - 1
            }
        };
        self.flows[slot] = Some(FlowState {
            key,
            client,
            dir,
            size: bytes,
            remaining: bytes,
            rate: 0.0,
            done_at: None,
        });
        let di = dir_idx(dir);
        insert_slot(&mut self.active[cell][di], slot);
        let entry = (self.clients[client].cap, slot);
        let order = &mut self.order[cell][di];
        let at = order
            .binary_search_by(|e| fill_order(e, &entry))
            .expect_err("slot already in order");
        order.insert(at, entry);
        self.offered_bytes += bytes;
        self.resolve(now);
    }

    /// The earliest internal deadline: a flow completion, a mobility tick,
    /// or a cross-traffic flip. `None` when the medium is fully idle.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let mut t = earliest(self.min_done, self.min_tick);
        // Cross-traffic flips only matter while the cell carries flows.
        for (ci, cell) in self.params.cells.iter().enumerate() {
            if let Some(x) = cell.cross {
                if !self.active[ci][0].is_empty() || !self.active[ci][1].is_empty() {
                    t = earliest(t, Some(x.next_flip(self.resolved_at)));
                }
            }
        }
        t
    }

    /// The current wake generation: bumped on every mutation, so a host
    /// event carrying an older generation is stale and must be ignored.
    pub fn wake_gen(&self) -> u64 {
        self.wake_gen
    }

    /// Processes every internal deadline up to and including `now`,
    /// appending finished transfers to `completed` in deterministic order
    /// (deadline time, then flow slot).
    pub fn advance(&mut self, now: SimTime, completed: &mut Vec<Completion<K>>) {
        loop {
            let step = match self.next_deadline() {
                Some(t) if t <= now => t,
                _ => break,
            };
            self.settle_all(step);
            // 1. Completions at `step` (settled remaining has hit zero),
            //    in slot order.
            for slot in 0..self.flows.len() {
                if !matches!(&self.flows[slot], Some(f) if f.remaining <= EPS_BYTES) {
                    continue;
                }
                let f = self.flows[slot].take().expect("flow just matched");
                let client = &self.clients[f.client];
                let di = dir_idx(f.dir);
                remove_slot(&mut self.active[client.cell][di], slot);
                let order = &mut self.order[client.cell][di];
                let at = order
                    .binary_search_by(|e| fill_order(e, &(client.cap, slot)))
                    .expect("slot in order");
                order.remove(at);
                self.free.push(slot);
                self.delivered_bytes += f.size;
                completed.push(Completion {
                    key: f.key,
                    cell: client.cell,
                    dir: f.dir,
                });
            }
            // 2. Mobility ticks due at `step` (client order). Caps and
            //    cells may change, so the fill orders are rebuilt.
            if self.min_tick.is_some_and(|t| t <= step) {
                for client in 0..self.clients.len() {
                    if self.clients[client].next_tick.is_some_and(|t| t <= step) {
                        self.mobility_tick(client, step);
                    }
                }
                self.min_tick = self.clients.iter().filter_map(|c| c.next_tick).min();
                self.rebuild_order();
            }
            // 3. Re-solve (also refreshes cross-traffic effective capacity,
            //    so a flip deadline needs no handling of its own).
            self.resolve(step);
        }
        // Stamp progress up to `now` so observers see settled state.
        self.settle_all(now);
        self.wake_gen += 1;
    }

    /// Re-evaluates a walking client: position, rate cap, handover. The
    /// caller rebuilds the fill orders afterwards.
    fn mobility_tick(&mut self, client: usize, now: SimTime) {
        let (x, y) = self.clients[client].position_at(now);
        let serving = self.clients[client].cell;
        let (nearest, d_nearest) = self.nearest_cell(x, y);
        let d_serving = dist((x, y), {
            let c = &self.params.cells[serving];
            (c.x_m, c.y_m)
        });
        let mut cell = serving;
        if nearest != serving && d_serving - d_nearest > self.params.handover_margin_m {
            // Handover: move the client and its in-flight flows; bytes
            // remaining carry over untouched. One partition pass per lane.
            for di in 0..2 {
                let mut lane = std::mem::take(&mut self.active[serving][di]);
                let flows = &self.flows;
                let target = &mut self.active[nearest][di];
                lane.retain(|&s| {
                    let moves = flows[s].as_ref().is_some_and(|f| f.client == client);
                    if moves {
                        insert_slot(target, s);
                    }
                    !moves
                });
                self.active[serving][di] = lane;
            }
            self.clients[client].cell = nearest;
            self.clients[client].handovers += 1;
            self.handovers += 1;
            cell = nearest;
        }
        let c = &self.params.cells[cell];
        let cap_mbps = self.params.rate_law.cap_mbps(dist((x, y), (c.x_m, c.y_m)));
        self.clients[client].cap = bytes_per_ns(cap_mbps);
        let tick = SimDuration::from_millis_f64(self.params.mobility_tick_ms);
        self.clients[client].next_tick = Some(now + tick);
    }

    /// Rebuilds every lane's fill order from its active slots and the
    /// clients' current caps.
    fn rebuild_order(&mut self) {
        for (lanes, orders) in self.active.iter().zip(&mut self.order) {
            for (lane, order) in lanes.iter().zip(orders) {
                order.clear();
                order.extend(lane.iter().map(|&s| {
                    let f = self.flows[s].as_ref().expect("active slot live");
                    (self.clients[f.client].cap, s)
                }));
                order.sort_unstable_by(fill_order);
            }
        }
    }

    /// The nearest cell to `(x, y)` and its distance (ties → lowest index).
    fn nearest_cell(&self, x: f64, y: f64) -> (usize, f64) {
        let mut best = (0, f64::INFINITY);
        for (i, c) in self.params.cells.iter().enumerate() {
            let d = dist((x, y), (c.x_m, c.y_m));
            if d < best.1 {
                best = (i, d);
            }
        }
        best
    }

    /// Settles every active flow's `remaining` up to `now`.
    fn settle_all(&mut self, now: SimTime) {
        let dt = (now - self.settled_at).as_nanos() as f64;
        self.settled_at = now;
        if dt > 0.0 {
            for f in self.flows.iter_mut().flatten() {
                if f.rate > 0.0 {
                    f.remaining = (f.remaining - f.rate * dt).max(0.0);
                }
            }
        }
    }

    /// Re-solves every cell's allocation (water-filling under per-client
    /// caps), recomputes completion deadlines and their minimum. Bumps the
    /// generation.
    fn resolve(&mut self, now: SimTime) {
        let mut min_done = None;
        for (ci, cell) in self.params.cells.iter().enumerate() {
            for (di, dir) in [Direction::Up, Direction::Down].into_iter().enumerate() {
                let order = &self.order[ci][di];
                if order.is_empty() {
                    continue;
                }
                // Water-fill: ascending by cap, flows below the equal share
                // take their cap, the rest split the residue evenly.
                let mut left = bytes_per_ns(cell.effective_mbps(dir, now));
                let mut n_left = order.len();
                for &(cap, slot) in order {
                    let share = left / n_left as f64;
                    let rate = cap.min(share).max(0.0);
                    left -= rate;
                    n_left -= 1;
                    let f = self.flows[slot].as_mut().expect("active slot live");
                    f.rate = rate;
                    f.done_at = if rate > 0.0 {
                        let ns = (f.remaining / rate).ceil().max(1.0);
                        Some(self.settled_at + SimDuration::from_nanos(ns as u64))
                    } else {
                        None
                    };
                    min_done = earliest(min_done, f.done_at);
                }
            }
        }
        self.min_done = min_done;
        self.resolved_at = now;
        self.wake_gen += 1;
        self.reallocs += 1;
    }

    // ---- observability ----------------------------------------------------

    /// Number of in-flight flows in `cell` for `dir`.
    pub fn active_flows(&self, cell: usize, dir: Direction) -> usize {
        self.active[cell][dir_idx(dir)].len()
    }

    /// Sum of allocated rates in `cell` for `dir`, Mbit/s.
    pub fn allocated_mbps(&self, cell: usize, dir: Direction) -> f64 {
        to_mbps(
            self.active[cell][dir_idx(dir)]
                .iter()
                .map(|&s| self.flows[s].as_ref().map_or(0.0, |f| f.rate))
                .sum(),
        )
    }

    /// Total handovers across all clients.
    pub fn handovers(&self) -> u64 {
        self.handovers
    }

    /// Number of allocation re-solves performed — every flow arrival,
    /// completion, handover, or cross-traffic flip that forced the
    /// water-filling pass to rerun. The control-plane cost driver of the
    /// shared medium, exposed so sweeps can report it per cell.
    pub fn reallocs(&self) -> u64 {
        self.reallocs
    }

    /// Bytes of backing storage currently held by the medium's dynamic
    /// state (client table, flow slab, free list, per-cell active lists
    /// and fill orders), at reserved vector capacities.
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.clients.capacity() * size_of::<ClientState>()
            + self.flows.capacity() * size_of::<Option<FlowState<K>>>()
            + self.free.capacity() * size_of::<usize>()
            + self
                .active
                .iter()
                .map(|lanes| {
                    size_of::<[Vec<usize>; 2]>()
                        + (lanes[0].capacity() + lanes[1].capacity()) * size_of::<usize>()
                })
                .sum::<usize>()
            + self
                .order
                .iter()
                .map(|lanes| {
                    size_of::<[Vec<(f64, usize)>; 2]>()
                        + (lanes[0].capacity() + lanes[1].capacity()) * size_of::<(f64, usize)>()
                })
                .sum::<usize>()
    }

    /// The serving cell of `client`.
    pub fn client_cell(&self, client: usize) -> usize {
        self.clients[client].cell
    }

    /// The current per-client rate cap of `client`, Mbit/s.
    pub fn client_cap_mbps(&self, client: usize) -> f64 {
        to_mbps(self.clients[client].cap)
    }

    /// Number of cells in the deployment.
    pub fn cell_count(&self) -> usize {
        self.params.cells.len()
    }

    /// Total bytes offered via [`Medium::start_flow`].
    pub fn offered_bytes(&self) -> f64 {
        self.offered_bytes
    }

    /// Total bytes of completed flows.
    pub fn delivered_bytes(&self) -> f64 {
        self.delivered_bytes
    }

    /// Bytes still in flight, as of the last settlement.
    pub fn in_flight_bytes(&self) -> f64 {
        self.flows.iter().flatten().map(|f| f.remaining).sum()
    }

    /// Asserts the allocation invariants: per-cell rate sums within the
    /// effective capacity, every flow within its client's cap, and byte
    /// accounting consistent. Also checks the cached bookkeeping against a
    /// full recomputation: every active lane ascending, every fill order
    /// equal to a fresh `(cap, slot)` sort, and the cached earliest
    /// completion and tick equal to a scan. Used by the property tests.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn check_invariants(&self) {
        const TOL: f64 = 1e-9;
        for (ci, cell) in self.params.cells.iter().enumerate() {
            for (di, dir) in [Direction::Up, Direction::Down].into_iter().enumerate() {
                let cap = bytes_per_ns(cell.effective_mbps(dir, self.resolved_at));
                let sum: f64 = self.active[ci][di]
                    .iter()
                    .map(|&s| self.flows[s].as_ref().expect("active slot live").rate)
                    .sum();
                assert!(
                    sum <= cap * (1.0 + TOL) + TOL,
                    "cell {ci} {dir:?}: allocated {sum} exceeds capacity {cap}"
                );
                for &s in &self.active[ci][di] {
                    let f = self.flows[s].as_ref().expect("active slot live");
                    let ccap = self.clients[f.client].cap;
                    assert!(
                        f.rate <= ccap * (1.0 + TOL) + TOL,
                        "flow {s}: rate {} exceeds client cap {ccap}",
                        f.rate
                    );
                    assert!(f.remaining >= 0.0 && f.remaining <= f.size + TOL);
                }
                let lane = &self.active[ci][di];
                assert!(
                    lane.windows(2).all(|w| w[0] < w[1]),
                    "cell {ci} {dir:?}: active lane out of slot order"
                );
                let mut fresh: Vec<(f64, usize)> = lane
                    .iter()
                    .map(|&s| {
                        let f = self.flows[s].as_ref().expect("active slot live");
                        (self.clients[f.client].cap, s)
                    })
                    .collect();
                fresh.sort_unstable_by(fill_order);
                let cached = &self.order[ci][di];
                assert!(
                    cached.len() == fresh.len()
                        && cached
                            .iter()
                            .zip(&fresh)
                            .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1 == b.1),
                    "cell {ci} {dir:?}: cached fill order {cached:?} != fresh sort {fresh:?}"
                );
            }
        }
        let live = self.flows.iter().flatten().count();
        let laned: usize = self.active.iter().map(|l| l[0].len() + l[1].len()).sum();
        assert_eq!(live, laned, "every live flow sits in exactly one lane");
        let min_done = self.flows.iter().flatten().filter_map(|f| f.done_at).min();
        assert_eq!(
            self.min_done, min_done,
            "cached earliest completion is stale"
        );
        let min_tick = self.clients.iter().filter_map(|c| c.next_tick).min();
        assert_eq!(self.min_tick, min_tick, "cached earliest tick is stale");
        let in_flight = self.in_flight_bytes();
        let settled = self.offered_bytes - self.delivered_bytes;
        // In-flight bytes can only be less than offered-minus-delivered by
        // what the flows have already transmitted (settlement), never more.
        assert!(
            in_flight <= settled + 1e-6,
            "in-flight {in_flight} exceeds offered-delivered {settled}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(m: &mut Medium<u64>, until: SimTime) -> Vec<Completion<u64>> {
        let mut out = Vec::new();
        // Host-style drive loop: jump to each deadline in turn.
        while let Some(t) = m.next_deadline() {
            if t > until {
                break;
            }
            m.advance(t, &mut out);
            m.check_invariants();
        }
        out
    }

    #[test]
    fn single_flow_runs_at_cap() {
        let mut m: Medium<u64> = Medium::new(MediumParams::single_cell(80.0, 160.0));
        let c = m.add_client(SimTime::ZERO, Mobility::Fixed { x_m: 0.0, y_m: 0.0 });
        // At the AP the cap is the rate-law peak (120) > cell capacity (80):
        // the flow gets the full cell.
        m.start_flow(SimTime::ZERO, c, Direction::Up, 10_000.0, 7);
        assert!((m.allocated_mbps(0, Direction::Up) - 80.0).abs() < 1e-9);
        // 10 kB at 80 Mbit/s = 1 ms.
        let done = drain(&mut m, SimTime::from_secs_f64(1.0));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].key, 7);
        let t = m.next_deadline();
        assert!(t.is_none(), "idle medium has no deadline, got {t:?}");
        assert!((m.delivered_bytes() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_halve_and_reallocate_on_departure() {
        let mut m: Medium<u64> = Medium::new(MediumParams::single_cell(80.0, 160.0));
        let a = m.add_client(SimTime::ZERO, Mobility::Fixed { x_m: 0.0, y_m: 0.0 });
        let b = m.add_client(SimTime::ZERO, Mobility::Fixed { x_m: 0.0, y_m: 0.0 });
        // a: 10 kB, b: 20 kB — both capped at 80/2 = 40 Mbit/s while
        // sharing; a finishes first, b then speeds up to the full 80.
        m.start_flow(SimTime::ZERO, a, Direction::Up, 10_000.0, 1);
        m.start_flow(SimTime::ZERO, b, Direction::Up, 20_000.0, 2);
        m.check_invariants();
        assert!((m.allocated_mbps(0, Direction::Up) - 80.0).abs() < 1e-9);
        let done = drain(&mut m, SimTime::from_secs_f64(1.0));
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].key, 1);
        assert_eq!(done[1].key, 2);
        // a: shared 40 Mbit/s for its whole 10 kB → 2 ms. b: 2 ms at
        // 40 Mbit/s (10 kB done) + 10 kB at 80 Mbit/s (1 ms) → 3 ms total.
        assert!((m.delivered_bytes() - 30_000.0).abs() < 1e-9);
        assert_eq!(m.in_flight_bytes(), 0.0);
    }

    #[test]
    fn distant_client_is_capped_below_fair_share() {
        let mut m: Medium<u64> = Medium::new(MediumParams::single_cell(80.0, 160.0));
        let near = m.add_client(SimTime::ZERO, Mobility::Fixed { x_m: 0.0, y_m: 0.0 });
        // At 40 m with d_ref 20 m, cubic: cap = 120/(1+8) ≈ 13.3 Mbit/s.
        let far = m.add_client(
            SimTime::ZERO,
            Mobility::Fixed {
                x_m: 40.0,
                y_m: 0.0,
            },
        );
        m.start_flow(SimTime::ZERO, near, Direction::Up, 1e6, 1);
        m.start_flow(SimTime::ZERO, far, Direction::Up, 1e6, 2);
        m.check_invariants();
        let cap_far = m.client_cap_mbps(far);
        assert!((cap_far - 120.0 / 9.0).abs() < 1e-9);
        // Far flow gets its cap, near flow gets the residue.
        let total = m.allocated_mbps(0, Direction::Up);
        assert!((total - 80.0).abs() < 1e-9);
    }

    #[test]
    fn cross_traffic_throttles_and_releases() {
        let mut params = MediumParams::single_cell(80.0, 160.0);
        params.cells[0].cross = Some(CrossTraffic {
            load_mbps: 40.0,
            period_ms: 10.0,
            duty: 0.5,
        });
        let mut m: Medium<u64> = Medium::new(params);
        let c = m.add_client(SimTime::ZERO, Mobility::Fixed { x_m: 0.0, y_m: 0.0 });
        // 100 kB. First 5 ms at 40 Mbit/s moves 25 kB; next 5 ms at
        // 80 Mbit/s moves 50 kB; remaining 25 kB at 40 Mbit/s takes 5 ms.
        // Done at exactly 15 ms.
        m.start_flow(SimTime::ZERO, c, Direction::Up, 100_000.0, 9);
        assert!((m.allocated_mbps(0, Direction::Up) - 40.0).abs() < 1e-9);
        let done = drain(&mut m, SimTime::from_secs_f64(1.0));
        assert_eq!(done.len(), 1);
        assert!((m.delivered_bytes() - 100_000.0).abs() < 1e-9);
    }

    #[test]
    fn walking_client_hands_over_and_preserves_bytes() {
        let mut params = MediumParams::single_cell(80.0, 160.0);
        params.cells.push(CellParams {
            x_m: 100.0,
            y_m: 0.0,
            uplink_mbps: 80.0,
            downlink_mbps: 160.0,
            cross: None,
        });
        params.handover_margin_m = 5.0;
        let mut m: Medium<u64> = Medium::new(params);
        // A fast deterministic march from cell 0 towards cell 1 would need
        // scripted waypoints; instead park near cell 1 but attach while the
        // walk starts at the seed-drawn position, and rely on the waypoint
        // walk to cross the midline eventually. Use a seed whose first
        // waypoint lands in cell 0's half so a handover is observable.
        let mut seed = 1u64;
        loop {
            let (x, _) = waypoint(seed, 0, 100.0);
            if x < 40.0 {
                break;
            }
            seed += 1;
        }
        let c = m.add_client(
            SimTime::ZERO,
            Mobility::Waypoints {
                seed,
                speed_mps: 30.0,
                area_m: 100.0,
            },
        );
        assert_eq!(m.client_cell(c), 0);
        // Keep the uplink busy with a huge flow while the client walks.
        m.start_flow(SimTime::ZERO, c, Direction::Up, 1e9, 1);
        let mut out = Vec::new();
        let horizon = SimTime::from_secs_f64(60.0);
        while let Some(d) = m.next_deadline() {
            if d > horizon {
                break;
            }
            m.advance(d, &mut out);
            m.check_invariants();
            if m.handovers() > 0 {
                break;
            }
        }
        assert!(m.handovers() > 0, "60 s random walk never handed over");
        // Bytes preserved: in-flight + delivered == offered.
        assert!(m.in_flight_bytes() > 0.0);
        assert!(m.in_flight_bytes() <= m.offered_bytes() - m.delivered_bytes() + 1e-6);
    }

    #[test]
    fn wake_generation_bumps_on_every_mutation() {
        let mut m: Medium<u64> = Medium::new(MediumParams::single_cell(80.0, 160.0));
        let g0 = m.wake_gen();
        let c = m.add_client(SimTime::ZERO, Mobility::Fixed { x_m: 0.0, y_m: 0.0 });
        let g1 = m.wake_gen();
        assert!(g1 > g0);
        m.start_flow(SimTime::ZERO, c, Direction::Up, 1000.0, 1);
        let g2 = m.wake_gen();
        assert!(g2 > g1);
        let mut out = Vec::new();
        m.advance(m.next_deadline().expect("flow pending"), &mut out);
        assert!(m.wake_gen() > g2);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn footprint_counts_the_fill_order_buffers() {
        use std::mem::size_of;
        let mut m: Medium<u64> = Medium::new(MediumParams::single_cell(80.0, 160.0));
        let c = m.add_client(SimTime::ZERO, Mobility::Fixed { x_m: 0.0, y_m: 0.0 });
        let before = m.footprint_bytes();
        for key in 0..100 {
            m.start_flow(SimTime::ZERO, c, Direction::Up, 1e6, key);
        }
        // Each flow holds a slab entry, an active-lane slot and a
        // fill-order entry; the footprint must cover all three buffers.
        let slab = m.flows.capacity() * size_of::<Option<FlowState<u64>>>();
        let lane = m.active[0][0].capacity() * size_of::<usize>();
        let order = m.order[0][0].capacity() * size_of::<(f64, usize)>();
        assert!(order >= 100 * size_of::<(f64, usize)>());
        let grown = m.footprint_bytes() - before;
        assert!(
            grown >= slab + lane + order,
            "footprint grew {grown} B, want at least {} (slab {slab} + lane {lane} + order {order})",
            slab + lane + order
        );
    }

    /// FNV-1a over 64-bit words.
    fn fold(h: &mut u64, word: u64) {
        for b in word.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds everything a host can observe after a mutation: the wake
    /// deadline and every lane's allocated rate sum and flow count.
    fn fold_observables(h: &mut u64, m: &Medium<u64>) {
        fold(h, m.next_deadline().map_or(u64::MAX, |t| t.as_nanos()));
        for cell in 0..m.cell_count() {
            for dir in [Direction::Up, Direction::Down] {
                fold(h, m.allocated_mbps(cell, dir).to_bits());
                fold(h, m.active_flows(cell, dir) as u64);
            }
        }
    }

    /// Pins the medium's exact numbers on a crowded seeded schedule: 72
    /// clients (54 walking across the handover line) over two cells, one
    /// of them under cross traffic, 1500 flow arrivals interleaved with
    /// completions and mobility ticks, then a full drain. Every completion
    /// `(time, key, cell, dir)` and every allocated rate sum after every
    /// mutation is hashed bit for bit, so any change to settlement,
    /// water-fill arithmetic, deadlines or completion order moves it.
    #[test]
    fn seeded_schedule_golden_hash() {
        let mut params = MediumParams::single_cell(120.0, 240.0);
        params.cells.push(CellParams {
            x_m: 120.0,
            y_m: 0.0,
            uplink_mbps: 120.0,
            downlink_mbps: 240.0,
            cross: Some(CrossTraffic {
                load_mbps: 50.0,
                period_ms: 7.0,
                duty: 0.4,
            }),
        });
        params.mobility_tick_ms = 50.0;
        let mut m: Medium<u64> = Medium::new(params);
        const CLIENTS: u64 = 72;
        for i in 0..CLIENTS {
            let seed = mix(0x601D, i);
            let mobility = if i % 4 == 3 {
                Mobility::parked(seed, 120.0)
            } else {
                Mobility::Waypoints {
                    seed,
                    speed_mps: 30.0,
                    area_m: 120.0,
                }
            };
            m.add_client(SimTime::ZERO, mobility);
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut out = Vec::new();
        let record = |h: &mut u64, m: &Medium<u64>, at: SimTime, out: &mut Vec<_>| {
            for c in out.drain(..) {
                let Completion { key, cell, dir } = c;
                fold(h, at.as_nanos());
                fold(h, key);
                fold(h, cell as u64);
                fold(h, dir_idx(dir) as u64);
            }
            fold_observables(h, m);
            m.check_invariants();
        };
        let mut now = SimTime::ZERO;
        let mut completed = 0usize;
        for step in 0..1500u64 {
            let draw = mix(0xF10E, step);
            let arrive = now + SimDuration::from_nanos(draw % 2_000_000);
            // Host-style drive: wake at every internal deadline before
            // the next arrival.
            while let Some(t) = m.next_deadline().filter(|&t| t <= arrive) {
                m.advance(t, &mut out);
                completed += out.len();
                record(&mut h, &m, t, &mut out);
            }
            now = arrive;
            m.advance(now, &mut out);
            completed += out.len();
            record(&mut h, &m, now, &mut out);
            let client = ((draw >> 24) % CLIENTS) as usize;
            let dir = if (draw >> 40) & 1 == 0 {
                Direction::Up
            } else {
                Direction::Down
            };
            let bytes = 1_000.0 + ((draw >> 41) % 60_000) as f64;
            m.start_flow(now, client, dir, bytes, step);
            record(&mut h, &m, now, &mut out);
        }
        while let Some(t) = m.next_deadline() {
            if m.active_flows(0, Direction::Up)
                + m.active_flows(0, Direction::Down)
                + m.active_flows(1, Direction::Up)
                + m.active_flows(1, Direction::Down)
                == 0
            {
                break;
            }
            m.advance(t, &mut out);
            completed += out.len();
            record(&mut h, &m, t, &mut out);
        }
        fold(&mut h, m.handovers());
        fold(&mut h, m.reallocs());
        assert_eq!(completed, 1500, "every flow completes");
        assert!(m.handovers() >= 10, "walkers must cross the handover line");
        assert_eq!(h, 0x7f09_d422_c416_1833, "medium golden hash moved");
    }
}

#[cfg(test)]
mod properties {
    //! Property tests for the medium invariants (ISSUE 9, satellite 4):
    //! under any seed, population, capacity, and walking speed, the sum
    //! of allocated rates never exceeds capacity, bytes are conserved
    //! across every rate change and handover, and every offered byte is
    //! eventually delivered.

    use simcore::check::{self, f64s, u64s, usizes};
    use simcore::prop_assert;
    use simcore::rng::mix;
    use simcore::SimTime;

    use super::{CellParams, Medium, MediumParams, Mobility};
    use crate::link::Direction;

    #[test]
    fn rates_capped_and_bytes_conserved_under_churn_and_handover() {
        check::check(
            "medium_invariants",
            (u64s(..), usizes(1..=6), f64s(10.0..200.0), f64s(0.0..15.0)),
            |&(seed, n_clients, cap_mbps, speed_mps)| {
                // Two cells 80 m apart; walkers cross the handover
                // boundary, parked clients (speed drawn ~0) never do.
                let mut params = MediumParams::single_cell(cap_mbps, cap_mbps * 2.0);
                params.cells.push(CellParams {
                    x_m: 80.0,
                    y_m: 0.0,
                    uplink_mbps: cap_mbps,
                    downlink_mbps: cap_mbps * 2.0,
                    cross: None,
                });
                let mut m: Medium<u64> = Medium::new(params);
                for i in 0..n_clients {
                    let client_seed = mix(seed, i as u64);
                    let mobility = if speed_mps > 0.5 {
                        Mobility::Waypoints {
                            seed: client_seed,
                            speed_mps,
                            area_m: 100.0,
                        }
                    } else {
                        Mobility::parked(client_seed, 100.0)
                    };
                    m.add_client(SimTime::ZERO, mobility);
                }
                // Churn: start flows at the medium's own deadline pace so
                // arrivals interleave with completions, mobility ticks,
                // and handovers; check_invariants pins the rate-cap and
                // byte-conservation invariants at every mutation.
                let mut now = SimTime::ZERO;
                let mut out = Vec::new();
                for step in 0..30u64 {
                    let draw = mix(seed, 0x1000 + step);
                    let client = (draw % n_clients as u64) as usize;
                    let dir = if draw & 1 == 0 {
                        Direction::Up
                    } else {
                        Direction::Down
                    };
                    let bytes = 1_000.0 + ((draw >> 8) % 200_000) as f64;
                    m.start_flow(now, client, dir, bytes, step);
                    m.check_invariants();
                    if let Some(t) = m.next_deadline() {
                        now = now.max(t);
                        m.advance(now, &mut out);
                        m.check_invariants();
                    }
                }
                // Drain: every offered byte must eventually complete
                // (mobility ticks alone must not starve the drain).
                while m.in_flight_bytes() > 1e-4 {
                    let t = m.next_deadline().expect("in-flight bytes need a deadline");
                    now = now.max(t);
                    m.advance(now, &mut out);
                    m.check_invariants();
                }
                prop_assert!(
                    (m.offered_bytes() - m.delivered_bytes()).abs() < 1e-3,
                    "bytes leaked: offered {} delivered {} after {} handovers",
                    m.offered_bytes(),
                    m.delivered_bytes(),
                    m.handovers()
                );
                prop_assert!(out.len() == 30, "completed {} of 30 flows", out.len());
                Ok(())
            },
        );
    }
}
