//! Model test: `EventQueue` must behave exactly like a sorted-`Vec`
//! reference — same `(time, seq, event)` pop sequence, same `peek_time`,
//! same `len`, same `next_seq` — under arbitrary schedule/pop/clear
//! interleavings. This is the ordering contract every simulator in the
//! workspace relies on for bit-identical replays.

use simcore::check;
use simcore::prop_assert_eq;
use simcore::{EventQueue, SimTime};

/// The reference future-event list: entries kept sorted by `(time, seq)`,
/// popped from the front. Obviously correct, O(n) per schedule.
#[derive(Default)]
struct Model {
    entries: Vec<(SimTime, u64, u64)>,
    next_seq: u64,
}

impl Model {
    fn schedule(&mut self, time: SimTime, event: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let at = self
            .entries
            .partition_point(|&(t, s, _)| (t, s) < (time, seq));
        self.entries.insert(at, (time, seq, event));
    }

    fn pop_entry(&mut self) -> Option<(SimTime, u64, u64)> {
        (!self.entries.is_empty()).then(|| self.entries.remove(0))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.entries.first().map(|&(t, _, _)| t)
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// One step of a queue workload. Decoded from a `(selector, a, b)` u64
/// triple so the property framework's shrinker applies directly.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule `count` events at `time` (same-instant burst when
    /// `count` is large).
    Schedule { time: u64, count: u64 },
    /// Schedule one far-future outlier at `time << shift`.
    ScheduleFar { time: u64, shift: u32 },
    /// Pop up to `count` events, checking each against the model.
    Pop { count: u64 },
    /// Peek without popping.
    Peek,
    /// Drop everything (sequence counters must survive).
    Clear,
}

fn decode(step: &(u64, u64, u64)) -> Op {
    let (sel, a, b) = *step;
    match sel % 16 {
        // Scheduling dominates so queues actually fill up.
        0..=5 => Op::Schedule {
            time: a % 1_000_000,
            count: 1 + b % 4,
        },
        // Occasional large same-instant burst.
        6 => Op::Schedule {
            time: a % 1_000_000,
            count: 64 + b % 200,
        },
        7..=8 => Op::ScheduleFar {
            time: a,
            shift: (b % 24) as u32,
        },
        9..=12 => Op::Pop { count: 1 + b % 48 },
        13..=14 => Op::Peek,
        _ => Op::Clear,
    }
}

/// Drives the queue and the model through the same op sequence,
/// asserting lockstep observational equality after every step.
fn run_model(ops: &[(u64, u64, u64)]) -> Result<(), String> {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut model = Model::default();
    let mut payload = 0u64;
    for step in ops {
        match decode(step) {
            Op::Schedule { time, count } => {
                for i in 0..count {
                    let t = SimTime::from_nanos(time + i % 3);
                    queue.schedule(t, payload);
                    model.schedule(t, payload);
                    payload += 1;
                }
            }
            Op::ScheduleFar { time, shift } => {
                let t = SimTime::from_nanos(time.saturating_mul(1 << shift));
                queue.schedule(t, payload);
                model.schedule(t, payload);
                payload += 1;
            }
            Op::Pop { count } => {
                for _ in 0..count {
                    // Schedule-while-popping: peek first, then pop, then
                    // sometimes schedule at exactly the popped time (the
                    // soonest legal instant) — the hostile case for FIFO
                    // tie-breaking.
                    prop_assert_eq!(queue.peek_time(), model.peek_time());
                    let q = queue.pop_entry();
                    let m = model.pop_entry();
                    prop_assert_eq!(q, m, "pop diverged: queue={q:?} model={m:?}");
                    let Some((t, seq, _)) = q else { break };
                    if seq % 3 == 0 {
                        queue.schedule(t, payload);
                        model.schedule(t, payload);
                        payload += 1;
                    }
                }
            }
            Op::Peek => {
                prop_assert_eq!(queue.peek_time(), model.peek_time());
            }
            Op::Clear => {
                queue.clear();
                model.clear();
            }
        }
        prop_assert_eq!(queue.len(), model.entries.len());
        prop_assert_eq!(queue.is_empty(), model.entries.is_empty());
        prop_assert_eq!(queue.next_seq(), model.next_seq);
    }
    // Final full drain must agree entry-for-entry.
    loop {
        let q = queue.pop_entry();
        let m = model.pop_entry();
        prop_assert_eq!(q, m, "drain diverged: queue={q:?} model={m:?}");
        if q.is_none() {
            break;
        }
    }
    Ok(())
}

#[test]
fn queue_matches_model_under_random_interleavings() {
    let ops = check::vec(
        (check::u64s(0..), check::u64s(0..), check::u64s(0..)),
        1..120,
    );
    check::check("queue_matches_model", ops, |ops| run_model(ops));
}

/// Deterministic worst cases the random sweep might under-sample.
#[test]
fn queue_matches_model_on_targeted_workloads() {
    // Large same-instant burst straddling pops.
    let mut ops: Vec<(u64, u64, u64)> = vec![(6, 500, 190), (9, 0, 20), (6, 500, 190), (9, 0, 500)];
    // Far-future outliers interleaved with near events, then a drain.
    for i in 0..40 {
        ops.push((7, i + 1, 23));
        ops.push((0, i * 13, 3));
    }
    ops.push((9, 0, 4000));
    // Clear mid-run, then rebuild a population.
    ops.push((15, 0, 0));
    for i in 0..30 {
        ops.push((0, i * 97, 3));
    }
    run_model(&ops).unwrap();
}

/// After any schedule/clear prefix, `next_seq` equals the total number
/// of schedules ever issued: a mid-run clear never re-issues sequence
/// numbers, so same-time events cannot reorder against a `(time, seq)`
/// identity established before the clear.
#[test]
fn check_next_seq_counts_every_schedule_across_clears() {
    let ops = check::vec((check::u64s(0..10), check::u64s(0..50)), 1..60);
    check::check("next_seq_across_clears", ops, |ops| {
        let mut queue: EventQueue<()> = EventQueue::new();
        let mut scheduled = 0u64;
        for &(sel, t) in ops {
            if sel == 0 {
                queue.clear();
            } else {
                queue.schedule(SimTime::from_nanos(t), ());
                scheduled += 1;
            }
            prop_assert_eq!(queue.next_seq(), scheduled);
        }
        Ok(())
    });
}
