//! Correlation-based (Markov) prefetching.
//!
//! The paper cites Charney & Reeves, *Generalized Correlation Based
//! Hardware Prefetching* (1995) as one of the aggressive prefetcher
//! families its filter must tame: "correlation-based prefetching keeps
//! prior L1 cache miss addresses and triggers prefetches by correlating
//! subsequent misses to the history" (§1.1). It is not part of the
//! paper's evaluated mix; this implementation backs the prefetcher-mix
//! ablations in `ppf-bench` (a third differently-shaped generator next to
//! NSP's spatial guess and SDP's L2-side successor).
//!
//! Structure: a direct-mapped correlation table keyed by L1 *miss* line;
//! each entry remembers up to [`WAYS`] successor miss lines in MRU order.
//! On a miss to `X`, the entry for the *previous* miss learns `X` as a
//! successor, and `X`'s own successors are emitted as prefetch candidates
//! (most-recent first, up to the configured degree).

use crate::{AccessEvent, Prefetcher};
use ppf_types::{LineAddr, PrefetchRequest, PrefetchSource};

/// Successors remembered per entry.
pub const WAYS: usize = 2;

/// Miss-correlation prefetcher.
///
/// The table is allocated zeroed and a state of 0 marks an empty slot, so
/// a fresh table needs no initialising writes.
#[derive(Debug, Clone)]
pub struct CorrelationPrefetcher {
    /// Per slot: the miss line it describes, then its [`WAYS`] successor
    /// miss lines, MRU first.
    slots: Box<[[u64; 1 + WAYS]]>,
    /// Per slot: 0 = empty, else 1 + the number of successors held (the
    /// held ones always come first).
    state: Box<[u8]>,
    mask: u64,
    last_miss: Option<LineAddr>,
    /// Successors emitted per trigger (1..=WAYS).
    degree: usize,
}

impl CorrelationPrefetcher {
    /// A correlation table with `entries` slots (power of two), emitting
    /// one successor per trigger.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two());
        CorrelationPrefetcher {
            slots: vec![[0; 1 + WAYS]; entries].into_boxed_slice(),
            state: vec![0; entries].into_boxed_slice(),
            mask: (entries - 1) as u64,
            last_miss: None,
            degree: 1,
        }
    }

    /// Emit up to `degree` remembered successors per trigger.
    pub fn with_degree(mut self, degree: usize) -> Self {
        assert!((1..=WAYS).contains(&degree));
        self.degree = degree;
        self
    }

    /// Table size.
    pub fn entries(&self) -> usize {
        self.state.len()
    }

    #[inline]
    fn slot(&self, line: LineAddr) -> usize {
        (line.0 & self.mask) as usize
    }

    /// Successors remembered for `line`, MRU first (empty on a tag miss).
    fn successors(&self, line: LineAddr) -> &[u64] {
        let slot = self.slot(line);
        if self.state[slot] == 0 || self.slots[slot][0] != line.0 {
            return &[];
        }
        let held = usize::from(self.state[slot] - 1);
        &self.slots[slot][1..=held]
    }

    /// Record `succ` as the most recent successor of `prev`.
    fn learn(&mut self, prev: LineAddr, succ: LineAddr) {
        let slot = self.slot(prev);
        if self.state[slot] == 0 || self.slots[slot][0] != prev.0 {
            self.slots[slot][0] = prev.0;
            self.state[slot] = 1;
        }
        let held = usize::from(self.state[slot] - 1);
        let next = &mut self.slots[slot][1..];
        // MRU insert with de-duplication: an already-held successor moves
        // to the front; a new one enters there, pushing the tail back (and
        // the LRU one out when the slot is full).
        let found = next[..held].iter().position(|&n| n == succ.0);
        let end = found.unwrap_or(held.min(WAYS - 1));
        next[..=end].rotate_right(1);
        next[0] = succ.0;
        if found.is_none() && held < WAYS {
            self.state[slot] += 1;
        }
    }
}

impl Prefetcher for CorrelationPrefetcher {
    fn name(&self) -> &'static str {
        "correlation"
    }

    fn source(&self) -> PrefetchSource {
        PrefetchSource::Stride // shares the "extension" stats slot
    }

    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        // Correlation tables watch the L1 miss stream.
        if ev.l1_hit {
            return;
        }
        if let Some(prev) = self.last_miss {
            if prev != ev.line {
                self.learn(prev, ev.line);
            }
        }
        self.last_miss = Some(ev.line);
        for (d, &succ) in self
            .successors(ev.line)
            .iter()
            .take(self.degree)
            .enumerate()
        {
            out.push(PrefetchRequest {
                line: LineAddr(succ),
                trigger_pc: ev.pc,
                source: PrefetchSource::Stride,
                tenant: 0,
                depth: (d + 1).min(u8::MAX as usize) as u8,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{event, miss_event};

    fn run(p: &mut CorrelationPrefetcher, line: u64) -> Vec<LineAddr> {
        let mut out = Vec::new();
        p.on_access(&miss_event(0x100, line, true), &mut out);
        out.iter().map(|r| r.line).collect()
    }

    #[test]
    fn learns_miss_successors() {
        let mut p = CorrelationPrefetcher::new(256);
        assert!(run(&mut p, 10).is_empty());
        assert!(run(&mut p, 50).is_empty()); // learn 10 -> 50
        assert!(run(&mut p, 90).is_empty()); // learn 50 -> 90
        assert_eq!(run(&mut p, 10), vec![LineAddr(50)]);
        assert_eq!(run(&mut p, 50), vec![LineAddr(90)]);
    }

    #[test]
    fn hits_are_invisible() {
        let mut p = CorrelationPrefetcher::new(256);
        run(&mut p, 10);
        let mut out = Vec::new();
        p.on_access(&event(0x100, 50), &mut out); // L1 hit
        assert!(out.is_empty());
        // The hit did not become 10's successor.
        assert!(run(&mut p, 10).is_empty());
    }

    #[test]
    fn mru_keeps_two_successors() {
        let mut p = CorrelationPrefetcher::new(256).with_degree(2);
        run(&mut p, 10);
        run(&mut p, 50); // 10 -> 50
        run(&mut p, 10);
        run(&mut p, 90); // 10 -> 90 (MRU), 50 demoted
        let got = run(&mut p, 10);
        assert_eq!(got, vec![LineAddr(90), LineAddr(50)]);
    }

    #[test]
    fn repeated_successor_moves_to_front_without_duplication() {
        let mut p = CorrelationPrefetcher::new(256).with_degree(2);
        run(&mut p, 10);
        run(&mut p, 50);
        run(&mut p, 10);
        run(&mut p, 90);
        run(&mut p, 10);
        run(&mut p, 50); // 50 back to MRU
        let got = run(&mut p, 10);
        assert_eq!(got, vec![LineAddr(50), LineAddr(90)]);
    }

    #[test]
    fn degree_one_emits_only_mru() {
        let mut p = CorrelationPrefetcher::new(256);
        run(&mut p, 10);
        run(&mut p, 50);
        run(&mut p, 10);
        run(&mut p, 90);
        assert_eq!(run(&mut p, 10), vec![LineAddr(90)]);
    }

    #[test]
    fn aliasing_retags() {
        let mut p = CorrelationPrefetcher::new(16);
        run(&mut p, 1);
        run(&mut p, 50); // 1 -> 50
        run(&mut p, 17); // aliases slot 1: retag
        assert!(run(&mut p, 1).is_empty());
    }

    #[test]
    fn self_successor_not_learned() {
        let mut p = CorrelationPrefetcher::new(256);
        run(&mut p, 10);
        run(&mut p, 10);
        assert!(run(&mut p, 10).is_empty());
    }

    #[test]
    fn fresh_table_predicts_nothing_even_for_line_zero() {
        let mut p = CorrelationPrefetcher::new(16).with_degree(WAYS);
        // Line 0 has the tag an empty slot holds, and successor slots
        // hold line 0 too until something is learned.
        for line in [0, 16, 3] {
            assert!(run(&mut p, line).is_empty(), "line {line}");
            p.last_miss = None;
        }
    }

    #[test]
    fn line_zero_is_a_learnable_tag_and_successor() {
        let mut p = CorrelationPrefetcher::new(16).with_degree(WAYS);
        run(&mut p, 0);
        run(&mut p, 7); // 0 -> 7
        run(&mut p, 0); // 7 -> 0
        assert_eq!(run(&mut p, 7), vec![LineAddr(0)]);
        assert_eq!(run(&mut p, 0), vec![LineAddr(7)]);
    }

    #[test]
    fn clone_predicts_like_the_original() {
        let mut p = CorrelationPrefetcher::new(16).with_degree(WAYS);
        for line in [1, 5, 9, 1, 33, 5, 2] {
            run(&mut p, line);
        }
        let mut snap = p.clone();
        for i in 0..60u64 {
            let line = (i * 7) % 40;
            assert_eq!(run(&mut snap, line), run(&mut p, line), "line {line}");
        }
    }
}
