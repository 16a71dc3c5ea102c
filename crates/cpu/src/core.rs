//! The out-of-order pipeline model.
//!
//! Per-cycle phases (in [`Core::tick`]):
//!
//! 1. **Retire** — up to `retire_width` completed instructions leave the
//!    ROB in program order.
//! 2. **Issue/execute** — any window instruction whose producer's result is
//!    ready may issue, bounded by `issue_width`, per-cycle ALU slots, and —
//!    for memory ops — L1 port arbitration through [`MemoryPort`]. A memory
//!    op denied a port stays in the window and retries next cycle.
//! 3. **Fetch/dispatch** — up to `fetch_width` instructions enter the ROB
//!    (and LSQ) unless fetch is squashed by an unresolved mispredicted
//!    branch; fetch resumes `mispredict_penalty` cycles after the branch
//!    resolves.
//!
//! Software prefetches occupy an LSQ slot and are handed to the memory side
//! via [`MemoryPort::software_prefetch`] at issue; being non-blocking, they
//! complete in one cycle and nothing ever depends on them.

use crate::branch::FrontEnd;
use crate::inst::{InstStream, Op};
use ppf_types::{Addr, CoreConfig, Cycle, Pc, SimStats};

/// The core's window into the memory hierarchy (implemented by `ppf-sim`).
pub trait MemoryPort {
    /// Try to start a demand access in cycle `now`. `None` means no L1 port
    /// was available this cycle (structural hazard: retry next cycle);
    /// otherwise the cycle the data is ready.
    fn try_access(&mut self, pc: Pc, addr: Addr, is_store: bool, now: Cycle) -> Option<Cycle>;

    /// Hand a software prefetch (identified in the LSQ) to the prefetch
    /// machinery. Non-blocking; consumes no L1 port at this point — the
    /// prefetch queue arbitrates for ports later.
    fn software_prefetch(&mut self, pc: Pc, addr: Addr, now: Cycle);

    /// Instruction-side access for the fetch of `pc` at cycle `now`:
    /// returns the cycle the instruction bytes are available (`now` on an
    /// I-cache hit). Default: a perfect I-cache.
    fn fetch_access(&mut self, pc: Pc, now: Cycle) -> Cycle {
        let _ = pc;
        now
    }
}

/// A no-op memory port: every access hits in one cycle. Used by unit tests
/// and by the "perfect cache" calibration mode.
#[derive(Debug, Default, Clone)]
pub struct PerfectMemory;

impl MemoryPort for PerfectMemory {
    fn try_access(&mut self, _pc: Pc, _addr: Addr, _is_store: bool, now: Cycle) -> Option<Cycle> {
        Some(now + 1)
    }
    fn software_prefetch(&mut self, _pc: Pc, _addr: Addr, _now: Cycle) {}
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    pc: Pc,
    op: Op,
    dep_seq: Option<u64>,
    /// Result-ready cycle (valid once the entry has issued).
    done_at: Cycle,
    is_mem: bool,
    /// This entry is a mispredicted branch fetch is waiting on.
    blocks_fetch: bool,
}

/// What one call to [`Core::tick`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickOutcome {
    /// Instructions retired this cycle.
    pub retired: u64,
    /// Instructions issued (Waiting → Done) this cycle.
    pub issued: u64,
    /// Memory ops that failed port arbitration this cycle.
    pub port_rejections: u64,
    /// Fetch changed machine state this cycle: it dispatched, consumed the
    /// stream, or probed the I-cache (which advances hierarchy state).
    pub fetch_changed: bool,
}

impl TickOutcome {
    /// True when the tick provably changed nothing — no retirement, no
    /// issue, no port traffic (denied ports bump memory-side counters),
    /// no fetch-side state change. A quiescent tick is a pure function of
    /// the cycle number, which is what licenses the skip-ahead kernel to
    /// jump over the identical ticks that would follow.
    pub fn quiescent(&self) -> bool {
        self.retired == 0 && self.issued == 0 && self.port_rejections == 0 && !self.fetch_changed
    }
}

/// Fixed-capacity power-of-two ring backing the ROB — the ShadowLru slab
/// pattern applied to the pipeline window. The issue scan and wake-up
/// checks index entries randomly every cycle; a mask-indexed flat slab
/// keeps them free of the wrap branch `VecDeque` pays per access.
///
/// `waiting` is the window's waiting set: one bit per physical slot, 64
/// slots to a word, set while the slot holds an entry that has not issued
/// yet (Waiting) and clear once it has (Done) or is dead. `push_back` sets
/// the bit and [`RobRing::mark_issued`] clears it, so the set is also the
/// entries' stage. The issue scan walks only the set bits, oldest first
/// (trailing zeros over the words, from `head` round the wrap), instead of
/// every slot of a window that a long-miss head has filled with Done
/// entries.
///
/// `gate` holds, per slot, the Waiting entry's cached issue wake-up bound —
/// a sound lower bound on the first cycle it could possibly issue (0 =
/// unknown, try now). It is read only for entries in the waiting set; a
/// Done or dead slot's word is stale. The bound is derived from the
/// producer's fixed `done_at` (exact) or, while the producer itself is
/// still Waiting, from the earliest cycle the producer could issue plus its
/// minimum latency (conservative). Purely an optimization: it changes how
/// fast the scan skips an entry, never *when* the entry issues.
#[derive(Clone)]
struct RobRing {
    buf: Box<[RobEntry]>,
    gate: Box<[u64]>,
    waiting: Box<[u64]>,
    mask: usize,
    head: usize,
    len: usize,
}

impl RobRing {
    fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1).next_power_of_two();
        let empty = RobEntry {
            seq: 0,
            pc: 0,
            op: Op::IntAlu,
            dep_seq: None,
            done_at: 0,
            is_mem: false,
            blocks_fetch: false,
        };
        RobRing {
            buf: vec![empty; cap].into_boxed_slice(),
            gate: vec![0; cap].into_boxed_slice(),
            waiting: vec![0; cap.div_ceil(64)].into_boxed_slice(),
            mask: cap - 1,
            head: 0,
            len: 0,
        }
    }

    /// Physical slot of logical entry `i`.
    #[inline]
    fn slot(&self, i: usize) -> usize {
        (self.head + i) & self.mask
    }

    /// Whether logical entry `i` is in the waiting set (has not issued).
    #[inline]
    fn is_waiting(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let s = self.slot(i);
        (self.waiting[s / 64] >> (s % 64)) & 1 != 0
    }

    /// Logical index of the oldest waiting entry at or after logical entry
    /// `from`, or `None` when every younger entry has issued.
    #[inline]
    fn next_waiting(&self, from: usize) -> Option<usize> {
        // Slots per word in use: 64, or the whole ring when it is smaller
        // than one word. Either way a word's bits from slot `s` upward
        // never cross the physical wrap, so they map to consecutive
        // logical entries. Past the window's last entry they wrap back to
        // its oldest ones, which the caller has already visited.
        let span = self.buf.len().min(64);
        let mut i = from;
        while i < self.len {
            let s = self.slot(i);
            let bits = self.waiting[s / 64] >> (s % 64);
            if bits != 0 {
                let found = i + bits.trailing_zeros() as usize;
                return (found < self.len).then_some(found);
            }
            i += span - s % 64;
        }
        None
    }

    /// The issue-gate word for Waiting logical entry `i` (see the type
    /// docs).
    #[inline]
    fn gate(&self, i: usize) -> u64 {
        debug_assert!(self.is_waiting(i));
        self.gate[self.slot(i)]
    }

    #[inline]
    fn set_gate(&mut self, i: usize, g: u64) {
        debug_assert!(self.is_waiting(i));
        let s = self.slot(i);
        self.gate[s] = g;
    }

    /// Issue Waiting logical entry `i`: record its result-ready cycle and
    /// drop it from the waiting set.
    #[inline]
    fn mark_issued(&mut self, i: usize, done_at: Cycle) {
        debug_assert!(self.is_waiting(i));
        let s = self.slot(i);
        self.buf[s].done_at = done_at;
        self.waiting[s / 64] &= !(1u64 << (s % 64));
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn front(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self.buf[self.head])
    }

    #[inline]
    fn get(&self, i: usize) -> Option<&RobEntry> {
        (i < self.len).then(|| &self.buf[self.slot(i)])
    }

    /// Copy out entry `i` (entries are small and `Copy`; the issue loop
    /// reads the entry and only writes back through `mark_issued`).
    #[inline]
    fn at(&self, i: usize) -> RobEntry {
        debug_assert!(i < self.len);
        self.buf[self.slot(i)]
    }

    /// Retire the head entry, which must have issued.
    #[inline]
    fn pop_front(&mut self) {
        debug_assert!(self.len > 0 && !self.is_waiting(0));
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
    }

    /// Append a Waiting entry; its gate starts at 0 ("try now").
    #[inline]
    fn push_back(&mut self, e: RobEntry) {
        debug_assert!(self.len <= self.mask, "logical capacity exceeded");
        let slot = self.slot(self.len);
        self.buf[slot] = e;
        self.gate[slot] = 0;
        self.waiting[slot / 64] |= 1u64 << (slot % 64);
        self.len += 1;
    }
}

/// The out-of-order core.
pub struct Core {
    cfg: CoreConfig,
    front: FrontEnd,
    rob: RobRing,
    /// Entries in the ROB's waiting set (not yet issued); 0 lets the issue
    /// stage and the event calendar skip the window altogether.
    waiting: usize,
    /// Earliest cycle any waiting entry could possibly issue. When a full
    /// scan proves every waiting entry is bounded past `now` (their cached
    /// gates), the scans until this cycle are skipped entirely — the
    /// dominant cost while the window drains a long miss.
    /// Conservative: any unbounded outcome (slot or port pressure, a new
    /// dispatch) resets it to "scan next cycle".
    issue_scan_at: Cycle,
    next_seq: u64,
    lsq_used: usize,
    /// Fetch is stalled until this cycle (mispredict redirect).
    fetch_resume_at: Cycle,
    /// Seq of the unresolved mispredicted branch fetch waits on, if any.
    fetch_blocked_on: Option<u64>,
    /// An instruction fetched from the stream but not yet dispatched
    /// (it arrived while the LSQ was full). Streams are consumed exactly
    /// once, so it is buffered rather than regenerated.
    pending: Option<crate::inst::Inst>,
}

impl Core {
    /// Build a core from its configuration.
    pub fn new(cfg: &CoreConfig) -> Self {
        Core {
            front: FrontEnd::new(&cfg.branch),
            rob: RobRing::with_capacity(cfg.rob_entries),
            waiting: 0,
            issue_scan_at: 0,
            cfg: cfg.clone(),
            next_seq: 0,
            lsq_used: 0,
            fetch_resume_at: 0,
            fetch_blocked_on: None,
            pending: None,
        }
    }

    /// Current ROB occupancy.
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// Current LSQ occupancy.
    pub fn lsq_occupancy(&self) -> usize {
        self.lsq_used
    }

    /// If producer `seq`'s result is not ready at `now`, the earliest cycle
    /// its consumer could possibly issue — a sound lower bound the issue
    /// scan caches in the consumer's gate. `None` when the producer is
    /// ready (retired, absent, or complete by `now`).
    fn producer_gate(&self, seq: u64, now: Cycle) -> Option<Cycle> {
        let front_seq = match self.rob.front() {
            Some(e) => e.seq,
            None => return None, // empty ROB: everything older has retired
        };
        if seq < front_seq {
            return None; // already retired
        }
        let idx = (seq - front_seq) as usize;
        let p = self.rob.get(idx)?;
        if self.rob.is_waiting(idx) {
            // Producers precede consumers in the window, so this producer
            // was already covered by the current scan and stayed Waiting:
            // it issues no earlier than next cycle (or its own cached
            // bound) and completes no earlier than that plus its op's
            // minimum latency.
            let issue_at = (now + 1).max(self.rob.gate(idx));
            Some(issue_at.saturating_add(self.min_latency(p.op)))
        } else {
            (p.done_at > now).then_some(p.done_at)
        }
    }

    /// The smallest completion latency `op` can possibly have — used only
    /// for the conservative wake-up bound above. Memory timing lives below
    /// the core, so memory ops assume results could be ready the same
    /// cycle the access starts.
    fn min_latency(&self, op: Op) -> u64 {
        match op {
            Op::IntAlu | Op::Branch { .. } => self.cfg.int_latency,
            Op::FpAlu => self.cfg.fp_latency,
            Op::Load { .. } | Op::Store { .. } | Op::SoftPrefetch { .. } => 0,
        }
    }

    fn retire(&mut self, now: Cycle, stats: &mut SimStats) -> u64 {
        let mut retired = 0;
        while retired < self.cfg.retire_width as u64 {
            match self.rob.front() {
                Some(e) if !self.rob.is_waiting(0) && e.done_at <= now => {
                    if e.is_mem {
                        self.lsq_used -= 1;
                    }
                    match e.op {
                        Op::Load { .. } => stats.loads += 1,
                        Op::Store { .. } => stats.stores += 1,
                        Op::Branch { .. } => stats.branches += 1,
                        _ => {}
                    }
                    self.rob.pop_front();
                    retired += 1;
                }
                _ => break,
            }
        }
        stats.instructions += retired;
        retired
    }

    fn issue(&mut self, now: Cycle, mem: &mut dyn MemoryPort) -> (u64, u64) {
        if self.waiting == 0 || now < self.issue_scan_at {
            // Every waiting entry is provably gated past `now` — the last
            // full scan bounded each one, so this cycle's scan would visit
            // them all and issue nothing.
            return (0, 0);
        }
        let mut issued = 0usize;
        let mut int_slots = self.cfg.int_alus;
        let mut fp_slots = self.cfg.fp_alus;
        let mut rejections = 0u64;
        let mut resolved_block: Option<u64> = None;
        // If the scan leaves a wake-up bound on every entry still Waiting
        // when it ends, their minimum becomes the next scan cycle; any
        // unbounded outcome (slot or port pressure, an unvisited tail)
        // forces a re-scan next cycle.
        let mut all_bounded = true;
        let mut min_bound = Cycle::MAX;

        // Only the waiting set is visited, oldest first: the Done entries
        // a long-miss head holds in the window cannot issue.
        let mut from = 0;
        while let Some(i) = self.rob.next_waiting(from) {
            from = i + 1;
            if issued >= self.cfg.issue_width {
                all_bounded = false; // unvisited waiting entries may be ready
                break;
            }
            let g = self.rob.gate(i);
            if g > now {
                // Producer provably not ready yet (cached bound).
                min_bound = min_bound.min(g);
                continue;
            }
            let entry = self.rob.at(i);
            if let Some(dep) = entry.dep_seq {
                if let Some(bound) = self.producer_gate(dep, now) {
                    // Remember the earliest possible issue cycle so the
                    // scans until then skip this entry with one compare.
                    self.rob.set_gate(i, bound);
                    min_bound = min_bound.min(bound);
                    continue;
                }
            }
            let done_at = match entry.op {
                Op::IntAlu => {
                    if int_slots == 0 {
                        all_bounded = false;
                        continue;
                    }
                    int_slots -= 1;
                    now + self.cfg.int_latency
                }
                Op::FpAlu => {
                    if fp_slots == 0 {
                        all_bounded = false;
                        continue;
                    }
                    fp_slots -= 1;
                    now + self.cfg.fp_latency
                }
                Op::Branch { .. } => {
                    if int_slots == 0 {
                        all_bounded = false;
                        continue;
                    }
                    int_slots -= 1;
                    let done = now + self.cfg.int_latency;
                    if entry.blocks_fetch {
                        resolved_block = Some(entry.seq);
                        self.fetch_resume_at = done + self.front.mispredict_penalty;
                    }
                    done
                }
                Op::Load { addr } | Op::Store { addr } => {
                    let is_store = matches!(entry.op, Op::Store { .. });
                    match mem.try_access(entry.pc, addr, is_store, now) {
                        Some(ready) => ready,
                        None => {
                            rejections += 1;
                            all_bounded = false;
                            continue; // structural hazard: retry next cycle
                        }
                    }
                }
                Op::SoftPrefetch { addr } => {
                    mem.software_prefetch(entry.pc, addr, now);
                    now + 1
                }
            };
            self.rob.mark_issued(i, done_at);
            self.waiting -= 1;
            issued += 1;
        }
        if let Some(seq) = resolved_block {
            if self.fetch_blocked_on == Some(seq) {
                self.fetch_blocked_on = None;
            }
        }
        self.issue_scan_at = if all_bounded { min_bound } else { now + 1 };
        (issued as u64, rejections)
    }

    fn fetch(
        &mut self,
        now: Cycle,
        stream: &mut dyn InstStream,
        mem: &mut dyn MemoryPort,
        stats: &mut SimStats,
    ) -> bool {
        if self.fetch_blocked_on.is_some() || now < self.fetch_resume_at {
            return false;
        }
        let mut changed = false;
        for _ in 0..self.cfg.fetch_width {
            if self.rob.len() >= self.cfg.rob_entries {
                break;
            }
            let inst = match self.pending.take() {
                Some(i) => i,
                None => {
                    changed = true; // the stream advanced
                    stream.next_inst()
                }
            };
            if inst.op.is_mem() && self.lsq_used >= self.cfg.lsq_entries {
                // LSQ full: hold the instruction and stall fetch this cycle.
                // A held instruction going back where it came from is the
                // one early exit that leaves the machine untouched.
                self.pending = Some(inst);
                break;
            }
            // Instruction-side access: an I-cache miss stalls fetch until
            // the line arrives from the unified L2 (or memory). The probe
            // itself advances hierarchy state, so from here on the cycle
            // counts as active whether or not the instruction dispatches.
            changed = true;
            let bytes_at = mem.fetch_access(inst.pc, now);
            if bytes_at > now {
                self.pending = Some(inst);
                self.fetch_resume_at = self.fetch_resume_at.max(bytes_at);
                break;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let mut blocks_fetch = false;
            if let Op::Branch { taken, target } = inst.op {
                let correct = self.front.predict_and_train(inst.pc, taken, target);
                if !correct {
                    stats.branch_mispredicts += 1;
                    blocks_fetch = true;
                }
            }
            if inst.op.is_mem() {
                self.lsq_used += 1;
            }
            let dep_seq = if inst.dep == 0 {
                None
            } else {
                seq.checked_sub(inst.dep as u64)
            };
            self.rob.push_back(RobEntry {
                seq,
                pc: inst.pc,
                op: inst.op,
                dep_seq,
                done_at: 0,
                is_mem: inst.op.is_mem(),
                blocks_fetch,
            });
            self.waiting += 1;
            // The new entry may be issue-ready immediately (issue runs
            // before fetch within a tick, so "immediately" is next cycle).
            self.issue_scan_at = self.issue_scan_at.min(now + 1);
            if blocks_fetch {
                self.fetch_blocked_on = Some(seq);
                break; // wrong-path fetch is not modelled
            }
        }
        changed
    }

    /// Advance the core by one cycle.
    pub fn tick(
        &mut self,
        now: Cycle,
        stream: &mut dyn InstStream,
        mem: &mut dyn MemoryPort,
        stats: &mut SimStats,
    ) -> TickOutcome {
        let retired = self.retire(now, stats);
        let (issued, port_rejections) = self.issue(now, mem);
        let fetch_changed = self.fetch(now, stream, mem, stats);
        TickOutcome {
            retired,
            issued,
            port_rejections,
            fetch_changed,
        }
    }

    /// The next cycle at which this core can possibly act, given that the
    /// current tick was quiescent ([`TickOutcome::quiescent`]) — the core's
    /// entry in the skip-ahead kernel's event calendar. Every cycle strictly
    /// between `now` and the returned cycle is provably another quiescent
    /// tick, so the kernel may jump straight to it.
    ///
    /// The calendar has three sources:
    ///
    /// * **Retire** — the ROB head completes at its `done_at`.
    /// * **Issue wake-up** — `issue_scan_at`, the issue scan's own gate: a
    ///   sound lower bound on the first cycle any waiting entry could
    ///   issue, kept current by every full scan. A quiescent tick cannot
    ///   move it (the scan either proved a bound past `now` for every
    ///   waiting entry, or there are no waiting entries at all).
    /// * **Fetch** — resumes at `fetch_resume_at` unless structurally gated
    ///   (unresolved mispredicted branch, full ROB, LSQ-full pending memory
    ///   op); every gate is lifted only by an issue or retire event, which
    ///   the calendar already contains.
    ///
    /// Events in the past are clamped to `now + 1` (the conservative "act
    /// next cycle"), so the kernel falls back to plain stepping rather than
    /// ever jumping backwards. A bound that proves merely "not before X"
    /// rather than "acts at X" only shortens jumps, never skips an active
    /// cycle: landing on a still-quiescent cycle re-computes the calendar
    /// and jumps again.
    pub fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        let soon = now + 1;
        let mut next: Option<Cycle> = None;
        let consider = |next: &mut Option<Cycle>, at: Cycle| {
            let at = at.max(soon);
            *next = Some(next.map_or(at, |n| n.min(at)));
        };
        if let Some(front) = self.rob.front() {
            if !self.rob.is_waiting(0) {
                consider(&mut next, front.done_at);
            }
        }
        if self.waiting > 0 {
            consider(&mut next, self.issue_scan_at);
        }
        if self.fetch_blocked_on.is_none() && self.rob.len() < self.cfg.rob_entries {
            let lsq_gated = self
                .pending
                .as_ref()
                .is_some_and(|i| i.op.is_mem() && self.lsq_used >= self.cfg.lsq_entries);
            if !lsq_gated {
                consider(&mut next, self.fetch_resume_at);
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    fn core() -> Core {
        Core::new(&CoreConfig::default())
    }

    /// Run `n` instructions through the core with `mem`, returning stats.
    fn run(
        core: &mut Core,
        stream: &mut dyn InstStream,
        mem: &mut dyn MemoryPort,
        n: u64,
    ) -> SimStats {
        let mut stats = SimStats::default();
        let mut now = 0;
        while stats.instructions < n {
            core.tick(now, stream, mem, &mut stats);
            now += 1;
            assert!(now < 10_000_000, "runaway simulation");
        }
        stats.cycles = now;
        stats
    }

    #[test]
    fn independent_alu_stream_reaches_wide_ipc() {
        let mut c = core();
        let mut pc = 0u64;
        let mut stream = move || {
            pc += 4;
            Inst::new(pc, Op::IntAlu)
        };
        let stats = run(&mut c, &mut stream, &mut PerfectMemory, 10_000);
        let ipc = stats.instructions as f64 / stats.cycles as f64;
        assert!(ipc > 4.0, "independent ALU ops should flow wide, ipc={ipc}");
    }

    #[test]
    fn serial_dependency_chain_limits_ipc_to_one() {
        let mut c = core();
        let mut pc = 0u64;
        let mut stream = move || {
            pc += 4;
            Inst::with_dep(pc, Op::IntAlu, 1)
        };
        let stats = run(&mut c, &mut stream, &mut PerfectMemory, 5_000);
        let ipc = stats.instructions as f64 / stats.cycles as f64;
        assert!(ipc <= 1.05, "1-deep chain cannot exceed IPC 1, ipc={ipc}");
        assert!(ipc > 0.8, "but should approach 1, ipc={ipc}");
    }

    #[test]
    fn fp_latency_slows_chains() {
        let mut c = core();
        let mut pc = 0u64;
        let mut stream = move || {
            pc += 4;
            Inst::with_dep(pc, Op::FpAlu, 1)
        };
        let stats = run(&mut c, &mut stream, &mut PerfectMemory, 2_000);
        let ipc = stats.instructions as f64 / stats.cycles as f64;
        // 4-cycle FP chain: IPC ~ 0.25.
        assert!(ipc < 0.3, "ipc={ipc}");
    }

    /// Memory port that rejects every other access and completes after a
    /// fixed latency.
    struct FlakyMemory {
        latency: u64,
        count: u64,
    }
    impl MemoryPort for FlakyMemory {
        fn try_access(&mut self, _pc: Pc, _a: Addr, _s: bool, now: Cycle) -> Option<Cycle> {
            self.count += 1;
            if self.count.is_multiple_of(2) {
                None
            } else {
                Some(now + self.latency)
            }
        }
        fn software_prefetch(&mut self, _pc: Pc, _a: Addr, _now: Cycle) {}
    }

    #[test]
    fn port_rejections_cause_retries_not_loss() {
        let mut c = core();
        let mut pc = 0u64;
        let mut stream = move || {
            pc += 4;
            Inst::new(pc, Op::Load { addr: pc * 8 })
        };
        let mut mem = FlakyMemory {
            latency: 1,
            count: 0,
        };
        let stats = run(&mut c, &mut stream, &mut mem, 1_000);
        // Wide retirement can overshoot the threshold by up to a group.
        assert!(stats.loads >= 1_000, "every load eventually issues");
        assert_eq!(stats.loads, stats.instructions, "loads only, none lost");
    }

    #[test]
    fn memory_latency_shows_in_load_use_chains() {
        // load -> dependent alu -> load ... with 20-cycle memory.
        struct SlowMem;
        impl MemoryPort for SlowMem {
            fn try_access(&mut self, _pc: Pc, _a: Addr, _s: bool, now: Cycle) -> Option<Cycle> {
                Some(now + 20)
            }
            fn software_prefetch(&mut self, _p: Pc, _a: Addr, _n: Cycle) {}
        }
        let mut c = core();
        let mut i = 0u64;
        let mut stream = move || {
            i += 1;
            if i.is_multiple_of(2) {
                Inst::with_dep(i * 4, Op::IntAlu, 1)
            } else {
                Inst::with_dep(i * 4, Op::Load { addr: i * 64 }, 1)
            }
        };
        let stats = run(&mut c, &mut stream, &mut SlowMem, 1_000);
        let ipc = stats.instructions as f64 / stats.cycles as f64;
        assert!(ipc < 0.15, "serialized 20-cycle loads dominate, ipc={ipc}");
    }

    #[test]
    fn mispredicted_branches_stall_fetch() {
        // Alternating taken/not-taken defeats the bimodal predictor.
        let mut c = core();
        let mut i = 0u64;
        let mut stream = move || {
            i += 1;
            if i.is_multiple_of(4) {
                Inst::new(
                    0x100,
                    Op::Branch {
                        taken: i.is_multiple_of(8),
                        target: 0x900,
                    },
                )
            } else {
                Inst::new(i * 4 + 0x1000, Op::IntAlu)
            }
        };
        let stats = run(&mut c, &mut stream, &mut PerfectMemory, 8_000);
        assert!(
            stats.branch_mispredicts > 500,
            "{}",
            stats.branch_mispredicts
        );
        let ipc = stats.instructions as f64 / stats.cycles as f64;
        // Each mispredict costs ~8 cycles on a 4-instruction gap.
        assert!(ipc < 3.0, "mispredicts must hurt, ipc={ipc}");
    }

    #[test]
    fn well_predicted_branches_are_cheap() {
        let mut c = core();
        let mut i = 0u64;
        let mut stream = move || {
            i += 1;
            if i.is_multiple_of(4) {
                // Always taken to a fixed target: perfectly predictable.
                Inst::new(
                    0x100,
                    Op::Branch {
                        taken: true,
                        target: 0x900,
                    },
                )
            } else {
                Inst::new(i * 4 + 0x1000, Op::IntAlu)
            }
        };
        let stats = run(&mut c, &mut stream, &mut PerfectMemory, 8_000);
        assert!(stats.branch_mispredicts < 10);
        let ipc = stats.instructions as f64 / stats.cycles as f64;
        assert!(
            ipc > 4.0,
            "predictable branches should not stall, ipc={ipc}"
        );
    }

    #[test]
    fn software_prefetch_is_nonblocking_and_counted_via_port() {
        struct CountPf(u64);
        impl MemoryPort for CountPf {
            fn try_access(&mut self, _p: Pc, _a: Addr, _s: bool, now: Cycle) -> Option<Cycle> {
                Some(now + 1)
            }
            fn software_prefetch(&mut self, _p: Pc, _a: Addr, _n: Cycle) {
                self.0 += 1;
            }
        }
        let mut c = core();
        let mut i = 0u64;
        let mut stream = move || {
            i += 1;
            if i.is_multiple_of(10) {
                Inst::new(i * 4, Op::SoftPrefetch { addr: i * 32 })
            } else {
                Inst::new(i * 4, Op::IntAlu)
            }
        };
        let mut mem = CountPf(0);
        let stats = run(&mut c, &mut stream, &mut mem, 1_000);
        assert_eq!(mem.0, 100);
        let ipc = stats.instructions as f64 / stats.cycles as f64;
        assert!(ipc > 4.0, "prefetches must not stall the pipe, ipc={ipc}");
    }

    #[test]
    fn rob_and_lsq_occupancy_bounded() {
        struct NeverReady;
        impl MemoryPort for NeverReady {
            fn try_access(&mut self, _p: Pc, _a: Addr, _s: bool, _n: Cycle) -> Option<Cycle> {
                None
            }
            fn software_prefetch(&mut self, _p: Pc, _a: Addr, _n: Cycle) {}
        }
        let cfg = CoreConfig::default();
        let mut c = Core::new(&cfg);
        let mut i = 0u64;
        let mut stream = move || {
            i += 1;
            Inst::new(i * 4, Op::Load { addr: i * 64 })
        };
        let mut stats = SimStats::default();
        for now in 0..1000 {
            c.tick(now, &mut stream, &mut NeverReady, &mut stats);
            assert!(c.rob_occupancy() <= cfg.rob_entries);
            assert!(c.lsq_occupancy() <= cfg.lsq_entries);
        }
        assert_eq!(stats.instructions, 0, "nothing can retire");
        assert_eq!(c.lsq_occupancy(), cfg.lsq_entries, "LSQ fills and holds");
    }

    #[test]
    fn retire_is_in_order() {
        // A slow load followed by fast ALUs: nothing retires before the load.
        struct SlowOnce {
            used: bool,
        }
        impl MemoryPort for SlowOnce {
            fn try_access(&mut self, _p: Pc, _a: Addr, _s: bool, now: Cycle) -> Option<Cycle> {
                if self.used {
                    Some(now + 1)
                } else {
                    self.used = true;
                    Some(now + 100)
                }
            }
            fn software_prefetch(&mut self, _p: Pc, _a: Addr, _n: Cycle) {}
        }
        let mut c = core();
        let mut i = 0u64;
        let mut stream = move || {
            i += 1;
            if i == 1 {
                Inst::new(4, Op::Load { addr: 64 })
            } else {
                Inst::new(i * 4, Op::IntAlu)
            }
        };
        let mut mem = SlowOnce { used: false };
        let mut stats = SimStats::default();
        for now in 0..50 {
            c.tick(now, &mut stream, &mut mem, &mut stats);
        }
        assert_eq!(stats.instructions, 0, "head-of-ROB load blocks retirement");
    }

    fn entry(seq: u64) -> RobEntry {
        RobEntry {
            seq,
            pc: seq * 4,
            op: Op::IntAlu,
            dep_seq: None,
            done_at: 0,
            is_mem: false,
            blocks_fetch: false,
        }
    }

    /// The waiting entries in program order, by a plain walk of the window.
    fn waiting_by_walk(rob: &RobRing) -> Vec<usize> {
        (0..rob.len()).filter(|&i| rob.is_waiting(i)).collect()
    }

    /// The waiting entries in program order, as the issue scan visits them.
    fn waiting_by_set(rob: &RobRing) -> Vec<usize> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(i) = rob.next_waiting(from) {
            out.push(i);
            from = i + 1;
        }
        out
    }

    /// Occupied bits in the waiting set, dead slots included.
    fn waiting_bits(rob: &RobRing) -> usize {
        rob.waiting.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[test]
    fn waiting_set_walk_crosses_ring_wrap_and_word_boundaries() {
        let mut rng = ppf_types::SplitMix64::new(3);
        for cap in [8usize, 64, 128, 256] {
            for head in [0, 1, 50, 63, 64, 100, cap - 1] {
                let head = head % cap;
                for len in [0, 1, cap / 2 + 3, cap - 1, cap] {
                    let mut rob = RobRing::with_capacity(cap);
                    // Move `head` by passing entries through the ring.
                    for seq in 0..head as u64 {
                        rob.push_back(entry(seq));
                        rob.mark_issued(0, 0);
                        rob.pop_front();
                    }
                    assert_eq!(rob.head, head);
                    for seq in 0..len as u64 {
                        rob.push_back(entry(seq));
                    }
                    for i in 0..len {
                        if rng.chance(0.7) {
                            rob.mark_issued(i, 0);
                        }
                    }
                    let walk = waiting_by_walk(&rob);
                    assert_eq!(
                        waiting_by_set(&rob),
                        walk,
                        "cap {cap} head {head} len {len}"
                    );
                    assert_eq!(waiting_bits(&rob), walk.len());
                }
            }
        }
        // The case the scan must get right: a 100-entry window from slot
        // 50 of a 128-slot ring covers slots 50..=63 (word 0), 64..=127
        // (word 1) and, past the wrap, 0..=21 (word 0 again). Only the
        // last entry before the word boundary, the first after it, the
        // last before the wrap and the first after it are waiting.
        let mut rob = RobRing::with_capacity(128);
        for seq in 0..50 {
            rob.push_back(entry(seq));
            rob.mark_issued(0, 0);
            rob.pop_front();
        }
        for seq in 0..100 {
            rob.push_back(entry(seq));
        }
        let waiting = [13, 14, 77, 78];
        for i in 0..100 {
            if !waiting.contains(&i) {
                rob.mark_issued(i, 0);
            }
        }
        assert_eq!(waiting_by_set(&rob), waiting);
        assert_eq!(rob.next_waiting(79), None, "the walk stops at the tail");
    }

    #[test]
    fn fresh_and_empty_rings_report_no_waiting_entry() {
        for cap in [1usize, 8, 64, 65, 128, 256] {
            let mut rob = RobRing::with_capacity(cap);
            assert_eq!(rob.next_waiting(0), None, "fresh ring, cap {cap}");
            assert_eq!(waiting_bits(&rob), 0);
            // Fill, issue and retire every entry, twice round the ring.
            for seq in 0..2 * cap as u64 {
                rob.push_back(entry(seq));
                assert_eq!(rob.next_waiting(0), Some(0));
                rob.mark_issued(0, 0);
                assert_eq!(rob.next_waiting(0), None, "issued head, cap {cap}");
                rob.pop_front();
            }
            assert_eq!(rob.len(), 0);
            assert_eq!(rob.next_waiting(0), None, "drained ring, cap {cap}");
            assert_eq!(waiting_bits(&rob), 0);
        }
        let c = core();
        assert_eq!(c.waiting, 0);
        assert_eq!(c.rob.next_waiting(0), None);
    }

    #[test]
    fn issue_width_saturation_leaves_younger_ready_entries_oldest_first() {
        struct SlowLoads;
        impl MemoryPort for SlowLoads {
            fn try_access(&mut self, _p: Pc, _a: Addr, _s: bool, now: Cycle) -> Option<Cycle> {
                Some(now + 300)
            }
            fn software_prefetch(&mut self, _p: Pc, _a: Addr, _n: Cycle) {}
        }
        let cfg = CoreConfig {
            issue_width: 2,
            ..CoreConfig::default()
        };
        let mut c = Core::new(&cfg);
        // seq 0: a 300-cycle load; seq 1: waits on it; every younger
        // entry is an independent ALU op, ready as soon as it dispatches.
        let mut seq = 0u64;
        let mut stream = move || {
            seq += 1;
            match seq {
                1 => Inst::new(4, Op::Load { addr: 64 }),
                2 => Inst::with_dep(8, Op::IntAlu, 1),
                _ => Inst::new(seq * 4, Op::IntAlu),
            }
        };
        let mut stats = SimStats::default();
        let out = c.tick(0, &mut stream, &mut SlowLoads, &mut stats);
        assert_eq!(out.issued, 0, "nothing to issue before the first dispatch");
        for now in 1..=30u64 {
            let out = c.tick(now, &mut stream, &mut SlowLoads, &mut stats);
            assert_eq!(out.issued, 2, "cycle {now}: width saturates");
            // Cycle 1 issues seqs 0 and 2 (seq 1 is gated and takes no
            // slot); cycle t issues 2t-1 and 2t. Whatever is ready but
            // past the width waits, and nothing younger jumps it.
            let waiting: Vec<u64> = waiting_by_set(&c.rob)
                .into_iter()
                .map(|i| c.rob.at(i).seq)
                .collect();
            let younger: Vec<u64> = (2 * now + 1..c.next_seq).collect();
            assert_eq!(waiting[0], 1, "cycle {now}: the gated entry stays");
            assert_eq!(waiting[1..], younger[..], "cycle {now}");
            assert_eq!(c.issue_scan_at, now + 1, "cycle {now}: rescan next cycle");
        }
    }

    #[test]
    fn waiting_bit_count_always_equals_waiting_counter() {
        /// Random latencies up to 60 cycles, one port denied in four.
        struct NoisyMemory(ppf_types::SplitMix64);
        impl MemoryPort for NoisyMemory {
            fn try_access(&mut self, _p: Pc, _a: Addr, _s: bool, now: Cycle) -> Option<Cycle> {
                (!self.0.chance(0.25)).then(|| now + 1 + self.0.below(60))
            }
            fn software_prefetch(&mut self, _p: Pc, _a: Addr, _n: Cycle) {}
        }
        for rob_entries in [8usize, 48, 65, 128, 256] {
            for issue_width in [1usize, 8] {
                let cfg = CoreConfig {
                    rob_entries,
                    issue_width,
                    ..CoreConfig::default()
                };
                let mut c = Core::new(&cfg);
                let mut rng = ppf_types::SplitMix64::new(rob_entries as u64);
                let mut pc = 0u64;
                let mut stream = move || {
                    pc += 4;
                    let op = match rng.below(6) {
                        0 => Op::Load { addr: pc * 8 },
                        1 => Op::Store { addr: pc * 8 },
                        2 => Op::FpAlu,
                        3 => Op::Branch {
                            taken: rng.chance(0.5),
                            target: pc + 64,
                        },
                        _ => Op::IntAlu,
                    };
                    Inst::with_dep(pc, op, rng.below(12) as u8)
                };
                let mut mem = NoisyMemory(ppf_types::SplitMix64::new(9));
                let mut stats = SimStats::default();
                for now in 0..5_000 {
                    c.tick(now, &mut stream, &mut mem, &mut stats);
                    let walk = waiting_by_walk(&c.rob);
                    assert_eq!(
                        waiting_bits(&c.rob),
                        c.waiting,
                        "rob {rob_entries} cycle {now}"
                    );
                    assert_eq!(walk.len(), c.waiting, "rob {rob_entries} cycle {now}");
                    assert_eq!(
                        waiting_by_set(&c.rob),
                        walk,
                        "rob {rob_entries} cycle {now}"
                    );
                }
                assert!(
                    stats.instructions > 500,
                    "the mix must flow: {}",
                    stats.instructions
                );
            }
        }
    }
}
