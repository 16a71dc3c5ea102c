//! The workload mixture model and its instruction stream.
//!
//! A [`WorkloadSpec`] is a complete synthetic program description: an
//! instruction mix (memory / branch / FP fractions), a set of weighted
//! address patterns, branch-site predictability, and dependency behaviour.
//! [`MixStream`] turns a spec plus a seed into the endless deterministic
//! instruction stream the core consumes.
//!
//! ## How instructions are produced
//!
//! Each `next_inst` draw picks an instruction class by the mix fractions.
//! Memory instructions select a pattern by weight and take its next access;
//! pointer-chase patterns attach a serial dependency on the pattern's
//! previous load (that is what makes mcf/em3d latency-bound). Pattern
//! accesses that are due a compiler prefetch enqueue an `Op::SoftPrefetch`
//! immediately after the triggering access. Branches come from a set of
//! per-workload branch sites, each deterministically predictable (loop
//! back-edge style) or data-dependent (coin flip), in proportion to the
//! spec's `branch_predictability`.

use crate::patterns::{PatternSpec, PatternState};
use ppf_cpu::{Inst, InstStream, Op};
use ppf_types::{Pc, SplitMix64};
use std::collections::VecDeque;

/// Number of distinct branch sites per workload.
const BRANCH_SITES: u64 = 64;
/// Cap on dependency distance (beyond the ROB it cannot stall anyway).
const MAX_DEP: u64 = 120;

/// A complete synthetic program description.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name as in Table 2.
    pub name: &'static str,
    /// Weighted address patterns (weights need not sum to 1; they are
    /// normalized over the memory-access stream).
    pub patterns: Vec<PatternSpec>,
    /// Fraction of instructions that are loads/stores.
    pub frac_mem: f64,
    /// Fraction of instructions that are conditional branches.
    pub frac_branch: f64,
    /// Fraction of the remaining (compute) instructions that are FP.
    pub frac_fp: f64,
    /// Probability a branch site behaves predictably (loop-style).
    pub branch_predictability: f64,
    /// Probability a compute instruction depends on a recent producer.
    pub dep_p: f64,
    /// Static code footprint in KB. Compute instructions mostly loop in a
    /// hot 4KB region; a `cold_code_frac` fraction walks the full
    /// footprint, which is what exercises the L1 instruction cache (gcc
    /// and fpppp are the famous I-side stressors).
    pub code_kb: u64,
    /// Fraction of compute instructions fetched from the cold code walk.
    pub cold_code_frac: f64,
    /// Table 2 target L1 miss rate with prefetching off (documentation and
    /// calibration-test target).
    pub expect_l1_miss: f64,
    /// Table 2 target L2 miss rate with prefetching off.
    pub expect_l2_miss: f64,
}

impl WorkloadSpec {
    /// Validate mixture sanity (fractions in range, weights positive,
    /// pattern regions disjoint).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.frac_mem)
            || !(0.0..=1.0).contains(&self.frac_branch)
            || self.frac_mem + self.frac_branch > 1.0
        {
            return Err(format!("{}: bad instruction mix", self.name));
        }
        if self.patterns.is_empty() {
            return Err(format!("{}: no patterns", self.name));
        }
        let mut regions: Vec<(u64, u64)> = self
            .patterns
            .iter()
            .map(|p| (p.base, p.base + p.footprint))
            .collect();
        regions.sort_unstable();
        for w in regions.windows(2) {
            if w[0].1 > w[1].0 {
                return Err(format!("{}: overlapping pattern regions", self.name));
            }
        }
        if self.patterns.iter().any(|p| p.weight <= 0.0) {
            return Err(format!("{}: non-positive pattern weight", self.name));
        }
        Ok(())
    }
}

/// Per-site branch behaviour, fixed at stream construction.
#[derive(Debug, Clone, Copy)]
struct BranchSite {
    pc: Pc,
    target: Pc,
    /// Predictable sites are taken with high, stable probability;
    /// unpredictable sites flip coins.
    predictable: bool,
}

/// The endless instruction stream for one workload instance.
pub struct MixStream {
    spec: WorkloadSpec,
    patterns: Vec<PatternState>,
    /// Cumulative pattern weights for O(#patterns) weighted selection.
    cum_weights: Vec<f64>,
    weight_total: f64,
    rng: SplitMix64,
    branch_sites: Vec<BranchSite>,
    /// Queued instructions (software prefetches follow their trigger).
    pending: VecDeque<Inst>,
    /// Global instruction counter (for dependency distances).
    seq: u64,
    /// Per-pattern seq of the pattern's previous access.
    last_access_seq: Vec<u64>,
    /// Hot-region PC rotor for compute instructions.
    alu_pc: Pc,
    /// Cold-code walk rotor (covers `code_kb`).
    cold_pc: Pc,
}

impl MixStream {
    /// Build the stream for `spec` with the given seed.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        spec.validate().expect("invalid workload spec");
        let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9);
        let patterns: Vec<PatternState> = spec
            .patterns
            .iter()
            .cloned()
            .map(PatternState::new)
            .collect();
        let mut cum = Vec::with_capacity(patterns.len());
        let mut total = 0.0;
        for p in &spec.patterns {
            total += p.weight;
            cum.push(total);
        }
        let mut site_rng = rng.split();
        // Region bases are staggered modulo the 8KB I-cache so the small
        // hot PC groups do not all alias onto set 0 (a synthetic-layout
        // artifact; real linkers spread code arbitrarily).
        let branch_sites = (0..BRANCH_SITES)
            .map(|i| BranchSite {
                pc: 0x8_0e00 + i * 4,
                target: 0x9_0000 + i * 16,
                predictable: site_rng.chance(spec.branch_predictability),
            })
            .collect();
        let n = patterns.len();
        MixStream {
            spec,
            patterns,
            cum_weights: cum,
            weight_total: total,
            rng,
            branch_sites,
            pending: VecDeque::new(),
            seq: 0,
            last_access_seq: vec![u64::MAX; n],
            alu_pc: 0x2_1000,
            cold_pc: 0x40_0000,
        }
    }

    /// The spec this stream was built from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn pick_pattern(&mut self) -> usize {
        let x = self.rng.f64() * self.weight_total;
        // Tiny vectors: linear scan beats binary search.
        self.cum_weights
            .iter()
            .position(|&c| x < c)
            .unwrap_or(self.cum_weights.len() - 1)
    }

    fn gen_mem(&mut self) -> Inst {
        let idx = self.pick_pattern();
        let access = self.patterns[idx].next_access(&mut self.rng);
        // Serial dependency on this pattern's previous access (pointer
        // chasing): distance in instructions, capped at the ROB horizon.
        let dep = if self.patterns[idx].serial_dep() {
            match self.last_access_seq[idx] {
                u64::MAX => 0,
                last => (self.seq - last).min(MAX_DEP) as u8,
            }
        } else {
            0
        };
        self.last_access_seq[idx] = self.seq;
        if let Some(pf_addr) = access.prefetch {
            // The compiler schedules the prefetch right after the access
            // that made the lookahead address computable.
            self.pending.push_back(Inst::new(
                access.pc + 0x400, // the prefetch instruction's own PC
                Op::SoftPrefetch { addr: pf_addr },
            ));
        }
        let op = if access.is_store {
            Op::Store { addr: access.addr }
        } else {
            Op::Load { addr: access.addr }
        };
        Inst::with_dep(access.pc, op, dep)
    }

    fn gen_branch(&mut self) -> Inst {
        let site = *self.rng.pick(&self.branch_sites);
        let taken = if site.predictable {
            // Loop back-edge: taken ~15 times out of 16.
            !self.rng.chance(1.0 / 16.0)
        } else {
            self.rng.chance(0.5)
        };
        Inst::new(
            site.pc,
            Op::Branch {
                taken,
                target: site.target,
            },
        )
    }

    fn gen_compute(&mut self) -> Inst {
        let pc = if self.rng.chance(self.spec.cold_code_frac) {
            // Sequential walk over the full code footprint: the I-cache
            // sees a new line every 8 instructions of this stream.
            let span = (self.spec.code_kb.max(4) * 1024).next_power_of_two();
            self.cold_pc = 0x40_0000 + ((self.cold_pc + 4) & (span - 1));
            self.cold_pc
        } else {
            // Hot inner loops: a 4KB region that lives in the I-cache
            // (sets 128-255 of the 8KB direct-mapped array).
            self.alu_pc = 0x2_1000 + ((self.alu_pc + 4) & 0xfff);
            self.alu_pc
        };
        let op = if self.rng.chance(self.spec.frac_fp) {
            Op::FpAlu
        } else {
            Op::IntAlu
        };
        let dep = if self.rng.chance(self.spec.dep_p) {
            self.rng.range(1, 2) as u8
        } else {
            0
        };
        Inst::with_dep(pc, op, dep)
    }
}

impl InstStream for MixStream {
    fn next_inst(&mut self) -> Inst {
        let inst = if let Some(p) = self.pending.pop_front() {
            p
        } else {
            let x = self.rng.f64();
            if x < self.spec.frac_mem {
                self.gen_mem()
            } else if x < self.spec.frac_mem + self.spec.frac_branch {
                self.gen_branch()
            } else {
                self.gen_compute()
            }
        };
        self.seq += 1;
        inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::PatternKind;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "test",
            patterns: vec![
                PatternSpec {
                    pc_base: 0x1000,
                    ..PatternSpec::new("hot", PatternKind::Strided { stride: 8 }, 0, 4096, 0.7)
                },
                PatternSpec {
                    pc_base: 0x3000,
                    serial_dep: true,
                    ..PatternSpec::new(
                        "chase",
                        PatternKind::PointerChase {
                            node_bytes: 64,
                            fields: 1,
                            run: 1,
                        },
                        1 << 32,
                        1 << 16,
                        0.3,
                    )
                },
            ],
            frac_mem: 0.4,
            frac_branch: 0.15,
            frac_fp: 0.2,
            branch_predictability: 0.8,
            dep_p: 0.4,
            code_kb: 16,
            cold_code_frac: 0.05,
            expect_l1_miss: 0.05,
            expect_l2_miss: 0.0,
        }
    }

    #[test]
    fn mix_fractions_roughly_respected() {
        let mut s = MixStream::new(spec(), 1);
        let n = 50_000;
        let mut mem = 0;
        let mut br = 0;
        for _ in 0..n {
            match s.next_inst().op {
                Op::Load { .. } | Op::Store { .. } => mem += 1,
                Op::Branch { .. } => br += 1,
                _ => {}
            }
        }
        let fm = mem as f64 / n as f64;
        let fb = br as f64 / n as f64;
        assert!((fm - 0.4).abs() < 0.03, "mem fraction {fm}");
        assert!((fb - 0.15).abs() < 0.02, "branch fraction {fb}");
    }

    #[test]
    fn pattern_weights_respected() {
        let mut s = MixStream::new(spec(), 1);
        let mut hot = 0u64;
        let mut chase = 0u64;
        for _ in 0..50_000 {
            if let Op::Load { addr } | Op::Store { addr } = s.next_inst().op {
                if addr < 1 << 20 {
                    hot += 1;
                } else {
                    chase += 1;
                }
            }
        }
        let frac = hot as f64 / (hot + chase) as f64;
        assert!((frac - 0.7).abs() < 0.05, "hot fraction {frac}");
    }

    #[test]
    fn chase_loads_carry_serial_deps() {
        let mut s = MixStream::new(spec(), 1);
        let mut dep_count = 0;
        let mut chase_count = 0;
        for _ in 0..20_000 {
            let inst = s.next_inst();
            if let Op::Load { addr } | Op::Store { addr } = inst.op {
                if addr >= 1 << 32 {
                    chase_count += 1;
                    if inst.dep > 0 {
                        dep_count += 1;
                    }
                }
            }
        }
        assert!(chase_count > 1000);
        // All but the first chase access depend on a predecessor.
        assert!(dep_count >= chase_count - 1, "{dep_count}/{chase_count}");
    }

    #[test]
    fn determinism() {
        let mut a = MixStream::new(spec(), 7);
        let mut b = MixStream::new(spec(), 7);
        for _ in 0..1000 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = MixStream::new(spec(), 1);
        let mut b = MixStream::new(spec(), 2);
        let same = (0..200).filter(|_| a.next_inst() == b.next_inst()).count();
        assert!(same < 100, "streams should diverge, same={same}");
    }

    #[test]
    fn software_prefetches_emitted_when_configured() {
        let mut sp = spec();
        sp.patterns[0].sw_prefetch = Some(crate::patterns::SwPrefetchSpec {
            lead_bytes: 256,
            every: 2,
        });
        let mut s = MixStream::new(sp, 1);
        let mut prefetches = 0;
        for _ in 0..20_000 {
            if matches!(s.next_inst().op, Op::SoftPrefetch { .. }) {
                prefetches += 1;
            }
        }
        assert!(prefetches > 1000, "{prefetches}");
    }

    #[test]
    fn branch_sites_have_stable_behavior() {
        // With 0.8 predictability, overall taken-rate should be far from
        // 50% (predictable sites are ~94% taken).
        let mut s = MixStream::new(spec(), 3);
        let mut taken = 0u64;
        let mut total = 0u64;
        for _ in 0..50_000 {
            if let Op::Branch { taken: t, .. } = s.next_inst().op {
                total += 1;
                if t {
                    taken += 1;
                }
            }
        }
        let rate = taken as f64 / total as f64;
        assert!(rate > 0.7, "taken rate {rate}");
    }

    #[test]
    fn validate_catches_overlap() {
        let mut sp = spec();
        sp.patterns[1].base = 100; // overlaps pattern 0
        assert!(sp.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_mix() {
        let mut sp = spec();
        sp.frac_mem = 0.9;
        sp.frac_branch = 0.3;
        assert!(sp.validate().is_err());
    }
}
