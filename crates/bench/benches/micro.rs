//! Component microbenchmarks and design-choice ablations.
//!
//! The first groups time the hot-path data structures in isolation (cache
//! probe/fill, history-table lookup/train, prefetch generators, branch
//! predictor, workload stream generation, the core's issue stage). The ablation groups quantify
//! the design choices DESIGN.md calls out: counter width, L1
//! associativity, the stride (RPT) prefetcher extension, and the adaptive
//! filter gate.

use criterion::{criterion_group, criterion_main, Criterion};
use ppf_cpu::{Core, Inst, InstStream, MemoryPort, Op};
use ppf_filter::{table::HistoryTable, PollutionFilter};
use ppf_mem::cache::{Cache, FillKind};
use ppf_mem::replacement::ReplacementPolicy;
use ppf_prefetch::{
    AccessEvent, NextSequencePrefetcher, Prefetcher, ShadowDirectoryPrefetcher, StridePrefetcher,
};
use ppf_sim::experiments::RunSpec;
use ppf_types::{
    Addr, CacheConfig, CoreConfig, Cycle, FilterConfig, FilterKind, LineAddr, Pc, PrefetchRequest,
    PrefetchSource, SimStats, SplitMix64, SystemConfig,
};
use ppf_workloads::Workload;
use std::hint::black_box;

fn bench_cache(c: &mut Criterion) {
    let cfg = CacheConfig {
        size_bytes: 8 * 1024,
        line_bytes: 32,
        ways: 1,
        hit_latency: 1,
        ports: 3,
    };
    c.bench_function("micro/cache/probe_fill_mix", |b| {
        let mut cache = Cache::new(&cfg, ReplacementPolicy::Lru, 1);
        let mut rng = SplitMix64::new(9);
        b.iter(|| {
            let line = LineAddr(rng.below(4096));
            if cache.probe(line, false).is_none() {
                cache.fill(line, FillKind::Demand);
            }
            black_box(cache.valid_lines() > 0)
        })
    });
}

fn bench_history_table(c: &mut Criterion) {
    c.bench_function("micro/filter/table_lookup_train", |b| {
        let mut t = HistoryTable::new(4096, 2);
        let mut rng = SplitMix64::new(5);
        b.iter(|| {
            let key = rng.next_u64();
            let p = t.predict_good(key);
            t.train(key, !p);
            black_box(p)
        })
    });
    c.bench_function("micro/filter/full_filter_decision", |b| {
        let mut f = PollutionFilter::new(&FilterConfig {
            kind: FilterKind::Pa,
            ..FilterConfig::default()
        });
        let mut rng = SplitMix64::new(6);
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            let req = PrefetchRequest {
                line: LineAddr(rng.below(1 << 20)),
                trigger_pc: rng.below(1 << 16) * 4,
                source: PrefetchSource::Nsp,
                tenant: 0,
                depth: 1,
            };
            let d = f.should_prefetch(&req, now);
            if !d {
                f.on_demand_miss(req.line, now + 3);
            }
            black_box(d)
        })
    });
}

fn bench_prefetchers(c: &mut Criterion) {
    let event = |line: u64, hit: bool| AccessEvent {
        pc: 0x1000 + (line % 16) * 4,
        addr: line * 32,
        line: LineAddr(line),
        l1_hit: hit,
        nsp_tagged_hit: false,
        l2_accessed: !hit,
        l2_hit: true,
        is_store: false,
    };
    c.bench_function("micro/prefetch/nsp_trigger", |b| {
        let mut p = NextSequencePrefetcher::new();
        let mut out = Vec::with_capacity(4);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            out.clear();
            p.on_access(&event(i % 10_000, i.is_multiple_of(3)), &mut out);
            black_box(out.len())
        })
    });
    c.bench_function("micro/prefetch/sdp_trigger", |b| {
        let mut p = ShadowDirectoryPrefetcher::new(16384);
        let mut out = Vec::with_capacity(4);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            out.clear();
            p.on_access(&event(i % 4096, false), &mut out);
            black_box(out.len())
        })
    });
    c.bench_function("micro/prefetch/stride_rpt", |b| {
        let mut p = StridePrefetcher::paper_sized();
        let mut out = Vec::with_capacity(4);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            out.clear();
            let mut ev = event(i % 1000, true);
            ev.addr = i * 64;
            p.on_access(&ev, &mut out);
            black_box(out.len())
        })
    });
}

fn bench_workload_generation(c: &mut Criterion) {
    c.bench_function("micro/workload/stream_next_inst", |b| {
        let mut s = Workload::Mcf.stream(3);
        b.iter(|| black_box(s.next_inst()))
    });
}

fn bench_core_issue(c: &mut Criterion) {
    // The latency-bound regime of the pointer-chasing codes: every
    // 128-instruction block opens with a 300-cycle load that holds the ROB
    // head, and one ALU op in eight extends a dependence chain running
    // through the whole stream while the rest are independent. The window
    // fills with issued entries stuck behind the miss; the chain wakes one
    // entry per cycle, so the issue scan runs each cycle over a window
    // that is mostly Done.
    struct SlowLoads;
    impl MemoryPort for SlowLoads {
        fn try_access(&mut self, _pc: Pc, _addr: Addr, _store: bool, now: Cycle) -> Option<Cycle> {
            Some(now + 300)
        }
        fn software_prefetch(&mut self, _pc: Pc, _addr: Addr, _now: Cycle) {}
    }
    c.bench_function("micro/cpu/issue_scan_blocked_window", |b| {
        let mut core = Core::new(&CoreConfig::default());
        let mut i = 0u64;
        let mut stream = move || {
            i += 1;
            let pc = 0x1000 + (i % 128) * 4;
            match i % 128 {
                0 => Inst::new(pc, Op::Load { addr: i * 64 }),
                k if k % 8 == 4 => Inst::with_dep(pc, Op::IntAlu, 8),
                _ => Inst::new(pc, Op::IntAlu),
            }
        };
        let mut stats = SimStats::default();
        let mut now = 0;
        // Ten head-load periods per sample.
        b.iter(|| {
            for _ in 0..3_000 {
                core.tick(now, &mut stream, &mut SlowLoads, &mut stats);
                now += 1;
            }
            black_box(stats.instructions)
        })
    });
}

fn bench_simulator_throughput(c: &mut Criterion) {
    // Whole-machine throughput: simulated instructions per wall second is
    // the number the README quotes.
    c.bench_function("micro/sim/20k_instructions_em3d", |b| {
        b.iter(|| {
            black_box(
                RunSpec::new("tp", SystemConfig::paper_default(), Workload::Em3d)
                    .instructions(20_000)
                    .run(),
            )
        })
    });
}

fn bench_ablation_counter_width(c: &mut Criterion) {
    for bits in [1u8, 2, 3] {
        let mut cfg = SystemConfig::paper_default().with_filter(FilterKind::Pa);
        cfg.filter.counter_bits = bits;
        let name = format!("ablation/counter_width/{bits}-bit/mcf");
        c.bench_function(&name, |b| {
            b.iter(|| {
                black_box(
                    RunSpec::new("w", cfg.clone(), Workload::Mcf)
                        .instructions(30_000)
                        .run(),
                )
            })
        });
    }
}

fn bench_ablation_stride_prefetcher(c: &mut Criterion) {
    let mut cfg = SystemConfig::paper_default();
    cfg.prefetch.stride = true;
    c.bench_function("ablation/with_stride_rpt/wave5", |b| {
        b.iter(|| {
            black_box(
                RunSpec::new("stride", cfg.clone(), Workload::Wave5)
                    .instructions(30_000)
                    .run(),
            )
        })
    });
}

fn bench_ablation_adaptive_gate(c: &mut Criterion) {
    let mut cfg = SystemConfig::paper_default().with_filter(FilterKind::Pa);
    cfg.filter.adaptive_accuracy_threshold = Some(0.5);
    c.bench_function("ablation/adaptive_gate/em3d", |b| {
        b.iter(|| {
            black_box(
                RunSpec::new("adaptive", cfg.clone(), Workload::Em3d)
                    .instructions(30_000)
                    .run(),
            )
        })
    });
}

fn bench_ablation_nsp_degree(c: &mut Criterion) {
    for degree in [1u32, 4] {
        let mut cfg = SystemConfig::paper_default();
        cfg.prefetch.nsp_degree = degree;
        let name = format!("ablation/nsp_degree/{degree}/gzip");
        c.bench_function(&name, |b| {
            b.iter(|| {
                black_box(
                    RunSpec::new("deg", cfg.clone(), Workload::Gzip)
                        .instructions(30_000)
                        .run(),
                )
            })
        });
    }
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(10);
    targets =
        bench_cache,
        bench_history_table,
        bench_prefetchers,
        bench_workload_generation,
        bench_core_issue,
        bench_simulator_throughput,
        bench_ablation_counter_width,
        bench_ablation_stride_prefetcher,
        bench_ablation_adaptive_gate,
        bench_ablation_nsp_degree,
}
criterion_main!(micro);
