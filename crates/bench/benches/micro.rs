//! Component micro-benchmarks: the hot inner functions of the simulator.
//! These are the performance-engineering counterpart of the experiment
//! benches — they tell a contributor what a PCU solve, a power evaluation,
//! a bandwidth query or a pipeline analysis costs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use hsw_exec::{FirestarterKernel, WorkloadProfile};
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::{EpbClass, MicroArch, SkuSpec};
use hsw_memhier::{dram_read_bandwidth_gbs, l3_read_bandwidth_gbs, Cache};
use hsw_pcu::{PcuController, PcuInputs};
use hsw_power::{package_power_w, CoreElecState};

fn bench_pcu_solve(c: &mut Criterion) {
    let spec = SkuSpec::xeon_e5_2680_v3();
    let fs = WorkloadProfile::firestarter();
    let inputs = PcuInputs {
        spec: &spec,
        socket_power_mult: 1.0,
        setting: FreqSetting::Turbo,
        epb: EpbClass::Balanced,
        turbo_enabled: true,
        active_cores: 12,
        gated_idle_cores: 0,
        activity: fs.activity(true),
        avx_level: 1,
        stall_fraction: fs.stall_fraction,
        eet_limit_mhz: u32::MAX,
        avg_pkg_w: spec.tdp_w,
    };
    c.bench_function("micro_pcu_solve_tdp_limited", |b| {
        b.iter(|| black_box(PcuController::solve(black_box(&inputs))))
    });
    // Table V's EPB=performance cells: under TDP pressure the solve drops
    // the performance uncore pin and solves again with the balanced one.
    let perf = PcuInputs {
        epb: EpbClass::Performance,
        ..inputs
    };
    c.bench_function("micro_pcu_solve_tdp_limited_perf_epb", |b| {
        b.iter(|| black_box(PcuController::solve(black_box(&perf))))
    });
}

fn bench_package_power(c: &mut Criterion) {
    let spec = SkuSpec::xeon_e5_2680_v3();
    let cores = vec![
        CoreElecState {
            mhz: 2300,
            activity: 1.0,
            license_level: 1,
            power_gated: false,
        };
        12
    ];
    c.bench_function("micro_package_power_eval", |b| {
        b.iter(|| black_box(package_power_w(&spec, 1.0, black_box(&cores), 2400)))
    });
}

fn bench_bandwidth_queries(c: &mut Criterion) {
    let spec = SkuSpec::xeon_e5_2680_v3();
    c.bench_function("micro_bandwidth_l3_plus_dram", |b| {
        b.iter(|| {
            black_box(l3_read_bandwidth_gbs(&spec, 12, 2, 2.5, 3.0))
                + black_box(dram_read_bandwidth_gbs(&spec, 12, 2, 2.5, 3.0))
        })
    });
}

fn bench_pipeline_analysis(c: &mut Criterion) {
    let kernel = FirestarterKernel::default_haswell();
    let arch = MicroArch::haswell_ep();
    c.bench_function("micro_pipeline_firestarter_4000_instr", |b| {
        b.iter(|| black_box(kernel.analyze(&arch, true, 1.0)))
    });
}

fn bench_cache_stream(c: &mut Criterion) {
    c.bench_function("micro_cache_stream_1mb", |b| {
        b.iter_with_setup(
            || Cache::new(256 * 1024, 8, 64),
            |mut cache| {
                for addr in (0..1_048_576u64).step_by(64) {
                    black_box(cache.access(addr));
                }
                cache
            },
        )
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_secs(1));
    targets = bench_pcu_solve, bench_package_power, bench_bandwidth_queries,
              bench_pipeline_analysis, bench_cache_stream
}
criterion_main!(micro);
