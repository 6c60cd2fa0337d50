//! TDP enforcement and core/uncore budget balancing (paper Sections V-B and
//! VIII, Table IV).
//!
//! Starting with Haswell-EP, RAPL enforces the TDP from *measured* power:
//! every frequency above AVX base — including nominal — is opportunistic.
//! The controller resolves the steady-state operating point of one socket:
//!
//! 1. The core ceiling from the frequency setting, turbo bins, the AVX
//!    license, EET and the EPB turbo-at-base rule.
//! 2. The uncore target from UFS, keyed by the *actual* frequency of the
//!    fastest active core (self-consistently — the solver iterates).
//! 3. If the ceiling/target point exceeds TDP, the core frequency is
//!    reduced until the budget holds; if it leaves headroom **and the
//!    workload stalls on memory**, the uncore absorbs the remaining budget
//!    up to its 3.0 GHz maximum — the paper's "available headroom is used
//!    to increase the uncore frequencies" (Table IV caption).

use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::{EpbClass, PState, SkuSpec};
use hsw_power::{uniform_package_power_w, CoreElecState};

use crate::ufs::{self, UfsInputs};

/// Inputs describing one socket's load for an equilibrium solve.
#[derive(Debug, Clone, PartialEq)]
pub struct PcuInputs<'a> {
    pub spec: &'a SkuSpec,
    /// Per-part efficiency multiplier (paper Section III).
    pub socket_power_mult: f64,
    /// OS frequency setting of the active cores.
    pub setting: FreqSetting,
    pub epb: EpbClass,
    /// `IA32_MISC_ENABLE\[38\]` turbo disengage (inverted).
    pub turbo_enabled: bool,
    /// Cores running the workload.
    pub active_cores: usize,
    /// Idle cores that are power gated (C6) vs. merely halted (C1).
    pub gated_idle_cores: usize,
    /// Per-core switching activity (duty-modulated, before the AVX
    /// multiplier).
    pub activity: f64,
    /// AVX license level engaged on the active cores (0 = none,
    /// 1 = 256-bit, 2 = 512-bit).
    pub avx_level: u8,
    /// Memory-stall fraction of the workload.
    pub stall_fraction: f64,
    /// EET's current turbo limit in MHz (`u32::MAX` when unconstrained).
    pub eet_limit_mhz: u32,
    /// The RAPL limiter's running-average package power (W). While it is
    /// still below PL1, the short-term PL2 budget applies (burst headroom).
    pub avg_pkg_w: f64,
}

/// The resolved operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcuGrant {
    /// Granted core frequency in MHz (time-averaged over bin dithering,
    /// hence not necessarily a multiple of 100).
    pub core_mhz: f64,
    /// Granted uncore frequency in MHz.
    pub uncore_mhz: f64,
    /// Package power at the operating point in W.
    pub power_w: f64,
    /// Whether the TDP limiter constrained the grant.
    pub power_limited: bool,
}

/// Stateless equilibrium solver (the node simulator slews toward this
/// point at the 500 µs PCU cadence).
#[derive(Debug, Clone, Default)]
pub struct PcuController;

#[cfg(test)]
thread_local! {
    /// [`PcuController::power_at`] calls on this thread, for the tests that
    /// pin how many candidates a solve prices.
    static POWER_EVALS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

impl PcuController {
    /// The pre-power-limit core frequency ceiling in MHz.
    pub fn core_ceiling_mhz(inputs: &PcuInputs<'_>) -> u32 {
        let spec = inputs.spec;
        let active = inputs.active_cores.max(1);
        let mut ceiling = match inputs.setting {
            FreqSetting::Turbo => {
                if inputs.turbo_enabled {
                    spec.freq.turbo_mhz(active)
                } else {
                    spec.freq.base_mhz
                }
            }
            FreqSetting::Fixed(p) => {
                // EPB performance keeps turbo active even at the base
                // frequency setting (paper Section II-C).
                if inputs.epb == EpbClass::Performance
                    && p.mhz() == spec.freq.base_mhz
                    && inputs.turbo_enabled
                {
                    spec.freq.turbo_mhz(active)
                } else {
                    p.mhz()
                }
            }
        };
        if inputs.avx_level > 0 && spec.generation.has_avx_frequencies() {
            ceiling = ceiling.min(spec.freq.license_turbo_mhz(inputs.avx_level, active));
        }
        ceiling = ceiling.min(inputs.eet_limit_mhz);
        ceiling.max(spec.freq.min_mhz)
    }

    /// Package power at a candidate operating point: the active cores at
    /// `core_mhz`, the gated idle cores in C6 and the rest halted at the
    /// minimum p-state. It reads each frequency only as `mhz.round() as
    /// u32`, which is what lets [`PcuController::solve`] memoize it: a
    /// TDP-limited solve prices about 50 distinct candidates, and the
    /// event engine's quiescence proof one per full tick. It prices each
    /// core class once instead of building a core array.
    fn power_at(inputs: &PcuInputs<'_>, core_mhz: f64, uncore_mhz: f64) -> f64 {
        #[cfg(test)]
        POWER_EVALS.with(|n| n.set(n.get() + 1));
        let spec = inputs.spec;
        let active = inputs.active_cores.min(spec.cores);
        let idle = spec.cores.saturating_sub(inputs.active_cores);
        let gated = inputs.gated_idle_cores.min(idle);
        let busy = CoreElecState {
            mhz: core_mhz.round() as u32,
            activity: inputs.activity,
            license_level: inputs.avx_level,
            power_gated: false,
        };
        uniform_package_power_w(
            spec,
            inputs.socket_power_mult,
            &busy,
            active,
            spec.cores - active - gated,
            uncore_mhz.round() as u32,
        )
        .total_w()
    }

    /// The two-level RAPL limiter's budget window `[0.9·TDP, PL2·TDP]` (W).
    pub fn budget_window_w(spec: &SkuSpec) -> (f64, f64) {
        (
            spec.tdp_w * 0.9,
            spec.tdp_w * hsw_hwspec::calib::PL2_TDP_MULT,
        )
    }

    /// EPB bias of the power budget: under a percent (Table V shows sub-1 %
    /// frequency differences across EPB settings).
    pub fn epb_budget_factor(epb: EpbClass) -> f64 {
        match epb {
            EpbClass::Performance => 1.005,
            EpbClass::Balanced => 1.0,
            EpbClass::EnergySaving => 0.995,
        }
    }

    /// Instantaneous package power budget (W). Two-level RAPL: the limiter
    /// holds the *running average* at PL1 by granting up to `2·PL1 − avg`
    /// (so bursts ride at PL2 while the average is low, and steady state
    /// converges to exactly PL1), clamped to [`PcuController::budget_window_w`]
    /// and biased by [`PcuController::epb_budget_factor`].
    pub fn budget_w(spec: &SkuSpec, epb: EpbClass, avg_pkg_w: f64) -> f64 {
        let (lo, hi) = Self::budget_window_w(spec);
        (2.0 * spec.tdp_w - avg_pkg_w).clamp(lo, hi) * Self::epb_budget_factor(epb)
    }

    /// UFS target keyed by the actual core frequency (mapped onto the
    /// Table III schedule bins). `epb` is passed explicitly because the
    /// EPB=performance uncore pin only survives while the package has power
    /// headroom (see [`PcuController::solve`]).
    fn ufs_target_for(inputs: &PcuInputs<'_>, core_mhz: f64, epb: EpbClass) -> f64 {
        let spec = inputs.spec;
        let setting = if core_mhz > spec.freq.base_mhz as f64 + 50.0 {
            FreqSetting::Turbo
        } else {
            let bin = ((core_mhz / 100.0).round() as u32 * 100)
                .clamp(spec.freq.min_mhz, spec.freq.base_mhz);
            FreqSetting::Fixed(PState::from_mhz(bin))
        };
        ufs::ufs_target_mhz(
            spec,
            &UfsInputs {
                fastest_setting: setting,
                socket_active: inputs.active_cores > 0,
                epb,
                stall_fraction: inputs.stall_fraction,
                package_sleep: false,
            },
        ) as f64
    }

    /// Largest value in `[lo, hi]` that `fits`: `hi` itself when it fits,
    /// else the low end of a 24-step bisection bracket. `fits` must read its
    /// candidate only as `mhz.round() as u32` (as
    /// [`PcuController::power_at`] does), so a 2-slot memo keyed by that
    /// rounding answers repeated candidates: once the bracket is narrower
    /// than 1 MHz, every later midpoint rounds to one of two integers.
    /// Midpoints, comparisons and the iteration count are the plain
    /// bisection's, so the result is bit-identical to it.
    fn max_within(lo: f64, hi: f64, mut fits: impl FnMut(f64) -> bool) -> f64 {
        let mut memo: [Option<(u32, bool)>; 2] = [None; 2];
        let mut fits_rounded = |mhz: f64| {
            let key = mhz.round() as u32;
            if let Some(&(_, fit)) = memo.iter().flatten().find(|(k, _)| *k == key) {
                return fit;
            }
            let fit = fits(mhz);
            memo = [Some((key, fit)), memo[0]];
            fit
        };
        if fits_rounded(hi) {
            return hi;
        }
        let (mut lo, mut hi) = (lo, hi);
        for _ in 0..24 {
            let mid = 0.5 * (lo + hi);
            if fits_rounded(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Whether [`PcuController::solve`] returns bit-identical grants for
    /// *any* value of `inputs.avg_pkg_w`: either the socket is passive (the
    /// idle branch never reads the average), or the most power-hungry point
    /// the solver can consider — the pre-limit ceiling with the uncore at
    /// its maximum — fits under the smallest budget the two-level limiter
    /// can hand out. Power is monotone in both frequencies, so every
    /// in-budget comparison inside the bisections then resolves the same
    /// way regardless of where the running average sits, and the solver
    /// walks an identical path. The event engine uses this to prove that
    /// skipping periodic re-solves over a steady workload cannot change the
    /// grant.
    pub fn avg_insensitive(inputs: &PcuInputs<'_>) -> bool {
        if inputs.active_cores == 0 {
            return true;
        }
        let spec = inputs.spec;
        // Smallest possible budget: the bottom of the window, scaled by the
        // most frugal EPB factor.
        let min_budget =
            Self::budget_window_w(spec).0 * Self::epb_budget_factor(EpbClass::EnergySaving);
        let ceiling = Self::core_ceiling_mhz(inputs) as f64;
        Self::power_at(inputs, ceiling, spec.freq.uncore_max_mhz as f64) <= min_budget
    }

    /// Solve the steady-state operating point.
    pub fn solve(inputs: &PcuInputs<'_>) -> PcuGrant {
        let spec = inputs.spec;
        if inputs.active_cores == 0 {
            // Idle (passive) socket: its uncore follows the fastest active
            // core *in the system* through the passive schedule
            // (paper Table III, second row) — or is halted by package
            // c-states, which the node layer decides.
            let fu = ufs::ufs_target_mhz(
                spec,
                &UfsInputs {
                    fastest_setting: inputs.setting,
                    socket_active: false,
                    epb: inputs.epb,
                    stall_fraction: 0.0,
                    package_sleep: false,
                },
            ) as f64;
            return PcuGrant {
                core_mhz: spec.freq.min_mhz as f64,
                uncore_mhz: fu,
                power_w: Self::power_at(inputs, spec.freq.min_mhz as f64, fu),
                power_limited: false,
            };
        }

        let ceiling = Self::core_ceiling_mhz(inputs) as f64;
        let budget = Self::budget_w(spec, inputs.epb, inputs.avg_pkg_w);

        // The largest in-budget core frequency under uncore `fu`. With the
        // ceiling and budget fixed for the whole solve it is a pure function
        // of `fu`, which only takes a few UFS bin values, so the damped
        // iterations, the EPB=performance re-solve and the final re-snap
        // share one memo keyed by `fu`'s bits. A full memo just stops
        // storing, which keeps it exact.
        let mut core_memo: [Option<(u64, f64)>; 8] = [None; 8];
        let mut max_core_at = |fu: f64| {
            let key = fu.to_bits();
            if let Some(&(_, fc)) = core_memo.iter().flatten().find(|(k, _)| *k == key) {
                return fc;
            }
            let fc = Self::max_within(spec.freq.min_mhz as f64, ceiling, |fc| {
                Self::power_at(inputs, fc, fu) <= budget
            });
            if let Some(slot) = core_memo.iter_mut().find(|s| s.is_none()) {
                *slot = Some((key, fc));
            }
            fc
        };

        // Self-consistent iteration: the UFS target follows the actual core
        // frequency, which follows the power left by the uncore. Damped to
        // suppress bin oscillation.
        let mut solve_with_epb = |ufs_epb: EpbClass| {
            let mut fc = ceiling;
            let mut fu = Self::ufs_target_for(inputs, fc, ufs_epb);
            for _ in 0..24 {
                fc = 0.5 * (fc + max_core_at(fu));
                fu = Self::ufs_target_for(inputs, fc, ufs_epb);
            }
            (fc, fu)
        };
        let (mut fc, mut fu) = solve_with_epb(inputs.epb);
        let mut power_limited = fc < ceiling - 5.0;
        if power_limited && inputs.epb == EpbClass::Performance {
            // The EPB=performance uncore pin (Table III footnote) only
            // holds while there is power headroom; under TDP pressure the
            // PCU protects core frequency and falls back to stall-based
            // uncore scaling (otherwise a pinned 3.0 GHz uncore would starve
            // the cores — contradicting Table V's mprime 2500/perf row).
            (fc, fu) = solve_with_epb(EpbClass::Balanced);
            power_limited = fc < ceiling - 5.0;
        }

        // Leftover budget flows to the uncore when the workload stalls on
        // memory (Table IV: settings 2.2/2.1 GHz; Table III busy-wait must
        // NOT boost).
        if !power_limited && ufs::stall_boost_allowed(spec, inputs.stall_fraction) {
            fc = ceiling;
            let fu_max = spec.freq.uncore_max_mhz as f64;
            let boosted =
                Self::max_within(fu, fu_max, |fu| Self::power_at(inputs, fc, fu) <= budget);
            if boosted > fu {
                fu = boosted;
                power_limited = fu < fu_max - 5.0;
            }
        } else if power_limited {
            fc = max_core_at(fu);
        }

        let fu = fu.clamp(
            spec.freq.uncore_min_mhz as f64,
            spec.freq.uncore_max_mhz as f64,
        );
        PcuGrant {
            core_mhz: fc,
            uncore_mhz: fu,
            power_w: Self::power_at(inputs, fc, fu),
            power_limited,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_exec::WorkloadProfile;
    use hsw_hwspec::calib;
    use proptest::prelude::*;

    fn sku() -> SkuSpec {
        SkuSpec::xeon_e5_2680_v3()
    }

    /// FIRESTARTER with Hyper-Threading on all cores (Table IV setup).
    fn firestarter_inputs(spec: &SkuSpec, setting: FreqSetting) -> PcuInputs<'_> {
        let fs = WorkloadProfile::firestarter();
        PcuInputs {
            spec,
            socket_power_mult: 1.0,
            setting,
            epb: EpbClass::Balanced,
            turbo_enabled: true,
            active_cores: spec.cores,
            gated_idle_cores: 0,
            activity: fs.activity(true),
            avx_level: 1,
            stall_fraction: fs.stall_fraction,
            eet_limit_mhz: u32::MAX,
            avg_pkg_w: spec.tdp_w, // steady state: PL1 applies
        }
    }

    fn fs_gips(grant: &PcuGrant) -> f64 {
        let fs = WorkloadProfile::firestarter();
        let fc = grant.core_mhz / 1000.0;
        fc * fs.ipc(true, fc, grant.uncore_mhz / 1000.0)
    }

    /// The solve before its memos: every bisection midpoint and every damped
    /// iteration prices its candidate afresh. Kept as the oracle that the
    /// memoized [`PcuController::solve`] must match bit for bit.
    fn reference_solve(inputs: &PcuInputs<'_>) -> PcuGrant {
        fn bisect(lo: f64, hi: f64, fits: impl Fn(f64) -> bool) -> f64 {
            if fits(hi) {
                return hi;
            }
            let (mut lo, mut hi) = (lo, hi);
            for _ in 0..24 {
                let mid = 0.5 * (lo + hi);
                if fits(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            lo
        }

        let spec = inputs.spec;
        if inputs.active_cores == 0 {
            // The passive branch prices one point and has nothing to memoize.
            return PcuController::solve(inputs);
        }
        let ceiling = PcuController::core_ceiling_mhz(inputs) as f64;
        let budget = PcuController::budget_w(spec, inputs.epb, inputs.avg_pkg_w);
        let max_core_within = |fu: f64| {
            bisect(spec.freq.min_mhz as f64, ceiling, |fc| {
                PcuController::power_at(inputs, fc, fu) <= budget
            })
        };
        let solve_with_epb = |ufs_epb: EpbClass| {
            let mut fc = ceiling;
            let mut fu = PcuController::ufs_target_for(inputs, fc, ufs_epb);
            for _ in 0..24 {
                let fc_new = max_core_within(fu);
                fc = 0.5 * (fc + fc_new);
                fu = PcuController::ufs_target_for(inputs, fc, ufs_epb);
            }
            (fc, fu)
        };
        let (mut fc, mut fu) = solve_with_epb(inputs.epb);
        let mut power_limited = fc < ceiling - 5.0;
        if power_limited && inputs.epb == EpbClass::Performance {
            (fc, fu) = solve_with_epb(EpbClass::Balanced);
            power_limited = fc < ceiling - 5.0;
        }
        if !power_limited && ufs::stall_boost_allowed(spec, inputs.stall_fraction) {
            fc = ceiling;
            let fu_max = spec.freq.uncore_max_mhz as f64;
            let boosted = bisect(fu, fu_max, |fu| {
                PcuController::power_at(inputs, fc, fu) <= budget
            });
            if boosted > fu {
                fu = boosted;
                power_limited = fu < fu_max - 5.0;
            }
        } else if power_limited {
            fc = max_core_within(fu);
        }
        let fu = fu.clamp(
            spec.freq.uncore_min_mhz as f64,
            spec.freq.uncore_max_mhz as f64,
        );
        PcuGrant {
            core_mhz: fc,
            uncore_mhz: fu,
            power_w: PcuController::power_at(inputs, fc, fu),
            power_limited,
        }
    }

    fn assert_matches_reference(inputs: &PcuInputs<'_>) {
        let bits = |g: PcuGrant| {
            (
                g.core_mhz.to_bits(),
                g.uncore_mhz.to_bits(),
                g.power_w.to_bits(),
                g.power_limited,
            )
        };
        assert_eq!(
            bits(PcuController::solve(inputs)),
            bits(reference_solve(inputs)),
            "{inputs:?}"
        );
    }

    /// `power_at` calls made by one solve.
    fn evals(inputs: &PcuInputs<'_>) -> u32 {
        POWER_EVALS.with(|n| n.set(0));
        PcuController::solve(inputs);
        POWER_EVALS.with(|n| n.get())
    }

    #[test]
    fn memoized_solve_is_bit_identical_to_the_reference_over_a_grid() {
        let workloads = [
            WorkloadProfile::firestarter(),
            WorkloadProfile::memory_bound(),
            WorkloadProfile::busy_wait(),
        ];
        let epbs = [
            EpbClass::Performance,
            EpbClass::Balanced,
            EpbClass::EnergySaving,
        ];
        // Every point of every axis is covered; `avg_pkg_w`, EET and the
        // workload cycle along the innermost axis with coprime periods
        // rather than multiplying the grid.
        let mut point = 0usize;
        for base in [sku(), SkuSpec::xeon_platinum_8170()] {
            let settings = std::iter::once(FreqSetting::Turbo)
                .chain((12..=25).map(|r| FreqSetting::from_mhz(r * 100)));
            for setting in settings {
                for tdp in [base.tdp_w, 70.0, 40.0] {
                    let mut spec = base.clone();
                    spec.tdp_w = tdp;
                    for (epb, avx_level) in
                        epbs.into_iter().flat_map(|e| (0..=2).map(move |a| (e, a)))
                    {
                        for active in 0..=spec.cores {
                            point += 1;
                            let w = &workloads[point % 3];
                            let inputs = PcuInputs {
                                spec: &spec,
                                socket_power_mult: 1.0,
                                setting,
                                epb,
                                turbo_enabled: true,
                                active_cores: active,
                                gated_idle_cores: (spec.cores - active) / 2,
                                activity: w.activity(true),
                                avx_level,
                                stall_fraction: w.stall_fraction,
                                eet_limit_mhz: if point.is_multiple_of(2) {
                                    u32::MAX
                                } else {
                                    spec.freq.base_mhz
                                },
                                avg_pkg_w: tdp * (point % 5) as f64 / 2.0,
                            };
                            assert_matches_reference(&inputs);
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
        #[test]
        fn prop_memoized_solve_is_bit_identical_to_the_reference(
            (activity, stall, mult, avg_frac) in
                (0.0f64..2.0, 0.0f64..1.0, 0.85f64..1.15, 0.0f64..=2.0),
            (skx, ratio, epb, avx_level) in
                (any::<bool>(), 11u32..=25, 0usize..3, 0u8..=2),
            // A cap of 0 W stands for the SKU's own TDP.
            (active, cap, eet) in
                (0usize..=28, prop_oneof![Just(0.0), Just(70.0), Just(40.0)], any::<bool>()),
        ) {
            let mut spec = if skx { SkuSpec::xeon_platinum_8170() } else { sku() };
            if cap > 0.0 {
                spec.tdp_w = cap;
            }
            let epbs = [EpbClass::Performance, EpbClass::Balanced, EpbClass::EnergySaving];
            let inputs = PcuInputs {
                spec: &spec,
                socket_power_mult: mult,
                // Ratio 11 stands for Turbo.
                setting: if ratio == 11 {
                    FreqSetting::Turbo
                } else {
                    FreqSetting::from_mhz(ratio * 100)
                },
                epb: epbs[epb],
                turbo_enabled: true,
                active_cores: active.min(spec.cores),
                gated_idle_cores: 0,
                activity,
                avx_level,
                stall_fraction: stall,
                eet_limit_mhz: if eet { spec.freq.base_mhz + 100 } else { u32::MAX },
                avg_pkg_w: spec.tdp_w * avg_frac,
            };
            assert_matches_reference(&inputs);
        }
    }

    #[test]
    fn tdp_limited_solve_prices_few_candidates() {
        // The memos price each rounded candidate once: the unmemoized solve
        // made 626 `power_at` calls here, and 1,226 under EPB=performance,
        // which re-solves with the balanced uncore schedule.
        let spec = sku();
        for epb in [EpbClass::Balanced, EpbClass::Performance] {
            let mut inputs = firestarter_inputs(&spec, FreqSetting::Turbo);
            inputs.epb = epb;
            assert!(PcuController::solve(&inputs).power_limited);
            let n = evals(&inputs);
            assert!(n <= 64, "{epb:?}: {n} power evaluations");
        }
    }

    #[test]
    fn sub_tdp_solve_prices_few_candidates() {
        // At 1.6 GHz FIRESTARTER fits the budget: the ceiling is priced once
        // per uncore bin instead of once per damped iteration (26 before).
        let spec = sku();
        let inputs = firestarter_inputs(&spec, FreqSetting::from_mhz(1600));
        assert!(!PcuController::solve(&inputs).power_limited);
        let n = evals(&inputs);
        assert!(n <= 4, "{n} power evaluations");
    }

    #[test]
    fn table4_turbo_equilibrium() {
        // Paper Table IV, Turbo column: core ≈ 2.30/2.32 GHz,
        // uncore ≈ 2.33/2.35 GHz, GIPS ≈ 3.55/3.58, TDP limited.
        let spec = sku();
        let g = PcuController::solve(&firestarter_inputs(&spec, FreqSetting::Turbo));
        assert!(g.power_limited);
        assert!(
            (2.22..=2.38).contains(&(g.core_mhz / 1000.0)),
            "core = {:.3} GHz",
            g.core_mhz / 1000.0
        );
        assert!(
            (2.25..=2.50).contains(&(g.uncore_mhz / 1000.0)),
            "uncore = {:.3} GHz",
            g.uncore_mhz / 1000.0
        );
        assert!(
            (g.power_w - spec.tdp_w).abs() < 2.0,
            "power = {:.1}",
            g.power_w
        );
        let gips = fs_gips(&g);
        assert!((gips - 3.56).abs() < 0.08, "GIPS = {gips:.3}");
    }

    #[test]
    fn table4_2500_equals_turbo() {
        // Table IV: the 2.5 GHz and Turbo columns are nearly identical
        // (both TDP limited well below 2.5 GHz).
        let spec = sku();
        let turbo = PcuController::solve(&firestarter_inputs(&spec, FreqSetting::Turbo));
        let fixed = PcuController::solve(&firestarter_inputs(&spec, FreqSetting::from_mhz(2500)));
        assert!((turbo.core_mhz - fixed.core_mhz).abs() < 60.0);
        assert!((turbo.uncore_mhz - fixed.uncore_mhz).abs() < 80.0);
    }

    #[test]
    fn table4_2200_headroom_goes_to_uncore() {
        // Table IV: at the 2.2 GHz setting the core runs at its setting and
        // the uncore rises to ≈2.8 GHz.
        let spec = sku();
        let g = PcuController::solve(&firestarter_inputs(&spec, FreqSetting::from_mhz(2200)));
        assert!(
            (g.core_mhz / 1000.0 - 2.2).abs() < 0.05,
            "core = {:.3}",
            g.core_mhz / 1000.0
        );
        assert!(
            (2.6..=2.95).contains(&(g.uncore_mhz / 1000.0)),
            "uncore = {:.3}",
            g.uncore_mhz / 1000.0
        );
    }

    #[test]
    fn table4_2100_no_throttling_uncore_at_max() {
        // Paper Section V-B: "For 2.1 GHz and slower, both processors use
        // less than 120 W ... and the uncore frequency is at 3.0 GHz".
        let spec = sku();
        let g = PcuController::solve(&firestarter_inputs(&spec, FreqSetting::from_mhz(2100)));
        assert!((g.core_mhz / 1000.0 - 2.1).abs() < 0.02);
        assert!((g.uncore_mhz / 1000.0 - 3.0).abs() < 0.02);
        assert!(
            g.power_w < calib::powercal::FS_NO_THROTTLE_BELOW_W,
            "power = {:.1}",
            g.power_w
        );
    }

    #[test]
    fn table4_gips_peaks_at_reduced_setting() {
        // The headline inversion: lowering the setting from Turbo to
        // 2.2–2.3 GHz *increases* instructions per second (paper: "A
        // performance gain of 1 % can be seen").
        let spec = sku();
        let gips = |mhz: u32| {
            fs_gips(&PcuController::solve(&firestarter_inputs(
                &spec,
                FreqSetting::from_mhz(mhz),
            )))
        };
        let turbo = fs_gips(&PcuController::solve(&firestarter_inputs(
            &spec,
            FreqSetting::Turbo,
        )));
        let best_reduced = gips(2300).max(gips(2200));
        assert!(
            best_reduced > turbo,
            "reduced-setting GIPS {best_reduced:.3} must beat turbo {turbo:.3}"
        );
        // And 2.1 GHz is slower than the peak (AVX base, uncore maxed, but
        // the core clock deficit dominates).
        assert!(gips(2100) < best_reduced);
    }

    #[test]
    fn socket0_clocks_lower_than_socket1() {
        // Paper Section III/V-B: processor 0 is less efficient, so its
        // TDP-limited frequencies and IPS are lower.
        let spec = sku();
        let mut i0 = firestarter_inputs(&spec, FreqSetting::Turbo);
        i0.socket_power_mult = calib::SOCKET_POWER_EFFICIENCY[0];
        let mut i1 = firestarter_inputs(&spec, FreqSetting::Turbo);
        i1.socket_power_mult = calib::SOCKET_POWER_EFFICIENCY[1];
        let g0 = PcuController::solve(&i0);
        let g1 = PcuController::solve(&i1);
        assert!(g0.core_mhz < g1.core_mhz);
        assert!(fs_gips(&g0) < fs_gips(&g1));
    }

    #[test]
    fn busy_wait_single_core_follows_table3_without_boost() {
        // Table III scenario: one spinning core, no stalls → uncore must sit
        // at the schedule value (2.2 GHz at the 2.5 GHz setting), NOT absorb
        // the abundant power headroom.
        let spec = sku();
        let bw = WorkloadProfile::busy_wait();
        let inputs = PcuInputs {
            spec: &spec,
            socket_power_mult: 1.0,
            setting: FreqSetting::from_mhz(2500),
            epb: EpbClass::Balanced,
            turbo_enabled: true,
            active_cores: 1,
            gated_idle_cores: 11,
            activity: bw.activity(false),
            avx_level: 0,
            stall_fraction: bw.stall_fraction,
            eet_limit_mhz: u32::MAX,
            avg_pkg_w: 30.0,
        };
        let g = PcuController::solve(&inputs);
        assert!(!g.power_limited);
        assert!((g.core_mhz - 2500.0).abs() < 1.0);
        assert!(
            (g.uncore_mhz - 2200.0).abs() < 60.0,
            "uncore = {:.0} MHz must follow the Table III schedule",
            g.uncore_mhz
        );
    }

    #[test]
    fn avx_license_caps_turbo_at_avx_bins() {
        let spec = sku();
        let mut inputs = firestarter_inputs(&spec, FreqSetting::Turbo);
        inputs.activity = 0.2; // light load: no TDP pressure
        inputs.stall_fraction = 0.0;
        let ceiling = PcuController::core_ceiling_mhz(&inputs);
        assert_eq!(ceiling, spec.freq.avx_turbo_mhz(12));
        inputs.avx_level = 0;
        let ceiling = PcuController::core_ceiling_mhz(&inputs);
        assert_eq!(ceiling, spec.freq.turbo_mhz(12));
    }

    #[test]
    fn epb_performance_turns_base_setting_into_turbo() {
        // Paper Section II-C: "When setting EPB to performance, turbo mode
        // will be active even when the base frequency is selected."
        let spec = sku();
        let mut inputs = firestarter_inputs(&spec, FreqSetting::from_mhz(2500));
        inputs.epb = EpbClass::Performance;
        inputs.avx_level = 0;
        assert_eq!(
            PcuController::core_ceiling_mhz(&inputs),
            spec.freq.turbo_mhz(12)
        );
        // But not for non-base fixed settings.
        inputs.setting = FreqSetting::from_mhz(2400);
        assert_eq!(PcuController::core_ceiling_mhz(&inputs), 2400);
    }

    #[test]
    fn turbo_disable_caps_at_nominal() {
        let spec = sku();
        let mut inputs = firestarter_inputs(&spec, FreqSetting::Turbo);
        inputs.turbo_enabled = false;
        inputs.avx_level = 0;
        assert_eq!(PcuController::core_ceiling_mhz(&inputs), spec.freq.base_mhz);
    }

    #[test]
    fn out_of_range_core_counts_are_clamped_not_fatal() {
        // More active cores than the SKU has, and more gated cores than
        // are idle: the solve clamps both to the package and still grants.
        for spec in [sku(), SkuSpec::xeon_platinum_8170()] {
            for (active, gated) in [(spec.cores + 3, 5), (2, spec.cores), (0, spec.cores + 9)] {
                let mut inputs = firestarter_inputs(&spec, FreqSetting::Turbo);
                inputs.active_cores = active;
                inputs.gated_idle_cores = gated;
                let g = PcuController::solve(&inputs);
                assert!(g.power_w.is_finite() && g.power_w > 0.0, "{g:?}");
                assert!(g.core_mhz >= spec.freq.min_mhz as f64, "{g:?}");
            }
        }
    }

    #[test]
    fn idle_socket_grant_is_minimal() {
        let spec = sku();
        let idle = WorkloadProfile::idle();
        let inputs = PcuInputs {
            spec: &spec,
            socket_power_mult: 1.0,
            setting: FreqSetting::from_mhz(2500),
            epb: EpbClass::Balanced,
            turbo_enabled: true,
            active_cores: 0,
            gated_idle_cores: 12,
            activity: idle.activity(false),
            avx_level: 0,
            stall_fraction: 0.0,
            eet_limit_mhz: u32::MAX,
            avg_pkg_w: 12.0,
        };
        let g = PcuController::solve(&inputs);
        assert!(!g.power_limited);
        // The passive socket's uncore follows the Table III passive
        // schedule for the system's 2.5 GHz setting (2.1 GHz), so the
        // package draws uncore power but nothing core-side.
        assert!(
            (g.uncore_mhz - 2100.0).abs() < 1.0,
            "uncore {:.0}",
            g.uncore_mhz
        );
        assert!(g.power_w < 26.0, "idle pkg = {:.1} W", g.power_w);
    }
}
