//! Cross-crate integration: the measurement tools driving the simulated
//! node through the MSR surface, and hardware semantics that only appear
//! when the full stack is assembled.

use haswell_survey_repro::exec::WorkloadProfile;
use haswell_survey_repro::hwspec::freq::FreqSetting;
use haswell_survey_repro::hwspec::{calib, EpbClass};
use haswell_survey_repro::msr::{addresses as msra, MsrError};
use haswell_survey_repro::node::{CpuId, Node, NodeConfig};
use haswell_survey_repro::power::DramRaplMode;
use haswell_survey_repro::tools::perfctr::{median_of, PerfCtr};

fn firestarter_node() -> Node {
    let mut node = Node::new(NodeConfig::paper_default());
    let fs = WorkloadProfile::firestarter();
    for s in 0..2 {
        node.run_on_socket(s, &fs, 12, 2);
    }
    node.set_setting_all(FreqSetting::Turbo);
    node.advance_s(0.6);
    node
}

#[test]
fn pp0_domain_is_absent_via_the_full_stack() {
    // Paper Section IV: PP0 is not supported on Haswell-EP. A tool reading
    // it through the node must see the #GP, not zeros.
    let node = Node::new(NodeConfig::paper_default());
    assert_eq!(
        node.rdmsr(CpuId::new(0, 0, 0), msra::MSR_PP0_ENERGY_STATUS),
        Err(MsrError::Unsupported(msra::MSR_PP0_ENERGY_STATUS))
    );
}

#[test]
fn dram_mode0_reads_unreasonably_high_through_the_node() {
    // Paper Section IV: "Using DRAM mode 0 will result in unspecified
    // behavior" / "unreasonable high values for DRAM power consumption".
    let measure = |mode: DramRaplMode| {
        let mut node = Node::new(NodeConfig::paper_default().with_dram_mode(mode));
        node.run_on_socket(0, &WorkloadProfile::memory_bound(), 12, 1);
        node.advance_s(0.5);
        let pc = PerfCtr::new(&node, CpuId::new(0, 0, 0));
        let a = pc.sample(&node);
        node.advance_s(1.0);
        let b = pc.sample(&node);
        pc.derive(&a, &b).dram_w
    };
    let mode1 = measure(DramRaplMode::Mode1);
    let mode0 = measure(DramRaplMode::Mode0);
    assert!(mode1 > 5.0 && mode1 < 60.0, "mode1 = {mode1:.1} W");
    assert!(
        mode0 > 3.0 * mode1,
        "mode0 {mode0:.1} W should be unreasonably high vs mode1 {mode1:.1} W"
    );
}

#[test]
fn both_sockets_hit_tdp_but_socket1_runs_faster() {
    let mut node = firestarter_node();
    let pc0 = PerfCtr::new(&node, CpuId::new(0, 0, 0));
    let pc1 = PerfCtr::new(&node, CpuId::new(1, 0, 0));
    let (a0, a1) = (pc0.sample(&node), pc1.sample(&node));
    node.advance_s(2.0);
    let (b0, b1) = (pc0.sample(&node), pc1.sample(&node));
    let d0 = pc0.derive(&a0, &b0);
    let d1 = pc1.derive(&a1, &b1);
    assert!((d0.pkg_w - 120.0).abs() < 4.0, "socket0 {:.1} W", d0.pkg_w);
    assert!((d1.pkg_w - 120.0).abs() < 4.0, "socket1 {:.1} W", d1.pkg_w);
    // Section III: socket 0 uses lower sustained turbo frequencies.
    assert!(d0.core_ghz <= d1.core_ghz + 0.005);
}

#[test]
fn effective_frequency_is_opportunistic_above_avx_base() {
    // Section II-F: every frequency above AVX base is opportunistic. Under
    // FIRESTARTER the nominal setting cannot be sustained …
    let mut node = firestarter_node();
    node.set_setting_all(FreqSetting::from_mhz(2500));
    node.advance_s(0.5);
    let pc = PerfCtr::new(&node, CpuId::new(0, 0, 0));
    let samples = pc.monitor(&mut node, 8, 0.25);
    let eff = median_of(&samples, |d| d.core_ghz);
    assert!(eff < 2.45, "2.5 GHz setting sustained {eff:.3} GHz");
    // … but the AVX base frequency itself is guaranteed.
    assert!(eff > 2.1, "must never drop below AVX base, got {eff:.3}");
}

#[test]
fn epb_programming_changes_uncore_behavior_end_to_end() {
    // Table III footnote: EPB=performance pins the uncore at 3.0 GHz.
    let mut node = Node::new(NodeConfig::paper_default());
    node.run_on_socket(0, &WorkloadProfile::busy_wait(), 1, 1);
    node.set_setting_all(FreqSetting::from_mhz(1800));
    node.advance_s(0.3);
    let pc = PerfCtr::new(&node, CpuId::new(0, 0, 0));
    let s0 = pc.sample(&node);
    node.advance_s(0.5);
    let s1 = pc.sample(&node);
    let balanced = pc.derive(&s0, &s1);
    assert!(
        (balanced.uncore_ghz - 1.6).abs() < 0.1,
        "balanced: {:.2}",
        balanced.uncore_ghz
    );

    node.set_epb_all(EpbClass::Performance);
    node.advance_s(0.3);
    let s2 = pc.sample(&node);
    node.advance_s(0.5);
    let s3 = pc.sample(&node);
    let perf = pc.derive(&s2, &s3);
    // The UFS ablation: the Table III schedule exists to save the power a
    // pinned uncore draws for a core that gains nothing from it.
    assert!(
        perf.pkg_w > balanced.pkg_w + 1.0,
        "pinned uncore {:.1} W vs UFS schedule {:.1} W",
        perf.pkg_w,
        balanced.pkg_w
    );
    assert!(
        (perf.uncore_ghz - 3.0).abs() < 0.1,
        "performance: {:.2}",
        perf.uncore_ghz
    );
}

#[test]
fn turbo_disable_caps_the_effective_frequency() {
    let mut node = Node::new(NodeConfig::paper_default());
    node.run_on_socket(0, &WorkloadProfile::compute(), 2, 1);
    node.set_setting_all(FreqSetting::Turbo);
    node.set_turbo(false);
    node.advance_s(0.5);
    let f = node.sockets()[0].true_core_mhz(0);
    assert!(
        f <= 2500.0 + 1.0,
        "turbo disabled must cap at nominal, got {f:.0} MHz"
    );
}

#[test]
fn rapl_energy_counters_wrap_correctly_in_long_runs() {
    // The 32-bit DRAM counter wraps every ~65 kJ; differencing through the
    // tool layer must survive a synthetic long accumulation.
    let mut node = Node::new(NodeConfig::paper_default());
    node.run_on_socket(0, &WorkloadProfile::memory_bound(), 12, 2);
    node.advance_s(0.5);
    let pc = PerfCtr::new(&node, CpuId::new(0, 0, 0));
    let mut prev = pc.sample(&node);
    for _ in 0..5 {
        node.advance_s(0.5);
        let cur = pc.sample(&node);
        let d = pc.derive(&prev, &cur);
        assert!(d.dram_w > 0.0 && d.dram_w < 80.0, "dram {:.1}", d.dram_w);
        assert!(d.pkg_w > 0.0 && d.pkg_w < 130.0, "pkg {:.1}", d.pkg_w);
        prev = cur;
    }
}

#[test]
fn idle_rapl_matches_fig2_intercept_through_msrs() {
    let mut node = Node::new(NodeConfig::paper_default());
    node.idle_all();
    node.advance_s(0.5);
    let read = |node: &Node, s: usize| {
        node.rdmsr(CpuId::new(s, 0, 0), msra::MSR_PKG_ENERGY_STATUS)
            .unwrap() as u32
    };
    let before = [read(&node, 0), read(&node, 1)];
    node.advance_s(2.0);
    let mut watts = 0.0;
    for (s, b) in before.iter().enumerate() {
        let d = read(&node, s).wrapping_sub(*b) as f64;
        watts += d * calib::PKG_ENERGY_UNIT_UJ * 1e-6 / 2.0;
    }
    assert!(
        (15.0..40.0).contains(&watts),
        "idle package power (both sockets) = {watts:.1} W"
    );
}
