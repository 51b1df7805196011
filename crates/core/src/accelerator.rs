//! The top-level [`Accelerator`] API: plan → simulate → bound → energy.

use accel_sim::{ArchConfig, SimError, SimStats};
use comm_bound::BoundSummary;
use conv_model::fixed::Q8_8;
use conv_model::workloads::Network;
use conv_model::{ConvLayer, Tensor4};
use dataflow::Tiling;
use energy_model::EnergyParams;

use crate::energy::energy_of;
use crate::planner::{plan_for_arch, planned_simulation};
use crate::report::{LayerReport, NetworkReport};

/// A configured instance of the communication-optimal accelerator.
///
/// Bundles an architecture with an energy model and exposes the analysis
/// pipeline used by every figure reproduction: tiling planning, cycle
/// simulation, bound evaluation and energy accounting.
///
/// ```
/// use clb_core::Accelerator;
/// use conv_model::ConvLayer;
///
/// let acc = Accelerator::implementation(1);
/// let layer = ConvLayer::square(1, 64, 28, 64, 3, 1).unwrap();
/// let report = acc.analyze_layer("demo", &layer).unwrap();
/// assert!(report.dram_vs_bound() < 1.6);
/// ```
#[derive(Debug, Clone)]
pub struct Accelerator {
    arch: ArchConfig,
    energy_params: EnergyParams,
}

impl Accelerator {
    /// Creates an accelerator from an architecture with default energy
    /// parameters.
    #[must_use]
    pub fn new(arch: ArchConfig) -> Self {
        Accelerator {
            arch,
            energy_params: EnergyParams::default(),
        }
    }

    /// One of the five Table I implementations.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not in `1..=5`.
    #[must_use]
    pub fn implementation(index: usize) -> Self {
        Accelerator::new(ArchConfig::implementation(index))
    }

    /// Replaces the energy parameters.
    #[must_use]
    pub fn with_energy_params(mut self, params: EnergyParams) -> Self {
        self.energy_params = params;
        self
    }

    /// The architecture.
    #[must_use]
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// The energy parameters.
    #[must_use]
    pub fn energy_params(&self) -> &EnergyParams {
        &self.energy_params
    }

    /// Plans the DRAM-minimal feasible tiling for a layer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when no tiling of the Fig. 7 dataflow fits the
    /// architecture (see [`plan_for_arch`]).
    pub fn plan(&self, layer: &ConvLayer) -> Result<Tiling, SimError> {
        plan_for_arch(layer, &self.arch)
    }

    /// Simulates a layer under its planned tiling. The stats come from the
    /// plan memo with the tiling, so a warm layer is not simulated again.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from planning (see [`plan_for_arch`]).
    pub fn simulate(&self, layer: &ConvLayer) -> Result<SimStats, SimError> {
        planned_simulation(layer, &self.arch).map(|(_, stats)| stats)
    }

    /// Full analysis of one layer: plan, simulate, bound, energy. The
    /// tiling and its stats are one plan-memo lookup.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`].
    pub fn analyze_layer(&self, name: &str, layer: &ConvLayer) -> Result<LayerReport, SimError> {
        let (tiling, stats) = planned_simulation(layer, &self.arch)?;
        Ok(self.layer_report(name, layer, tiling, stats))
    }

    /// Full analysis of one layer plus an execution trace of its planned
    /// simulation (see [`accel_sim::trace`]).
    ///
    /// The trace rides the exact simulation the report describes — the
    /// planned tiling is simulated traced — so the report's `stats` and
    /// the trace's interval sums are bit-identical by the simulator's
    /// construction. A cold plan is therefore simulated twice: once
    /// untraced to fill the plan memo, once traced.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`], including
    /// [`SimError::TraceTooLarge`] when the planned grid exceeds the
    /// trace caps for the requested options.
    pub fn analyze_layer_traced(
        &self,
        name: &str,
        layer: &ConvLayer,
        options: &accel_sim::TraceOptions,
    ) -> Result<(LayerReport, accel_sim::ExecutionTrace), SimError> {
        let tiling = self.plan(layer)?;
        let (stats, trace) = accel_sim::simulate_traced(layer, &tiling, &self.arch, options)?;
        Ok((self.layer_report(name, layer, tiling, stats), trace))
    }

    /// The energy → bound tail of both layer analyses, over a planned
    /// tiling and its stats.
    fn layer_report(
        &self,
        name: &str,
        layer: &ConvLayer,
        tiling: Tiling,
        stats: SimStats,
    ) -> LayerReport {
        let energy = energy_of(&stats, &self.arch, &self.energy_params);
        let bounds = BoundSummary::of(layer, accel_sim::effective_memory(&self.arch));
        LayerReport {
            name: name.to_string(),
            layer: *layer,
            tiling,
            stats,
            energy,
            bounds,
        }
    }

    /// Full analysis of a network (the Fig. 14–20 pipeline).
    ///
    /// The per-layer plan → simulate → bound → energy pipelines are
    /// independent, so they fan out across threads (`rayon::par_map`); the
    /// report keeps layers in network order and the result is bit-identical
    /// to a serial run (planning is deterministic under parallelism and the
    /// search cache only memoizes deterministic values).
    ///
    /// # Errors
    ///
    /// Propagates the first (in layer order) [`SimError`] encountered.
    pub fn analyze_network(&self, network: &Network) -> Result<NetworkReport, SimError> {
        let named: Vec<_> = network.conv_layers().collect();
        // `par_map` preserves item order, so `?` below still surfaces the
        // first failing layer in network order, matching the serial loop.
        // Deliberate trade: unlike the serial loop, the remaining layers
        // are still analyzed when an early one fails — failures only occur
        // for structurally unmappable layers (rare, caller-visible 4xx),
        // and short-circuiting across workers would make which error
        // surfaces depend on thread timing.
        let results = rayon::par_map(&named, |n| self.analyze_layer(&n.name, &n.layer));
        let mut layers = Vec::with_capacity(results.len());
        for result in results {
            layers.push(result?);
        }
        Ok(NetworkReport::from_layer_reports(
            network.name(),
            layers,
            self.arch.core_freq_hz,
        ))
    }

    /// Runs the functional simulation of one layer (Q8.8 datapath) under the
    /// planned tiling, returning the computed outputs and the stats.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`].
    ///
    /// # Panics
    ///
    /// Panics if the tensor shapes disagree with `layer`.
    pub fn run_functional(
        &self,
        layer: &ConvLayer,
        input: &Tensor4<Q8_8>,
        weights: &Tensor4<Q8_8>,
    ) -> Result<(Tensor4<Q8_8>, SimStats), SimError> {
        let tiling = self.plan(layer)?;
        accel_sim::simulate_functional(layer, &tiling, &self.arch, input, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_model::workloads;

    #[test]
    fn analyze_layer_produces_consistent_report() {
        let acc = Accelerator::implementation(1);
        let layer = workloads::vgg16(1).layer(7).unwrap().layer; // conv4_1
        let report = acc.analyze_layer("conv4_1", &layer).unwrap();
        assert_eq!(report.stats.useful_macs, layer.macs());
        assert!(report.energy.total_pj() > 0.0);
        assert!(report.dram_vs_bound() >= 0.95);
        assert!(report.pj_per_mac() > energy_model::table::MAC_PJ);
    }

    #[test]
    fn traced_analysis_matches_untraced() {
        let acc = Accelerator::implementation(1);
        let layer = workloads::vgg16(1).layer(7).unwrap().layer; // conv4_1
        let report = acc.analyze_layer("conv4_1", &layer).unwrap();
        let (traced, trace) = acc
            .analyze_layer_traced("conv4_1", &layer, &accel_sim::TraceOptions::default())
            .unwrap();
        assert_eq!(report.stats, traced.stats);
        assert_eq!(report.tiling, traced.tiling);
        assert_eq!(trace.totals.compute_cycles, report.stats.compute_cycles);
        assert_eq!(trace.totals.stall_cycles, report.stats.stall_cycles);
        assert_eq!(trace.totals.blocks, report.stats.blocks);
        assert_eq!(trace.totals.iterations, report.stats.iterations);
    }

    #[test]
    fn functional_run_matches_counting_run() {
        let acc = Accelerator::implementation(1);
        let layer = ConvLayer::square(1, 4, 10, 3, 3, 1).unwrap();
        let input = Tensor4::from_fn(1, 3, 10, 10, |_, c, h, w| {
            Q8_8::from_f64(((c * h + w) % 5) as f64 * 0.5 - 1.0)
        });
        let weights = Tensor4::from_fn(4, 3, 3, 3, |n, c, h, w| {
            Q8_8::from_f64(((n + c * h * w) % 3) as f64 * 0.25)
        });
        let (out, stats) = acc.run_functional(&layer, &input, &weights).unwrap();
        let counted = acc.simulate(&layer).unwrap();
        assert_eq!(stats, counted);
        assert_eq!(out.shape(), (1, 4, 10, 10));
    }

    #[test]
    fn network_report_aggregates() {
        let acc = Accelerator::implementation(1);
        let net = workloads::resnet_bottleneck(1, 14, 64, 16);
        let report = acc.analyze_network(&net).unwrap();
        assert_eq!(report.layers.len(), 3);
        assert_eq!(report.total_macs(), net.total_macs());
        assert!(report.seconds > 0.0);
        assert!(report.power_w() > 0.0);
    }

    #[test]
    fn builder_style_energy_params() {
        let params = EnergyParams {
            other_fraction: 0.0,
            ..EnergyParams::default()
        };
        let acc = Accelerator::implementation(2).with_energy_params(params);
        assert_eq!(acc.energy_params().other_fraction, 0.0);
        assert_eq!(acc.arch().pe_count(), 512);
    }
}
