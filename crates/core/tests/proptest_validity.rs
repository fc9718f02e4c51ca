//! Property tests: every ELink mode always emits a valid δ-clustering
//! (Definition 1) on arbitrary topologies, features and δ.

use elink_core::{
    run_explicit, run_implicit, run_unordered, validate_delta_clustering, ElinkConfig,
};
use elink_datasets::TerrainDataset;
use elink_metric::{Absolute, Feature};
use elink_netsim::{LossyLink, SimNetwork, SyncLink};
use elink_topology::Topology;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random topology + random scalar features + random δ: all three
    /// modes produce valid clusterings, and the unordered ablation never
    /// beats the ordered variants by more than noise.
    #[test]
    fn all_modes_always_valid(
        n in 8usize..60,
        topo_seed in 0u64..500,
        feat_scale in 1.0f64..100.0,
        delta_frac in 0.05f64..1.0,
        async_seed in 0u64..100,
    ) {
        let topology = Topology::random_synthetic(n, topo_seed);
        // Features: pseudo-random but deterministic in the seeds.
        let features: Vec<Feature> = (0..n)
            .map(|v| {
                let h = (v as u64)
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(topo_seed);
                let x = (h >> 11) as f64 / (1u64 << 53) as f64;
                Feature::scalar(x * feat_scale)
            })
            .collect();
        let delta = (feat_scale * delta_frac).max(1e-6);
        let network = SimNetwork::new(topology.clone());
        let config = ElinkConfig::for_delta(delta);

        let imp = run_implicit(&network, &features, Arc::new(Absolute), config);
        validate_delta_clustering(&imp.clustering, &topology, &features, &Absolute, delta)
            .map_err(|e| TestCaseError::fail(format!("implicit: {e}")))?;

        let exp = run_explicit(
            &network,
            &features,
            Arc::new(Absolute),
            config,
            LossyLink::new(1, 5),
            async_seed,
        );
        validate_delta_clustering(&exp.clustering, &topology, &features, &Absolute, delta)
            .map_err(|e| TestCaseError::fail(format!("explicit: {e}")))?;

        let uno = run_unordered(
            &network,
            &features,
            Arc::new(Absolute),
            config,
            SyncLink,
            0,
        );
        validate_delta_clustering(&uno.clustering, &topology, &features, &Absolute, delta)
            .map_err(|e| TestCaseError::fail(format!("unordered: {e}")))?;

        // Message complexity sanity: O(N) with the paper's constants —
        // d(c+1)N expands plus synchronization; use a generous envelope.
        let d = topology.graph().max_degree() as u64;
        let c = config.max_switches as u64;
        let envelope = d * (c + 2) * (n as u64) * 8 + 1000;
        prop_assert!(
            imp.costs.total_packets() <= envelope,
            "implicit packets {} above O(N) envelope {envelope}",
            imp.costs.total_packets()
        );
        prop_assert!(
            exp.costs.total_packets() <= envelope,
            "explicit packets {} above O(N) envelope {envelope}",
            exp.costs.total_packets()
        );
    }

    /// Terrain instances: implicit and explicit stay quality-equivalent on
    /// synchronous networks after the start-alignment fix.
    #[test]
    fn implicit_explicit_quality_equivalence(seed in 0u64..40) {
        let data = TerrainDataset::generate(80, 5, 0.55, seed);
        let features = data.features();
        let delta = 400.0;
        let network = SimNetwork::new(data.topology().clone());
        let config = ElinkConfig::for_delta(delta);
        let imp = run_implicit(&network, &features, Arc::new(Absolute), config);
        let exp = run_explicit(
            &network,
            &features,
            Arc::new(Absolute),
            config,
            SyncLink,
            0,
        );
        let (a, b) = (
            imp.clustering.cluster_count() as f64,
            exp.clustering.cluster_count() as f64,
        );
        prop_assert!(
            (a - b).abs() <= 0.25 * a.max(b) + 2.0,
            "implicit {a} vs explicit {b} clusters"
        );
    }
}
