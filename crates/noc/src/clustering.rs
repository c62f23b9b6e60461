//! Dynamic clustering (paper §IV): per-layer reconfiguration of the
//! `(N_g, N_c)` worker organization.
//!
//! The physical network is fixed; what changes between layers is *routing*
//! (which rings the weight collectives use, possibly stitched through the
//! host, and which subset of the FBFLY forms a cluster). Since layer
//! structure is static, the optimal configuration is chosen offline from
//! the precomputed communication amounts — reconfiguration itself moves
//! no data (§IV).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::network::PhaseTime;
use crate::params::{LinkKind, NocParams};
use crate::tile_transfer::tile_transfer_phase;
use crate::topology::Topology;

/// A worker organization: `N_g` groups (intra-tile parallelism) ×
/// `N_c` clusters (data parallelism), `N_g · N_c = p`.
///
/// # Examples
///
/// ```
/// use wmpt_noc::ClusterConfig;
///
/// let cfg = ClusterConfig::new(16, 16);
/// assert_eq!(cfg.workers(), 256);
/// assert_eq!(ClusterConfig::paper_configs().len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterConfig {
    /// Number of groups — tile elements are split `T²/N_g` per group.
    pub n_g: usize,
    /// Number of clusters — the batch is split `B/N_c` per cluster.
    pub n_c: usize,
}

impl ClusterConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(n_g: usize, n_c: usize) -> Self {
        assert!(n_g >= 1 && n_c >= 1, "dimensions must be positive");
        Self { n_g, n_c }
    }

    /// The paper's three supported configurations on 256 workers (§IV).
    pub fn paper_configs() -> [Self; 3] {
        [Self::new(16, 16), Self::new(4, 64), Self::new(1, 256)]
    }

    /// Pure data parallelism over `p` workers.
    pub fn data_parallel(p: usize) -> Self {
        Self::new(1, p)
    }

    /// Total workers `p = N_g · N_c`.
    pub fn workers(&self) -> usize {
        self.n_g * self.n_c
    }

    /// Length of each weight-collective ring (the data-parallel dimension).
    pub fn ring_len(&self) -> usize {
        self.n_c
    }

    /// Host traversals per lap of a (possibly stitched) collective ring on
    /// a physical arrangement with `group_size` workers per physical ring.
    ///
    /// A ring of `N_c ≤ group_size` workers stays inside one physical
    /// group (no host). Longer rings chain `N_c / group_size` physical
    /// groups, crossing the host once per chained group.
    pub fn host_traversals(&self, group_size: usize) -> usize {
        if self.n_c <= group_size {
            0
        } else {
            self.n_c.div_ceil(group_size)
        }
    }

    /// The intra-cluster tile-transfer fabric: 4×4 FBFLY for 16 groups
    /// (max 2 hops), a fully connected set for `N_g ≤ 4` (an FBFLY column,
    /// as in the paper's (4, 64) configuration — "four fully connected
    /// workers constitute a cluster"), `None` when `N_g == 1` (no tile
    /// transfer at all).
    ///
    /// The fabric is a pure function of `N_g`, so it is built (and its
    /// routes computed) once per `N_g` per process; every later call
    /// shares that build.
    pub fn cluster_topology(&self) -> Option<Arc<Topology>> {
        type Memo = Mutex<HashMap<usize, Arc<Topology>>>;
        static MEMO: OnceLock<Memo> = OnceLock::new();
        if self.n_g <= 1 {
            return None;
        }
        // Every update is one insert of a finished fabric, so a guard
        // recovered from a poisoned lock still sees a valid map.
        let mut memo = MEMO
            .get_or_init(Memo::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let fabric = memo
            .entry(self.n_g)
            .or_insert_with(|| Arc::new(cluster_fabric(self.n_g)));
        Some(Arc::clone(fabric))
    }

    /// Gather-volume multiplier of the 1-D-transform-at-source
    /// optimization (§IV): when each group holds complete tile lines, the
    /// source applies the first 1-D inverse transform before transfer, so
    /// gathered lines shrink from `T` to `m` values. Averaged over the
    /// scatter (unreduced) and gather (reduced) halves of the traffic:
    /// `(1 + m/T) / 2`. Returns 1.0 outside the 1-D regime.
    pub fn tile_volume_factor(&self, tile_m: usize, tile_t: usize) -> f64 {
        if self.uses_one_d_transfer(tile_t) {
            (1.0 + tile_m as f64 / tile_t as f64) / 2.0
        } else {
            1.0
        }
    }

    /// `true` for the 1-D-transform-at-source regime (§IV/§V): each group
    /// holds at least a complete line of the tile, i.e. `N_g ≤ T`.
    pub fn uses_one_d_transfer(&self, tile_t: usize) -> bool {
        self.n_g > 1 && self.n_g <= tile_t
    }
}

/// The tile-transfer fabric of an `n_g`-group cluster (`n_g ≥ 2`).
fn cluster_fabric(n_g: usize) -> Topology {
    let side = (n_g as f64).sqrt().round() as usize;
    if n_g > 4 && side * side == n_g {
        Topology::flattened_butterfly(side, side, LinkKind::Narrow)
    } else {
        Topology::fully_connected(n_g, LinkKind::Narrow)
    }
}

impl std::fmt::Display for ClusterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({} Ng, {} Nc)", self.n_g, self.n_c)
    }
}

/// Estimated per-layer communication cost of a configuration, used by the
/// offline optimizer (§IV: "the optimal configuration per layer ... is
/// pre-determined").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommEstimate {
    /// Weight-collective cycles per iteration.
    pub weight_cycles: f64,
    /// Tile-transfer cycles per iteration (all phases).
    pub tile_cycles: f64,
}

impl CommEstimate {
    /// Total cycles.
    pub fn total(&self) -> f64 {
        self.weight_cycles + self.tile_cycles
    }
}

/// Estimates communication time of one training iteration of a layer
/// under `cfg`.
///
/// * `winograd_weight_bytes` — `|W|` (full Winograd-domain weights).
/// * `tile_bytes_total` — Winograd-domain feature bytes moved per
///   iteration across the batch, already summed over the scatter/gather
///   phases of fprop and bprop (and already discounted by prediction /
///   zero-skipping and the 1-D-transfer factor if applicable).
/// * `ring_bandwidth` — bytes/cycle of the collective ring fabric.
pub fn estimate_comm(
    cfg: ClusterConfig,
    params: &NocParams,
    winograd_weight_bytes: u64,
    tile_bytes_total: u64,
    ring_bandwidth: f64,
    group_size: usize,
) -> CommEstimate {
    // Weight collective: each group reduces+broadcasts |W|/N_g around its
    // ring of N_c workers.
    let msg = winograd_weight_bytes / cfg.n_g as u64;
    let host_extra = cfg.host_traversals(group_size) as u64 * 2 * params.hop_latency()
        / cfg.ring_len().max(1) as u64;
    let weight_cycles = crate::collective::ring_collective_cycles(
        msg,
        cfg.ring_len(),
        ring_bandwidth,
        params,
        host_extra,
    );
    // Tile transfer: per cluster, the all-to-all carries the cluster's
    // share of the tile bytes.
    let tile_cycles = match cfg.cluster_topology() {
        None => 0.0,
        Some(cluster) => {
            let cluster_bytes = tile_bytes_total / cfg.n_c as u64;
            tile_transfer_phase(&cluster, params, cluster_bytes, cfg.n_g).cycles
        }
    };
    CommEstimate {
        weight_cycles,
        tile_cycles,
    }
}

/// Chooses the configuration with the smallest estimated communication
/// time (dynamic clustering's per-layer decision). `tile_bytes_for`
/// supplies the per-configuration tile volume, letting callers fold in
/// the 1-D-transfer factor ([`ClusterConfig::tile_volume_factor`]) and any
/// prediction/zero-skip savings.
pub fn choose_config_with(
    candidates: &[ClusterConfig],
    params: &NocParams,
    winograd_weight_bytes: u64,
    tile_bytes_for: impl Fn(ClusterConfig) -> u64,
    ring_bandwidth: f64,
    group_size: usize,
) -> ClusterConfig {
    assert!(
        !candidates.is_empty(),
        "need at least one candidate configuration"
    );
    *candidates
        .iter()
        .min_by(|a, b| {
            let ta = estimate_comm(
                **a,
                params,
                winograd_weight_bytes,
                tile_bytes_for(**a),
                ring_bandwidth,
                group_size,
            )
            .total();
            let tb = estimate_comm(
                **b,
                params,
                winograd_weight_bytes,
                tile_bytes_for(**b),
                ring_bandwidth,
                group_size,
            )
            .total();
            ta.partial_cmp(&tb).expect("estimates are finite")
        })
        .expect("candidates nonempty")
}

/// [`choose_config_with`] for a configuration-independent tile volume.
pub fn choose_config(
    candidates: &[ClusterConfig],
    params: &NocParams,
    winograd_weight_bytes: u64,
    tile_bytes_total: u64,
    ring_bandwidth: f64,
    group_size: usize,
) -> ClusterConfig {
    choose_config_with(
        candidates,
        params,
        winograd_weight_bytes,
        |_| tile_bytes_total,
        ring_bandwidth,
        group_size,
    )
}

/// Candidate degraded organizations over `alive` surviving workers.
///
/// The dynamic-clustering optimizer normally assumes the full grid; after
/// permanent worker loss it must remap `(N_g, N_c)` onto the survivors.
/// The group dimension keeps the paper's supported values (`N_g` a power
/// of 4 up to `t2`, the tile element count) because the intra-tile split
/// is structural; the data-parallel dimension shrinks to
/// `N_c = alive / N_g`. Workers beyond `N_g · N_c` idle as spares.
pub fn degraded_configs(alive: usize, t2: usize) -> Vec<ClusterConfig> {
    let mut out = Vec::new();
    let mut n_g = 1;
    while n_g <= t2 {
        if alive >= n_g {
            out.push(ClusterConfig::new(n_g, alive / n_g));
        }
        n_g *= 4;
    }
    out
}

/// [`choose_config_with`] over [`degraded_configs`]: the offline
/// optimizer's decision for a degraded grid of `alive` workers.
#[allow(clippy::too_many_arguments)]
pub fn choose_degraded_config(
    alive: usize,
    t2: usize,
    params: &NocParams,
    winograd_weight_bytes: u64,
    tile_bytes_total: u64,
    ring_bandwidth: f64,
    group_size: usize,
) -> ClusterConfig {
    choose_config(
        &degraded_configs(alive, t2),
        params,
        winograd_weight_bytes,
        tile_bytes_total,
        ring_bandwidth,
        group_size,
    )
}

/// Convenience re-export of the tile-transfer phase for callers that have
/// a config rather than a topology.
pub fn tile_phase_for(
    cfg: ClusterConfig,
    params: &NocParams,
    tile_bytes_total: u64,
) -> Option<PhaseTime> {
    cfg.cluster_topology().map(|cluster| {
        tile_transfer_phase(&cluster, params, tile_bytes_total / cfg.n_c as u64, cfg.n_g)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_cover_256_workers() {
        for cfg in ClusterConfig::paper_configs() {
            assert_eq!(cfg.workers(), 256);
        }
    }

    #[test]
    fn host_traversals_by_ring_length() {
        assert_eq!(ClusterConfig::new(16, 16).host_traversals(16), 0);
        assert_eq!(ClusterConfig::new(4, 64).host_traversals(16), 4);
        assert_eq!(ClusterConfig::new(1, 256).host_traversals(16), 16);
    }

    #[test]
    fn cluster_topologies_match_paper() {
        let c16 = ClusterConfig::new(16, 16).cluster_topology().unwrap();
        assert_eq!(c16.len(), 16);
        assert!(c16.hops(0, 5) <= 2); // FBFLY

        let c4 = ClusterConfig::new(4, 64).cluster_topology().unwrap();
        assert_eq!(c4.len(), 4);
        assert_eq!(c4.hops(0, 3), 1); // clique (FBFLY column)

        assert!(ClusterConfig::new(1, 256).cluster_topology().is_none());
    }

    #[test]
    fn one_d_transfer_regime() {
        // F(2x2,3x3): T = 4.
        assert!(!ClusterConfig::new(16, 16).uses_one_d_transfer(4));
        assert!(ClusterConfig::new(4, 64).uses_one_d_transfer(4));
        assert!(!ClusterConfig::new(1, 256).uses_one_d_transfer(4));
    }

    #[test]
    fn weight_heavy_layer_prefers_many_groups() {
        // Late layer: big weights, tiny feature maps.
        let p = NocParams::paper();
        let picked = choose_config(
            &ClusterConfig::paper_configs(),
            &p,
            512 << 20, // |W| = 512 MiB-ish of Winograd weights
            1 << 20,   // tiny tile traffic
            60.0,
            16,
        );
        assert_eq!(picked, ClusterConfig::new(16, 16));
    }

    #[test]
    fn fmap_heavy_layer_prefers_data_parallel() {
        // Early layer: small weights, huge feature maps.
        let p = NocParams::paper();
        let picked = choose_config(
            &ClusterConfig::paper_configs(),
            &p,
            1 << 20,    // small weights
            8192 << 20, // massive tile traffic
            60.0,
            16,
        );
        assert_eq!(picked, ClusterConfig::new(1, 256));
    }

    #[test]
    fn intermediate_layer_can_prefer_middle_config() {
        let p = NocParams::paper();
        // Scan a sweep with the 1-D-transfer discount applied per config
        // (F(2x2,3x3): m=2, T=4) and require that (4, 64) wins somewhere
        // between the two extremes — the reason the paper supports three
        // configurations.
        let mut seen = [false; 3];
        for shift in 0..24 {
            let tiles = 1u64 << (16 + shift);
            let picked = choose_config_with(
                &ClusterConfig::paper_configs(),
                &p,
                16 << 20,
                |cfg| (tiles as f64 * cfg.tile_volume_factor(2, 4)) as u64,
                60.0,
                16,
            );
            for (i, c) in ClusterConfig::paper_configs().iter().enumerate() {
                if picked == *c {
                    seen[i] = true;
                }
            }
        }
        assert!(seen[0], "the (16,16) configuration never won the sweep");
        assert!(seen[1], "the (4,64) configuration never won the sweep");
        assert!(seen[2], "the (1,256) configuration never won the sweep");
    }

    #[test]
    fn tile_volume_factor_only_in_one_d_regime() {
        assert_eq!(ClusterConfig::new(16, 16).tile_volume_factor(2, 4), 1.0);
        assert_eq!(ClusterConfig::new(4, 64).tile_volume_factor(2, 4), 0.75);
        assert_eq!(ClusterConfig::new(1, 256).tile_volume_factor(2, 4), 1.0);
    }

    #[test]
    fn estimate_components_behave_monotonically() {
        let p = NocParams::paper();
        let cfg = ClusterConfig::new(16, 16);
        let a = estimate_comm(cfg, &p, 1 << 20, 1 << 20, 60.0, 16);
        let b = estimate_comm(cfg, &p, 2 << 20, 1 << 20, 60.0, 16);
        assert!(b.weight_cycles > a.weight_cycles);
        assert_eq!(b.tile_cycles, a.tile_cycles);
        let c = estimate_comm(cfg, &p, 1 << 20, 2 << 20, 60.0, 16);
        assert!(c.tile_cycles > a.tile_cycles);
        assert!(c.total() > a.total());
    }

    #[test]
    fn data_parallel_has_no_tile_cost() {
        let p = NocParams::paper();
        let est = estimate_comm(
            ClusterConfig::new(1, 256),
            &p,
            64 << 20,
            512 << 20,
            120.0,
            16,
        );
        assert_eq!(est.tile_cycles, 0.0);
        assert!(est.weight_cycles > 0.0);
    }

    #[test]
    fn display_formats_like_paper() {
        assert_eq!(ClusterConfig::new(16, 16).to_string(), "(16 Ng, 16 Nc)");
    }

    #[test]
    fn degraded_configs_cover_survivors() {
        // Full 256-worker grid reproduces the paper's three configurations.
        assert_eq!(
            degraded_configs(256, 16),
            vec![
                ClusterConfig::new(1, 256),
                ClusterConfig::new(4, 64),
                ClusterConfig::new(16, 16)
            ]
        );
        // One dead worker: every config shrinks N_c, never exceeding the
        // survivor count.
        for cfg in degraded_configs(255, 16) {
            assert!(cfg.workers() <= 255, "{cfg} oversubscribes the grid");
        }
        assert!(degraded_configs(255, 16).contains(&ClusterConfig::new(16, 15)));
        // Tiny remnant grid: only data parallelism fits.
        assert_eq!(degraded_configs(3, 16), vec![ClusterConfig::new(1, 3)]);
    }

    #[test]
    fn degraded_choice_prefers_groups_for_weight_heavy_layers() {
        let p = NocParams::paper();
        let picked = choose_degraded_config(250, 16, &p, 512 << 20, 1 << 20, 60.0, 16);
        assert_eq!(picked, ClusterConfig::new(16, 15));
        let picked = choose_degraded_config(250, 16, &p, 1 << 20, 8192 << 20, 60.0, 16);
        assert_eq!(picked, ClusterConfig::new(1, 250));
    }
}
