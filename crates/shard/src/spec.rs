//! Deterministic keyspace partitioning into replication groups.
//!
//! A sharded deployment runs `n_groups` independent copies of the
//! paper's replication protocol side by side. Each group is a
//! self-contained cluster of `sites_per_group` sites replicating a
//! disjoint slice of the global keyspace; session vectors, fail-locks
//! and control transactions never cross a group boundary, so a site
//! failure in one group cannot stall traffic in another.
//!
//! Items are striped across groups by modulo: global item `x` lives in
//! group `x % n_groups` under the group-local name `x / n_groups`.
//! Striping (rather than contiguous ranges) keeps any uniform or
//! sequential workload balanced across groups without tuning.

use miniraid_core::config::ProtocolConfig;
use miniraid_core::ids::{ItemId, SiteId};
use miniraid_core::partial::ReplicationMap;
/// Static description of a sharded topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of replication groups (1 = the unsharded protocol).
    pub n_groups: u8,
    /// Fully-replicating sites in each group.
    pub sites_per_group: u8,
    /// Items per group; the global database holds
    /// `n_groups * group_db_size` items.
    pub group_db_size: u32,
}

impl ShardSpec {
    /// Construct a spec. Panics on a degenerate topology (zero groups,
    /// zero sites, empty groups) or one whose physical site ids would
    /// not fit the protocol's 64-site fail-lock representation.
    pub fn new(n_groups: u8, sites_per_group: u8, group_db_size: u32) -> Self {
        assert!(n_groups >= 1, "need at least one replication group");
        assert!(sites_per_group >= 1, "need at least one site per group");
        assert!(group_db_size >= 1, "groups must hold at least one item");
        let physical = n_groups as u32 * sites_per_group as u32;
        assert!(
            physical <= 64,
            "at most 64 physical sites ({n_groups} groups x {sites_per_group} sites)"
        );
        ShardSpec {
            n_groups,
            sites_per_group,
            group_db_size,
        }
    }

    /// Total items across all groups.
    pub fn global_db_size(&self) -> u32 {
        self.n_groups as u32 * self.group_db_size
    }

    /// Total database sites across all groups (excluding the manager).
    pub fn n_physical_sites(&self) -> u8 {
        self.n_groups * self.sites_per_group
    }

    /// The group a global item belongs to.
    pub fn group_of_item(&self, item: ItemId) -> u8 {
        (item.0 % self.n_groups as u32) as u8
    }

    /// A global item's name inside its group (dense `0..group_db_size`).
    pub fn localize(&self, item: ItemId) -> ItemId {
        ItemId(item.0 / self.n_groups as u32)
    }

    /// Inverse of [`localize`](Self::localize): the global name of
    /// `local` within `group`.
    pub fn globalize(&self, group: u8, local: ItemId) -> ItemId {
        ItemId(local.0 * self.n_groups as u32 + group as u32)
    }

    /// Physical site ids making up `group`, in group-local order.
    pub fn group_members(&self, group: u8) -> Vec<SiteId> {
        let base = group * self.sites_per_group;
        (0..self.sites_per_group)
            .map(|j| SiteId(base + j))
            .collect()
    }

    /// The physical site hosting group-local site `local` of `group`.
    pub fn physical_site(&self, group: u8, local: SiteId) -> SiteId {
        debug_assert!(local.0 < self.sites_per_group);
        SiteId(group * self.sites_per_group + local.0)
    }

    /// The `(group, group-local site)` pair of a physical site.
    pub fn local_site(&self, physical: SiteId) -> (u8, SiteId) {
        (
            physical.0 / self.sites_per_group,
            SiteId(physical.0 % self.sites_per_group),
        )
    }

    /// The managing site's id as seen from inside any group. Engines
    /// address reports to the first id past their own cluster; the host
    /// loop rewrites it to [`physical_manager`](Self::physical_manager).
    pub fn local_manager_alias(&self) -> SiteId {
        SiteId(self.sites_per_group)
    }

    /// The managing site's id on the physical network.
    pub fn physical_manager(&self) -> SiteId {
        SiteId(self.n_physical_sites())
    }

    /// The protocol configuration for one group: `base` with the site
    /// count and database size narrowed to the group's slice.
    pub fn group_config(&self, base: &ProtocolConfig) -> ProtocolConfig {
        let mut cfg = base.clone();
        cfg.n_sites = self.sites_per_group;
        cfg.db_size = self.group_db_size;
        cfg
    }

    /// The protocol configuration for one group of a *mapped* (live-
    /// reshardable) deployment: site count narrowed to the group, but
    /// the database kept at the full global size with identity item
    /// naming — any group engine can host any item, and the shard map's
    /// admission gate (not the engine) decides which ones it currently
    /// owns. That is what lets a migration hand items between groups
    /// without renaming them.
    pub fn mapped_config(&self, base: &ProtocolConfig) -> ProtocolConfig {
        let mut cfg = base.clone();
        cfg.n_sites = self.sites_per_group;
        cfg.db_size = self.global_db_size();
        cfg
    }

    /// The replication map of the whole sharded database over physical
    /// site ids: every item is held by exactly the members of its
    /// group. Used by the invariant oracle to know which sites must
    /// converge on which items.
    pub fn global_map(&self) -> ReplicationMap {
        let mut map = ReplicationMap::empty(self.global_db_size(), self.n_physical_sites());
        for raw in 0..self.global_db_size() {
            let item = ItemId(raw);
            for site in self.group_members(self.group_of_item(item)) {
                map.add_holder(item, site, false);
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn localize_globalize_roundtrip() {
        let spec = ShardSpec::new(4, 3, 25);
        for raw in 0..spec.global_db_size() {
            let item = ItemId(raw);
            let g = spec.group_of_item(item);
            let local = spec.localize(item);
            assert!(g < spec.n_groups);
            assert!(local.0 < spec.group_db_size);
            assert_eq!(spec.globalize(g, local), item);
        }
    }

    #[test]
    fn modulo_striping_balances_groups() {
        let spec = ShardSpec::new(4, 2, 10);
        let mut counts = [0u32; 4];
        for raw in 0..spec.global_db_size() {
            counts[spec.group_of_item(ItemId(raw)) as usize] += 1;
        }
        assert_eq!(counts, [10, 10, 10, 10]);
    }

    #[test]
    fn physical_local_site_mapping() {
        let spec = ShardSpec::new(3, 4, 10);
        assert_eq!(spec.n_physical_sites(), 12);
        assert_eq!(
            spec.group_members(1),
            vec![SiteId(4), SiteId(5), SiteId(6), SiteId(7)]
        );
        for g in 0..spec.n_groups {
            for j in 0..spec.sites_per_group {
                let phys = spec.physical_site(g, SiteId(j));
                assert_eq!(spec.local_site(phys), (g, SiteId(j)));
            }
        }
        assert_eq!(spec.local_manager_alias(), SiteId(4));
        assert_eq!(spec.physical_manager(), SiteId(12));
    }

    #[test]
    fn group_config_narrows_base() {
        let spec = ShardSpec::new(2, 3, 40);
        let base = ProtocolConfig {
            db_size: 999,
            n_sites: 99,
            max_inflight: 8,
            ..ProtocolConfig::default()
        };
        let cfg = spec.group_config(&base);
        assert_eq!(cfg.n_sites, 3);
        assert_eq!(cfg.db_size, 40);
        assert_eq!(cfg.max_inflight, 8);
    }

    #[test]
    fn global_map_holds_each_item_in_its_group_only() {
        let spec = ShardSpec::new(2, 2, 4);
        let map = spec.global_map();
        assert_eq!(map.n_items(), 8);
        assert_eq!(map.n_sites(), 4);
        for raw in 0..8u32 {
            let item = ItemId(raw);
            let holders: Vec<SiteId> = map.holders_of(item).collect();
            assert_eq!(holders, spec.group_members(spec.group_of_item(item)));
        }
    }

    #[test]
    #[should_panic(expected = "64 physical sites")]
    fn rejects_oversized_topologies() {
        ShardSpec::new(20, 4, 10);
    }
}
