//! The machine design points evaluated in the paper.

use power_model::{ClusterDesign, IcacheOrganisation};
use serde::{Deserialize, Serialize};
use sim_acmp::{AcmpConfig, BusWidth, SharingMode};

/// Why a design point could not be constructed.
///
/// Every parameterised [`DesignPoint`] constructor returns this instead of
/// panicking (or silently wrapping), so spec parsers and programmatic
/// sweeps can surface the exact bad parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignPointError {
    /// An I-cache size in KiB whose byte count overflows `u64` — an
    /// unchecked multiply would wrap and silently simulate a tiny cache.
    IcacheSizeOverflow {
        /// The requested capacity in KiB.
        kib: u64,
    },
    /// An I-cache capacity of zero bytes.
    ZeroIcacheSize,
    /// A front-end with no line buffers cannot fetch at all.
    ZeroLineBuffers,
    /// A shared cache serving zero cores is meaningless.
    ZeroCoresPerCache,
}

impl std::fmt::Display for DesignPointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesignPointError::IcacheSizeOverflow { kib } => {
                write!(f, "I-cache size {kib} KiB overflows u64 bytes")
            }
            DesignPointError::ZeroIcacheSize => write!(f, "I-cache size must be at least 1 KiB"),
            DesignPointError::ZeroLineBuffers => {
                write!(f, "a design needs at least one line buffer")
            }
            DesignPointError::ZeroCoresPerCache => {
                write!(f, "a shared cache needs at least one core per cache")
            }
        }
    }
}

impl std::error::Error for DesignPointError {}

/// One evaluated machine configuration.
///
/// A design point is independent of the number of workers; it is turned into
/// a concrete [`AcmpConfig`] (for simulation) or [`ClusterDesign`] (for the
/// area/energy model) when an experiment instantiates it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Short label used in result tables and as the cache key.
    pub name: String,
    /// Worker I-cache sharing.
    pub sharing: SharingMode,
    /// Worker (and shared) I-cache capacity in bytes.
    pub icache_bytes: u64,
    /// Line buffers per core.
    pub line_buffers: usize,
    /// Single or double I-bus.
    pub bus_width: BusWidth,
}

impl DesignPoint {
    /// The baseline: private 32 KB I-caches, four line buffers.
    pub fn baseline() -> Self {
        DesignPoint {
            name: "baseline".to_string(),
            sharing: SharingMode::Private,
            icache_bytes: 32 * 1024,
            line_buffers: 4,
            bus_width: BusWidth::Single,
        }
    }

    /// Naive sharing (Fig. 7): a 32 KB I-cache shared by groups of `cpc`
    /// workers over a single bus, four line buffers.
    ///
    /// `cpc == 1` degenerates to private caches; `cpc == 0` is rejected.
    pub fn naive_shared(cpc: usize) -> Result<Self, DesignPointError> {
        if cpc == 0 {
            return Err(DesignPointError::ZeroCoresPerCache);
        }
        Ok(DesignPoint {
            name: format!("cpc{cpc}-32K-4lb-single"),
            sharing: if cpc <= 1 {
                SharingMode::Private
            } else {
                SharingMode::WorkerShared {
                    cores_per_cache: cpc,
                }
            },
            icache_bytes: 32 * 1024,
            line_buffers: 4,
            bus_width: BusWidth::Single,
        })
    }

    /// A fully parameterised cpc = 8 shared design (Figs. 10 and 12).
    ///
    /// Rejects zero sizes, zero line buffers, and KiB counts whose byte
    /// count overflows `u64` — in release builds an unchecked multiply
    /// would wrap and silently simulate a tiny cache.
    pub fn shared(
        icache_kib: u64,
        line_buffers: usize,
        bus_width: BusWidth,
    ) -> Result<Self, DesignPointError> {
        if icache_kib == 0 {
            return Err(DesignPointError::ZeroIcacheSize);
        }
        if line_buffers == 0 {
            return Err(DesignPointError::ZeroLineBuffers);
        }
        let icache_bytes = icache_kib
            .checked_mul(1024)
            .ok_or(DesignPointError::IcacheSizeOverflow { kib: icache_kib })?;
        let bus = match bus_width {
            BusWidth::Single => "single",
            BusWidth::Double => "double",
        };
        Ok(DesignPoint {
            name: format!("cpc8-{icache_kib}K-{line_buffers}lb-{bus}"),
            sharing: SharingMode::WorkerShared { cores_per_cache: 8 },
            icache_bytes,
            line_buffers,
            bus_width,
        })
    }

    /// The paper's preferred design: 16 KB shared by all eight workers, four
    /// line buffers, double bus — 11 % area and 5 % energy savings at no
    /// performance cost.
    pub fn proposed() -> Self {
        // acmp-lint: allow(unwrap-in-lib) -- constant known-good preset parameters cannot fail validation
        Self::shared(16, 4, BusWidth::Double).expect("fixed preset is valid")
    }

    /// The all-shared configuration of Section VI-E: master included, 32 KB,
    /// double bus.
    pub fn all_shared() -> Self {
        DesignPoint {
            name: "all-shared-32K-4lb-double".to_string(),
            sharing: SharingMode::AllShared,
            icache_bytes: 32 * 1024,
            line_buffers: 4,
            bus_width: BusWidth::Double,
        }
    }

    /// The all-shared configuration restricted to a single bus (the Group 3
    /// discussion of Fig. 13).
    pub fn all_shared_single_bus() -> Self {
        DesignPoint {
            name: "all-shared-32K-4lb-single".to_string(),
            sharing: SharingMode::AllShared,
            icache_bytes: 32 * 1024,
            line_buffers: 4,
            bus_width: BusWidth::Single,
        }
    }

    /// The worker-shared reference used by Fig. 13 (32 KB so the master's
    /// join is not confounded by capacity).
    pub fn worker_shared_32k_double() -> Self {
        // acmp-lint: allow(unwrap-in-lib) -- constant known-good preset parameters cannot fail validation
        Self::shared(32, 4, BusWidth::Double).expect("fixed preset is valid")
    }

    /// Returns a copy with a different number of line buffers.
    ///
    /// Rejects `n == 0` — a front-end with no line buffers cannot fetch.
    pub fn with_line_buffers(mut self, n: usize) -> Result<Self, DesignPointError> {
        if n == 0 {
            return Err(DesignPointError::ZeroLineBuffers);
        }
        self.line_buffers = n;
        self.name = format!("{}-{n}lb", self.name);
        Ok(self)
    }

    /// Instantiates the simulator configuration for `num_workers` workers.
    pub fn acmp_config(&self, num_workers: usize) -> AcmpConfig {
        let mut cfg = AcmpConfig::baseline(num_workers)
            .with_line_buffers(self.line_buffers)
            .with_bus_width(self.bus_width)
            .with_worker_icache_size(self.icache_bytes);
        cfg.sharing = match self.sharing {
            SharingMode::WorkerShared { cores_per_cache } => SharingMode::WorkerShared {
                cores_per_cache: cores_per_cache.min(num_workers),
            },
            other => other,
        };
        cfg
    }

    /// Instantiates the power-model cluster design for `num_workers`
    /// workers.
    pub fn cluster_design(&self, num_workers: usize) -> ClusterDesign {
        let organisation = match self.sharing {
            SharingMode::Private => IcacheOrganisation::Private {
                size_bytes: self.icache_bytes,
            },
            SharingMode::WorkerShared { cores_per_cache } => IcacheOrganisation::Shared {
                size_bytes: self.icache_bytes,
                cores_per_cache: cores_per_cache.min(num_workers),
                num_buses: self.bus_width.num_buses(),
            },
            // The all-shared design additionally removes the master's
            // private cache, but the cluster cost model only covers the
            // workers (Section VI-D), so it is treated like a fully shared
            // worker cache.
            SharingMode::AllShared => IcacheOrganisation::Shared {
                size_bytes: self.icache_bytes,
                cores_per_cache: num_workers,
                num_buses: self.bus_width.num_buses(),
            },
        };
        ClusterDesign {
            num_workers,
            line_buffers: self.line_buffers,
            organisation,
        }
    }
}

impl std::fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_points_have_expected_parameters() {
        let b = DesignPoint::baseline();
        assert_eq!(b.sharing, SharingMode::Private);
        assert_eq!(b.icache_bytes, 32 * 1024);

        let p = DesignPoint::proposed();
        assert_eq!(p.icache_bytes, 16 * 1024);
        assert_eq!(p.bus_width, BusWidth::Double);
        assert_eq!(p.line_buffers, 4);

        let n = DesignPoint::naive_shared(8).unwrap();
        assert_eq!(n.sharing, SharingMode::WorkerShared { cores_per_cache: 8 });
        assert_eq!(n.bus_width, BusWidth::Single);

        assert_eq!(
            DesignPoint::naive_shared(1).unwrap().sharing,
            SharingMode::Private
        );
        assert_eq!(DesignPoint::all_shared().sharing, SharingMode::AllShared);
    }

    #[test]
    fn invalid_parameters_yield_typed_errors() {
        assert_eq!(
            DesignPoint::naive_shared(0).unwrap_err(),
            DesignPointError::ZeroCoresPerCache
        );
        assert_eq!(
            DesignPoint::shared(0, 4, BusWidth::Single).unwrap_err(),
            DesignPointError::ZeroIcacheSize
        );
        assert_eq!(
            DesignPoint::shared(16, 0, BusWidth::Single).unwrap_err(),
            DesignPointError::ZeroLineBuffers
        );
        assert_eq!(
            DesignPoint::shared(u64::MAX, 4, BusWidth::Double).unwrap_err(),
            DesignPointError::IcacheSizeOverflow { kib: u64::MAX }
        );
        assert_eq!(
            DesignPoint::baseline().with_line_buffers(0).unwrap_err(),
            DesignPointError::ZeroLineBuffers
        );
        // Errors render a human-readable reason for spec parsers.
        let msg = DesignPoint::naive_shared(0).unwrap_err().to_string();
        assert!(msg.contains("core per cache"), "{msg}");
    }

    #[test]
    fn names_are_unique_across_the_evaluated_points() {
        let points = [
            DesignPoint::baseline(),
            DesignPoint::naive_shared(2).unwrap(),
            DesignPoint::naive_shared(4).unwrap(),
            DesignPoint::naive_shared(8).unwrap(),
            DesignPoint::shared(16, 4, BusWidth::Single).unwrap(),
            DesignPoint::shared(16, 8, BusWidth::Single).unwrap(),
            DesignPoint::shared(16, 4, BusWidth::Double).unwrap(),
            DesignPoint::shared(16, 8, BusWidth::Double).unwrap(),
            DesignPoint::proposed(),
            DesignPoint::all_shared(),
            DesignPoint::all_shared_single_bus(),
            DesignPoint::worker_shared_32k_double(),
        ];
        let mut names: Vec<&str> = points.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        // `proposed` intentionally aliases shared(16,4,double).
        assert_eq!(names.len(), before - 1);
    }

    #[test]
    fn acmp_config_reflects_the_point() {
        let cfg = DesignPoint::proposed().acmp_config(8);
        assert_eq!(cfg.worker_icache.size_bytes, 16 * 1024);
        assert_eq!(cfg.bus_width, BusWidth::Double);
        assert_eq!(
            cfg.sharing,
            SharingMode::WorkerShared { cores_per_cache: 8 }
        );
        cfg.validate();

        // A cpc larger than the worker count is clamped (useful for small
        // test machines).
        let cfg = DesignPoint::naive_shared(8).unwrap().acmp_config(2);
        assert_eq!(
            cfg.sharing,
            SharingMode::WorkerShared { cores_per_cache: 2 }
        );
        cfg.validate();
    }

    #[test]
    fn cluster_design_matches_organisation() {
        let d = DesignPoint::baseline().cluster_design(8);
        assert_eq!(d.num_icaches(), 8);
        let d = DesignPoint::proposed().cluster_design(8);
        assert_eq!(d.num_icaches(), 1);
        let d = DesignPoint::all_shared().cluster_design(8);
        assert_eq!(d.num_icaches(), 1);
    }

    #[test]
    fn display_uses_the_name() {
        assert_eq!(DesignPoint::baseline().to_string(), "baseline");
        assert_eq!(DesignPoint::proposed().to_string(), "cpc8-16K-4lb-double");
    }
}
