//! Resource taxonomy and site specifications.
//!
//! A shared-nothing system consists of `P` *identical* sites, each a bundle
//! of `d` time-sliceable (preemptable) resources (Section 3.1). Our model
//! assumes a fixed numbering of resources for all sites (Section 4.1); a
//! [`SiteSpec`] records that numbering along with the *kind* of each
//! resource so cost models know where CPU, disk, and network-interface time
//! belongs.

use std::fmt;

/// The kind of a preemptable site resource.
///
/// The paper's experiments use 3-dimensional sites with one CPU, one disk
/// unit, and one network interface (Section 6.1); the model itself is
/// generic in `d`, so extra disks, CPUs, or custom resources are allowed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// A central processing unit.
    Cpu,
    /// A disk unit (disk bandwidth is preemptable; see Section 8 for the
    /// caveat on disk time-sharing overhead).
    Disk,
    /// A network interface / communication processor.
    Network,
    /// Any other preemptable resource, tagged with a user-chosen id.
    Other(u8),
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceKind::Cpu => write!(f, "cpu"),
            ResourceKind::Disk => write!(f, "disk"),
            ResourceKind::Network => write!(f, "net"),
            ResourceKind::Other(id) => write!(f, "other{id}"),
        }
    }
}

/// The resource layout shared by every site of the system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteSpec {
    kinds: Vec<ResourceKind>,
    cpu: usize,
    net: usize,
}

impl SiteSpec {
    /// Creates a site specification from an ordered resource list.
    ///
    /// The list must contain at least one [`ResourceKind::Cpu`] and at
    /// least one [`ResourceKind::Network`] entry — the communication model
    /// (Section 4.3 and experimental assumption EA1) charges startup cost
    /// to the coordinator's CPU and network interface, so both must exist.
    ///
    /// # Errors
    /// Returns a message naming the missing resource if the layout is
    /// unusable.
    pub fn new(kinds: Vec<ResourceKind>) -> Result<Self, String> {
        if kinds.is_empty() {
            return Err("a site must have at least one resource".to_owned());
        }
        let cpu = kinds
            .iter()
            .position(|k| *k == ResourceKind::Cpu)
            .ok_or_else(|| "site layout needs a CPU resource".to_owned())?;
        let net = kinds
            .iter()
            .position(|k| *k == ResourceKind::Network)
            .ok_or_else(|| "site layout needs a network-interface resource".to_owned())?;
        Ok(SiteSpec { kinds, cpu, net })
    }

    /// The paper's experimental layout: `[Cpu, Disk, Network]` (`d = 3`).
    pub fn cpu_disk_net() -> Self {
        SiteSpec::new(vec![
            ResourceKind::Cpu,
            ResourceKind::Disk,
            ResourceKind::Network,
        ])
        .expect("static layout is valid")
    }

    /// Site dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.kinds.len()
    }

    /// Ordered resource kinds.
    #[inline]
    pub fn kinds(&self) -> &[ResourceKind] {
        &self.kinds
    }

    /// Index of the (first) CPU dimension.
    #[inline]
    pub fn cpu_dim(&self) -> usize {
        self.cpu
    }

    /// Index of the (first) network-interface dimension.
    #[inline]
    pub fn net_dim(&self) -> usize {
        self.net
    }

    /// Index of the first disk dimension, if the layout has one.
    pub fn disk_dim(&self) -> Option<usize> {
        self.kinds.iter().position(|k| *k == ResourceKind::Disk)
    }

    /// Indices of all dimensions of the given kind.
    pub fn dims_of(&self, kind: ResourceKind) -> impl Iterator<Item = usize> + '_ {
        self.kinds
            .iter()
            .enumerate()
            .filter(move |(_, k)| **k == kind)
            .map(|(i, _)| i)
    }
}

impl Default for SiteSpec {
    fn default() -> Self {
        SiteSpec::cpu_disk_net()
    }
}

/// Identifier of a system site (`s_j`, `0 ≤ j < P`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub usize);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The machine: `P` identical sites sharing one [`SiteSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystemSpec {
    /// Number of sites `P`.
    pub sites: usize,
    /// Per-site resource layout.
    pub site: SiteSpec,
}

impl SystemSpec {
    /// Creates a system of `sites` identical sites.
    ///
    /// # Errors
    /// Returns an error message if `sites == 0`.
    pub fn new(sites: usize, site: SiteSpec) -> Result<Self, String> {
        if sites == 0 {
            return Err("a system needs at least one site".to_owned());
        }
        Ok(SystemSpec { sites, site })
    }

    /// Convenience: `P` sites with the paper's `[Cpu, Disk, Network]`
    /// layout.
    pub fn homogeneous(sites: usize) -> Self {
        SystemSpec::new(sites, SiteSpec::cpu_disk_net()).expect("non-zero site count")
    }

    /// Site dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.site.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_disk_net_layout() {
        let s = SiteSpec::cpu_disk_net();
        assert_eq!(s.dim(), 3);
        assert_eq!(s.cpu_dim(), 0);
        assert_eq!(s.disk_dim(), Some(1));
        assert_eq!(s.net_dim(), 2);
    }

    #[test]
    fn layout_requires_cpu_and_network() {
        assert!(SiteSpec::new(vec![ResourceKind::Disk]).is_err());
        assert!(SiteSpec::new(vec![ResourceKind::Cpu]).is_err());
        assert!(SiteSpec::new(vec![ResourceKind::Network]).is_err());
        assert!(SiteSpec::new(vec![ResourceKind::Cpu, ResourceKind::Network]).is_ok());
        assert!(SiteSpec::new(vec![]).is_err());
    }

    #[test]
    fn multi_disk_layout() {
        let s = SiteSpec::new(vec![
            ResourceKind::Cpu,
            ResourceKind::Disk,
            ResourceKind::Disk,
            ResourceKind::Network,
        ])
        .unwrap();
        assert_eq!(s.dim(), 4);
        assert_eq!(
            s.dims_of(ResourceKind::Disk).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn system_spec_rejects_zero_sites() {
        assert!(SystemSpec::new(0, SiteSpec::cpu_disk_net()).is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(SiteId(3).to_string(), "s3");
        assert_eq!(ResourceKind::Cpu.to_string(), "cpu");
        assert_eq!(ResourceKind::Other(7).to_string(), "other7");
    }
}
