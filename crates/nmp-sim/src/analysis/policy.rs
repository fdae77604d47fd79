//! The region policy: which processor may touch which [`Region`], and how.
//!
//! The HybriDS machine model (§2 of the paper) partitions physical memory:
//! host cores may only touch host main memory directly and reach
//! scratchpads exclusively through MMIO; NMP core `p` may only touch its
//! own partition and its own scratchpad. [`classify`] is the one table of
//! these rules. The engine consults it once per simulated access, whether
//! or not an [`super::Analysis`] is attached, and panics on a violation
//! naming the rule, the access and its call site (`ThreadCtx::route`).

use std::fmt;

use crate::engine::ThreadKind;
use crate::mem::Region;

/// Which architectural rule an access broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyRule {
    /// A host thread directly touched an NMP partition.
    HostTouchedPartition,
    /// A host thread touched a scratchpad without going through MMIO.
    HostDirectScratchpad,
    /// An NMP core touched a foreign partition, foreign scratchpad, or
    /// host main memory.
    NmpTouchedForeign,
    /// An MMIO access targeted a non-scratchpad region.
    MmioToNonScratchpad,
    /// An NMP core issued an MMIO access: MMIO is the host's window onto
    /// the scratchpads.
    NmpMmio,
}

impl fmt::Display for PolicyRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PolicyRule::HostTouchedPartition => "host touched an NMP partition",
            PolicyRule::HostDirectScratchpad => "host touched a scratchpad without MMIO",
            PolicyRule::NmpTouchedForeign => "NMP core touched a foreign region",
            PolicyRule::MmioToNonScratchpad => "MMIO to a non-scratchpad region",
            PolicyRule::NmpMmio => "NMP core used MMIO, a host-side path",
        })
    }
}

/// Classify an access against the region policy. `None` means allowed.
pub fn classify(kind: ThreadKind, region: Region, mmio: bool) -> Option<PolicyRule> {
    if mmio {
        return match (kind, region) {
            (ThreadKind::Nmp { .. }, _) => Some(PolicyRule::NmpMmio),
            (_, Region::Spad(_)) => None,
            _ => Some(PolicyRule::MmioToNonScratchpad),
        };
    }
    match (kind, region) {
        (ThreadKind::Host { .. }, Region::Host) => None,
        (ThreadKind::Host { .. }, Region::Part(_)) => Some(PolicyRule::HostTouchedPartition),
        (ThreadKind::Host { .. }, Region::Spad(_)) => Some(PolicyRule::HostDirectScratchpad),
        (ThreadKind::Nmp { part }, Region::Part(p))
        | (ThreadKind::Nmp { part }, Region::Spad(p)) => {
            (p != part).then_some(PolicyRule::NmpTouchedForeign)
        }
        (ThreadKind::Nmp { .. }, Region::Host) => Some(PolicyRule::NmpTouchedForeign),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_rules() {
        let host = ThreadKind::Host { core: 0 };
        assert_eq!(classify(host, Region::Host, false), None);
        assert_eq!(classify(host, Region::Part(1), false), Some(PolicyRule::HostTouchedPartition));
        assert_eq!(classify(host, Region::Spad(0), false), Some(PolicyRule::HostDirectScratchpad));
        assert_eq!(classify(host, Region::Spad(0), true), None);
        assert_eq!(classify(host, Region::Host, true), Some(PolicyRule::MmioToNonScratchpad));
        assert_eq!(classify(host, Region::Part(0), true), Some(PolicyRule::MmioToNonScratchpad));
    }

    #[test]
    fn nmp_rules() {
        let nmp = ThreadKind::Nmp { part: 1 };
        assert_eq!(classify(nmp, Region::Part(1), false), None);
        assert_eq!(classify(nmp, Region::Spad(1), false), None);
        assert_eq!(classify(nmp, Region::Part(0), false), Some(PolicyRule::NmpTouchedForeign));
        assert_eq!(classify(nmp, Region::Spad(2), false), Some(PolicyRule::NmpTouchedForeign));
        assert_eq!(classify(nmp, Region::Host, false), Some(PolicyRule::NmpTouchedForeign));
        for region in [Region::Spad(1), Region::Part(1), Region::Host] {
            assert_eq!(classify(nmp, region, true), Some(PolicyRule::NmpMmio), "{region:?}");
        }
    }
}
