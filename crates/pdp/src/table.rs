//! Match-action tables: exact match, longest-prefix match, and ternary
//! (ACL) tables with resource accounting.

use crate::resources::{ResourceKind, ResourceLedger};
use fet_packet::ipv4::Ipv4Addr;
use std::collections::HashMap;

/// Error returned when an exact table is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFull;

impl std::fmt::Display for TableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("table at capacity")
    }
}

impl std::error::Error for TableFull {}

/// An exact-match table mapping fixed keys to actions.
///
/// Hardware realizes these in SRAM with a hash scheme; the emulator uses a
/// `HashMap` but charges SRAM for `capacity` entries of the declared key and
/// action width, and refuses inserts beyond capacity — the control plane
/// would get the same error from the driver.
#[derive(Debug, Clone)]
pub struct ExactTable<K: Eq + std::hash::Hash + Clone, A: Clone> {
    name: &'static str,
    map: HashMap<K, A>,
    capacity: usize,
    key_bits: u32,
    action_bits: u32,
}

impl<K: Eq + std::hash::Hash + Clone, A: Clone> ExactTable<K, A> {
    /// Create a table with an entry budget.
    pub fn new(name: &'static str, capacity: usize, key_bits: u32, action_bits: u32) -> Self {
        ExactTable { name, map: HashMap::new(), capacity, key_bits, action_bits }
    }

    /// Insert an entry; `Err(TableFull)` when the table is full.
    pub fn insert(&mut self, key: K, action: A) -> Result<(), TableFull> {
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            return Err(TableFull);
        }
        self.map.insert(key, action);
        Ok(())
    }

    /// Look up an entry.
    pub fn lookup(&self, key: &K) -> Option<&A> {
        self.map.get(key)
    }

    /// Remove an entry.
    pub fn remove(&mut self, key: &K) -> Option<A> {
        self.map.remove(key)
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entry budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Charge SRAM + exact crossbar to the ledger.
    pub fn account(&self, ledger: &mut ResourceLedger, module: &'static str) {
        let bits = u64::from(self.key_bits + self.action_bits) * self.capacity as u64;
        ledger.charge(module, ResourceKind::SramBits, bits);
        ledger.charge(module, ResourceKind::ExactXbar, u64::from(self.key_bits));
    }

    /// Table name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Longest-prefix-match routing table over IPv4 destinations.
#[derive(Debug, Clone, Default)]
pub struct LpmTable<A: Clone> {
    /// (prefix, prefix_len, action), sorted by `(len desc, prefix asc)`:
    /// each prefix length is one contiguous run, longest first, and a run
    /// is binary-searched for the address masked to its length.
    entries: Vec<(u32, u8, A)>,
    /// One `(len, end)` per distinct prefix length, longest first: the
    /// run of that length is `entries[previous end..end]`.
    runs: Vec<(u8, usize)>,
}

impl<A: Clone> LpmTable<A> {
    /// Empty table.
    pub fn new() -> Self {
        LpmTable { entries: Vec::new(), runs: Vec::new() }
    }

    /// Rebuild the run index after the entries changed.
    fn reindex(&mut self) {
        self.runs.clear();
        for (i, e) in self.entries.iter().enumerate() {
            match self.runs.last_mut() {
                Some((len, end)) if *len == e.1 => *end = i + 1,
                _ => self.runs.push((e.1, i + 1)),
            }
        }
    }

    /// Position of `masked/len` in the sorted entries: `Ok` if installed,
    /// `Err` with the insertion point otherwise.
    fn search(&self, masked: u32, len: u8) -> Result<usize, usize> {
        self.entries.binary_search_by(|&(p, l, _)| len.cmp(&l).then(p.cmp(&masked)))
    }

    /// Insert a route `addr/len -> action`. Replaces an identical prefix.
    pub fn insert(&mut self, addr: Ipv4Addr, len: u8, action: A) {
        assert!(len <= 32);
        let masked = mask(addr.as_u32(), len);
        match self.search(masked, len) {
            Ok(i) => self.entries[i].2 = action,
            Err(i) => {
                self.entries.insert(i, (masked, len, action));
                self.reindex();
            }
        }
    }

    /// Remove a route, returning its action.
    pub fn remove(&mut self, addr: Ipv4Addr, len: u8) -> Option<A> {
        let i = self.search(mask(addr.as_u32(), len), len).ok()?;
        let (_, _, action) = self.entries.remove(i);
        self.reindex();
        Some(action)
    }

    /// Longest-prefix lookup: one binary search per distinct prefix
    /// length, longest first. At most one entry per length can match, so
    /// the first hit is the longest match.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<&A> {
        let a = addr.as_u32();
        let mut start = 0;
        for &(len, end) in &self.runs {
            let run = &self.entries[start..end];
            if let Ok(i) = run.binary_search_by_key(&mask(a, len), |e| e.0) {
                return Some(&run[i].2);
            }
            start = end;
        }
        None
    }

    /// Number of routes installed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Charge TCAM usage (32-bit key + action) to the ledger.
    pub fn account(&self, ledger: &mut ResourceLedger, module: &'static str) {
        ledger.charge(module, ResourceKind::TcamBits, 64 * self.entries.len() as u64);
        ledger.charge(module, ResourceKind::TernaryXbar, 32);
    }
}

fn mask(addr: u32, len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        addr & (u32::MAX << (32 - u32::from(len)))
    }
}

/// ACL verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AclAction {
    /// Pass the packet on.
    Permit,
    /// Drop it; the rule id feeds NetSeer's per-ACL-rule aggregation.
    Deny,
}

/// One ternary ACL rule over the 5-tuple. `None` fields are wildcards.
#[derive(Debug, Clone)]
pub struct AclRule {
    /// Rule identifier used for drop aggregation (paper §3.4).
    pub rule_id: u32,
    /// Priority: lower value = higher priority.
    pub priority: u32,
    /// Source prefix (addr, len).
    pub src: Option<(Ipv4Addr, u8)>,
    /// Destination prefix (addr, len).
    pub dst: Option<(Ipv4Addr, u8)>,
    /// Exact source port.
    pub sport: Option<u16>,
    /// Exact destination port.
    pub dport: Option<u16>,
    /// Exact protocol number.
    pub proto: Option<u8>,
    /// Verdict.
    pub action: AclAction,
}

impl AclRule {
    /// A permit-everything rule.
    pub fn permit_all(rule_id: u32, priority: u32) -> Self {
        AclRule {
            rule_id,
            priority,
            src: None,
            dst: None,
            sport: None,
            dport: None,
            proto: None,
            action: AclAction::Permit,
        }
    }

    fn matches(&self, flow: &fet_packet::FlowKey) -> bool {
        let pfx = |want: &Option<(Ipv4Addr, u8)>, have: Ipv4Addr| match want {
            None => true,
            Some((a, l)) => mask(have.as_u32(), *l) == mask(a.as_u32(), *l),
        };
        pfx(&self.src, flow.src)
            && pfx(&self.dst, flow.dst)
            && self.sport.is_none_or(|p| p == flow.sport)
            && self.dport.is_none_or(|p| p == flow.dport)
            && self.proto.is_none_or(|p| p == flow.proto.number())
    }
}

/// Priority-ordered ternary ACL table.
#[derive(Debug, Clone, Default)]
pub struct AclTable {
    rules: Vec<AclRule>,
}

impl AclTable {
    /// Empty table.
    pub fn new() -> Self {
        AclTable { rules: Vec::new() }
    }

    /// Install a rule (stable sort by priority).
    pub fn install(&mut self, rule: AclRule) {
        self.rules.push(rule);
        self.rules.sort_by_key(|r| r.priority);
    }

    /// Remove a rule by id.
    pub fn remove(&mut self, rule_id: u32) -> bool {
        let before = self.rules.len();
        self.rules.retain(|r| r.rule_id != rule_id);
        self.rules.len() != before
    }

    /// Evaluate a flow; returns the matching rule's (verdict, rule_id).
    /// No match ⇒ implicit permit with rule id 0.
    pub fn evaluate(&self, flow: &fet_packet::FlowKey) -> (AclAction, u32) {
        for r in &self.rules {
            if r.matches(flow) {
                return (r.action, r.rule_id);
            }
        }
        (AclAction::Permit, 0)
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Charge TCAM usage (104-bit 5-tuple key) to the ledger.
    pub fn account(&self, ledger: &mut ResourceLedger, module: &'static str) {
        ledger.charge(module, ResourceKind::TcamBits, 104 * self.rules.len() as u64);
        ledger.charge(module, ResourceKind::TernaryXbar, 104);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_packet::FlowKey;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::from_octets([a, b, c, d])
    }

    #[test]
    fn exact_table_capacity_enforced() {
        let mut t: ExactTable<u32, u32> = ExactTable::new("t", 2, 32, 8);
        t.insert(1, 10).unwrap();
        t.insert(2, 20).unwrap();
        assert!(t.insert(3, 30).is_err());
        // Replacing an existing key is fine at capacity.
        t.insert(1, 11).unwrap();
        assert_eq!(t.lookup(&1), Some(&11));
        assert_eq!(t.remove(&2), Some(20));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lpm_longest_prefix_wins() {
        let mut t: LpmTable<&str> = LpmTable::new();
        t.insert(ip(10, 0, 0, 0), 8, "coarse");
        t.insert(ip(10, 1, 0, 0), 16, "fine");
        t.insert(ip(0, 0, 0, 0), 0, "default");
        assert_eq!(t.lookup(ip(10, 1, 2, 3)), Some(&"fine"));
        assert_eq!(t.lookup(ip(10, 9, 2, 3)), Some(&"coarse"));
        assert_eq!(t.lookup(ip(192, 168, 0, 1)), Some(&"default"));
    }

    #[test]
    fn lpm_remove_creates_blackhole() {
        let mut t: LpmTable<&str> = LpmTable::new();
        t.insert(ip(10, 0, 0, 0), 8, "r");
        assert_eq!(t.remove(ip(10, 0, 0, 0), 8), Some("r"));
        assert_eq!(t.lookup(ip(10, 1, 2, 3)), None);
    }

    #[test]
    fn lpm_runs_stay_sorted_across_insert_and_remove() {
        let mut t: LpmTable<u8> = LpmTable::new();
        t.insert(ip(10, 0, 0, 7), 32, 1);
        t.insert(ip(10, 0, 0, 0), 8, 2);
        t.insert(ip(10, 0, 0, 3), 32, 3);
        t.insert(ip(10, 1, 0, 0), 16, 4);
        t.insert(ip(9, 0, 0, 0), 8, 5);
        assert_eq!(t.remove(ip(10, 0, 0, 3), 32), Some(3));
        let keys: Vec<(u32, u8)> = t.entries.iter().map(|e| (e.0, e.1)).collect();
        let mut sorted = keys.clone();
        sorted.sort_by_key(|&(p, l)| (std::cmp::Reverse(l), p));
        assert_eq!(keys, sorted);
        assert_eq!(t.runs, vec![(32, 1), (16, 2), (8, 4)]);
        assert_eq!(t.lookup(ip(10, 0, 0, 7)), Some(&1));
        assert_eq!(t.lookup(ip(10, 0, 0, 3)), Some(&2));
        assert_eq!(t.lookup(ip(9, 9, 9, 9)), Some(&5));
    }

    #[test]
    fn lpm_replace_same_prefix() {
        let mut t: LpmTable<u8> = LpmTable::new();
        t.insert(ip(10, 0, 0, 0), 8, 1);
        t.insert(ip(10, 0, 0, 0), 8, 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(ip(10, 5, 5, 5)), Some(&2));
    }

    #[test]
    fn acl_priority_and_wildcards() {
        let mut acl = AclTable::new();
        acl.install(AclRule {
            rule_id: 7,
            priority: 10,
            src: Some((ip(10, 0, 0, 0), 24)),
            dst: None,
            sport: None,
            dport: Some(22),
            proto: None,
            action: AclAction::Deny,
        });
        acl.install(AclRule::permit_all(1, 100));

        let ssh = FlowKey::tcp(ip(10, 0, 0, 5), 999, ip(10, 9, 9, 9), 22);
        let web = FlowKey::tcp(ip(10, 0, 0, 5), 999, ip(10, 9, 9, 9), 80);
        let other = FlowKey::tcp(ip(10, 0, 1, 5), 999, ip(10, 9, 9, 9), 22);
        assert_eq!(acl.evaluate(&ssh), (AclAction::Deny, 7));
        assert_eq!(acl.evaluate(&web), (AclAction::Permit, 1));
        assert_eq!(acl.evaluate(&other), (AclAction::Permit, 1));
    }

    #[test]
    fn acl_empty_permits() {
        let acl = AclTable::new();
        let f = FlowKey::tcp(ip(1, 1, 1, 1), 1, ip(2, 2, 2, 2), 2);
        assert_eq!(acl.evaluate(&f), (AclAction::Permit, 0));
    }

    #[test]
    fn acl_remove() {
        let mut acl = AclTable::new();
        acl.install(AclRule::permit_all(5, 1));
        assert!(acl.remove(5));
        assert!(!acl.remove(5));
        assert!(acl.is_empty());
    }

    #[test]
    fn mask_zero_len() {
        assert_eq!(mask(0xdead_beef, 0), 0);
        assert_eq!(mask(0xdead_beef, 32), 0xdead_beef);
        assert_eq!(mask(0xdead_beef, 16), 0xdead_0000);
    }
}
