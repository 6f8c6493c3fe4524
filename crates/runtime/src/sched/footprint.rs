//! The shared independence layer of schedule exploration: instruction
//! [`Footprint`]s, the commutation predicate, and [`VectorClock`]s.
//!
//! DPOR asks one question of each pair of steps — *do two scheduler
//! transitions commute?* The machine records a `Footprint` per eligible
//! thread at each consult (bounded, PCT and DPOR runs all receive them
//! through [`SchedContext::footprints`](super::SchedContext)), the DPOR
//! engine's happens-before analysis calls [`Footprint::independent`], and
//! DPOR derives per-step [`VectorClock`]s from the recorded footprints to
//! find *reversible races* — adjacent-in-causality dependent steps whose
//! order the search has not yet tried both ways.

use crate::locks::ThreadId;

/// The first shared effect a thread's next instruction would have — the
/// evidence DPOR's independence check works from. Two adjacent
/// decisions with provably disjoint footprints commute, so only one of
/// their orders needs exploring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Footprint {
    /// Acquire or release of one specific lock.
    Lock(u32),
    /// Read of one specific shared address.
    Read(i64),
    /// Write of one specific shared address.
    Write(i64),
    /// Unknown or compound effect — conservatively conflicts with
    /// everything.
    #[default]
    Opaque,
}

impl Footprint {
    /// Whether two footprints provably commute: distinct locks, reads of
    /// anything, or memory operations on distinct addresses. `Opaque`
    /// never commutes.
    pub fn independent(self, other: Footprint) -> bool {
        use Footprint::*;
        match (self, other) {
            (Lock(a), Lock(b)) => a != b,
            (Read(_), Read(_)) => true,
            (Read(a), Write(b)) | (Write(a), Read(b)) | (Write(a), Write(b)) => a != b,
            // Lock words and memory words live in disjoint state.
            (Lock(_), Read(_) | Write(_)) | (Read(_) | Write(_), Lock(_)) => true,
            (Opaque, _) | (_, Opaque) => false,
        }
    }
}

/// A vector clock over scheduler decisions: component `t` counts the
/// decisions of thread `t` that happen-before the event carrying the
/// clock. DPOR's race analysis assigns one clock per executed decision —
/// program order plus an edge from every *dependent* (non-commuting)
/// earlier step — and two dependent steps race exactly when neither clock
/// is below the other's thread-local knowledge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorClock(Vec<u32>);

impl VectorClock {
    /// The zero clock over `threads` components.
    pub fn new(threads: usize) -> Self {
        VectorClock(vec![0; threads])
    }

    /// Component for `thread`.
    #[inline]
    pub fn get(&self, thread: ThreadId) -> u32 {
        self.0[thread.index()]
    }

    /// Whether `self` happens-before-or-equals `other` (component-wise ≤).
    pub fn leq(&self, other: &VectorClock) -> bool {
        debug_assert_eq!(self.0.len(), other.0.len());
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    /// Component-wise maximum, in place.
    pub fn join(&mut self, other: &VectorClock) {
        debug_assert_eq!(self.0.len(), other.0.len());
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Increments `thread`'s component — the event itself.
    pub fn bump(&mut self, thread: ThreadId) {
        self.0[thread.index()] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independence_table() {
        use Footprint::*;
        assert!(Lock(0).independent(Lock(1)));
        assert!(!Lock(0).independent(Lock(0)));
        assert!(Read(8).independent(Read(8)), "reads always commute");
        assert!(!Read(8).independent(Write(8)));
        assert!(Read(8).independent(Write(9)));
        assert!(!Write(8).independent(Write(8)));
        assert!(Lock(0).independent(Write(0)), "locks are not memory");
        assert!(!Opaque.independent(Read(8)));
        assert!(!Opaque.independent(Opaque));
    }

    #[test]
    fn clocks_order_and_join() {
        let t0 = ThreadId(0);
        let t1 = ThreadId(1);
        let mut a = VectorClock::new(2);
        a.bump(t0); // a = [1, 0]
        let mut b = VectorClock::new(2);
        b.bump(t1); // b = [0, 1]
        assert!(!a.leq(&b));
        assert!(!b.leq(&a), "concurrent: neither below the other");
        let mut j = a.clone();
        j.join(&b); // [1, 1]
        assert!(a.leq(&j));
        assert!(b.leq(&j));
        assert_eq!(j.get(t0), 1);
        assert_eq!(j.get(t1), 1);
        assert!(VectorClock::new(2).leq(&a), "zero below everything");
    }
}
