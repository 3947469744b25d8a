//! The JVM heap model.
//!
//! Memory is the resource the rejuvenation experiments (Section 6.4) turn
//! on: components leak per invocation, the heap fills, and either the
//! rejuvenation service microreboots the leakers in time or the JVM runs
//! out of memory and crashes. The heap model also accounts for leaks
//! *outside* the application (JBoss-internal, Table 2's "intra-JVM" row),
//! which no microreboot can reclaim, and leaks outside the JVM entirely
//! ("extra-JVM"), which even a JVM restart cannot.

/// The memory picture of one node: JVM heap plus host memory.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HeapModel {
    capacity: u64,
    server_base: u64,
    /// Leaked inside the JVM but outside any component (cured by JVM
    /// restart only).
    intra_jvm_leaked: u64,
    /// Leaked outside the JVM (native/kernel; cured by OS reboot only).
    extra_jvm_leaked: u64,
    /// Host memory available to the JVM process beyond its heap.
    host_headroom: u64,
}

impl HeapModel {
    /// Creates a heap of `capacity` bytes with `server_base` bytes used by
    /// the server itself.
    ///
    /// # Panics
    ///
    /// Panics if the base exceeds the capacity.
    pub(crate) fn new(capacity: u64, server_base: u64) -> Self {
        assert!(server_base < capacity, "server must fit in the heap");
        HeapModel {
            capacity,
            server_base,
            intra_jvm_leaked: 0,
            extra_jvm_leaked: 0,
            host_headroom: capacity / 2,
        }
    }

    /// Returns free heap given the bytes used by application components
    /// and in-process session state.
    pub(crate) fn free(&self, component_bytes: u64, session_bytes: u64) -> u64 {
        self.capacity.saturating_sub(
            self.server_base + self.intra_jvm_leaked + component_bytes + session_bytes,
        )
    }

    /// Returns true if the JVM would throw `OutOfMemoryError` at this
    /// usage.
    pub(crate) fn is_oom(&self, component_bytes: u64, session_bytes: u64) -> bool {
        self.free(component_bytes, session_bytes) == 0
    }

    /// Returns true if the host itself is out of memory (extra-JVM leak
    /// exceeded host headroom) — only an OS reboot helps.
    pub(crate) fn host_oom(&self) -> bool {
        self.extra_jvm_leaked >= self.host_headroom
    }

    /// Adds an intra-JVM (outside-application) leak.
    pub(crate) fn leak_intra_jvm(&mut self, bytes: u64) {
        self.intra_jvm_leaked = self.intra_jvm_leaked.saturating_add(bytes);
    }

    /// Adds an extra-JVM (native/kernel) leak.
    pub(crate) fn leak_extra_jvm(&mut self, bytes: u64) {
        self.extra_jvm_leaked = self.extra_jvm_leaked.saturating_add(bytes);
    }

    /// A JVM restart reclaims intra-JVM leaks (but not extra-JVM ones).
    pub(crate) fn on_process_restart(&mut self) {
        self.intra_jvm_leaked = 0;
    }

    /// An OS reboot reclaims everything.
    pub(crate) fn on_os_reboot(&mut self) {
        self.intra_jvm_leaked = 0;
        self.extra_jvm_leaked = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn free_accounts_for_all_consumers() {
        let h = HeapModel::new(GIB, 100 << 20);
        let free = h.free(200 << 20, 50 << 20);
        assert_eq!(free, GIB - (350 << 20));
    }

    #[test]
    fn oom_when_full() {
        let mut h = HeapModel::new(GIB, 100 << 20);
        assert!(!h.is_oom(0, 0));
        h.leak_intra_jvm(2 * GIB);
        assert!(h.is_oom(0, 0));
        assert_eq!(h.free(0, 0), 0);
    }

    #[test]
    fn restart_reclaims_intra_jvm_leaks() {
        let mut h = HeapModel::new(GIB, 100 << 20);
        let healthy = h.free(0, 0);
        h.leak_intra_jvm(10 << 20);
        assert_eq!(h.free(0, 0), healthy - (10 << 20));
        h.on_process_restart();
        assert_eq!(h.free(0, 0), healthy);
    }

    #[test]
    fn host_oom_needs_os_reboot() {
        let mut h = HeapModel::new(GIB, 100 << 20);
        h.leak_extra_jvm(GIB);
        assert!(h.host_oom());
        h.on_process_restart();
        assert!(h.host_oom(), "JVM restart does not reclaim native leaks");
        h.on_os_reboot();
        assert!(!h.host_oom());
    }
}
