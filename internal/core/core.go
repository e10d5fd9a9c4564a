// Package core implements ECFault, the framework of "Revisiting Erasure
// Codes: A Configuration Perspective" (HotStorage '24): a Controller
// (EC Manager, Fault Injector, Coordinator), per-node Workers that
// provision virtual NVMe-oF disks and apply faults, and Loggers that ship
// classified log entries to the Coordinator for global analysis.
//
// An experiment is described by a Profile; the Coordinator builds the
// target DSS, runs the workload, injects the profiled faults — exporting
// a device over NVMe-oF when a fault first takes control of its state —
// measures the recovery cycle, and returns a Result holding the recovery
// timeline, storage-overhead measurements and merged logs. Run executes a
// profile: it populates a cluster once and runs the recovery side on a
// copy-on-write fork of it. RunSchedule runs a multi-round fault campaign
// the same way — one populate, one fork, and per round the fault round a
// one-shot Run performs — and returns each round's recovery, timeline
// and iostat samples.
package core
