// Package core implements ECFault, the framework of "Revisiting Erasure
// Codes: A Configuration Perspective" (HotStorage '24), as in-process code
// around the cluster simulator: a Controller (EC Manager, Fault Injector,
// Coordinator) whose Coordinator classifies every log line the cluster
// emits into a timeline for global analysis.
//
// An experiment is described by a Profile; the Coordinator builds the
// target DSS, runs the workload, injects the profiled faults — a
// node-level fault stops every OSD of a host, a device-level fault removes
// its OSDs' devices, both at the fault's simulated time — measures the
// recovery cycle, and returns a Result holding the recovery timeline,
// storage-overhead measurements and merged logs. Run executes a profile:
// it populates a cluster once and runs the recovery side on a
// copy-on-write fork of it. RunSchedule runs a multi-round fault campaign
// the same way — one populate, one fork, and per round the fault round a
// one-shot Run performs — and returns each round's recovery, timeline
// and iostat samples.
package core
