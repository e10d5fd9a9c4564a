// Package repro reproduces "Revisiting Erasure Codes: A Configuration
// Perspective" (HotStorage '24): the ECFault framework for studying the
// configuration sensitivity of erasure-coded distributed storage systems,
// together with every substrate it needs — Reed-Solomon and Clay codes
// over GF(2^8) and a deterministic Ceph-like cluster simulator, with
// ECFault's fault injection and log classification running in-process
// around it.
//
// The benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation; see DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
package repro
