// Package repro reproduces "Revisiting Erasure Codes: A Configuration
// Perspective" (HotStorage '24): the ECFault framework for studying the
// configuration sensitivity of erasure-coded distributed storage systems,
// together with every substrate it needs — Reed-Solomon and Clay codes
// over GF(2^8) and a deterministic Ceph-like cluster simulator, with
// ECFault's fault injection and log classification running in-process
// around it.
//
// cmd/ecbench regenerates every table and figure of the paper's
// evaluation; its full-scale output with the paper's values beside it is
// checked in as paper_results.txt and pinned byte for byte by
// cmd/ecbench's TestScale1Golden. See DESIGN.md for the system inventory
// and EXPERIMENTS.md for what is reproduced and what deviates.
package repro
